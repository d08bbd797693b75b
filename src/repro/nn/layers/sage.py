"""GraphSage convolution.

    h_t = W_self · x_t + W_neigh · agg_{s∈S(t)} x_s

"There are several aggregation types for GraphSage.  We use the mean
aggregation" (paper §IV "GNN Models").

The layer is one taped op that keeps only the neighbor mean; the input's
gradient is the transposed mean g-SpMM plus the targets' own rows.
"""

from __future__ import annotations

import numpy as np

from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.ops import spmm
from repro.ops.neighbor_sampler import LayerBlock


class SAGEConv(Module):
    """One GraphSage layer over a :class:`LayerBlock`."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator):
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.linear_self = Linear(in_features, out_features, rng)
        self.linear_neigh = Linear(in_features, out_features, rng, bias=False)

    def forward(self, block: LayerBlock, x: Tensor) -> Tensor:
        indptr, indices, n = block.indptr, block.indices, block.num_targets
        neigh = spmm.gspmm_mean(indptr, indices, x.data)
        lin_self, lin_neigh = self.linear_self, self.linear_neigh

        def backward(g):
            need = x.requires_grad
            g_self, *g_params = lin_self.pullback(g, x.data[:n], need)
            g_neigh, g_w_neigh = lin_neigh.pullback(g, neigh, need)
            if not need:
                return (None, *g_params, g_w_neigh)
            gx = spmm.gspmm_mean_backward_features(
                indptr, indices, g_neigh, x.data.shape[0]
            )
            gx[:n] += g_self
            return (gx, *g_params, g_w_neigh)

        out = lin_self.apply(x.data[:n]) + lin_neigh.apply(neigh)
        return Tensor._make(
            out, (x, *lin_self.parameters(), *lin_neigh.parameters()), backward
        )

    def estimate_cost(self, num_targets: int, num_src: int,
                      num_edges: int) -> dict[str, float]:
        return {
            "flops": self.linear_self.flops(num_targets)
            + self.linear_neigh.flops(num_targets),
            "sparse_bytes": 4.0 * num_edges * self.in_features * 2,
        }
