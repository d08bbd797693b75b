"""Sampled GCN convolution.

The original GCN (Kipf & Welling) is full-batch; the paper adds neighbor
sampling to it (§IV "GNN Models"), which turns each layer into

    h_t = W · (x_t + Σ_{s∈S(t)} x_s) / (|S(t)| + 1)

— mean over the sampled neighborhood *including the target itself* (the
self-connection of Â = A + I), followed by the dense projection.  The
target's own embedding is the row prefix of the block input (WholeGraph's
prefix property), so no self-edges are materialised.

The layer is one taped op that keeps only the mean and ``1/(deg+1)``; the
input's gradient is the transposed g-SpMM plus the targets' own rows.
"""

from __future__ import annotations

import numpy as np

from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.ops import spmm
from repro.ops.neighbor_sampler import LayerBlock


class GCNConv(Module):
    """One sampled-GCN layer over a :class:`LayerBlock`."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator):
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.linear = Linear(in_features, out_features, rng)

    def forward(self, block: LayerBlock, x: Tensor) -> Tensor:
        """``x`` has ``block.num_src`` rows (targets first)."""
        indptr, indices, n = block.indptr, block.indices, block.num_targets
        deg = (indptr[1:] - indptr[:-1]).astype(np.float32)
        inv = (1.0 / (deg + 1.0))[:, None]
        mean = (spmm.gspmm_sum(indptr, indices, x.data) + x.data[:n]) * inv
        lin = self.linear

        def backward(g):
            g_mean, *g_params = lin.pullback(g, mean, x.requires_grad)
            if g_mean is None:
                return (None, *g_params)
            g_mean *= inv
            gx = spmm.gspmm_backward_features(
                indptr, indices, g_mean, x.data.shape[0]
            )
            gx[:n] += g_mean
            return (gx, *g_params)

        return Tensor._make(lin.apply(mean), (x, *lin.parameters()), backward)

    def estimate_cost(self, num_targets: int, num_src: int,
                      num_edges: int) -> dict[str, float]:
        """Forward work: dense FLOPs and sparse bytes touched."""
        return {
            "flops": self.linear.flops(num_targets),
            "sparse_bytes": 4.0 * num_edges * self.in_features * 2
            + 4.0 * num_targets * self.in_features * 2,
        }
