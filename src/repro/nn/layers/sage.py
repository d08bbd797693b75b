"""GraphSage convolution.

    h_t = W_self · x_t + W_neigh · agg_{s∈S(t)} x_s

"There are several aggregation types for GraphSage.  We use the mean
aggregation" (paper §IV "GNN Models").
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor
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
        neigh = F.spmm_mean(block.indptr, block.indices, x)
        x_self = F.slice_rows(x, block.num_targets)
        return self.linear_self(x_self) + self.linear_neigh(neigh)

    def estimate_cost(self, num_targets: int, num_src: int,
                      num_edges: int) -> dict[str, float]:
        return {
            "flops": self.linear_self.flops(num_targets)
            + self.linear_neigh.flops(num_targets),
            "sparse_bytes": 4.0 * num_edges * self.in_features * 2,
        }
