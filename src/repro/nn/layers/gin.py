"""Graph isomorphism network (GIN) convolution — an extension layer.

Not part of the paper's evaluation trio, but the paper motivates graph
classification (§I), GIN's home turf.  Implements

    h_t = MLP((1 + ε) · x_t + Σ_{s∈S(t)} x_s)

with a learnable ε and a two-layer MLP, on the same sampled-block
interface as the evaluation layers.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.ops.neighbor_sampler import LayerBlock


class GINConv(Module):
    """One GIN layer over a :class:`LayerBlock`."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, init_eps: float = 0.0):
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.eps = Parameter(np.array([init_eps], dtype=np.float32))
        self.mlp_in = Linear(in_features, out_features, rng)
        self.mlp_out = Linear(out_features, out_features, rng)

    def forward(self, block: LayerBlock, x: Tensor) -> Tensor:
        neigh_sum = F.spmm_sum(block.indptr, block.indices, x)
        x_self = F.slice_rows(x, block.num_targets)
        combined = x_self * (self.eps + 1.0) + neigh_sum
        return self.mlp_out(F.relu(self.mlp_in(combined)))

    def estimate_cost(self, num_targets: int, num_src: int,
                      num_edges: int) -> dict[str, float]:
        return {
            "flops": self.mlp_in.flops(num_targets)
            + self.mlp_out.flops(num_targets),
            "sparse_bytes": 4.0 * num_edges * self.in_features * 2,
        }
