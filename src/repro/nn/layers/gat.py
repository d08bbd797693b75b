"""Graph attention convolution (Veličković et al.), 4 heads in the paper.

Per head h:

    e_{s,t} = LeakyReLU(a_l^T W x_t + a_r^T W x_s)     (g-SDDMM, add form)
    α_{s,t} = softmax_{s ∈ S(t)}(e_{s,t})              (edge softmax)
    h_t     = Σ_s α_{s,t} · W x_s                      (weighted g-SpMM)

Heads are concatenated.  All three sparse stages run on the block's CSR
(§III-C4); their backward passes are exercised through autograd.  The
weighted g-SpMM is :func:`repro.nn.functional.spmm_sum` with α as the
``(E, H)`` edge weights: one CSR SpMM per head forward and on the
transposed CSR backward, and a blocked g-SDDMM for ``dL/dα``, so the
``(E, H, D)`` per-edge messages never exist.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.init import xavier_uniform
from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.ops.neighbor_sampler import LayerBlock


class GATConv(Module):
    """One multi-head GAT layer over a :class:`LayerBlock`.

    ``out_features`` is the *total* output width; it must divide evenly by
    ``num_heads`` (each head produces ``out_features // num_heads``).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        num_heads: int = 4,
        negative_slope: float = 0.2,
    ):
        super().__init__()
        if out_features % num_heads:
            raise ValueError("out_features must be divisible by num_heads")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.num_heads = int(num_heads)
        self.head_dim = out_features // num_heads
        self.negative_slope = float(negative_slope)
        self.linear = Linear(in_features, out_features, rng, bias=False)
        self.att_dst = Parameter(
            xavier_uniform((self.num_heads, self.head_dim), rng)
        )
        self.att_src = Parameter(
            xavier_uniform((self.num_heads, self.head_dim), rng)
        )
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32))

    def forward(self, block: LayerBlock, x: Tensor) -> Tensor:
        h = self.linear(x).reshape(-1, self.num_heads, self.head_dim)
        # per-node attention halves: (N, H)
        e_dst = (h * self.att_dst).sum(axis=2)
        e_src = (h * self.att_src).sum(axis=2)
        logits = F.leaky_relu(
            F.edge_gather_add(block.indptr, block.indices, e_dst, e_src),
            self.negative_slope,
        )
        alpha = F.edge_softmax(block.indptr, logits)  # (E, H)
        out = F.spmm_sum(block.indptr, block.indices, h, alpha)  # (T, H, D)
        return out.reshape(-1, self.out_features) + self.bias

    def estimate_cost(self, num_targets: int, num_src: int,
                      num_edges: int) -> dict[str, float]:
        att_flops = 2.0 * num_src * self.out_features * 2  # e_dst, e_src
        edge_flops = 4.0 * num_edges * self.num_heads * (self.head_dim + 3)
        return {
            "flops": self.linear.flops(num_src) + att_flops + edge_flops,
            "sparse_bytes": 4.0 * num_edges * (self.out_features * 2
                                               + self.num_heads * 6),
        }
