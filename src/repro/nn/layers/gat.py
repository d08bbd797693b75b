"""Graph attention convolution (Veličković et al.), 4 heads in the paper.

Per head h:

    e_{s,t} = LeakyReLU(a_l^T W x_t + a_r^T W x_s)     (g-SDDMM, add form)
    α_{s,t} = softmax_{s ∈ S(t)}(e_{s,t})              (edge softmax)
    h_t     = Σ_s α_{s,t} · W x_s                      (weighted g-SpMM)

Heads are concatenated.  All three sparse stages run on the block's CSR
(§III-C4), and the layer is one taped op that keeps only what its backward
reads: ``W x``, α, the leaky-ReLU sign mask and the edges' target rows.
The forward computes the logits with :func:`repro.ops.sddmm.gsddmm_add` and
aggregates with one CSR g-SpMM per head, α as the edge weights; the
backward runs one g-SpMM per head on the transposed CSR for ``dL/d(W x)``
and a blocked g-SDDMM for ``dL/dα``, so the ``(E, H, D)`` per-edge messages
never exist.  Its float32 operations are those of the separate taped ops
(dense projection, edge gather-add, leaky ReLU, edge softmax, weighted
g-SpMM, bias) in the same order.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import xavier_uniform
from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.ops import sddmm, segment, spmm
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
        indptr, n = block.indptr, block.num_targets
        indices = np.asarray(block.indices, dtype=np.int64)
        num_src, heads = x.data.shape[0], self.num_heads
        lin, att_dst, att_src = self.linear, self.att_dst, self.att_src
        h = lin.apply(x.data).reshape(num_src, heads, self.head_dim)
        # per-node attention halves (N, H), then the per-edge logits (E, H)
        logits = sddmm.gsddmm_add(
            indptr, indices, (h * att_dst.data).sum(axis=2),
            (h * att_src.data).sum(axis=2),
        )
        positive = logits > 0
        slope = np.float32(self.negative_slope)
        logits *= np.where(positive, np.float32(1.0), slope)
        alpha = segment.segment_softmax(logits, indptr)
        seg_ids = segment.segment_ids_from_indptr(indptr)
        out = spmm.gspmm_heads(indptr, indices, h, alpha)

        def backward(g):
            g_bias = g.sum(axis=0)
            g_h, g_e = sddmm.gspmm_heads_backward(
                indptr, indices, g.reshape(n, heads, -1), h, alpha
            )
            # dL/dα through the softmax Jacobian and the leaky-ReLU scale
            g_e *= alpha
            g_e -= alpha * segment.segment_sum(g_e, indptr)[seg_ids]
            g_e *= np.where(positive, np.float32(1.0), slope)
            g_dst = np.zeros((num_src, heads), dtype=np.float32)
            g_dst[:n] = segment.segment_sum(g_e, indptr)
            g_src = segment.scatter_add_rows(num_src, indices, g_e)
            # dL/d(W x) adds its three terms in the tape's order
            g_h += g_dst[:, :, None] * att_dst.data
            g_h += g_src[:, :, None] * att_src.data
            g_x, g_w = lin.pullback(
                g_h.reshape(num_src, -1), x.data, x.requires_grad
            )
            return (g_x, g_w, (g_dst[:, :, None] * h).sum(axis=0),
                    (g_src[:, :, None] * h).sum(axis=0), g_bias)

        return Tensor._make(
            out.reshape(n, -1) + self.bias.data,
            (x, lin.weight, att_dst, att_src, self.bias), backward,
        )

    def estimate_cost(self, num_targets: int, num_src: int,
                      num_edges: int) -> dict[str, float]:
        att_flops = 2.0 * num_src * self.out_features * 2  # e_dst, e_src
        edge_flops = 4.0 * num_edges * self.num_heads * (self.head_dim + 3)
        return {
            "flops": self.linear.flops(num_src) + att_flops + edge_flops,
            "sparse_bytes": 4.0 * num_edges * (self.out_features * 2
                                               + self.num_heads * 6),
        }
