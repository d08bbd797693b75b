"""The taped graph ops the convs were composed of: the bitwise oracle.

Each of ``GCNConv``, ``SAGEConv`` and ``GATConv`` is one taped op whose
pullback calls :mod:`repro.ops`' plain-array kernels.  Before that, each
conv was a composition of the taped wrappers below, and ``F.elu`` kept its
derivative array.  They are kept here verbatim, with the three conv
compositions (:func:`gcn_forward`, :func:`sage_forward`,
:func:`gat_forward`) over a conv's own parameters, so the tests can compare
the one-op convs with the old tape as ``uint32`` bits.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor
from repro.ops import sddmm as _sddmm
from repro.ops import segment as _segment
from repro.ops import spmm as _spmm

# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    slope = np.float32(negative_slope)
    mask = x.data > 0
    scale = np.where(mask, np.float32(1.0), slope)
    return Tensor._make(x.data * scale, (x,), lambda g: (g * scale,))


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    a = np.float32(alpha)
    neg = a * (np.exp(np.minimum(x.data, 0)) - 1)
    out = np.where(x.data > 0, x.data, neg)
    dgrad = np.where(x.data > 0, np.float32(1.0), neg + a)
    return Tensor._make(out, (x,), lambda g: (g * dgrad,))


# ---------------------------------------------------------------------------
# Row indexing
# ---------------------------------------------------------------------------

def slice_rows(x: Tensor, n: int) -> Tensor:
    """First ``n`` rows — the prefix-property slice that reuses gathered
    features as the next layer's targets."""
    def backward(g):
        grad = np.zeros_like(x.data)
        grad[:n] = g
        return (grad,)

    return Tensor._make(x.data[:n], (x,), backward)


# ---------------------------------------------------------------------------
# Graph message passing (g-SpMM / g-SDDMM / edge softmax)
# ---------------------------------------------------------------------------

def spmm_sum(
    indptr: np.ndarray,
    indices: np.ndarray,
    x: Tensor,
    edge_weights: Tensor | None = None,
) -> Tensor:
    """Weighted-sum aggregation ``out[t] = Σ_{e→t} w_e · x[src_e]``.

    ``x`` is ``(N, D)`` with ``(E,)`` weights, or ``(N, H, D)`` with
    ``(E, H)`` weights: one g-SpMM per head, the weights of head ``k``
    scaling ``x[:, k]``.  Backward w.r.t. ``x``: g-SpMM on the transposed
    CSR, per head.  Backward w.r.t. ``edge_weights``: g-SDDMM.
    """
    w = edge_weights
    num_src = x.data.shape[0]
    if w is None:
        out = _spmm.gspmm_sum(indptr, indices, x.data)

        def backward(g):
            return (_spmm.gspmm_backward_features(indptr, indices, g, num_src),)

        return Tensor._make(out, (x,), backward)

    # heads on axis 1; a 2-D ``x`` is one head
    xs = x.data if x.data.ndim == 3 else x.data[:, None]
    ws = w.data if w.data.ndim == 2 else w.data[:, None]
    out = np.empty((len(indptr) - 1,) + xs.shape[1:], dtype=np.float32)
    for k in range(xs.shape[1]):
        out[:, k] = _spmm.gspmm_sum(indptr, indices, xs[:, k], ws[:, k])

    def backward_w(g):
        gs = g.reshape(out.shape)
        gx = np.empty_like(xs)
        for k in range(xs.shape[1]):
            gx[:, k] = _spmm.gspmm_backward_features(
                indptr, indices, gs[:, k], num_src, ws[:, k]
            )
        gw = _sddmm.gsddmm_dot(indptr, indices, g, x.data)
        return (gx.reshape(x.data.shape), gw)

    return Tensor._make(
        out.reshape(out.shape[:1] + x.data.shape[1:]), (x, w), backward_w
    )


def spmm_mean(
    indptr: np.ndarray,
    indices: np.ndarray,
    x: Tensor,
) -> Tensor:
    """Mean aggregation (GraphSage)."""
    out = _spmm.gspmm_mean(indptr, indices, x.data)
    num_src = x.data.shape[0]

    def backward(g):
        return (
            _spmm.gspmm_mean_backward_features(indptr, indices, g, num_src),
        )

    return Tensor._make(out, (x,), backward)


def edge_softmax(indptr: np.ndarray, logits: Tensor) -> Tensor:
    """Softmax over each target's incoming edges (GAT attention).

    ``logits`` is ``(num_edges, ...)`` in CSR edge order.  Backward uses the
    within-segment softmax Jacobian:
    ``dL/dz = α ⊙ (g − Σ_seg α ⊙ g)``.
    """
    alpha = _segment.segment_softmax(logits.data, indptr)
    seg_ids = _segment.segment_ids_from_indptr(indptr)

    def backward(g):
        weighted = alpha * g
        seg_total = _segment.segment_sum(weighted, indptr)
        return (weighted - alpha * seg_total[seg_ids],)

    return Tensor._make(alpha, (logits,), backward)


def edge_gather_add(
    indptr: np.ndarray,
    indices: np.ndarray,
    dst_values: Tensor,
    src_values: Tensor,
) -> Tensor:
    """Per-edge ``dst_values[row_e] + src_values[col_e]`` (GAT logits).

    Backward segment-sums into rows and scatter-adds into columns.
    """
    seg_ids = _segment.segment_ids_from_indptr(indptr)
    idx = np.asarray(indices, dtype=np.int64)
    out = dst_values.data[seg_ids] + src_values.data[idx]

    def backward(g):
        # dst_values may have more rows than segments (targets are a prefix
        # of the source frontier); rows beyond the targets get zero grad.
        g_dst = np.zeros_like(dst_values.data)
        g_dst[: indptr.shape[0] - 1] = _segment.segment_sum(g, indptr)
        g_src = _segment.scatter_add_rows(src_values.data.shape[0], idx, g)
        return (g_dst, g_src)

    return Tensor._make(out, (dst_values, src_values), backward)


# ---------------------------------------------------------------------------
# The convs as they were composed
# ---------------------------------------------------------------------------

def gcn_forward(conv, block, x: Tensor) -> Tensor:
    """``GCNConv.forward`` as the taped composition."""
    neigh_sum = spmm_sum(block.indptr, block.indices, x)
    x_self = slice_rows(x, block.num_targets)
    deg = (block.indptr[1:] - block.indptr[:-1]).astype(np.float32)
    inv = Tensor((1.0 / (deg + 1.0))[:, None])
    mean = (neigh_sum + x_self) * inv
    return conv.linear(mean)


def sage_forward(conv, block, x: Tensor) -> Tensor:
    """``SAGEConv.forward`` as the taped composition."""
    neigh = spmm_mean(block.indptr, block.indices, x)
    x_self = slice_rows(x, block.num_targets)
    return conv.linear_self(x_self) + conv.linear_neigh(neigh)


def gat_forward(conv, block, x: Tensor) -> Tensor:
    """``GATConv.forward`` as the taped composition."""
    h = conv.linear(x).reshape(-1, conv.num_heads, conv.head_dim)
    # per-node attention halves: (N, H)
    e_dst = (h * conv.att_dst).sum(axis=2)
    e_src = (h * conv.att_src).sum(axis=2)
    logits = leaky_relu(
        edge_gather_add(block.indptr, block.indices, e_dst, e_src),
        conv.negative_slope,
    )
    alpha = edge_softmax(block.indptr, logits)  # (E, H)
    out = spmm_sum(block.indptr, block.indices, h, alpha)  # (T, H, D)
    return out.reshape(-1, conv.out_features) + conv.bias
