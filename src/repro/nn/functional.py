"""Autograd-aware functional ops: activations, losses, and the graph ops.

The graph ops wrap :mod:`repro.ops.spmm` / :mod:`repro.ops.segment` with the
backward passes the paper prescribes (§III-C4):

- :func:`spmm_sum` / :func:`spmm_mean` forward on the CSR block; the
  feature gradient is the g-SpMM on the transposed CSR, whose scatters
  elide atomics *for sub-graph nodes whose duplicate count is 1*;
- a weighted :func:`spmm_sum` takes one weight per edge, or ``(E, H)``
  weights over ``(N, H, D)`` features — GAT's attention-weighted
  aggregation, one g-SpMM per head — and its edge-weight gradient is a
  g-SDDMM on the same CSR, streamed in edge blocks, so no per-edge
  ``(E, H, D)`` tensor exists in either direction;
- :func:`edge_softmax` is the segment softmax GAT needs, with the exact
  within-segment softmax Jacobian in backward.

Every sum over edges and every scatter-add backward here runs through the
one CSR g-SpMM of :mod:`repro.ops.spmm`.
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

def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return Tensor._make(
        x.data * mask, (x,), lambda g: (g * mask,)
    )


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


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``.

    ``p`` must lie in ``[0, 1)``.  The tape keeps only the boolean keep mask
    and one float32 ``scale = 1 / (1 - p)``; forward and backward multiply
    by ``kept * scale``, which is the float32 array ``(u >= p) / (1 - p)``
    bit for bit (a dropped entry multiplies by ``+0.0``, so ``x * 0`` keeps
    its sign).
    """
    if not 0 <= p < 1:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0:
        return x
    kept = rng.random(x.data.shape) >= p
    scale = np.float32(1) / np.float32(1 - p)
    return Tensor._make(
        x.data * (kept * scale), (x,), lambda g: (g * (kept * scale),)
    )


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log-softmax (last axis)."""
    mx = x.data.max(axis=-1, keepdims=True)
    shifted = x.data - mx
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    softmax = np.exp(out)

    def backward(g):
        return (g - softmax * g.sum(axis=-1, keepdims=True),)

    return Tensor._make(out, (x,), backward)


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``targets``."""
    targets = np.asarray(targets, dtype=np.int64)
    n = targets.shape[0]
    rows = np.arange(n)
    out = -log_probs.data[rows, targets].mean()

    def backward(g):
        grad = np.zeros_like(log_probs.data)
        grad[rows, targets] = -1.0 / n
        return (grad * g,)

    return Tensor._make(np.float32(out), (log_probs,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Softmax cross-entropy (the training loss of all three models)."""
    return nll_loss(log_softmax(logits), targets)


def binary_cross_entropy_with_logits(
    logits: Tensor, labels: np.ndarray
) -> Tensor:
    """Mean BCE on raw scores (link-prediction loss).

    Uses the stable form ``max(z,0) − z·y + log(1 + exp(−|z|))``.
    """
    y = np.asarray(labels, dtype=np.float32)
    z = logits.data
    out = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
    n = max(z.size, 1)

    def backward(g):
        s = np.where(
            z >= 0,
            1.0 / (1.0 + np.exp(-np.abs(z))),
            np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))),
        )
        return ((s - y) / n * g,)

    return Tensor._make(np.float32(out.mean()), (logits,), backward)


def pairwise_dot(h: Tensor, left: np.ndarray, right: np.ndarray) -> Tensor:
    """Per-pair dot product ``<h[left[i]], h[right[i]]>`` (edge decoder)."""
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    hl, hr = h.data[left], h.data[right]
    out = (hl * hr).sum(axis=-1)

    def backward(g):
        grad = np.zeros_like(h.data)
        contrib_l = g[:, None] * hr
        contrib_r = g[:, None] * hl
        grad += _segment.scatter_add_rows(h.data.shape[0], left, contrib_l)
        grad += _segment.scatter_add_rows(h.data.shape[0], right, contrib_r)
        return (grad,)

    return Tensor._make(out, (h,), backward)


# ---------------------------------------------------------------------------
# Row indexing
# ---------------------------------------------------------------------------

def gather_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """``out[i] = x[rows[i]]`` with scatter-add backward."""
    rows = np.asarray(rows, dtype=np.int64)

    def backward(g):
        return (_segment.scatter_add_rows(x.data.shape[0], rows, g),)

    return Tensor._make(x.data[rows], (x,), backward)


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
