"""Autograd-aware functional ops: activations, losses and row gathers.

The graph convolutions' sparse stages are not here: each conv in
:mod:`repro.nn.layers` is one taped op over :mod:`repro.ops`' plain-array
g-SpMM and g-SDDMM kernels (paper §III-C4).
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor
from repro.ops import segment as _segment


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return Tensor._make(
        x.data * mask, (x,), lambda g: (g * mask,)
    )


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    """ELU.  The backward reads its slope off the output, so the tape keeps
    no derivative array: with ``alpha >= 0``, ``out > 0`` exactly when
    ``x > 0``, and elsewhere ``out`` is the negative branch ``neg``, so
    ``out + alpha`` is the slope ``neg + alpha`` bit for bit."""
    if not alpha >= 0:
        raise ValueError(f"elu alpha must be >= 0, got {alpha}")
    a = np.float32(alpha)
    neg = a * (np.exp(np.minimum(x.data, 0)) - 1)
    out = np.where(x.data > 0, x.data, neg)
    return Tensor._make(
        out, (x,), lambda g: (g * np.where(out > 0, np.float32(1.0), out + a),)
    )


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
