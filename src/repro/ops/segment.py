"""Segment reductions over CSR-sorted edges.

The message-passing primitives of Eq. (1) reduce per-edge values into
per-target-node values.  Because WholeGraph stores the sub-graph adjacency
in CSR, the edges of one target are contiguous (the GPU kernels reduce
per-row with one warp per row).

All functions take an ``indptr`` (length ``num_segments + 1``) and flat
per-edge ``values`` whose leading dimension is ``num_edges``.  The sums are
the one CSR g-SpMM of :mod:`repro.ops.spmm` with unit edge weights:
:func:`segment_sum` reduces each segment as a CSR row over identity
columns, and :func:`scatter_add_rows` is the transposed product with one
edge per row.  Both add in float32, edge by edge from +0.0.
:func:`segment_max` is ``np.maximum.reduceat`` over the non-empty segments.
"""

from __future__ import annotations

import numpy as np

from repro.ops.spmm import gspmm_backward_features, gspmm_sum


def _check(indptr: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, int]:
    indptr = np.asarray(indptr, dtype=np.int64)
    if indptr.ndim != 1 or indptr.shape[0] < 1:
        raise ValueError("indptr must be a 1-D array of segment bounds")
    if indptr[-1] != values.shape[0]:
        raise ValueError(
            f"values length {values.shape[0]} != indptr[-1] ({indptr[-1]})"
        )
    return indptr, indptr.shape[0] - 1


def _flat(values: np.ndarray) -> np.ndarray:
    """``values`` as ``(num_edges, width)``: one matrix row per edge."""
    return values.reshape(values.shape[0], int(np.prod(values.shape[1:])))


def segment_sum(values: np.ndarray, indptr) -> np.ndarray:
    """Per-segment float32 sum; empty segments produce zeros.

    Segment ``i`` is row ``i`` of a unit-weight CSR matrix whose column
    ``e`` is edge ``e``, so its edges are added in order from +0.0.
    """
    values = np.asarray(values)
    indptr, n = _check(np.asarray(indptr), values)
    out = gspmm_sum(indptr, np.arange(values.shape[0]), _flat(values))
    return out.reshape((n,) + values.shape[1:])


def scatter_add_rows(
    num_rows: int, indices: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """``out[indices[e]] += values[e]`` in float32 — the atomic-add scatter.

    The transposed unit-weight g-SpMM with one edge per CSR row: it adds
    the edges into a zeroed output in order, as ``np.add.at`` does.  An
    index outside ``[0, num_rows)`` raises ``ValueError``.
    """
    values = np.asarray(values)
    out = gspmm_backward_features(
        np.arange(values.shape[0] + 1), indices, _flat(values), num_rows
    )
    return out.reshape((num_rows,) + values.shape[1:])


def _nonempty_reduceat(ufunc, values, indptr, n):
    """Apply ``ufunc.reduceat`` over the non-empty segments only.

    ``reduceat`` mis-handles empty segments (equal adjacent indices yield a
    single element instead of an identity), so we reduce only at the starts
    of non-empty segments — those are strictly increasing, and consecutive
    non-empty starts bound each segment exactly.
    """
    out = np.zeros((n,) + values.shape[1:], dtype=values.dtype)
    nonempty = indptr[1:] > indptr[:-1]
    starts = indptr[:-1][nonempty]
    if starts.size:
        out[nonempty] = ufunc.reduceat(values, starts, axis=0)
    return out


def segment_max(values: np.ndarray, indptr) -> np.ndarray:
    """Per-segment max; empty segments produce zeros (not ``-inf``)."""
    values = np.asarray(values)
    indptr, n = _check(np.asarray(indptr), values)
    if values.shape[0] == 0 or n == 0:
        return np.zeros((n,) + values.shape[1:], dtype=values.dtype)
    return _nonempty_reduceat(np.maximum, values, indptr, n)


def segment_softmax(values: np.ndarray, indptr) -> np.ndarray:
    """Numerically-stable softmax within each segment (GAT attention)."""
    values = np.asarray(values)
    indptr, n = _check(np.asarray(indptr), values)
    if values.shape[0] == 0:
        return values.copy()
    seg_ids = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(indptr)
    )
    mx = segment_max(values, indptr)
    shifted = values - mx[seg_ids]
    ex = np.exp(shifted)
    denom = segment_sum(ex, indptr)
    return ex / np.maximum(denom[seg_ids], np.finfo(ex.dtype).tiny)


def segment_ids_from_indptr(indptr) -> np.ndarray:
    """Expand CSR bounds into a per-edge segment-ID array."""
    indptr = np.asarray(indptr, dtype=np.int64)
    return np.repeat(
        np.arange(indptr.shape[0] - 1, dtype=np.int64), np.diff(indptr)
    )
