"""Segment reductions over CSR-sorted edges.

The message-passing primitives of Eq. (1) reduce per-edge values into
per-target-node values.  Because WholeGraph stores the sub-graph adjacency
in CSR, edges of one target are contiguous and the reductions map onto
``np.*.reduceat`` (the GPU kernels reduce per-row with one warp per row).

All functions take an ``indptr`` (length ``num_segments + 1``) and flat
per-edge ``values`` whose leading dimension is ``num_edges``.  The sums
share one chunked prefix-sum kernel, :func:`prefix_sums_at`; its
``*_rows``/``*_edges`` variants take the per-edge values as a callback so
fused ops can form them chunk by chunk instead of materializing them.
"""

from __future__ import annotations

import numpy as np


def _check(indptr: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, int]:
    indptr = np.asarray(indptr, dtype=np.int64)
    if indptr.ndim != 1 or indptr.shape[0] < 1:
        raise ValueError("indptr must be a 1-D array of segment bounds")
    if indptr[-1] != values.shape[0]:
        raise ValueError(
            f"values length {values.shape[0]} != indptr[-1] ({indptr[-1]})"
        )
    return indptr, indptr.shape[0] - 1


#: Accumulator cells per prefix-sum chunk (64 Ki float64 = 512 KiB): a
#: chunk stays cache-resident at any row width, and narrow operands still
#: take few chunks (256 rows at width 256, 16 Ki rows at width 4).
CHUNK_ELEMS = 1 << 16


def chunk_rows(width: int) -> int:
    """Edges per :func:`prefix_sums_at` chunk for rows of ``width`` cells."""
    return max(1, CHUNK_ELEMS // max(int(width), 1))


def prefix_sums_at(rows, num_edges: int, width: int, positions) -> np.ndarray:
    """Prefix sums of an edge stream, read out only at ``positions``.

    ``rows(a, b)`` returns edges ``[a, b)`` as an array of ``b - a`` rows of
    ``width`` cells (any trailing shape); ``positions`` is nondecreasing in
    ``[0, num_edges]``.  Returns ``P`` of shape ``(len(positions), width)``
    with ``P[i] = Σ_{e < positions[i]} rows[e]``, accumulated in float64
    (int64 for integer rows).

    The edges are walked in chunks of :data:`CHUNK_ELEMS` cells.  Row 0 of
    each chunk's buffer carries the previous chunk's last prefix and
    ``np.cumsum`` runs in place over the buffer, so every column sees
    exactly the sequential float64 addition chain of one global cumsum —
    the result is bit-identical to it — yet only one chunk of widened rows
    ever exists.  Because the rows come from a callback, a caller can also
    build each chunk's values on the fly (:func:`repro.nn.functional.
    gat_aggregate` forms its per-edge messages this way).
    """
    positions = np.asarray(positions, dtype=np.int64)
    num_edges = int(num_edges)
    step = chunk_rows(width)
    starts = np.arange(0, num_edges, step)
    # chunk i reads out the positions in (a, b]; position 0 stays +0.0
    cut = np.searchsorted(positions, np.append(starts, num_edges),
                          side="right")
    out = np.zeros((positions.shape[0], width), dtype=np.float64)
    buf = None
    m = 0
    for i, a in enumerate(starts.tolist()):
        b = min(a + step, num_edges)
        chunk = np.asarray(rows(a, b))
        if buf is None:
            if chunk.dtype.kind != "f":
                out = out.astype(np.int64)
            buf = np.empty((min(step, num_edges) + 1, width),
                           dtype=out.dtype)
            # -0.0 is the exact additive identity: a +0.0 carry would
            # flip the sign bit that a global cumsum's first element keeps
            buf[0] = -0.0
        buf[0] = buf[m]
        m = b - a
        view = buf[: m + 1]
        view[1:] = chunk.reshape(m, width)
        np.cumsum(view, axis=0, out=view)
        lo, hi = cut[i], cut[i + 1]
        if hi > lo:
            out[lo:hi] = view[positions[lo:hi] - a]
    return out


def segment_sum(values: np.ndarray, indptr) -> np.ndarray:
    """Per-segment sum; empty segments produce zeros.

    Implemented as a prefix-sum difference (``P[end] - P[start]``) rather
    than ``np.add.reduceat``: the cumsum runs at memory bandwidth on 2-D
    inputs where reduceat degenerates to a Python-level loop per segment.
    Accumulation is in float64 to keep long prefix sums stable, then cast
    back.  The prefix sums come from the chunked :func:`prefix_sums_at`,
    so no float64 copy of ``values`` is made.
    """
    values = np.asarray(values)
    indptr, _ = _check(np.asarray(indptr), values)
    return segment_sum_rows(
        lambda a, b: values[a:b], indptr, values.shape[1:], values.dtype
    )


def segment_sum_rows(rows, indptr, row_shape, dtype) -> np.ndarray:
    """:func:`segment_sum` of the edge stream ``rows(a, b)`` (see
    :func:`prefix_sums_at`), each edge of shape ``row_shape``; the sums are
    cast to ``dtype``.  ``indptr[-1]`` is the number of edges."""
    indptr = np.asarray(indptr, dtype=np.int64)
    row_shape = tuple(row_shape)
    width = int(np.prod(row_shape, dtype=np.int64))
    pref = prefix_sums_at(rows, indptr[-1], width, indptr)
    out = pref[1:] - pref[:-1]
    return out.astype(dtype, copy=False).reshape(
        (indptr.shape[0] - 1,) + row_shape
    )


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


def scatter_add_rows(
    num_rows: int, indices: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """``out[indices[e]] += values[e]`` — the atomic-add scatter, fast.

    Sorts the edges by destination row and reduces each run with the
    prefix-sum trick; orders of magnitude faster than ``np.add.at`` on 2-D
    payloads while producing the identical result.
    """
    values = np.asarray(values)
    return scatter_add_edges(
        num_rows, indices, lambda ids: values[ids], values.shape[1:],
        values.dtype,
    )


def scatter_add_edges(num_rows: int, indices: np.ndarray, edge_rows,
                      row_shape, dtype) -> np.ndarray:
    """:func:`scatter_add_rows` with the per-edge values formed on demand.

    ``edge_rows(ids)`` returns the values of the edges ``ids`` (each of
    shape ``row_shape``).  It is called chunk by chunk in the stable
    destination-sorted edge order, so no ``(E, *row_shape)`` array exists.
    """
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros((num_rows,) + tuple(row_shape), dtype=dtype)
    if indices.size == 0:
        return out
    order = np.argsort(indices, kind="stable")
    si = indices[order]
    # run boundaries in the sorted destination array
    starts = np.flatnonzero(np.concatenate(([True], si[1:] != si[:-1])))
    bounds = np.append(starts, si.shape[0])
    out[si[starts]] = segment_sum_rows(
        lambda a, b: edge_rows(order[a:b]), bounds, row_shape, dtype
    )
    return out


def segment_mean(values: np.ndarray, indptr) -> np.ndarray:
    """Per-segment mean; empty segments produce zeros."""
    values = np.asarray(values)
    indptr = np.asarray(indptr, dtype=np.int64)
    s = segment_sum(values, indptr)
    counts = (indptr[1:] - indptr[:-1]).astype(s.dtype)
    counts = np.maximum(counts, 1)
    return s / counts.reshape((-1,) + (1,) * (values.ndim - 1))


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
