"""Generalised sparse-dense matrix multiplication (g-SpMM, paper §III-C4).

Message passing (Eq. 1) over a CSR sub-graph is a g-SpMM: per edge
``(dst_row, src_col)`` compute a message from the source node feature (times
an optional edge weight) and reduce into the destination row.

The three pieces the paper describes:

- **forward** — directly on the CSR matrix (:func:`gspmm_sum` /
  :func:`gspmm_mean`);
- **backward w.r.t. edge weights** — a g-SDDMM on the same CSR
  (:mod:`repro.ops.sddmm`);
- **backward w.r.t. dense input** — g-SpMM on the *transposed* CSR
  (:func:`gspmm_backward_features`), a scatter into the source rows.  The
  duplicate-count array produced by AppendUnique identifies sub-graph nodes
  sampled exactly once, whose scatter needs no atomic and degrades to a
  plain store (the cost model rewards this; :func:`atomic_elision_stats`
  reports the split).

This is the one aggregation kernel: every sum of feature rows over edges
and every feature scatter-add in the package is one of these two products,
including :func:`repro.ops.segment.segment_sum` and
:func:`repro.ops.segment.scatter_add_rows` (unit weights).  Each builds its
matrix in :func:`_csr_matrix`, the only place a ``scipy.sparse`` matrix is
made, and SciPy accumulates every output row in float32, edge by edge from
+0.0.  The tests check the entry points against literal data-parallel
transcriptions (an edge-by-edge reduce and an ``np.add.at`` scatter) kept in
``tests/spmm_reference.py``, and bitwise against float32 loops in
``tests/test_hotpath_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def _csr_matrix(indptr, indices, num_src: int, data=None) -> sp.csr_matrix:
    """The CSR matrix ``(len(indptr) - 1, num_src)`` behind every product.

    SciPy checks neither the column bounds nor the row order of the arrays
    it is handed, and reads or writes out of bounds on bad ones, so an
    index outside ``[0, num_src)`` or a decreasing ``indptr`` raises
    ``ValueError`` here.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if np.any(indptr[1:] < indptr[:-1]):
        raise ValueError("indptr must be nondecreasing")
    if indices.size and (indices.min() < 0 or indices.max() >= num_src):
        raise ValueError(f"CSR indices must lie in [0, {num_src})")
    if data is None:
        data = np.ones(indices.shape[0], dtype=np.float32)
    return sp.csr_matrix(
        (np.asarray(data, dtype=np.float32), indices, indptr),
        shape=(indptr.shape[0] - 1, num_src),
    )


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------

def gspmm_sum(csr_indptr, csr_indices, features, edge_weights=None) -> np.ndarray:
    """``out[t] = sum_{s in N(t)} w_{s,t} * x[s]`` over the CSR rows."""
    features = np.asarray(features, dtype=np.float32)
    adj = _csr_matrix(csr_indptr, csr_indices, features.shape[0], edge_weights)
    return np.asarray(adj @ features)


def gspmm_heads(csr_indptr, csr_indices, features, edge_weights) -> np.ndarray:
    """Multi-head weighted g-SpMM (GAT's aggregation): ``(N, H, D)``
    features and ``(E, H)`` weights give ``(T, H, D)``, one CSR SpMM per
    head with head ``k``'s weights scaling ``features[:, k]``.  Its
    backward is :func:`repro.ops.sddmm.gspmm_heads_backward`."""
    out = np.empty((len(csr_indptr) - 1,) + features.shape[1:],
                   dtype=np.float32)
    for k in range(features.shape[1]):
        out[:, k] = gspmm_sum(
            csr_indptr, csr_indices, features[:, k], edge_weights[:, k]
        )
    return out


def gspmm_mean(csr_indptr, csr_indices, features, edge_weights=None) -> np.ndarray:
    """Mean-aggregated message passing (GraphSage's aggregator)."""
    indptr = np.asarray(csr_indptr, dtype=np.int64)
    out = gspmm_sum(indptr, csr_indices, features, edge_weights)
    deg = np.maximum(indptr[1:] - indptr[:-1], 1).astype(np.float32)
    out /= deg[:, None]
    return out


# ---------------------------------------------------------------------------
# Backward w.r.t. dense features
# ---------------------------------------------------------------------------

def gspmm_backward_features(
    csr_indptr,
    csr_indices,
    grad_out: np.ndarray,
    num_src: int,
    edge_weights=None,
) -> np.ndarray:
    """Gradient of :func:`gspmm_sum` w.r.t. the dense input features.

    g-SpMM on the transposed CSR (``A^T g``): SciPy walks the CSR rows in
    order and adds ``w_e * g[row_e]`` into source row ``col_e``, so every
    source row sums its edges in edge order, as ``np.add.at`` would.  How
    many of those scatters the duplicate-count optimisation turns into
    plain stores is :func:`atomic_elision_stats`.
    """
    grad_out = np.asarray(grad_out, dtype=np.float32)
    adj = _csr_matrix(csr_indptr, csr_indices, num_src, edge_weights)
    return np.asarray(adj.T @ grad_out)


def atomic_elision_stats(csr_indices, duplicate_counts) -> dict[str, int]:
    """How many backward scatters are plain stores vs atomic adds."""
    indices = np.asarray(csr_indices, dtype=np.int64)
    if duplicate_counts is None:
        return {"plain_stores": 0, "atomic_adds": int(indices.shape[0])}
    once = np.asarray(duplicate_counts, dtype=np.int64)[indices] == 1
    return {
        "plain_stores": int(once.sum()),
        "atomic_adds": int((~once).sum()),
    }


def gspmm_mean_backward_features(
    csr_indptr,
    csr_indices,
    grad_out: np.ndarray,
    num_src: int,
) -> np.ndarray:
    """Backward of :func:`gspmm_mean` w.r.t. input features."""
    indptr = np.asarray(csr_indptr, dtype=np.int64)
    deg = np.maximum(np.diff(indptr), 1).astype(np.float32)
    scaled = np.asarray(grad_out, dtype=np.float32) / deg[:, None]
    return gspmm_backward_features(indptr, csr_indices, scaled, num_src)
