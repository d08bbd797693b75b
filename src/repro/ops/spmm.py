"""Generalised sparse-dense matrix multiplication (g-SpMM, paper §III-C4).

Message passing (Eq. 1) over a CSR sub-graph is a g-SpMM: per edge
``(dst_row, src_col)`` compute a message from the source node feature (times
an optional edge weight) and reduce into the destination row.

The three pieces the paper describes:

- **forward** — directly on the CSR matrix (:func:`gspmm_sum` /
  :func:`gspmm_mean`);
- **backward w.r.t. edge weights** — a g-SDDMM on the same CSR
  (:mod:`repro.ops.sddmm`);
- **backward w.r.t. dense input** — g-SpMM on the *transposed* CSR, done
  without materialising the transpose by scattering with atomic adds.  The
  duplicate-count array produced by AppendUnique identifies sub-graph nodes
  sampled exactly once, whose scatter needs no atomic and degrades to a
  plain store (the cost model rewards this; :func:`atomic_elision_stats`
  reports the split).

Every entry point routes through ``scipy.sparse`` CSR matmul.  The tests
check them against literal data-parallel transcriptions (edge-message
materialisation + segment reduce, and an atomic-add scatter) kept in
``tests/spmm_reference.py``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def _csr_matrix(indptr, indices, num_src: int, data=None) -> sp.csr_matrix:
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
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

    Mathematically g-SpMM on the transposed CSR; executed as a scatter into
    source rows (``A^T g``).  How many of those scatters the duplicate-count
    optimisation turns into plain stores is :func:`atomic_elision_stats`.
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
