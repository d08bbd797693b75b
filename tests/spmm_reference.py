"""Literal g-SpMM reference kernels for the equivalence tests.

``repro.ops.spmm`` runs every aggregation through ``scipy.sparse`` CSR
matmul, and so do ``repro.ops.segment``'s sums.  These are the data-parallel
transcriptions it is checked against, built on nothing from ``repro`` but
the elision statistics: the forward materialises one message per edge and
adds each into its row with ``np.add.at``, and the feature backward scatters
with a plain store for rows AppendUnique saw once and an atomic add
(``np.add.at``) for the rest.
"""

from __future__ import annotations

import numpy as np

from repro.ops.spmm import atomic_elision_stats


def _row_sums(msg: np.ndarray, csr_indptr) -> np.ndarray:
    """Each CSR row's messages added one by one into zeros (atomic adds)."""
    indptr = np.asarray(csr_indptr, dtype=np.int64)
    rows = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))
    out = np.zeros((indptr.shape[0] - 1,) + msg.shape[1:], dtype=msg.dtype)
    np.add.at(out, rows, msg)
    return out


def reference_gspmm_sum(csr_indptr, csr_indices, features,
                        edge_weights=None) -> np.ndarray:
    """Edge-materialising reference: gather messages, add them per row."""
    msg = _edge_messages(
        np.asarray(csr_indices, np.int64), np.asarray(features), edge_weights
    )
    return _row_sums(msg, csr_indptr)


def reference_gspmm_mean(csr_indptr, csr_indices, features,
                         edge_weights=None) -> np.ndarray:
    """Reference mean aggregation."""
    msg = _edge_messages(
        np.asarray(csr_indices, np.int64), np.asarray(features), edge_weights
    )
    deg = np.maximum(np.diff(np.asarray(csr_indptr, dtype=np.int64)), 1)
    return _row_sums(msg, csr_indptr) / deg.astype(msg.dtype)[:, None]


def _edge_messages(
    csr_indices: np.ndarray, features: np.ndarray, edge_weights
) -> np.ndarray:
    msg = features[csr_indices]
    if edge_weights is not None:
        msg = msg * np.asarray(edge_weights, dtype=features.dtype)[:, None]
    return msg


def reference_gspmm_backward_features(
    csr_indptr,
    csr_indices,
    grad_out: np.ndarray,
    num_src: int,
    edge_weights=None,
    duplicate_counts=None,
) -> tuple[np.ndarray, dict]:
    """Literal scatter implementation: plain store for duplicate-count-1
    rows, atomic add (``np.add.at``) for the rest."""
    indptr = np.asarray(csr_indptr, dtype=np.int64)
    indices = np.asarray(csr_indices, dtype=np.int64)
    grad_out = np.asarray(grad_out)
    contrib = np.repeat(grad_out, np.diff(indptr), axis=0)
    if edge_weights is not None:
        contrib = contrib * np.asarray(edge_weights, dtype=contrib.dtype)[:, None]
    grad_features = np.zeros((num_src,) + grad_out.shape[1:], dtype=grad_out.dtype)
    stats = atomic_elision_stats(indices, duplicate_counts)
    if duplicate_counts is None:
        np.add.at(grad_features, indices, contrib)
        return grad_features, stats
    once = np.asarray(duplicate_counts, dtype=np.int64)[indices] == 1
    grad_features[indices[once]] = contrib[once]
    np.add.at(grad_features, indices[~once], contrib[~once])
    return grad_features, stats
