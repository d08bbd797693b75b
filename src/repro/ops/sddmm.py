"""Generalised sampled-dense-dense matrix multiplication (g-SDDMM).

Computes a per-edge scalar (or vector) from the dense features of the edge's
endpoints, "sampled" at the sparse adjacency pattern:

- :func:`gsddmm_dot` — ``z_e = <u[dst_e], v[src_e]>`` — the backward of
  g-SpMM with respect to edge weights (paper §III-C4), and the attention
  logits of transformer-style GNNs;
- :func:`gsddmm_add` — ``z_e = u[dst_e] + v[src_e]`` — GAT's additive
  attention, per head;
- :func:`gspmm_heads_backward` — both gradients of GAT's multi-head
  weighted g-SpMM: the transposed g-SpMM per head and :func:`gsddmm_dot`.

All three operate on the CSR layout (edges sorted by destination row).
:func:`gsddmm_dot` streams the edges in blocks of :data:`BLOCK_EDGES`, so
it never holds more than one block of gathered endpoint rows.
"""

from __future__ import annotations

import numpy as np

from repro.ops.segment import segment_ids_from_indptr
from repro.ops.spmm import gspmm_backward_features

#: Edges per :func:`gsddmm_dot` block.  Only one block's endpoint rows are
#: gathered at a time: at GAT's ``(H, D) = (4, 64)`` that is 4 MiB per
#: side, where all of a 142k-edge layer's rows would be 139 MiB.
BLOCK_EDGES = 4096


def gsddmm_dot(
    csr_indptr, csr_indices, dst_features: np.ndarray, src_features: np.ndarray
) -> np.ndarray:
    """Per-edge dot product of endpoint features.

    ``dst_features`` is indexed by CSR row, ``src_features`` by CSR column.
    Returns an array of shape ``(num_edges,)`` (2-D inputs) or
    ``(num_edges, heads)`` (3-D inputs ``(nodes, heads, dim)``).  Each
    edge's dot product is ``np.einsum``'s, whatever block it falls in.
    """
    indices = np.asarray(csr_indices, dtype=np.int64)
    dst_ids = segment_ids_from_indptr(csr_indptr)
    out = np.empty(
        indices.shape + dst_features.shape[1:-1],
        dtype=np.result_type(dst_features, src_features),
    )
    for lo in range(0, indices.shape[0], BLOCK_EDGES):
        hi = lo + BLOCK_EDGES
        out[lo:hi] = np.einsum(
            "...d,...d->...",
            dst_features[dst_ids[lo:hi]], src_features[indices[lo:hi]],
        )
    return out


def gsddmm_add(
    csr_indptr, csr_indices, dst_values: np.ndarray, src_values: np.ndarray
) -> np.ndarray:
    """Per-edge sum of endpoint scalars (GAT's ``a_l^T Wh_dst + a_r^T Wh_src``)."""
    indices = np.asarray(csr_indices, dtype=np.int64)
    dst_ids = segment_ids_from_indptr(csr_indptr)
    return dst_values[dst_ids] + src_values[indices]


def gspmm_heads_backward(
    csr_indptr, csr_indices, grad_out: np.ndarray, features: np.ndarray,
    edge_weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(dL/dfeatures, dL/dweights)`` of
    :func:`repro.ops.spmm.gspmm_heads` for the ``(T, H, D)`` output
    gradient: one g-SpMM per head on the transposed CSR, and the blocked
    g-SDDMM, so no ``(E, H, D)`` per-edge tensor exists."""
    g_features = np.empty_like(features)
    for k in range(features.shape[1]):
        g_features[:, k] = gspmm_backward_features(
            csr_indptr, csr_indices, grad_out[:, k], features.shape[0],
            edge_weights[:, k],
        )
    return g_features, gsddmm_dot(csr_indptr, csr_indices, grad_out, features)
