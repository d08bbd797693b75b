"""Edge-list to CSR construction.

The paper treats its datasets as undirected (e.g. ogbn-papers100M's 1.6 B
edges become 3.2 B stored directed edges, §IV-B), so the builder supports
symmetrisation, self-loop removal and duplicate-edge removal — all as
vectorised sort/unique passes.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph


def from_edge_list(
    src,
    dst,
    num_nodes: int,
    undirected: bool = True,
    dedup: bool = True,
    remove_self_loops: bool = True,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from COO ``(src, dst)`` arrays.

    Parameters
    ----------
    undirected:
        Add the reverse of every edge (doubles the stored edge count, as in
        the paper's memory accounting).
    dedup:
        Drop duplicate ``(src, dst)`` pairs after symmetrisation.
    remove_self_loops:
        Drop ``u -> u`` edges.
    """
    src = np.asarray(src, dtype=np.int64).ravel()
    dst = np.asarray(dst, dtype=np.int64).ravel()
    if src.shape != dst.shape:
        raise ValueError("src and dst must have the same length")
    if src.size and (
        min(src.min(), dst.min()) < 0
        or max(src.max(), dst.max()) >= num_nodes
    ):
        raise ValueError("edge endpoint out of range")

    if undirected:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])

    if remove_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]

    if dedup and src.size:
        # sort by (src, dst) and drop exact repeats
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        keep = np.empty(src.size, dtype=bool)
        keep[0] = True
        np.logical_or(
            src[1:] != src[:-1], dst[1:] != dst[:-1], out=keep[1:]
        )
        src, dst = src[keep], dst[keep]
    else:
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]

    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSRGraph(indptr, dst, num_nodes=num_nodes)


def _place_chunk(
    indices: np.ndarray,
    cursor: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> None:
    """Scatter one chunk's edges into ``indices`` at each source's cursor.

    Stable-sorts the chunk by source so duplicate sources get consecutive
    slots, then advances the per-node cursors — fully vectorised, no
    per-edge Python loop.
    """
    if src.size == 0:
        return
    order = np.argsort(src, kind="stable")
    s, d = src[order], dst[order]
    uniq, start, counts = np.unique(
        s, return_index=True, return_counts=True
    )
    within = np.arange(s.size, dtype=np.int64) - np.repeat(start, counts)
    indices[cursor[s] + within] = d
    cursor[uniq] += counts


def csr_from_chunks(
    chunks,
    num_nodes: int,
    undirected: bool = True,
    remove_self_loops: bool = True,
) -> CSRGraph:
    """Two-pass CSR assembly from a stream of COO edge chunks.

    ``chunks`` is a zero-argument callable returning a fresh iterable of
    ``(src, dst)`` int64 array pairs (e.g. a call to
    :func:`repro.graph.generators.rmat_edges_chunked`); it is consumed
    twice — pass 1 counts per-node degrees into ``indptr``, pass 2 scatters
    neighbors into a preallocated ``indices``.  Peak memory beyond the CSR
    arrays themselves is one chunk plus its sort temporaries, so
    papers100M-scale structures (> 2 B stored edges) assemble without the
    concatenate-and-lexsort blowup of :func:`from_edge_list`.  All offsets
    are int64 throughout — edge counts past 2^31 never overflow.

    Duplicate edges are kept (the chunked path cannot dedup globally
    without a full sort; the paper's §IV-B accounting keeps all 3.2 B
    stored directed edges too).
    """
    if not callable(chunks):
        raise TypeError(
            "chunks must be a zero-argument callable returning a fresh "
            "iterable — the stream is consumed twice"
        )

    def _each(pair):
        src = np.asarray(pair[0], dtype=np.int64).ravel()
        dst = np.asarray(pair[1], dtype=np.int64).ravel()
        if src.shape != dst.shape:
            raise ValueError("src and dst chunks must have the same length")
        if src.size and (
            min(src.min(), dst.min()) < 0
            or max(src.max(), dst.max()) >= num_nodes
        ):
            raise ValueError("edge endpoint out of range")
        if remove_self_loops:
            keep = src != dst
            src, dst = src[keep], dst[keep]
        return src, dst

    # pass 1: per-node out-degrees
    degrees = np.zeros(num_nodes, dtype=np.int64)
    for pair in chunks():
        src, dst = _each(pair)
        degrees += np.bincount(src, minlength=num_nodes)
        if undirected:
            degrees += np.bincount(dst, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])

    # pass 2: scatter each chunk behind the running per-node cursor
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    cursor = indptr[:-1].copy()
    for pair in chunks():
        src, dst = _each(pair)
        _place_chunk(indices, cursor, src, dst)
        if undirected:
            _place_chunk(indices, cursor, dst, src)
    return CSRGraph(indptr, indices, num_nodes=num_nodes)
