"""Edge-list to CSR construction.

The paper treats its datasets as undirected (e.g. ogbn-papers100M's 1.6 B
edges become 3.2 B stored directed edges, §IV-B), so the builder supports
symmetrisation, self-loop removal and duplicate-edge removal — all as
vectorised sort/unique passes.  Deduplication sorts one packed int64 key
``src * num_nodes + dst`` per edge, so it needs ``num_nodes**2`` to fit in
an int64.
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
        if int(num_nodes) ** 2 > np.iinfo(np.int64).max:
            raise ValueError(f"{num_nodes} nodes overflow dedup's int64 key")
        # sort by (src, dst) and drop exact repeats: distinct keys sort in
        # lexicographic (src, dst) order.  The pairs are dropped before the
        # in-place sort, so the build holds one key per edge at its peak
        keys = src * num_nodes
        keys += dst
        del src, dst
        keys.sort()
        keep = np.empty(keys.size, dtype=bool)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        src, dst = np.divmod(keys[keep], num_nodes)
    else:
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]

    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    return CSRGraph(indptr, dst, num_nodes=num_nodes)
