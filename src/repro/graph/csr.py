"""Compressed-sparse-row graph structure.

The canonical in-memory representation used throughout the reproduction:
``indptr`` (length ``num_nodes + 1``) and ``indices`` (length
``num_edges``).  WholeGraph stores the sub-graph adjacency in CSR as well
(paper §III-C2), so the same class describes both full graphs and sampled
mini-batch sub-graphs.
"""

from __future__ import annotations

import numpy as np


class CSRGraph:
    """An adjacency structure in CSR form."""

    def __init__(self, indptr, indices, num_nodes=None):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        if num_nodes is None:
            num_nodes = self.indptr.shape[0] - 1
        self.num_nodes = int(num_nodes)
        self._sorted_edge_keys = None
        self.validate()

    # -- invariants -------------------------------------------------------------

    def validate(self) -> None:
        """Check CSR structural invariants; raises ``ValueError`` on breakage."""
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D")
        if self.indptr.shape[0] != self.num_nodes + 1:
            raise ValueError(
                f"indptr length {self.indptr.shape[0]} != num_nodes+1 "
                f"({self.num_nodes + 1})"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.shape[0]:
            raise ValueError("indptr must start at 0 and end at num_edges")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.num_nodes
        ):
            raise ValueError("edge endpoint out of range")

    # -- basic queries ------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return int(self.indices.shape[0])

    def degrees(self) -> np.ndarray:
        """Out-degree of every node."""
        return np.diff(self.indptr)

    def degree(self, nodes) -> np.ndarray:
        """Out-degree of a set of nodes."""
        nodes = np.asarray(nodes, dtype=np.int64)
        return self.indptr[nodes + 1] - self.indptr[nodes]

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbor list of one node (a view into ``indices``)."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def sorted_edge_keys(self) -> np.ndarray:
        """The pair key ``row * num_nodes + neighbor`` of every edge, ascending.

        One ``searchsorted`` over the keys tests any batch of node pairs for
        membership.  Built by the first call and kept, since the CSR arrays
        are never mutated after construction.
        """
        if self._sorted_edge_keys is None:
            rows = np.arange(self.num_nodes, dtype=np.int64) * self.num_nodes
            keys = np.repeat(rows, self.degrees())
            keys += self.indices
            keys.sort()
            self._sorted_edge_keys = keys
        return self._sorted_edge_keys

    # -- transforms ---------------------------------------------------------------

    def transpose(self) -> "CSRGraph":
        """Reverse all edges (CSC of the original).

        Used by g-SpMM backward conceptually; WholeGraph avoids an explicit
        transpose with atomics, but tests compare against this reference.
        """
        dst = self.indices
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees())
        order = np.argsort(dst, kind="stable")
        new_indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.add.at(new_indptr, dst + 1, 1)
        np.cumsum(new_indptr, out=new_indptr)
        return CSRGraph(new_indptr, src[order], num_nodes=self.num_nodes)

    def subgraph_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Expand to COO ``(src, dst)`` edge arrays."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees())
        return src, self.indices.copy()

    def permute_nodes(self, perm: np.ndarray) -> "CSRGraph":
        """Relabel nodes: new id of old node ``i`` is ``perm[i]``.

        Row order follows the new labelling; neighbor ids are remapped.
        """
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape[0] != self.num_nodes:
            raise ValueError("perm must have one entry per node")
        src, dst = self.subgraph_edges()
        new_src = perm[src]
        new_dst = perm[dst]
        order = np.argsort(new_src, kind="stable")
        new_indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.add.at(new_indptr, new_src + 1, 1)
        np.cumsum(new_indptr, out=new_indptr)
        return CSRGraph(new_indptr, new_dst[order], num_nodes=self.num_nodes)

    def __repr__(self) -> str:
        return (
            f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
        )
