"""Node-ID hash partitioning across GPUs.

Paper §III-B: "We partition the nodes of the graph to different GPUs
according to the node ID hash value.  Each graph node is assigned to a
GlobalID, which is composed of rank ID and local ID.  All the edges are
stored together with the source node.  Node features are also stored in the
same GPU as the node."

The hash is a splitmix64-style integer mix so partitions are balanced even
for adversarial ID layouts (e.g. community-sorted datasets).  The partition
also yields a *storage permutation* that lays each rank's nodes out as a
contiguous block of rows, which is how :class:`~repro.dsm.whole_tensor.
WholeTensor` addresses them; the (rank, local) GlobalID and the permuted row
index are two views of the same mapping and the tests verify they agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.hashing import splitmix64
from repro.utils.ids import make_global_ids, split_global_ids


@dataclass
class HashPartition:
    """The assignment of nodes to ranks plus derived index maps."""

    num_nodes: int
    num_ranks: int
    #: owning rank of each original node id
    owner: np.ndarray
    #: local index of each original node id on its owner
    local_id: np.ndarray
    #: nodes per rank
    counts: np.ndarray
    #: storage row of each original node (rank blocks are contiguous)
    to_stored: np.ndarray
    #: original node id of each storage row
    to_original: np.ndarray
    #: storage-row offset at which each rank's block starts
    rank_offsets: np.ndarray

    def global_ids(self, original_nodes) -> np.ndarray:
        """(rank ‖ local) GlobalID of each original node."""
        nodes = np.asarray(original_nodes, dtype=np.int64)
        return make_global_ids(self.owner[nodes], self.local_id[nodes])

    def stored_of_global(self, gids) -> np.ndarray:
        """Storage row addressed by a packed GlobalID."""
        rank, local = split_global_ids(gids)
        return self.rank_offsets[rank] + local

    def rank_of_stored(self, stored_rows) -> np.ndarray:
        """Owning rank of each storage row."""
        rows = np.asarray(stored_rows, dtype=np.int64)
        return (
            np.searchsorted(self.rank_offsets[1:], rows, side="right")
        ).astype(np.int64)


def hash_partition(num_nodes: int, num_ranks: int, seed: int = 0) -> HashPartition:
    """Partition ``num_nodes`` node IDs over ``num_ranks`` by hash value."""
    ids = np.arange(num_nodes, dtype=np.int64)
    # mix the seed in 64-bit modular arithmetic (Python ints are unbounded,
    # so the product must be masked before the uint64 conversion)
    seed_mix = np.uint64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
    h = splitmix64(ids.astype(np.uint64) ^ seed_mix)
    owner = (h % np.uint64(num_ranks)).astype(np.int64)

    counts = np.bincount(owner, minlength=num_ranks).astype(np.int64)
    rank_offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)

    # stable order within each rank preserves original ID order locally
    order = np.argsort(owner, kind="stable")  # storage row -> original node
    to_original = order
    to_stored = np.empty(num_nodes, dtype=np.int64)
    to_stored[order] = ids

    local_id = to_stored - rank_offsets[owner]
    return HashPartition(
        num_nodes=num_nodes,
        num_ranks=num_ranks,
        owner=owner,
        local_id=local_id,
        counts=counts,
        to_stored=to_stored,
        to_original=to_original,
        rank_offsets=rank_offsets,
    )
