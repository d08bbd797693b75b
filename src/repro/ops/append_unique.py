"""The AppendUnique op (paper §III-C2, Fig. 5).

Given the mini-batch *target* nodes and the (duplicate-laden) sampled
*neighbor* nodes, produce the node list of the sampled sub-graph with:

- all target nodes first, in their original order (so gathered features can
  be reused as the next layer's targets — the prefix property);
- each distinct neighbor exactly once after them;
- a contiguous sub-graph ID for every node;
- the *duplicate count* of each sub-graph node (how many times it was
  sampled as a neighbor), which g-SpMM later uses to elide atomics.

The implementation follows the paper's hash-table construction literally:

1. insert targets with value = index-in-target-list;
2. insert neighbors with value = -1 (idempotent; duplicates hit) — each
   distinct neighbor once, which leaves the same table as every sampled
   lane (see :func:`append_unique`);
3. per *bucket*, count the ``-1`` values; exclusive-prefix-sum the bucket
   counts; add the target count — this assigns neighbor sub-graph IDs in
   (bucket, slot) order without any sort;
4. read every node's sub-graph ID back out of the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ops.hashtable import EMPTY_KEY, GpuHashTable
from repro.utils.scan import exclusive_prefix_sum

#: the hash table's load factor: capacity is twice the inserted keys
LOAD_FACTOR = 0.5


@dataclass
class AppendUniqueResult:
    """Output of :func:`append_unique`."""

    #: sub-graph node list: targets first (original order), then unique
    #: neighbors in (bucket, slot) table order — values are input node IDs
    unique_nodes: np.ndarray
    #: number of target nodes (== prefix length of ``unique_nodes``)
    num_targets: int
    #: sub-graph ID of each input neighbor (parallel to the neighbor input)
    neighbor_subgraph_ids: np.ndarray
    #: per-unique-node count of appearances in the neighbor input
    duplicate_counts: np.ndarray
    #: probe rounds the emulated inserts used (not charged: the sampler
    #: prices the expected probes per key instead)
    probe_rounds: int

    @property
    def num_unique(self) -> int:
        return int(self.unique_nodes.shape[0])


def _distinct_neighbors(
    neighbors: np.ndarray, bound: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """The distinct ``neighbors`` in first-occurrence order, and their map.

    One ``np.minimum.at`` pass over a dense array indexed by node ID finds
    each ID's first lane; the array has ``max(neighbors) + 1`` entries, so
    it is only built when every ID lies in ``[0, bound)``.  Returns
    ``(keys, first)`` — ``first[v]`` is the first lane holding ``v``, and
    the caller may reuse the array as per-ID scratch space — or
    ``(neighbors, None)`` for wider ID ranges.
    """
    n = neighbors.shape[0]
    if n == 0 or neighbors.min() < 0 or neighbors.max() >= bound:
        return neighbors, None
    first = np.full(int(neighbors.max()) + 1, n, dtype=np.int64)
    np.minimum.at(first, neighbors, np.arange(n, dtype=np.int64))
    is_first = np.zeros(n, dtype=bool)
    is_first[first[first < n]] = True
    return neighbors[is_first], first


def append_unique(
    target_nodes,
    neighbor_nodes,
    bucket_size: int = 128,
) -> AppendUniqueResult:
    """Append ``neighbor_nodes`` to ``target_nodes``, de-duplicated.

    ``target_nodes`` must already be duplicate-free (they are the previous
    layer's unique output).  Neighbors that coincide with a target map to
    the target's sub-graph ID.

    Step 2 inserts each distinct neighbor once, in first-occurrence order,
    instead of every sampled lane.  The table ends up slot-for-slot the
    same: all lanes carrying one key probe the same slots in lockstep, and
    the lowest lane wins each CAS, so only a key's first occurrence ever
    decides anything (the all-lanes kernel only needs up to one more probe
    round, in which the losing duplicate lanes re-read the slot their key's
    first lane claimed).  The distinct keys are found with a dense map over
    node IDs whenever the largest ID fits in the table's capacity — the map
    then allocates no more than the table itself; wider ID ranges insert
    every lane.
    """
    targets = np.asarray(target_nodes, dtype=np.int64).ravel()
    neighbors = np.asarray(neighbor_nodes, dtype=np.int64).ravel()
    nt = targets.shape[0]

    capacity = max(int((nt + neighbors.shape[0]) / LOAD_FACTOR), bucket_size)
    table = GpuHashTable(capacity, bucket_size=bucket_size)

    # step 1: targets carry their list index as value (first table of Fig. 5);
    # a target that finds its own key already inserted is a duplicate
    _, repeated, rounds_t = table.insert(targets, np.arange(nt, dtype=np.int64))
    if repeated.any():
        raise ValueError("target nodes must be unique")

    # step 2: neighbors insert with value -1 (second table of Fig. 5);
    # target-coincident nodes report `found`, every other key's one
    # not-found lane is the slot it claimed.
    keys, id_map = _distinct_neighbors(neighbors, table.capacity)
    key_slots, found, rounds_n = table.insert(keys, EMPTY_KEY)

    # step 3: bucket-count the -1 values, exclusive scan, offset by target
    # count (third and fourth tables of Fig. 5) — this assigns IDs in
    # (bucket, slot) order: within a bucket, the -1 slots get consecutive
    # IDs from the bucket's start.
    new_slots = np.sort(key_slots[~found])
    new_buckets = table.bucket_of_slot(new_slots)
    bucket_counts = np.bincount(new_buckets, minlength=table.num_buckets)
    bucket_offsets = exclusive_prefix_sum(bucket_counts)
    within = np.arange(new_slots.shape[0]) - bucket_offsets[new_buckets]
    sub_ids = (bucket_offsets + nt)[new_buckets] + within
    table.set_value(new_slots, sub_ids)

    # step 4: read back per-input sub-graph IDs and build the unique list
    neighbor_subgraph_ids = table.values[key_slots]
    if id_map is not None:
        id_map[keys] = neighbor_subgraph_ids
        neighbor_subgraph_ids = id_map[neighbors]

    num_unique = nt + new_slots.shape[0]
    unique_nodes = np.empty(num_unique, dtype=np.int64)
    unique_nodes[:nt] = targets
    unique_nodes[sub_ids] = table.keys[new_slots]

    duplicate_counts = np.bincount(
        neighbor_subgraph_ids, minlength=num_unique
    ).astype(np.int64)

    return AppendUniqueResult(
        unique_nodes=unique_nodes,
        num_targets=nt,
        neighbor_subgraph_ids=neighbor_subgraph_ids,
        duplicate_counts=duplicate_counts,
        probe_rounds=int(rounds_t + rounds_n),
    )


def sort_based_append_unique(
    target_nodes, neighbor_nodes
) -> AppendUniqueResult:
    """The sort-based unique used by other frameworks (paper §III-C2:
    "we adopt the hash table method *instead of the sort method* used in
    other frameworks").

    Functionally interchangeable with :func:`append_unique` up to the
    ordering of the non-target suffix (here: ascending node ID instead of
    bucket order) — all the invariants the pipeline relies on (targets
    first and in order, IDs contiguous, duplicate counts exact) hold for
    both, which the ablation tests verify.  The cost difference is the
    point: sorting is O(E log E) key movement versus O(E) expected hash
    probes, and the ablation benchmark prices both.
    """
    targets = np.asarray(target_nodes, dtype=np.int64).ravel()
    neighbors = np.asarray(neighbor_nodes, dtype=np.int64).ravel()
    nt = targets.shape[0]
    if nt and np.unique(targets).shape[0] != nt:
        raise ValueError("target nodes must be unique")

    # sort + adjacent-compare unique of the neighbor stream
    order = np.argsort(neighbors, kind="stable")
    sorted_nbrs = neighbors[order]
    is_first = np.ones(sorted_nbrs.shape[0], dtype=bool)
    is_first[1:] = sorted_nbrs[1:] != sorted_nbrs[:-1]
    distinct = sorted_nbrs[is_first]
    # drop the ones that are targets; the rest go after the target prefix
    if nt:
        not_target = ~np.isin(distinct, targets, assume_unique=True)
    else:
        not_target = np.ones(distinct.shape[0], dtype=bool)
    suffix = distinct[not_target]
    unique_nodes = np.concatenate([targets, suffix])

    # map every neighbor to its sub-graph ID: targets keep their position
    # in the (unsorted) target prefix, the rest binary-search the sorted
    # suffix — no per-element Python dict work
    neighbor_subgraph_ids = np.empty(neighbors.shape[0], dtype=np.int64)
    if nt:
        tgt_order = np.argsort(targets, kind="stable")
        sorted_tgts = targets[tgt_order]
        pos = np.searchsorted(sorted_tgts, neighbors)
        pos_clipped = np.minimum(pos, nt - 1)
        is_target = sorted_tgts[pos_clipped] == neighbors
        neighbor_subgraph_ids[is_target] = tgt_order[
            pos_clipped[is_target]
        ]
    else:
        is_target = np.zeros(neighbors.shape[0], dtype=bool)
    rest = ~is_target
    neighbor_subgraph_ids[rest] = nt + np.searchsorted(
        suffix, neighbors[rest]
    )
    duplicate_counts = np.bincount(
        neighbor_subgraph_ids, minlength=unique_nodes.shape[0]
    ).astype(np.int64)
    return AppendUniqueResult(
        unique_nodes=unique_nodes,
        num_targets=nt,
        neighbor_subgraph_ids=neighbor_subgraph_ids,
        duplicate_counts=duplicate_counts,
        probe_rounds=0,
    )
