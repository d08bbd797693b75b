"""Multi-layer neighbor sampling over the multi-GPU graph store.

Single-layer sampling = the Algorithm-1 sampler + AppendUnique; multi-layer
sub-graph sampling "can be done by simply stacking multiple single-layer
sub-graph samplings" (paper §III-C2).  The output keeps WholeGraph's
*prefix property*: each frontier's node list begins with the previous
frontier in order, so one feature gather for the deepest frontier feeds
every layer (targets of layer ``l`` are a prefix of the inputs of layer
``l``).

The functional core (:func:`sample_layer`) is shared with the CPU baselines,
which run the same math but charge host-CPU costs instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware import costmodel
from repro.ops.append_unique import append_unique, sort_based_append_unique
from repro.ops.sampling import batch_sample_without_replacement
from repro.telemetry import metrics
from repro.utils.scan import exclusive_prefix_sum


def sample_layer(
    indptr: np.ndarray,
    indices: np.ndarray,
    targets: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample up to ``fanout`` neighbors (without replacement) per target.

    Returns ``(flat_neighbors, counts, edge_positions)``:
    ``flat_neighbors`` holds each target's sampled neighbors contiguously in
    target order, ``counts`` is per-target (``min(degree, fanout)``), and
    ``edge_positions`` gives each sampled edge's index into the graph's
    ``indices`` array.
    """
    targets = np.asarray(targets, dtype=np.int64)
    starts = indptr[targets]
    deg = indptr[targets + 1] - starts
    counts = np.minimum(deg, fanout)
    out_offsets = exclusive_prefix_sum(counts)
    total = int(counts.sum())
    positions = np.empty(total, dtype=np.int64)

    # Case M >= N: take every neighbor; "each thread can simply output its
    # id" (paper §III-C1).  Vectorised variable-length slice copy.
    take_all = deg <= fanout
    if np.any(take_all):
        c = counts[take_all]
        reps = np.repeat(starts[take_all], c)
        within = np.arange(int(c.sum()), dtype=np.int64) - np.repeat(
            exclusive_prefix_sum(c), c
        )
        positions[np.repeat(out_offsets[take_all], c) + within] = reps + within

    # Case M < N: Algorithm 1, batched over all such targets.
    need_sample = ~take_all
    if np.any(need_sample):
        edge_pos = batch_sample_without_replacement(
            deg[need_sample], fanout, rng
        )
        edge_pos += starts[need_sample][:, None]
        dst = out_offsets[need_sample][:, None] + np.arange(fanout)
        positions[dst.ravel()] = edge_pos.ravel()
    flat = indices[positions].astype(np.int64, copy=False)
    return flat, counts, positions


@dataclass
class LayerBlock:
    """One sampled bipartite layer: aggregates sources into targets.

    ``indptr``/``indices`` form a rectangular CSR with ``num_targets`` rows;
    column IDs index the layer's *unique source list* (of which the targets
    are the first ``num_targets`` entries — the prefix property).
    """

    indptr: np.ndarray
    indices: np.ndarray
    num_targets: int
    num_src: int
    duplicate_counts: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.indices.shape[0])


@dataclass
class SampledSubgraph:
    """The full multi-layer sample for one mini-batch."""

    #: stored node IDs per frontier; ``frontiers[0]`` is the seed batch and
    #: ``frontiers[l]`` is a prefix of ``frontiers[l+1]``
    frontiers: list[np.ndarray]
    #: ``blocks[l]`` aggregates ``frontiers[l+1]`` into ``frontiers[l]``
    blocks: list[LayerBlock]

    @property
    def seeds(self) -> np.ndarray:
        return self.frontiers[0]

    @property
    def input_nodes(self) -> np.ndarray:
        """Nodes whose features must be gathered (deepest frontier)."""
        return self.frontiers[-1]

    @property
    def num_layers(self) -> int:
        return len(self.blocks)

    def validate_prefix_property(self) -> None:
        """Assert each frontier prefixes the next (tests call this)."""
        for l in range(len(self.frontiers) - 1):
            a, b = self.frontiers[l], self.frontiers[l + 1]
            if not np.array_equal(a, b[: a.shape[0]]):
                raise AssertionError(f"frontier {l} is not a prefix of {l+1}")


class NeighborSampler:
    """Samples multi-layer sub-graphs from a :class:`MultiGpuGraphStore`."""

    def __init__(self, store, fanouts, charge: bool = True,
                 unique_impl: str = "hash"):
        """``fanouts[l]`` is the per-target sample count of layer ``l``
        (seed-side first).  ``charge=False`` disables cost accounting
        (used when the functional result alone is wanted).

        ``unique_impl`` selects the de-duplication kernel: ``"hash"`` is
        WholeGraph's bucketed hash table; ``"sort"`` is the sort-based
        unique other frameworks use (slower — the §III-C2 ablation).
        """
        self.store = store
        self.fanouts = [int(f) for f in fanouts]
        self.charge = charge
        if unique_impl not in ("hash", "sort"):
            raise ValueError("unique_impl must be 'hash' or 'sort'")
        self.unique_impl = unique_impl

    def sample(
        self, seeds, rank: int, rng: np.random.Generator,
        phase: str = "sample",
    ) -> SampledSubgraph:
        """Sample the sub-graph for ``seeds`` on GPU ``rank``."""
        store = self.store
        node = store.node
        seeds = np.asarray(seeds, dtype=np.int64)
        frontiers = [seeds]
        blocks: list[LayerBlock] = []
        for fanout in self.fanouts:
            targets = frontiers[-1]
            flat, counts, _ = sample_layer(
                store.csr.indptr, store.csr.indices, targets, fanout, rng
            )
            if self.unique_impl == "hash":
                uni = append_unique(targets, flat)
            else:
                uni = sort_based_append_unique(targets, flat)
            # preallocate the block's CSR bounds: one cumsum straight into
            # the target buffer instead of concatenate+astype temporaries
            indptr = np.empty(counts.shape[0] + 1, dtype=np.int64)
            indptr[0] = 0
            np.cumsum(counts, out=indptr[1:])
            blocks.append(
                LayerBlock(
                    indptr=indptr,
                    indices=uni.neighbor_subgraph_ids,
                    num_targets=targets.shape[0],
                    num_src=uni.num_unique,
                    duplicate_counts=uni.duplicate_counts,
                )
            )
            frontiers.append(uni.unique_nodes)

            if self.charge:
                edges = int(counts.sum())
                # read the neighbor lists of the targets (CSR rows live with
                # the owning GPU; remote rows cross NVLink)
                owners = store.rank_of(targets)
                remote = float(np.count_nonzero(owners != rank)) / max(
                    targets.shape[0], 1
                )
                seg = max(float(np.mean(counts)), 1.0) * 8.0
                if getattr(store, "structure_location", "device") == "host":
                    # out-of-core stores pin the CSR topology in host DRAM:
                    # the row reads come zero-copy over PCIe instead of the
                    # NVLink curve (ownership no longer matters — every
                    # read crosses the host uplink)
                    t = costmodel.zero_copy_gather_time(edges * 8.0, seg)
                else:
                    t = costmodel.gather_time(
                        edges * 8.0, seg, node.num_gpus,
                        remote_fraction=remote,
                    )
                # the fused sampling kernel itself
                t += costmodel.gpu_sample_time(edges)
                if self.unique_impl == "hash":
                    # each key probes ~2 slots on average at the table's
                    # 0.5 load factor (probe_rounds is the *max* chain, not
                    # the mean — charging it would model a serial worst
                    # case the parallel kernel never pays)
                    t += costmodel.hash_table_time(
                        (targets.shape[0] + edges) * 2
                    )
                else:
                    t += costmodel.sort_unique_time(targets.shape[0] + edges)
                node.gpu_clock[rank].advance(
                    t, phase=phase, category="sampling",
                    args={"layer": len(blocks) - 1, "fanout": fanout,
                          "targets": int(targets.shape[0]),
                          "edges": edges,
                          "unique_src": int(uni.num_unique)},
                )
                reg = metrics.get_registry()
                reg.counter("sampler_edges_total").inc(edges)
                reg.counter("sampler_layers_total").inc(1)
                # realised fan-out per target (min(degree, fanout)) and the
                # frontier growth the AppendUnique dedup left behind
                reg.histogram("sampler_fanout").observe(counts)
                reg.histogram("sampler_frontier_rows").observe(
                    uni.num_unique
                )
        return SampledSubgraph(frontiers=frontiers, blocks=blocks)
