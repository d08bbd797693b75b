"""Multi-GPU graph + feature storage on the distributed shared memory.

Implements paper §III-B's storage layout on top of :mod:`repro.dsm`:

- nodes are hash-partitioned across GPUs (:mod:`repro.graph.partition`);
- the CSR structure is re-laid-out in *stored* node order, so each rank's
  nodes — and all of their out-edges — occupy one contiguous block;
- ``indptr``-equivalent (per-node edge offsets) and ``indices`` live in
  WholeTensors whose per-rank partitions align with the node partition;
- node features live in a WholeTensor with the same row partition, so a
  node's feature is always on the GPU that owns the node.

All queries below are expressed in *stored* node IDs; callers translate from
original IDs with :attr:`partition.to_stored` once at setup (train/val/test
lists are translated at construction).

``materialize=False`` builds an accounting-only store at arbitrary scale
(Table IV models ogbn-papers100M's 24 GB structure + 53 GB features without
holding them in host RAM).
"""

from __future__ import annotations

import copy

import numpy as np

from repro import config
from repro.dsm.feature_cache import FeatureCache
from repro.dsm.tiered_tensor import TieredTensor
from repro.dsm.whole_tensor import WholeTensor
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DatasetSpec, SyntheticDataset
from repro.graph.partition import HashPartition, hash_partition
from repro.hardware.machine import SimNode


class MultiGpuGraphStore:
    """Graph structure and features scattered across all GPUs of a node."""

    def __init__(
        self,
        node: SimNode,
        dataset: SyntheticDataset,
        seed: int = 0,
        charge_setup: bool = True,
        cache_ratio: float = 0.0,
        cache_policy: str = "static",
        tier: str = "device",
        host_pinned_fraction: float | None = None,
    ):
        """``tier`` places the features: ``"device"`` scatters them across
        GPU memory (WholeGraph proper); ``"host_pinned"`` keeps them in CPU
        DRAM with zero-copy PCIe access — the fallback the open-source
        WholeGraph offers for graphs beyond aggregate GPU memory, and the
        baseline of the storage-location ablation; ``"tiered"`` is the
        out-of-core hierarchy — the CSR topology moves to pinned host
        memory, and the hottest ``host_pinned_fraction`` of the feature
        rows stay warm in pinned host DRAM with the cold tail on NVMe
        scratch, placement by degree.  Host-memory features live in a
        :class:`~repro.dsm.tiered_tensor.TieredTensor` (all rows warm under
        ``"host_pinned"``).

        ``cache_ratio`` > 0 layers a per-rank hot-row HBM cache
        (:class:`~repro.dsm.feature_cache.FeatureCache`) over the feature
        gather path of a ``"device"`` or ``"tiered"`` store: that fraction
        of the feature rows is cached per rank, with ``cache_policy``
        selecting the degree-ordered ``"static"`` placement or the online
        ``"clock"`` (LRU-approximating) policy."""
        if tier not in ("device", "host_pinned", "tiered"):
            raise ValueError(
                "tier must be 'device', 'host_pinned' or 'tiered'"
            )
        if cache_ratio and tier == "host_pinned":
            raise ValueError(
                "the feature cache needs tier='device' or 'tiered'"
            )
        self.tier = tier
        #: where the CSR topology lives: host-pinned under the tiered
        #: hierarchy (the sampler prices its row reads at the zero-copy
        #: PCIe regime), device WholeMemory otherwise
        self.structure_location = "host" if tier == "tiered" else "device"
        self.dataset = dataset
        # kept for _place and rebuild_on (replicas and elastic shrink)
        self._seed = int(seed)
        self._cache_ratio = float(cache_ratio)
        self._cache_policy = cache_policy
        self._host_pinned_fraction = (
            config.HOST_PINNED_FRACTION
            if host_pinned_fraction is None
            else float(host_pinned_fraction)
        )
        graph = dataset.graph
        self.num_nodes = graph.num_nodes
        self.num_edges = graph.num_edges
        self.feature_dim = dataset.feature_dim

        # -- partition and relabel ------------------------------------------------
        self.partition: HashPartition = hash_partition(
            self.num_nodes, node.num_gpus, seed=seed
        )
        # stored-space CSR: node i of the stored layout is original node
        # partition.to_original[i]; neighbor IDs are stored IDs too.
        self.csr: CSRGraph = graph.permute_nodes(self.partition.to_stored)
        self.edges_per_rank = [
            int(
                self.csr.indptr[self.partition.rank_offsets[r + 1]]
                - self.csr.indptr[self.partition.rank_offsets[r]]
            )
            for r in range(node.num_gpus)
        ]
        #: node features in stored order; the feature tensor's host bytes
        self.features = dataset.features[self.partition.to_original]

        # -- labels and splits (host-resident, translated to stored IDs) -------------
        self.labels = dataset.labels[self.partition.to_original]
        self.train_nodes = np.sort(self.partition.to_stored[dataset.train_nodes])
        self.val_nodes = np.sort(self.partition.to_stored[dataset.val_nodes])
        self.test_nodes = np.sort(self.partition.to_stored[dataset.test_nodes])
        self.num_classes = dataset.num_classes

        self._place(node, charge_setup)

    def _place(self, node: SimNode, charge_setup: bool) -> None:
        """Build this store's DSM tensors on ``node`` over its host arrays.

        Every tensor makes its own allocation, IPC handles and pointer
        tables and charges its setup and PCIe load to ``node``'s clocks, but
        keeps the store's stored-order arrays (:attr:`csr`,
        :attr:`features`) as its host bytes instead of a copy.
        """
        self.node = node
        nodes_per_rank = [int(c) for c in self.partition.counts]

        # -- structure storage ------------------------------------------------------
        # per-node edge offsets (int64) partitioned with the nodes; the
        # paper's "8 bytes to store each edge" budget is the indices array.
        if self.structure_location == "host":
            # out-of-core hierarchy: the CSR topology is pinned in host
            # DRAM and read zero-copy — the sampler prices its row reads
            # at the PCIe regime instead of the NVLink curve
            self.indptr_tensor = TieredTensor(
                node, self.num_nodes + 1, 1, dtype=np.int64, tag="graph",
                host_pinned_fraction=1.0,
            )
            self.indices_tensor = TieredTensor(
                node, self.num_edges, 1, dtype=np.int64, tag="graph",
                host_pinned_fraction=1.0,
            )
        else:
            self.indptr_tensor = WholeTensor(
                node,
                self.num_nodes + 1,
                1,
                dtype=np.int64,
                tag="graph",
                charge_setup=charge_setup,
                rows_per_rank=self._indptr_rows(nodes_per_rank),
            )
            self.indices_tensor = WholeTensor(
                node,
                self.num_edges,
                1,
                dtype=np.int64,
                tag="graph",
                charge_setup=False,
                rows_per_rank=self.edges_per_rank,
            )
        self.indptr_tensor.load_from_host(
            self.csr.indptr.reshape(-1, 1), phase="load"
        )
        self.indices_tensor.load_from_host(
            self.csr.indices.reshape(-1, 1), phase="load"
        )

        # -- feature storage ----------------------------------------------------------
        if self.tier == "device":
            self.feature_tensor = WholeTensor(
                node,
                self.num_nodes,
                self.feature_dim,
                dtype=np.float32,
                tag="feature",
                charge_setup=charge_setup,
                rows_per_rank=nodes_per_rank,
            )
        elif self.tier == "tiered":
            # spill beneath the DSM: warm rows pinned host, cold on disk,
            # placement by degree (the sampling-induced hotness proxy)
            self.feature_tensor = TieredTensor(
                node, self.num_nodes, self.feature_dim,
                dtype=np.float32, tag="feature",
                host_pinned_fraction=self._host_pinned_fraction,
                hotness=np.diff(self.csr.indptr),
            )
        else:
            # every row pinned in host DRAM, read zero-copy over PCIe
            self.feature_tensor = TieredTensor(
                node, self.num_nodes, self.feature_dim,
                dtype=np.float32, tag="feature", host_pinned_fraction=1.0,
            )
        self.feature_tensor.load_from_host(self.features, phase="load")

        # -- hot-row feature cache (optional) -----------------------------------
        self.feature_cache = None
        if self._cache_ratio:
            self.feature_cache = FeatureCache.from_ratio(
                self.feature_tensor,
                self._cache_ratio,
                policy=self._cache_policy,
                degrees=np.diff(self.csr.indptr),
                charge_fill=charge_setup,
            )

    @staticmethod
    def _indptr_rows(nodes_per_rank: list[int]) -> list[int]:
        """Partition the ``num_nodes + 1`` indptr rows with the nodes
        (the trailing sentinel row goes to the last rank)."""
        rows = list(nodes_per_rank)
        rows[-1] += 1
        return rows

    # -- structure queries (stored-ID space) ---------------------------------------

    def degree(self, stored_nodes) -> np.ndarray:
        """Out-degree of stored nodes."""
        return self.csr.degree(stored_nodes)

    def rank_of(self, stored_nodes) -> np.ndarray:
        """Owning rank of each stored node."""
        return self.partition.rank_of_stored(stored_nodes)

    # -- feature access ------------------------------------------------------------

    def gather_features(
        self, stored_nodes, rank: int, phase: str = "gather"
    ) -> np.ndarray:
        """Shared-memory global gather of node features onto ``rank``.

        When a hot-row cache is configured, rows resident in ``rank``'s
        cache are served from local HBM; the result is bit-identical either
        way.
        """
        if self.feature_cache is not None:
            return self.feature_cache.gather(stored_nodes, rank, phase=phase)
        return self.feature_tensor.gather(stored_nodes, rank, phase=phase)

    # -- elastic recovery ------------------------------------------------------------

    def rebuild_on(
        self, node: SimNode, charge_setup: bool = True
    ) -> "MultiGpuGraphStore":
        """This store's dataset on ``node``: a cluster replica, or an
        elastic shrink.

        The new store allocates its own DSM tensors on ``node``, and the
        DSM setup + PCIe load costs are charged to the new node's clocks
        when ``charge_setup`` is on.  With this store's GPU count (a machine
        node of the cluster), it shares this store's read-only host arrays
        — partition, stored CSR, features, labels and splits — since the
        hash partition depends only on the seed and the GPU count.  With
        another count (elastic shrink) it re-partitions, so stored IDs are
        *not* comparable across the rebuild; translate via
        ``old.partition.to_original`` then ``new.partition.to_stored``.
        """
        if node.num_gpus != self.node.num_gpus:
            return MultiGpuGraphStore(
                node,
                self.dataset,
                seed=self._seed,
                charge_setup=charge_setup,
                cache_ratio=self._cache_ratio,
                cache_policy=self._cache_policy,
                tier=self.tier,
                host_pinned_fraction=self._host_pinned_fraction,
            )
        replica = copy.copy(self)
        replica._place(node, charge_setup)
        return replica

    # -- memory accounting (Table IV) -----------------------------------------------

    def memory_usage_per_gpu(self) -> dict[str, float]:
        """Average per-GPU live bytes by tag."""
        usage = self.node.memory_usage_by_tag()
        n = self.node.num_gpus
        return {tag: b / n for tag, b in usage.items()}

    def free(self) -> None:
        self.indptr_tensor.free()
        self.indices_tensor.free()
        if self.feature_cache is not None:
            self.feature_cache.free()
            self.feature_cache = None
        self.feature_tensor.free()


def accounting_only_store(
    node: SimNode, spec: DatasetSpec, undirected: bool = True
) -> dict[str, WholeTensor]:
    """Reserve (but do not materialise) full-scale storage for ``spec``.

    Returns the accounting tensors; per-tag usage is then read from
    ``node.memory_usage_by_tag()``.  Used by the Table IV experiment: the
    real ogbn-papers100M needs 2 x 1.6 B x 8 B = 24 GB of edges and
    111.1 M x 128 x 4 B = 53 GB of features.
    """
    stored_edges = spec.full_edges * (2 if undirected else 1)
    structure = WholeTensor(
        node, stored_edges, 1, dtype=np.int64, tag="graph",
        charge_setup=True, materialize=False,
    )
    features = WholeTensor(
        node, spec.full_nodes, spec.feature_dim, dtype=np.float32,
        tag="feature", charge_setup=True, materialize=False,
    )
    return {"graph": structure, "feature": features}
