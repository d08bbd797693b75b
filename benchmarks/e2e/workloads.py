"""The four benchmark workloads, built only from the public training API.

Each workload is one training configuration: a dataset recipe, the
:class:`~repro.graph.MultiGpuGraphStore` options and the
:class:`~repro.train.WholeGraphTrainer` options.  Hyper-parameters follow
the paper (§IV) unless a ``why`` says otherwise.  Together they put the host
bottleneck on a different layer each: the dense ``nn`` layers (GAT), the
sampler under the double-buffered schedule (SAGE), the out-of-core tier
(GCN on skewed degrees) and the DSM write path (recsys link prediction).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.graph import MultiGpuGraphStore, load_bipartite_dataset, load_dataset
from repro.hardware import SimNode
from repro.train import WholeGraphTrainer


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to build it and how much one epoch is."""

    name: str
    why: str
    dataset: Callable[[int], object]
    store_kwargs: dict = field(default_factory=dict)
    trainer_kwargs: dict = field(default_factory=dict)
    #: steps per epoch (``None``: the full pass over the training nodes)
    max_iterations: int | None = None

    def build(self, seed: int) -> tuple[WholeGraphTrainer, tuple[float, ...]]:
        """Build dataset, store and trainer from ``seed``.

        Returns the trainer and the host seconds of the three stages
        ``(dataset, store, trainer)``.
        """
        t0 = time.perf_counter()
        ds = self.dataset(seed)
        t1 = time.perf_counter()
        store = MultiGpuGraphStore(SimNode(), ds, seed=seed, **self.store_kwargs)
        t2 = time.perf_counter()
        trainer = WholeGraphTrainer(store, seed=seed, **self.trainer_kwargs)
        t3 = time.perf_counter()
        return trainer, (t1 - t0, t2 - t1, t3 - t2)

    @staticmethod
    def samples(trainer: WholeGraphTrainer, iterations: int) -> int:
        """Training samples in ``iterations`` steps: seed nodes, or scored
        pairs (positives plus negatives) for link prediction."""
        if trainer.task == "linkpred":
            return iterations * 2 * trainer.num_pairs
        # a store with fewer train nodes than one batch trains them all
        return min(
            iterations * trainer.batch_size,
            int(trainer.store.train_nodes.shape[0]),
        )


def _papers(seed: int):
    return load_dataset("ogbn-papers100M", num_nodes=6_000, seed=seed)


def _products(seed: int):
    return load_dataset("ogbn-products", num_nodes=60_000, seed=seed)


def _uk(seed: int):
    return load_dataset("uk_domain", num_nodes=80_000, seed=seed)


def _ratings(seed: int):
    return load_bipartite_dataset(
        num_users=100_000, num_items=10_000, seed=seed
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="gat-papers",
            why=(
                "GAT's per-edge (E, H, D) attention tensors make nn nearly "
                "all host time and set peak memory; sampling and gather are "
                "the control"
            ),
            dataset=_papers,
            trainer_kwargs=dict(
                model_name="gat", batch_size=512, fanouts=[30, 30, 30],
                hidden=256,
            ),
        ),
        Workload(
            name="sage-products-overlap",
            why=(
                "sampling and AppendUnique dominate host time, on the only "
                "workload using the double-buffered pipelined schedule"
            ),
            dataset=_products,
            trainer_kwargs=dict(
                model_name="graphsage", batch_size=512,
                fanouts=[30, 30, 30], hidden=64, overlap=True,
            ),
            max_iterations=2,
        ),
        Workload(
            name="gcn-uk-tiered",
            why=(
                "out-of-core tiered features with the streaming loader on "
                "power-law degrees; many short steps expose per-step overhead"
            ),
            dataset=_uk,
            # at the default pinned fraction (0.5) the loader hides every
            # fetch; 0.2 leaves the cold NVMe tail partly exposed
            store_kwargs=dict(tier="tiered", cache_ratio=0.05,
                              host_pinned_fraction=0.2),
            trainer_kwargs=dict(
                model_name="gcn", batch_size=128, fanouts=[30, 30, 30],
                hidden=256, streaming=True,
            ),
        ),
        Workload(
            name="recsys-linkpred",
            why=(
                "link prediction with SparseAdam over a DSM embedding: the "
                "only workload that writes the DSM besides reading it"
            ),
            dataset=_ratings,
            trainer_kwargs=dict(
                model_name="graphsage", batch_size=512, task="linkpred",
                num_pairs=2048, hidden=64, num_layers=2,
                sparse_optimizer="adam",
            ),
            max_iterations=1,
        ),
    )
}
