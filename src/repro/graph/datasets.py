"""The four evaluation datasets (paper Table II), as synthetic stand-ins.

+ ogbn-products    2.4 M nodes,  61.9 M edges, 100-dim features, labelled
+ ogbn-papers100M  111.1 M nodes, 1.6 B edges, 128-dim features, labelled
+ Friendster       68.3 M nodes,  2.6 B edges, 128-dim random features
+ UK_domain        105.2 M nodes, 3.3 B edges, 128-dim random features

Each :class:`DatasetSpec` carries the *full-scale* statistics (used for
memory accounting and epoch-count extrapolation) and a recipe to generate a
*scaled* synthetic instance preserving what per-iteration cost depends on:
average degree, feature dimension, and (for the labelled datasets) a
learnable community structure.  The paper labels 1 % of Friendster/UK nodes
and splits them 80/10/10 (§IV); OGB's official split sizes are kept for the
two OGB datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.builder import from_edge_list
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    block_labels,
    class_features,
    homophilous_edges,
    random_features,
    rmat_edges,
)
from repro.utils.rng import spawn_rng


@dataclass(frozen=True)
class DatasetSpec:
    """Full-scale statistics of one evaluation dataset."""

    name: str
    full_nodes: int
    full_edges: int  #: undirected edge count as reported in Table II
    feature_dim: int
    num_classes: int
    #: OGB-style absolute split sizes at full scale
    full_train_nodes: int
    full_val_nodes: int
    full_test_nodes: int
    #: 'community' (learnable labels) or 'rmat' (performance only)
    kind: str = "community"
    labelled: bool = True

    @property
    def avg_degree(self) -> float:
        """Average *directed* degree after symmetrisation (2E/N)."""
        return 2.0 * self.full_edges / self.full_nodes

    @property
    def full_iterations_per_epoch(self) -> int:
        """Mini-batch steps per full-scale epoch at the paper's batch 512."""
        from repro.config import BATCH_SIZE

        return max(1, int(np.ceil(self.full_train_nodes / BATCH_SIZE)))


# Official OGB split sizes; Friendster/UK use the paper's 1% label ratio
# with an 80/10/10 split.
DATASETS: dict[str, DatasetSpec] = {
    "ogbn-products": DatasetSpec(
        name="ogbn-products",
        full_nodes=2_449_029,
        full_edges=61_859_140,
        feature_dim=100,
        num_classes=47,
        full_train_nodes=196_615,
        full_val_nodes=39_323,
        full_test_nodes=2_213_091,
        kind="community",
        labelled=True,
    ),
    "ogbn-papers100M": DatasetSpec(
        name="ogbn-papers100M",
        full_nodes=111_059_956,
        full_edges=1_615_685_872,
        feature_dim=128,
        num_classes=172,
        full_train_nodes=1_207_179,
        full_val_nodes=125_265,
        full_test_nodes=214_338,
        kind="community",
        labelled=True,
    ),
    "friendster": DatasetSpec(
        name="friendster",
        full_nodes=68_349_466,
        full_edges=2_586_147_869,
        feature_dim=128,
        num_classes=64,
        full_train_nodes=546_796,  # 1% labels x 80%
        full_val_nodes=68_349,
        full_test_nodes=68_349,
        kind="rmat",
        labelled=False,
    ),
    "uk_domain": DatasetSpec(
        name="uk_domain",
        full_nodes=105_153_952,
        full_edges=3_301_876_564,
        feature_dim=128,
        num_classes=64,
        full_train_nodes=841_232,  # 1% labels x 80%
        full_val_nodes=105_154,
        full_test_nodes=105_154,
        kind="rmat",
        labelled=False,
    ),
}


@dataclass
class SyntheticDataset:
    """A scaled synthetic instance of one dataset."""

    spec: DatasetSpec
    graph: CSRGraph
    features: np.ndarray
    labels: np.ndarray
    train_nodes: np.ndarray
    val_nodes: np.ndarray
    test_nodes: np.ndarray
    seed: int
    num_classes: int

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])


def dataset_spec(name: str) -> DatasetSpec:
    """Look up a :class:`DatasetSpec` by name (KeyError with suggestions)."""
    try:
        return DATASETS[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}"
        ) from None


def load_dataset(
    name: str,
    num_nodes: int = 50_000,
    seed: int = 0,
    feature_dim: int | None = None,
    num_classes: int | None = None,
    homophily: float = 0.8,
) -> SyntheticDataset:
    """Generate a scaled synthetic instance of dataset ``name``.

    The instance preserves the full dataset's average degree and feature
    dimension (both overridable for fast tests) and splits nodes into
    train/val/test with the full dataset's *fractions*.
    """
    spec = dataset_spec(name)
    rng = spawn_rng(seed, "dataset", name, num_nodes)
    feature_dim = spec.feature_dim if feature_dim is None else int(feature_dim)
    num_classes = (
        min(spec.num_classes, max(2, num_nodes // 64))
        if num_classes is None
        else int(num_classes)
    )
    # preserve the full graph's average degree
    num_edges = max(num_nodes, int(spec.avg_degree / 2 * num_nodes))

    if spec.kind == "community":
        src, dst = homophilous_edges(
            num_nodes, num_edges, num_classes, rng, homophily=homophily
        )
        labels = block_labels(num_nodes, num_classes)
        features = class_features(labels, feature_dim, rng)
    else:
        src, dst = rmat_edges(num_nodes, num_edges, rng)
        labels = rng.integers(0, num_classes, size=num_nodes, dtype=np.int64)
        features = random_features(num_nodes, feature_dim, rng)

    graph = from_edge_list(src, dst, num_nodes, undirected=True, dedup=True)

    perm = rng.permutation(num_nodes).astype(np.int64)
    n_train = max(1, int(round(num_nodes * spec.full_train_nodes / spec.full_nodes)))
    n_val = max(1, int(round(num_nodes * spec.full_val_nodes / spec.full_nodes)))
    n_test = max(1, int(round(num_nodes * spec.full_test_nodes / spec.full_nodes)))
    train = np.sort(perm[:n_train])
    val = np.sort(perm[n_train : n_train + n_val])
    test = np.sort(perm[n_train + n_val : n_train + n_val + n_test])

    return SyntheticDataset(
        spec=spec,
        graph=graph,
        features=features,
        labels=labels,
        train_nodes=train,
        val_nodes=val,
        test_nodes=test,
        seed=seed,
        num_classes=num_classes,
    )
