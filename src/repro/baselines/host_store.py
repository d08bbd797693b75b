"""Host-memory graph store (the "Graph Store Server" of paper Fig. 1).

DGL and PyG keep the full graph structure and node features in CPU DRAM.
This store mirrors :class:`~repro.graph.storage.MultiGpuGraphStore`'s query
interface over plain host arrays so the baseline trainer can share the
functional sampling/gather code, while all costs accrue on the host side.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.datasets import SyntheticDataset
from repro.hardware.machine import SimNode


class HostGraphStore:
    """The baseline frameworks' CPU-resident graph + feature storage."""

    def __init__(self, node: SimNode, dataset: SyntheticDataset):
        self.node = node
        self.dataset = dataset
        self.csr: CSRGraph = dataset.graph
        self.features = dataset.features
        self.labels = dataset.labels
        self.train_nodes = dataset.train_nodes
        self.val_nodes = dataset.val_nodes
        self.test_nodes = dataset.test_nodes
        self.num_classes = dataset.num_classes

    @property
    def num_nodes(self) -> int:
        return self.csr.num_nodes

    @property
    def num_edges(self) -> int:
        return self.csr.num_edges

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def degree(self, nodes) -> np.ndarray:
        return self.csr.degree(nodes)

    def gather_features_host(self, nodes) -> np.ndarray:
        """CPU fancy-index gather (cost charged by the caller)."""
        return self.features[np.asarray(nodes, dtype=np.int64)]
