"""Graph substrate: CSR structures, partitioning, multi-GPU storage, datasets.

WholeGraph stores the graph structure (CSR adjacency) and node features
across all GPUs (paper §III-B): nodes are hash-partitioned by node ID, every
edge lives with its source node, and node features live on the same GPU as
the node.
"""

from repro.graph.csr import CSRGraph
from repro.graph.builder import from_edge_list
from repro.graph.generators import rmat_edges
from repro.graph.partition import HashPartition, hash_partition
from repro.graph.storage import MultiGpuGraphStore
from repro.graph.bipartite import (
    BipartiteDataset,
    bipartite_edges,
    load_bipartite_dataset,
)
from repro.graph.datasets import (
    DATASETS,
    DatasetSpec,
    SyntheticDataset,
    load_dataset,
    dataset_spec,
)

__all__ = [
    "CSRGraph",
    "from_edge_list",
    "rmat_edges",
    "HashPartition",
    "hash_partition",
    "MultiGpuGraphStore",
    "DATASETS",
    "DatasetSpec",
    "SyntheticDataset",
    "BipartiteDataset",
    "bipartite_edges",
    "load_bipartite_dataset",
    "load_dataset",
    "dataset_spec",
]
