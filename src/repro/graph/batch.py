"""Batched small graphs for graph-level tasks.

The paper motivates GNNs with graph classification and "a dataset with
millions of graphs" (§I).  Graph-level training batches many small graphs
into one block-diagonal adjacency so a single g-SpMM sweep processes the
whole batch; a *readout* then pools node embeddings per graph.

:class:`BatchedGraphs` concatenates CSRs with node-ID offsets and exposes
the batch as a full-graph :class:`~repro.ops.neighbor_sampler.LayerBlock`
(targets == sources == all nodes — the degenerate prefix), so the existing
GNN layers run on it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.ops.neighbor_sampler import LayerBlock


@dataclass
class BatchedGraphs:
    """A block-diagonal batch of small graphs."""

    #: merged CSR over the concatenated node space
    csr: CSRGraph
    #: node offset where each graph starts (length num_graphs + 1)
    graph_offsets: np.ndarray
    #: per-node graph membership
    graph_ids: np.ndarray

    @property
    def num_graphs(self) -> int:
        return int(self.graph_offsets.shape[0] - 1)

    @property
    def num_nodes(self) -> int:
        return self.csr.num_nodes

    def full_graph_block(self) -> LayerBlock:
        """The batch as a full-graph message-passing block.

        Every node is both target and source (the identity prefix), so the
        sampled-block GNN layers apply directly — full-batch training on
        small graphs is the degenerate case of sampling with infinite
        fanout.
        """
        return LayerBlock(
            indptr=self.csr.indptr,
            indices=self.csr.indices,
            num_targets=self.num_nodes,
            num_src=self.num_nodes,
            duplicate_counts=np.bincount(
                self.csr.indices, minlength=self.num_nodes
            ),
        )


def batch_graphs(graphs: list[CSRGraph]) -> BatchedGraphs:
    """Merge small graphs into one block-diagonal batch."""
    if not graphs:
        raise ValueError("need at least one graph")
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    indptrs = [graphs[0].indptr]
    indices = []
    edge_base = 0
    for i, g in enumerate(graphs):
        indices.append(g.indices + offsets[i])
        if i > 0:
            indptrs.append(g.indptr[1:] + edge_base)
        edge_base += g.num_edges
    merged = CSRGraph(
        np.concatenate(indptrs),
        np.concatenate(indices) if indices else np.zeros(0, np.int64),
        num_nodes=int(offsets[-1]),
    )
    graph_ids = np.repeat(np.arange(len(graphs), dtype=np.int64), sizes)
    return BatchedGraphs(csr=merged, graph_offsets=offsets,
                         graph_ids=graph_ids)


def generate_graph_classification_dataset(
    num_graphs: int,
    rng: np.random.Generator,
    nodes_range: tuple[int, int] = (8, 20),
    feature_dim: int = 8,
) -> tuple[list[CSRGraph], list[np.ndarray], np.ndarray]:
    """A structurally-learnable two-class task: cycles vs near-cliques.

    Class 0 graphs are rings (every node degree 2); class 1 graphs are
    dense Erdős–Rényi graphs (expected degree ~ n/2) — distinguishable
    from aggregated degree statistics alone, so GNNs separate them while
    per-node features (pure noise) do not.

    Returns ``(graphs, per-graph node features, labels)``.
    """
    from repro.graph.builder import from_edge_list

    graphs, features = [], []
    labels = rng.integers(0, 2, size=num_graphs).astype(np.int64)
    for label in labels:
        n = int(rng.integers(*nodes_range))
        if label == 0:
            src = np.arange(n)
            dst = (src + 1) % n
        else:
            # draw n(n-1) candidate pairs; after dedup the graph is dense
            # (most of the ~n²/2 possible edges present) at every size
            m = n * (n - 1)
            src = rng.integers(0, n, size=m)
            dst = rng.integers(0, n, size=m)
        graphs.append(from_edge_list(src, dst, n, undirected=True,
                                     dedup=True))
        features.append(
            rng.standard_normal((n, feature_dim)).astype(np.float32)
        )
    return graphs, features, labels
