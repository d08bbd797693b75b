"""Negative-edge sampling for link prediction.

The paper motivates GNNs with link prediction among its target tasks (§I).
Training a link predictor needs *negative* examples — node pairs that are
not edges.  :func:`sample_negative_edges` draws uniform corruptions with
rejection against the CSR adjacency, vectorised in rounds: draw candidates,
test membership against the graph's sorted edge keys
(:meth:`~repro.graph.csr.CSRGraph.sorted_edge_keys`, built once per graph),
redraw the hits.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

#: rejection rounds before the negative sampler gives up
MAX_ROUNDS = 32


def edges_exist(csr: CSRGraph, src, dst) -> np.ndarray:
    """Vectorised membership test: is ``(src[i], dst[i])`` an edge?

    Works on the *pair key* ``row * N + neighbor``: the graph's keys,
    sorted once per graph, are globally ascending, so one ``searchsorted``
    finds every query.  ``csr`` need not be row-sorted.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    edge_keys = csr.sorted_edge_keys()
    query_keys = src * csr.num_nodes + dst
    pos = np.searchsorted(edge_keys, query_keys)
    found = np.zeros(src.shape[0], dtype=bool)
    in_range = pos < edge_keys.shape[0]
    found[in_range] = edge_keys[pos[in_range]] == query_keys[in_range]
    return found


def sample_positive_edges(
    csr: CSRGraph, num_samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly sample existing edges, returned as ``(src, dst)``."""
    if csr.num_edges == 0:
        raise ValueError("graph has no edges to sample")
    eids = rng.integers(0, csr.num_edges, size=num_samples)
    src = np.searchsorted(csr.indptr[1:], eids, side="right")
    return src.astype(np.int64), csr.indices[eids]


def sample_negative_edges(
    csr: CSRGraph,
    num_samples: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample node pairs that are *not* edges (and not self-loops).

    Rejection sampling in vectorised rounds; on sparse graphs one round
    almost always suffices.  Raises if the graph is so dense that
    ``MAX_ROUNDS`` redraws cannot find enough non-edges.
    """
    src = rng.integers(0, csr.num_nodes, size=num_samples).astype(np.int64)
    dst = rng.integers(0, csr.num_nodes, size=num_samples).astype(np.int64)
    for _ in range(MAX_ROUNDS):
        bad = (src == dst) | edges_exist(csr, src, dst)
        n_bad = int(bad.sum())
        if n_bad == 0:
            return src, dst
        src[bad] = rng.integers(0, csr.num_nodes, size=n_bad)
        dst[bad] = rng.integers(0, csr.num_nodes, size=n_bad)
    raise RuntimeError(
        "could not find enough negative edges (graph too dense?)"
    )
