"""Synthetic graph generators.

Stand-ins for the paper's datasets (OGB and KONECT graphs are unavailable
offline).  Two families:

- :func:`rmat_edges` — recursive-matrix (R-MAT) generation producing the
  heavy-tailed degree distributions of web/social graphs (Friendster,
  UK_domain, papers100M structure);
- :func:`homophilous_edges` + :func:`class_features` — a planted-partition
  construction with label-correlated features, giving a *learnable*
  node-classification task so the accuracy experiments (Table III, Fig. 7)
  exercise real training rather than noise.

Both are fully vectorised; generating a million edges takes well under a
second.
"""

from __future__ import annotations

import numpy as np


def rmat_edges(
    num_nodes: int,
    num_edges: int,
    rng: np.random.Generator,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``num_edges`` directed edges with R-MAT recursion.

    Uses the Graph500 parameterisation (a=0.57, b=c=0.19, d=0.05) by
    default.  ``num_nodes`` need not be a power of two; endpoints are
    folded into range with a modulo, which perturbs the distribution only
    marginally.
    """
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError("rmat probabilities must sum to at most 1")
    scale = max(1, int(np.ceil(np.log2(max(num_nodes, 2)))))
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for _ in range(scale):
        r = rng.random(num_edges)
        src_bit = (r >= a + b).astype(np.int64)  # quadrants c, d set src bit
        # dst bit set in quadrants b and d
        dst_bit = ((r >= a) & (r < a + b) | (r >= a + b + c)).astype(np.int64)
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit
    return src % num_nodes, dst % num_nodes


def homophilous_edges(
    num_nodes: int,
    num_edges: int,
    num_classes: int,
    rng: np.random.Generator,
    homophily: float = 0.75,
) -> tuple[np.ndarray, np.ndarray]:
    """Planted-partition edges: classes are contiguous node-ID blocks.

    Each edge picks a uniform source; with probability ``homophily`` the
    destination is uniform *within the source's class block*, otherwise
    uniform over all nodes.  Contiguous blocks keep the construction fully
    vectorised; the downstream hash partition destroys any layout bias.
    """
    if not 0.0 <= homophily <= 1.0:
        raise ValueError("homophily must be in [0, 1]")
    block = -(-num_nodes // num_classes)
    src = rng.integers(0, num_nodes, size=num_edges, dtype=np.int64)
    block_start = (src // block) * block
    block_end = np.minimum(block_start + block, num_nodes)
    intra = rng.random(num_edges) < homophily
    dst = rng.integers(0, num_nodes, size=num_edges, dtype=np.int64)
    span = block_end - block_start
    dst[intra] = block_start[intra] + (dst[intra] % span[intra])
    return src, dst


def block_labels(num_nodes: int, num_classes: int) -> np.ndarray:
    """Class of each node under the contiguous-block layout."""
    block = -(-num_nodes // num_classes)
    return (np.arange(num_nodes, dtype=np.int64) // block).astype(np.int64)


def class_features(
    labels: np.ndarray,
    feature_dim: int,
    rng: np.random.Generator,
    signal: float = 1.0,
    noise: float = 1.0,
) -> np.ndarray:
    """Node features = class centroid + Gaussian noise.

    ``signal``/``noise`` control task difficulty; the defaults give a task
    where a 3-layer GNN converges within a few epochs on small graphs but
    a plain linear probe does not saturate (aggregation helps, as it must
    for the GNN accuracy curves to be meaningful).
    """
    num_classes = int(labels.max()) + 1 if labels.size else 1
    centroids = rng.standard_normal((num_classes, feature_dim)).astype(
        np.float32
    )
    x = centroids[labels] * np.float32(signal)
    x += rng.standard_normal((labels.size, feature_dim)).astype(np.float32) * (
        np.float32(noise)
    )
    return x


def random_features(
    num_nodes: int, feature_dim: int, rng: np.random.Generator
) -> np.ndarray:
    """Unstructured features for the performance-only datasets (the paper
    randomly generates Friendster/UK_domain features, §IV)."""
    return rng.standard_normal((num_nodes, feature_dim)).astype(np.float32)
