"""Integer hashing shared by the node partitioner and the GPU hash table.

A leaf module that imports nothing from ``repro``.  The hash table cannot
take the hash from :mod:`repro.graph.partition`: importing ``repro.graph``
runs its store, which imports ``repro.dsm`` → ``repro.nn`` → the neighbor
sampler → AppendUnique → the half-initialized hash table.
"""

from __future__ import annotations

import numpy as np


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser — a high-quality 64-bit integer mix."""
    z = x.astype(np.uint64, copy=True)
    z += np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))
