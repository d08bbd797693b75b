"""Prefix-sum primitives.

The AppendUnique op (paper §III-C2) assigns contiguous sub-graph IDs to
unique neighbor nodes by running an *exclusive prefix sum* over per-bucket
counts.  This helper is the NumPy equivalent of the GPU scan kernel.
"""

from __future__ import annotations

import numpy as np


def exclusive_prefix_sum(values) -> np.ndarray:
    """Exclusive (pre-shift) prefix sum.

    ``out[i] = sum(values[:i])``, so ``out[0] == 0`` and the total is *not*
    included.  The total can be recovered as ``out[-1] + values[-1]``.
    """
    v = np.asarray(values)
    out = np.empty(v.shape[0], dtype=np.int64)
    if v.shape[0] == 0:
        return out
    out[0] = 0
    np.cumsum(v[:-1], out=out[1:])
    return out

