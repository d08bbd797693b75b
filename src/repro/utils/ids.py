"""GlobalID encoding.

WholeGraph assigns every graph node a *GlobalID* composed of the rank that
owns the node and the node's local index on that rank (paper §III-B: "Each
graph node is assigned to a GlobalID, which is composed of rank ID and local
ID").  We pack both into a single int64: the top ``GLOBAL_ID_RANK_BITS`` bits
hold the rank, the remainder holds the local ID.

All functions are vectorised over NumPy arrays and never copy more than the
output array.
"""

from __future__ import annotations

import numpy as np

#: Number of high bits reserved for the owning rank.  16 bits supports up to
#: 65536 ranks while leaving 47 bits (~1.4e14) of local IDs.
GLOBAL_ID_RANK_BITS = 16

_LOCAL_BITS = 63 - GLOBAL_ID_RANK_BITS
_LOCAL_MASK = np.int64((1 << _LOCAL_BITS) - 1)
#: Maximum local ID representable in a GlobalID.
MAX_LOCAL_ID = int(_LOCAL_MASK)
#: Maximum rank representable in a GlobalID.
MAX_RANK = (1 << GLOBAL_ID_RANK_BITS) - 1


def make_global_ids(rank, local_ids) -> np.ndarray:
    """Pack ``rank`` and ``local_ids`` into GlobalIDs.

    Parameters
    ----------
    rank:
        Scalar rank or int array broadcastable against ``local_ids``.
    local_ids:
        Local node indices on the owning rank (int array or scalar).

    Returns
    -------
    np.ndarray
        int64 array of packed GlobalIDs.
    """
    local = np.asarray(local_ids, dtype=np.int64)
    r = np.asarray(rank, dtype=np.int64)
    if np.any(local < 0) or np.any(local > MAX_LOCAL_ID):
        raise ValueError("local id out of range for GlobalID packing")
    if np.any(r < 0) or np.any(r > MAX_RANK):
        raise ValueError(f"rank out of range [0, {MAX_RANK}]")
    return (r << _LOCAL_BITS) | local


def split_global_ids(global_ids) -> tuple[np.ndarray, np.ndarray]:
    """Unpack GlobalIDs into ``(ranks, local_ids)``."""
    g = np.asarray(global_ids, dtype=np.int64)
    return g >> _LOCAL_BITS, g & _LOCAL_MASK


def rank_of(global_ids) -> np.ndarray:
    """Return the owning rank of each GlobalID."""
    return np.asarray(global_ids, dtype=np.int64) >> _LOCAL_BITS

