"""CUDA IPC handle simulation.

Models ``cudaIpcGetMemHandle`` / ``cudaIpcOpenMemHandle``: a handle is an
opaque token a process can hand to another process, which the peer converts
into a locally-usable device pointer.  Here the "device pointer" is the
backing NumPy buffer of the exporting rank's partition; *opening* a handle
checks the protocol invariants the real API enforces (a process must not open
its own handle; a handle must refer to a live allocation).

The registry holds buffers weakly: an allocation dropped without a close is
collected like any array, and its handle then fails to open like a closed one.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

import numpy as np

_registry: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_token_counter = itertools.count(1)


@dataclass(frozen=True)
class IpcHandle:
    """Opaque exportable reference to one rank's device allocation."""

    token: int
    owner_rank: int
    nbytes: int


def ipc_get_mem_handle(owner_rank: int, buffer: np.ndarray) -> IpcHandle:
    """Export a device buffer as an IPC handle (``cudaIpcGetMemHandle``)."""
    token = next(_token_counter)
    _registry[token] = buffer
    return IpcHandle(token=token, owner_rank=owner_rank, nbytes=buffer.nbytes)


def ipc_open_mem_handle(handle: IpcHandle, opener_rank: int) -> np.ndarray:
    """Open a peer's IPC handle, returning the mapped "device pointer".

    Mirrors the CUDA restriction that ``cudaIpcOpenMemHandle`` may not be
    called on a handle created by the same process/device.
    """
    if handle.owner_rank == opener_rank:
        raise ValueError(
            "cudaIpcOpenMemHandle cannot open a handle exported by the "
            f"opening process itself (rank {opener_rank})"
        )
    try:
        return _registry[handle.token]
    except KeyError:
        raise KeyError(f"IPC handle {handle.token} refers to a freed allocation")


def ipc_remap_mem_handle(handle: IpcHandle, buffer: np.ndarray) -> None:
    """Re-point a live handle at new backing bytes of the same size.

    Models an allocation gaining host storage after export: every peer
    that opened the handle keeps a valid mapping.
    """
    if handle.token not in _registry:
        raise KeyError(f"IPC handle {handle.token} refers to a freed allocation")
    if buffer.nbytes != handle.nbytes:
        raise ValueError(
            f"remapped buffer has {buffer.nbytes} bytes, handle {handle.nbytes}"
        )
    _registry[handle.token] = buffer


def ipc_close_mem_handle(handle: IpcHandle) -> None:
    """Invalidate an exported handle (allocation freed)."""
    _registry.pop(handle.token, None)
