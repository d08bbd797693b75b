"""Per-device memory allocator with usage accounting.

The paper measures per-GPU memory consumption with ``nvidia-smi`` at
different training phases (Table IV: graph structure 3.1 GB, node features
6.7 GB, training state 20.4 GB per GPU for ogbn-papers100M).  This allocator
reproduces that accounting: every allocation carries a *tag* ("graph",
"feature", "training", ...) and the per-tag totals regenerate the table.

The allocator is a simple first-fit bump/free-list model — sufficient because
we only need capacity enforcement and accounting, not fragmentation studies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class OutOfDeviceMemory(RuntimeError):
    """Raised when an allocation exceeds the device's remaining capacity."""


@dataclass(frozen=True)
class Allocation:
    """A live allocation on one device."""

    alloc_id: int
    device: str
    nbytes: int
    tag: str


class DeviceMemory:
    """Tracks allocations on one device against a fixed capacity."""

    _ids = itertools.count()

    def __init__(self, device: str, capacity: int):
        self.device = device
        self.capacity = int(capacity)
        self._live: dict[int, Allocation] = {}
        self.used = 0
        #: high-water mark, like the peak ``nvidia-smi`` reading
        self.peak = 0

    def allocate(self, nbytes: int, tag: str = "untagged") -> Allocation:
        """Reserve ``nbytes``; raises :class:`OutOfDeviceMemory` on overflow."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self.used + nbytes > self.capacity:
            raise OutOfDeviceMemory(
                f"{self.device}: requested {nbytes} bytes with "
                f"{self.capacity - self.used} free of {self.capacity}"
            )
        alloc = Allocation(next(self._ids), self.device, nbytes, tag)
        self._live[alloc.alloc_id] = alloc
        self.used += nbytes
        self.peak = max(self.peak, self.used)
        return alloc

    def free(self, alloc: Allocation) -> None:
        """Release a live allocation.  Double-free raises ``KeyError``."""
        if alloc.alloc_id not in self._live:
            raise KeyError(f"allocation {alloc.alloc_id} is not live")
        del self._live[alloc.alloc_id]
        self.used -= alloc.nbytes

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used

    def usage_by_tag(self) -> dict[str, int]:
        """Live bytes per tag — the Table IV accounting."""
        out: dict[str, int] = {}
        for a in self._live.values():
            out[a.tag] = out.get(a.tag, 0) + a.nbytes
        return out
