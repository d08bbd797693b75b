"""Host-pinned tensor: the zero-copy alternative to device WholeMemory.

The open-source WholeGraph exposes a *host-pinned* memory type next to the
device-resident one: the data lives in CPU DRAM registered for GPU access,
and kernels read it directly over PCIe.  It holds graphs too big for the
aggregate GPU memory at the price of the PCIe ceiling — 16 GB/s per GPU on
the shared DGX uplink versus 300 GB/s of NVLink (paper §III-B's 18.75x).

:class:`HostPinnedTensor` mirrors the :class:`~repro.dsm.whole_tensor.
WholeTensor` gather API so the graph store (and therefore the trainer) can
swap storage locations transparently; the storage-location ablation builds
on exactly that swap.
"""

from __future__ import annotations

import numpy as np

from repro.hardware import costmodel
from repro.hardware.machine import SimNode


class HostPinnedTensor:
    """A ``(num_rows, num_cols)`` array pinned in host DRAM."""

    def __init__(
        self,
        node: SimNode,
        num_rows: int,
        num_cols: int,
        dtype=np.float32,
        tag: str = "host_pinned",
    ):
        self.node = node
        self.num_rows = int(num_rows)
        self.num_cols = int(num_cols)
        self.dtype = np.dtype(dtype)
        self.row_bytes = self.num_cols * self.dtype.itemsize
        self._allocation = node.host_memory.allocate(
            self.num_rows * self.row_bytes, tag=tag
        )
        self._data = np.zeros((self.num_rows, self.num_cols), dtype=self.dtype)
        self.stats = {
            "gather_calls": 0,
            "gather_rows": 0,
            "gather_bytes": 0,
            "gather_time": 0.0,
        }

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_cols)

    @property
    def total_bytes(self) -> int:
        return self.num_rows * self.row_bytes

    def load_from_host(self, array: np.ndarray, phase: str = "load") -> float:
        """Populate from a host array (already in DRAM — no PCIe).

        The tensor keeps ``array`` itself as its pinned rows.
        """
        self._data = np.asarray(array, dtype=self.dtype).reshape(
            self.num_rows, self.num_cols
        )
        return 0.0

    def _check_rows(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.num_rows):
            raise IndexError(f"row index out of range [0, {self.num_rows})")
        return rows

    def gather(self, rows, rank: int, phase: str = "gather") -> np.ndarray:
        """Zero-copy gather over PCIe onto GPU ``rank``."""
        rows = self._check_rows(rows)
        out = self._data[rows]
        t = costmodel.host_pinned_gather_time(
            rows.size * self.row_bytes, self.row_bytes
        )
        self.node.gpu_clock[rank].advance(t, phase=phase)
        self.stats["gather_calls"] += 1
        self.stats["gather_rows"] += int(rows.size)
        self.stats["gather_bytes"] += int(rows.size * self.row_bytes)
        self.stats["gather_time"] += t
        return out

    def gather_no_cost(self, rows) -> np.ndarray:
        """Functional gather without clock charging."""
        return self._data[self._check_rows(rows)]

    def free(self) -> None:
        self.node.host_memory.free(self._allocation)
        self._data = None
