"""CUDA Unified Memory model — the slower alternative of paper Table I.

UM (``cudaMallocManaged``) implements cross-GPU access in software: a remote
access faults, the CPU migrates the 64 KB page to the accessing GPU and
rewrites its page table, then the access retries.  The paper's pointer-chase
measurement shows 20.8–35.8 µs per dependent access versus 1.35–1.56 µs for
GPUDirect P2P — the 15–25× gap that motivates building WholeMemory on P2P.

:class:`UnifiedMemorySpace` models the page table functionally (page
ownership moves on fault) and charges fault/hit latencies from the cost
model, so both the latency *numbers* and the migration *mechanism* are
reproduced.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.hardware import costmodel
from repro.hardware.machine import SimNode


class UnifiedMemorySpace:
    """A managed allocation with page-granular migration between GPUs."""

    def __init__(
        self,
        node: SimNode,
        total_bytes: int,
        page_bytes: int = config.UM_PAGE_BYTES,
        tag: str = "unified",
    ):
        self.node = node
        self.total_bytes = int(total_bytes)
        self.page_bytes = int(page_bytes)
        self.num_pages = -(-self.total_bytes // self.page_bytes)
        # Initial placement mirrors the paper's experiment: each GPU
        # randomly initialises one equal-sized slice, so pages start evenly
        # distributed across GPUs.
        pages_per_rank = -(-self.num_pages // node.num_gpus)
        self.page_owner = np.minimum(
            np.arange(self.num_pages, dtype=np.int64) // pages_per_rank,
            node.num_gpus - 1,
        )
        self.fault_count = 0
        self.hit_count = 0

    def page_of(self, byte_offsets) -> np.ndarray:
        return np.asarray(byte_offsets, dtype=np.int64) // self.page_bytes

    def access(self, byte_offsets, rank: int, phase: str = "um_access") -> float:
        """Perform *dependent* accesses from ``rank``; returns time charged.

        Each access to a page not resident on ``rank`` triggers a fault:
        the CPU migrates the page (ownership flips to ``rank``) and the
        access pays the UM service latency.  Resident pages pay only the
        local HBM latency.  Accesses are dependent (a pointer chase), so
        latencies sum.
        """
        pages = self.page_of(byte_offsets)
        if pages.size and pages.max() >= self.num_pages:
            raise IndexError("access beyond the managed allocation")
        t = 0.0
        fault_lat = costmodel.um_access_latency(self.total_bytes)
        hit_lat = costmodel.local_access_latency()
        # The chase is sequential; page ownership changes as we go, so a
        # revisited page within the chain is a hit.
        for p in pages:
            if self.page_owner[p] != rank:
                self.page_owner[p] = rank
                self.fault_count += 1
                t += fault_lat
            else:
                self.hit_count += 1
                t += hit_lat
        self.node.gpu_clock[rank].advance(t, phase=phase)
        return t
