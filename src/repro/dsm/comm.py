"""NCCL-style communicator over the *distributed-memory* view of the GPUs.

WholeGraph's point is that GPUs can be used as a distributed shared memory
instead of a distributed memory system.  This module implements the
distributed-memory side of that comparison: explicit ``send``/``recv``,
``allgather``, ``alltoallv`` and ``allreduce`` with software-managed
buffers — the machinery the NCCL-based gather of Fig. 4 (left) needs.

Collectives are synchronising: all ranks enter, each is charged its own
traffic time over its NVLink trunk, then all ranks wait for the slowest.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.hardware import costmodel
from repro.hardware.machine import SimNode


class Communicator:
    """Collective communication over the GPUs of one node."""

    def __init__(self, node: SimNode):
        self.node = node
        self.num_ranks = node.num_gpus
        # NCCL sustains ~80% of the NVLink line rate on alltoall traffic
        self.bandwidth = config.NVLINK_UNIDIR_BW * config.NCCL_BW_EFFICIENCY
        self.latency = config.P2P_BASE_LATENCY

    def _effective_bandwidth(self, t: float) -> float:
        """Bandwidth at simulated time ``t``, after any injected fabric
        degradation (:mod:`repro.faults`).  Healthy nodes skip the lookup."""
        injector = self.node.fault_injector
        if injector is None:
            return self.bandwidth
        return self.bandwidth / injector.link_slowdown(t, self.node.node_id)

    # -- collectives ------------------------------------------------------------

    def _enter(self, phase: str = "wait") -> None:
        self.node.sync(phase=phase)

    def allgather(self, per_rank_objects: list, phase: str = "comm",
                  nbytes_each: float = 64.0) -> list[list]:
        """Every rank receives every rank's object.

        Used for small metadata (IPC handles, counts); ``nbytes_each`` sets
        the per-object wire size for costing.
        """
        self._check_ranks(per_rank_objects)
        self._enter()
        bw = self._effective_bandwidth(self.node.gpu_clock[0].now)
        t = (
            (self.num_ranks - 1) * self.latency
            + (self.num_ranks - 1) * nbytes_each / bw
        )
        for clock in self.node.gpu_clock:
            clock.advance(
                t, phase=phase, category="comm",
                args={"nbytes": int((self.num_ranks - 1) * nbytes_each)},
            )
        return [list(per_rank_objects) for _ in range(self.num_ranks)]

    def alltoallv(
        self, send: list[list[np.ndarray]], phase: str = "comm"
    ) -> list[list[np.ndarray]]:
        """Variable all-to-all: ``send[src][dst]`` -> ``recv[dst][src]``.

        Each rank's time is its max of outgoing and incoming bytes over its
        (full-duplex) NVLink trunk, plus per-peer message latency.
        """
        self._check_ranks(send)
        for row in send:
            self._check_ranks(row)
        self._enter()
        out_bytes = [sum(b.nbytes for b in row) for row in send]
        in_bytes = [
            sum(send[src][dst].nbytes for src in range(self.num_ranks))
            for dst in range(self.num_ranks)
        ]
        recv = [
            [np.asarray(send[src][dst]).copy() for src in range(self.num_ranks)]
            for dst in range(self.num_ranks)
        ]
        bw = self._effective_bandwidth(self.node.gpu_clock[0].now)
        for rank in range(self.num_ranks):
            traffic = max(out_bytes[rank], in_bytes[rank])
            t = (self.num_ranks - 1) * self.latency + traffic / bw
            self.node.gpu_clock[rank].advance(
                t, phase=phase, category="comm",
                args={"nbytes": int(traffic),
                      "out_bytes": int(out_bytes[rank]),
                      "in_bytes": int(in_bytes[rank])},
            )
        self.node.sync()
        return recv

    def ring_time(self, nbytes: float, at: float | None = None) -> float:
        """Chunked-ring all-reduce duration for one payload of ``nbytes``.

        ``at`` prices the ring at a given simulated time (injected fabric
        degradation is time-windowed); default is spec bandwidth.
        """
        bw = self.bandwidth if at is None else self._effective_bandwidth(at)
        return costmodel.chunked_ring_allreduce_time(
            nbytes, self.num_ranks, bw, self.latency
        )

    def allreduce(
        self, per_rank_arrays: list[np.ndarray], phase: str = "allreduce"
    ) -> list[np.ndarray]:
        """Ring all-reduce (sum); every rank receives the full sum.

        Proper collective barrier semantics: skewed ranks first align to the
        max clock (recorded as the distinct ``allreduce_wait`` stall phase),
        then all pay the chunked-ring transfer time together.
        """
        self._check_ranks(per_rank_arrays)
        self._enter(phase="allreduce_wait")
        total = per_rank_arrays[0].astype(np.float64)
        for a in per_rank_arrays[1:]:
            total = total + a
        result = total.astype(per_rank_arrays[0].dtype)
        t = self.ring_time(result.nbytes, at=self.node.gpu_clock[0].now)
        for clock in self.node.gpu_clock:
            clock.advance(t, phase=phase, category="comm",
                          args={"nbytes": int(result.nbytes)})
        return [result.copy() for _ in range(self.num_ranks)]

    def broadcast(self, data: np.ndarray, root: int,
                  phase: str = "comm") -> list[np.ndarray]:
        """Broadcast from ``root`` to all ranks (tree cost)."""
        data = np.asarray(data)
        self._enter()
        steps = max(1, int(np.ceil(np.log2(max(self.num_ranks, 2)))))
        t = steps * costmodel.stream_transfer_time(
            data.nbytes,
            self._effective_bandwidth(self.node.gpu_clock[0].now),
            self.latency,
        )
        for clock in self.node.gpu_clock:
            clock.advance(
                t, phase=phase, category="comm",
                args={"nbytes": int(data.nbytes), "root": root},
            )
        return [data.copy() for _ in range(self.num_ranks)]

    def _check_ranks(self, seq) -> None:
        if len(seq) != self.num_ranks:
            raise ValueError(
                f"expected one entry per rank ({self.num_ranks}), got {len(seq)}"
            )
