"""The :class:`SimNode` machine bundle.

A ``SimNode`` is one simulated machine: a :class:`~repro.hardware.spec.NodeSpec`,
one :class:`~repro.hardware.memory.DeviceMemory` and one
:class:`~repro.hardware.clock.SimClock` per GPU, a host clock, and a shared
:class:`~repro.hardware.clock.Timeline`.  Everything above this layer (the
DSM library, the graph store, the training pipelines) takes a ``SimNode``.
"""

from __future__ import annotations

from repro.hardware.clock import SimClock, Timeline
from repro.hardware.memory import DeviceMemory
from repro.hardware.spec import NodeSpec, dgx_a100

#: device name of the host CPU/DRAM (its clock and memory ledger)
HOST = "host"


def gpu_name(i: int) -> str:
    """Device name of GPU ``i`` (its clock and memory ledger)."""
    return f"gpu{i}"


class SimNode:
    """One simulated multi-GPU machine node."""

    def __init__(self, spec: NodeSpec | None = None, node_id: int = 0):
        self.spec = spec if spec is not None else dgx_a100()
        self.node_id = node_id
        self.timeline = Timeline()
        prefix = f"n{node_id}." if node_id else ""
        self.gpu_memory = [
            DeviceMemory(prefix + gpu_name(i), self.spec.gpu_memory_capacity)
            for i in range(self.spec.num_gpus)
        ]
        self.gpu_clock = [
            SimClock(prefix + gpu_name(i), self.timeline)
            for i in range(self.spec.num_gpus)
        ]
        self.host_clock = SimClock(prefix + HOST, self.timeline)
        #: host DRAM ledger (DGX-A100 ships 1-2 TB; we model 1 TB) — used by
        #: host-pinned WholeMemory placements
        self.host_memory = DeviceMemory(prefix + HOST, 1 << 40)
        #: set by :meth:`repro.faults.FaultInjector.install`; ``None`` on a
        #: healthy node (the common case — comm paths check before consulting)
        self.fault_injector = None
        #: lazily-built :class:`repro.sim.DeviceStreams` registry (see the
        #: ``streams`` property); reset together with the clocks
        self._streams = None

    @property
    def num_gpus(self) -> int:
        return self.spec.num_gpus

    @property
    def streams(self):
        """The node's stream registry: per-GPU compute/comm streams, the
        host stream, synthetic trace lanes, and the event loop that drives
        them (:class:`repro.sim.DeviceStreams`)."""
        from repro.sim import streams_for

        return streams_for(self)

    def reset_clocks(self) -> None:
        """Zero all clocks and clear the timeline (new experiment)."""
        for c in self.gpu_clock:
            c.reset()
        self.host_clock.reset()
        self.timeline.clear()
        self._streams = None

    def sync(self, phase: str = "wait") -> float:
        """Barrier: advance every device clock to the max; returns that time.

        Devices that arrive early record non-busy spans under ``phase`` —
        this is what shows up as idle troughs in the utilization trace.
        Collectives pass a dedicated phase (e.g. ``allreduce_wait``) so
        their entry stalls are distinguishable from generic waits.
        """
        t = max([c.now for c in self.gpu_clock] + [self.host_clock.now])
        for c in self.gpu_clock:
            c.wait_until(t, phase=phase)
        self.host_clock.wait_until(t, phase=phase)
        return t

    def total_memory_usage(self) -> int:
        return sum(m.used for m in self.gpu_memory)

    def memory_usage_by_tag(self) -> dict[str, int]:
        """Aggregate per-tag usage over all GPUs (Table IV numerator)."""
        out: dict[str, int] = {}
        for m in self.gpu_memory:
            for tag, n in m.usage_by_tag().items():
                out[tag] = out.get(tag, 0) + n
        return out
