"""Event-driven multi-stream scheduler over the simulated clocks.

Real WholeGraph overlap comes from CUDA streams: sampling, DSM gather,
compute and NCCL traffic run concurrently on separate hardware queues, with
events expressing cross-stream dependencies.  This module gives the
simulation the same vocabulary:

- a :class:`Stream` is a serial work queue bound to one
  :class:`~repro.hardware.clock.SimClock` (or a synthetic trace lane);
- ``stream.launch(op, deps=[...])`` enqueues work and returns an
  :class:`Event` that completes when the op retires;
- a single deterministic :class:`EventLoop` per :class:`DeviceStreams`
  registry advances the clocks — waits (dependency stalls) and busy time
  are charged by the loop, not by ad-hoc ``clock.advance`` calls scattered
  through the engines.

Execution is *eager where possible*: an op whose dependencies are already
resolved runs at launch time, so a program that launches work in dependency
order (every engine in this repo does) observes exactly the span sequence
the legacy hand-charged code produced — that is the bit-identity contract
of ``tests/golden/``.  Ops launched before their dependencies resolve are
parked and drained in launch (``seq``) order, which keeps the loop
deterministic regardless of how callers interleave streams.

Straggler dilation and other fault ``scale_hooks`` live on the underlying
:class:`SimClock`, so they flow through stream timestamps unchanged: a
dilated op retires later, and every dependent op inherits the delay through
its event time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.clock import SimClock, Span, Timeline

__all__ = [
    "Event",
    "EventLoop",
    "OpRecord",
    "Stream",
    "DeviceStreams",
    "streams_for",
]

_PENDING = object()


@dataclass(frozen=True, slots=True)
class OpRecord:
    """Causal provenance of one executed op (or barrier).

    The loop appends one record per retired op — pure bookkeeping, written
    *after* all clock charging, so recording provenance cannot perturb a
    single timestamp (the ``tests/golden/`` byte-identity contract).  The
    analyzer (:mod:`repro.telemetry.analysis`) joins these records back to
    timeline spans by ``(device, start, end)`` to resolve *why* a device
    stalled: ``dep_seqs`` name the upstream events, and the one whose
    completion time equals the stall's end is the binding dependency.
    """

    #: event seq of the op (matches ``Event.seq``); joins are loop seqs too
    seq: int
    label: str
    #: clock device the op charged (lane streams use their ``.../name`` id)
    device: str
    stream: str
    phase: str
    #: execution interval after any dependency stall
    start: float
    end: float
    #: seqs of the events this op waited on (explicit deps + stream FIFO);
    #: ``-1`` entries are external :meth:`Event.at` deadlines
    dep_seqs: tuple[int, ...] = ()
    #: dependency stall charged just before ``start`` (0.0 if none)
    stall: float = 0.0
    #: "op" for stream launches, "join" for barriers
    kind: str = "op"
    #: devices synchronized by a join (empty for plain ops)
    members: tuple[str, ...] = ()


class Event:
    """Completion marker of one launched op (or an external timestamp).

    ``time`` is the simulated completion time, available once the op has
    retired; ``start`` is when the op began executing (after dependency
    stalls); ``value`` is whatever a callable op returned.
    """

    __slots__ = ("seq", "label", "_loop", "_time", "start", "value")

    def __init__(self, seq: int, label: str = "", loop=None):
        self.seq = seq
        self.label = label
        self._loop = loop
        self._time = _PENDING
        self.start: float | None = None
        self.value = None

    @classmethod
    def at(cls, t: float, label: str = "external") -> "Event":
        """An already-completed external event at simulated time ``t``
        (e.g. a micro-batch close deadline, a request arrival)."""
        ev = cls(seq=-1, label=label)
        ev._time = float(t)
        ev.start = float(t)
        return ev

    def fire(self, t: float) -> None:
        """Resolve a user event (see :meth:`EventLoop.user_event`) at
        simulated time ``t``; launched ops waiting on it become runnable."""
        if self.done:
            raise RuntimeError(f"event {self.label!r} already fired")
        self._time = float(t)
        self.start = float(t)

    @property
    def done(self) -> bool:
        return self._time is not _PENDING

    @property
    def time(self) -> float:
        """Completion time; raises if the op has not retired yet."""
        if self._time is _PENDING:
            raise RuntimeError(f"event {self.label!r} is still pending")
        return self._time

    def wait(self) -> float:
        """Drain the owning loop until this event resolves; returns
        the completion time (the ``event.wait()`` of the issue spec)."""
        if self._time is _PENDING and self._loop is not None:
            self._loop.run_until(self)
        return self.time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"t={self._time}" if self.done else "pending"
        return f"Event({self.label!r}, seq={self.seq}, {state})"


class _Op:
    """One unit of stream work (internal to the loop)."""

    __slots__ = (
        "stream", "work", "deps", "phase", "busy", "category", "args",
        "wait_phase", "wait_category", "event",
    )

    def __init__(self, stream, work, deps, phase, busy, category, args,
                 wait_phase, wait_category, event):
        self.stream = stream
        self.work = work
        self.deps = deps
        self.phase = phase
        self.busy = busy
        self.category = category
        self.args = args
        self.wait_phase = wait_phase
        self.wait_category = wait_category
        self.event = event


class EventLoop:
    """The deterministic scheduler: executes launched ops, advancing clocks.

    Ready ops run eagerly at launch; parked ops (unresolved deps) drain in
    ``seq`` order via :meth:`run_until_idle`.  Two loops over the same
    launches always produce the same execution order — property-tested in
    ``tests/test_sim_streams.py``.
    """

    def __init__(self) -> None:
        self._seq = 0
        self._parked: list[_Op] = []
        #: append-only causal log of every retired op (see :class:`OpRecord`)
        self.provenance: list[OpRecord] = []

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def user_event(self, label: str = "user") -> Event:
        """A pending event the caller resolves with :meth:`Event.fire` —
        how external completions (I/O, another node's progress) gate
        launched work.  Ops launched behind it park until it fires and are
        drained in launch order by :meth:`run_until_idle`."""
        return Event(self.next_seq(), label, self)

    # -- submission -------------------------------------------------------------

    def submit(self, op: _Op) -> Event:
        if self._ready(op):
            self._execute(op)
        else:
            self._parked.append(op)
        return op.event

    @staticmethod
    def _ready(op: _Op) -> bool:
        return all(d.done for d in op.deps)

    # -- execution --------------------------------------------------------------

    def _execute(self, op: _Op) -> None:
        clock = op.stream.clock
        floor = op.stream._cursor
        for d in op.deps:
            t = d.time
            if t > floor:
                floor = t
        stall = floor - clock.now if floor > clock.now else 0.0
        if floor > clock.now:
            clock.wait_until(
                floor, phase=op.wait_phase, category=op.wait_category,
                args=None,
            )
        op.event.start = clock.now
        if callable(op.work):
            op.event.value = op.work()
        else:
            clock.advance(
                op.work, phase=op.phase, busy=op.busy,
                category=op.category, args=op.args,
            )
        op.stream._cursor = clock.now
        op.event._time = clock.now
        # provenance is recorded after every clock mutation: it can observe
        # the schedule but never influence it
        self.provenance.append(OpRecord(
            seq=op.event.seq,
            label=op.event.label,
            device=clock.device,
            stream=op.stream.name,
            phase=op.event.label if callable(op.work) else op.phase,
            start=op.event.start,
            end=clock.now,
            dep_seqs=tuple(d.seq for d in op.deps),
            stall=stall,
        ))

    def run_until_idle(self) -> None:
        """Drain every parked op whose dependencies can resolve.

        Each pass executes the lowest-``seq`` ready op; a full pass with no
        progress while ops remain parked is a dependency deadlock.
        """
        while self._parked:
            ready = [op for op in self._parked if self._ready(op)]
            if not ready:
                labels = [op.event.label for op in self._parked]
                raise RuntimeError(
                    f"event loop deadlock: {len(self._parked)} ops parked "
                    f"with unresolved dependencies ({labels[:5]}...)"
                )
            nxt = min(ready, key=lambda op: op.event.seq)
            self._parked.remove(nxt)
            self._execute(nxt)

    def run_until(self, event: Event) -> None:
        """Drain parked ops (in ``seq`` order) until ``event`` resolves."""
        while not event.done:
            ready = [op for op in self._parked if self._ready(op)]
            if not ready:
                raise RuntimeError(
                    f"event {event.label!r} cannot resolve: no runnable op"
                )
            nxt = min(ready, key=lambda op: op.event.seq)
            self._parked.remove(nxt)
            self._execute(nxt)

    @property
    def idle(self) -> bool:
        return not self._parked


class Stream:
    """A serial work queue on one device (or synthetic lane) clock.

    ``name`` distinguishes multiple streams of one device; lane streams
    (``lane=True``) render as their own ``<device>/<name>`` row in the
    Chrome trace and carry a private clock so they never stall the device's
    compute queue.
    """

    def __init__(self, clock: SimClock, loop: EventLoop, name: str = "",
                 lane: bool = False):
        self.clock = clock
        self.loop = loop
        self.name = name
        self.lane = lane
        #: completion time of the last retired op on this stream — the
        #: serialization floor for the next op (same-stream ops never overlap)
        self._cursor = -float("inf")
        #: event of the most recently launched op — every launch depends on
        #: it implicitly, so a stream is FIFO even when an op parks
        self._last_event: Event | None = None

    @property
    def device(self) -> str:
        return self.clock.device

    def launch(
        self,
        work,
        deps: tuple[Event, ...] | list[Event] = (),
        *,
        phase: str = "other",
        busy: bool = True,
        category: str = "",
        args: dict | None = None,
        wait_phase: str = "wait",
        wait_category: str = "idle",
        label: str = "",
    ) -> Event:
        """Enqueue ``work`` behind ``deps``; returns its completion event.

        ``work`` is either a simulated duration in seconds (charged under
        ``phase``/``category``/``args``) or a zero-argument callable that
        charges the stream's clock itself (composite ops — e.g. a serve
        batch that samples, gathers and infers).  The op starts at
        ``max(clock.now, cursor, *dep times)``; any dependency stall is
        recorded as a non-busy ``wait_phase`` span.
        """
        event = Event(self.loop.next_seq(), label or phase, self.loop)
        deps = tuple(deps)
        if self._last_event is not None and not self._last_event.done:
            deps = deps + (self._last_event,)  # stream FIFO order
        op = _Op(
            self, work, deps, phase, busy, category, args,
            wait_phase, wait_category, event,
        )
        self._last_event = event
        return self.loop.submit(op)

    def record(
        self,
        start: float,
        end: float,
        *,
        phase: str,
        busy: bool = True,
        category: str = "",
        args: dict | None = None,
    ) -> None:
        """Stamp a retroactive span onto this stream's trace lane.

        Used when a schedule was *planned* in relative time and is
        committed to the timeline after the fact — e.g. the per-bucket
        all-reduce schedule whose hidden portion ran concurrently with
        backward compute.  Zero-duration
        spans are kept: a fully-hidden bucket clips to ``(0, 0)`` but still
        belongs on the lane (its args mark it hidden).
        """
        if end < start:
            raise ValueError(f"span ends before it starts: {start}..{end}")
        if self.clock.timeline is None:
            return
        self.clock.timeline.record(Span(
            self.device, start, end, phase, busy,
            category=category, args=args,
        ))


class DeviceStreams:
    """Per-node stream registry: compute/comm/host streams plus trace lanes.

    One :class:`EventLoop` drives all streams of the node, so cross-stream
    dependencies resolve deterministically.  Lanes share the node timeline
    but own private clocks — work launched on ``comm(rank)`` or
    ``lane(rank, name)`` renders as a ``<device>/<name>`` row without
    stalling the device's compute queue.
    """

    def __init__(self, node) -> None:
        self.node = node
        self.loop = EventLoop()
        self._compute = [
            Stream(clock, self.loop, name="compute")
            for clock in node.gpu_clock
        ]
        self._host = Stream(node.host_clock, self.loop, name="host")
        self._lanes: dict[tuple[int, str], Stream] = {}

    def compute(self, rank: int) -> Stream:
        """The default (compute) stream of GPU ``rank``."""
        return self._compute[rank]

    def host(self) -> Stream:
        """The host-CPU stream."""
        return self._host

    def comm(self, rank: int) -> Stream:
        """The NCCL comm stream of GPU ``rank`` (an ``.../nccl`` lane)."""
        return self.lane(rank, "nccl")

    def lane(self, rank: int, name: str) -> Stream:
        """A named synthetic lane of GPU ``rank`` (``<device>/<name>``)."""
        key = (rank, name)
        stream = self._lanes.get(key)
        if stream is None:
            device = self.node.gpu_clock[rank].device + "/" + name
            clock = SimClock(device, self.node.timeline)
            stream = Stream(clock, self.loop, name=name, lane=True)
            self._lanes[key] = stream
        return stream

    def barrier(
        self, ranks=None, *, phase: str = "wait", category: str = "idle",
    ) -> Event:
        """Join the compute streams of ``ranks`` (default: all GPUs).

        Every clock idles forward to the max — the collective's entry
        barrier, recorded per device as a non-busy ``phase`` span — and the
        returned event completes at that join time, ready to anchor
        dependent launches on any stream.
        """
        streams = (
            self._compute if ranks is None
            else [self._compute[r] for r in ranks]
        )
        return join(streams, phase=phase, category=category, loop=self.loop)


def join(streams, *, phase: str = "wait", category: str = "idle",
         loop: EventLoop | None = None) -> Event:
    """Barrier across arbitrary streams (possibly of different nodes).

    Advances every stream's clock to the max ``now`` (early arrivals record
    non-busy ``phase`` spans, in stream order) and returns a completed
    event at the join time — the cross-node entry barrier the hierarchical
    grad-sync rings use.
    """
    streams = list(streams)
    if not streams:
        raise ValueError("cannot join zero streams")
    if loop is None:
        loop = streams[0].loop
    # cross-node joins span several loops; drain each once, in stream order
    for lp in dict.fromkeys([s.loop for s in streams] + [loop]):
        lp.run_until_idle()
    sync_point = max(s.clock.now for s in streams)
    for s in streams:
        s.clock.wait_until(sync_point, phase=phase, category=category)
        s._cursor = s.clock.now
    ev = Event(loop.next_seq(), label=phase, loop=loop)
    ev.start = sync_point
    ev._time = sync_point
    loop.provenance.append(OpRecord(
        seq=ev.seq,
        label=phase,
        device="",
        stream="join",
        phase=phase,
        start=sync_point,
        end=sync_point,
        kind="join",
        members=tuple(s.device for s in streams),
    ))
    return ev


def streams_for(node) -> DeviceStreams:
    """The :class:`DeviceStreams` registry of ``node`` (cached on the node)."""
    streams = getattr(node, "_streams", None)
    if streams is None or streams.node is not node:
        streams = DeviceStreams(node)
        node._streams = streams
    return streams
