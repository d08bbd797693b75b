"""Unit + property tests for the event-driven stream scheduler (repro.sim).

Covers the invariants the overlap engines lean on:

- same-stream ops serialize (never overlap), in launch order;
- an op never starts before any of its dependencies completes;
- dependency stalls are recorded as non-busy wait spans;
- the event loop is deterministic: the same launch program replays to the
  identical span sequence and event times;
- straggler ``scale_hooks`` dilate busy time *through* stream timestamps.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hardware import SimNode
from repro.hardware.clock import SimClock, Timeline
from repro.sim import (
    DeviceStreams,
    Event,
    EventLoop,
    Stream,
    join,
    streams_for,
)


def make_stream(device="gpu", loop=None, timeline=None):
    loop = loop or EventLoop()
    timeline = timeline if timeline is not None else Timeline()
    return Stream(SimClock(device, timeline), loop), loop, timeline


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------


class TestEvent:
    def test_external_event_is_done(self):
        ev = Event.at(3.5)
        assert ev.done
        assert ev.time == 3.5
        assert ev.wait() == 3.5

    def test_pending_event_raises_on_time(self):
        ev = EventLoop().user_event("x")
        assert not ev.done
        with pytest.raises(RuntimeError, match="pending"):
            _ = ev.time

    def test_user_event_fire_resolves(self):
        ev = EventLoop().user_event("x")
        ev.fire(2.0)
        assert ev.done and ev.time == 2.0
        with pytest.raises(RuntimeError, match="already fired"):
            ev.fire(3.0)

    def test_launch_returns_completed_event_when_deps_resolved(self):
        s, _, _ = make_stream()
        ev = s.launch(1.5, phase="compute")
        assert ev.done
        assert ev.start == 0.0
        assert ev.time == 1.5


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


class TestStream:
    def test_same_stream_ops_serialize(self):
        s, _, tl = make_stream()
        a = s.launch(1.0, phase="a")
        b = s.launch(2.0, phase="b")
        assert b.start == a.time
        assert b.time == 3.0
        spans = tl.device_spans("gpu")
        assert [(sp.start, sp.end) for sp in spans] == [(0.0, 1.0), (1.0, 3.0)]

    def test_cross_stream_dep_records_wait_span(self):
        loop = EventLoop()
        tl = Timeline()
        s1, _, _ = make_stream("gpu0", loop, tl)
        s2, _, _ = make_stream("gpu1", loop, tl)
        a = s1.launch(2.0, phase="produce")
        b = s2.launch(1.0, deps=[a], phase="consume", wait_phase="dep_wait")
        assert b.start == a.time
        waits = [sp for sp in tl.device_spans("gpu1") if not sp.busy]
        assert len(waits) == 1
        assert waits[0].phase == "dep_wait"
        assert (waits[0].start, waits[0].end) == (0.0, 2.0)

    def test_no_wait_span_when_dep_already_past(self):
        loop = EventLoop()
        tl = Timeline()
        s1, _, _ = make_stream("gpu0", loop, tl)
        s2, _, _ = make_stream("gpu1", loop, tl)
        a = s1.launch(1.0, phase="x")
        s2.launch(5.0, phase="y")
        b = s2.launch(1.0, deps=[a], phase="z")
        assert b.start == 5.0  # dep at t=1 is already in the past
        assert all(sp.busy for sp in tl.device_spans("gpu1"))

    def test_callable_op_charges_its_own_clock(self):
        s, _, _ = make_stream()
        ev = s.launch(
            lambda: s.clock.advance(0.5, phase="inner") and 42 or 42,
            phase="outer",
        )
        assert ev.value == 42
        assert ev.time == 0.5

    def test_zero_duration_op_records_no_span(self):
        s, _, tl = make_stream()
        ev = s.launch(0.0, phase="noop")
        assert ev.done and ev.time == 0.0
        assert tl.spans == []

    def test_parked_op_waits_for_user_event(self):
        s, loop, _ = make_stream()
        gate = loop.user_event("gate")
        ev = s.launch(1.0, deps=[gate], phase="gated")
        assert not ev.done
        gate.fire(4.0)
        loop.run_until_idle()
        assert ev.start == 4.0 and ev.time == 5.0

    def test_event_wait_drains_the_loop(self):
        s, loop, _ = make_stream()
        gate = loop.user_event("gate")
        ev = s.launch(1.0, deps=[gate], phase="gated")
        gate.fire(2.0)
        assert ev.wait() == 3.0

    def test_stream_is_fifo_past_a_parked_op(self):
        """An op launched after a parked op on the same stream must not
        jump the queue (CUDA-stream FIFO semantics)."""
        s, loop, _ = make_stream()
        gate = loop.user_event("gate")
        a = s.launch(1.0, deps=[gate], phase="a")
        b = s.launch(1.0, phase="b")
        assert not b.done  # parked behind a, despite having no explicit deps
        gate.fire(2.0)
        loop.run_until_idle()
        assert a.start == 2.0 and a.time == 3.0
        assert b.start == 3.0 and b.time == 4.0

    def test_deadlock_is_detected(self):
        s, loop, _ = make_stream()
        gate = loop.user_event("never")
        s.launch(1.0, deps=[gate], phase="stuck")
        with pytest.raises(RuntimeError, match="deadlock"):
            loop.run_until_idle()

    def test_scale_hook_dilates_through_stream_timestamps(self):
        """A straggler hook on the clock slows stream ops and every
        dependent op observes the dilated completion time."""
        loop = EventLoop()
        tl = Timeline()
        slow, _, _ = make_stream("slow", loop, tl)
        fast, _, _ = make_stream("fast", loop, tl)
        slow.clock.scale_hook = lambda dt, phase, now: dt * 3.0
        a = slow.launch(1.0, phase="compute")
        assert a.time == 3.0
        b = fast.launch(0.5, deps=[a], phase="consume")
        assert b.start == 3.0 and b.time == 3.5


# ---------------------------------------------------------------------------
# node registry / join
# ---------------------------------------------------------------------------


class TestDeviceStreams:
    def test_streams_for_caches_per_node(self):
        node = SimNode()
        assert streams_for(node) is streams_for(node)
        assert node.streams is node.streams

    def test_reset_clocks_drops_the_registry(self):
        node = SimNode()
        before = node.streams
        node.reset_clocks()
        assert node.streams is not before

    def test_compute_streams_bind_gpu_clocks(self):
        node = SimNode()
        ds = node.streams
        for r in range(node.num_gpus):
            assert ds.compute(r).clock is node.gpu_clock[r]
        assert ds.host().clock is node.host_clock

    def test_lane_renders_as_device_slash_name(self):
        node = SimNode()
        lane = node.streams.lane(0, "nccl")
        assert lane.device == node.gpu_clock[0].device + "/nccl"
        assert node.streams.comm(0) is lane
        lane.record(1.0, 2.0, phase="allreduce_bucket")
        assert node.timeline.phase_total("allreduce_bucket") == 1.0

    def test_barrier_joins_all_ranks(self):
        node = SimNode()
        ds = node.streams
        ds.compute(0).launch(2.0, phase="x")
        ds.compute(1).launch(0.5, phase="x")
        ev = ds.barrier(phase="sync")
        assert ev.time == 2.0
        assert all(c.now == 2.0 for c in node.gpu_clock)

    def test_join_across_nodes(self):
        n0, n1 = SimNode(node_id=0), SimNode(node_id=1)
        n0.streams.compute(0).launch(1.0, phase="x")
        n1.streams.compute(0).launch(3.0, phase="x")
        ev = join(
            [n.streams.compute(r) for n in (n0, n1) for r in range(2)],
            phase="cluster_sync",
        )
        assert ev.time == 3.0
        assert n0.gpu_clock[0].now == 3.0
        assert n1.gpu_clock[1].now == 3.0


# ---------------------------------------------------------------------------
# property tests: determinism + ordering invariants
# ---------------------------------------------------------------------------


@st.composite
def stream_programs(draw):
    """A random launch program over K streams with back-references as deps
    and a sprinkle of user-event gates."""
    num_streams = draw(st.integers(1, 4))
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_streams - 1),           # stream
                st.floats(0.0, 10.0, allow_nan=False),     # duration
                st.lists(st.integers(0, 40), max_size=3),  # dep back-refs
                st.booleans(),                             # gate on user event
            ),
            min_size=1,
            max_size=24,
        )
    )
    gate_time = draw(st.floats(0.0, 20.0, allow_nan=False))
    return num_streams, ops, gate_time


def _run_program(program):
    """Execute a stream program; returns (span tuples, event times)."""
    num_streams, ops, gate_time = program
    loop = EventLoop()
    tl = Timeline()
    streams = [
        Stream(SimClock(f"d{i}", tl), loop) for i in range(num_streams)
    ]
    gate = loop.user_event("gate")
    events: list[Event] = []
    gated = []
    for stream_idx, duration, dep_refs, use_gate in ops:
        deps = [events[r % len(events)] for r in dep_refs if events]
        if use_gate:
            deps.append(gate)
        ev = streams[stream_idx].launch(duration, deps=deps, phase="op")
        events.append(ev)
        if use_gate or any(not d.done for d in deps):
            gated.append(ev)
    gate.fire(gate_time)
    loop.run_until_idle()
    spans = [
        (sp.device, sp.start, sp.end, sp.phase, sp.busy) for sp in tl.spans
    ]
    return spans, [ev.time for ev in events], events, streams


@given(stream_programs())
def test_event_loop_is_deterministic(program):
    """Replaying the same launch program gives identical spans and times."""
    spans1, times1, _, _ = _run_program(program)
    spans2, times2, _, _ = _run_program(program)
    assert spans1 == spans2
    assert times1 == times2


@given(stream_programs())
def test_stream_ordering_invariants(program):
    """No same-stream overlap; ops start at/after every dependency; spans
    on one device are monotone."""
    _, _, events, streams = _run_program(program)
    for ev in events:
        assert ev.done
        assert ev.start <= ev.time
    # per-device span monotonicity (same-stream ops never overlap)
    for s in streams:
        spans = s.clock.timeline.device_spans(s.device)
        for a, b in zip(spans, spans[1:]):
            assert a.end <= b.start


@given(stream_programs())
def test_dependencies_are_respected(program):
    num_streams, ops, gate_time = program
    loop = EventLoop()
    tl = Timeline()
    streams = [
        Stream(SimClock(f"d{i}", tl), loop) for i in range(num_streams)
    ]
    gate = loop.user_event("gate")
    events: list[Event] = []
    deps_of: list[list[Event]] = []
    for stream_idx, duration, dep_refs, use_gate in ops:
        deps = [events[r % len(events)] for r in dep_refs if events]
        if use_gate:
            deps.append(gate)
        ev = streams[stream_idx].launch(duration, deps=deps, phase="op")
        events.append(ev)
        deps_of.append(deps)
    gate.fire(gate_time)
    loop.run_until_idle()
    for ev, deps in zip(events, deps_of):
        for d in deps:
            assert ev.start >= d.time
