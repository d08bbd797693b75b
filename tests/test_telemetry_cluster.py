"""Telemetry: utilization, bandwidth and tables."""

import numpy as np
import pytest

from repro.hardware.clock import SimClock, Timeline
from repro.telemetry.bandwidth import algo_bw, bus_bw, bw_from_gather_stats
from repro.telemetry.report import format_table
from repro.telemetry.utilization import mean_utilization, utilization_trace


def busy_idle_timeline():
    tl = Timeline()
    c = SimClock("gpu0", tl)
    for _ in range(5):
        c.advance(1.0, phase="train")  # busy 1s
        c.wait_until(c.now + 1.0)  # idle 1s
    return tl


def test_mean_utilization_fifty_percent():
    tl = busy_idle_timeline()
    assert mean_utilization(tl, "gpu0", t_end=10.0) == pytest.approx(50.0)


def test_utilization_trace_alternates():
    tl = busy_idle_timeline()
    t, u = utilization_trace(tl, "gpu0", window=1.0, t_end=10.0)
    assert u.shape[0] == 10
    assert np.allclose(u[::2], 100.0)
    assert np.allclose(u[1::2], 0.0)


def test_utilization_trace_partial_window_overlap():
    tl = Timeline()
    c = SimClock("gpu0", tl)
    c.advance(0.5, phase="k")
    t, u = utilization_trace(tl, "gpu0", window=1.0, t_end=1.0)
    assert u[0] == pytest.approx(50.0)


def test_trace_of_a_fully_busy_device_reads_100_in_every_window():
    """``window = t_end / k`` gives exactly ``k`` windows, each 100 % busy,
    however ``t_end / window`` rounds."""
    rng = np.random.default_rng(0)
    for t_end in rng.uniform(1e-4, 10.0, size=2000):
        tl = Timeline()
        SimClock("gpu0", tl).advance(t_end, phase="train")
        for k in (1, 7, 60):
            _, u = utilization_trace(tl, "gpu0", t_end / k, t_end=t_end)
            assert u.shape == (k,), (t_end, k)
            assert np.allclose(u, 100.0), (t_end, k, u.min())


def test_fully_busy_device_hits_100():
    tl = Timeline()
    c = SimClock("gpu0", tl)
    c.advance(10.0, phase="train")
    assert mean_utilization(tl, "gpu0", t_end=10.0) == pytest.approx(100.0)


def test_empty_timeline_zero_utilization():
    assert mean_utilization(Timeline(), "gpu0", t_end=1.0) == 0.0


def test_utilization_trace_integrates_to_mean():
    """Window-averaged trace == overall busy fraction (same integral)."""
    tl = Timeline()
    c = SimClock("gpu0", tl)
    rng = np.random.default_rng(0)
    for dt in rng.uniform(0.01, 0.7, size=40):
        c.advance(dt, phase="k", busy=bool(rng.integers(2)))
    t_end = 10.0  # a whole number of windows past every span
    window = 0.5
    _, u = utilization_trace(tl, "gpu0", window=window, t_end=t_end)
    assert np.mean(u) == pytest.approx(
        mean_utilization(tl, "gpu0", t_end=t_end)
    )


def test_utilization_trace_matches_reference_loop():
    """The vectorised accumulation equals the per-span/per-window overlap."""
    tl = Timeline()
    c = SimClock("gpu0", tl)
    rng = np.random.default_rng(3)
    for dt in rng.uniform(0.0, 1.3, size=60):
        c.advance(dt, phase="k", busy=bool(rng.integers(2)))
    window = 0.7
    centers, u = utilization_trace(tl, "gpu0", window=window)
    edges = np.arange(0.0, centers[-1] + window, window)
    expected = np.zeros(centers.shape[0])
    for s in tl.device_spans("gpu0"):
        if not s.busy:
            continue
        for w in range(expected.shape[0]):
            overlap = min(s.end, edges[w + 1]) - max(s.start, edges[w])
            expected[w] += max(0.0, overlap)
    assert np.allclose(u, 100.0 * expected / window)


def test_bandwidth_helpers():
    assert algo_bw(100.0, 2.0) == 50.0
    assert algo_bw(100.0, 0.0) == 0.0
    assert bus_bw(800.0, 1.0, 8) == pytest.approx(700.0)
    assert bus_bw(800.0, 1.0, 1) == 0.0
    out = bw_from_gather_stats(
        {"gather_time": 1.0, "gather_bytes": 80, "gather_remote_bytes": 70},
        8,
    )
    assert out["algo_bw"] == 80 and out["bus_bw"] == 70
    assert out["num_gpus"] == 8


def test_bw_from_gather_stats_uniform_fallback():
    """Without a remote-bytes ledger, BusBW falls back to (N-1)/N."""
    stats = {"gather_time": 1.0, "gather_bytes": 800}  # host-pinned style
    out = bw_from_gather_stats(stats, 8)
    assert out["algo_bw"] == pytest.approx(800.0)
    assert out["bus_bw"] == pytest.approx(800.0 * 7 / 8)
    # measured and uniform agree exactly when the pattern IS uniform
    uniform = bw_from_gather_stats(
        {"gather_time": 1.0, "gather_bytes": 800,
         "gather_remote_bytes": 700},
        8,
    )
    assert uniform["bus_bw"] == pytest.approx(out["bus_bw"])


def test_format_table_alignment():
    s = format_table(["a", "bb"], [[1, 2.5], ["xx", 0.001]], title="T")
    lines = s.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len({len(l) for l in lines[2:]}) <= 2  # aligned rows

