"""The cost-model anchor points (paper numbers) and the node barrier."""

import pytest

from repro.config import GB, US
from repro.hardware import SimNode, costmodel


def test_table1_p2p_latency_anchors():
    assert costmodel.p2p_access_latency(8 * GB) == pytest.approx(1.35 * US)
    lat_128 = costmodel.p2p_access_latency(128 * GB)
    assert 1.5 * US < lat_128 < 1.65 * US  # paper: 1.56 us


def test_table1_um_latency_anchors():
    assert costmodel.um_access_latency(8 * GB) == pytest.approx(20.8 * US)
    lat_128 = costmodel.um_access_latency(128 * GB)
    assert 33 * US < lat_128 < 38 * US  # paper: 35.8 us


def test_um_p2p_gap_is_order_of_magnitude():
    for size in (8, 16, 32, 64, 128):
        ratio = costmodel.um_access_latency(size * GB) / (
            costmodel.p2p_access_latency(size * GB)
        )
        assert ratio > 10


def test_fig8_bandwidth_curve_anchors():
    # linear region below 64 B
    assert costmodel.random_read_bus_bw(32) == pytest.approx(
        costmodel.random_read_bus_bw(64) / 2
    )
    # 181 GB/s at 64 B, saturation at 230 GB/s
    assert costmodel.random_read_bus_bw(64) == pytest.approx(181 * GB)
    assert costmodel.random_read_bus_bw(128) == pytest.approx(230 * GB)
    assert costmodel.random_read_bus_bw(4096) == pytest.approx(230 * GB)


def test_gather_time_monotone_in_bytes():
    t1 = costmodel.gather_time(1 * GB, 512, 8)
    t2 = costmodel.gather_time(2 * GB, 512, 8)
    assert t2 > t1


def test_gather_time_local_fraction_speeds_up():
    remote = costmodel.gather_time(1 * GB, 512, 8, remote_fraction=1.0)
    mostly_local = costmodel.gather_time(1 * GB, 512, 8, remote_fraction=0.1)
    assert mostly_local < remote


def test_pointer_chase_mechanism_dispatch():
    n, fp = 1000, 8 * GB
    assert costmodel.pointer_chase_time(n, fp, "um") > (
        costmodel.pointer_chase_time(n, fp, "p2p")
    ) > costmodel.pointer_chase_time(n, fp, "local")
    with pytest.raises(ValueError):
        costmodel.pointer_chase_time(n, fp, "warp")


def test_dsm_setup_cost_in_paper_range():
    # paper §III-B: "tens to one or two hundred of milliseconds"
    assert 5e-3 < costmodel.dsm_setup_time(1 * GB) < 0.25
    assert costmodel.dsm_setup_time(100 * GB) < 0.25


def test_allreduce_time_scales_with_payload():
    t_small = costmodel.allreduce_time(1 * 1024**2, 8, 300 * GB, 1e-6)
    t_big = costmodel.allreduce_time(64 * 1024**2, 8, 300 * GB, 1e-6)
    assert t_big > t_small
    assert costmodel.allreduce_time(100, 1, 300 * GB, 1e-6) == 0.0


def test_simnode_sync_creates_wait_spans():
    node = SimNode()
    node.gpu_clock[0].advance(1.0, phase="train")
    node.sync()
    assert all(c.now == pytest.approx(1.0) for c in node.gpu_clock)
    waits = [s for s in node.timeline.spans if not s.busy]
    assert len(waits) >= 7  # the other GPUs + host waited
