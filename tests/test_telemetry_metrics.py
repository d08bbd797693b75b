"""Metrics registry, and its consistency with the cost-model ground truth."""

import numpy as np
import pytest

from repro.graph import MultiGpuGraphStore
from repro.hardware import SimNode
from repro.telemetry.metrics import (
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.train import WholeGraphTrainer


# the fresh-registry ``registry`` fixture comes from conftest.py

# -- registry primitives ------------------------------------------------------------


def test_counter_accumulates_and_rejects_decrease(registry):
    c = registry.counter("bytes_total", link="nvlink")
    c.inc(100)
    c.inc(50)
    assert c.value == 150
    with pytest.raises(ValueError):
        c.inc(-1)
    # same name+labels returns the same child
    assert registry.counter("bytes_total", link="nvlink") is c
    assert registry.counter("bytes_total", link="hbm") is not c


def test_counter_timestamped_samples(registry):
    c = registry.counter("x_total")
    c.inc(1)  # no t= -> no sample
    c.inc(2, t=0.5)
    c.inc(3, t=0.75)
    assert c.samples == [(0.5, 3.0), (0.75, 6.0)]
    assert registry.series() == {"x_total": [(0.5, 3.0), (0.75, 6.0)]}


def test_gauge_sets_and_samples(registry):
    g = registry.gauge("hit_rate", rank=0)
    g.set(0.25)
    g.set(0.5, t=1.0)
    assert g.value == 0.5
    assert registry.series()["hit_rate{rank=0}"] == [(1.0, 0.5)]


def test_histogram_vectorised_observe():
    h = Histogram("rows")
    h.observe([1, 2, 3, 1000])
    h.observe(7)
    assert h.count == 5
    assert h.total == pytest.approx(1013.0)
    assert h.min == 1.0 and h.max == 1000.0
    assert h.mean == pytest.approx(1013.0 / 5)
    # power-of-two buckets keyed by upper bound 2^k
    assert h.buckets == {2.0: 1, 4.0: 2, 8.0: 1, 1024.0: 1}


def test_histogram_empty_snapshot_is_json_safe(registry):
    h = registry.histogram("never_observed")
    d = h.as_dict()
    assert d["count"] == 0 and d["min"] is None and d["max"] is None


def test_collect_filters_by_name_and_label_subset(registry):
    registry.counter("a_total", link="nvlink", rank=0).inc(1)
    registry.counter("a_total", link="hbm", rank=0).inc(2)
    registry.counter("b_total").inc(4)
    assert registry.total("a_total") == 3
    assert registry.total("a_total", link="hbm") == 2
    assert registry.total("b_total") == 4
    assert len(registry.collect()) == 3
    assert registry.collect("a_total", rank=0, link="nvlink")[0].value == 1


def test_snapshot_flattened_names(registry):
    registry.counter("a_total", link="nvlink").inc(5)
    registry.gauge("g").set(2.0)
    snap = registry.snapshot()
    assert snap["a_total{link=nvlink}"]["value"] == 5
    assert snap["g"]["type"] == "gauge"


def test_set_registry_swaps_default():
    prev = get_registry()
    fresh = MetricsRegistry()
    old = set_registry(fresh)
    try:
        assert old is prev
        assert get_registry() is fresh
    finally:
        set_registry(prev)


# -- consistency with the cost-model ground truth -----------------------------------


def _train(store, **kw):
    trainer = WholeGraphTrainer(store, "graphsage", seed=0, batch_size=128,
                                fanouts=[5, 5], hidden=8, dropout=0.0, **kw)
    store.node.reset_clocks()
    trainer.train_epoch(max_iterations=3)
    return trainer


def test_link_bytes_match_whole_tensor_stats(registry, small_dataset):
    """Sum of per-link byte counters == the WholeTensor stats ledger."""
    node = SimNode()
    store = MultiGpuGraphStore(node, small_dataset, seed=0)
    _train(store)
    st = store.feature_tensor.stats
    nvlink = registry.total("gather_link_bytes_total", link="nvlink")
    hbm = registry.total("gather_link_bytes_total", link="hbm")
    assert st["gather_bytes"] > 0
    assert nvlink == pytest.approx(st["gather_remote_bytes"])
    assert nvlink + hbm == pytest.approx(st["gather_bytes"])
    assert registry.total("gather_requests_total") == st["gather_calls"]
    assert registry.total("gather_rows_total") == st["gather_rows"]


def test_cache_hit_miss_totals_match_requests(registry, small_dataset):
    """cache hits + misses == rows requested through the cached gather."""
    node = SimNode()
    store = MultiGpuGraphStore(node, small_dataset, seed=0, cache_ratio=0.1)
    _train(store)
    hits = registry.total("cache_hits_total")
    misses = registry.total("cache_misses_total")
    requests = registry.total("cache_requests_total")
    assert requests > 0
    assert hits + misses == pytest.approx(requests)
    # the cache's own ledger agrees
    summary = store.feature_cache.summary()
    assert hits == pytest.approx(summary["hits"])
    assert misses == pytest.approx(summary["misses"])
    hit_rate = registry.gauge("cache_hit_rate").value
    assert hit_rate == pytest.approx(hits / requests)


def test_phase_seconds_match_timeline(registry, small_dataset):
    """phase_seconds_total counters agree with the timeline breakdown."""
    node = SimNode()
    store = MultiGpuGraphStore(node, small_dataset, seed=0)
    _train(store)
    dev0 = node.gpu_memory[0].device
    breakdown = node.timeline.phase_breakdown(dev0)
    for phase in ("sample", "gather"):
        assert registry.total("phase_seconds_total", phase=phase) == (
            pytest.approx(breakdown[phase])
        )
    # the timeline's train total additionally carries the gradient
    # all-reduce the trainer charges outside the per-iteration metric
    train_metric = registry.total("phase_seconds_total", phase="train")
    assert 0 < train_metric <= breakdown["train"] + 1e-12


def test_sampler_edges_counted(registry, small_dataset):
    node = SimNode()
    store = MultiGpuGraphStore(node, small_dataset, seed=0)
    _train(store)
    assert registry.total("sampler_edges_total") > 0
    fanout_hist = registry.histogram("sampler_fanout")
    assert fanout_hist.count > 0
    assert fanout_hist.max <= 5  # fanouts=[5, 5]


def test_pipelined_schedule_records_overlap(registry, small_dataset):
    node = SimNode()
    store = MultiGpuGraphStore(node, small_dataset, seed=0)
    trainer = _train(store, overlap=True)
    iterations = trainer.history[-1].iterations
    assert iterations >= 1
    assert registry.total(
        "iterations_total", schedule="pipelined"
    ) == iterations
    hidden = registry.total("overlap_hidden_seconds_total")
    full = registry.total("phase_seconds_total", phase="train")
    assert 0 <= hidden <= full


def test_instrumentation_survives_without_samples(registry):
    """A registry with no timestamped updates yields no counter tracks."""
    registry.counter("quiet_total").inc(5)
    assert registry.series() == {}
    assert np.isfinite(registry.total("quiet_total"))
