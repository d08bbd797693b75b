"""Hot-row feature cache: functional equivalence + performance shape."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsm.feature_cache import CACHE_POLICIES, FeatureCache
from repro.dsm.whole_tensor import WholeTensor
from repro.graph import MultiGpuGraphStore, load_dataset
from repro.hardware import SimNode


def _tensor(node, partition, num_rows=400, num_cols=8, seed=11):
    t = WholeTensor(
        node, num_rows, num_cols, dtype=np.float32, tag="t",
        charge_setup=False, partition=partition,
    )
    rng = np.random.default_rng(seed)
    t.load_from_host(
        rng.standard_normal((num_rows, num_cols)).astype(np.float32),
        phase="load",
    )
    return t


@pytest.mark.parametrize("partition", ["block", "cyclic"])
@pytest.mark.parametrize("policy", CACHE_POLICIES)
@pytest.mark.parametrize("ratio", [0.0, 0.1, 1.0])
def test_cached_gather_bit_identical(partition, policy, ratio):
    """Cached gathers return the exact bytes of the uncached path."""
    node = SimNode()
    tensor = _tensor(node, partition)
    rng = np.random.default_rng(3)
    degrees = rng.integers(1, 100, size=tensor.num_rows)
    cache = FeatureCache.from_ratio(
        tensor, ratio, policy=policy, degrees=degrees, charge_fill=False
    )
    for step in range(6):
        rows = rng.integers(0, tensor.num_rows, size=64)
        rank = step % node.num_gpus
        got = cache.gather(rows, rank)
        expect = tensor.gather_no_cost(rows)
        assert got.dtype == expect.dtype
        assert np.array_equal(got, expect)
    summary = cache.summary()
    assert summary["hits"] + summary["misses"] == 6 * 64
    if ratio == 0.0:
        assert summary["hits"] == 0
    if ratio == 1.0 and policy == "static":
        assert summary["misses"] == 0


@pytest.mark.parametrize("policy", CACHE_POLICIES)
def test_store_cached_features_match_uncached(small_dataset, policy):
    """The store-level gather path is bit-identical with a cache layered in."""
    plain = MultiGpuGraphStore(SimNode(), small_dataset, seed=0)
    cached = MultiGpuGraphStore(
        SimNode(), small_dataset, seed=0,
        cache_ratio=0.1, cache_policy=policy,
    )
    rng = np.random.default_rng(5)
    for _ in range(4):
        rows = np.unique(rng.integers(0, plain.num_nodes, size=200))
        a = plain.gather_features(rows, 0)
        b = cached.gather_features(rows, 0)
        assert np.array_equal(a, b)
    assert cached.feature_cache.summary()["gather_calls"] == 4


def test_cache_capacity_accounting_and_free():
    """Every rank reserves capacity_rows * row_bytes; free() releases it."""
    node = SimNode()
    tensor = _tensor(node, "block")
    before = [m.used for m in node.gpu_memory]
    cache = FeatureCache(
        tensor, capacity_rows=50, policy="clock", charge_fill=False
    )
    expected = 50 * tensor.row_bytes
    for m, b in zip(node.gpu_memory, before):
        assert m.used - b == expected
    cache.free()
    for m, b in zip(node.gpu_memory, before):
        assert m.used == b


def test_clock_policy_learns_repeated_rows():
    """A re-gathered working set becomes all-hits under the CLOCK policy."""
    node = SimNode()
    tensor = _tensor(node, "block")
    cache = FeatureCache(
        tensor, capacity_rows=100, policy="clock", charge_fill=False
    )
    rows = np.arange(80)
    cache.gather(rows, 0)
    assert cache.rank_stats(0)["hits"] == 0
    cache.gather(rows, 0)
    assert cache.rank_stats(0)["hits"] == 80
    assert np.array_equal(cache.cached_rows(0), rows)


def test_clock_eviction_keeps_capacity():
    """Inserting past capacity evicts instead of growing."""
    node = SimNode()
    tensor = _tensor(node, "block")
    cache = FeatureCache(
        tensor, capacity_rows=10, policy="clock", charge_fill=False
    )
    rng = np.random.default_rng(9)
    for _ in range(5):
        rows = rng.integers(0, tensor.num_rows, size=40)
        got = cache.gather(rows, 2)
        assert np.array_equal(got, tensor.gather_no_cost(rows))
    assert cache.cached_rows(2).size == 10


def test_power_law_hit_rate_and_gather_time():
    """Acceptance shape: on a power-law graph, a 10% degree-ordered cache
    serves >= 50% of sampled-frontier rows and cuts simulated gather time,
    with features staying bit-identical."""
    from repro.ops.neighbor_sampler import NeighborSampler

    ds = load_dataset("uk_domain", num_nodes=12000, seed=3)
    gather_times = {}
    hit_rate = None
    reference = {}
    for ratio in (0.0, 0.1):
        node = SimNode()
        store = MultiGpuGraphStore(node, ds, seed=0, cache_ratio=ratio)
        sampler = NeighborSampler(store, [5, 5], charge=False)
        rng = np.random.default_rng(17)
        node.reset_clocks()
        total = 0.0
        for it in range(6):
            seeds = rng.choice(store.train_nodes, size=64, replace=False)
            sg = sampler.sample(np.sort(seeds), 0, rng)
            t0 = node.gpu_clock[0].now
            x = store.gather_features(sg.input_nodes, 0)
            total += node.gpu_clock[0].now - t0
            if ratio == 0.0:
                reference[it] = x
            else:
                assert np.array_equal(x, reference[it])
        gather_times[ratio] = total
        if ratio:
            hit_rate = store.feature_cache.hit_rate
    assert hit_rate >= 0.5
    assert gather_times[0.1] < gather_times[0.0]


def test_telemetry_cache_report(small_dataset):
    from repro.telemetry import cache_report, per_rank_cache_stats

    store = MultiGpuGraphStore(
        SimNode(), small_dataset, seed=0, cache_ratio=0.2
    )
    rng = np.random.default_rng(2)
    for rank in range(3):
        store.gather_features(
            np.unique(rng.integers(0, store.num_nodes, size=100)), rank
        )
    per_rank = per_rank_cache_stats(store.feature_cache)
    assert len(per_rank) == store.node.num_gpus
    assert sum(r["gather_calls"] for r in per_rank) == 3
    report = cache_report(store.feature_cache)
    assert "hit rate" in report and "all" in report


def test_cache_requires_device_features(small_dataset):
    with pytest.raises(ValueError):
        MultiGpuGraphStore(
            SimNode(), small_dataset, seed=0,
            tier="host_pinned", cache_ratio=0.1,
        )


@pytest.mark.parametrize(
    "store_kw",
    [dict(cache_ratio=0.1),
     dict(tier="tiered", host_pinned_fraction=0.4, cache_ratio=0.1)],
    ids=["device", "tiered"],
)
def test_cached_run_report_has_bandwidths(registry, small_dataset, store_kw):
    """A cached read books into the feature tensor's own gather ledger, so
    the run report derives its bandwidth block from cached runs too."""
    from repro.train import WholeGraphTrainer

    store = MultiGpuGraphStore(SimNode(), small_dataset, seed=0, **store_kw)
    tr = WholeGraphTrainer(
        store, "graphsage", seed=3, batch_size=32, fanouts=[5, 5], hidden=16
    )
    tr.train_epoch(max_iterations=2)
    tensor = store.feature_tensor
    assert tensor.stats["gather_calls"] == 2
    assert registry.counter("gather_requests_total", tensor=tensor.tag).value == 2
    bw = tr.run_report().bandwidths
    assert bw and bw["algo_bw"] > 0
