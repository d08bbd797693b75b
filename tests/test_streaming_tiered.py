"""Out-of-core tier and streaming loader: identity, ledgers, faults.

The contract of the storage tier below the DSM
(:mod:`repro.dsm.tiered_tensor`) and the prefetching loader on top
(:mod:`repro.train.streaming`):

- the streaming schedule is a *performance* feature: losses and trained
  weights stay bit-identical to the sequential schedule at equal seeds;
- every gathered byte lands in exactly one tier ledger, and the in-object
  stats reconcile with the metrics registry (property-based);
- host-tier reads honour the fault-injection hooks (reply-loss retries are
  drawn and charged, on the calling rank for synchronous gathers and on the
  host clock for prefetches);
- the streaming run-report manifest records the tier knobs, and only then.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm import TieredTensor
from repro.faults import FaultInjector, FaultPlan, GatherReplyLoss
from repro.graph import MultiGpuGraphStore
from repro.hardware import SimNode
from repro.ops.neighbor_sampler import NeighborSampler
from repro.telemetry import metrics
from repro.train import StreamingLoader, WholeGraphTrainer
from repro.train.plans import Replica

TRAIN_KW = dict(
    seed=3, batch_size=32, fanouts=[5, 5], hidden=16, num_layers=2,
    lr=0.02, dropout=0.1,
)


def _tiered_trainer(dataset, *, streaming, cache_ratio=0.0, **kw):
    store = MultiGpuGraphStore(
        SimNode(), dataset, seed=0, tier="tiered",
        host_pinned_fraction=0.4, cache_ratio=cache_ratio,
    )
    merged = dict(TRAIN_KW, **kw)
    return WholeGraphTrainer(store, "graphsage", streaming=streaming,
                             **merged)


def _weights(trainer):
    return [p.data.copy() for p in trainer.model.parameters()]


# -- bit-identity: streaming is a schedule, not a different computation -------------


def test_streaming_loss_and_weights_bit_identical(registry, medium_dataset):
    seq = _tiered_trainer(medium_dataset, streaming=False)
    stm = _tiered_trainer(medium_dataset, streaming=True)
    for _ in range(2):
        a = seq.train_epoch()
        b = stm.train_epoch()
        assert a.mean_loss == b.mean_loss  # bit-for-bit, not approx
    for p, q in zip(_weights(seq), _weights(stm)):
        assert np.array_equal(p, q)
    assert seq.evaluate() == stm.evaluate()


def test_streaming_with_static_cache_stays_bit_identical(
    registry, medium_dataset
):
    seq = _tiered_trainer(medium_dataset, streaming=False, cache_ratio=0.1)
    stm = _tiered_trainer(medium_dataset, streaming=True, cache_ratio=0.1)
    a = seq.train_epoch()
    b = stm.train_epoch()
    assert a.mean_loss == b.mean_loss
    for p, q in zip(_weights(seq), _weights(stm)):
        assert np.array_equal(p, q)


def test_streaming_hides_host_transfers(registry, medium_dataset):
    """Prefetch must hide transfer time; the ledger must add up exactly."""
    seq = _tiered_trainer(medium_dataset, streaming=False)
    seq_time = seq.train_epoch().epoch_time

    metrics.set_registry(metrics.MetricsRegistry())
    try:
        stm = _tiered_trainer(medium_dataset, streaming=True)
        stm_time = stm.train_epoch().epoch_time
        reg = metrics.get_registry()
        total = reg.total("host_fetch_seconds_total")
        exposed = reg.total("host_fetch_exposed_seconds_total")
        hidden = reg.total("host_fetch_hidden_seconds_total")
    finally:
        metrics.set_registry(registry)

    assert total > 0
    assert hidden > 0  # at least some transfer ran behind compute
    assert total == pytest.approx(exposed + hidden, rel=1e-9)
    assert stm_time < seq_time  # hiding transfers buys simulated time


# -- schedule guardrails ------------------------------------------------------------


def test_streaming_requires_tiered_store(medium_dataset):
    store = MultiGpuGraphStore(SimNode(), medium_dataset, seed=0)
    with pytest.raises(ValueError, match="tiered"):
        WholeGraphTrainer(store, "graphsage", streaming=True, **TRAIN_KW)


def test_streaming_excludes_overlap_schedule(medium_dataset):
    store = MultiGpuGraphStore(
        SimNode(), medium_dataset, seed=0, tier="tiered"
    )
    with pytest.raises(ValueError, match="one schedule"):
        WholeGraphTrainer(store, "graphsage", streaming=True, overlap=True,
                          **TRAIN_KW)


def test_streaming_loader_rejects_clock_cache(medium_dataset):
    store = MultiGpuGraphStore(
        SimNode(), medium_dataset, seed=0, tier="tiered",
        cache_ratio=0.1, cache_policy="clock",
    )
    sampler = NeighborSampler(store, [5, 5])
    with pytest.raises(ValueError, match="static"):
        StreamingLoader(Replica(store, sampler))


# -- per-tier byte ledgers reconcile with the registry (property-based) -------------


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(
        st.integers(min_value=0, max_value=199), min_size=1, max_size=64
    ),
    frac=st.floats(min_value=0.0, max_value=1.0),
    calls=st.integers(min_value=1, max_value=4),
)
def test_tier_byte_ledger_matches_registry(rows, frac, calls):
    prev = metrics.get_registry()
    metrics.set_registry(metrics.MetricsRegistry())
    try:
        reg = metrics.get_registry()
        node = SimNode()
        tensor = TieredTensor(
            node, 200, 8, tag="ledger", host_pinned_fraction=frac
        )
        rows = np.asarray(rows, dtype=np.int64)
        for i in range(calls):
            tensor.gather(rows, rank=i % node.num_gpus)

        st_ = tensor.stats
        host = reg.total("tier_gather_bytes_total", tier="host")
        disk = reg.total("tier_gather_bytes_total", tier="disk")
        # in-object stats and registry counters describe the same bytes
        assert host == st_["host_bytes"]
        assert disk == st_["disk_bytes"]
        # every gathered byte lands in exactly one tier
        assert host + disk == st_["gather_bytes"]
        assert st_["gather_bytes"] == calls * rows.size * tensor.row_bytes
        # the link ledger mirrors the tier ledger (warm=PCIe, cold=disk)
        assert reg.total("gather_link_bytes_total", link="pcie") == host
        assert reg.total("gather_link_bytes_total", link="disk") == disk
        # placement honours the warm fraction exactly
        n_host = int(round(frac * 200))
        assert int(np.count_nonzero(tensor.tier_of == 0)) == n_host
    finally:
        metrics.set_registry(prev)


def test_streaming_loader_ledger_matches_registry(registry, medium_dataset):
    """After a streaming epoch the tensor stats and registry agree."""
    stm = _tiered_trainer(medium_dataset, streaming=True)
    stm.train_epoch()
    tensor = stm.store.feature_tensor
    assert registry.total(
        "tier_gather_bytes_total", tier="host"
    ) == tensor.stats["host_bytes"]
    assert registry.total(
        "tier_gather_bytes_total", tier="disk"
    ) == tensor.stats["disk_bytes"]
    # each fetched row was staged into HBM and consumed exactly once
    assert tensor.stats["staged_bytes"] == tensor.stats["gather_bytes"]
    assert registry.total("iterations_total", schedule="streaming") > 0


# -- fault injection on host-tier reads ---------------------------------------------


def test_gather_retry_on_host_tier_read(registry, node):
    plan = FaultPlan(
        events=[GatherReplyLoss(probability=0.95)], seed=7
    )
    FaultInjector(plan).install(node)
    tensor = TieredTensor(node, 128, 16, host_pinned_fraction=0.5)
    t0 = node.gpu_clock[0].now
    tensor.gather(np.arange(64), rank=0)
    assert registry.total("retries_total") > 0
    retry_spans = [
        s for s in node.timeline.spans
        if s.phase == "gather_retry" and not s.busy
    ]
    assert retry_spans  # the backoff is visible, non-busy, on the timeline
    assert all(s.start >= t0 for s in retry_spans)
    assert node.gpu_clock[0].now > t0  # and it cost the calling rank time


def test_streaming_prefetch_retries_charge_host_clock(
    registry, medium_dataset, transient_plan
):
    plan = transient_plan(loss_probability=0.95)
    node = SimNode()
    store = MultiGpuGraphStore(
        node, medium_dataset, seed=0, tier="tiered",
        host_pinned_fraction=0.4,
    )
    FaultInjector(plan).install(node)
    loader = StreamingLoader(Replica(store, NeighborSampler(store, [5, 5])))
    rng = np.random.default_rng(0)
    loader.prefetch(store.train_nodes[:32], rng)
    assert registry.total("retries_total") > 0
    retry_spans = [
        s for s in node.timeline.spans if s.phase == "gather_retry"
    ]
    # the retry backoff lands on the host stream, not a GPU stream
    assert retry_spans
    assert {s.device for s in retry_spans} == {node.host_clock.device}
    subgraph, feats = loader.take()
    assert feats.shape[0] == subgraph.input_nodes.size


def test_streaming_under_transient_faults_preserves_weights(
    registry, medium_dataset, transient_plan
):
    base = _tiered_trainer(medium_dataset, streaming=True)
    base_stats = base.train_epoch()
    faulted = _tiered_trainer(
        medium_dataset, streaming=True,
        fault_plan=transient_plan(loss_probability=0.8),
    )
    faulted_stats = faulted.train_epoch()
    assert base_stats.mean_loss == faulted_stats.mean_loss
    assert faulted_stats.epoch_time > base_stats.epoch_time
    for p, q in zip(_weights(base), _weights(faulted)):
        assert np.array_equal(p, q)


# -- manifest knobs -----------------------------------------------------------------


def test_run_report_records_tier_knobs(registry, medium_dataset):
    stm = _tiered_trainer(medium_dataset, streaming=True)
    stm.train_epoch()
    cfg = stm.run_report().to_dict()["config"]
    assert cfg["tier"] == "tiered"
    assert cfg["host_pinned_fraction"] == 0.4
    assert cfg["streaming"] is True
    assert cfg["prefetch_depth"] == stm.prefetch_depth

    plain = WholeGraphTrainer(
        MultiGpuGraphStore(SimNode(), medium_dataset, seed=0),
        "graphsage", **TRAIN_KW,
    )
    plain.train_epoch()
    cfg = plain.run_report().to_dict()["config"]
    for key in ("tier", "host_pinned_fraction", "streaming",
                "prefetch_depth"):
        assert key not in cfg  # device-tier manifests stay byte-identical
