"""Chaos suite: scheduled fault injection, recovery, and determinism.

Covers the contract of :mod:`repro.faults` end to end:

- transient faults (degraded links, stragglers, gather reply loss) change
  *simulated time only* — trained weights stay bit-identical;
- an empty plan is indistinguishable from no plan, down to the scrubbed
  run-report JSON;
- permanent rank failures are survived by checkpoint restart (same GPU
  count, epoch replay) or elastic shrink (re-shard across survivors);
- every fault and recovery lands in the metrics registry and run report.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    GatherReplyLoss,
    LinkDegradation,
    RankFailure,
    RankFailureError,
    StragglerGpu,
)
from repro.graph import MultiGpuGraphStore
from repro.hardware import SimNode
from repro.train import WholeGraphTrainer

TRAIN_KW = dict(batch_size=32, fanouts=[5, 5], hidden=32)


def _make_trainer(dataset, plan=None, overlap=False, **kw):
    store = MultiGpuGraphStore(SimNode(), dataset, seed=0)
    return WholeGraphTrainer(
        store, "graphsage", seed=3, overlap=overlap, fault_plan=plan,
        **TRAIN_KW, **kw,
    )


def _train(dataset, plan=None, overlap=False, epochs=2, iters=4, **kw):
    trainer = _make_trainer(dataset, plan, overlap=overlap, **kw)
    stats = [trainer.train_epoch(max_iterations=iters) for _ in range(epochs)]
    return trainer, stats


def _weights(trainer):
    return [p.data.copy() for p in trainer.model.parameters()]


def _epoch_window(dataset):
    """(clock after store setup, epoch duration) of a fault-free run."""
    trainer = _make_trainer(dataset)
    t0 = trainer.node.sync()
    stats = trainer.train_epoch(max_iterations=4)
    return t0, stats.epoch_time


# -- transient faults: timing-only, weights bit-identical ---------------------------

TRANSIENT_PLANS = {
    "fabric_degradation": [LinkDegradation(factor=2.0)],
    "straggler": [StragglerGpu(rank=2, slowdown=3.0)],
    "reply_loss": [GatherReplyLoss(probability=0.6)],
    "combined": [
        LinkDegradation(factor=2.0),
        StragglerGpu(rank=1, slowdown=2.5),
        GatherReplyLoss(probability=0.5),
    ],
}


@pytest.mark.parametrize("kind", sorted(TRANSIENT_PLANS))
@pytest.mark.parametrize("overlap", [False, True])
def test_transient_faults_preserve_weights(
    registry, small_dataset, kind, overlap
):
    base_tr, base_stats = _train(small_dataset, overlap=overlap)
    plan = FaultPlan(events=TRANSIENT_PLANS[kind], seed=11)
    tr, stats = _train(small_dataset, plan, overlap=overlap)

    for a, b in zip(_weights(base_tr), _weights(tr)):
        assert np.array_equal(a, b)  # bit-for-bit, not allclose
    for a, b in zip(base_stats, stats):
        assert a.mean_loss == b.mean_loss
        assert b.epoch_time >= a.epoch_time
    # the faults measurably cost simulated time over the run
    assert sum(s.epoch_time for s in stats) > sum(
        s.epoch_time for s in base_stats
    )
    assert tr.evaluate() == base_tr.evaluate()
    assert not tr.recoveries  # transient faults never trigger recovery


def test_named_link_degradation_hits_topology(registry, node):
    """A named-link degradation reduces that link's resolved bandwidth."""
    from repro.hardware.topology import gpu_name

    plan = FaultPlan(
        events=[LinkDegradation(factor=4.0, link="nvlink0")]
    )
    base = node.topology.effective_bandwidth(gpu_name(0), gpu_name(1))
    FaultInjector(plan).install(node)
    degraded = node.topology.effective_bandwidth(gpu_name(0), gpu_name(1))
    assert degraded < base
    assert registry.total(
        "faults_injected_total", kind="link_degradation"
    ) == 1


def test_transient_faults_land_in_metrics_and_report(
    registry, small_dataset, transient_plan
):
    plan = transient_plan()
    tr, _ = _train(small_dataset, plan)
    snap = registry.snapshot()
    for kind in ("link_degradation", "straggler", "gather_reply_loss"):
        assert registry.total("faults_injected_total", kind=kind) == 1
    assert registry.total("retries_total") > 0
    report = tr.run_report().to_dict()
    assert report["config"]["fault_plan"] == plan.to_config()
    # the recorded plan reproduces the run: round-trip it
    again = FaultPlan.from_config(report["config"]["fault_plan"])
    assert again.events == plan.events and again.seed == plan.seed
    assert "retries_total" in str(snap)


def test_reply_loss_outside_window_is_free(registry, small_dataset):
    """A loss window the run never enters changes nothing at all."""
    base_tr, base_stats = _train(small_dataset)
    plan = FaultPlan(
        events=[GatherReplyLoss(probability=0.9, start=1e6, end=1e7)],
        seed=5,
    )
    tr, stats = _train(small_dataset, plan)
    assert [s.epoch_time for s in stats] == [
        s.epoch_time for s in base_stats
    ]
    for a, b in zip(_weights(base_tr), _weights(tr)):
        assert np.array_equal(a, b)
    assert registry.total("retries_total") == 0.0


# -- empty plan == no plan (the determinism contract) -------------------------------


def test_empty_plan_is_bit_identical_to_no_plan(registry, small_dataset):
    from repro.telemetry import metrics
    from repro.telemetry.run_report import scrub_report

    def run(plan):
        prev = metrics.set_registry(metrics.MetricsRegistry())
        try:
            tr, stats = _train(small_dataset, plan)
            report = tr.run_report(accuracy=tr.evaluate())
            return _weights(tr), stats, report
        finally:
            metrics.set_registry(prev)

    w_none, s_none, r_none = run(None)
    w_empty, s_empty, r_empty = run(FaultPlan(events=[]))
    for a, b in zip(w_none, w_empty):
        assert np.array_equal(a, b)
    assert [s.as_row() for s in s_none] == [s.as_row() for s in s_empty]
    assert r_none.config["fault_plan"] is None
    assert r_empty.config["fault_plan"] is None
    import json

    assert json.dumps(scrub_report(r_none), sort_keys=True) == json.dumps(
        scrub_report(r_empty), sort_keys=True
    )


# -- permanent faults: checkpoint restart ------------------------------------------


def test_rank_failure_restart_recovers(registry, small_dataset, tmp_path):
    t0, epoch_time = _epoch_window(small_dataset)
    base_tr, base_stats = _train(small_dataset)
    base_acc = base_tr.evaluate()

    plan = FaultPlan(
        events=[RankFailure(rank=2, time=t0 + 0.4 * epoch_time)]
    )
    tr, stats = _train(
        small_dataset, plan, recovery_policy="restart",
        checkpoint_dir=str(tmp_path),
    )
    assert len(tr.recoveries) == 1
    rec = tr.recoveries[0]
    assert rec["policy"] == "restart"
    assert rec["ranks"] == [[0, 2]]
    assert rec["recovery_seconds"] > 0
    assert tr.node.num_gpus == 8  # restart replaces the GPU in place
    # the interrupted epoch replayed in full and training converged to an
    # accuracy within noise of the fault-free run
    assert stats[0].iterations == base_stats[0].iterations
    assert np.isfinite(stats[-1].mean_loss)
    assert abs(tr.evaluate() - base_acc) <= 0.15
    # the recovery is visible in metrics and the run report
    assert registry.total("rank_failures_total") == 1
    assert registry.total("recovery_seconds", policy="restart") > 0
    report = tr.run_report().to_dict()
    assert report["extra"]["recoveries"][0]["policy"] == "restart"
    # the failed run paid for detection + reload: epoch 0 took longer
    assert stats[0].epoch_time > base_stats[0].epoch_time


def test_restart_writes_and_reuses_checkpoints(
    registry, small_dataset, tmp_path
):
    plan = FaultPlan(events=[RankFailure(rank=0, time=1e9)])  # never fires
    tr, _ = _train(
        small_dataset, plan, recovery_policy="restart",
        checkpoint_dir=str(tmp_path), epochs=1,
    )
    assert (tmp_path / "latest.npz").exists()
    assert not tr.recoveries


# -- permanent faults: elastic shrink ----------------------------------------------


def test_rank_failure_elastic_shrink(registry, small_dataset):
    t0, epoch_time = _epoch_window(small_dataset)
    plan = FaultPlan(
        events=[RankFailure(rank=5, time=t0 + 0.4 * epoch_time)]
    )
    tr, stats = _train(small_dataset, plan, recovery_policy="shrink")
    assert len(tr.recoveries) == 1
    assert tr.recoveries[0]["policy"] == "shrink"
    # WholeMemory re-sharded over the 7 survivors
    assert tr.node.num_gpus == 7
    assert tr.store.node is tr.node
    assert len(tr.store.partition.counts) == 7
    # the epoch finished (remaining batches translated to the new
    # stored-ID space) and the model still trains and evaluates
    assert stats[0].iterations == 4
    assert all(np.isfinite(s.mean_loss) for s in stats)
    assert 0.0 <= tr.evaluate() <= 1.0
    assert registry.total("recovery_seconds", policy="shrink") > 0


@pytest.mark.parametrize("overlap", [False, True])
def test_shrink_mid_epoch_continues_not_restarts(
    registry, small_dataset, overlap
):
    """Shrink resumes from the interrupted batch — losses accumulate."""
    t0, epoch_time = _epoch_window(small_dataset)
    plan = FaultPlan(
        events=[RankFailure(rank=1, time=t0 + 0.4 * epoch_time)]
    )
    tr, stats = _train(
        small_dataset, plan, recovery_policy="shrink", overlap=overlap,
        epochs=1, iters=4,
    )
    assert tr.node.num_gpus == 7
    assert stats[0].iterations == 4


def test_shrink_rejected_in_full_ddp_mode(small_dataset):
    with pytest.raises(ValueError, match="shrink"):
        _make_trainer(
            small_dataset,
            FaultPlan(events=[RankFailure(rank=0, time=0.0)]),
            compute_ranks="all", recovery_policy="shrink",
        )


def test_restart_works_in_full_ddp_mode(registry, small_dataset, tmp_path):
    t0, epoch_time = _epoch_window(small_dataset)
    plan = FaultPlan(
        events=[RankFailure(rank=3, time=t0 + 0.4 * epoch_time)]
    )
    tr, stats = _train(
        small_dataset, plan, recovery_policy="restart",
        checkpoint_dir=str(tmp_path), compute_ranks="all",
        epochs=1, iters=2,
    )
    assert len(tr.recoveries) == 1
    assert np.isfinite(stats[0].mean_loss)
    # all replicas reloaded the same checkpoint and stayed in sync
    ref = tr.model.state_dict()
    for replica in tr.replicas[1:]:
        for a, b in zip(ref, replica.state_dict()):
            assert np.array_equal(a, b)


# -- cluster trainer ----------------------------------------------------------------


def _cluster(dataset, plan=None, policy="shrink", overlap=False, n=3):
    from repro.cluster.trainer import ClusterTrainer

    tr = ClusterTrainer(
        dataset, n, "graphsage", seed=3, overlap=overlap,
        fault_plan=plan, recovery_policy=policy, **TRAIN_KW,
    )
    stats = [tr.train_epoch(max_iterations=4) for _ in range(2)]
    return tr, stats


@pytest.mark.parametrize("overlap", [False, True])
def test_cluster_transient_faults_preserve_weights(
    registry, small_dataset, transient_plan, overlap
):
    base_tr, base_stats = _cluster(small_dataset, overlap=overlap)
    plan = transient_plan(node_id=1)
    tr, stats = _cluster(small_dataset, plan, overlap=overlap)
    for a, b in zip(base_tr.models[0].parameters(),
                    tr.models[0].parameters()):
        assert np.array_equal(a.data, b.data)
    assert stats[0]["epoch_time"] > base_stats[0]["epoch_time"]
    tr.assert_in_sync()


@pytest.mark.parametrize("overlap", [False, True])
def test_cluster_machine_node_failure_shrinks(
    registry, small_dataset, overlap
):
    base_tr, base_stats = _cluster(small_dataset, overlap=overlap)
    t_fail = 0.5 * base_stats[0]["epoch_time"]
    plan = FaultPlan(events=[RankFailure(rank=0, time=t_fail, node_id=2)])
    tr, stats = _cluster(small_dataset, plan, policy="shrink",
                         overlap=overlap)
    assert tr.num_machine_nodes == 2
    assert [n.node_id for n in tr.nodes] == [0, 1]
    assert len(tr.recoveries) == 1
    assert tr.recoveries[0]["nodes"] == [2]
    tr.assert_in_sync()
    assert 0.0 <= tr.evaluate() <= 1.0
    report = tr.run_report().to_dict()
    assert report["extra"]["recoveries"][0]["policy"] == "shrink"
    assert report["config"]["num_machine_nodes"] == 2


@pytest.mark.parametrize("overlap", [False, True])
def test_cluster_machine_node_failure_restart(
    registry, small_dataset, overlap
):
    plan = FaultPlan(events=[RankFailure(rank=0, time=1e-4, node_id=1)])
    tr, stats = _cluster(small_dataset, plan, policy="restart",
                         overlap=overlap)
    assert tr.num_machine_nodes == 3  # node assumed restarted in place
    assert len(tr.recoveries) == 1
    tr.assert_in_sync()
    assert all(np.isfinite(s["mean_loss"]) for s in stats)


def test_cluster_sole_node_failure_is_fatal(registry, small_dataset):
    plan = FaultPlan(events=[RankFailure(rank=0, time=0.0, node_id=0)])
    from repro.cluster.trainer import ClusterTrainer

    tr = ClusterTrainer(
        small_dataset, 1, "graphsage", seed=3,
        fault_plan=plan, recovery_policy="shrink", **TRAIN_KW,
    )
    with pytest.raises(RankFailureError):
        tr.train_epoch(max_iterations=2)


# -- plan validation & round-trip ---------------------------------------------------


def test_plan_config_roundtrip():
    plan = FaultPlan(
        events=[
            LinkDegradation(factor=2.0, start=0.1, end=0.2),
            LinkDegradation(factor=3.0, link="nvlink0"),
            StragglerGpu(rank=4, slowdown=2.0, start=0.0, end=1.0),
            GatherReplyLoss(probability=0.25, max_retries=3, node_id=1),
            RankFailure(rank=7, time=0.5, node_id=2),
        ],
        seed=42,
    )
    import json

    cfg = json.loads(json.dumps(plan.to_config()))
    again = FaultPlan.from_config(cfg)
    assert again.events == plan.events
    assert again.seed == plan.seed


@pytest.mark.parametrize(
    "event",
    [
        lambda: LinkDegradation(factor=0.5),
        lambda: StragglerGpu(rank=0, slowdown=0.9),
        lambda: GatherReplyLoss(probability=1.5),
        lambda: GatherReplyLoss(probability=-0.1),
    ],
)
def test_invalid_events_rejected(event):
    with pytest.raises(ValueError):
        event()


def test_unknown_link_name_rejected(node):
    plan = FaultPlan(
        events=[LinkDegradation(factor=2.0, link="nvlink99")]
    )
    with pytest.raises(ValueError, match="unknown topology link"):
        FaultInjector(plan).install(node)


def test_invalid_recovery_policy_rejected(small_dataset):
    with pytest.raises(ValueError, match="recovery_policy"):
        _make_trainer(small_dataset, recovery_policy="reboot")


# -- acceptance: Table-V GraphSage config under degraded hardware ------------------


def test_table5_graphsage_straggler_and_degraded_link(
    registry, medium_dataset
):
    """The paper's GraphSage config (batch 512, fanout 30x3, hidden 256)
    completes under a straggler + degraded NVLink fabric, and the run
    report quantifies the epoch-time overhead."""
    from repro import config

    kw = dict(
        batch_size=config.BATCH_SIZE,
        fanouts=[config.FANOUT] * config.NUM_LAYERS,
        hidden=config.HIDDEN_SIZE,
    )

    def run(plan):
        store = MultiGpuGraphStore(SimNode(), medium_dataset, seed=0)
        tr = WholeGraphTrainer(
            store, "graphsage", seed=3, fault_plan=plan, **kw
        )
        stats = tr.train_epoch(max_iterations=2)
        return tr, stats

    _, base = run(None)
    plan = FaultPlan(
        events=[
            StragglerGpu(rank=3, slowdown=2.0),
            LinkDegradation(factor=2.0),
        ],
        seed=1,
    )
    tr, faulted = run(plan)
    overhead = faulted.epoch_time / base.epoch_time - 1.0
    assert overhead > 0.05  # the injected faults measurably cost time
    report = tr.run_report(
        extra={"epoch_time_overhead": overhead}
    ).to_dict()
    assert report["extra"]["epoch_time_overhead"] == overhead
    assert report["config"]["fault_plan"] == plan.to_config()
    assert report["config"]["model"] == "graphsage"
    assert not tr.recoveries
