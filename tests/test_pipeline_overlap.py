"""Pipelined prefetch schedule: bit-identical math, lower simulated time."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import MultiGpuGraphStore
from repro.hardware import SimNode
from repro.train import WholeGraphTrainer


def _run_trainer(dataset, overlap, epochs=2):
    store = MultiGpuGraphStore(SimNode(), dataset, seed=0)
    trainer = WholeGraphTrainer(
        store, "graphsage", seed=3, batch_size=32, fanouts=[5, 5],
        hidden=32, overlap=overlap,
    )
    stats = [trainer.train_epoch() for _ in range(epochs)]
    weights = [p.data.copy() for p in trainer.model.parameters()]
    return stats, weights, trainer.evaluate()


def test_overlap_bit_identical_and_faster(medium_dataset):
    s_seq, w_seq, acc_seq = _run_trainer(medium_dataset, overlap=False)
    s_pipe, w_pipe, acc_pipe = _run_trainer(medium_dataset, overlap=True)
    for a, b in zip(s_seq, s_pipe):
        assert a.mean_loss == b.mean_loss  # bit-for-bit, not allclose
        assert a.iterations == b.iterations > 1
        assert b.epoch_time < a.epoch_time
        # the pipeline can at best hide the smaller of the two halves
        assert b.epoch_time >= a.epoch_time / 2
    assert all(np.array_equal(x, y) for x, y in zip(w_seq, w_pipe))
    assert acc_seq == acc_pipe


def test_overlap_phase_totals_record_full_work(medium_dataset):
    """Phase totals still report the un-overlapped per-phase work."""
    store = MultiGpuGraphStore(SimNode(), medium_dataset, seed=0)
    trainer = WholeGraphTrainer(
        store, "graphsage", seed=3, batch_size=32, fanouts=[5, 5],
        hidden=32, overlap=True,
    )
    stats = trainer.train_epoch()
    assert stats.times.sample > 0
    assert stats.times.gather > 0
    assert stats.times.train > 0
    # overlap means wall time < sum of the recorded phase work (gradient
    # sync is accounted separately under its own allreduce phases)
    assert stats.epoch_time < (
        stats.times.total + stats.allreduce + stats.allreduce_wait
    )


def test_overlap_rejects_all_ranks_mode(small_store):
    with pytest.raises(ValueError):
        WholeGraphTrainer(
            small_store, "graphsage", compute_ranks="all", overlap=True
        )


def test_cluster_overlap_equivalence(medium_dataset, cluster_trainer):
    def run(overlap):
        tr = cluster_trainer(
            medium_dataset, 2, "graphsage",
            seed=3, batch_size=32, fanouts=[5, 5], hidden=32,
            overlap=overlap,
        )
        stats = [tr.train_epoch() for _ in range(2)]
        tr.plan.assert_in_sync()
        weights = [p.data.copy() for p in tr.model.parameters()]
        return stats, weights, tr.evaluate()

    s_seq, w_seq, acc_seq = run(False)
    s_pipe, w_pipe, acc_pipe = run(True)
    for a, b in zip(s_seq, s_pipe):
        assert a.mean_loss == b.mean_loss
        assert b.epoch_time < a.epoch_time
    assert all(np.array_equal(x, y) for x, y in zip(w_seq, w_pipe))
    assert acc_seq == acc_pipe


# -- the per-layer train spans --------------------------------------------------------


def _loader_setup(dataset, depth, hidden=32):
    from repro.train.streaming import StreamingLoader

    store = MultiGpuGraphStore(SimNode(), dataset, seed=0)
    trainer = WholeGraphTrainer(
        store, "graphsage", seed=3, batch_size=32, fanouts=[5, 5, 5],
        hidden=hidden,
    )
    replica = trainer.plan.replicas[0]
    batches = trainer._task.batches(trainer, 2)
    return store.node, replica, StreamingLoader(replica, depth), batches


def _train_spans(node, since, rank):
    dev = node.gpu_clock[rank].device
    return [s for s in node.timeline.spans[since:]
            if s.phase == "train" and s.device == dev]


def test_sequential_step_launches_one_span_per_entry(medium_dataset):
    """A sequential step launches its 2L forward and backward entries as
    ``train`` spans on every rank, in launch order, each with its layer,
    pass and op seconds; their durations are the entries' priced times."""
    from repro.train.streaming import train_step

    node, _, loader, batches = _loader_setup(medium_dataset, 0)
    since = len(node.timeline.spans)
    _, costs = train_step(loader, batches[0], iter(()), 1.0)
    order = [(0, "forward"), (1, "forward"), (2, "forward"),
             (2, "backward"), (1, "backward"), (0, "backward")]
    want = [e.seconds(1.0) for e in costs.compute_entries()]
    for rank in range(node.num_gpus):
        spans = _train_spans(node, since, rank)
        assert [(s.args["layer"], s.args["pass"]) for s in spans] == order
        assert [s.duration for s in spans] == pytest.approx(want, rel=1e-12)
        for s in spans:
            ops = [s.args[f"{op}_s"]
                   for op in ("dense", "sparse", "elementwise", "launch")]
            assert sum(ops) == pytest.approx(s.duration, rel=1e-12)
    assert loader.times.train == pytest.approx(sum(want), rel=1e-12)


def test_pipelined_step_spans_expose_entries_past_prefetch(medium_dataset):
    """Under double buffering the prefetch of the next batch hides the
    leading seconds of the step's entries: the spans sum to
    ``max(0, fwd + bwd - prefetch)``."""
    from repro.train.streaming import train_step

    # a wide model trains longer than the next batch's prefetch
    node, replica, loader, batches = _loader_setup(medium_dataset, 1, 1024)
    loader.prefetch(batches[0], replica.sample_rng)
    node.sync()
    before = loader.times.sample + loader.times.gather
    since = len(node.timeline.spans)
    _, costs = train_step(loader, batches[0], iter(batches[1:]), 1.0)
    prefetch = loader.times.sample + loader.times.gather - before
    fwd_bwd = sum(e.seconds(1.0) for e in costs.compute_entries())
    assert 0 < prefetch < fwd_bwd
    # fully hidden leading entries leave no span; the rest are the tail
    spans = _train_spans(node, since, 0)
    tail = [(e.layer, e.kind) for e in costs.compute_entries()]
    assert [(s.args["layer"], s.args["pass"]) for s in spans] == (
        tail[len(tail) - len(spans):]
    )
    assert sum(s.duration for s in spans) == pytest.approx(
        fwd_bwd - prefetch, rel=1e-9
    )


def test_one_stage_pipeline_charges_the_data_parallel_entries(
    medium_dataset
):
    """A one-stage pipeline with one micro-batch prices its forward and
    backward exactly as the data-parallel step's ledger entries."""
    from repro.train.plans import PipelineParallelPlan

    def timeline(plan):
        store = MultiGpuGraphStore(SimNode(), medium_dataset, seed=0)
        tr = WholeGraphTrainer(
            store, "graphsage", seed=3, batch_size=32, fanouts=[5, 5],
            hidden=32, plan=plan,
        )
        tr.train_epoch(max_iterations=1)
        return store.node.timeline, store.node.gpu_clock[0].device

    dp, dev = timeline(None)
    pp, _ = timeline(PipelineParallelPlan(num_stages=1, micro_batches=1))
    for kind, phase in (("forward", "pipeline_fwd"),
                        ("backward", "pipeline_bwd")):
        want = sum(s.duration for s in dp.spans if s.device == dev
                   and s.phase == "train" and s.args["pass"] == kind)
        got = [s.duration for s in pp.spans
               if s.device == dev and s.phase == phase]
        assert len(got) == 1
        assert got[0] == pytest.approx(want, rel=1e-12)
