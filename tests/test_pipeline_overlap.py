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
