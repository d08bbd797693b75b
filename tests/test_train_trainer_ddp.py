"""Training pipeline, trainer modes and data-parallel synchronisation."""

import numpy as np
import pytest

from repro.graph import MultiGpuGraphStore
from repro.hardware import SimNode
from repro.train import WholeGraphTrainer
from repro.train.grad_sync import charge_allreduce
from repro.train.metrics import PhaseTimes, accuracy


def make_trainer(dataset, model_name="graphsage", **kw):
    node = SimNode()
    store = MultiGpuGraphStore(node, dataset, seed=0)
    defaults = dict(seed=0, batch_size=32, fanouts=[5, 5], hidden=16,
                    num_layers=2, lr=0.02, dropout=0.0)
    defaults.update(kw)
    return WholeGraphTrainer(store, model_name, **defaults)


def test_accuracy_metric():
    logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)
    assert accuracy(np.zeros((0, 2)), np.zeros(0)) == 0.0


def test_phase_times_arithmetic():
    a = PhaseTimes(1.0, 2.0, 3.0)
    a += PhaseTimes(0.5, 0.5, 0.5)
    assert a.total == pytest.approx(7.5)
    assert a.as_dict() == {"sample": 1.5, "gather": 2.5, "train": 3.5}


def test_trainer_loss_decreases(small_dataset):
    tr = make_trainer(small_dataset)
    first = tr.train_epoch().mean_loss
    for _ in range(3):
        last = tr.train_epoch().mean_loss
    assert last < first


def test_trainer_reaches_high_accuracy(small_dataset):
    tr = make_trainer(small_dataset)
    for _ in range(8):
        tr.train_epoch()
    assert tr.evaluate() > 0.85
    assert tr.evaluate(tr.store.test_nodes) > 0.8


def test_trainer_epoch_stats_bookkeeping(small_dataset):
    tr = make_trainer(small_dataset)
    s0 = tr.train_epoch(max_iterations=2)
    s1 = tr.train_epoch(max_iterations=2)
    assert (s0.epoch, s1.epoch) == (0, 1)
    assert s0.iterations == 2
    assert len(tr.history) == 2
    assert s0.times.total <= s0.epoch_time * 1.01
    row = s0.as_row()
    assert {"epoch", "loss", "iters", "epoch_time",
            "sample", "gather", "train"} <= set(row)


def test_trainer_charges_all_ranks_symmetrically(small_dataset):
    tr = make_trainer(small_dataset)
    tr.node.reset_clocks()
    tr.train_epoch(max_iterations=2)
    times = [c.now for c in tr.node.gpu_clock]
    assert max(times) - min(times) < 1e-9


@pytest.mark.parametrize("compute_ranks", ["one", "all"])
def test_trainer_layer_cost_factor_scales_train_phase(small_dataset,
                                                      compute_ranks):
    t1 = make_trainer(small_dataset, compute_ranks=compute_ranks)
    t3 = make_trainer(small_dataset, layer_cost_factor=3.0,
                      compute_ranks=compute_ranks)
    s1 = t1.train_epoch(max_iterations=2)
    s3 = t3.train_epoch(max_iterations=2)
    assert s3.times.train == pytest.approx(3 * s1.times.train, rel=0.05)
    assert s3.times.sample == pytest.approx(s1.times.sample, rel=0.05)


def test_trainer_rejects_bad_mode(small_dataset):
    with pytest.raises(ValueError):
        make_trainer(small_dataset, compute_ranks="some")


def _ddp_trainer(dataset, **kw):
    return make_trainer(dataset, compute_ranks="all", fanouts=[4],
                        num_layers=1, batch_size=64, **kw)


def test_ddp_mode_keeps_replicas_in_sync(small_dataset):
    tr = _ddp_trainer(small_dataset)
    tr.train_epoch(max_iterations=2)
    tr.plan.assert_in_sync()


def test_ddp_epoch_rows_hold_their_own_epoch(small_dataset):
    """Each true-DDP epoch row holds rank 0's phase seconds of that epoch
    only, not the run's running total."""
    tr = _ddp_trainer(small_dataset)
    dev0 = tr.node.gpu_clock[0].device
    phases = ("sample", "gather", "train")

    def totals():
        return [tr.node.timeline.phase_total(p, dev0) for p in phases]

    before = totals()
    for _ in range(3):
        stats = tr.train_epoch(max_iterations=2)
        now = totals()
        row = [getattr(stats.times, p) for p in phases]
        assert all(seconds > 0 for seconds in row)
        assert row == pytest.approx(
            [b - a for a, b in zip(before, now)], rel=1e-12
        )
        assert stats.times.total <= stats.epoch_time
        assert stats.mean_loss > 0
        before = now


def test_ddp_gradient_averaging(small_dataset):
    """The plan's average gives every rank replica the mean gradient."""
    tr = _ddp_trainer(small_dataset)
    replicas = tr.plan.replicas
    assert len(replicas) == tr.node.num_gpus
    for r, replica in enumerate(replicas):
        for p in replica.model.parameters():
            p.grad = np.full_like(p.data, float(r))
    zeros = [0.0] * len(tr.model.parameters())
    tr.plan.sync_gradients([(replica, zeros) for replica in replicas])
    expected = np.mean(np.arange(len(replicas)))
    for replica in replicas:
        for p in replica.model.parameters():
            assert np.array_equal(p.grad, np.full_like(p.data, expected))


def test_ddp_broadcasts_initial_weights(small_dataset):
    """One replica per rank, each its own model, all starting from
    replica 0's weights."""
    tr = _ddp_trainer(small_dataset)
    replicas = tr.plan.replicas
    assert [r.ranks for r in replicas] == [
        (rank,) for rank in range(tr.node.num_gpus)
    ]
    assert replicas[0].model is tr.model
    assert len({id(r.model) for r in replicas}) == len(replicas)
    tr.plan.assert_in_sync()


def test_charge_allreduce_advances_all_gpus():
    node = SimNode()
    t = charge_allreduce(node, 10 * 1024 * 1024)
    assert t > 0
    assert all(c.now == pytest.approx(t) for c in node.gpu_clock)
