"""Training pipeline, trainer modes and data-parallel synchronisation."""

import numpy as np
import pytest

from repro.graph import MultiGpuGraphStore
from repro.hardware import SimNode
from repro.nn import Adam, build_model
from repro.ops.neighbor_sampler import NeighborSampler
from repro.train import WholeGraphTrainer
from repro.train.ddp import DistributedDataParallel, charge_allreduce
from repro.train.metrics import PhaseTimes, accuracy
from repro.train.pipeline import run_iteration
from repro.dsm.comm import Communicator


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


def test_run_iteration_phases_and_loss(small_dataset, rng):
    node = SimNode()
    store = MultiGpuGraphStore(node, small_dataset, seed=0)
    sampler = NeighborSampler(store, [5, 5])
    model = build_model("gcn", store.feature_dim, store.num_classes, rng,
                        hidden=8, num_layers=2)
    opt = Adam(model.parameters(), lr=0.01)
    res = run_iteration(store, sampler, model, store.train_nodes[:32], 0,
                        rng, optimizer=opt)
    assert res.loss > 0
    assert res.times.sample > 0
    assert res.times.gather > 0
    assert res.times.train > 0
    assert res.num_input_nodes >= 32


def test_run_iteration_inference_mode_skips_grads(small_dataset, rng):
    node = SimNode()
    store = MultiGpuGraphStore(node, small_dataset, seed=0)
    sampler = NeighborSampler(store, [5])
    model = build_model("gcn", store.feature_dim, store.num_classes, rng,
                        hidden=8, num_layers=1)
    run_iteration(store, sampler, model, store.train_nodes[:8], 0, rng)
    assert all(p.grad is None for p in model.parameters())


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


def test_trainer_layer_cost_factor_scales_train_phase(small_dataset):
    t1 = make_trainer(small_dataset)
    t3 = make_trainer(small_dataset, layer_cost_factor=3.0)
    s1 = t1.train_epoch(max_iterations=2)
    s3 = t3.train_epoch(max_iterations=2)
    assert s3.times.train == pytest.approx(3 * s1.times.train, rel=0.05)
    assert s3.times.sample == pytest.approx(s1.times.sample, rel=0.05)


def test_trainer_rejects_bad_mode(small_dataset):
    with pytest.raises(ValueError):
        make_trainer(small_dataset, compute_ranks="some")


def test_ddp_mode_keeps_replicas_in_sync(small_dataset):
    tr = make_trainer(small_dataset, compute_ranks="all", fanouts=[4],
                      num_layers=1, batch_size=64)
    tr.train_epoch(max_iterations=2)
    tr.ddp.assert_in_sync()


def test_ddp_gradient_averaging(rng):
    """All-reduced gradients equal the mean of per-replica gradients."""
    node = SimNode()
    comm = Communicator(node)
    replicas = [
        build_model("gcn", 4, 2, np.random.default_rng(r), hidden=4,
                    num_layers=1)
        for r in range(8)
    ]
    ddp = DistributedDataParallel(replicas, comm)
    grads = []
    for r, m in enumerate(replicas):
        for p in m.parameters():
            p.grad = np.full_like(p.data, float(r))
        grads.append(float(r))
    ddp.sync_gradients()
    expected = np.mean(grads)
    for m in replicas:
        for p in m.parameters():
            assert np.allclose(p.grad, expected)


def test_ddp_broadcasts_initial_weights(rng):
    node = SimNode()
    replicas = [
        build_model("gcn", 4, 2, np.random.default_rng(r), hidden=4,
                    num_layers=1)
        for r in range(8)
    ]
    DistributedDataParallel(replicas, Communicator(node))
    ref = replicas[0].state_dict()
    for m in replicas[1:]:
        for a, b in zip(ref, m.state_dict()):
            assert np.array_equal(a, b)


def test_charge_allreduce_advances_all_gpus():
    node = SimNode()
    t = charge_allreduce(node, 10 * 1024 * 1024)
    assert t > 0
    assert all(c.now == pytest.approx(t) for c in node.gpu_clock)
