"""Bucketed, backward-overlapped gradient synchronisation (paper §III-D).

The contract under test: every replica set shares one gradient average —
a float64 sum rounded once to float32 — and bucketing + overlap are *pure
timing* features: the trajectory is bit-identical under every sync
schedule, while the simulated exposed communication shrinks and straggler
stalls surface as a distinct ``allreduce_wait`` phase.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm.comm import Communicator
from repro.graph import MultiGpuGraphStore
from repro.hardware import SimNode
from repro.nn import build_model
from repro.nn.module import Module, Parameter
from repro.train import WholeGraphTrainer
from repro.train.grad_sync import (
    GradSyncModel,
    assign_buckets,
    average_gradients,
    charge_allreduce,
)
from repro.train.pipeline import plan_grad_sync


class ToyModel(Module):
    """A module with arbitrary (uneven) parameter shapes."""

    def __init__(self, shapes, rng):
        super().__init__()
        for i, shape in enumerate(shapes):
            setattr(self, f"p{i}", Parameter(
                rng.standard_normal(shape).astype(np.float32)
            ))


def _replicas_with_grads(shapes, n, seed=0):
    """``n`` toy replicas, each holding its own random float32 gradients."""
    grad_rng = np.random.default_rng(seed + 999)
    models = [ToyModel(shapes, np.random.default_rng(seed)) for _ in range(n)]
    for m in models:
        for p in m.parameters():
            p.grad = grad_rng.standard_normal(p.data.shape).astype(np.float32)
    return models


def _one_rounding_mean(grads):
    """Literal reference: float64 sum, divide, round once to float32."""
    total = sum(
        np.zeros(1) if g is None else g.astype(np.float64) for g in grads
    )
    return (total / len(grads)).astype(np.float32)


# -- the one gradient average ------------------------------------------------------

@given(
    shapes=st.lists(
        st.tuples(st.integers(1, 12), st.integers(1, 12)),
        min_size=1, max_size=5,
    ),
    n=st.integers(2, 8),
    idle=st.integers(0, 7),
    seed=st.integers(0, 2**20),
)
@settings(max_examples=20)
def test_average_gradients_rounds_once(shapes, n, idle, seed):
    """Every replica gets the trained replicas' one-rounding mean, for
    every replica count (3 and 7 included) and every partial round."""
    models = _replicas_with_grads(shapes, n, seed)
    trained = models[: max(1, n - idle)]
    want = [
        _one_rounding_mean([m.parameters()[i].grad for m in trained])
        for i in range(len(shapes))
    ]
    average_gradients(models, trained)
    for m in models:
        for p, w in zip(m.parameters(), want):
            assert p.grad.dtype == np.float32
            assert np.array_equal(p.grad, w)


def test_bucketed_sync_handles_missing_grads():
    """A ``None`` gradient counts as zero in the average."""
    models = _replicas_with_grads([(3, 4), (7,), (2, 5)], 8)
    models[2].parameters()[1].grad = None
    want = [
        _one_rounding_mean([m.parameters()[i].grad for m in models])
        for i in range(3)
    ]
    average_gradients(models, models)
    for m in models:
        for p, w in zip(m.parameters(), want):
            assert np.array_equal(p.grad, w)


def _run_all_mode(dataset, overlap_grad_sync, bucket_cap_mb, epochs=2):
    store = MultiGpuGraphStore(SimNode(), dataset, seed=0)
    tr = WholeGraphTrainer(
        store, "graphsage", seed=0, batch_size=64, fanouts=[4],
        num_layers=1, hidden=16, lr=0.02, dropout=0.0,
        compute_ranks="all", bucket_cap_mb=bucket_cap_mb,
        overlap_grad_sync=overlap_grad_sync,
    )
    stats = [tr.train_epoch(max_iterations=2) for _ in range(epochs)]
    tr.plan.assert_in_sync()
    weights = [p.data.copy() for p in tr.model.parameters()]
    return stats, weights


def test_ddp_training_bit_identical_across_sync_schedules(small_dataset):
    """Multi-epoch DDP training: flat sequential sync vs bucketed +
    overlapped produce bit-identical weights and losses."""
    s_flat, w_flat = _run_all_mode(
        small_dataset, overlap_grad_sync=False, bucket_cap_mb=0.0
    )
    s_over, w_over = _run_all_mode(
        small_dataset, overlap_grad_sync=True, bucket_cap_mb=1e-4
    )
    for a, b in zip(s_flat, s_over):
        assert a.mean_loss == b.mean_loss  # bit-for-bit, not allclose
    assert all(np.array_equal(x, y) for x, y in zip(w_flat, w_over))
    # the overlapped run really hid comm behind backward...
    assert s_over[0].allreduce_hidden > 0
    # ...while the flat single-bucket run exposed everything
    assert s_flat[0].allreduce_hidden == 0


def test_cluster_training_bit_identical_across_sync_schedules(
    small_dataset, cluster_trainer
):
    def run(overlap_grad_sync, cap):
        tr = cluster_trainer(
            small_dataset, 2, "graphsage",
            seed=3, batch_size=32, fanouts=[4], hidden=16,
            bucket_cap_mb=cap, overlap_grad_sync=overlap_grad_sync,
        )
        stats = [tr.train_epoch(max_iterations=2) for _ in range(2)]
        tr.plan.assert_in_sync()
        weights = [p.data.copy() for p in tr.model.parameters()]
        return stats, weights

    s_flat, w_flat = run(False, 0.0)
    s_over, w_over = run(True, 1e-4)
    for a, b in zip(s_flat, s_over):
        assert a.mean_loss == b.mean_loss
    assert all(np.array_equal(x, y) for x, y in zip(w_flat, w_over))


def test_cluster_partial_round_averages_trained_replicas(
    small_dataset, cluster_trainer
):
    """3 machine nodes, 5 batches: the second round trains two replicas.
    Their gradients alone are averaged, and every replica gets the mean."""
    tr = cluster_trainer(
        small_dataset, 3, "graphsage", batch_size=32, fanouts=[4], hidden=16,
    )
    assert tr.store.train_nodes.shape[0] // tr.batch_size == 5
    plan = tr.plan
    rounds = []
    sync = plan.sync_gradients

    def recording_sync(*args, **kwargs):
        def grads():
            return [[p.grad.copy() for p in r.model.parameters()]
                    for r in plan.replicas]

        before = grads()
        sync(*args, **kwargs)
        rounds.append((before, grads()))

    plan.sync_gradients = recording_sync
    tr.train_epoch()
    assert len(rounds) == 2
    before, after = rounds[1]
    for i, (g0, g1) in enumerate(zip(before[0], before[1])):
        want = ((g0.astype(np.float64) + g1) / 2).astype(np.float32)
        for replica_grads in after:
            assert np.array_equal(replica_grads[i], want)
    plan.assert_in_sync()


# -- bucket assignment ---------------------------------------------------------------

def test_assign_buckets_flat_cap_is_single_bucket():
    nbytes = [40, 400, 4]
    assert assign_buckets(nbytes, 0.0) == [(2, 1, 0)]
    assert assign_buckets(nbytes, -1.0) == [(2, 1, 0)]


def test_assign_buckets_tiny_cap_is_one_per_param():
    buckets = assign_buckets([100, 200, 300], 1e-9)
    assert buckets == [(2,), (1,), (0,)]


def test_assign_buckets_partitions_reverse_order():
    nbytes = [10, 20, 30, 40, 50, 60]
    buckets = assign_buckets(nbytes, 80 / (1024 * 1024))
    flat = [i for b in buckets for i in b]
    assert flat == list(reversed(range(6)))  # reverse-parameter order
    assert sorted(flat) == list(range(6))  # exact partition
    for b in buckets[:-1]:  # every bucket obeys the cap (single-param over-
        assert sum(nbytes[i] for i in b) <= 80  # cap buckets excepted)


def test_assign_buckets_oversized_param_gets_own_bucket():
    buckets = assign_buckets([1000, 8], 16 / (1024 * 1024))
    assert buckets == [(1,), (0,)]


# -- the overlap schedule -------------------------------------------------------------

#: the block shapes of one sampled Table-5 GraphSage step (papers100M at
#: 40k nodes, batch 512, fanout 30), conv 0 first
TABLE5_SHAPES = [
    (39864, 40000, 1065824, 40000),
    (11920, 39864, 324573, 39864),
    (512, 11920, 13722, 11920),
]


def _table5_sage():
    return build_model(
        "graphsage", 128, 172, np.random.default_rng(0),
        hidden=256, num_layers=3,
    )


def _linear_offsets(nbytes, window):
    """Per-parameter ready offsets of a backward pass of ``window``
    seconds that produces gradients in reverse parameter order, linearly
    in cumulative bytes."""
    total = sum(nbytes)
    return [-window * (1 - sum(nbytes[i:]) / total)
            for i in range(len(nbytes))]


def test_plan_no_producers_fully_exposed():
    plan = plan_grad_sync([100, 100], [2e-6, 3e-6])
    assert plan.exposed == pytest.approx(plan.total_comm)
    assert plan.hidden == pytest.approx(0.0)
    assert plan.starts[0] == 0.0


def test_plan_zero_window_matches_flat():
    plan = plan_grad_sync([100, 100], [2e-6, 3e-6], [(0.0, [0.0, 0.0])])
    assert plan.exposed == pytest.approx(plan.total_comm)


def test_plan_big_window_exposes_only_last_bucket():
    times = [2e-6, 3e-6, 4e-6]
    plan = plan_grad_sync(
        [100, 100, 100], times, [(0.0, [-2 / 3, -1 / 3, 0.0])]
    )
    assert plan.exposed == pytest.approx(times[-1])
    assert plan.hidden == pytest.approx(sum(times[:-1]))


def test_plan_comm_stream_is_serial():
    plan = plan_grad_sync(
        [50, 100, 200], [1e-6, 2e-6, 3e-6], [(0.0, [-5e-6, -4e-6, 0.0])]
    )
    for j in range(1, plan.num_buckets):
        assert plan.starts[j] >= plan.ends[j - 1]
        assert plan.ends[j] == pytest.approx(
            plan.starts[j] + plan.bucket_times[j]
        )


def test_plan_slowest_producer_gates_launch():
    """A straggler replica delays every bucket's collective launch."""
    fast = plan_grad_sync([100, 100], [1e-6, 1e-6], [(0.0, [-5e-4, 0.0])])
    straggler = plan_grad_sync(
        [100, 100], [1e-6, 1e-6],
        [(0.0, [-5e-4, 0.0]), (0.0, [0.0, 0.0])],
    )
    assert straggler.exposed > fast.exposed
    assert straggler.exposed == pytest.approx(straggler.total_comm)


def test_grad_sync_model_overlap_reduces_exposed():
    node = SimNode()
    nbytes = [256 * 1024, 128 * 1024, 64 * 1024, 32 * 1024]
    flat = GradSyncModel(node, nbytes, bucket_cap_mb=0.0, overlap=False)
    over = GradSyncModel(node, nbytes, bucket_cap_mb=0.1, overlap=True)
    p_flat = flat.plan(None)
    p_over = over.plan([(0.0, _linear_offsets(nbytes, 2e-3))])
    assert p_flat.num_buckets == 1
    assert p_over.num_buckets > 1
    assert p_flat.exposed == pytest.approx(p_flat.total_comm)
    assert p_over.exposed < p_flat.exposed
    assert p_over.hidden > 0


def test_table5_config_exposed_comm_reduction():
    """The PR's acceptance criterion: on the Table-5 GraphSage model the
    bucketed + overlapped schedule cuts exposed all-reduce >= 30% versus
    the flat sequential sync, with each bucket ready at the cost ledger's
    offsets for one sampled Table-5 step."""
    node = SimNode()
    model = _table5_sage()
    nbytes = [p.data.nbytes for p in model.parameters()]
    offsets = model.step_costs(TABLE5_SHAPES).ready_offsets(1.0)
    flat = GradSyncModel(
        node, nbytes, bucket_cap_mb=0.0, overlap=False
    ).plan(None)
    over = GradSyncModel(node, nbytes).plan([(0.0, offsets)])
    assert over.exposed <= 0.7 * flat.exposed


def test_ledger_readiness_exposes_only_conv0_first_weight():
    """On a 3-layer GraphSage only the last bucket is exposed: it holds
    conv 0's first weight, whose gradient the backward pass produces last.
    A producer whose backward ends later gates every launch, and
    ``overlap_grad_sync=False`` exposes the whole transfer."""
    model = _table5_sage()
    nbytes = [p.data.nbytes for p in model.parameters()]
    offsets = model.step_costs(TABLE5_SHAPES).ready_offsets(1.0)
    sync = GradSyncModel(SimNode(), nbytes)
    plan = sync.plan([(0.0, offsets)])
    assert sync.buckets[-1] == (0,)
    assert plan.exposed == pytest.approx(plan.bucket_times[-1])
    assert all(end <= 0.0 for end in plan.ends[:-1])
    # a replica finishing its backward 1 ms earlier changes nothing; one
    # whose gradients are all ready only at the sync point gates them all
    both = sync.plan([(-1e-3, offsets), (0.0, offsets)])
    assert both.starts == plan.starts
    skewed = sync.plan([(0.0, offsets), (0.0, [0.0] * len(offsets))])
    assert skewed.exposed == pytest.approx(skewed.total_comm)

    node = SimNode()
    flat = GradSyncModel(node, nbytes, overlap=False)
    charged = flat.charge([(node.gpu_clock[0].now, offsets)])
    assert charged.exposed == pytest.approx(charged.total_comm)
    assert charged.num_buckets == sync.num_buckets


# -- collective barrier semantics ---------------------------------------------------

def test_allreduce_straggler_stall_is_distinct_phase():
    node = SimNode()
    comm = Communicator(node)
    skew = 5e-6
    node.gpu_clock[3].advance(skew, phase="train")
    comm.allreduce([np.ones(1024, np.float32)] * node.num_gpus)
    dev0 = node.gpu_clock[0].device
    dev3 = node.gpu_clock[3].device
    # the on-time ranks stall exactly the skew, as their own phase
    assert node.timeline.phase_total("allreduce_wait", dev0) == (
        pytest.approx(skew)
    )
    assert node.timeline.phase_total("allreduce_wait", dev3) == 0.0
    assert node.timeline.phase_total("allreduce", dev0) > 0
    # everyone leaves the collective together
    assert len({round(c.now, 12) for c in node.gpu_clock}) == 1


def test_charge_allreduce_barrier_before_transfer():
    node = SimNode()
    skew = 2e-6
    node.gpu_clock[5].advance(skew, phase="train")
    t = charge_allreduce(node, 4 * 1024 * 1024)
    assert all(c.now == pytest.approx(skew + t) for c in node.gpu_clock)
    dev0 = node.gpu_clock[0].device
    assert node.timeline.phase_total("allreduce_wait", dev0) == (
        pytest.approx(skew)
    )


def test_grad_sync_charge_barrier_and_nccl_lane():
    node = SimNode()
    sync = GradSyncModel(node, [64 * 1024] * 4, bucket_cap_mb=0.05)
    for i, clock in enumerate(node.gpu_clock):
        clock.advance(1e-3 + (1e-6 if i == 0 else 0.0), phase="train")
    plan = sync.charge(
        [(node.gpu_clock[0].now, _linear_offsets([64 * 1024] * 4, 1e-3))]
    )
    # stragglers aligned, exposed tail charged to everyone
    assert len({round(c.now, 12) for c in node.gpu_clock}) == 1
    dev1 = node.gpu_clock[1].device
    assert node.timeline.phase_total("allreduce_wait", dev1) == (
        pytest.approx(1e-6)
    )
    # the bucket-by-bucket schedule lands on the nccl comm-stream lane
    lane = node.gpu_clock[0].device + "/nccl"
    spans = [s for s in node.timeline.spans if s.device == lane]
    assert len(spans) == plan.num_buckets
    assert all(s.phase == "allreduce_bucket" for s in spans)
    assert any(s.args.get("hidden") for s in spans)
