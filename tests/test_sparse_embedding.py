"""The correctness wall around the sparse-embedding recsys workload.

Three layers of bit-identity, all exact (``np.array_equal``, no tolerances):

1. **optimizer arithmetic** — SparseAdam / SparseSGD applied to an
   embedding's touched rows must match the dense :class:`~repro.nn.optim`
   optimizers stepping a one-row parameter over that row's touch
   subsequence, on hypothesis-generated touch patterns;
2. **trainer trajectories** — link prediction on one node and over a
   cluster plan must produce bitwise-identical losses, weights and
   embedding tables (the cluster runs replicated global batches, and its
   float64 gradient averaging is exact on identical replicas);
3. **chaos** — transient fault plans (stragglers, degraded links, lost
   gather replies) may only cost simulated *time*: the trained state must
   be byte-for-byte the state of a fault-free run.

Plus the telemetry contract: sparse row-grad pushes land as ``embed_grad``
spans on the comm-stream lane whose args reconcile exactly with the
``embedding_rows_touched_total`` / byte ledgers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dsm.sparse_embedding import WholeEmbedding, dedup_row_grads
from repro.graph import MultiGpuGraphStore
from repro.hardware import SimNode, dgx_a100
from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam
from repro.nn.sparse_optim import (
    RowGrads,
    SparseAdam,
    SparseSGD,
    average_row_grads,
)
from repro.train.plans import ClusterDataParallelPlan
from repro.train.trainer import WholeGraphTrainer

# -- helpers ------------------------------------------------------------------------


def _row_touches(history):
    """Map row -> ordered list of applied (averaged, deduped) grads."""
    touches: dict[int, list[np.ndarray]] = {}
    for step in history:
        rows, grads = step[0]
        for idx, row in enumerate(rows):
            touches.setdefault(int(row), []).append(grads[idx].copy())
    return touches


def _replay_dense(w0_row: np.ndarray, grads, make_opt) -> np.ndarray:
    """Dense-optimizer replay of one row's touch subsequence."""
    p = Parameter(w0_row.reshape(1, -1).copy())
    opt = make_opt([p])
    for g in grads:
        p.grad = g.reshape(1, -1).astype(np.float32)
        opt.step()
    return p.data.reshape(-1)


def _assert_replay_matches(embedding, w0, history, make_opt):
    """Every row of ``embedding`` equals its dense per-row replay."""
    final = embedding.state_dict()
    touches = _row_touches(history)
    assert touches, "history recorded no touched rows"
    for row, grads in touches.items():
        expected = _replay_dense(w0[row], grads, make_opt)
        assert np.array_equal(final[row], expected), f"row {row} diverged"
    untouched = np.setdiff1d(
        np.arange(embedding.num_rows), np.fromiter(touches, dtype=np.int64)
    )
    assert np.array_equal(final[untouched], w0[untouched])


def _linkpred_trainer(dataset, **kw):
    node = SimNode(node_id=0)
    store = MultiGpuGraphStore(node, dataset, seed=0)
    defaults = dict(
        seed=0, batch_size=64, task="linkpred", num_pairs=64,
        hidden=32, num_layers=2, lr=1e-2,
    )
    defaults.update(kw)
    return WholeGraphTrainer(store, "sage", **defaults)


# -- 1. optimizer arithmetic (hypothesis) -------------------------------------------

sparse_optim_cases = st.tuples(
    st.integers(min_value=4, max_value=40),        # num_rows
    st.integers(min_value=1, max_value=8),         # dim
    st.integers(min_value=1, max_value=6),         # steps
    st.sampled_from([1e-3, 1e-2, 0.1]),            # lr
    st.sampled_from([0.0, 0.01]),                  # weight decay
    st.integers(min_value=0, max_value=2**31),     # seed
)


def _run_sparse_steps(node, optimizer_cls, num_rows, dim, steps, rng, **kw):
    """Drive ``steps`` optimizer steps with random duplicated touches.

    Returns ``(embedding, w0, history)`` — the optimizer's recorded history
    holds the applied per-step deduplicated grads for the dense replay.
    """
    emb = WholeEmbedding(node, num_rows, dim, charge_setup=False)
    w0 = (rng.standard_normal((num_rows, dim)) * 0.5).astype(np.float32)
    emb.load_state_dict(w0)
    opt = optimizer_cls([emb], charge_setup=False, **kw)
    opt.record_history = True
    for _ in range(steps):
        n = int(rng.integers(1, 12))
        rows = rng.integers(0, num_rows, size=n).astype(np.int64)
        grads = rng.standard_normal((n, dim)).astype(np.float32)
        emb._pending.append((rows, grads))
        opt.step(charge=False)
    return emb, w0, opt.history


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sparse_optim_cases)
def test_sparse_adam_matches_dense_rowwise(record_rng_seed, case):
    num_rows, dim, steps, lr, wd, seed = case
    rng = record_rng_seed(seed)
    node = SimNode()
    emb, w0, history = _run_sparse_steps(
        node, SparseAdam, num_rows, dim, steps, rng,
        lr=lr, weight_decay=wd,
    )
    _assert_replay_matches(
        emb, w0, history, lambda ps: Adam(ps, lr=lr, weight_decay=wd)
    )


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sparse_optim_cases, st.sampled_from([0.0, 0.9]))
def test_sparse_sgd_matches_dense_rowwise(record_rng_seed, case, momentum):
    num_rows, dim, steps, lr, wd, seed = case
    rng = record_rng_seed(seed)
    node = SimNode()
    emb, w0, history = _run_sparse_steps(
        node, SparseSGD, num_rows, dim, steps, rng,
        lr=lr, weight_decay=wd, momentum=momentum,
    )
    _assert_replay_matches(
        emb, w0, history,
        lambda ps: SGD(ps, lr=lr, weight_decay=wd, momentum=momentum),
    )


def test_sparse_adam_per_row_step_counts(node):
    """A row skipped for k steps is bias-corrected by its own count."""
    emb = WholeEmbedding(node, 4, 2, charge_setup=False)
    emb.load_state_dict(np.ones((4, 2), dtype=np.float32))
    opt = SparseAdam([emb], lr=1e-2, charge_setup=False)
    g = np.full((1, 2), 0.5, dtype=np.float32)
    # row 0 touched 3x, row 3 touched once (on the last step)
    for rows in ([0], [0], [0, 3]):
        emb._pending.append((np.asarray(rows, dtype=np.int64),
                             np.repeat(g, len(rows), axis=0)))
        opt.step(charge=False)
    t = opt._t[0].gather_no_cost(np.arange(4))
    assert t.reshape(-1).tolist() == [3, 0, 0, 1]
    # row 3's single update equals a dense Adam's t=1 update
    p = Parameter(np.ones((1, 2), dtype=np.float32))
    dense = Adam([p], lr=1e-2)
    p.grad = g.copy()
    dense.step()
    assert np.array_equal(emb.read_rows(np.array([3]))[0], p.data[0])


# -- forward/backward plumbing -------------------------------------------------------


def test_forward_backward_records_row_grads(node):
    emb = WholeEmbedding(node, 50, 4, charge_setup=False)
    base = np.zeros((50, 4), dtype=np.float32)
    emb.load_state_dict(base)
    rows = np.array([7, 3, 7, 49], dtype=np.int64)
    out = emb.forward(rows, charge=False)
    (out * 2.0).sum().backward()
    urows, grads, raw, atomic = emb.collect_row_grads()
    assert urows.tolist() == [3, 7, 49]
    assert raw == 4 and atomic == 2  # the duplicated 7s collide
    expected = np.array([[2.0] * 4, [4.0] * 4, [2.0] * 4], dtype=np.float32)
    assert np.array_equal(grads, expected)
    assert not emb.has_pending_grads


def test_multiple_forwards_accumulate_before_step(node):
    emb = WholeEmbedding(node, 10, 2, charge_setup=False)
    emb.load_state_dict(np.zeros((10, 2), dtype=np.float32))
    for rows in ([1, 2], [2, 3]):
        out = emb.forward(np.asarray(rows, dtype=np.int64), charge=False)
        out.sum().backward()
    urows, grads, raw, atomic = emb.collect_row_grads()
    assert urows.tolist() == [1, 2, 3]
    assert np.array_equal(
        grads, np.array([[1, 1], [2, 2], [1, 1]], dtype=np.float32)
    )
    assert raw == 4 and atomic == 2


def test_average_row_grads_identity_on_identical_replicas(seeded_rng):
    """Averaging N identical float32 row grads is bitwise exact."""
    rows = np.array([2, 5, 9], dtype=np.int64)
    grads = seeded_rng.standard_normal((3, 4)).astype(np.float32)
    part = [RowGrads(rows=rows, grads=grads.copy(), raw_rows=5,
                     atomic_rows=2)]
    for n in (2, 3, 5):
        out = average_row_grads([part] * n)
        assert np.array_equal(out[0].grads, grads)
        assert np.array_equal(out[0].rows, rows)


# -- 2. trainer trajectories ---------------------------------------------------------


def test_trainer_sparse_adam_matches_dense_replay(bipartite_dataset):
    """3 epochs of single-node linkpred == dense per-row Adam replay."""
    tr = _linkpred_trainer(bipartite_dataset)
    w0 = tr.embedding.state_dict()
    tr.sparse_optimizer.record_history = True
    for _ in range(3):
        tr.train_epoch()
    _assert_replay_matches(
        tr.embedding, w0, tr.sparse_optimizer.history,
        lambda ps: Adam(ps, lr=1e-2),
    )


def test_trainer_sparse_sgd_matches_dense_replay(bipartite_dataset):
    tr = _linkpred_trainer(bipartite_dataset, sparse_optimizer="sgd")
    w0 = tr.embedding.state_dict()
    tr.sparse_optimizer.record_history = True
    for _ in range(3):
        tr.train_epoch()
    _assert_replay_matches(
        tr.embedding, w0, tr.sparse_optimizer.history,
        lambda ps: SGD(ps, lr=1e-2),
    )


def test_cluster_sparse_adam_matches_dense_replay(bipartite_dataset):
    """3 epochs of 2-machine cluster linkpred == dense per-row replay."""
    ct = _linkpred_trainer(bipartite_dataset,
                           plan=ClusterDataParallelPlan(2))
    w0 = ct.embedding.state_dict()
    ct.sparse_optimizer.record_history = True
    for _ in range(3):
        ct.train_epoch()
    _assert_replay_matches(
        ct.embedding, w0, ct.sparse_optimizer.history,
        lambda ps: Adam(ps, lr=1e-2),
    )


@pytest.mark.parametrize("num_machines", [2, 3])
def test_single_node_vs_cluster_bit_identity(bipartite_dataset,
                                             num_machines):
    """Replicated cluster linkpred is bitwise the single-node trajectory."""
    tr = _linkpred_trainer(bipartite_dataset)
    ct = _linkpred_trainer(bipartite_dataset,
                           plan=ClusterDataParallelPlan(num_machines))
    for _ in range(3):
        single = tr.train_epoch()
        cluster = ct.train_epoch()
        # losses agree bitwise, not approximately
        assert single.mean_loss == cluster.mean_loss
        assert single.iterations == cluster.iterations
    ct.plan.assert_in_sync()
    assert np.array_equal(
        tr.embedding.state_dict(), ct.embedding.state_dict()
    )
    for a, b in zip(tr.model.parameters(), ct.model.parameters()):
        assert np.array_equal(a.data, b.data)
    assert tr.evaluate_linkpred(num_pairs=500) == ct.evaluate_linkpred(
        num_pairs=500
    )


def test_linkpred_auc_floor(bipartite_dataset):
    """Acceptance: link prediction learns the planted taste communities."""
    tr = _linkpred_trainer(bipartite_dataset, batch_size=32, num_pairs=256)
    aucs = []
    for _ in range(8):
        tr.train_epoch()
        aucs.append(tr.evaluate_linkpred(num_pairs=1000))
    assert aucs[-1] >= 0.85, aucs
    assert aucs[-1] > aucs[0]


# -- 3. chaos: transient faults change time, never math ------------------------------


def test_transient_faults_bit_identical_single_node(bipartite_dataset,
                                                    transient_plan):
    clean = _linkpred_trainer(bipartite_dataset)
    chaos = _linkpred_trainer(bipartite_dataset,
                              fault_plan=transient_plan())
    clean_stats = [clean.train_epoch(max_iterations=4) for _ in range(2)]
    chaos_stats = [chaos.train_epoch(max_iterations=4) for _ in range(2)]
    assert [s.mean_loss for s in clean_stats] == [
        s.mean_loss for s in chaos_stats
    ]
    assert np.array_equal(
        clean.embedding.state_dict(), chaos.embedding.state_dict()
    )
    for a, b in zip(clean.model.parameters(), chaos.model.parameters()):
        assert np.array_equal(a.data, b.data)
    # the faults cost real simulated time
    assert sum(s.epoch_time for s in chaos_stats) > sum(
        s.epoch_time for s in clean_stats
    )
    assert clean.evaluate_linkpred() == chaos.evaluate_linkpred()


def test_transient_faults_bit_identical_cluster(bipartite_dataset,
                                                transient_plan):
    clean = _linkpred_trainer(bipartite_dataset,
                              plan=ClusterDataParallelPlan(2))
    chaos = _linkpred_trainer(bipartite_dataset,
                              fault_plan=transient_plan(),
                              plan=ClusterDataParallelPlan(2))
    clean_stats = [clean.train_epoch(max_iterations=3) for _ in range(2)]
    chaos_stats = [chaos.train_epoch(max_iterations=3) for _ in range(2)]
    assert [s.mean_loss for s in clean_stats] == [
        s.mean_loss for s in chaos_stats
    ]
    assert np.array_equal(
        clean.embedding.state_dict(), chaos.embedding.state_dict()
    )
    chaos.plan.assert_in_sync()


def test_linkpred_rejects_rank_failure_plans(bipartite_dataset):
    from repro.faults import FaultPlan, RankFailure

    plan = FaultPlan(events=[RankFailure(rank=0, time=1.0)])
    with pytest.raises(ValueError, match="transient"):
        _linkpred_trainer(bipartite_dataset, fault_plan=plan)
    with pytest.raises(ValueError, match="transient"):
        _linkpred_trainer(bipartite_dataset, fault_plan=plan,
                          plan=ClusterDataParallelPlan(2))


# -- the telemetry contract ----------------------------------------------------------


def test_embedding_invisible_to_dense_grad_sync(bipartite_dataset):
    """The table is not a Parameter: grad-sync buckets only cover the
    dense encoder, and the sparse rows ride the comm lane separately."""
    tr = _linkpred_trainer(bipartite_dataset)
    dense_nbytes = sum(p.data.nbytes for p in tr.model.parameters())
    assert tr.embedding.total_bytes > 0
    assert sum(tr.grad_sync.param_nbytes) == dense_nbytes
    params = {id(p) for p in tr.model.parameters()}
    assert id(tr.embedding) not in params
    assert id(tr.embedding.table) not in params


def test_embed_grad_spans_reconcile_with_metrics(bipartite_dataset,
                                                 registry):
    """Comm-lane span args == metrics ledger == embedding grad stats."""
    tr = _linkpred_trainer(bipartite_dataset)
    tr.train_epoch(max_iterations=4)
    lane = tr.node.gpu_clock[0].device + "/nccl"
    spans = [
        s for s in tr.node.timeline.spans
        if s.device == lane and s.phase == "embed_grad"
    ]
    assert spans, "no embed_grad spans on the comm lane"
    span_rows = sum(s.args["rows"] for s in spans)
    span_bytes = sum(s.args["nbytes"] for s in spans)
    stats = tr.embedding.grad_stats
    assert span_rows == stats["rows_touched"]
    assert span_bytes == stats["grad_bytes"]
    assert span_rows == registry.total("embedding_rows_touched_total")
    # the per-link embedding ledger covers forward gathers + grad pushes
    link_bytes = registry.total("embedding_link_bytes_total")
    assert link_bytes == (
        tr.embedding.table.stats["gather_bytes"] + stats["grad_bytes"]
    )
    assert stats["steps"] == len(spans)


# -- lifecycle -----------------------------------------------------------------------


def test_rebuild_on_preserves_rows(seeded_rng):
    node8 = SimNode()
    emb = WholeEmbedding(node8, 33, 4, charge_setup=False)
    w = seeded_rng.standard_normal((33, 4)).astype(np.float32)
    emb.load_state_dict(w)
    for num_gpus in (4, 3, 1):
        shrunk = SimNode(dgx_a100(num_gpus))
        clone = emb.rebuild_on(shrunk, charge_setup=False)
        assert np.array_equal(clone.state_dict(), w)


def test_state_dict_roundtrip(node, seeded_rng):
    emb = WholeEmbedding(node, 20, 3, charge_setup=False)
    w = seeded_rng.standard_normal((20, 3)).astype(np.float32)
    emb.load_state_dict(w)
    assert np.array_equal(emb.state_dict(), w)


def test_dedup_row_grads_empty_and_single():
    u, s, c = dedup_row_grads(
        np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.float32)
    )
    assert u.size == 0 and s.shape == (0, 2) and c.size == 0
    u, s, c = dedup_row_grads(
        np.array([5]), np.array([[1.0, 2.0]], dtype=np.float32)
    )
    assert u.tolist() == [5] and np.array_equal(
        s, np.array([[1.0, 2.0]], dtype=np.float32)
    )
