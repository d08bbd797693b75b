"""Extensions: host-pinned storage, link prediction, multi-node cluster
training."""

import tracemalloc

import numpy as np
import pytest

from repro.dsm import TieredTensor
from repro.graph import MultiGpuGraphStore, load_dataset
from repro.graph.csr import CSRGraph
from repro.hardware import SimNode
from repro.nn import Tensor
from repro.nn import functional as F
from repro.ops.negative_sampling import (
    edges_exist,
    sample_negative_edges,
    sample_positive_edges,
)
from repro.train.metrics import roc_auc
from tests.test_nn_tensor import numeric_grad


# -- host-pinned storage ------------------------------------------------------------

def test_host_pinned_gather_correct(rng):
    node = SimNode()
    t = TieredTensor(node, 300, 4, host_pinned_fraction=1.0)
    host = rng.standard_normal((300, 4)).astype(np.float32)
    t.load_from_host(host)
    rows = np.array([0, 299, 17])
    assert np.array_equal(t.gather(rows, 0), host[rows])
    assert np.array_equal(t.gather_no_cost(rows), host[rows])
    with pytest.raises(IndexError):
        t.gather(np.array([300]), 0)


def test_host_pinned_much_slower_than_device(rng):
    """The §III-B bandwidth argument measured through the gather path."""
    from repro.dsm import WholeTensor

    node = SimNode()
    host_t = TieredTensor(node, 10_000, 128, host_pinned_fraction=1.0)
    dev_t = WholeTensor(node, 10_000, 128, charge_setup=False)
    rows = rng.integers(0, 10_000, size=5000)
    node.reset_clocks()
    host_t.gather(rows, 0)
    t_host = node.gpu_clock[0].now
    node.reset_clocks()
    dev_t.gather(rows, 0)
    t_dev = node.gpu_clock[0].now
    assert t_host > 5 * t_dev


def test_host_pinned_accounting_on_host_ledger():
    node = SimNode()
    TieredTensor(node, 100, 8, tag="feature", host_pinned_fraction=1.0)
    assert node.host_memory.usage_by_tag()["feature"] == 100 * 8 * 4
    assert node.total_memory_usage() == 0  # no GPU memory used


def test_store_feature_location_host(small_dataset):
    node = SimNode()
    store = MultiGpuGraphStore(node, small_dataset, seed=0,
                               tier="host_pinned")
    s = np.array([0, 7])
    got = store.gather_features(s, 0)
    orig = store.partition.to_original[s]
    assert np.allclose(got, small_dataset.features[orig])
    with pytest.raises(ValueError):
        MultiGpuGraphStore(node, small_dataset, tier="floppy")


def test_trainer_runs_on_host_pinned_store(small_dataset):
    from repro.train import WholeGraphTrainer

    node = SimNode()
    store = MultiGpuGraphStore(node, small_dataset, seed=0,
                               tier="host_pinned")
    tr = WholeGraphTrainer(store, "gcn", seed=0, batch_size=32,
                           fanouts=[5], hidden=8, lr=0.02, dropout=0.0)
    stats = tr.train_epoch(max_iterations=2)
    assert np.isfinite(stats.mean_loss)


# -- link prediction pieces --------------------------------------------------------------

def test_edges_exist_matches_truth(small_dataset, rng):
    g = small_dataset.graph
    # positives must exist
    src, dst = sample_positive_edges(g, 200, rng)
    assert edges_exist(g, src, dst).all()
    # known non-edge: a node paired with itself is never an edge (self
    # loops removed by the builder)
    ids = rng.integers(0, g.num_nodes, size=100)
    assert not edges_exist(g, ids, ids).any()


def test_negative_edges_are_non_edges(small_dataset, rng):
    g = small_dataset.graph
    src, dst = sample_negative_edges(g, 300, rng)
    assert not edges_exist(g, src, dst).any()
    assert np.all(src != dst)


def test_edges_exist_needs_no_row_sort(small_dataset, rng):
    g = small_dataset.graph
    # sort every neighbor list descending, so no row is ascending, and
    # compare with every list sorted ascending
    rows = np.repeat(np.arange(g.num_nodes), np.diff(g.indptr))
    shuffled = CSRGraph(g.indptr, g.indices[np.lexsort((-g.indices, rows))],
                        num_nodes=g.num_nodes)
    ascending = CSRGraph(g.indptr, g.indices[np.lexsort((g.indices, rows))],
                         num_nodes=g.num_nodes)
    src = rng.integers(0, g.num_nodes, size=500)
    dst = rng.integers(0, g.num_nodes, size=500)
    src[:250], dst[:250] = sample_positive_edges(g, 250, rng)
    assert np.array_equal(edges_exist(shuffled, src, dst),
                          edges_exist(ascending, src, dst))


def _negative_edges_reference(csr, num_samples, rng, max_rounds=32):
    """Rejection sampling against a Python set of the graph's edges."""
    rows = np.repeat(np.arange(csr.num_nodes), np.diff(csr.indptr))
    edges = set(zip(rows.tolist(), csr.indices.tolist()))
    src = rng.integers(0, csr.num_nodes, size=num_samples).astype(np.int64)
    dst = rng.integers(0, csr.num_nodes, size=num_samples).astype(np.int64)
    for _ in range(max_rounds):
        bad = np.array([a == b or (a, b) in edges
                        for a, b in zip(src.tolist(), dst.tolist())],
                       dtype=bool)
        if not bad.any():
            return src, dst
        src[bad] = rng.integers(0, csr.num_nodes, size=int(bad.sum()))
        dst[bad] = rng.integers(0, csr.num_nodes, size=int(bad.sum()))
    raise RuntimeError("too dense")


def test_negative_sampling_sorts_each_graph_once(small_dataset):
    """The edge keys are sorted on a graph's first batch only: every later
    batch allocates far less than one edge-sized array.  The draws and
    pairs are those of plain rejection sampling."""
    g = small_dataset.graph
    fresh = CSRGraph(g.indptr, g.indices, num_nodes=g.num_nodes)
    got_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    for call in range(3):
        tracemalloc.start()
        try:
            got = sample_negative_edges(fresh, 400, got_rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if call:
            assert peak < 8 * fresh.num_edges // 4
        ref = _negative_edges_reference(fresh, 400, ref_rng)
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])
    assert got_rng.random() == ref_rng.random()


def test_positive_edge_sampling_valid(small_dataset, rng):
    g = small_dataset.graph
    src, dst = sample_positive_edges(g, 100, rng)
    for s, d in zip(src[:20], dst[:20]):
        assert d in set(g.neighbors(s).tolist())


def test_pairwise_dot_grad(rng):
    h = rng.standard_normal((6, 4)).astype(np.float32)
    left = np.array([0, 2, 2])
    right = np.array([1, 3, 5])

    def build(t):
        return (F.pairwise_dot(t, left, right) ** 2.0).sum()

    t = Tensor(h, requires_grad=True)
    build(t).backward()
    num = numeric_grad(lambda: float(build(Tensor(h)).data), h)
    assert np.allclose(t.grad, num, atol=2e-2)


def test_bce_with_logits_matches_manual(rng):
    z = rng.standard_normal(50).astype(np.float32)
    y = (rng.random(50) > 0.5).astype(np.float32)
    loss = F.binary_cross_entropy_with_logits(Tensor(z), y)
    p = 1 / (1 + np.exp(-z))
    manual = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
    assert float(loss.data) == pytest.approx(manual, abs=1e-5)


def test_bce_grad(rng):
    z = rng.standard_normal(20).astype(np.float32)
    y = (rng.random(20) > 0.5).astype(np.float32)
    t = Tensor(z, requires_grad=True)
    F.binary_cross_entropy_with_logits(t, y).backward()
    num = numeric_grad(
        lambda: float(
            F.binary_cross_entropy_with_logits(Tensor(z), y).data
        ),
        z,
    )
    assert np.allclose(t.grad, num, atol=1e-2)


def test_roc_auc_extremes():
    assert roc_auc([0.1, 0.9], [0, 1]) == 1.0
    assert roc_auc([0.9, 0.1], [0, 1]) == 0.0
    assert roc_auc([0.5, 0.5], [0, 1]) == pytest.approx(0.5)
    assert roc_auc([1.0], [1]) == 0.5  # degenerate: single class


def test_roc_auc_matches_brute_force(rng):
    scores = rng.random(60)
    labels = rng.random(60) > 0.6
    pos, neg = scores[labels], scores[~labels]
    brute = np.mean([
        1.0 if p > n else (0.5 if p == n else 0.0)
        for p in pos for n in neg
    ])
    assert roc_auc(scores, labels) == pytest.approx(brute, abs=1e-9)


# -- multi-node cluster training --------------------------------------------------------------

@pytest.fixture(scope="module")
def cluster_dataset():
    return load_dataset("ogbn-products", num_nodes=1500, seed=9,
                        feature_dim=8, num_classes=4)


def test_cluster_replicas_stay_in_sync(cluster_dataset, cluster_trainer):
    tr = cluster_trainer(cluster_dataset, 2, "gcn", seed=0, batch_size=32,
                         fanouts=[4], hidden=8, lr=0.02, dropout=0.0)
    tr.train_epoch(max_iterations=2)
    tr.plan.assert_in_sync()


def test_cluster_two_nodes_faster_than_one(cluster_dataset, cluster_trainer):
    t1 = cluster_trainer(cluster_dataset, 1, "gcn", seed=0, batch_size=32,
                         fanouts=[4], hidden=8, lr=0.02, dropout=0.0)
    t2 = cluster_trainer(cluster_dataset, 2, "gcn", seed=0, batch_size=32,
                         fanouts=[4], hidden=8, lr=0.02, dropout=0.0)
    e1 = t1.train_epoch().epoch_time
    e2 = t2.train_epoch().epoch_time
    assert e2 < e1


def test_cluster_training_converges(cluster_dataset, cluster_trainer):
    tr = cluster_trainer(cluster_dataset, 2, "graphsage", seed=0,
                         batch_size=32, fanouts=[5, 5], hidden=16, lr=0.02,
                         dropout=0.0)
    for _ in range(6):
        stats = tr.train_epoch()
    assert tr.evaluate() > 0.8
    assert stats.mean_loss < 1.0


def test_cluster_rejects_zero_nodes(cluster_dataset, cluster_trainer):
    with pytest.raises(ValueError):
        cluster_trainer(cluster_dataset, 0, "gcn")
