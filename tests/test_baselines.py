"""DGL-like / PyG-like host pipelines: functionality and cost architecture."""

import numpy as np
import pytest

from repro.baselines import (
    CpuBaselineTrainer,
    DGL_PROFILE,
    HostGraphStore,
    PYG_PROFILE,
    profile_by_name,
)
from repro.hardware import SimNode


def make_baseline(dataset, framework="DGL", **kw):
    node = SimNode()
    store = HostGraphStore(node, dataset)
    defaults = dict(seed=0, batch_size=32, fanouts=[5, 5], hidden=16,
                    num_layers=2, lr=0.02, dropout=0.0)
    defaults.update(kw)
    return CpuBaselineTrainer(store, profile_by_name(framework),
                              "graphsage", **defaults)


def test_profiles_lookup():
    assert profile_by_name("dgl") is DGL_PROFILE
    assert profile_by_name("PyG") is PYG_PROFILE
    with pytest.raises(KeyError):
        profile_by_name("neugraph")


def test_profiles_encode_paper_ordering():
    # PyG's host pipeline is the slower of the two (Table V)
    assert PYG_PROFILE.sample_edges_per_s < DGL_PROFILE.sample_edges_per_s
    assert PYG_PROFILE.gather_bytes_per_s < DGL_PROFILE.gather_bytes_per_s
    assert PYG_PROFILE.layer_cost_factor > DGL_PROFILE.layer_cost_factor > 1.0


def test_host_store_views(small_dataset):
    store = HostGraphStore(SimNode(), small_dataset)
    assert store.num_nodes == small_dataset.num_nodes
    assert store.feature_dim == small_dataset.features.shape[1]
    nodes = np.array([0, 5, 9])
    assert np.array_equal(
        store.gather_features_host(nodes), small_dataset.features[nodes]
    )


def test_baseline_training_converges(small_dataset):
    tr = make_baseline(small_dataset)
    first = tr.train_epoch().mean_loss
    for _ in range(7):
        last = tr.train_epoch().mean_loss
    assert last < first
    assert tr.evaluate() > 0.85


def test_baseline_subgraph_matches_host_graph(small_dataset, rng):
    tr = make_baseline(small_dataset)
    sg = tr.sampler.sample(small_dataset.train_nodes[:16], 0, rng)
    sg.validate_prefix_property()
    blk = sg.blocks[0]
    for i in range(blk.num_targets):
        nbrs = set(small_dataset.graph.neighbors(sg.frontiers[0][i]).tolist())
        for e in range(blk.indptr[i], blk.indptr[i + 1]):
            assert sg.frontiers[1][blk.indices[e]] in nbrs


def test_baseline_gpu_idles_during_host_phases(small_dataset):
    """The Fig. 12 mechanism: GPU waits through sample+gather."""
    tr = make_baseline(small_dataset)
    tr.node.reset_clocks()
    tr.train_epoch(max_iterations=2)
    device = tr.node.gpu_memory[0].device
    spans = tr.node.timeline.device_spans(device)
    wait_time = sum(s.duration for s in spans if not s.busy)
    busy_time = sum(s.duration for s in spans if s.busy)
    assert wait_time > busy_time  # data path dominates


def test_baseline_sample_gather_dominate(small_dataset):
    stats = make_baseline(small_dataset).train_epoch(max_iterations=2)
    data_path = stats.times.sample + stats.times.gather
    assert data_path > stats.times.train


def test_pyg_slower_than_dgl_on_same_work(small_dataset):
    dgl = make_baseline(small_dataset, "DGL").train_epoch(max_iterations=2)
    pyg = make_baseline(small_dataset, "PyG").train_epoch(max_iterations=2)
    assert pyg.epoch_time > dgl.epoch_time


def test_baseline_host_clock_charged(small_dataset):
    tr = make_baseline(small_dataset)
    tr.node.reset_clocks()
    tr.train_epoch(max_iterations=1)
    breakdown = tr.node.timeline.phase_breakdown(tr.node.host_clock.device)
    assert breakdown.get("host_sample", 0) > 0
    assert breakdown.get("host_gather", 0) > 0
