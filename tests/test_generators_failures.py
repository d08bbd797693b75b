"""Synthetic-generator statistics and failure-injection tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import MultiGpuGraphStore, load_dataset
from repro.graph.generators import (
    block_labels,
    class_features,
    homophilous_edges,
    random_features,
    rmat_edges,
)
from repro.hardware import SimNode
from repro.hardware.memory import OutOfDeviceMemory
from repro.hardware.spec import NodeSpec, dgx_a100
from repro.utils.rng import spawn_rng


# -- generator statistics -----------------------------------------------------------

def test_rmat_degrees_heavy_tailed():
    rng = spawn_rng(0, "rmat")
    src, dst = rmat_edges(4096, 80_000, rng)
    deg = np.bincount(src, minlength=4096)
    # a heavy tail: max degree far above the mean, many zero-degree nodes
    assert deg.max() > 10 * deg.mean()
    assert (deg == 0).sum() > 100


def test_rmat_endpoints_in_range():
    rng = spawn_rng(1, "rmat")
    src, dst = rmat_edges(1000, 5000, rng)  # non-power-of-two folding
    assert src.min() >= 0 and src.max() < 1000
    assert dst.min() >= 0 and dst.max() < 1000


def test_rmat_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        rmat_edges(10, 10, spawn_rng(0, "x"), a=0.6, b=0.3, c=0.3)


def test_homophilous_edges_mostly_intra_class():
    rng = spawn_rng(2, "homo")
    num_classes = 8
    src, dst = homophilous_edges(8000, 50_000, num_classes, rng,
                                 homophily=0.8)
    labels = block_labels(8000, num_classes)
    intra = np.mean(labels[src] == labels[dst])
    # 0.8 intra draws + 1/8 of random draws land intra
    assert 0.75 < intra < 0.90


@given(st.floats(min_value=0.0, max_value=1.0))
def test_homophily_parameter_monotone(h):
    rng = spawn_rng(3, "homo2")
    src, dst = homophilous_edges(2000, 10_000, 4, rng, homophily=h)
    labels = block_labels(2000, 4)
    intra = np.mean(labels[src] == labels[dst])
    expected = h + (1 - h) * 0.25
    assert abs(intra - expected) < 0.05


def test_homophily_out_of_range_rejected():
    with pytest.raises(ValueError):
        homophilous_edges(10, 10, 2, spawn_rng(0, "x"), homophily=1.5)


def test_block_labels_contiguous_and_balanced():
    labels = block_labels(1000, 7)
    assert labels.min() == 0 and labels.max() == 6
    counts = np.bincount(labels)
    assert counts.max() - counts.min() <= int(np.ceil(1000 / 7))
    # contiguity
    assert np.all(np.diff(labels) >= 0)


def test_class_features_separable():
    rng = spawn_rng(4, "feat")
    labels = block_labels(2000, 5)
    x = class_features(labels, 16, rng, signal=1.0, noise=0.5)
    cents = np.stack([x[labels == c].mean(0) for c in range(5)])
    within = np.mean([
        np.linalg.norm(x[labels == c] - cents[c], axis=1).mean()
        for c in range(5)
    ])
    between = np.linalg.norm(
        cents[:, None] - cents[None, :], axis=-1
    )[~np.eye(5, dtype=bool)].mean()
    assert between > within  # classes are linearly separable-ish


def test_random_features_standardised():
    x = random_features(5000, 32, spawn_rng(5, "rf"))
    assert abs(x.mean()) < 0.05
    assert abs(x.std() - 1.0) < 0.05


# -- failure injection -----------------------------------------------------------------

def tiny_gpu_node(capacity_bytes: int) -> SimNode:
    """A DGX whose GPUs have almost no memory."""
    return SimNode(NodeSpec(num_gpus=dgx_a100().num_gpus,
                            gpu_memory_capacity=capacity_bytes))


def test_store_build_fails_cleanly_on_oom(small_dataset):
    node = tiny_gpu_node(capacity_bytes=1024)
    with pytest.raises(OutOfDeviceMemory):
        MultiGpuGraphStore(node, small_dataset, seed=0)


def test_oom_message_names_device_and_sizes(small_dataset):
    node = tiny_gpu_node(capacity_bytes=1024)
    with pytest.raises(OutOfDeviceMemory, match="gpu0"):
        MultiGpuGraphStore(node, small_dataset, seed=0)


def test_whole_tensor_fits_exactly_at_capacity():
    from repro.dsm import WholeTensor

    node = tiny_gpu_node(capacity_bytes=400)
    # 8 GPUs x 100 rows x 4 B per row = exactly 400 B per GPU
    t = WholeTensor(node, 800, 1, dtype=np.float32, charge_setup=False)
    assert node.gpu_memory[0].free_bytes == 0
    with pytest.raises(OutOfDeviceMemory):
        WholeTensor(node, 8, 1, dtype=np.float32, charge_setup=False)
    t.free()


def test_dataset_scaled_instance_deterministic():
    a = load_dataset("friendster", num_nodes=1000, seed=11, feature_dim=4)
    b = load_dataset("friendster", num_nodes=1000, seed=11, feature_dim=4)
    assert np.array_equal(a.graph.indices, b.graph.indices)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.train_nodes, b.train_nodes)


def test_trainer_determinism(small_dataset):
    """Same seeds end to end -> identical losses."""
    from repro.train import WholeGraphTrainer

    losses = []
    for _ in range(2):
        tr = WholeGraphTrainer(
            MultiGpuGraphStore(SimNode(), small_dataset, seed=0),
            "gcn", seed=42, batch_size=32, fanouts=[5], hidden=8,
            lr=0.02, dropout=0.3,
        )
        losses.append([tr.train_epoch().mean_loss for _ in range(2)])
    assert losses[0] == losses[1]


def test_different_seeds_differ(small_dataset):
    from repro.train import WholeGraphTrainer

    runs = []
    for seed in (1, 2):
        tr = WholeGraphTrainer(
            MultiGpuGraphStore(SimNode(), small_dataset, seed=0),
            "gcn", seed=seed, batch_size=32, fanouts=[5], hidden=8,
            lr=0.02, dropout=0.0,
        )
        runs.append(tr.train_epoch().mean_loss)
    assert runs[0] != runs[1]
