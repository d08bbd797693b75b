"""Cross-cutting assertions of specific sentences in the paper."""

import pytest

from repro import config
from repro.dsm import WholeMemory
from repro.graph import MultiGpuGraphStore
from repro.hardware import SimNode, costmodel


def test_dsm_setup_is_tens_to_two_hundred_ms():
    """§III-B: setting up one piece of distributed shared memory takes
    'tens to one or two hundred of milliseconds, depending on the memory
    size' — and happens once, before training."""
    node = SimNode()
    small = WholeMemory(node, 1 << 30, tag="a")  # 1 GB
    big = WholeMemory(node, 64 << 30, tag="b")  # 64 GB
    assert 5e-3 < small.setup_time < 0.25
    assert small.setup_time < big.setup_time < 0.25


def test_steady_state_gather_needs_no_setup(small_dataset):
    """After construction, training-loop gathers charge no dsm_setup."""
    node = SimNode()
    store = MultiGpuGraphStore(node, small_dataset, seed=0)
    node.reset_clocks()
    store.gather_features(store.train_nodes[:64], rank=0)
    assert node.timeline.phase_total("dsm_setup") == 0


def test_paper_bandwidth_headline_numbers():
    """§III-B: NVLink 300 GB/s unidirectional; PCIe 4.0 x16 32 GB/s with
    2 GPUs per uplink -> 16 GB/s each; theoretical speedup 18.75x."""
    assert config.NVLINK_UNIDIR_BW == 300 * config.GB
    assert config.PCIE_GEN4_X16_BW == 32 * config.GB
    assert config.PCIE_BW_PER_GPU_SHARED == 16 * config.GB
    assert config.NVLINK_UNIDIR_BW / config.PCIE_BW_PER_GPU_SHARED == 18.75


def test_paper_algobw_cap():
    """§IV-C1: max AlgoBW = 300 / (7/8) ≈ 343 GB/s on 8 GPUs."""
    assert config.NVLINK_MAX_ALGO_BW == pytest.approx(
        343 * config.GB, rel=0.01
    )


def test_pointer_table_cost_is_negligible():
    """§III-B: the memory pointer table 'will not hurt scalability' —
    64 bytes on 8 GPUs, independent of the allocation size."""
    node = SimNode()
    small = WholeMemory(node, 1 << 20, tag="s")
    big = WholeMemory(node, 8 << 30, tag="b")
    assert small.pointer_tables[0].nbytes == 64
    assert big.pointer_tables[0].nbytes == 64


def test_training_hyperparameters_match_paper():
    """§IV / artifact appendix: batch 512, 3 layers, hidden 256,
    sample count 30, GAT 4 heads."""
    assert config.BATCH_SIZE == 512
    assert config.NUM_LAYERS == 3
    assert config.HIDDEN_SIZE == 256
    assert config.FANOUT == 30
    assert config.GAT_NUM_HEADS == 4


def test_papers100m_memory_budget_fits_a100():
    """§IV-B: structure (3 GB) + features (6.6 GB) + training (~20 GB)
    per GPU fits the 40 GB A100 with headroom."""
    from repro.experiments.table4_memory import run

    rows = run()
    total = sum(r.per_gpu_gb for r in rows)
    assert total < config.GPU_MEMORY_CAPACITY / config.GB


def test_undirected_storage_doubles_edges(small_dataset):
    """§IV-B: ogbn-papers100M's 1.6B edges are stored as 3.2B directed
    edges — the builder's undirected mode stores both directions."""
    g = small_dataset.graph
    src, dst = g.subgraph_edges()
    pairs = set(zip(src.tolist(), dst.tolist()))
    assert all((b, a) in pairs for (a, b) in pairs)


def test_wholegraph_faster_than_um_by_table1_margin():
    """§II-B's conclusion: P2P latency ~1 µs order, UM 20-35 µs — the
    gap that makes UM unusable as the DSM substrate."""
    for gb in (8, 128):
        ratio = costmodel.um_access_latency(gb * config.GB) / (
            costmodel.p2p_access_latency(gb * config.GB)
        )
        assert 12 < ratio < 30
