"""GAT training behaviour and memory pinned end to end.

- the per-epoch losses of a small papers100M GAT trainer are pinned to
  literal floats, so any change to the float operations of the weighted
  multi-head aggregation (or anything else on the GAT path) shows up
  bitwise;
- one GAT train step stays below the size of a single ``(E, H, D)``
  float32 message tensor: the per-head g-SpMMs of
  :func:`repro.nn.functional.spmm_sum` and its blocked g-SDDMM never
  materialize per-edge messages, the term behind the out-of-memory
  Table-5 cells.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np

from repro.graph import MultiGpuGraphStore, load_dataset
from repro.graph.builder import from_edge_list
from repro.hardware import SimNode
from repro.nn import functional as F
from repro.train import WholeGraphTrainer


def test_gat_papers_losses_are_pinned():
    ds = load_dataset("ogbn-papers100M", num_nodes=2000, seed=0)
    store = MultiGpuGraphStore(SimNode(), ds, seed=0)
    trainer = WholeGraphTrainer(store, "gat", seed=0, batch_size=512,
                                hidden=256)
    losses = [trainer.train_epoch().mean_loss for _ in range(3)]
    assert losses == [3.196145534515381, 1.806552529335022, 1.1193416118621826]


def _dense_gat_trainer() -> WholeGraphTrainer:
    """A GAT whose layer-0 edge count dwarfs its node count (E/N ≈ 100),
    so a per-edge ``(E, H, D)`` tensor would dominate the step's memory."""
    num_nodes, degree = 400, 200
    ds = load_dataset("ogbn-papers100M", num_nodes=num_nodes, seed=0,
                      feature_dim=16)
    rng = np.random.default_rng(0)
    src, dst = rng.integers(0, num_nodes, size=(2, num_nodes * degree // 2))
    ds = dataclasses.replace(
        ds,
        graph=from_edge_list(src, dst, num_nodes, undirected=True,
                             dedup=True),
        train_nodes=np.arange(0, num_nodes, 4),
    )
    store = MultiGpuGraphStore(SimNode(), ds, seed=0)
    return WholeGraphTrainer(store, "gat", seed=0, batch_size=256,
                             fanouts=[100, 100], num_layers=2, hidden=256)


def test_gat_step_peak_is_below_one_message_tensor(monkeypatch):
    trainer = _dense_gat_trainer()
    trainer.train_epoch(max_iterations=1)  # warm lazily built state
    message_bytes = []
    spmm_sum = F.spmm_sum

    def recording(indptr, indices, x, edge_weights=None):
        if edge_weights is not None and x.data.ndim == 3:
            message_bytes.append(edge_weights.data.shape[0] * x.data[0].nbytes)
        return spmm_sum(indptr, indices, x, edge_weights)

    monkeypatch.setattr(F, "spmm_sum", recording)
    tracemalloc.start()
    try:
        trainer.train_epoch(max_iterations=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < max(message_bytes), (
        f"step peak {peak / 2**20:.1f} MiB >= one (E, H, D) float32 "
        f"message tensor ({max(message_bytes) / 2**20:.1f} MiB)"
    )
