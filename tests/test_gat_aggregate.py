"""GAT training behaviour and memory pinned end to end.

- the per-epoch losses of a small papers100M GAT trainer are pinned to
  literal floats, so any change to the float operations of the weighted
  multi-head aggregation (or anything else on the GAT path) shows up
  bitwise;
- one GAT train step stays below the size of a single ``(E, H, D)``
  float32 message tensor: the per-head g-SpMMs of
  :func:`repro.ops.spmm.gspmm_heads` and the blocked g-SDDMM of its
  backward never materialize per-edge messages, the term behind the
  out-of-memory Table-5 cells;
- one GAT train step's ``tracemalloc`` peak stays below a bound that a tape
  kept whole until the round ends, with each conv taped as twelve nodes,
  exceeds.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np

from repro.graph import MultiGpuGraphStore, load_dataset
from repro.graph.builder import from_edge_list
from repro.hardware import SimNode
from repro.nn.layers import GATConv
from repro.train import WholeGraphTrainer


def _papers_gat_trainer() -> WholeGraphTrainer:
    ds = load_dataset("ogbn-papers100M", num_nodes=2000, seed=0)
    store = MultiGpuGraphStore(SimNode(), ds, seed=0)
    return WholeGraphTrainer(store, "gat", seed=0, batch_size=512,
                             hidden=256)


def test_gat_papers_losses_are_pinned():
    trainer = _papers_gat_trainer()
    losses = [trainer.train_epoch().mean_loss for _ in range(3)]
    assert losses == [3.196145534515381, 1.806552529335022, 1.1193416118621826]


def step_peak_bytes(trainer: WholeGraphTrainer) -> int:
    """``tracemalloc`` peak of one training step."""
    tracemalloc.start()
    try:
        trainer.train_epoch(max_iterations=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gat_step_peak_is_pinned():
    """One step of the pinned trainer (3 layers, 4 heads, hidden 256)
    peaks at 24.4 MiB.  Keeping every intermediate output, gradient and
    pullback of twelve taped nodes per conv until the round dropped the
    loss, it peaked at 55.9 MiB."""
    trainer = _papers_gat_trainer()
    trainer.train_epoch(max_iterations=1)  # warm lazily built state
    peak = step_peak_bytes(trainer)
    assert peak < 36 * 2**20, f"step peak {peak / 2**20:.1f} MiB"


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
    forward = GATConv.forward

    def recording(conv, block, x):
        message_bytes.append(block.num_edges * conv.out_features * 4)
        return forward(conv, block, x)

    monkeypatch.setattr(GATConv, "forward", recording)
    peak = step_peak_bytes(trainer)
    assert peak < max(message_bytes), (
        f"step peak {peak / 2**20:.1f} MiB >= one (E, H, D) float32 "
        f"message tensor ({max(message_bytes) / 2**20:.1f} MiB)"
    )
