"""The trainer's task selection and the checks that keep each task's
metrics and schedules to the task they apply to.

Node classification and link prediction train through the same
data-parallel round; they differ in their batches, inputs, loss and sparse
update.  The node-classification metrics (``evaluate``, ``predict``) would
run the link encoder, whose outputs are ``hidden`` units, against node
labels, so they refuse a link-prediction trainer, and
``evaluate_linkpred`` refuses a node trainer.  Link prediction rejects the
schedules that would need deferred embedding gathers or embedding
checkpoints, and over a cluster it barriers after every sparse update.
"""

from __future__ import annotations

import pytest

from repro.graph import MultiGpuGraphStore
from repro.hardware import SimNode
from repro.train import WholeGraphTrainer
from repro.train.plans import ClusterDataParallelPlan

LINK_KW = dict(
    seed=0, batch_size=64, task="linkpred", num_pairs=64, hidden=32,
    num_layers=2, lr=1e-2,
)


def _linkpred(dataset, store_kw=None, **kw):
    store = MultiGpuGraphStore(SimNode(), dataset, seed=0, **(store_kw or {}))
    return WholeGraphTrainer(store, "sage", **{**LINK_KW, **kw})


def test_unknown_task_is_rejected(medium_dataset):
    store = MultiGpuGraphStore(SimNode(), medium_dataset, seed=0)
    with pytest.raises(ValueError, match="task must be"):
        WholeGraphTrainer(store, "sage", task="graph")


@pytest.mark.parametrize(
    "store_kw, kw",
    [
        ({}, {"overlap": True}),
        ({"tier": "tiered"}, {"streaming": True}),
        ({}, {"compute_ranks": "all"}),
    ],
    ids=["overlap", "streaming", "all-ranks"],
)
def test_link_prediction_rejects_other_schedules(
    bipartite_dataset, store_kw, kw
):
    with pytest.raises(ValueError, match="sequential symmetric"):
        _linkpred(bipartite_dataset, store_kw, **kw)


@pytest.mark.parametrize("plan", ["pipeline", "cagnet"])
def test_link_prediction_rejects_model_parallel_plans(bipartite_dataset, plan):
    with pytest.raises(ValueError, match="node classification only"):
        _linkpred(bipartite_dataset, plan=plan)


def test_evaluate_linkpred_rejects_node_trainer(medium_dataset):
    store = MultiGpuGraphStore(SimNode(), medium_dataset, seed=0)
    trainer = WholeGraphTrainer(store, "sage", seed=0, batch_size=32,
                                fanouts=[5, 5], hidden=16)
    with pytest.raises(ValueError, match=r"score it with evaluate\(\)"):
        trainer.evaluate_linkpred(num_pairs=50)


@pytest.mark.parametrize("embedding_dim", [None, 8])
def test_node_metrics_reject_link_trainer(bipartite_dataset, embedding_dim):
    trainer = _linkpred(bipartite_dataset, embedding_dim=embedding_dim)
    trainer.train_epoch(max_iterations=1)
    nodes = trainer.store.val_nodes[:16]
    with pytest.raises(ValueError, match="evaluate_linkpred"):
        trainer.evaluate(nodes)
    with pytest.raises(ValueError, match="evaluate_linkpred"):
        trainer.predict(nodes, charge=False)


def test_evaluate_linkpred_repeats_bitwise(bipartite_dataset):
    trainer = _linkpred(bipartite_dataset)
    trainer.train_epoch(max_iterations=2)
    first = trainer.evaluate_linkpred(num_pairs=300)
    assert trainer.evaluate_linkpred(num_pairs=300) == first


def test_cluster_link_rounds_start_aligned(bipartite_dataset):
    """The sparse update charges each owning rank its own rows, so every
    machine node barriers after it: the next round's collective then finds
    all ranks aligned and records no entry stall."""
    trainer = _linkpred(bipartite_dataset, plan=ClusterDataParallelPlan(2))
    trainer.train_epoch(max_iterations=3)
    phases = {
        s.phase for node in trainer.plan.nodes for s in node.timeline.spans
    }
    assert "sparse_step" in phases
    assert "allreduce_wait" not in phases
