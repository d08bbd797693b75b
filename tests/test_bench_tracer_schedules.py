"""The benchmark's host tracer stays transparent on every loader schedule.

``benchmarks/e2e/tracer.py`` patches the batch loader by name
(``StreamingLoader.prefetch``/``take``, ``pipeline.sample_and_gather``) and
counts steps at ``GradSyncModel.charge``.  These tests run the tracer over
the double-buffered and the out-of-core streaming schedules, and over the
link-prediction step (``repro.train.trainer.sample_link_batch``, the
trainer's embedding and sparse optimizer), so a refactor that renames what
it patches, or makes a traced run diverge, fails here rather than only in
the benchmark.
"""

from __future__ import annotations

import pytest

from benchmarks.e2e.tracer import Tracer
from repro.graph import MultiGpuGraphStore
from repro.hardware import SimNode
from repro.train import WholeGraphTrainer
from tests.golden_cases import _recsys_trainer

EPOCHS = 2
STEPS = 3

SCHEDULES = {
    "overlap": ({}, {"overlap": True}),
    "streaming": (
        {"tier": "tiered", "host_pinned_fraction": 0.4},
        {"streaming": True},
    ),
}


def _train(dataset, schedule, tracer=None):
    store_kw, trainer_kw = SCHEDULES[schedule]
    store = MultiGpuGraphStore(SimNode(), dataset, seed=0, **store_kw)
    trainer = WholeGraphTrainer(
        store, "graphsage", seed=3, batch_size=32, fanouts=[5, 5],
        hidden=16, **trainer_kw,
    )
    return _run(trainer, tracer)


def _run(trainer, tracer=None):
    if tracer is not None:
        tracer.install(trainer)
        tracer.start_timed()
    try:
        stats = [
            trainer.train_epoch(max_iterations=STEPS) for _ in range(EPOCHS)
        ]
    finally:
        if tracer is not None:
            tracer.stop_timed()
            tracer.uninstall()
    return [(s.mean_loss, s.epoch_time) for s in stats]


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_tracer_is_transparent_and_counts_steps(medium_dataset, schedule):
    plain = _train(medium_dataset, schedule)
    tracer = Tracer()
    assert _train(medium_dataset, schedule, tracer) == plain
    assert tracer.timed_steps == EPOCHS * STEPS
    names = {rec[0] for rec in tracer.spans}
    assert {"train.loader", "dsm.gather"} <= names


def _train_linkpred(dataset, tracer=None):
    """The ``recsys_train`` golden's trainer, 2 epochs x 3 steps."""
    store = MultiGpuGraphStore(SimNode(), dataset, seed=0)
    return _run(_recsys_trainer(store), tracer)


def test_tracer_is_transparent_on_link_prediction(bipartite_dataset):
    plain = _train_linkpred(bipartite_dataset)
    tracer = Tracer()
    assert _train_linkpred(bipartite_dataset, tracer) == plain
    assert tracer.timed_steps == EPOCHS * STEPS
    names = {rec[0] for rec in tracer.spans}
    assert {
        "ops.link_batch", "dsm.embedding_gather", "dsm.embedding_push",
        "nn.sparse_optimizer",
    } <= names
