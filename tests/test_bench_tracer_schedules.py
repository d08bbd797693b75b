"""The benchmark's host tracer stays transparent on every loader schedule.

``benchmarks/e2e/tracer.py`` patches the batch loader by name
(``StreamingLoader.prefetch``/``take``, ``pipeline.sample_and_gather``) and
counts steps at ``GradSyncModel.charge``.  These tests run the tracer over
the double-buffered and the out-of-core streaming schedules, so a loader
refactor that renames what it patches, or makes a traced run diverge, fails
here rather than only in the benchmark.
"""

from __future__ import annotations

import pytest

from benchmarks.e2e.tracer import Tracer
from repro.graph import MultiGpuGraphStore
from repro.hardware import SimNode
from repro.train import WholeGraphTrainer

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
