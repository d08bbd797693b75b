"""Fig. 13 — multi-node scaling on the three large datasets.

Each machine node replicates the graph store, so only gradients cross the
node boundary and WholeGraph scales near-linearly to 8 nodes (paper §IV-D).
For every node count ``k`` we train a few rounds of the cluster plan
(:class:`~repro.train.plans.ClusterDataParallelPlan`): every round trains
one full batch per machine node and overlaps the hierarchical gradient
all-reduce with backward.  A full-scale epoch takes
``ceil(full_iterations_per_epoch / k)`` such rounds.  The experiment trains
on every node of the scaled graph, since its training split holds fewer
seeds than one batch per machine node.

The paper's anchor data point — 80 epochs of 3-layer GraphSage (hidden 256,
fanout 30³) on ogbn-papers100M in 66 s on 8 nodes — is reported alongside
by ``examples/multi_node_scaling.py``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from repro.experiments.common import get_dataset
from repro.graph import MultiGpuGraphStore
from repro.hardware import SimNode
from repro.telemetry.report import format_table
from repro.train import WholeGraphTrainer
from repro.train.plans import ClusterDataParallelPlan

DATASETS = ("ogbn-papers100M", "friendster", "uk_domain")
MODELS = ("gcn", "graphsage", "gat")
NODE_COUNTS = (1, 2, 4, 8)


@dataclass
class ScalingRow:
    dataset: str
    model: str
    node_counts: tuple
    speedups: tuple
    epoch_times: tuple


def epoch_time(dataset, model: str, k: int, iterations: int,
               seed: int) -> float:
    """Full-scale epoch seconds of ``model`` on ``k`` machine nodes,
    measured over ``iterations`` rounds of the cluster plan."""
    store = MultiGpuGraphStore(SimNode(), dataset, seed=seed)
    trainer = WholeGraphTrainer(
        store, model, seed=seed, plan=ClusterDataParallelPlan(k)
    )
    for node in trainer.plan.nodes:  # exclude every node's setup and load
        node.reset_clocks()
    stats = trainer.train_epoch(max_iterations=iterations)
    if stats.iterations != k * iterations:
        raise ValueError(
            f"{k} machine nodes trained {stats.iterations} batches in "
            f"{iterations} rounds; the graph has too few nodes"
        )
    rounds = math.ceil(dataset.spec.full_iterations_per_epoch / k)
    return rounds * stats.epoch_time / iterations


def run(
    datasets=DATASETS,
    models=MODELS,
    node_counts=NODE_COUNTS,
    num_nodes: int = 30_000,
    iterations: int = 3,
    seed: int = 0,
) -> list[ScalingRow]:
    rows = []
    for dataset in datasets:
        ds = get_dataset(dataset, num_nodes, seed)
        ds = dataclasses.replace(ds, train_nodes=np.arange(ds.num_nodes))
        for model in models:
            times = tuple(
                epoch_time(ds, model, k, iterations, seed)
                for k in node_counts
            )
            rows.append(
                ScalingRow(
                    dataset=dataset,
                    model=model,
                    node_counts=tuple(node_counts),
                    speedups=tuple(times[0] / t for t in times),
                    epoch_times=times,
                )
            )
    return rows


def report(rows: list[ScalingRow]) -> str:
    out = []
    for r in rows:
        out.append(
            [r.dataset, r.model]
            + [f"{s:.2f}x" for s in r.speedups]
            + [f"{t:.2f}s" for t in r.epoch_times]
        )
    headers = (
        ["Dataset", "Model"]
        + [f"speedup@{k}" for k in rows[0].node_counts]
        + [f"epoch@{k}" for k in rows[0].node_counts]
    )
    return format_table(
        headers, out, title="Fig. 13: multi-node scaling of WholeGraph"
    )


def check_shape(rows: list[ScalingRow]) -> None:
    for r in rows:
        # monotone increasing speedup...
        assert all(
            b > a for a, b in zip(r.speedups, r.speedups[1:])
        ), r
        # ...and near-linear: >= 85% parallel efficiency at 8 nodes
        final_k = r.node_counts[-1]
        assert r.speedups[-1] > 0.85 * final_k, (r.dataset, r.model,
                                                 r.speedups[-1])
