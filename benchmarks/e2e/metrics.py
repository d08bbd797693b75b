"""Metric definitions and the pure statistics the harness reports with.

Stdlib only: the parent process, ``compare.py`` and the tests import this
without NumPy or the ``repro`` package.

``END_TO_END`` and ``LAYERS`` describe every metric the harness computes.
``BENCHMARK.json`` at the repository root lists the ``listed`` ones, which a
run reports on its last output line.  Left out are metrics that are exactly
0 on some workload by construction (a failure ratio, a layer only one
workload has): they are still printed and written to the result file.
Every layer metric names the end-to-end metric it should move and the
workloads it should move it on.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

WORKLOAD_NAMES = (
    "gat-papers", "sage-products-overlap", "gcn-uk-tiered", "recsys-linkpred",
)
_ALL = WORKLOAD_NAMES
_SAMPLERS = ("sage-products-overlap", "gcn-uk-tiered")


@dataclass(frozen=True)
class Metric:
    """One reported metric."""

    name: str
    unit: str
    better: str  #: "higher" or "lower"
    what: str
    #: the end-to-end metric a change to this layer should move (layer
    #: metrics only) and the workloads it should move it on
    moves: str = ""
    on: tuple[str, ...] = ()
    #: listed in BENCHMARK.json (never 0 by construction)
    listed: bool = True


END_TO_END = (
    Metric("train_samples_per_s", "samples/s", "higher",
           "training samples (seed nodes, or scored pairs) per host second, "
           "over the median epoch time"),
    Metric("peak_rss_mb", "MiB", "lower",
           "peak resident memory of the workload's process"),
    Metric("setup_s", "s", "lower",
           "dataset + store + trainer construction, median of 3"),
    Metric("sim_step_ms", "sim_ms", "lower",
           "simulated DGX-A100 time per training step over the first "
           "timed epochs (deterministic for a seed)"),
    Metric("failed_frac", "ratio", "lower",
           "timed steps that raised, gave a non-finite loss or whose "
           "process died, over steps attempted", listed=False),
)

_T = "train_samples_per_s"


def _layer(name, unit, what, moves=_T, on=_ALL, better="lower",
           listed=True):
    return Metric(name, unit, better, what, moves, tuple(on), listed)


LAYERS = (
    _layer("graph.dataset_s", "s", "synthetic dataset generation",
           "setup_s", ("gcn-uk-tiered", "sage-products-overlap")),
    _layer("graph.store_s", "s", "MultiGpuGraphStore construction",
           "setup_s", ("gcn-uk-tiered", "sage-products-overlap")),
    _layer("train.trainer_s", "s", "WholeGraphTrainer construction",
           "setup_s", ("recsys-linkpred",)),
    _layer("ops.sample_ms", "ms", "NeighborSampler.sample self time",
           on=_SAMPLERS),
    _layer("ops.sample_layer_ms", "ms", "sample_layer self time",
           on=_SAMPLERS),
    _layer("ops.append_unique_ms", "ms", "append_unique self time",
           on=_SAMPLERS),
    _layer("ops.link_batch_ms", "ms",
           "sample_link_batch (positive + negative pairs) self time",
           on=("recsys-linkpred",), listed=False),
    _layer("ops.sampled_edges", "count", "edges sampled", on=_SAMPLERS),
    _layer("ops.frontier_rows", "count",
           "unique rows AppendUnique kept, summed over layers", on=_SAMPLERS),
    _layer("ops.unique_ratio", "ratio",
           "unique rows / (targets + sampled edges)", on=_SAMPLERS),
    _layer("dsm.gather_ms", "ms",
           "DSM row-gather self time (features, or embedding rows)",
           on=_SAMPLERS + ("recsys-linkpred",)),
    _layer("dsm.gather_rows", "count", "rows gathered from the DSM",
           on=_SAMPLERS),
    _layer("dsm.gather_mb", "MiB", "bytes gathered from the DSM",
           on=_SAMPLERS),
    _layer("dsm.cache_hit_rate", "ratio", "hot-row cache hits / requests",
           on=("gcn-uk-tiered",), better="higher", listed=False),
    _layer("dsm.embedding_gather_ms", "ms",
           "WholeEmbedding.forward self time", on=("recsys-linkpred",),
           listed=False),
    _layer("dsm.embedding_push_ms", "ms",
           "WholeEmbedding.push_row_grads self time",
           on=("recsys-linkpred",), listed=False),
    _layer("dsm.rows_touched", "count",
           "embedding rows updated by the sparse optimizer",
           on=("recsys-linkpred",), listed=False),
    *(
        _layer(f"nn.layer{i}.{d}_ms", "ms",
               f"conv {i} {'forward' if d == 'fwd' else 'pullbacks'} "
               "self time", on=("gat-papers",), listed=i < 2)
        for i in range(3) for d in ("fwd", "bwd")
    ),
    _layer("nn.forward_ms", "ms",
           "model forward outside the convs (activation, dropout)",
           on=("gat-papers",)),
    _layer("nn.backward_ms", "ms",
           "Tensor.backward self time: tape walk and non-conv pullbacks",
           on=("gat-papers",)),
    _layer("nn.loss_ms", "ms", "loss (and pair scoring) self time"),
    _layer("nn.optimizer_ms", "ms", "dense Adam step self time"),
    _layer("nn.sparse_optimizer_ms", "ms", "SparseAdam step self time",
           on=("recsys-linkpred",), listed=False),
    _layer("nn.step_peak_mb", "MiB",
           "median per-step tracemalloc peak above the step's start",
           "peak_rss_mb", ("gat-papers",)),
    _layer("train.step_ms_p50", "ms",
           "median step, between GradSyncModel.charge returns",
           on=("gcn-uk-tiered", "sage-products-overlap")),
    _layer("train.loader_ms", "ms",
           "batch preparation: loader, sampler and gather spans",
           on=("gcn-uk-tiered", "sage-products-overlap")),
    _layer("train.grad_sync_ms", "ms", "GradSyncModel.charge self time",
           on=("gcn-uk-tiered", "sage-products-overlap")),
    _layer("train.glue_ms", "ms", "epoch time no traced span covers",
           on=("gcn-uk-tiered", "sage-products-overlap")),
    _layer("sim.launches", "count", "Stream.launch calls",
           on=("gcn-uk-tiered",)),
    _layer("sim.advances", "count", "SimClock.advance calls",
           on=("gcn-uk-tiered",)),
    *(
        _layer(f"hardware.{name}_ms", "sim_ms", what, "sim_step_ms", on,
               listed=on == _ALL)
        for name, what, on in (
            ("sample", "simulated sampling", _ALL),
            ("gather", "simulated feature/embedding gather", _ALL),
            ("train", "simulated forward + backward + optimizer", _ALL),
            ("allreduce_exposed", "simulated exposed gradient all-reduce",
             _ALL),
            ("allreduce_hidden", "simulated all-reduce hidden by backward",
             ("gat-papers", "gcn-uk-tiered")),
            ("host_fetch_wait", "simulated stall on host-tier fetches",
             ("gcn-uk-tiered",)),
            ("sparse_step", "simulated sparse row push + update",
             ("recsys-linkpred",)),
        )
    ),
)

BY_NAME = {m.name: m for m in END_TO_END + LAYERS}


def median_chunk_throughput(units_per_chunk: float, chunk_seconds) -> float:
    """Units per second over the *median* chunk time.

    A burst of noise that slows fewer than half the chunks does not move
    the median, so it does not move the throughput either.
    """
    if not chunk_seconds:
        raise ValueError("no chunks measured")
    return units_per_chunk / statistics.median(chunk_seconds)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf
