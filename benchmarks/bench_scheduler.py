"""Scheduler-core and hot-path kernel benchmark.

Three measurements per run:

- **launch throughput** (micro) — host wall-clock of driving the
  :mod:`repro.sim` event loop through a ring of cross-stream dependent ops
  plus comm-lane records, reported as launches/second; the final simulated
  makespan of the synthetic program is deterministic and gated;
- **overlapped epoch** (simulated, deterministic) — a small pipelined
  ``WholeGraphTrainer`` epoch run entirely on the stream scheduler; its
  simulated epoch time and per-phase busy totals are exactly reproducible,
  so any drift means the scheduler's behaviour changed;
- **hot-path speedup** (macro) — one Table-5-scale GAT cell
  (``measure_framework``-shaped workload) timed twice in the same process:
  once with the pre-optimization kernels swapped back in — the unfused GAT
  aggregation that materializes ``(E, H, D)`` messages, and the
  whole-array global-cumsum ``segment_sum``/``scatter_add_rows`` — once
  with the shipped kernels, where all three run on the one CSR g-SpMM
  (GAT as the weighted multi-head ``gspmm_heads`` and its backward).  The
  optimized epoch must
  take at most 75% of the reference wall-clock (the >=25% reduction
  claimed).  Only the *ratio* is gated — both runs share
  the process, so the ratio is robust to machine speed; raw wall-clock goes
  in the notes.

The deterministic numbers and the ratios are written to
``results/scheduler.json`` in the ``compare_runs.py`` manifest shape; CI
diffs that file against the committed ``results/scheduler_baseline.json``.
"""

import json
import time

import numpy as np
import pytest

from benchmarks.conftest import RESULTS_DIR, run_once
from repro.experiments.common import get_dataset, measure_wholegraph
from repro.graph import MultiGpuGraphStore
from repro.graph.datasets import load_dataset
from repro.hardware import SimNode
from repro.ops import sddmm, spmm
from repro.ops.segment import segment_ids_from_indptr
from repro.telemetry.report import format_table
from repro.train import WholeGraphTrainer

# -- hot-path reference kernel ------------------------------------------------------

#: Table-5-scale cell for the macro comparison: large enough that the
#: per-edge GAT tensors dominate (the profiled regime where ``cumsum`` was
#: ~65% of epoch time), small enough for a CI job.
MACRO_KW = dict(num_nodes=15_000, iterations=1, batch_size=256)


def _reference_segment_sum(values, indptr):
    """The pre-optimization ``segment_sum`` accumulator (C-order zeros +
    ``np.cumsum`` into a slice) — kept here verbatim as the baseline the
    CSR g-SpMM kernel is measured against."""
    values = np.asarray(values)
    indptr = np.asarray(indptr, dtype=np.int64)
    n = indptr.shape[0] - 1
    if values.shape[0] == 0 or n == 0:
        return np.zeros((n,) + values.shape[1:], dtype=values.dtype)
    acc_dtype = np.float64 if values.dtype.kind == "f" else np.int64
    cs = np.zeros((values.shape[0] + 1,) + values.shape[1:], dtype=acc_dtype)
    np.cumsum(values, axis=0, dtype=acc_dtype, out=cs[1:])
    out = cs[indptr[1:]] - cs[indptr[:-1]]
    return out.astype(values.dtype, copy=False)


def _reference_scatter_add_rows(num_rows, indices, values):
    """Scatter-add over a materialized destination-sorted copy."""
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values)
    out = np.zeros((num_rows,) + values.shape[1:], dtype=values.dtype)
    if indices.size == 0:
        return out
    order = np.argsort(indices, kind="stable")
    si = indices[order]
    starts = np.flatnonzero(np.concatenate(([True], si[1:] != si[:-1])))
    out[si[starts]] = _reference_segment_sum(
        values[order], np.append(starts, si.shape[0])
    )
    return out


def _reference_gspmm_heads(indptr, indices, features, edge_weights):
    """The unfused GAT aggregation: gather-multiply the ``(E, H, D)``
    messages, reduce them with one global cumsum."""
    msgs = features[np.asarray(indices, dtype=np.int64)]
    msgs *= edge_weights[..., None]
    return _reference_segment_sum(msgs, indptr)


def _reference_gspmm_heads_backward(indptr, indices, grad_out, features,
                                    edge_weights):
    """Its backward re-gathers and scatter-adds ``(E, H, D)`` message
    gradients."""
    idx = np.asarray(indices, dtype=np.int64)
    g_msgs = grad_out[segment_ids_from_indptr(indptr)]
    gathered = features[idx]
    g_alpha = (g_msgs * gathered).sum(axis=-1)
    np.multiply(g_msgs, edge_weights[..., None], out=gathered)
    return (_reference_scatter_add_rows(features.shape[0], idx, gathered),
            g_alpha)


class _reference_kernels:
    """Swap the pre-optimization kernels into every consumer module.

    ``GATConv`` and ``repro.nn.functional`` resolve ``segment_sum``,
    ``scatter_add_rows``, ``gspmm_heads`` and ``gspmm_heads_backward``
    through module attributes, and no other module binds them directly, so
    patching the three modules reaches every caller.
    """

    def __enter__(self):
        import repro.ops.segment as seg

        self._patches = [
            (seg, "segment_sum", _reference_segment_sum),
            (seg, "scatter_add_rows", _reference_scatter_add_rows),
            (spmm, "gspmm_heads", _reference_gspmm_heads),
            (sddmm, "gspmm_heads_backward", _reference_gspmm_heads_backward),
        ]
        self._orig = [getattr(mod, name) for mod, name, _ in self._patches]
        for mod, name, ref in self._patches:
            setattr(mod, name, ref)

    def __exit__(self, *exc):
        for (mod, name, _), orig in zip(self._patches, self._orig):
            setattr(mod, name, orig)


# -- the three measurements ---------------------------------------------------------


def _launch_storm(rounds: int = 4_000):
    """Micro: a ring of cross-stream dependent ops through the event loop.

    Per round, every GPU's compute stream launches one op depending on the
    previous rank's event (a software ring), and rank 0's comm lane records
    one retroactive span — the launch mix the overlap engines produce.
    Returns ``(launches, host_seconds, simulated_makespan)``.
    """
    node = SimNode()
    streams = node.streams
    compute = [streams.compute(r) for r in range(node.num_gpus)]
    lane = streams.comm(0)
    launches = 0
    t0 = time.perf_counter()
    prev = None
    for i in range(rounds):
        for rank, stream in enumerate(compute):
            deps = (prev,) if prev is not None else ()
            prev = stream.launch(1e-6, deps=deps, phase="train",
                                 category="compute")
            launches += 1
        lane.record(i * 1e-6, (i + 1) * 1e-6, phase="allreduce_bucket",
                    category="comm")
        launches += 1
    prev.wait()
    host = time.perf_counter() - t0
    makespan = max(c.clock.now for c in compute)
    return launches, host, makespan


def _overlap_epoch():
    """Deterministic simulated numbers from a fully scheduler-driven run."""
    ds = load_dataset("ogbn-products", num_nodes=3_000, seed=7,
                      feature_dim=16, num_classes=5)
    node = SimNode()
    store = MultiGpuGraphStore(node, ds, seed=0)
    trainer = WholeGraphTrainer(store, "graphsage", seed=0, batch_size=64,
                                fanouts=[4, 4], hidden=16, dropout=0.0,
                                overlap=True)
    node.reset_clocks()
    stats = trainer.train_epoch(max_iterations=8)
    phase_busy: dict[str, float] = {}
    for span in node.timeline.spans:
        if span.busy:
            phase_busy[span.phase] = (
                phase_busy.get(span.phase, 0.0) + span.duration
            )
    return stats, phase_busy


def _hotpath_cell():
    """One warm Table-5-scale GAT cell; returns host wall-clock seconds."""
    t0 = time.perf_counter()
    measure_wholegraph("ogbn-products", "gat", **MACRO_KW)
    return time.perf_counter() - t0


def _segment_sum_micro(repeats: int = 3):
    """Kernel-level check: CSR g-SpMM vs reference on a GAT-shaped operand."""
    rng = np.random.default_rng(0)
    values = rng.standard_normal((400_000, 8)).astype(np.float32)
    bounds = np.sort(rng.integers(0, values.shape[0] + 1, size=4_095))
    indptr = np.concatenate(([0], bounds, [values.shape[0]]))
    from repro.ops.segment import segment_sum

    def best(fn):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(values, indptr)
            times.append(time.perf_counter() - t0)
        return min(times)

    return best(segment_sum), best(_reference_segment_sum)


def _run_all():
    launches, storm_host, storm_makespan = _launch_storm()
    stats, phase_busy = _overlap_epoch()
    micro_opt, micro_ref = _segment_sum_micro()
    # macro: warm the dataset cache and the process with an optimized run,
    # then time reference vs optimized back to back in the same process
    get_dataset("ogbn-products", MACRO_KW["num_nodes"], 0)
    _hotpath_cell()
    with _reference_kernels():
        t_ref = _hotpath_cell()
    t_opt = _hotpath_cell()
    return (launches, storm_host, storm_makespan, stats, phase_busy,
            micro_opt, micro_ref, t_ref, t_opt)


def test_scheduler(benchmark, emit):
    (launches, storm_host, storm_makespan, stats, phase_busy,
     micro_opt, micro_ref, t_ref, t_opt) = run_once(benchmark, _run_all)

    frac = t_opt / t_ref
    micro_frac = micro_opt / micro_ref
    lines = [
        format_table(
            ["measurement", "value"],
            [
                ["event-loop launches/s", launches / storm_host],
                ["launch-storm sim makespan (s)", storm_makespan],
                ["overlap epoch sim time (s)", stats.epoch_time],
                ["segment_sum micro speedup", micro_ref / micro_opt],
                ["hot-path epoch, reference kernels (s)", t_ref],
                ["hot-path epoch, optimized kernels (s)", t_opt],
            ],
            title="Stream scheduler + vectorized hot path",
        ),
        f"hot-path wall-clock reduction: {100 * (1 - frac):.1f}% "
        f"(gate: >=25%)",
    ]
    emit("scheduler", "\n".join(lines))

    # compare_runs.py gate: deterministic sim values + in-process ratios
    manifest = {
        "name": "scheduler",
        "phase_totals": {
            "launch_storm_makespan": storm_makespan,
            "overlap_epoch_sim": stats.epoch_time,
            "overlap_sample_busy": phase_busy.get("sample", 0.0),
            "overlap_gather_busy": phase_busy.get("gather", 0.0),
            "overlap_train_busy": phase_busy.get("train", 0.0),
            "hotpath_optimized_frac": frac,
            "segment_sum_micro_frac": micro_frac,
        },
        "notes": {
            "launches_per_sec": launches / storm_host,
            "hotpath_reference_s": t_ref,
            "hotpath_optimized_s": t_opt,
            "macro_config": MACRO_KW,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "scheduler.json").write_text(
        json.dumps(manifest, indent=2) + "\n"
    )

    # paper-shape constraints
    assert t_opt <= 0.75 * t_ref, (
        f"hot-path pass must cut epoch wall-clock >=25% (got {frac:.1%})"
    )
    assert micro_opt < micro_ref, "g-SpMM kernel must beat the reference"
    # the scheduler keeps the launch mix fast enough to stay invisible next
    # to the numpy work it orchestrates
    assert launches / storm_host > 10_000
    # the ring serializes every op, so the simulated makespan is exactly
    # the sum of all compute-op durations
    node_gpus = SimNode().num_gpus
    assert storm_makespan == pytest.approx(4_000 * node_gpus * 1e-6)
    assert stats.epoch_time > 0
