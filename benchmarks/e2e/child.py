"""Measure one workload in this process; print the raw result as JSON.

Run by ``run.py`` in a fresh process per workload (single-threaded BLAS set
in its environment), never imported by it::

    python -m benchmarks.e2e.child --workload gat-papers --seed 0 --seconds 15

Builds the workload ``--setups`` times back to back (the last build is
trained), runs one warm-up epoch, then timed epochs: until the next one
would end past ``--seconds``, or exactly ``--epochs`` of them.  At least
``MIN_EPOCHS`` timed epochs always run; the simulated step time is taken
over exactly those, so it is the same at a seed however fast the host is.
With ``--trace`` the :class:`~benchmarks.e2e.tracer.Tracer` is installed
after the last build, and the per-layer metrics and a Chrome trace come out
too.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback

from benchmarks.e2e.tracer import Tracer
from benchmarks.e2e.workloads import WORKLOADS
from repro.telemetry import metrics as registry

#: timed epochs every run makes, and the ones ``sim_step_ms`` covers
MIN_EPOCHS = 3

#: simulated rank-0 timeline phases read per epoch (seconds)
_TIMELINE_PHASES = ("host_fetch_wait", "sparse_step", "embed_grad")


def _epoch_record(stats, host_s: float, samples: int, phases: dict) -> dict:
    t = stats.times
    return {
        "host_s": host_s,
        "loss": stats.mean_loss,
        "iterations": stats.iterations,
        "samples": samples,
        "sim_s": stats.epoch_time,
        "sample_s": t.sample,
        "gather_s": t.gather,
        "train_s": t.train,
        "allreduce_exposed_s": stats.allreduce,
        "allreduce_hidden_s": stats.allreduce_hidden,
        "host_fetch_wait_s": phases["host_fetch_wait"],
        "sparse_step_s": phases["sparse_step"] + phases["embed_grad"],
    }


def measure(name: str, seed: int, seconds: float, epochs: int | None,
            setups: int, trace_path: str | None) -> dict:
    """Build, warm up and time one workload; returns the raw result."""
    wl = WORKLOADS[name]
    out: dict = {"workload": name, "seed": seed, "setup": [], "epochs": [],
                 "error": None}
    for _ in range(setups):
        trainer = None  # free the previous build before the next one
        trainer, stages = wl.build(seed)
        out["setup"].append(stages)
    tracer = Tracer() if trace_path else None
    if tracer is not None:
        tracer.install(trainer)

    node = trainer.node
    dev0 = node.gpu_memory[0].device

    def phase_totals() -> dict:
        return {p: node.timeline.phase_total(p, dev0)
                for p in _TIMELINE_PHASES}

    train_epoch = trainer.train_epoch
    if tracer is not None:
        train_epoch = tracer.wrap(train_epoch, "train.epoch")

    def run_epoch() -> dict:
        before = phase_totals()
        t0 = time.perf_counter()
        stats = train_epoch(max_iterations=wl.max_iterations)
        host_s = time.perf_counter() - t0
        after = phase_totals()
        return _epoch_record(
            stats, host_s, wl.samples(trainer, stats.iterations),
            {p: after[p] - before[p] for p in _TIMELINE_PHASES},
        )

    reg = registry.get_registry()
    try:
        out["warmup"] = run_epoch()
        cache0 = (reg.total("cache_hits_total"),
                  reg.total("cache_requests_total"))
        touched0 = (trainer.embedding.grad_stats["rows_touched"]
                    if trainer.embedding is not None else 0)
        if tracer is not None:
            tracer.start_timed()
        start = time.perf_counter()
        while True:
            rec = run_epoch()
            out["epochs"].append(rec)
            if not math.isfinite(rec["loss"]):
                break
            n = len(out["epochs"])
            if epochs is not None:
                if n >= epochs:
                    break
            elif n >= MIN_EPOCHS and (
                time.perf_counter() - start + rec["host_s"] > seconds
            ):
                break
    except Exception:  # a failed step ends the run; the parent counts it
        out["error"] = traceback.format_exc()
        print(out["error"], file=sys.stderr)
    if tracer is not None:
        tracer.stop_timed()
        tracer.uninstall()

    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    first = out["epochs"][:MIN_EPOCHS]
    steps = sum(r["iterations"] for r in first)
    if steps:
        out["sim"] = {
            "sim_step_ms": 1e3 * sum(r["sim_s"] for r in first) / steps,
            **{
                f"hardware.{k}_ms": 1e3 * sum(r[f"{k}_s"] for r in first)
                / steps
                for k in ("sample", "gather", "train", "allreduce_exposed",
                          "allreduce_hidden", "host_fetch_wait",
                          "sparse_step")
            },
        }
    if tracer is not None and out["error"] is None:
        layers = tracer.layer_metrics()
        layers.update(zip(("graph.dataset_s", "graph.store_s",
                           "train.trainer_s"), stages))
        steps = sum(r["iterations"] for r in out["epochs"])
        hits = reg.total("cache_hits_total") - cache0[0]
        requests = reg.total("cache_requests_total") - cache0[1]
        layers["dsm.cache_hit_rate"] = hits / requests if requests else 0.0
        layers["dsm.rows_touched"] = (
            (trainer.embedding.grad_stats["rows_touched"] - touched0) / steps
            if trainer.embedding is not None else 0.0
        )
        out["layers"] = layers
        # one GradSyncModel.charge per step, or the step spans are wrong
        out["traced_steps"] = tracer.timed_steps
        tracer.write_chrome_trace(trace_path)
    return out


def main(argv=None) -> int:
    """Parse the arguments, measure, print the raw result on one line."""
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--setups", type=int, default=1)
    p.add_argument("--trace-file", default=None)
    args = p.parse_args(argv)
    out = measure(args.workload, args.seed, args.seconds, args.epochs,
                  args.setups, args.trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
