"""End-to-end benchmark: host throughput, memory and simulated step time.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload gat-papers --seed 0 --seconds 15 --trace 0
    PYTHONPATH=src python -m benchmarks.e2e --seed 0            # all workloads
    PYTHONPATH=src python -m benchmarks.e2e --seed 0 --trace    # per-layer

Each workload runs in a fresh child process (``child.py``) with
single-threaded BLAS: the host has few cores, and the BLAS thread count
changes the float results.  Without ``--trace`` the run reports the
end-to-end metrics.  With ``--trace`` a traced child reports the per-layer
metrics, then an untraced child repeats the same epochs: both must give the
same losses and simulated times bit for bit, and the throughput difference
is printed as the tracing overhead.

Every metric is printed by name with its unit, the result is written to
``benchmarks/e2e/out/<workload>/seed<N>[-trace].json`` (a traced run also
writes ``seed<N>.chrome.json``), and the last output line is one JSON
object: ``correct``, ``attempted``, ``failed`` and the ``metrics`` that
``BENCHMARK.json`` lists.  The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.metrics import (  # noqa: E402
    BY_NAME,
    END_TO_END,
    LAYERS,
    WORKLOAD_NAMES,
    median_chunk_throughput,
)

#: one workload's run, both children included, ends within this
RUN_BUDGET_S = 170.0

_CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def run_child(workload: str, seed: int, deadline: float, *,
              seconds: float, epochs: int | None = None, setups: int = 1,
              trace_file: Path | None = None) -> tuple[dict | None, str]:
    """Measure ``workload`` in a fresh process; ``(raw result, error)``."""
    cmd = [sys.executable, "-m", "benchmarks.e2e.child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--setups", str(setups)]
    if epochs is not None:
        cmd += ["--epochs", str(epochs)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    env = dict(os.environ, **_CHILD_ENV,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"child killed after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"child exited with code {proc.returncode}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, "child printed no result"


def _losses(raw: dict) -> list[float]:
    return [raw["warmup"]["loss"]] + [e["loss"] for e in raw["epochs"]]


def evaluate(raw: dict | None, error: str) -> dict:
    """End-to-end metrics, failure counts and checks of one child's run."""
    if raw is None:
        # the process died: everything it attempted failed
        return {"metrics": {"failed_frac": 1.0}, "attempted": 1,
                "failed": 1, "checks": [error]}
    epochs = raw["epochs"]
    attempted = sum(e["iterations"] for e in epochs)
    failed = sum(e["iterations"] for e in epochs
                 if not math.isfinite(e["loss"]))
    checks = []
    if raw["error"]:
        attempted += 1
        failed += 1
        checks.append("a step raised: " + raw["error"].strip().splitlines()[-1])
    if "warmup" in raw and not all(map(math.isfinite, _losses(raw))):
        checks.append("non-finite loss")
    metrics = {"failed_frac": failed / max(attempted, 1)}
    if epochs and not checks:
        if not epochs[-1]["loss"] < raw["warmup"]["loss"]:
            checks.append("loss did not fall below the warm-up epoch's")
        metrics.update(
            train_samples_per_s=median_chunk_throughput(
                epochs[0]["samples"], [e["host_s"] for e in epochs]
            ),
            peak_rss_mb=raw["peak_rss_mb"],
            setup_s=statistics.median(sum(s) for s in raw["setup"]),
            sim_step_ms=raw["sim"]["sim_step_ms"],
        )
        if not metrics["sim_step_ms"] > 0:
            checks.append("simulated step time is not positive")
    return {"metrics": metrics, "attempted": max(attempted, 1),
            "failed": failed, "checks": checks}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            out_dir: Path) -> dict:
    """Run one workload: untraced, or traced plus its untraced replay."""
    deadline = time.monotonic() + RUN_BUDGET_S
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_file = out_dir / f"seed{seed}.chrome.json" if trace else None
    raw, err = run_child(workload, seed, deadline, seconds=seconds,
                         setups=1 if trace else 3, trace_file=trace_file)
    res = evaluate(raw, err)
    if trace and not res["checks"]:
        res["checks"] += check_replay(raw, res, deadline)
        per_layer = {**raw["layers"], **raw["sim"]}
        res["metrics"] = {
            "failed_frac": res["metrics"]["failed_frac"],
            **{m.name: per_layer[m.name] for m in LAYERS
               if m.name in per_layer},
        }
        res["trace_file"] = os.path.relpath(trace_file)
    if raw is not None and "warmup" in raw:
        res["losses"] = _losses(raw)
        res["sim_epoch_ms"] = [e["sim_s"] * 1e3 for e in raw["epochs"]]
        res["epoch_s"] = [e["host_s"] for e in raw["epochs"]]
        res["setup_stages_s"] = raw["setup"]
    if not res["checks"]:
        res["checks"] += [f"{m.name} was not measured"
                          for m in (LAYERS if trace else END_TO_END)
                          if m.listed and m.name not in res["metrics"]]
    res.update(workload=workload, seed=seed, trace=trace,
               correct=not res["checks"])
    path = out_dir / f"seed{seed}{'-trace' if trace else ''}.json"
    path.write_text(json.dumps(res, indent=1) + "\n")
    res["result_file"] = os.path.relpath(path)
    return res


def check_replay(traced: dict, res: dict, deadline: float) -> list[str]:
    """Replay the traced epochs untraced; the losses and simulated times
    must match bit for bit.  Sets ``res["overhead"]``."""
    checks = []
    if traced["traced_steps"] != sum(e["iterations"]
                                     for e in traced["epochs"]):
        checks.append("GradSyncModel.charge did not return once per step")
    ref, err = run_child(traced["workload"], traced["seed"], deadline,
                         seconds=0, epochs=len(traced["epochs"]))
    ref_res = evaluate(ref, err)
    if ref_res["checks"]:
        return checks + [f"untraced replay: {c}" for c in ref_res["checks"]]
    if _losses(traced) != _losses(ref):
        checks.append("traced losses differ from the untraced run's")
    if ([e["sim_s"] for e in traced["epochs"]]
            != [e["sim_s"] for e in ref["epochs"]]
            or traced["sim"] != ref["sim"]):
        checks.append("traced simulated times differ from the untraced run's")
    res["overhead"] = 1.0 - (
        res["metrics"]["train_samples_per_s"]
        / ref_res["metrics"]["train_samples_per_s"]
    )
    return checks


def report(res: dict) -> None:
    """Print every metric of one workload by name, with its unit."""
    kind = "per-layer (traced)" if res["trace"] else "end-to-end"
    print(f"== {res['workload']}  seed {res['seed']}  {kind}")
    for name, value in res["metrics"].items():
        print(f"  {name:28s} {value:14.6g} {BY_NAME[name].unit}")
    if "overhead" in res:
        print(f"  tracing overhead (throughput): {100 * res['overhead']:+.1f}%")
    print(f"  attempted {res['attempted']} steps, failed {res['failed']}; "
          f"{'correct' if res['correct'] else 'NOT CORRECT'}")
    for check in res["checks"]:
        print(f"  ! {check}")
    print(f"  result: {res['result_file']}")


def main(argv=None) -> int:
    """Run the requested workloads; print and write their results."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(
        description="WholeGraph reproduction end-to-end benchmark"
    )
    p.add_argument("--workload", default="all",
                   choices=("all",) + WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="timed seconds per workload run")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="per-layer traced run")
    p.add_argument("--out", type=Path,
                   default=ROOT / "benchmarks" / "e2e" / "out",
                   help="directory for result files and Chrome traces")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: the repro package is not under src/; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    listed = [m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]]
    results = []
    for name in names:
        res = measure(name, args.seed, args.seconds, bool(args.trace),
                      args.out.resolve() / name)
        report(res)
        results.append(res)

    def line_metrics(res, prefix=""):
        return {prefix + m: {"value": res["metrics"][m],
                             "unit": BY_NAME[m].unit}
                for m in listed if m in res["metrics"]}

    if len(results) == 1:
        metrics = line_metrics(results[0])
    else:
        metrics = {}
        for res in results:
            metrics.update(line_metrics(res, res["workload"] + "/"))
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
