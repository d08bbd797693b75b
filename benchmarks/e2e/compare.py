"""Compare benchmark results of a parent commit and a change.

    python -m benchmarks.e2e.compare --parent out-parent --change out-change

Each side is a list of result files (``seed<N>.json``, as ``run.py``
writes them) or directories searched for them; traced results are skipped.
Runs are paired by workload and seed, in file order.  Alternate which side
runs first when producing them.

For every end-to-end metric of ``BENCHMARK.json`` on every workload the
verdict is:

- ``better``: at least ``MIN_PAIRS`` pairs, the change wins at least
  ``WIN_SHARE`` of them (ties count for neither side), and the medians differ
  by more than the parent's interquartile range;
- ``unresolved``: the parent's own spread (IQR over median) is wider than
  the metric's bound, unless every change run beats every parent run;
- ``worse``: the change's median is worse than the parent's by more than
  the bound (a share of the parent's median);
- ``same`` otherwise.

Loss traces of runs at the same seed must be equal over their common
epochs.  The exit code is 1 if any metric is worse, any loss trace differs
or the change fails more steps than the parent, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from benchmarks.e2e.metrics import quartiles, relative_spread

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def wins(parent, change, better: str) -> int:
    """Pairs the change wins; ties count for neither side."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def classify(parent, change, better: str, bound: float) -> str:
    """Verdict for one metric on one workload from paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    if (len(parent) >= MIN_PAIRS
            and wins(parent, change, better) >= WIN_SHARE * len(parent)
            and sign * (cm - pm) > p3 - p1):
        return "better"
    if relative_spread(parent) > bound:
        every_change_better = (
            min(sign * c for c in change) > max(sign * p for p in parent)
        )
        return "same" if every_change_better else "unresolved"
    worse_by = -sign * (cm - pm) / abs(pm) if pm else math.inf
    return "worse" if worse_by > bound else "same"


def load_results(paths) -> list[dict]:
    """Untraced result files under ``paths``, in the order given."""
    out = []
    for path in map(Path, paths):
        files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
        for f in files:
            res = json.loads(f.read_text())
            if isinstance(res, dict) and "workload" in res and not res.get(
                "trace", True
            ):
                out.append(res)
    return out


def pair_up(parent: list[dict], change: list[dict]):
    """``{workload: [(parent run, change run), ...]}`` paired by seed."""
    pairs: dict[str, list] = {}
    for wl in sorted({r["workload"] for r in parent}):
        p = sorted((r for r in parent if r["workload"] == wl),
                   key=lambda r: r["seed"])
        c = sorted((r for r in change if r["workload"] == wl),
                   key=lambda r: r["seed"])
        pairs[wl] = list(zip(p, c))
    return pairs


def loss_mismatches(pairs) -> list[str]:
    """Runs at the same seed whose per-epoch losses differ."""
    out = []
    for wl, runs in pairs.items():
        for p, c in runs:
            n = min(len(p["losses"]), len(c["losses"]))
            if p["seed"] == c["seed"] and p["losses"][:n] != c["losses"][:n]:
                out.append(f"{wl} seed {p['seed']}: loss traces differ")
    return out


def compare(parent: list[dict], change: list[dict], end_to_end) -> tuple:
    """Rows ``(workload, metric, verdict, detail)`` and the problems found."""
    pairs = pair_up(parent, change)
    rows, problems = [], loss_mismatches(pairs)
    for wl, runs in pairs.items():
        if not runs:
            problems.append(f"{wl}: no change runs to pair with")
            continue
        failed = [sum(r["failed"] for r in side) for side in zip(*runs)]
        if failed[1] > failed[0]:
            problems.append(f"{wl}: change failed {failed[1]} steps, "
                            f"parent {failed[0]}")
        for m in end_to_end:
            p = [r["metrics"][m["name"]] for r, _ in runs]
            c = [r["metrics"][m["name"]] for _, r in runs]
            verdict = classify(p, c, m["better"], m["bound"])
            pq, cq = quartiles(p), quartiles(c)
            detail = (
                f"parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  "
                f"{100 * (cq[1] - pq[1]) / pq[1]:+.2f}%  "
                f"wins {wins(p, c, m['better'])}/{len(runs)}  "
                f"bound {m['bound']:g}"
            )
            rows.append((wl, m["name"], verdict, detail))
            if verdict == "worse":
                problems.append(f"{wl} {m['name']}: worse beyond its bound")
    return rows, problems


def main(argv=None) -> int:
    """Print the verdict table; exit 1 on a regression."""
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", nargs="+", required=True)
    p.add_argument("--change", nargs="+", required=True)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, problems = compare(load_results(args.parent),
                             load_results(args.change), spec["end_to_end"])
    for wl, name, verdict, detail in rows:
        print(f"{wl:24s} {name:22s} {verdict:10s} {detail}")
    for problem in problems:
        print(f"! {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
