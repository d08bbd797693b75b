"""Golden charging cases: the scheduler refactor's bit-identity contract.

Each case below runs one overlap engine (the training schedules, the bucketed
grad-sync, the cluster trainer's hierarchical rings, or the serve engine)
end-to-end and returns the *scrubbed* report JSON.  The committed files under
``tests/golden/`` were generated by the legacy hand-charged implementations
(double-buffered prefetch charging, ``GradSyncPlan`` exposed-tail charging,
the serve ``serve_wait`` loop) **before** the engines were rebuilt on the
:mod:`repro.sim` event-driven stream scheduler and the shared batch loader;
``tests/test_scheduler_golden.py`` asserts the rebuilt engines reproduce
them byte for byte.

Regenerate (only when charging semantics change *intentionally*)::

    PYTHONPATH=src python -m tests.golden_cases --write

then review how far every number moved against a git revision::

    PYTHONPATH=src python -m tests.golden_cases --compare HEAD~

``--compare`` reads each ``tests/golden/*.json`` at the revision through
``git show`` and reports, per file, ``identical`` or the added/removed keys
and the largest float move.  It exits non-zero if a key set differs, an int,
string, bool or null differs, or a float moves more than
``max(1e-12 * |old|, 1e-15)``.
"""

from __future__ import annotations

import json
import pathlib
import subprocess

from repro.cluster.trainer import ClusterTrainer
from repro.faults import (
    FaultPlan,
    GatherReplyLoss,
    LinkDegradation,
    StragglerGpu,
)
from repro.graph import MultiGpuGraphStore, load_dataset
from repro.hardware import SimNode
from repro.serve import (
    FrozenModel,
    InferenceEngine,
    MicroBatcher,
    synthesize_requests,
)
from repro.telemetry import metrics
from repro.telemetry.run_report import scrub_report
from repro.utils.rng import spawn_rng

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _dataset():
    """Same spec as the ``medium_dataset`` fixture (session-independent)."""
    return load_dataset(
        "ogbn-products", num_nodes=3000, seed=7, feature_dim=16,
        num_classes=5,
    )


def _transient_plan() -> FaultPlan:
    """Straggler + link degradation + gather reply loss (all transient)."""
    return FaultPlan(
        events=[
            StragglerGpu(rank=1, slowdown=3.0),
            LinkDegradation(factor=2.0),
            GatherReplyLoss(probability=0.5),
        ],
        seed=11,
    )


def _scrubbed(report) -> str:
    if not isinstance(report, dict):
        report = report.to_dict()
    return json.dumps(scrub_report(report), sort_keys=True, indent=2)


def _isolated(fn):
    """Run ``fn`` against a fresh process metrics registry."""
    prev = metrics.set_registry(metrics.MetricsRegistry())
    try:
        return fn()
    finally:
        metrics.set_registry(prev)


def _train_case(overlap: bool, fault_plan: FaultPlan | None = None) -> str:
    from repro.train import WholeGraphTrainer

    def run():
        store = MultiGpuGraphStore(SimNode(), _dataset(), seed=0)
        trainer = WholeGraphTrainer(
            store, "graphsage", seed=3, batch_size=32, fanouts=[5, 5],
            hidden=32, overlap=overlap, fault_plan=fault_plan,
        )
        for _ in range(2):
            trainer.train_epoch(max_iterations=4)
        return _scrubbed(trainer.run_report())

    return _isolated(run)


def case_train_sequential() -> str:
    """Symmetric trainer, sequential schedule (no overlap)."""
    return _train_case(overlap=False)


def case_train_overlap() -> str:
    """Symmetric trainer, double-buffered pipelined schedule."""
    return _train_case(overlap=True)


def case_train_overlap_faulted() -> str:
    """Pipelined schedule under straggler + link degradation + loss."""
    return _train_case(overlap=True, fault_plan=_transient_plan())


def case_train_all_ranks() -> str:
    """Real data-parallel mode: per-rank replicas, bucketed all-reduce."""
    from repro.train import WholeGraphTrainer

    def run():
        store = MultiGpuGraphStore(SimNode(), _dataset(), seed=0)
        trainer = WholeGraphTrainer(
            store, "gcn", seed=5, batch_size=64, fanouts=[4, 4],
            hidden=32, compute_ranks="all",
        )
        trainer.train_epoch(max_iterations=2)
        return _scrubbed(trainer.run_report())

    return _isolated(run)


def _cluster_case(overlap: bool, fault_plan: FaultPlan | None = None) -> str:
    def run():
        trainer = ClusterTrainer(
            _dataset(), num_machine_nodes=2, model_name="graphsage",
            seed=4, batch_size=32, fanouts=[5, 5], hidden=32,
            overlap=overlap, fault_plan=fault_plan,
        )
        trainer.train_epoch(max_iterations=2)
        return _scrubbed(trainer.run_report())

    return _isolated(run)


def case_cluster_overlap() -> str:
    """Two machine nodes, pipelined schedule, hierarchical grad sync."""
    return _cluster_case(overlap=True)


def case_cluster_faulted() -> str:
    """Cluster run under straggler + link degradation + reply loss."""
    return _cluster_case(overlap=False, fault_plan=_transient_plan())


def _serve_case(with_model: bool, process: str) -> str:
    from repro.train import WholeGraphTrainer

    def run():
        store = MultiGpuGraphStore(SimNode(), _dataset(), seed=0)
        model = None
        fanouts = None
        if with_model:
            trainer = WholeGraphTrainer(
                store, "graphsage", seed=3, batch_size=32, fanouts=[5, 5],
                hidden=32,
            )
            trainer.train_epoch(max_iterations=2)
            model = FrozenModel(trainer.model)
            fanouts = [5, 5]
            store.node.reset_clocks()
        engine = InferenceEngine(
            store, model=model, fanouts=fanouts,
            batcher=MicroBatcher(max_batch_size=8, max_wait_us=400.0),
            routing="round_robin" if with_model else "hash",
        )
        requests = synthesize_requests(
            200, rate_qps=50_000.0, node_pool=store.test_nodes,
            rng=spawn_rng(21, "golden-serve"), process=process,
        )
        result = engine.serve(requests, seed=9)
        return _scrubbed(result.report)

    return _isolated(run)


def case_serve_model() -> str:
    """Model serving: Poisson arrivals, round-robin routing."""
    return _serve_case(with_model=True, process="poisson")


def case_serve_embedding_bursty() -> str:
    """Embedding-lookup serving under bursty (MMPP) arrivals."""
    return _serve_case(with_model=False, process="bursty")


def _recsys_trainer(store):
    from repro.train import WholeGraphTrainer

    return WholeGraphTrainer(
        store, "sage", seed=6, batch_size=64, task="linkpred",
        num_pairs=64, hidden=32, num_layers=2, lr=1e-2,
    )


def case_recsys_train() -> str:
    """Sparse-embedding link prediction: row-grad pushes on the comm lane."""
    from repro.graph import load_bipartite_dataset

    def run():
        ds = load_bipartite_dataset(num_users=400, num_items=150, seed=0)
        store = MultiGpuGraphStore(SimNode(), ds, seed=0)
        trainer = _recsys_trainer(store)
        for _ in range(2):
            trainer.train_epoch(max_iterations=4)
        return _scrubbed(trainer.run_report())

    return _isolated(run)


def case_recsys_serve() -> str:
    """Top-k recommendation serving over a trained embedding table."""
    from repro.graph import load_bipartite_dataset
    from repro.serve import RecsysEngine

    def run():
        ds = load_bipartite_dataset(num_users=400, num_items=150, seed=0)
        store = MultiGpuGraphStore(SimNode(), ds, seed=0)
        trainer = _recsys_trainer(store)
        trainer.train_epoch(max_iterations=4)
        store.node.reset_clocks()
        engine = RecsysEngine(
            store, FrozenModel(trainer.model), trainer.embedding,
            ds.item_nodes,
            batcher=MicroBatcher(max_batch_size=8, max_wait_us=400.0),
            top_k=10, score_scale=trainer._score_scale,
        )
        requests = synthesize_requests(
            150, rate_qps=50_000.0, node_pool=ds.user_nodes,
            rng=spawn_rng(23, "golden-recsys"), process="poisson",
        )
        result = engine.serve(requests, seed=9)
        return _scrubbed(result.report)

    return _isolated(run)


#: name -> case function; file is ``tests/golden/<name>.json``
CASES = {
    "train_sequential": case_train_sequential,
    "train_overlap": case_train_overlap,
    "train_overlap_faulted": case_train_overlap_faulted,
    "train_all_ranks": case_train_all_ranks,
    "cluster_overlap": case_cluster_overlap,
    "cluster_faulted": case_cluster_faulted,
    "serve_model": case_serve_model,
    "serve_embedding_bursty": case_serve_embedding_bursty,
    "recsys_train": case_recsys_train,
    "recsys_serve": case_recsys_serve,
}


#: a float may move by at most ``max(REL_TOL * |old|, ABS_TOL)``
REL_TOL = 1e-12
ABS_TOL = 1e-15


def _leaves(obj, path: str = ""):
    """``(path, value)`` for every scalar in a JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}/{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def compare_documents(old, new) -> tuple[list[str], bool]:
    """Report lines and pass/fail for one golden file, ``old`` -> ``new``."""
    before, after = dict(_leaves(old)), dict(_leaves(new))
    lines = []
    ok = True
    added = [k for k in after if k not in before]
    removed = [k for k in before if k not in after]
    if added or removed:
        ok = False
        lines += [f"added key {k}" for k in added]
        lines += [f"removed key {k}" for k in removed]
    worst_rel = worst_abs = (0.0, None)
    for key, a in before.items():
        if key not in after:
            continue
        b = after[key]
        floats = isinstance(a, float) and isinstance(b, float)
        if not floats:
            if type(a) is not type(b) or a != b:
                ok = False
                lines.append(f"changed {key}: {a!r} -> {b!r}")
            continue
        diff = abs(b - a)
        if diff > max(REL_TOL * abs(a), ABS_TOL):
            ok = False
            lines.append(f"float out of tolerance {key}: {a!r} -> {b!r}")
        rel = diff / abs(a) if a else (0.0 if diff == 0.0 else float("inf"))
        worst_rel = max(worst_rel, (rel, key), key=lambda x: x[0])
        worst_abs = max(worst_abs, (diff, key), key=lambda x: x[0])
    lines.insert(0, "within tolerance" if ok else "OUT OF TOLERANCE")
    lines.append(
        f"largest float move: rel {worst_rel[0]:.3g} ({worst_rel[1]}), "
        f"abs {worst_abs[0]:.3g} ({worst_abs[1]})"
    )
    return lines, ok


def compare_to_revision(rev: str) -> int:
    """Diff every golden file on disk against its version at ``rev``."""
    root = GOLDEN_DIR.parent.parent
    rc = 0
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        rel = path.relative_to(root).as_posix()
        shown = subprocess.run(
            ["git", "show", f"{rev}:{rel}"], cwd=root,
            capture_output=True, text=True,
        )
        if shown.returncode != 0:
            print(f"{path.name}: not present at {rev}")
            rc = 1
            continue
        text = path.read_text()
        if text == shown.stdout:
            print(f"{path.name}: identical")
            continue
        lines, ok = compare_documents(
            json.loads(shown.stdout), json.loads(text)
        )
        print(f"{path.name}: {lines[0]}")
        for line in lines[1:]:
            print(f"    {line}")
        rc |= 0 if ok else 1
    return rc


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--write", action="store_true",
                        help="(re)generate tests/golden/*.json")
    parser.add_argument("--only", nargs="*", default=None,
                        help="subset of case names")
    parser.add_argument("--compare", metavar="REV", default=None,
                        help="diff the golden files against git revision "
                             "REV instead of running the cases")
    args = parser.parse_args(argv)
    if args.compare is not None:
        return compare_to_revision(args.compare)
    names = args.only or sorted(CASES)
    GOLDEN_DIR.mkdir(exist_ok=True)
    rc = 0
    for name in names:
        text = CASES[name]()
        path = GOLDEN_DIR / f"{name}.json"
        if args.write:
            path.write_text(text + "\n")
            print(f"wrote {path} ({len(text)} bytes)")
        else:
            ok = path.exists() and path.read_text() == text + "\n"
            print(f"{name}: {'OK' if ok else 'MISMATCH'}")
            rc |= 0 if ok else 1
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
