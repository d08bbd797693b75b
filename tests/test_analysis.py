"""Tests for the performance analyzer (repro.telemetry.analysis).

The acceptance criteria of the analysis subsystem:

- the causal critical path tiles the timeline exactly: ``covered`` equals
  the makespan bit for bit, and on real training runs the makespan equals
  the trainer's reported ``epoch_time``;
- the hidden/exposed grad-sync split reconciles with the metrics ledgers
  *and* the per-bucket lane spans;
- the what-if replay is honest: removing an injected straggler recovers
  the clean run's epoch time within tolerance, and the knob ranks first;
- everything is deterministic — the same seed yields a byte-identical
  scrubbed AnalysisReport;
- span ``args`` payload metadata agrees with the metrics registry.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import example, given

from repro.faults import FaultPlan, StragglerGpu
from repro.graph import MultiGpuGraphStore
from repro.hardware import SimNode
from repro.serve import (
    FrozenModel,
    InferenceEngine,
    MicroBatcher,
    synthesize_requests,
)
from repro.telemetry import metrics
from repro.telemetry.analysis import (
    analyze_node,
    analyze_report,
    attribute_regression,
    critical_path,
    default_knobs,
    overlap_report,
    render_text,
    replay_makespan,
    whatif_ranking,
)
from repro.telemetry.analysis.__main__ import main as analysis_main
from repro.train import WholeGraphTrainer
from repro.utils.rng import spawn_rng

from tests.test_sim_streams import _run_program, stream_programs

TRAIN_KW = dict(batch_size=32, fanouts=[5, 5], hidden=32)


def _trainer(dataset, plan=None, overlap=False, **kw):
    store = MultiGpuGraphStore(SimNode(), dataset, seed=0)
    trainer = WholeGraphTrainer(
        store, "graphsage", seed=3, overlap=overlap, fault_plan=plan,
        **TRAIN_KW, **kw,
    )
    # drop the store-build spans so the epoch starts at t=0 and the path
    # makespan is comparable to the trainer's epoch_time
    store.node.reset_clocks()
    return trainer


# ---------------------------------------------------------------------------
# critical path: exactness on real engines
# ---------------------------------------------------------------------------


class TestCriticalPathExactness:
    def test_makespan_equals_epoch_time_clean(self, registry, medium_dataset):
        trainer = _trainer(medium_dataset)
        stats = trainer.train_epoch(max_iterations=4)
        report = analyze_node(trainer.node, metrics=registry, name="clean")
        assert report.makespan == stats.epoch_time
        assert report.critical_path["covered"] == report.makespan
        assert report.critical_path["epoch_time"] == stats.epoch_time

    def test_makespan_equals_epoch_time_overlap(self, registry, medium_dataset):
        trainer = _trainer(medium_dataset, overlap=True)
        stats = trainer.train_epoch(max_iterations=4)
        report = analyze_node(trainer.node, metrics=registry, name="overlap")
        assert report.makespan == stats.epoch_time
        assert report.critical_path["covered"] == report.makespan

    def test_makespan_equals_epoch_time_faulted(self, registry, medium_dataset):
        plan = FaultPlan(events=[StragglerGpu(rank=3, slowdown=2.0)], seed=1)
        trainer = _trainer(medium_dataset, plan=plan)
        stats = trainer.train_epoch(max_iterations=4)
        report = analyze_node(trainer.node, metrics=registry, name="faulted")
        assert report.makespan == stats.epoch_time
        assert report.critical_path["covered"] == report.makespan

    def test_blame_tables_sum_to_makespan(self, registry, medium_dataset):
        trainer = _trainer(medium_dataset, overlap=True)
        trainer.train_epoch(max_iterations=4)
        report = analyze_node(trainer.node, metrics=registry)
        for table in ("blame_phase", "blame_device", "blame_category"):
            total = sum(report.critical_path[table].values())
            assert total == pytest.approx(report.makespan, rel=1e-9)

    def test_slack_rows_present(self, registry, medium_dataset):
        # SPMD charging makes a clean run's ranks identical (zero slack
        # everywhere); a straggler skews them, giving the non-straggling
        # ranks' spans real slack before each barrier
        plan = FaultPlan(events=[StragglerGpu(rank=3, slowdown=2.0)], seed=1)
        trainer = _trainer(medium_dataset, plan=plan)
        trainer.train_epoch(max_iterations=4)
        report = analyze_node(trainer.node, metrics=registry)
        rows = report.slack["top_slack"]
        assert rows, "expected off-path spans with positive slack"
        for row in rows:
            assert row["slack"] > 0.0
            assert row["device"] != "gpu3", (
                "the straggler's own spans are the tight ones"
            )


# ---------------------------------------------------------------------------
# property: the path tiles any random stream program exactly
# ---------------------------------------------------------------------------


@given(stream_programs())
# summing the entry durations gives 5.34235831679805 here: coverage must
# be defined telescopically, not as a float sum
@example((1, [(0, 1.0598570175975532, [], False), (0, 0.0, [], True)],
          5.342358316798051))
def test_critical_path_covers_random_dag(program):
    """On an arbitrary scheduler DAG the path length equals the makespan."""
    _, _, events, streams = _run_program(program)
    if not streams:
        return
    timeline = streams[0].clock.timeline
    provenance = [streams[0].loop.provenance]
    cp = critical_path([timeline], provenance)
    makespan = max((sp.end for sp in timeline.spans), default=0.0)
    assert cp.makespan == makespan
    assert cp.covered == makespan
    # the path is contiguous in time: entries tile [0, makespan]
    entries = cp.entries
    if entries:
        assert entries[0].start == 0.0
        assert entries[-1].end == makespan
        for a, b in zip(entries, entries[1:]):
            assert a.end == b.start


@given(stream_programs())
def test_identity_replay_matches_makespan(program):
    """Replaying the DAG with no scaling reproduces the recorded makespan."""
    _, _, _, streams = _run_program(program)
    if not streams:
        return
    timeline = streams[0].clock.timeline
    makespan = max((sp.end for sp in timeline.spans), default=0.0)
    assert replay_makespan([timeline]) == pytest.approx(makespan, rel=1e-9)


# ---------------------------------------------------------------------------
# overlap: ledgers and lanes reconcile
# ---------------------------------------------------------------------------


class TestOverlapReconciliation:
    def test_grad_sync_ledger_consistent(self, registry, medium_dataset):
        trainer = _trainer(medium_dataset, overlap=True)
        trainer.train_epoch(max_iterations=4)
        rep = overlap_report(registry, [trainer.node.timeline])
        gs = rep["grad_sync"]
        assert gs["ledger_consistent"]
        assert gs["reconciled"], (
            "lane per-bucket exposed/hidden split must match the ledgers"
        )
        assert gs["total"] == pytest.approx(
            gs["exposed"] + gs["hidden"], rel=1e-9
        )
        assert 0.0 <= gs["exposed_fraction"] <= 1.0

    def test_slow_backward_hides_communication(self, registry,
                                               medium_dataset):
        # a straggler's 2x backward stretches the overlap window until the
        # bucketed all-reduce hides completely behind it
        plan = FaultPlan(events=[StragglerGpu(rank=3, slowdown=2.0)], seed=1)
        trainer = _trainer(medium_dataset, plan=plan)
        trainer.train_epoch(max_iterations=4)
        gs = overlap_report(registry, [trainer.node.timeline])["grad_sync"]
        assert gs["hidden"] > 0.0
        assert gs["exposed_fraction"] < 1.0
        assert gs["ledger_consistent"] and gs["reconciled"]


# ---------------------------------------------------------------------------
# what-if: the straggler knob tells the truth
# ---------------------------------------------------------------------------


class TestWhatIf:
    def test_no_straggler_recovers_clean_epoch(self, registry, medium_dataset):
        # overlap_grad_sync=False keeps the all-reduce as exposed spans in
        # both runs — replay can undo dilation exactly, but cannot re-expose
        # comm the straggler's longer backward happened to hide
        clean = _trainer(medium_dataset, overlap_grad_sync=False)
        clean_stats = clean.train_epoch(max_iterations=4)

        plan = FaultPlan(events=[StragglerGpu(rank=3, slowdown=2.0)], seed=1)
        faulted = _trainer(medium_dataset, plan=plan,
                           overlap_grad_sync=False)
        faulted_stats = faulted.train_epoch(max_iterations=4)
        assert faulted_stats.epoch_time > clean_stats.epoch_time

        ranking = whatif_ranking([faulted.node.timeline])
        scenarios = {row["knob"]: row for row in ranking["scenarios"]}
        assert "no_straggler" in scenarios
        # the dominant saving: removing the straggler ranks first
        assert ranking["scenarios"][0]["knob"] == "no_straggler"
        # and its replayed epoch time lands near the clean run's
        recovered = scenarios["no_straggler"]["epoch_time"]
        assert recovered == pytest.approx(clean_stats.epoch_time, rel=0.05)

    def test_straggler_knob_absent_on_clean_runs(self, registry, medium_dataset):
        trainer = _trainer(medium_dataset)
        trainer.train_epoch(max_iterations=4)
        names = {k.name for k in default_knobs([trainer.node.timeline])}
        assert "no_straggler" not in names
        assert {"gather_2x", "nvlink_bw_2x", "compute_2x"} <= names

    def test_scalings_never_slow_the_replay(self, registry, medium_dataset):
        trainer = _trainer(medium_dataset, overlap=True)
        trainer.train_epoch(max_iterations=4)
        ranking = whatif_ranking([trainer.node.timeline])
        for row in ranking["scenarios"]:
            assert row["delta_seconds"] >= -1e-12


# ---------------------------------------------------------------------------
# determinism: byte-identical reports
# ---------------------------------------------------------------------------


def test_analysis_report_is_deterministic(medium_dataset):
    def run():
        saved = metrics.set_registry(metrics.MetricsRegistry())
        try:
            trainer = _trainer(medium_dataset, overlap=True)
            trainer.train_epoch(max_iterations=4)
            report = analyze_node(
                trainer.node, metrics=metrics.get_registry(), name="det"
            )
            return report.to_json()
        finally:
            metrics.set_registry(saved)

    assert run() == run()


# ---------------------------------------------------------------------------
# regression attribution (diff)
# ---------------------------------------------------------------------------


class TestAttributeRegression:
    BASE = {"epoch_time": 1.0, "phase_totals": {"gather": 0.4, "train": 0.6}}
    CAND = {"epoch_time": 1.5, "phase_totals": {"gather": 0.8, "train": 0.7}}

    def test_worst_phase_and_share(self):
        out = attribute_regression(self.BASE, self.CAND)
        assert out["total_delta"] == pytest.approx(0.5)
        assert out["worst"]["phase"] == "gather"
        assert out["worst"]["share"] == pytest.approx(0.4 / 0.5)

    def test_no_regression_gives_no_worst(self):
        out = attribute_regression(self.CAND, self.BASE)
        assert out["worst"] is None
        assert out["total_delta"] == pytest.approx(-0.5)

    def test_devices_block_from_analysis_reports(self):
        base = {
            "makespan": 1.0,
            "critical_path": {"blame_phase": {"a": 1.0},
                              "blame_device": {"gpu0": 1.0}},
        }
        cand = {
            "makespan": 2.0,
            "critical_path": {"blame_phase": {"a": 2.0},
                              "blame_device": {"gpu0": 2.0}},
        }
        out = attribute_regression(base, cand)
        assert out["devices"][0]["phase"] == "gpu0"
        assert out["devices"][0]["delta"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# serve: opt-in analysis leaves the report untouched and blames the tail
# ---------------------------------------------------------------------------


def _serve(dataset, analysis: bool):
    store = MultiGpuGraphStore(SimNode(), dataset, seed=0)
    trainer = WholeGraphTrainer(store, "graphsage", seed=3, **TRAIN_KW)
    trainer.train_epoch(max_iterations=2)
    model = FrozenModel(trainer.model)
    store.node.reset_clocks()
    engine = InferenceEngine(
        store, model=model, fanouts=[5, 5],
        batcher=MicroBatcher(max_batch_size=8, max_wait_us=400.0),
        routing="round_robin",
    )
    requests = synthesize_requests(
        200, rate_qps=50_000.0, node_pool=store.test_nodes,
        rng=spawn_rng(21, "serve-analysis"), process="poisson",
    )
    return engine.serve(requests, seed=9, analysis=analysis)


class TestServeAnalysis:
    def test_analysis_does_not_perturb_the_report(self, registry,
                                                  medium_dataset):
        plain = _serve(medium_dataset, analysis=False).report.to_dict()
        registry.reset()
        analyzed = _serve(medium_dataset, analysis=True).report.to_dict()
        blame = analyzed.pop("latency_blame")
        series = analyzed.pop("timeseries")
        assert blame is not None and series is not None
        assert "latency_blame" not in plain and "timeseries" not in plain
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            analyzed, sort_keys=True
        )

    def test_p99_blame_structure(self, registry, medium_dataset):
        blame = _serve(medium_dataset, analysis=True).report.latency_blame
        tail = blame["p99_tail"]
        stages = ("queue_wait", "sample", "gather", "infer", "other")
        assert set(tail["seconds"]) == set(stages)
        assert sum(tail["fraction"].values()) == pytest.approx(1.0, abs=1e-9)
        assert tail["worst_stage"] in stages
        assert blame["p99_latency"] >= blame["all"]["mean_latency"]

    def test_timeseries_windows_tile_the_run(self, registry, medium_dataset):
        report = _serve(medium_dataset, analysis=True).report
        series = report.timeseries
        windows = series["windows"]
        assert len(windows) == 20
        assert windows[-1]["t_end"] == pytest.approx(
            report.duration_seconds, rel=1e-9
        )
        assert sum(w["completed"] for w in windows) == report.num_requests


# ---------------------------------------------------------------------------
# span args agree with the metrics registry
# ---------------------------------------------------------------------------


def test_gather_span_args_match_link_ledger(registry, medium_dataset):
    """Per-span byte args sum to the per-link byte counters exactly."""
    store = MultiGpuGraphStore(SimNode(), medium_dataset, seed=0)
    registry.reset()
    store.node.timeline.clear()
    rng = spawn_rng(5, "span-args")
    for rank in range(store.node.num_gpus):
        rows = rng.integers(0, medium_dataset.num_nodes, size=256)
        store.feature_tensor.gather(rows, rank=rank)
    span_bytes = span_remote = 0
    for sp in store.node.timeline.spans:
        if sp.category == "gather" and sp.args:
            span_bytes += sp.args["bytes"]
            span_remote += sp.args["remote_bytes"]
    nvlink = registry.total("gather_link_bytes_total", link="nvlink")
    hbm = registry.total("gather_link_bytes_total", link="hbm")
    assert span_remote == nvlink
    assert span_bytes - span_remote == hbm


def test_grad_sync_lane_args_match_ledger(registry, medium_dataset):
    """Per-bucket lane exposed/hidden args sum to the grad-sync ledgers."""
    trainer = _trainer(medium_dataset, overlap=True)
    trainer.train_epoch(max_iterations=4)
    exposed = hidden = 0.0
    for sp in trainer.node.timeline.spans:
        if sp.phase == "allreduce_bucket" and sp.args:
            exposed += sp.args["exposed_s"]
            hidden += sp.args["hidden_s"]
    assert exposed == pytest.approx(
        registry.total("grad_sync_exposed_seconds_total"), rel=1e-9
    )
    assert hidden == pytest.approx(
        registry.total("grad_sync_hidden_seconds_total"), rel=1e-9
    )


def test_straggler_spans_carry_dilation(registry, medium_dataset):
    plan = FaultPlan(events=[StragglerGpu(rank=3, slowdown=2.0)], seed=1)
    trainer = _trainer(medium_dataset, plan=plan)
    trainer.train_epoch(max_iterations=4)
    dilations = [
        sp.args["dilation"]
        for sp in trainer.node.timeline.spans
        if sp.args and "dilation" in sp.args
    ]
    assert dilations, "straggler-dilated spans must be marked"
    assert all(d == pytest.approx(2.0) for d in dilations)


# ---------------------------------------------------------------------------
# report mode + CLI
# ---------------------------------------------------------------------------


def _run_manifest(registry, dataset, name="t5"):
    trainer = _trainer(dataset, overlap=True)
    trainer.train_epoch(max_iterations=4)
    return trainer.run_report(name=name).to_dict()


class TestReportModeAndCli:
    def test_analyze_report_blames_phases(self, registry, medium_dataset):
        data = _run_manifest(registry, medium_dataset)
        report = analyze_report(data)
        assert report.mode == "report"
        assert report.critical_path["blame_phase"] == pytest.approx(
            data["phase_totals"]
        )
        assert report.whatif, "phase-arithmetic what-ifs expected"
        text = render_text(report)
        assert "critical path" in text and "what-if" in text

    def test_cli_prints_train_ledger_summing_to_train_phase(
        self, capsys, tmp_path
    ):
        """Report mode prints the committed sequential golden's per-layer,
        per-pass, per-op train ledger; its rows sum to the train phase."""
        golden = Path(__file__).parent / "golden" / "train_sequential.json"
        data = json.loads(golden.read_text())
        ledger = analyze_report(data).train_ledger
        assert set(ledger) == {"0", "1", "all"}
        assert set(ledger["0"]) == {"forward", "backward"}
        assert set(ledger["all"]) == {"optimizer"}
        rows = [t for passes in ledger.values() for ops in passes.values()
                for t in ops.values()]
        assert len(rows) == 4 * 5
        train = data["metrics"]["phase_seconds_total{phase=train}"]["value"]
        assert sum(rows) == pytest.approx(train, rel=1e-9)
        rc = analysis_main([str(golden), "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "train ledger" in out
        assert "backward" in out and "optimizer" in out

    def test_cli_writes_artifact_and_gates(self, registry, medium_dataset,
                                           tmp_path, capsys):
        data = _run_manifest(registry, medium_dataset)
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps(data))

        rc = analysis_main([str(manifest), "--max-exposed-comm-frac", "1.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert (tmp_path / "run.analysis.json").exists()
        assert "gate ok" in out

        rc = analysis_main([str(manifest), "--max-exposed-comm-frac", "1e-9"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "GATE FAILED" in out

    def test_cli_regression_attribution(self, registry, medium_dataset,
                                        tmp_path, capsys):
        data = _run_manifest(registry, medium_dataset)
        base = dict(data)
        base["phase_totals"] = {
            k: v * 0.5 for k, v in data["phase_totals"].items()
        }
        base_path = tmp_path / "base.json"
        cand_path = tmp_path / "cand.json"
        base_path.write_text(json.dumps(base))
        cand_path.write_text(json.dumps(data))
        rc = analysis_main([str(cand_path), "--baseline", str(base_path)])
        assert rc == 0
        report = json.loads(
            (tmp_path / "cand.analysis.json").read_text()
        )
        worst = report["regression"]["worst"]
        assert worst is not None and worst["share"] > 0.0


def test_compare_runs_names_worst_regressor(tmp_path, capsys):
    import importlib.util
    import pathlib

    spec = importlib.util.spec_from_file_location(
        "compare_runs",
        pathlib.Path(__file__).resolve().parent.parent
        / "benchmarks" / "compare_runs.py",
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)

    base = {"name": "r", "phase_totals": {"gather": 0.4, "train": 0.6},
            "epoch_time": 1.0}
    cand = {"name": "r", "phase_totals": {"gather": 0.9, "train": 0.7},
            "epoch_time": 1.6}
    bp, cp = tmp_path / "b.json", tmp_path / "c.json"
    bp.write_text(json.dumps(base))
    cp.write_text(json.dumps(cand))
    rc = mod.main([str(bp), str(cp)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "worst regressor: 'gather'" in out
    assert "83% of the growth" in out
