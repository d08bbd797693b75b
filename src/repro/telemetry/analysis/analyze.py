"""Entry points assembling the four analyses into an AnalysisReport.

Two modes, by what survives of the run:

- **timeline mode** (:func:`analyze_node` / :func:`analyze_timeline`) — the
  full span-level analysis: causal critical path, slack, lane-reconciled
  overlap, DAG-replay what-ifs.  Needs the in-process
  :class:`~repro.hardware.clock.Timeline` (and ideally the scheduler's
  provenance log), i.e. runs in the same process as the simulation.
- **report mode** (:func:`analyze_report`) — manifest-only: phase
  attribution from ``phase_totals``, overlap from the metrics-ledger
  snapshot, the per-layer train ledger, phase-arithmetic what-if bounds.
  This is what the CLI runs on a saved RunReport/ServeReport JSON, and
  what the CI analysis gate uses.
"""

from __future__ import annotations

from repro.telemetry.analysis.critical_path import critical_path, slack_summary
from repro.telemetry.analysis.diff import attribute_regression
from repro.telemetry.analysis.overlap import overlap_report
from repro.telemetry.analysis.report import AnalysisReport
from repro.telemetry.analysis.whatif import report_whatif, whatif_ranking

__all__ = ["analyze_node", "analyze_timeline", "analyze_report"]


def analyze_timeline(
    timelines,
    provenance=None,
    metrics=None,
    name: str = "run",
    epoch_time: float | None = None,
) -> AnalysisReport:
    """Full span-level analysis of one or more completed timelines.

    ``provenance`` is the matching ``EventLoop.provenance`` list(s);
    ``metrics`` a live registry or snapshot dict for the overlap ledgers;
    ``epoch_time``, when given, is recorded next to the path makespan (the
    two are equal on every in-repo engine — the acceptance criterion).
    """
    cp = critical_path(timelines, provenance)
    ranking = whatif_ranking(timelines)
    report = AnalysisReport(name=name, mode="timeline", makespan=cp.makespan)
    report.critical_path = cp.to_dict()
    if epoch_time is not None:
        report.critical_path["epoch_time"] = epoch_time
    report.overlap = overlap_report(metrics, timelines)
    report.whatif = ranking["scenarios"]
    report.slack = slack_summary(cp)
    report.notes.append(
        f"what-if deltas are vs the identity replay "
        f"({ranking['baseline']:.9g}s), cancelling float-summation bias"
    )
    return report


def analyze_node(nodes, metrics=None, name: str = "run") -> AnalysisReport:
    """Analyze live :class:`~repro.hardware.machine.SimNode`\\ (s) in-process.

    Collects each node's timeline, its scheduler provenance (when the node
    ever ran streams), and the epoch time the trainers report — the max
    ``now`` across GPU and host clocks.
    """
    node_list = nodes if isinstance(nodes, (list, tuple)) else [nodes]
    timelines = [n.timeline for n in node_list]
    provenance = [
        n._streams.loop.provenance
        for n in node_list
        if getattr(n, "_streams", None) is not None
    ]
    epoch_time = max(
        max((c.now for c in n.gpu_clock), default=0.0)
        for n in node_list
    )
    epoch_time = max(
        epoch_time, max(n.host_clock.now for n in node_list)
    )
    return analyze_timeline(
        timelines,
        provenance=provenance or None,
        metrics=metrics,
        name=name,
        epoch_time=epoch_time,
    )


def _train_ledger(metrics: dict | None) -> dict:
    """The ``train_seconds_total{layer, pass, op}`` rows of a metrics
    snapshot as ``{layer: {pass: {op: seconds}}}``; they sum to the
    snapshot's ``phase_seconds_total{phase="train"}``."""
    out: dict = {}
    for key, entry in (metrics or {}).items():
        if key.startswith("train_seconds_total{"):
            labels = entry["labels"]
            out.setdefault(labels["layer"], {}).setdefault(
                labels["pass"], {}
            )[labels["op"]] = float(entry["value"])
    return out


def analyze_report(
    data: dict, baseline: dict | None = None, name: str | None = None,
) -> AnalysisReport:
    """Manifest-only analysis of a RunReport/ServeReport dict.

    Phase "blame" here is the phase-totals table (no path information
    survives in a manifest); what-ifs are phase-arithmetic upper bounds.
    ``baseline`` adds a regression-attribution block.
    """
    phase_totals = {
        k: float(v) for k, v in (data.get("phase_totals") or {}).items()
    }
    epoch = data.get("epoch_time")
    if epoch is None:
        epoch = data.get("duration_seconds")
    if epoch is None:
        epoch = sum(phase_totals.values())
    epoch = float(epoch)
    report = AnalysisReport(
        name=name or data.get("name", "run"),
        mode="report",
        makespan=epoch,
    )
    if phase_totals:
        report.critical_path = {
            "makespan": epoch,
            "covered": sum(phase_totals.values()),
            "entries": 0,
            "blame_phase": phase_totals,
        }
    report.overlap = overlap_report(data.get("metrics"))
    report.train_ledger = _train_ledger(data.get("metrics"))
    report.whatif = report_whatif(phase_totals, epoch)["scenarios"]
    report.notes.append(
        "report mode: blame is the phase-totals table and what-ifs are "
        "phase-arithmetic upper bounds; run the analyzer in-process "
        "(analyze_node) for causal path attribution"
    )
    if data.get("latency_blame"):
        worst = data["latency_blame"].get("p99_tail", {}).get("worst_stage")
        if worst:
            report.notes.append(f"serve p99 tail is dominated by: {worst}")
    if baseline is not None:
        report.regression = attribute_regression(baseline, data)
    return report
