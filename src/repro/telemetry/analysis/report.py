"""The :class:`AnalysisReport` artifact: one explanation of one run.

Every other artifact in the repo *records* time (spans, metrics, RunReport
phase totals); this one *explains* it.  An ``AnalysisReport`` bundles the
four analyses of :mod:`repro.telemetry.analysis` —

- the causal **critical path** through the completed event DAG, with
  per-phase / per-device / per-link blame and slack;
- the **overlap efficiency** of communication (hidden vs exposed comm,
  reconciled against the grad-sync metrics ledgers);
- the **what-if sensitivity** ranking (which knob cuts epoch time most);
- free-form **notes** on analysis mode and approximations;

— into a JSON manifest plus a terminal-readable text rendering.

Determinism contract: the report carries no timestamps, hostnames or wall
times, every dict is emitted with sorted keys, and the analyses themselves
are deterministic functions of the run artifacts — so the same seed yields
a byte-identical scrubbed ``AnalysisReport``, the same contract
:mod:`repro.telemetry.run_report` pins for training manifests.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from repro.telemetry.run_report import SCHEMA_VERSION, json_safe, scrub_report


@dataclass
class AnalysisReport:
    """The JSON manifest of one performance analysis."""

    #: run name the analysis explains (mirrors the RunReport/ServeReport)
    name: str
    kind: str = "analysis"
    #: "timeline" (full span-level analysis) or "report" (manifest-only)
    mode: str = "timeline"
    #: end of the last span == simulated epoch/run end (seconds)
    makespan: float = 0.0
    #: critical-path block: blame tables, coverage, top path entries
    critical_path: dict = field(default_factory=dict)
    #: hidden-vs-exposed comm accounting, ledger reconciliation
    overlap: dict = field(default_factory=dict)
    #: ranked what-if scenarios (largest epoch-time saving first)
    whatif: list = field(default_factory=list)
    #: slack summary: the busiest spans that do NOT matter
    slack: dict = field(default_factory=dict)
    #: per-layer cost ledger (report mode): ``{layer: {pass: {op: s}}}``
    train_ledger: dict = field(default_factory=dict)
    #: regression attribution vs a baseline report (only with --baseline)
    regression: dict | None = None
    #: analysis-mode caveats and approximations, in emission order
    notes: list = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        """JSON-safe dict view; ``regression`` omitted when absent."""
        out = json_safe(dataclasses.asdict(self))
        if out.get("regression") is None:
            out.pop("regression", None)
        return out

    def to_json(self, indent: int | None = 2) -> str:
        """Serialise deterministically (scrubbed, sorted keys)."""
        return json.dumps(
            scrub_report(self.to_dict()), indent=indent, sort_keys=True
        )

    def save(self, path) -> None:
        """Write the manifest to ``path`` (trailing newline included)."""
        with open(path, "w") as f:
            f.write(self.to_json() + "\n")

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisReport":
        """Rebuild from a JSON-loaded dict, ignoring unknown keys."""
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


def _fmt_s(x: float) -> str:
    """Seconds with µs-grade precision, compact."""
    if x >= 1.0:
        return f"{x:.3f}s"
    if x >= 1e-3:
        return f"{x * 1e3:.3f}ms"
    return f"{x * 1e6:.1f}us"


def _blame_lines(title: str, blame: dict, total: float, top: int) -> list:
    lines = [f"  {title}:"]
    ranked = sorted(blame.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    for key, secs in ranked:
        share = secs / total if total > 0 else 0.0
        lines.append(f"    {key:<24} {_fmt_s(secs):>12}  {share:6.1%}")
    return lines


_LEDGER_OPS = ("dense", "sparse", "elementwise", "launch")


def _ledger_lines(ledger: dict) -> list:
    """One row per layer and pass of the train ledger, one column per op."""
    lines = ["train ledger (seconds per layer, pass and op):",
             f"  {'layer':<6}{'pass':<10}"
             + "".join(f"{op:>13}" for op in _LEDGER_OPS + ("total",))]
    for layer in sorted(ledger, key=lambda k: (len(k), k)):
        for kind in ("forward", "backward", "optimizer"):
            if kind in ledger[layer]:
                cells = [ledger[layer][kind].get(op, 0.0)
                         for op in _LEDGER_OPS]
                lines.append(f"  {layer:<6}{kind:<10}" + "".join(
                    f"{_fmt_s(x):>13}" for x in cells + [sum(cells)]))
    return lines


def render_text(report: AnalysisReport, top: int = 6) -> str:
    """Human-readable terminal rendering of an :class:`AnalysisReport`."""
    lines = [
        f"== performance analysis: {report.name} ({report.mode} mode) ==",
        f"makespan: {_fmt_s(report.makespan)}",
    ]
    cp = report.critical_path
    if cp:
        lines.append("")
        lines.append(
            f"critical path: {cp.get('entries', 0)} spans, "
            f"covers {_fmt_s(cp.get('covered', 0.0))} "
            f"of {_fmt_s(cp.get('makespan', report.makespan))}"
        )
        total = cp.get("covered", 0.0)
        for key, title in (("blame_phase", "by phase"),
                           ("blame_device", "by device"),
                           ("blame_link", "by link")):
            if cp.get(key):
                lines.extend(_blame_lines(title, cp[key], total, top))
    ov = report.overlap
    if ov:
        lines.append("")
        lines.append("overlap efficiency:")
        for name, block in sorted(ov.items()):
            if not isinstance(block, dict) or "total" not in block:
                continue
            total = block["total"]
            hidden = block.get("hidden", 0.0)
            frac = hidden / total if total > 0 else 0.0
            lines.append(
                f"  {name:<18} total {_fmt_s(total):>12}  "
                f"hidden {_fmt_s(hidden):>12}  ({frac:6.1%} hidden)"
            )
    if report.train_ledger:
        lines.append("")
        lines.extend(_ledger_lines(report.train_ledger))
    if report.whatif:
        lines.append("")
        lines.append("what-if sensitivity (largest saving first):")
        for row in report.whatif[:top]:
            lines.append(
                f"  {row['knob']:<24} saves {_fmt_s(row['delta_seconds']):>12}"
                f"  ({row['delta_pct']:6.1%})  -> {row['description']}"
            )
    if report.regression:
        reg = report.regression
        lines.append("")
        lines.append(
            f"regression vs baseline: total {_fmt_s(reg['total_delta'])} "
            f"({reg['total_pct']:+.1%})"
        )
        worst = reg.get("worst")
        if worst:
            lines.append(
                f"  worst phase: {worst['phase']} "
                f"({_fmt_s(worst['delta'])}, {worst['share']:.0%} "
                f"of the regression)"
            )
    if report.notes:
        lines.append("")
        lines.extend(f"note: {n}" for n in report.notes)
    return "\n".join(lines) + "\n"
