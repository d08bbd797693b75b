"""Structured run artifacts: one JSON manifest per training/experiment run.

A :class:`RunReport` is the machine-readable record a run leaves behind —
config, seed, per-phase time breakdown, bandwidths, a metrics-registry
snapshot, cache statistics and final accuracy — the artifact the ROADMAP's
perf-trajectory tracking (and ``benchmarks/compare_runs.py``) diffs between
commits.  Trainers produce one via their ``run_report()`` methods; the
experiment runner writes one per figure/table it regenerates.

The schema is flat JSON on purpose: ``json.load`` two manifests and compare
— no repro imports needed on the consumer side.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from repro.telemetry.metrics import MetricsRegistry

SCHEMA_VERSION = 1

#: Report keys that are *allowed* to differ between two runs of the same
#: seed — the documented volatile set of the determinism contract (DESIGN.md
#: §8).  Everything outside this set must be byte-identical, which
#: ``tests/test_determinism_golden.py`` enforces.  The simulation is fully
#: deterministic today, so the set holds only host-environment escape
#: hatches: fields callers may stamp with wall-clock times or file paths.
VOLATILE_KEYS = frozenset({
    "wall_time_seconds",
    "timestamp",
    "hostname",
    "report_path",
})


def scrub_report(report: dict, volatile=VOLATILE_KEYS) -> dict:
    """Strip volatile keys from a report dict, recursively.

    Returns a new dict with every key in ``volatile`` removed at any
    nesting depth — the comparable core two same-seed runs must agree on.
    Accepts a :class:`RunReport` or a plain (JSON-loaded) dict.
    """
    if isinstance(report, RunReport):
        report = report.to_dict()

    def scrub(obj):
        if isinstance(obj, dict):
            return {
                k: scrub(v) for k, v in obj.items() if k not in volatile
            }
        if isinstance(obj, list):
            return [scrub(v) for v in obj]
        return obj

    return scrub(report)


def json_safe(obj):
    """Recursively convert numpy scalars/arrays and dataclasses to JSON."""
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return json_safe(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        return obj
    return repr(obj)


def phase_totals_from_registry(registry: MetricsRegistry) -> dict[str, float]:
    """Per-phase seconds as accumulated by the pipeline instrumentation."""
    return {
        m.labels["phase"]: m.value
        for m in registry.collect("phase_seconds_total")
        if "phase" in m.labels
    }


@dataclass
class RunReport:
    """The JSON manifest of one run (training epoch(s) or experiment)."""

    name: str
    kind: str = "run"
    config: dict = field(default_factory=dict)
    seed: int | None = None
    #: phase -> simulated seconds on the reference device (rank 0)
    phase_totals: dict = field(default_factory=dict)
    #: simulated wall-clock of the measured region (sum of epoch times)
    epoch_time: float | None = None
    #: algo/bus bandwidth of the feature gather path
    bandwidths: dict = field(default_factory=dict)
    #: metrics-registry snapshot (labeled counters/gauges/histograms)
    metrics: dict = field(default_factory=dict)
    #: feature-cache summary, when a hot-row cache was configured
    cache: dict | None = None
    accuracy: float | None = None
    #: per-epoch rows (loss, times) for training runs
    history: list = field(default_factory=list)
    #: experiment result rows (figures/tables), serialized
    rows: list | None = None
    extra: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        """JSON-safe nested dict of every field."""
        return json_safe(dataclasses.asdict(self))

    def to_json(self, indent: int | None = 2) -> str:
        """Serialise to a JSON string (field order preserved)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def save(self, path) -> None:
        """Write the JSON manifest to ``path``."""
        with open(path, "w") as f:
            f.write(self.to_json() + "\n")

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        """Rebuild from a dict, ignoring unknown keys (forward compat)."""
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def load(cls, path) -> "RunReport":
        """Read a manifest previously written by :meth:`save`."""
        with open(path) as f:
            return cls.from_dict(json.load(f))


def report_from_node(
    name: str,
    node,
    *,
    kind: str = "run",
    config: dict | None = None,
    seed: int | None = None,
    feature_stats: dict | None = None,
    cache=None,
    accuracy: float | None = None,
    history: list | None = None,
    extra: dict | None = None,
) -> RunReport:
    """Assemble a :class:`RunReport` from a :class:`SimNode`'s telemetry.

    ``feature_stats`` is a :class:`WholeTensor` stats dict (bandwidths are
    derived from it); ``cache`` a :class:`FeatureCache` (its ``summary()``
    is embedded); the metrics are the process registry's.
    """
    from repro.telemetry import metrics
    from repro.telemetry.bandwidth import bw_from_gather_stats

    device0 = node.gpu_memory[0].device
    bandwidths = {}
    if feature_stats and feature_stats.get("gather_time", 0.0) > 0:
        bandwidths = bw_from_gather_stats(feature_stats, node.num_gpus)
    return RunReport(
        name=name,
        kind=kind,
        config=dict(config or {}),
        seed=seed,
        phase_totals=node.timeline.phase_breakdown(device0),
        epoch_time=max(
            [c.now for c in node.gpu_clock] + [node.host_clock.now]
        ),
        bandwidths=bandwidths,
        metrics=metrics.get_registry().snapshot(),
        cache=cache.summary() if cache is not None else None,
        accuracy=accuracy,
        history=list(history or []),
        extra=dict(extra or {}),
    )
