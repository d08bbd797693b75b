"""Overlap efficiency: how much communication is actually hidden.

The overlap engines keep double books.  When a gradient sync is charged,
:func:`repro.train.pipeline.charge_grad_sync` increments the
``grad_sync_{comm,exposed,hidden}_seconds_total`` ledgers *and* stamps the
full bucket schedule — with a per-bucket ``exposed_s``/``hidden_s`` split —
onto the ``<gpu>/nccl`` trace lane; the pipelined prefetch engine keeps
``overlap_hidden_seconds_total``.  This module reads both books and
reconciles them: a mismatch means the schedule committed to the trace is
not the schedule that was priced, which is exactly the class of bug an
overlap engine breeds.

Works from a live :class:`~repro.telemetry.metrics.MetricsRegistry`, a
report's ``metrics`` snapshot dict (flattened-name keyed), or both plus
timelines for the lane-side reconciliation.
"""

from __future__ import annotations

__all__ = ["overlap_report"]

_ABS_TOL = 1e-9
#: relative tolerance of the ledger reconciliations
_REL_TOL = 1e-6


def _metric_value(metrics, name: str) -> float:
    """Total of a counter from a registry or a snapshot dict."""
    if metrics is None:
        return 0.0
    if hasattr(metrics, "total"):
        return float(metrics.total(name))
    total = 0.0
    for key, entry in metrics.items():
        if key == name or key.startswith(name + "{"):
            total += float(entry.get("value", 0.0))
    return total


def _lane_bucket_totals(timelines) -> tuple[float, float, int]:
    """(exposed, hidden, buckets) of the ``allreduce_bucket`` lane spans —
    the trace-side book of the grad-sync schedule.

    ``charge_grad_sync`` stamps the *same* plan onto every participating
    node's ``<gpu0>/nccl`` lane while incrementing the ledgers once, so
    multi-node totals are averaged per timeline, not summed.
    """
    tls = timelines if isinstance(timelines, (list, tuple)) else [timelines]
    per_tl = []
    for tl in tls:
        exposed = hidden = 0.0
        buckets = 0
        for s in tl.spans:
            if s.phase != "allreduce_bucket" or not s.args:
                continue
            if "exposed_s" not in s.args:
                continue
            exposed += s.args["exposed_s"]
            hidden += s.args["hidden_s"]
            buckets += 1
        if buckets:
            per_tl.append((exposed, hidden, buckets))
    if not per_tl:
        return 0.0, 0.0, 0
    n = len(per_tl)
    return (sum(t[0] for t in per_tl) / n,
            sum(t[1] for t in per_tl) / n,
            per_tl[0][2])


def overlap_report(metrics=None, timelines=None) -> dict:
    """Hidden-vs-exposed comm accounting, reconciled across its two books.

    ``metrics`` is a live registry or a snapshot dict; ``timelines`` (when
    available) adds the lane-side totals and the ``reconciled`` verdict.
    ``exposed_fraction`` — exposed comm as a share of total grad-sync comm
    — is the headline number the CI analysis gate thresholds.
    """
    comm = _metric_value(metrics, "grad_sync_comm_seconds_total")
    exposed = _metric_value(metrics, "grad_sync_exposed_seconds_total")
    hidden = _metric_value(metrics, "grad_sync_hidden_seconds_total")
    prefetch_hidden = _metric_value(metrics, "overlap_hidden_seconds_total")
    hf_total = _metric_value(metrics, "host_fetch_seconds_total")
    hf_exposed = _metric_value(metrics, "host_fetch_exposed_seconds_total")
    hf_hidden = _metric_value(metrics, "host_fetch_hidden_seconds_total")
    out = {
        "grad_sync": {
            "total": comm,
            "exposed": exposed,
            "hidden": hidden,
            "exposed_fraction": exposed / comm if comm > 0 else 0.0,
        },
        "prefetch": {
            # prefetch has no exposed ledger: the engine only charges the
            # exposed tail to the compute clock, hidden time is the ledger
            "total": prefetch_hidden,
            "hidden": prefetch_hidden,
        },
    }
    # the streaming loader's host/disk tier transfers; the key is dropped
    # entirely on in-core runs so pre-tier analysis snapshots stay
    # byte-identical
    if hf_total > 0:
        out["host_fetch"] = {
            "total": hf_total,
            "exposed": hf_exposed,
            "hidden": hf_hidden,
            "exposed_fraction": hf_exposed / hf_total,
            "ledger_consistent": (
                abs(hf_total - (hf_exposed + hf_hidden))
                <= max(_ABS_TOL, _REL_TOL * max(hf_total, 1e-30))
            ),
        }
    # internal consistency of the ledgers themselves
    out["grad_sync"]["ledger_consistent"] = (
        abs(comm - (exposed + hidden))
        <= max(_ABS_TOL, _REL_TOL * max(comm, 1e-30))
    )
    if timelines is not None:
        lane_exposed, lane_hidden, buckets = _lane_bucket_totals(timelines)
        tol = max(_ABS_TOL, _REL_TOL * max(comm, 1e-30))
        out["grad_sync"]["lane"] = {
            "exposed": lane_exposed,
            "hidden": lane_hidden,
            "buckets": buckets,
        }
        out["grad_sync"]["reconciled"] = (
            abs(lane_exposed - exposed) <= tol
            and abs(lane_hidden - hidden) <= tol
        ) if buckets else None
    return out
