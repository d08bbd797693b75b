"""What-if sensitivity: replay the recorded schedule with one cost scaled.

The recorded timeline is a *solved* schedule — every stall already bound to
the dependency that released it.  This module re-solves it under a
counterfactual cost model: each device becomes a clockless cursor that
advances by span durations, busy spans re-charge at a knob-scaled duration,
and synchronization points are re-derived from the recorded wait
structure:

- spans are replayed in recorded-completion order, grouped by (bitwise)
  end time;
- a group holding wait spans *and* busy spans is a join: every participant
  leaves at the max of their replayed cursors — so when scaling makes a
  different rank the slowest, the barrier re-binds to it;
- a group of waits with no producing span is an external deadline (a serve
  batch close, a fired user event): the original absolute time stays a
  floor, because speeding up the machine does not make requests arrive
  sooner.

The replayed identity makespan (all factors 1.0) reproduces the recorded
makespan up to float-summation order; scenario deltas are therefore always
reported against the identity replay, cancelling that bias.  First-order
caveats: a busy span that *coincidentally* ends at a join's time is pulled
into the barrier; bandwidth knobs scale whole spans by their byte mix
rather than re-pricing the cost model; and comm the recorded run hid
entirely (e.g. behind a straggler's dilated backward) left no exposed span
to replay, so shrinking the compute cannot re-expose it.  Ranking quality
is what matters —
the acceptance test pins that removing a straggler fault recovers the
clean-run epoch time within tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Knob",
    "default_knobs",
    "replay_makespan",
    "whatif_ranking",
    "report_whatif",
]


@dataclass(frozen=True)
class Knob:
    """One counterfactual: scale matching spans' busy time by a factor."""

    name: str
    description: str
    #: ``span -> duration multiplier`` (1.0 leaves the span unchanged)
    factor: object


def _base_spans(timelines):
    tls = timelines if isinstance(timelines, (list, tuple)) else [timelines]
    spans = []
    order: dict[str, int] = {}
    for tl in tls:
        for s in tl.spans:
            if "/" in s.device:
                continue
            if s.device not in order:
                order[s.device] = len(order)
            spans.append(s)
    spans.sort(key=lambda s: (s.end, s.start, order[s.device]))
    return spans


def replay_makespan(timelines, factor=None) -> float:
    """Makespan of the recorded schedule replayed under ``factor``.

    ``factor`` is a ``span -> multiplier`` callable applied to busy spans
    (``None`` = identity replay).  See the module docstring for the join /
    external-deadline semantics.
    """
    spans = _base_spans(timelines)
    if not spans:
        return 0.0
    cursor: dict[str, float] = {}
    i, n = 0, len(spans)
    while i < n:
        t = spans[i].end
        j = i
        while j < n and spans[j].end == t:
            j += 1
        group = spans[i:j]
        producers = []
        waiters = []
        for s in group:
            if s.busy:
                dur = s.duration
                if factor is not None:
                    dur *= factor(s)
                cursor[s.device] = cursor.get(s.device, 0.0) + dur
                if s.start < t:
                    # a zero-duration span *starting* at t is a continuation
                    # released by the group, not a producer ending at t
                    producers.append(s.device)
            else:
                waiters.append(s.device)
        if waiters:
            if producers:
                # a join: everyone who met at t leaves together, at the
                # slowest participant's replayed cursor
                members = dict.fromkeys(producers + waiters)
                sync = max(cursor.get(d, 0.0) for d in members)
                for d in members:
                    cursor[d] = sync
            else:
                # external deadline: the wall-clock floor survives scaling
                for d in waiters:
                    cursor[d] = max(cursor.get(d, 0.0), t)
        i = j
    return max(cursor.values()) if cursor else 0.0


# -- the knob suite ---------------------------------------------------------------


def _phase_knob(name, description, phases, f) -> Knob:
    phases = frozenset(phases)
    return Knob(name, description,
                lambda s, _p=phases, _f=f: _f if s.phase in _p else 1.0)


def _nvlink_factor(s) -> float:
    a = s.args or {}
    if a.get("bytes"):
        remote = a.get("remote_bytes", 0) / a["bytes"]
        return 1.0 - 0.5 * remote
    if s.category == "comm":
        return 0.5
    return 1.0


def _no_straggler_factor(s) -> float:
    d = (s.args or {}).get("dilation")
    return 1.0 / d if d else 1.0


def _host_bw_factor(s) -> float:
    """Doubled host-path bandwidth: tier spans (host_fetch launches and
    tiered gathers) shrink by their host+disk byte share."""
    a = s.args or {}
    if a.get("bytes"):
        tier = (a.get("host_bytes", 0) + a.get("disk_bytes", 0)) / a["bytes"]
        return 1.0 - 0.5 * tier
    return 1.0


def default_knobs(timelines) -> list[Knob]:
    """The standard sensitivity suite over a recorded run.

    Phase knobs halve one cost category; the NVLink knob doubles remote
    bandwidth (gather spans shrink by their remote-byte share, collectives
    halve); the straggler knob undoes fault dilation exactly, using the
    ``dilation`` factor the clock stamps on scaled spans — and is only
    offered when a dilated span exists.  The host-bandwidth knob (doubled
    zero-copy PCIe + disk staging rate) is likewise only offered when an
    out-of-core span exists.
    """
    knobs = [
        _phase_knob("gather_2x", "feature gather 2x faster",
                    ("gather", "serve_gather"), 0.5),
        _phase_knob("sample_2x", "neighbor sampling 2x faster",
                    ("sample", "serve_sample"), 0.5),
        _phase_knob("compute_2x", "model compute 2x faster",
                    ("train", "serve_infer"), 0.5),
        _phase_knob("allreduce_2x", "gradient all-reduce 2x faster",
                    ("allreduce",), 0.5),
        Knob("nvlink_bw_2x", "NVLink bandwidth doubled", _nvlink_factor),
    ]
    base = [s for s in _base_spans(timelines) if s.busy]
    dilated = any((s.args or {}).get("dilation") for s in base)
    if dilated:
        knobs.append(Knob("no_straggler", "straggler fault removed",
                          _no_straggler_factor))
    tiered = any(
        (s.args or {}).get("host_bytes") or (s.args or {}).get("disk_bytes")
        for s in base
    )
    if tiered:
        knobs.append(Knob("host_bw_2x", "host/disk tier bandwidth doubled",
                          _host_bw_factor))
    return knobs


def whatif_ranking(timelines, knobs=None) -> dict:
    """Replay every knob; rank scenarios by epoch-time saving.

    Returns ``{"baseline": identity replay makespan, "scenarios": [...]}``
    with scenarios sorted largest-saving first — the automated "what should
    the next perf PR attack" list.
    """
    if knobs is None:
        knobs = default_knobs(timelines)
    base = replay_makespan(timelines, None)
    rows = []
    for k in knobs:
        t = replay_makespan(timelines, k.factor)
        delta = base - t
        rows.append({
            "knob": k.name,
            "description": k.description,
            "epoch_time": t,
            "delta_seconds": delta,
            "delta_pct": delta / base if base > 0 else 0.0,
        })
    rows.sort(key=lambda r: (-r["delta_seconds"], r["knob"]))
    return {"baseline": base, "scenarios": rows}


def report_whatif(phase_totals: dict, epoch_time: float) -> dict:
    """Manifest-only what-if: phase-arithmetic sensitivity bounds.

    With no spans available (analyzing a bare RunReport), the best possible
    estimate for "phase X 2x faster" is subtracting half the phase total —
    an *upper bound* on the saving, since it ignores overlap.  The CLI
    labels these estimates explicitly.
    """
    rows = []
    for phase, total in sorted(phase_totals.items()):
        if "wait" in phase or total <= 0.0:
            continue
        saving = 0.5 * total
        rows.append({
            "knob": f"{phase}_2x",
            "description": f"{phase} 2x faster (upper-bound estimate)",
            "epoch_time": max(0.0, epoch_time - saving),
            "delta_seconds": saving,
            "delta_pct": saving / epoch_time if epoch_time > 0 else 0.0,
        })
    rows.sort(key=lambda r: (-r["delta_seconds"], r["knob"]))
    return {"baseline": epoch_time, "scenarios": rows}
