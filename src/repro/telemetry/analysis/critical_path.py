"""Causal critical path through a completed simulated schedule.

The scheduler (:mod:`repro.sim`) leaves two artifacts behind: the
:class:`~repro.hardware.clock.Timeline` of charged spans and the
:class:`~repro.sim.OpRecord` provenance log naming each op's upstream
events.  This module walks them *backward* from the last-ending span to
reconstruct the one chain of spans that determined the makespan — the
simulated run's critical path.

The walk maintains a single invariant: every step moves to a span whose
``end`` equals the current span's ``start`` (same-device predecessor,
devices charge contiguously) or equals the current *wait*'s ``end`` (the
remote producer whose completion released the stall).  The path therefore
tiles ``[0, makespan]`` exactly — ``covered == makespan`` bitwise, the
property the hypothesis suite pins on random DAG programs.

Wait spans are resolved causally when provenance is available: the op that
ran right after the stall names its dependency events, and the dependency
whose completion time equals the stall's end is the binding one.  Without
provenance (e.g. analyzing a parsed trace) the walk falls back to matching
end times, preferring busy spans — identical on every schedule this repo
produces, since a stall ends exactly when its producer retires.  Stalls on
*external* deadlines (a serve batch-close, a fired user event) have no
producing span; the wait itself is charged to the path, which is the honest
answer: that time was spent waiting on the outside world.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.clock import Span

__all__ = ["PathEntry", "CriticalPath", "critical_path", "slack_summary"]

#: path spans a report lists, longest first
TOP_ENTRIES = 50


@dataclass(frozen=True)
class PathEntry:
    """One span on the critical path.

    ``kind`` is ``"busy"`` (device work), ``"wait"`` (a stall charged to
    the path — external deadline or unresolvable producer), or
    ``"untracked"`` (a defensive filler for a gap in a device timeline;
    never emitted by the in-repo engines).
    """

    device: str
    start: float
    end: float
    phase: str
    category: str
    kind: str
    args: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class CriticalPath:
    """The longest causal chain of a schedule, with blame aggregations."""

    def __init__(self, entries: list[PathEntry], makespan: float,
                 slack_by_span: dict | None = None,
                 slack_rows: list | None = None):
        #: path entries in time order (earliest first); contiguous intervals
        self.entries = entries
        self.makespan = makespan
        #: ``(device, start, end) -> slack`` for every span (see ``slack_of``)
        self._slack = slack_by_span or {}
        #: busy spans annotated with slack, for :func:`slack_summary`
        self.slack_rows = slack_rows or []

    @property
    def covered(self) -> float:
        """Total seconds the path explains — equals ``makespan`` exactly.

        The entries tile ``[0, makespan]`` contiguously, so the span from
        the first start to the last end is the coverage; summing the entry
        durations instead would not telescope in floating point.
        """
        if not self.entries:
            return 0.0
        return self.entries[-1].end - self.entries[0].start

    def blame(self, key) -> dict:
        """Aggregate path durations by ``key(entry)`` (skips empty keys)."""
        out: dict[str, float] = {}
        for e in self.entries:
            k = key(e)
            if k:
                out[k] = out.get(k, 0.0) + e.duration
        return out

    @property
    def blame_phase(self) -> dict:
        return self.blame(lambda e: e.phase)

    @property
    def blame_device(self) -> dict:
        return self.blame(lambda e: e.device)

    @property
    def blame_category(self) -> dict:
        return self.blame(lambda e: e.category or e.kind)

    @property
    def blame_link(self) -> dict:
        """Seconds of path time attributable to each interconnect.

        Gather spans carry ``bytes``/``remote_bytes`` args; their duration
        is split between HBM (local rows) and NVLink (remote rows)
        proportionally to bytes — a first-order split, since both phases of
        a gather run at their own bandwidth.  Out-of-core spans carry
        ``host_bytes``/``disk_bytes`` instead and split between PCIe (warm
        rows), disk (cold rows) and HBM (the cached remainder) the same
        way.  Collective-comm spans are charged to ``collective`` (the
        NVLink/IB ring) whole.
        """
        out: dict[str, float] = {}

        def add(link, secs):
            if secs > 0.0:
                out[link] = out.get(link, 0.0) + secs

        for e in self.entries:
            if e.kind != "busy":
                continue
            a = e.args or {}
            if (
                ("host_bytes" in a or "disk_bytes" in a)
                and a.get("bytes")
            ):
                hb = a.get("host_bytes", 0)
                db = a.get("disk_bytes", 0)
                add("pcie", e.duration * hb / a["bytes"])
                add("disk", e.duration * db / a["bytes"])
                add("hbm", e.duration * (1.0 - (hb + db) / a["bytes"]))
            elif "bytes" in a and "remote_bytes" in a and a["bytes"]:
                remote = a["remote_bytes"] / a["bytes"]
                add("nvlink", e.duration * remote)
                add("hbm", e.duration * (1.0 - remote))
            elif e.category == "comm":
                add("collective", e.duration)
        return out

    def slack_of(self, entry: PathEntry) -> float | None:
        """Latest-finish slack of a path entry (≈0 on the critical path)."""
        return self._slack.get((entry.device, entry.start, entry.end))

    def to_dict(self) -> dict:
        """JSON view: blame tables exact, entry list capped at the longest
        ``TOP_ENTRIES`` path spans (counts/aggregates are never capped)."""
        ranked = sorted(
            self.entries, key=lambda e: (-e.duration, e.start)
        )[:TOP_ENTRIES]
        shown = sorted(ranked, key=lambda e: e.start)
        return {
            "makespan": self.makespan,
            "covered": self.covered,
            "entries": len(self.entries),
            "blame_phase": self.blame_phase,
            "blame_device": self.blame_device,
            "blame_category": self.blame_category,
            "blame_link": self.blame_link,
            "top_entries": [
                {
                    "device": e.device, "phase": e.phase, "kind": e.kind,
                    "start": e.start, "duration": e.duration,
                    "slack": self.slack_of(e),
                }
                for e in shown
            ],
        }


def _as_list(x):
    return x if isinstance(x, (list, tuple)) else [x]


def _index_spans(timelines):
    """Per-device span lists, device order, position and end-time indexes.

    Lane devices (``<gpu>/<stream>``) are excluded: lanes are *render*
    copies of schedules whose cost was charged on a base clock; walking
    them would double-count.
    """
    device_lists: dict[str, list[Span]] = {}
    device_order: dict[str, int] = {}
    for tl in timelines:
        for s in tl.spans:
            if "/" in s.device:
                continue
            if s.device not in device_order:
                device_order[s.device] = len(device_order)
            device_lists.setdefault(s.device, []).append(s)
    pos: dict[int, int] = {}
    end_index: dict[float, list[Span]] = {}
    for spans in device_lists.values():
        for i, s in enumerate(spans):
            pos[id(s)] = i
            end_index.setdefault(s.end, []).append(s)
    return device_lists, device_order, pos, end_index


def _provenance_maps(provenance):
    """Per-loop lookup maps: seq -> record, (device, op start) -> record."""
    maps = []
    for records in _as_list(provenance) if provenance else []:
        by_seq = {}
        stall_map = {}
        for r in records:
            by_seq[r.seq] = r
            if r.stall > 0.0:
                stall_map[(r.device, r.start)] = r
        maps.append((by_seq, stall_map))
    return maps


def critical_path(timelines, provenance=None) -> CriticalPath:
    """Compute the critical path of one or more completed timelines.

    ``timelines`` is a :class:`~repro.hardware.clock.Timeline` or a list of
    them (multi-node runs merge naturally: device names are unique across
    nodes).  ``provenance`` is the matching ``EventLoop.provenance`` list
    (or list of lists) and upgrades wait resolution from end-time matching
    to true causal dependency lookup.
    """
    tls = _as_list(timelines)
    device_lists, device_order, pos, end_index = _index_spans(tls)
    if not device_lists:
        return CriticalPath([], 0.0)
    makespan = max(spans[-1].end for spans in device_lists.values())
    prov_maps = _provenance_maps(provenance)

    def cand_key(s: Span):
        # deterministic producer choice: busy first, then longest,
        # then first-seen device, then earliest recorded
        return (not s.busy, -(s.end - s.start),
                device_order[s.device], pos[id(s)])

    def producer_for(wait: Span, visited) -> Span | None:
        # causal resolution first: the op that ran right after this stall
        # names its dependencies; the dep ending exactly at the stall's end
        # is the binding one
        for by_seq, stall_map in prov_maps:
            rec = stall_map.get((wait.device, wait.end))
            if rec is None:
                continue
            cands = []
            for seq in rec.dep_seqs:
                dep = by_seq.get(seq)
                if (dep is None or dep.end != wait.end or not dep.device
                        or dep.device == wait.device or "/" in dep.device):
                    continue
                for s in end_index.get(wait.end, ()):
                    if s.device == dep.device and id(s) not in visited:
                        cands.append(s)
            if cands:
                return min(cands, key=cand_key)
        # fall back to end-time matching on any other base device
        cands = [
            s for s in end_index.get(wait.end, ())
            if s.device != wait.device and id(s) not in visited
        ]
        return min(cands, key=cand_key) if cands else None

    # start at the span that ends last (ties broken like producers)
    cur = min(end_index[makespan], key=cand_key)
    visited: set[int] = set()
    entries: list[PathEntry] = []

    def as_entry(s: Span, kind: str) -> PathEntry:
        return PathEntry(s.device, s.start, s.end, s.phase, s.category,
                         kind, s.args)

    while True:
        visited.add(id(cur))
        if not cur.busy:
            prod = producer_for(cur, visited)
            if prod is not None:
                # the stall's time belongs to its producer; jump devices
                # without charging the wait
                cur = prod
                continue
            entries.append(as_entry(cur, "wait"))
        else:
            entries.append(as_entry(cur, "busy"))
        i = pos[id(cur)]
        if i == 0:
            break
        prev = device_lists[cur.device][i - 1]
        if prev.end != cur.start:
            # defensive: a gap in a device timeline (never produced by the
            # in-repo engines) is charged as untracked path time
            entries.append(PathEntry(cur.device, prev.end, cur.start,
                                     "untracked", "", "untracked"))
        cur = prev

    entries.reverse()
    slack, slack_rows = _slack_by_span(device_lists, pos, end_index, makespan)
    return CriticalPath(entries, makespan, slack, slack_rows)


def _slack_by_span(device_lists, pos, end_index, makespan) -> dict:
    """Latest-finish slack per span: how late could it end without moving
    the makespan, given the recorded successor structure (same-device
    serialization plus stalls it released).  First-order: scaling a span
    can re-bind joins; slack is exact for small perturbations."""
    all_spans = [s for spans in device_lists.values() for s in spans]
    # descending end, then descending start so a zero-duration successor
    # (start == end == predecessor.end) is processed before its predecessor
    all_spans.sort(key=lambda s: (-s.end, -s.start))
    lf: dict[int, float] = {}
    out: dict[tuple, float] = {}
    rows: list[dict] = []
    for s in all_spans:
        succs = []
        dl = device_lists[s.device]
        i = pos[id(s)]
        if i + 1 < len(dl):
            succs.append(dl[i + 1])
        # a wait on another device ending when s ends was (possibly)
        # released by s: the op after that wait is a successor
        for w in end_index.get(s.end, ()):
            if w.device != s.device and not w.busy:
                wl = device_lists[w.device]
                j = pos[id(w)]
                if j + 1 < len(wl):
                    succs.append(wl[j + 1])
        latest = makespan
        for succ in succs:
            # a non-busy successor is elastic — the wait shrinks if s ends
            # later — so only busy successors push their duration back;
            # the .get fallback only fires for degenerate zero-duration
            # chains tied at one instant, where the bound stays valid
            need = succ.duration if succ.busy else 0.0
            latest = min(latest, lf.get(id(succ), makespan) - need)
        lf[id(s)] = latest
        out[(s.device, s.start, s.end)] = latest - s.end
        if s.busy:
            rows.append({
                "device": s.device, "phase": s.phase, "start": s.start,
                "duration": s.end - s.start, "slack": latest - s.end,
            })
    return out, rows


def slack_summary(cp: CriticalPath, top: int = 5) -> dict:
    """The busiest spans that do *not* matter: largest-slack busy spans.

    These are the anti-targets — optimizing them moves nothing.  The
    complement of the what-if ranking.
    """
    rows = sorted(
        (r for r in cp.slack_rows if r["slack"] > 0.0),
        key=lambda r: (-r["slack"], -r["duration"], r["device"], r["start"]),
    )[:top]
    return {"top_slack": rows}
