"""Schedule-driven fault plans for the simulated cluster.

A :class:`FaultPlan` is a declarative list of fault events to inject into a
simulation run — the chaos-engineering counterpart of the cost model: every
transfer already flows through the comm/clock ledgers, so degraded links,
straggler GPUs, lost gather replies and dead ranks can be priced (and
recovered from) exactly.  Four event kinds:

- :class:`LinkDegradation` — the NVLink/NVSwitch fabric delivers
  ``1/factor`` of its bandwidth over a time window;
- :class:`StragglerGpu` — one GPU runs all busy work ``slowdown``× slower
  over a window (thermal throttling, a noisy neighbour, a flaky HBM stack);
- :class:`GatherReplyLoss` — gather replies are transiently lost with some
  probability; the requester retries after a timeout with exponential
  backoff (functional results are unaffected — only time is lost);
- :class:`RankFailure` — a GPU (or, on a cluster, its machine node) dies
  permanently at a given simulated time; the trainers recover via
  checkpoint restart or elastic shrink.

Plans serialise to plain JSON (:meth:`FaultPlan.to_config` /
:meth:`FaultPlan.from_config`) and are embedded in run reports, so a
recovered run is reproducible from its manifest and diffable with
``benchmarks/compare_runs.py``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

from repro import config


@dataclass(frozen=True)
class LinkDegradation:
    """The NVLink fabric of ``node_id`` delivers ``1/factor`` of its
    bandwidth over a window; every comm path consults it at charge time."""

    factor: float
    start: float = 0.0
    end: float = math.inf
    node_id: int = 0
    kind: str = field(default="link_degradation", init=False)

    def __post_init__(self):
        if self.factor < 1.0:
            raise ValueError("degradation factor must be >= 1")


@dataclass(frozen=True)
class StragglerGpu:
    """One GPU's busy work runs ``slowdown``× slower over a window."""

    rank: int
    slowdown: float
    start: float = 0.0
    end: float = math.inf
    node_id: int = 0
    kind: str = field(default="straggler", init=False)

    def __post_init__(self):
        if self.slowdown < 1.0:
            raise ValueError("straggler slowdown must be >= 1")


@dataclass(frozen=True)
class GatherReplyLoss:
    """Gather replies are lost with ``probability`` over a window.

    Purely transient: the requester re-issues the gather after a timeout
    (:data:`repro.config.GATHER_RETRY_TIMEOUT`) with exponential backoff,
    charging only simulated time — the gathered data is bit-identical to a
    fault-free run.  ``node_id=None`` applies to every machine node.
    """

    probability: float
    start: float = 0.0
    end: float = math.inf
    max_retries: int = config.GATHER_RETRY_MAX
    node_id: int | None = None
    kind: str = field(default="gather_reply_loss", init=False)

    def __post_init__(self):
        if not 0.0 <= self.probability < 1.0:
            raise ValueError("loss probability must be in [0, 1)")


@dataclass(frozen=True)
class RankFailure:
    """GPU ``rank`` of machine node ``node_id`` dies at simulated ``time``.

    Permanent: the trainers detect the failure at the next iteration
    boundary (plus the :data:`repro.config.FAULT_DETECT_SECONDS` watchdog
    timeout) and run their recovery policy — checkpoint-based restart on a
    replacement GPU, or elastic shrink onto the surviving ranks.
    """

    rank: int
    time: float
    node_id: int = 0
    kind: str = field(default="rank_failure", init=False)


_EVENT_KINDS = {
    "link_degradation": LinkDegradation,
    "straggler": StragglerGpu,
    "gather_reply_loss": GatherReplyLoss,
    "rank_failure": RankFailure,
}

#: every event type a plan may carry (public alias for isinstance checks)
FaultEvent = (LinkDegradation, StragglerGpu, GatherReplyLoss, RankFailure)


@dataclass
class FaultPlan:
    """An ordered schedule of fault events plus the injector's RNG seed.

    The ``seed`` drives only the injector's *private* random stream (gather
    reply-loss draws); training RNG streams are never touched, which is what
    makes transient-fault runs bit-identical to fault-free runs in their
    trained weights.
    """

    events: list = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        for ev in self.events:
            if not isinstance(ev, FaultEvent):
                raise TypeError(f"not a fault event: {ev!r}")

    @property
    def empty(self) -> bool:
        """True when the plan schedules no events at all."""
        return not self.events

    def __bool__(self) -> bool:
        return not self.empty

    def of_kind(self, cls) -> list:
        """All events of one event class, in schedule order."""
        return [ev for ev in self.events if isinstance(ev, cls)]

    # -- serialisation (run-report embedding / reproduction) -----------------

    def to_config(self) -> dict:
        """JSON-safe dict; ``inf`` windows become the string ``"inf"``."""
        rows = []
        for ev in self.events:
            row = asdict(ev)
            for key, value in row.items():
                if isinstance(value, float) and math.isinf(value):
                    row[key] = "inf"
            rows.append(row)
        return {"seed": self.seed, "events": rows}

    @classmethod
    def from_config(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_config` (exact round trip).

        Raises ``ValueError`` on a key the event does not have, so a config
        naming a field this version lacks cannot load as a different fault.
        """
        events = []
        for row in data.get("events", ()):
            row = dict(row)
            kind = row.pop("kind")
            ev_cls = _EVENT_KINDS[kind]
            valid = {f.name for f in fields(ev_cls) if f.init}
            unknown = sorted(set(row) - valid)
            if unknown:
                raise ValueError(f"unknown {kind} event keys {unknown}")
            kwargs = {
                k: (math.inf if v == "inf" else v) for k, v in row.items()
            }
            events.append(ev_cls(**kwargs))
        return cls(events=events, seed=int(data.get("seed", 0)))
