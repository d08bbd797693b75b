"""Runtime fault injection for the simulated cluster.

A :class:`FaultInjector` takes a :class:`~repro.faults.plan.FaultPlan` and
installs it on one or more :class:`~repro.hardware.machine.SimNode`\\ s:

- stragglers become per-clock ``scale_hook`` time dilations;
- fabric degradations and gather reply loss are consulted at charge
  time by the comm paths (``node.fault_injector`` is the handle);
- rank failures are polled by the trainers at iteration boundaries and
  surface as :class:`RankFailureError`.

Every injected fault lands in the Chrome trace (marker spans on a synthetic
``faults`` device lane) and the metrics registry (``faults_injected_total``,
``retries_total``); the transient-retry path draws exclusively from a
*private* RNG stream spawned from the plan seed, so training RNG — and
therefore every trained weight — is bit-identical to a fault-free run.
"""

from __future__ import annotations

import math
from collections.abc import Collection

from repro import config
from repro.faults.plan import (
    FaultPlan,
    GatherReplyLoss,
    LinkDegradation,
    RankFailure,
    StragglerGpu,
)
from repro.hardware.clock import Span
from repro.telemetry.metrics import get_registry
from repro.utils.rng import spawn_rng

#: synthetic trace device carrying fault-window marker spans
FAULT_DEVICE = "faults"


class RankFailureError(RuntimeError):
    """A permanent rank failure was detected; carries the fired events."""

    def __init__(self, events: list[RankFailure]):
        ranks = sorted({(ev.node_id, ev.rank) for ev in events})
        super().__init__(
            "rank failure detected: "
            + ", ".join(f"n{n}.gpu{r}" for n, r in ranks)
        )
        self.events = list(events)

    @property
    def ranks(self) -> list[tuple[int, int]]:
        """Failed ``(node_id, rank)`` pairs."""
        return sorted({(ev.node_id, ev.rank) for ev in self.events})


class FaultInjector:
    """Executes a :class:`FaultPlan` against one or more sim nodes."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        #: private stream for reply-loss draws — never shared with training
        self._rng = spawn_rng(plan.seed, "fault-injector", "gather-retries")
        self._fired: set[int] = set()
        self.nodes: list = []
        self._installed = False

    # -- installation --------------------------------------------------------

    def install(self, nodes) -> "FaultInjector":
        """Attach to ``nodes`` (a SimNode or a list of them).

        Installs straggler clock hooks, records one trace marker + one
        ``faults_injected_total`` increment per event, and sets
        ``node.fault_injector`` so the comm paths can consult the schedule
        at charge time.  Returns ``self`` for chaining.

        Calling ``install`` again (trainers reinstall after an elastic
        shrink replaces a node) re-wires hooks and handles without
        double-counting metrics or trace markers; stragglers whose rank no
        longer exists are dropped.
        """
        if not isinstance(nodes, (list, tuple)):
            nodes = [nodes]
        self.nodes = list(nodes)
        for node in self.nodes:
            node.fault_injector = self
        by_id = {node.node_id: node for node in self.nodes}
        registry = get_registry()
        first = not self._installed
        for ev in self.plan.events:
            if first:
                registry.counter(
                    "faults_injected_total", kind=ev.kind
                ).inc()
            node = by_id.get(getattr(ev, "node_id", None) or 0)
            if node is None and not isinstance(ev, GatherReplyLoss):
                continue
            if isinstance(ev, StragglerGpu):
                self._install_straggler(node, ev, strict=first)
            if first:
                self._mark(ev)
        self._installed = True
        return self

    def _install_straggler(
        self, node, ev: StragglerGpu, strict: bool = True
    ) -> None:
        if not 0 <= ev.rank < node.num_gpus:
            if strict:
                raise ValueError(
                    f"straggler rank {ev.rank} out of range on node "
                    f"{node.node_id} ({node.num_gpus} GPUs)"
                )
            return  # the straggler GPU was removed by an elastic shrink
        clock = node.gpu_clock[ev.rank]
        prev = clock.scale_hook

        def hook(dt, phase, now, _ev=ev, _prev=prev):
            if _prev is not None:
                dt = _prev(dt, phase, now)
            if _ev.start <= now < _ev.end:
                dt = dt * _ev.slowdown
            return dt

        clock.scale_hook = hook

    def _mark(self, ev) -> None:
        """Record the fault window as a marker span on the ``faults`` lane."""
        node = self.nodes[0]
        start = getattr(ev, "start", getattr(ev, "time", 0.0))
        end = getattr(ev, "end", start)
        if math.isinf(end):
            end = start
        node.timeline.record(
            Span(
                device=FAULT_DEVICE,
                start=start,
                end=end,
                phase=f"fault:{ev.kind}",
                busy=False,
                category="fault",
                args={
                    k: ("inf" if isinstance(v, float) and math.isinf(v)
                        else v)
                    for k, v in vars(ev).items()
                },
            )
        )

    def uninstall(self) -> None:
        """Detach from all nodes (clock hooks and handle)."""
        for node in self.nodes:
            node.fault_injector = None
            for clock in node.gpu_clock:
                clock.scale_hook = None
        self.nodes = []

    # -- transient faults: consulted by the comm/gather charge paths ---------

    def link_slowdown(self, t: float, node_id: int = 0) -> float:
        """Product of fabric degradation factors active at time ``t``."""
        factor = 1.0
        for ev in self.plan.of_kind(LinkDegradation):
            if ev.node_id == node_id:
                if ev.start <= t < ev.end:
                    factor *= ev.factor
        return factor

    def faulted_gather_time(
        self, t: float, fabric_share: float, clock, node_id: int
    ) -> float:
        """A gather's duration under the faults active at ``clock.now``.

        The fabric-crossing ``fabric_share`` of ``t`` dilates by the active
        link degradation (the local-HBM share is unaffected); then lost
        replies stall ``clock`` for timeout + backoff before the re-issue
        lands (:meth:`charge_gather_retries`).  Returns the dilated time.
        """
        slowdown = self.link_slowdown(clock.now, node_id)
        if slowdown != 1.0:
            t = t * (1.0 + (slowdown - 1.0) * fabric_share)
        self.charge_gather_retries(clock, node_id)
        return t

    def charge_gather_retries(self, clock, node_id: int) -> None:
        """Charge the timeout + backoff wait of the replies a gather issued
        at ``clock.now`` loses, as a non-busy ``gather_retry`` span — the
        requester is stalled, not computing.

        Draws from the injector's private RNG *only* while a loss window is
        active — outside any window the RNG is untouched, so a plan whose
        windows never overlap the run is draw-for-draw identical to an empty
        plan.
        """
        retries = 0
        for ev in self.plan.of_kind(GatherReplyLoss):
            if ev.node_id is not None and ev.node_id != node_id:
                continue
            if not ev.start <= clock.now < ev.end:
                continue
            while (
                retries < ev.max_retries
                and self._rng.random() < ev.probability
            ):
                retries += 1
        if not retries:
            return
        total = 0.0
        timeout = config.GATHER_RETRY_TIMEOUT
        for _ in range(retries):
            total += timeout
            timeout *= config.GATHER_RETRY_BACKOFF
        clock.advance(
            total, phase="gather_retry", busy=False, category="fault",
            args={"retries": retries},
        )
        get_registry().counter(
            "retries_total", device=clock.device
        ).inc(retries)

    # -- permanent faults: polled by the trainers ----------------------------

    def _pending(
        self, t: float, node_ids: Collection[int] | None
    ) -> list[tuple[int, RankFailure]]:
        out = []
        for i, ev in enumerate(self.plan.events):
            if not isinstance(ev, RankFailure) or i in self._fired:
                continue
            if node_ids is not None and ev.node_id not in node_ids:
                continue
            if ev.time <= t:
                out.append((i, ev))
        return out

    def poll_rank_failures(
        self, t: float, node_ids: Collection[int] | None = None
    ) -> None:
        """Raise :class:`RankFailureError` for newly-due rank failures on
        any of ``node_ids`` (every machine node when ``None``).

        Each failure fires exactly once; after recovery the trainer keeps
        polling and only *later* failures can fire again.
        """
        pending = self._pending(t, node_ids)
        if not pending:
            return
        due = [ev for _, ev in pending]
        registry = get_registry()
        for i, ev in pending:
            self._fired.add(i)
            registry.counter(
                "rank_failures_total",
                node=str(ev.node_id), rank=str(ev.rank),
            ).inc()
            if self.nodes:
                self.nodes[0].timeline.record(
                    Span(
                        device=FAULT_DEVICE,
                        start=ev.time,
                        end=t,
                        phase="fault:rank_failure_fired",
                        busy=False,
                        category="fault",
                        args={"node_id": ev.node_id, "rank": ev.rank},
                    )
                )
        raise RankFailureError(due)
