"""The parallelism-plan interface shared by every training strategy.

A *plan* owns everything about a training run that depends on how work is
spread across GPUs: which replicas/partitions exist, how an epoch is
scheduled onto the simulated streams, how gradients are synchronised, and
how a permanent rank failure is survived.  The
:class:`~repro.train.trainer.WholeGraphTrainer` owns everything that does
not — the dataset, the model/optimizer state, RNG streams, checkpoints and
reporting — and delegates the rest through this interface.

Concrete plans:

- :class:`~repro.train.plans.data_parallel.DataParallelPlan` — the default
  WholeGraph regime (symmetric or true-DDP data parallelism);
- :class:`~repro.train.plans.pipeline_parallel.PipelineParallelPlan` —
  GNNPipe-style layer-pipelined model parallelism;
- :class:`~repro.train.plans.pipeline_parallel.HybridParallelPlan` —
  pipeline stages replicated into data-parallel groups;
- :class:`~repro.train.plans.cagnet.CagnetFullGraphPlan` — CAGNET-style
  1.5D partitioned no-sampling full-graph training;
- :class:`~repro.train.plans.cluster.ClusterDataParallelPlan` — data
  parallelism over several machine nodes, one full replica per node.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass

import numpy as np

from repro import config
from repro.faults import RankFailureError
from repro.hardware import costmodel
from repro.telemetry import metrics
from repro.train.checkpoint import load_checkpoint
from repro.train.metrics import PhaseTimes


@dataclass
class MachineReplica:
    """One machine node's full training replica (paper §III-D).

    Every machine node holds its own graph store, sampler, model and
    optimizer (and, for link prediction, embedding table and sparse
    optimizer), and draws batches and dropout from its own streams.
    """

    node: object
    store: object
    sampler: object
    model: object
    optimizer: object
    sample_rng: np.random.Generator
    model_rng: np.random.Generator
    embedding: object = None
    sparse_optimizer: object = None


class ParallelismPlan:
    """Base class wiring one parallelisation strategy into the trainer.

    Lifecycle: the trainer constructs the plan (strategy knobs only — no
    trainer state), then calls :meth:`bind` exactly once from its own
    constructor.  ``bind`` validates the trainer's knobs against the
    strategy, builds the replica set and the gradient-sync engine, and
    stores the back-reference used by every later hook.
    """

    #: strategy identifier; appears in ``report_config`` for non-default
    #: plans and in error messages
    name = "abstract"

    def __init__(self):
        """Initialise the (unbound) plan."""
        self.trainer = None

    @property
    def trainer(self):
        """The bound trainer, or ``None`` before :meth:`bind`.

        Held by weak reference: the trainer owns its plan, so a strong
        back-reference would make the pair a cycle that keeps the whole
        graph store alive until the cycle collector happens to run.
        """
        return None if self._trainer is None else self._trainer()

    @trainer.setter
    def trainer(self, trainer) -> None:
        self._trainer = None if trainer is None else weakref.ref(trainer)

    def bind(self, trainer) -> None:
        """Attach the plan to ``trainer`` and build its execution state.

        Subclasses validate the trainer's schedule knobs, then must leave
        ``trainer.replicas`` (with one ``trainer.optimizers`` entry per
        replica), ``trainer.ddp`` and ``trainer.grad_sync`` populated — the
        grad-sync engine is plan-owned state that merely lives on the
        trainer for reporting and test access.
        """
        raise NotImplementedError

    def train_epoch(self, max_iterations: int | None):
        """Run one node-classification epoch and return its ``EpochStats``.

        The plan owns the whole epoch: batch scheduling, stream charges,
        gradient sync, fault polling and recovery dispatch.  It must append
        the stats to ``trainer.history``, advance ``trainer._epoch`` and
        write an epoch-boundary checkpoint when the trainer needs one
        (:meth:`run_epoch` does all three).
        """
        raise NotImplementedError

    @property
    def nodes(self) -> list:
        """The machine nodes this plan trains on (node 0 first)."""
        return [m.node for m in self.machines]

    @property
    def machines(self) -> list[MachineReplica]:
        """One :class:`MachineReplica` per machine node (node 0 first).

        Machine node 0 is the trainer's own node, store, model and streams.
        """
        t = self.trainer
        return [MachineReplica(
            t.node, t.store, t.sampler, t.model, t.optimizer,
            t.rngs.rank(0), t._model_rng, t.embedding, t.sparse_optimizer,
        )]

    def _now(self) -> float:
        """The latest GPU clock over every machine node."""
        return max(c.now for node in self.nodes for c in node.gpu_clock)

    def _sync_totals(self) -> tuple[float, float, float]:
        """Node 0's rank-0 (allreduce, allreduce_wait) seconds, and the
        registry's hidden grad-sync seconds."""
        node = self.trainer.node
        dev0 = node.gpu_memory[0].device
        return (
            node.timeline.phase_total("allreduce", dev0),
            node.timeline.phase_total("allreduce_wait", dev0),
            metrics.get_registry().total("grad_sync_hidden_seconds_total"),
        )

    def run_epoch(self, batches: list, steps):
        """Drive one epoch over ``batches`` and record its ``EpochStats``.

        ``steps(todo, times)`` trains the batches in ``todo`` and yields
        each step's list of losses (one per batch it trained), accumulating
        rank-0 phase seconds into ``times``.  Rank failures are polled after
        every step; a recovery resumes ``steps`` on the batches still to
        train.  Epoch time spans every machine node; the phase and
        all-reduce columns are machine node 0's rank-0 view.
        """
        from repro.train.trainer import EpochStats

        t = self.trainer
        t.model.train()
        t_start = max(node.sync() for node in self.nodes)
        losses: list[float] = []
        times = PhaseTimes()
        cursor = 0
        # grad-sync totals survive a mid-epoch recovery (a shrink may
        # replace node 0 and its timeline, so deltas are per attempt)
        done = (0.0, 0.0, 0.0)
        while True:
            start = self._sync_totals()
            try:
                for step_losses in steps(batches[cursor:], times):
                    losses += step_losses
                    cursor += len(step_losses)
                    t._poll_faults()
                break
            except RankFailureError as exc:
                done = tuple(
                    d + (now - s)
                    for d, now, s in zip(done, self._sync_totals(), start)
                )
                batches, cursor, losses = self.recover(
                    exc, batches, cursor, losses
                )
        t_end = max(node.sync() for node in self.nodes)
        if t.compute_ranks == "all":
            # true DDP: every rank computed, so read rank 0's timeline
            dev0 = t.node.gpu_memory[0].device
            times = PhaseTimes(*(
                t.node.timeline.phase_total(phase, dev0)
                for phase in ("sample", "gather", "train")
            ))
        allreduce, wait, hidden = (
            d + now - s for d, now, s in zip(done, self._sync_totals(), start)
        )
        stats = EpochStats(
            epoch=t._epoch,
            mean_loss=float(np.mean(losses)) if losses else float("nan"),
            iterations=len(batches),
            times=times,
            epoch_time=t_end - t_start,
            allreduce=allreduce,
            allreduce_wait=wait,
            allreduce_hidden=hidden,
        )
        t._epoch += 1
        t.history.append(stats)
        if t._needs_checkpoints():
            t._save_checkpoint()
        return stats

    def sync_gradients(self, producers) -> None:
        """Average dense gradients over the machine replicas, then charge
        the bucketed sync.

        The average accumulates in float64 and rounds once to float32, so
        identical replicas get their gradients back bitwise unchanged; one
        machine node averages nothing.  ``producers`` are the
        ``(clock_now, train_seconds)`` pairs of the replicas that ran
        backward (:meth:`~repro.train.ddp.GradSyncModel.charge`).
        """
        models = [m.model for m in self.machines]
        if len(models) > 1:
            for group in zip(*(m.parameters() for m in models)):
                acc = np.zeros(group[0].data.shape, dtype=np.float64)
                for p in group:
                    if p.grad is not None:
                        acc += p.grad
                mean = (acc / len(group)).astype(np.float32)
                for p in group:
                    p.grad = mean.copy()
        self.trainer.grad_sync.charge(producers, phase="allreduce")

    def report_config(self) -> dict:
        """Config keys this plan adds to the run manifest.

        The default (data-parallel) plan returns ``{}`` so every manifest
        produced before the plan abstraction existed — including the golden
        files — stays byte-identical.
        """
        return {}

    # -- fault recovery ----------------------------------------------------

    def recover(self, exc: RankFailureError, batches, cursor, losses):
        """Run the trainer's recovery policy after a rank failure.

        Returns the (possibly translated) batches plus the batch cursor and
        loss list to resume with; every recovery lands in
        ``trainer.recoveries``, the ``recovery_seconds`` metric, and the
        trace.
        """
        t = self.trainer
        t_fail = self._now()
        batches, cursor, losses = self._apply_recovery(
            exc, batches, cursor, losses
        )
        t_after = self._now()
        record = {
            "time": t_fail,
            "ranks": [list(r) for r in exc.ranks],
            "policy": t.recovery_policy,
            "recovery_seconds": t_after - t_fail,
            "num_gpus": t.node.num_gpus,
        }
        t.recoveries.append(record)
        metrics.get_registry().counter(
            "recovery_seconds", policy=t.recovery_policy
        ).inc(t_after - t_fail)
        return batches, cursor, losses

    def _apply_recovery(self, exc, batches, cursor, losses):
        """Dispatch the configured policy (base: checkpoint restart only)."""
        if self.trainer.recovery_policy != "restart":
            raise ValueError(
                f"the {self.name} plan supports recovery_policy='restart' "
                f"only"
            )
        self.restart()
        losses.clear()
        return batches, 0, losses

    def _charge_recovery(self, nodes, recovery_time) -> None:
        """Stall every GPU of ``nodes`` to the failure time, then charge
        ``recovery_time(node)`` seconds of non-busy recovery on each."""
        now = self._now()
        policy = self.trainer.recovery_policy
        for node in nodes:
            dt = recovery_time(node)
            for clock in node.gpu_clock:
                clock.wait_until(now, phase="recovery_wait", category="fault")
                clock.advance(
                    dt, phase="recovery", busy=False, category="fault",
                    args={"policy": policy},
                )
            node.sync(phase="recovery_wait")

    def restart(self) -> None:
        """Checkpoint-based restart: reload the last epoch-boundary state.

        The failed process restarts on the same hardware (same GPU count):
        every machine node pays failure detection, communicator re-init,
        DSM re-establishment (a restarted process has lost its IPC handles)
        and the PCIe reload of the checkpointed model+optimizer state into
        every replica, then the epoch re-runs from its first batch.
        """
        t = self.trainer
        # weights + two Adam moments ride PCIe back to the device
        state_bytes = 3 * sum(
            p.data.nbytes for p in t.model.parameters()
        )
        self._charge_recovery(
            self.nodes,
            lambda node: (
                config.FAULT_DETECT_SECONDS
                + config.COMM_REINIT_SECONDS
                + costmodel.dsm_setup_time(node.total_memory_usage())
                + costmodel.pcie_host_to_gpu_time(state_bytes, shared=False)
            ),
        )
        path = t._checkpoint_path()
        if os.path.exists(path):
            for replica, opt in zip(t.replicas, t.optimizers):
                load_checkpoint(path, replica, opt)


def resolve_plan(plan) -> ParallelismPlan:
    """Turn the trainer's ``plan`` argument into a plan instance.

    ``None`` selects the default :class:`DataParallelPlan`; a string is a
    plan name (``"data_parallel"``, ``"pipeline"``, ``"hybrid"``,
    ``"cagnet"``) with default knobs; a :class:`ParallelismPlan` instance
    passes through (the way to set per-plan knobs).
    """
    from repro.train.plans.cagnet import CagnetFullGraphPlan
    from repro.train.plans.data_parallel import DataParallelPlan
    from repro.train.plans.pipeline_parallel import (
        HybridParallelPlan,
        PipelineParallelPlan,
    )

    if plan is None:
        return DataParallelPlan()
    if isinstance(plan, ParallelismPlan):
        if plan.trainer is not None:
            raise ValueError("plan instances bind to a single trainer")
        return plan
    names = {
        "data_parallel": DataParallelPlan,
        "pipeline": PipelineParallelPlan,
        "hybrid": HybridParallelPlan,
        "cagnet": CagnetFullGraphPlan,
        "cagnet_15d": CagnetFullGraphPlan,
    }
    try:
        return names[plan]()
    except KeyError:
        raise ValueError(
            f"unknown parallelism plan {plan!r}; available: {sorted(names)}"
        ) from None
