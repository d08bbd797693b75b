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
from repro.nn.optim import Adam
from repro.telemetry import metrics
from repro.train.checkpoint import load_checkpoint
from repro.train.grad_sync import GradSyncModel, average_gradients
from repro.train.metrics import PhaseTimes
from repro.train.streaming import launch_train, train_step


@dataclass
class Replica:
    """One full training replica (paper §III-D).

    A replica holds a model and optimizer (and, for link prediction, an
    embedding table and sparse optimizer), reads batches through its store
    and sampler, and draws sampling and dropout from its own streams.  It
    stands for ``ranks`` of its node's GPUs (default: all of them): it
    computes on the first and mirrors its durations onto the rest.  A
    symmetric single-node run is one replica; the cluster holds one per
    machine node and true DDP one per GPU rank.
    """

    store: object
    sampler: object
    model: object = None
    optimizer: object = None
    sample_rng: np.random.Generator | None = None
    model_rng: np.random.Generator | None = None
    embedding: object = None
    sparse_optimizer: object = None
    ranks: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.ranks:
            self.ranks = tuple(range(self.node.num_gpus))

    @property
    def node(self):
        """The machine node the replica's store lives on."""
        return self.store.node


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
        #: the replicas a subclass builds in :meth:`bind`; empty means the
        #: one replica made of the trainer's own state
        self._replicas: list[Replica] = []

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

        Subclasses validate the trainer's schedule knobs, build any
        replicas beyond the trainer's own, and must leave
        ``trainer.grad_sync`` populated — the grad-sync engine is
        plan-owned state that merely lives on the trainer for reporting and
        test access.
        """
        raise NotImplementedError

    def train_epoch(self, max_iterations: int | None):
        """Run one epoch of the trainer's task and return its
        ``EpochStats``.

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
        return list(dict.fromkeys(r.node for r in self.replicas))

    @property
    def replicas(self) -> list[Replica]:
        """Every model replica (replica 0 first).

        Replica 0 is the trainer's own node, store, model and streams;
        without replicas built in :meth:`bind` it is the only one.
        """
        if self._replicas:
            return self._replicas
        t = self.trainer
        return [Replica(
            t.store, t.sampler, t.model, t.optimizer, t.rngs.rank(0),
            t._model_rng, t.embedding, t.sparse_optimizer,
        )]

    def _clone_model(self, i: int):
        """A copy of the trainer's model for replica ``i``, and its own
        optimizer: the DDP weight broadcast."""
        t = self.trainer
        model = t._build_model(t.rngs.named(f"replica{i}"))
        model.load_state_dict(t.model.state_dict())
        return model, Adam(model.parameters(), lr=t.lr)

    def _build_grad_sync(self, nodes) -> GradSyncModel:
        """The bucketed grad-sync engine over ``nodes`` for the model."""
        t = self.trainer
        return GradSyncModel(
            nodes,
            [p.data.nbytes for p in t.model.parameters()],
            bucket_cap_mb=t._bucket_cap_mb,
            overlap=t._overlap_grad_sync,
        )

    def assert_in_sync(self) -> None:
        """Every replica holds bitwise the same weights (and, for link
        prediction, the same embedding table) as replica 0."""
        ref, *rest = self.replicas
        for i, r in enumerate(rest, start=1):
            for a, b in zip(ref.model.state_dict(), r.model.state_dict()):
                if not np.array_equal(a, b):
                    raise AssertionError(f"replica {i} diverged")
            if r.embedding is not None and not np.array_equal(
                r.embedding.state_dict(), ref.embedding.state_dict()
            ):
                raise AssertionError(f"replica {i} embedding diverged")

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
        for r in self.replicas:
            r.model.train()
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

    def sync_gradients(self, trained) -> None:
        """Average the dense gradients of the replicas that trained, give
        every replica the average, then charge the bucketed sync.

        ``trained`` pairs each replica that ran backward this round with
        its gradients' ready offsets from its backward end
        (:meth:`~repro.nn.models.StepCosts.ready_offsets`).  A replica
        that sat the round out keeps its stale gradient out of the average
        but steps with the others
        (:func:`~repro.train.grad_sync.average_gradients`).  The charge's
        producers are the trained replicas' compute clocks and offsets
        (:meth:`~repro.train.grad_sync.GradSyncModel.charge`).
        """
        average_gradients(
            [r.model for r in self.replicas], [r.model for r, _ in trained]
        )
        self.trainer.grad_sync.charge(
            [(r.node.gpu_clock[r.ranks[0]].now, offsets)
             for r, offsets in trained]
        )

    def _train_round(self, loaders, batches, upcoming) -> list[float]:
        """One data-parallel round; returns the trained replicas' losses.

        The replica behind ``loaders[i]`` trains ``batches[i]`` through
        :func:`~repro.train.streaming.train_step`, prefetching from
        ``upcoming[i]``; replicas past the last batch sit the round out.
        The gradients are averaged (:meth:`sync_gradients`), every
        replica's optimizer steps, each trained replica launches its
        ledger's optimizer entry, and then the task's own update runs
        (link prediction's sparse optimizer).
        """
        t = self.trainer
        factor = t.layer_cost_factor
        losses, trained = [], []
        for loader, batch, ahead in zip(loaders, batches, upcoming):
            loss, costs = train_step(loader, batch, ahead, factor)
            losses.append(float(loss.data))
            trained.append((loader, costs))
        self.sync_gradients(
            [(loader.replica, costs.ready_offsets(factor))
             for loader, costs in trained]
        )
        replicas = self.replicas
        for r in replicas:
            r.optimizer.step()
        for loader, costs in trained:
            launch_train(loader, (costs.optimizer,), factor, 0.0)
        t._task.update(replicas)
        return losses

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
            for r in self.replicas:
                load_checkpoint(path, r.model, r.optimizer)


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
