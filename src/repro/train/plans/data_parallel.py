"""The default WholeGraph data-parallel plan (paper §III-D).

This is the legacy ``WholeGraphTrainer`` strategy, extracted verbatim onto
the plan interface: every clock charge, stream launch, RNG draw and metric
increment happens in exactly the order the pre-plan trainer produced, so a
data-parallel run through this plan is byte-identical to the golden
manifests recorded before the abstraction existed
(``tests/test_parallelism_plans.py`` pins this with a hypothesis sweep).

Two execution modes (selected by the trainer's ``compute_ranks``):

- ``"one"`` — SPMD-symmetric simulation: one replica stands for every
  rank; rank 0 runs the real math and its per-phase durations are mirrored
  onto the other ranks;
- ``"all"`` — true DDP: one :class:`~repro.train.plans.base.Replica` per
  GPU rank, each training its slice of the global batch, and the plan's
  gradient average every step.

Within the symmetric mode the trainer's schedule knobs select the
lookahead of the one replica's
:class:`~repro.train.streaming.StreamingLoader`: sequential (0),
double-buffered (``overlap=True``, 1) or out-of-core streaming
(``streaming=True``, ``prefetch_depth``).  Both modes, and both tasks
(link prediction runs sequential and symmetric), train every step through
the plans' one replica round
(:meth:`~repro.train.plans.base.ParallelismPlan._train_round`).  Both
recovery policies (checkpoint restart and elastic shrink) plug in here.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from repro.faults import RankFailureError
from repro.hardware.machine import SimNode
from repro.hardware.spec import dgx_a100
from repro.ops.neighbor_sampler import NeighborSampler
from repro.train.metrics import PhaseTimes
from repro.train.plans.base import ParallelismPlan, Replica
from repro.train.streaming import StreamingLoader


class DataParallelPlan(ParallelismPlan):
    """Data parallelism: every GPU holds the full model, batches split."""

    name = "data_parallel"

    def bind(self, trainer) -> None:
        """Build the replica set and the bucketed grad-sync engine.

        True DDP gives every rank a replica — rank 0 the trainer's model
        and optimizer, the others copies with their own optimizers — that
        draws sampling and dropout from the rank's one stream.
        """
        self.trainer = trainer
        t = trainer
        if t.compute_ranks == "all":
            for r in range(t.node.num_gpus):
                model, optimizer = (
                    (t.model, t.optimizer) if r == 0 else self._clone_model(r)
                )
                rng = t.rngs.rank(r)
                self._replicas.append(Replica(
                    t.store, t.sampler, model, optimizer, rng, rng,
                    ranks=(r,),
                ))
        t.grad_sync = self._build_grad_sync(t.node)

    # -- epoch loop --------------------------------------------------------

    def train_epoch(self, max_iterations):
        """One pass over the task's batches (optionally truncated)."""
        t = self.trainer
        return self.run_epoch(
            t._task.batches(t, max_iterations), self._steps
        )

    def _steps(self, batches: list, times: PhaseTimes):
        """Train ``batches`` off one loader per replica; yields each step's
        ``[loss]``, the mean of the replicas' losses.

        Each global batch splits into one slice per replica: the symmetric
        replica trains the whole batch, a true-DDP rank its slice of the
        seed nodes (the batch's first seed if its slice is empty).  The
        lookahead picks the symmetric schedule: 0 is sequential, 1 the double-buffered
        ``overlap`` schedule, ``prefetch_depth`` the out-of-core
        ``streaming`` one; true DDP runs at 0, so only a lone replica ever
        reads ahead in ``batches``.  Replica 0's phase seconds accumulate
        into ``times``.  An in-core loader syncs the node after its prologue
        and after every step.  The host-stream loader does not: the
        grad-sync barrier aligns the compute streams, while the host clock
        is free to run ahead into future batches' transfers.
        """
        t = self.trainer
        node = t.node
        depth = t.prefetch_depth if t.streaming else int(t.overlap)
        loaders = [
            StreamingLoader(r, prefetch_depth=depth, task=t._task)
            for r in self.replicas
        ]
        loaders[0].times = times
        pending = iter(batches)
        for seeds in islice(pending, depth):
            loaders[0].prefetch(seeds, self.replicas[0].sample_rng)
        in_core = not loaders[0].streams_host
        if in_core:
            node.sync()
        for batch in batches:
            slices = [batch] if len(loaders) == 1 else [
                s if s.size else batch[:1]
                for s in np.array_split(batch, len(loaders))
            ]
            losses = self._train_round(
                loaders, slices, [pending] * len(loaders)
            )
            if in_core:
                node.sync()
            yield [float(np.mean(losses))]

    # -- fault recovery ----------------------------------------------------

    def _apply_recovery(self, exc, batches, cursor, losses):
        """Dispatch restart or elastic shrink (both supported here)."""
        if self.trainer.recovery_policy != "shrink":
            return super()._apply_recovery(exc, batches, cursor, losses)
        return self._recover_shrink(exc, batches), cursor, losses

    def _recover_shrink(
        self, exc: RankFailureError, batches: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Elastic shrink: re-shard onto the surviving GPUs and continue.

        Builds a replacement :class:`SimNode` with the survivors'
        GPU count, fast-forwards its clocks to the failure time plus
        detection/re-init, re-shards the graph store (WholeMemory setup and
        feature reload are charged), re-buckets the gradient sync, and
        translates the epoch's remaining batches into the new stored-ID
        space.  Model and optimizer state survive in place — the symmetric
        replica never lived on the failed GPU alone.
        """
        from repro import config

        t = self.trainer
        old_node = t.node
        old_store = t.store
        failed = {r for n, r in exc.ranks if n == old_node.node_id}
        survivors = old_node.num_gpus - len(failed)
        if survivors < 1:
            raise exc  # nothing left to shrink onto
        t_fail = max(c.now for c in old_node.gpu_clock)
        new_node = SimNode(dgx_a100(survivors), node_id=old_node.node_id)
        t0 = (
            t_fail
            + config.FAULT_DETECT_SECONDS
            + config.COMM_REINIT_SECONDS
        )
        for clock in new_node.gpu_clock:
            clock.wait_until(t0, phase="recovery_wait", category="fault")
        new_node.host_clock.wait_until(
            t0, phase="recovery_wait", category="fault"
        )
        # re-shard WholeMemory across the survivors (setup + PCIe reload
        # are charged to the new clocks under dsm_setup/load)
        new_store = old_store.rebuild_on(new_node, charge_setup=True)
        # the hash partition depends on the GPU count: translate the
        # remaining batches old-stored -> original -> new-stored
        batches = [
            new_store.partition.to_stored[
                old_store.partition.to_original[batch]
            ]
            for batch in batches
        ]
        t.node = new_node
        t.store = new_store
        t.sampler = NeighborSampler(new_store, t.sampler.fanouts)
        t.grad_sync = self._build_grad_sync(new_node)
        if t.fault_injector is not None:
            t.fault_injector.install(new_node)
        new_node.sync(phase="recovery_wait")
        return batches
