"""The default WholeGraph data-parallel plan (paper §III-D).

This is the legacy ``WholeGraphTrainer`` strategy, extracted verbatim onto
the plan interface: every clock charge, stream launch, RNG draw and metric
increment happens in exactly the order the pre-plan trainer produced, so a
data-parallel run through this plan is byte-identical to the golden
manifests recorded before the abstraction existed
(``tests/test_parallelism_plans.py`` pins this with a hypothesis sweep).

Two execution modes (selected by the trainer's ``compute_ranks``):

- ``"one"`` — SPMD-symmetric simulation: rank 0 runs the real math and its
  per-phase durations are mirrored onto the other ranks;
- ``"all"`` — true DDP: one model replica per GPU, per-rank batches, real
  bucketed gradient all-reduce every step.

Within the symmetric mode the trainer's schedule knobs select the
lookahead of one :class:`~repro.train.streaming.StreamingLoader`:
sequential (0), double-buffered (``overlap=True``, 1) or out-of-core
streaming (``streaming=True``, ``prefetch_depth``); every step runs
through :func:`~repro.train.streaming.train_step`.  Both recovery policies
(checkpoint restart and elastic shrink) plug in here.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from repro.dsm.comm import Communicator
from repro.faults import RankFailureError
from repro.hardware.machine import SimNode
from repro.hardware.spec import dgx_a100
from repro.nn.optim import Adam
from repro.ops.neighbor_sampler import NeighborSampler
from repro.train.ddp import DistributedDataParallel, GradSyncModel
from repro.train.metrics import PhaseTimes
from repro.train.pipeline import run_iteration
from repro.train.plans.base import ParallelismPlan
from repro.train.streaming import StreamingLoader, train_step


class DataParallelPlan(ParallelismPlan):
    """Data parallelism: every GPU holds the full model, batches split."""

    name = "data_parallel"

    def bind(self, trainer) -> None:
        """Build the replica set and the bucketed grad-sync engine."""
        self.trainer = trainer
        t = trainer
        if t.compute_ranks == "all":
            t.replicas = [t.model] + [
                t._build_model(t.rngs.named(f"replica{r}"))
                for r in range(1, t.node.num_gpus)
            ]
            t.comm = Communicator(t.node)
            t.ddp = DistributedDataParallel(
                t.replicas, t.comm,
                bucket_cap_mb=t._bucket_cap_mb,
                overlap_grad_sync=t._overlap_grad_sync,
            )
            t.grad_sync = t.ddp.sync_model
            t.optimizers = [Adam(r.parameters(), lr=t.lr) for r in t.replicas]
            t.optimizers[0] = t.optimizer
        else:
            t.replicas = [t.model]
            t.ddp = None
            t.grad_sync = GradSyncModel(
                t.node,
                [p.data.size * p.data.itemsize
                 for p in t.model.parameters()],
                bucket_cap_mb=t._bucket_cap_mb,
                overlap=t._overlap_grad_sync,
            )

    # -- epoch loop --------------------------------------------------------

    def train_epoch(self, max_iterations):
        """One pass over the training nodes (optionally truncated)."""
        t = self.trainer
        batches = t._epoch_batches()
        if max_iterations is not None:
            batches = batches[:max_iterations]
        if t.compute_ranks == "all":
            return self.run_epoch(
                batches,
                lambda todo, _times: ([self._step_all_ranks(b)] for b in todo),
            )
        return self.run_epoch(batches, self._symmetric_steps)

    # -- step / schedule implementations -----------------------------------

    def _symmetric_steps(self, batches: list[np.ndarray],
                         times: PhaseTimes):
        """Train ``batches`` off one loader; yields each step's ``[loss]``.

        Rank 0 computes and the other ranks are charged its durations.
        The lookahead picks the schedule: 0 is sequential, 1 the
        double-buffered ``overlap`` schedule, ``prefetch_depth`` the
        out-of-core ``streaming`` one.  The loader's phase seconds
        accumulate into ``times``.  An in-core loader syncs the node after
        its prologue and after every step.  The host-stream loader does not:
        the grad-sync barrier aligns the compute streams, while the host
        clock is free to run ahead into future batches' transfers.
        """
        t = self.trainer
        node = t.node
        loader = StreamingLoader(
            t.store, t.sampler, rank=0,
            prefetch_depth=t.prefetch_depth if t.streaming else int(t.overlap),
        )
        loader.times = times
        rng = t.rngs.rank(0)
        pending = iter(batches)
        for seeds in islice(pending, loader.prefetch_depth):
            loader.prefetch(seeds, rng)
        if not loader.streams_host:
            node.sync()
        for seeds in batches:
            loss, train_t = train_step(
                loader, seeds, pending, rng, t.model, t._model_rng,
                optimizer=t.optimizer, train_time_factor=t.layer_cost_factor,
            )
            t.grad_sync.charge(
                producers=[(node.gpu_clock[0].now, train_t)],
                phase="allreduce",
            )
            if not loader.streams_host:
                node.sync()
            yield [loss]

    def _step_all_ranks(self, batch: np.ndarray) -> float:
        """True DDP: per-rank batches, real gradient all-reduce."""
        t = self.trainer
        node = t.node
        # split the global batch across ranks (pad by wrapping)
        per_rank = np.array_split(batch, node.num_gpus)
        losses = []
        train_times = []
        for rank in range(node.num_gpus):
            seeds = per_rank[rank]
            if seeds.size == 0:
                seeds = batch[:1]
            model = t.replicas[rank]
            model.train()
            res = run_iteration(
                t.store, t.sampler, model, seeds, rank,
                t.rngs.rank(rank), optimizer=None, charge_train=True,
                compute_grads=True,
            )
            losses.append(res.loss)
            train_times.append(res.times.train)
        t.ddp.sync_gradients(phase="allreduce", train_times=train_times)
        for opt in t.optimizers:
            opt.step()
        node.sync()
        return float(np.mean(losses))

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
        t.grad_sync = GradSyncModel(
            new_node,
            [p.data.size * p.data.itemsize
             for p in t.model.parameters()],
            bucket_cap_mb=t.grad_sync.bucket_cap_mb,
            overlap=t.grad_sync.overlap,
        )
        if t.fault_injector is not None:
            t.fault_injector.install(new_node)
        new_node.sync(phase="recovery_wait")
        return batches
