"""GNNPipe-style layer-pipelined model parallelism (PAPERS.md).

The model's layers are sharded contiguously across ``num_stages`` GPU
stages; each global mini-batch is cut into ``micro_batches`` row-chunks
that flow through the stages under a GPipe fill-drain schedule.  Stage
``s`` computes its layers' forward for micro-batch ``m``, ships the
boundary activations to stage ``s+1`` over the comm lane, and later runs
the matching backward as the gradient chunks drain back.  An ``S``-stage
pipeline with ``M`` micro-batches idles for the classic *bubble* fraction

    (S - 1) / (M + S - 1)

of its steady-state step, and that idle time is what this plan accounts
for: every cross-stage dependency stall is recorded under the
``pipeline_bubble`` phase, so the exposed bubbles show up in the analysis
layer's critical-path blame tables and in the
``pipeline_bubble_seconds_total`` metric.

Dual-layer contract: micro-batching here is a *scheduling* knob.  The
functional math is one full-batch forward/backward per global batch —
row-chunked gradient accumulation sums to exactly the same gradient, so
the plan runs the sum once — and both the sampling and dropout streams are
consumed in batch order, making the loss trajectory bit-identical to the
data-parallel plan at equal seeds for every ``micro_batches`` setting
(the single-micro-batch case is where the *schedules* coincide too).

Unlike data parallelism there is no gradient all-reduce: each stage owns
its layers' parameters outright.  :class:`HybridParallelPlan` composes the
two — the pipeline is replicated into data-parallel groups whose stages
all-reduce their stage-local parameters after each batch.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.hardware import costmodel
from repro.nn.models import CostEntry, block_shapes
from repro.telemetry import metrics
from repro.train.metrics import PhaseTimes
from repro.train.pipeline import book_train, sample_and_gather, train_batch
from repro.train.plans.base import ParallelismPlan


def bubble_fraction(num_stages: int, micro_batches: int) -> float:
    """The GPipe fill-drain idle fraction ``(S - 1) / (M + S - 1)``."""
    s, m = int(num_stages), int(micro_batches)
    if s <= 1:
        return 0.0
    return (s - 1) / (m + s - 1)


class PipelineParallelPlan(ParallelismPlan):
    """Model parallelism: layers sharded into a micro-batch pipeline."""

    name = "pipeline"

    def __init__(self, num_stages: int | None = None,
                 micro_batches: int | None = None):
        """``num_stages`` defaults to ``min(num_gpus, num_layers)``;
        ``micro_batches`` to :data:`config.PIPELINE_MICRO_BATCHES`."""
        super().__init__()
        self.num_stages = num_stages
        self.micro_batches = micro_batches
        #: data-parallel pipeline replicas (1 = pure model parallelism);
        #: set by :class:`HybridParallelPlan`
        self.num_groups = 1

    def bind(self, trainer) -> None:
        """Validate the trainer's knobs and shard the layers into stages."""
        self.trainer = trainer
        t = trainer
        if t.task != "node":
            raise ValueError(
                "the pipeline plan supports node classification only"
            )
        if t.compute_ranks != "one":
            raise ValueError(
                "the pipeline plan runs in the symmetric mode only"
            )
        if t.overlap or t.streaming:
            raise ValueError(
                "the pipeline plan owns its schedule — construct the "
                "trainer with overlap=False, streaming=False"
            )
        if t.recovery_policy != "restart":
            raise ValueError(
                "the pipeline plan supports recovery_policy='restart' only"
            )
        num_layers = len(t.model.convs)
        max_stages = min(t.node.num_gpus // self.num_groups, num_layers)
        stages = max_stages if self.num_stages is None else int(self.num_stages)
        if not 1 <= stages <= max_stages:
            raise ValueError(
                f"num_stages must be in [1, {max_stages}] "
                f"(= min(gpus/groups, layers)); got {stages}"
            )
        self.num_stages = stages
        micro = (
            config.PIPELINE_MICRO_BATCHES if self.micro_batches is None
            else int(self.micro_batches)
        )
        if micro < 1:
            raise ValueError("micro_batches must be >= 1")
        self.micro_batches = micro
        #: conv indices (deepest-first application order) per stage
        self.stage_layers = [
            [int(d) for d in part]
            for part in np.array_split(np.arange(num_layers), stages)
        ]
        # stage-local parameters: the engine below prices the hybrid plan's
        # cross-group sync; the pure pipeline never charges it
        t.grad_sync = self._build_grad_sync(t.node)

    def report_config(self) -> dict:
        """Plan name plus the pipeline shape knobs."""
        return {
            "plan": self.name,
            "num_stages": self.num_stages,
            "micro_batches": self.micro_batches,
            "num_groups": self.num_groups,
        }

    # -- epoch loop --------------------------------------------------------

    def train_epoch(self, max_iterations):
        """One fill-drain pipelined pass over the training nodes
        (:meth:`~repro.train.plans.base.ParallelismPlan.run_epoch`), with
        the bubble and activation-transfer columns and every lane's
        all-reduce (the hybrid plan's stage syncs)."""
        t = self.trainer
        tl = t.node.timeline
        phases = ("pipeline_bubble", "activation_transfer", "allreduce")
        before = [tl.phase_total(p) for p in phases]
        stats = self.run_epoch(
            t._task.batches(t, max_iterations), self._steps
        )
        bubble, act, stats.allreduce = (
            tl.phase_total(p) - b for p, b in zip(phases, before)
        )
        reg = metrics.get_registry()
        reg.counter("pipeline_bubble_seconds_total").inc(bubble)
        reg.counter(
            "phase_seconds_total", phase="activation_transfer"
        ).inc(act)
        stats.extras = {
            "pipeline_bubble": bubble,
            "activation_transfer": act,
            "bubble_fraction_model": bubble_fraction(
                self.num_stages, self.micro_batches
            ),
        }
        return stats

    def _steps(self, batches, times: PhaseTimes):
        """Train each batch through the pipeline; yields its ``[loss]``."""
        for batch in batches:
            yield [self._run_batch(batch, times)]

    # -- one global batch --------------------------------------------------

    def _run_batch(self, batch: np.ndarray,
                   phase_totals: PhaseTimes) -> float:
        """Sample once, train once, schedule the micro-batch pipeline."""
        t = self.trainer
        node = t.node
        # stage 0's rank prepares the data (sampling lives with the first
        # stage, as in GNNPipe); the same streams and order as the
        # data-parallel plan, so the math is bit-identical at equal seeds
        replica = self.replicas[0]
        sg, x, t_sample, t_gather = sample_and_gather(
            replica, batch, 0, replica.sample_rng, t._task
        )
        loss = float(train_batch(replica, sg, x, batch, t._task).data)
        t.optimizer.step()
        total_compute = self._charge_pipeline(sg, batch.shape[0])
        node.sync()
        metrics.get_registry().counter(
            "iterations_total", schedule="pipeline"
        ).inc(1)
        phase_totals += PhaseTimes(
            sample=t_sample, gather=t_gather, train=total_compute
        )
        return loss

    def _stage_costs(self, sg, ledger) -> list[dict]:
        """Per-stage transfer quantities for one sampled subgraph.

        Returns one dict per stage with its layers' parameter bytes (from
        the step's cost ``ledger``) and the boundary-activation bytes
        shipped to the next stage.
        """
        convs = self.trainer.model.convs
        num_layers = len(convs)
        width_hint = self.trainer.model._width_hint()
        out = []
        for layers in self.stage_layers:
            last = layers[-1]
            last_block = sg.blocks[num_layers - 1 - last]
            boundary = (
                last_block.num_targets
                * getattr(convs[last], "out_features", width_hint)
                * 4
            )
            out.append({
                "params": sum(sum(ledger.param_nbytes[d]) for d in layers),
                "boundary": boundary,
            })
        return out

    def _charge_pipeline(self, sg, batch_size: int) -> float:
        """Launch the fill-drain schedule onto the simulated streams.

        A stage's forward (backward) for a micro-batch of fraction ``f``
        sums its layers' forward (backward) ledger entries with the work
        scaled by ``f``, one launch each.  Forward ops run micro-major so
        stage ``s+1`` starts micro ``m`` as soon as its activations land;
        backward drains in reverse stage order.  Cross-stage
        activation/gradient chunks ride the comm lane as
        ``activation_transfer`` spans; every dependency stall on a compute
        stream is recorded under ``pipeline_bubble``.  Books one pipeline
        replica's entries and returns their summed seconds.
        """
        t = self.trainer
        ledger = t.model.step_costs(block_shapes(sg))
        costs = self._stage_costs(sg, ledger)
        S = self.num_stages
        M = min(self.micro_batches, max(1, batch_size))
        fracs = [c.shape[0] / batch_size
                 for c in np.array_split(np.arange(batch_size), M)]

        def book(entries, f):
            return sum(book_train(e, e.part(f).op_seconds(1.0))
                       for e in entries)

        fwd = [[book([ledger.forward[d] for d in layers], f) for f in fracs]
               for layers in self.stage_layers]
        bwd = [[book([ledger.backward[d] for d in reversed(layers)], f)
                for f in fracs] for layers in self.stage_layers]
        opt = [book([CostEntry(None, "optimizer", 0.0, 0.0,
                               8 * c["params"])], 1.0) for c in costs]
        xfer = [[costmodel.nvlink_p2p_stream_time(costs[s]["boundary"] * f)
                 for f in fracs] for s in range(S)]
        for g in range(self.num_groups):
            self._charge_group(g * S, fwd, bwd, opt, xfer, costs, M)
        return sum(map(sum, fwd)) + sum(map(sum, bwd)) + sum(opt)

    def _charge_group(self, base, fwd, bwd, opt, xfer, costs, M):
        """Charge one pipeline replica's batch onto ranks
        ``base..base+S-1``."""
        t = self.trainer
        streams = t.node.streams
        S = self.num_stages
        launch = dict(
            category="compute",
            wait_phase="pipeline_bubble", wait_category="pipeline",
        )
        act_ev = [[None] * M for _ in range(S)]
        grad_ev = [[None] * M for _ in range(S)]
        for m in range(M):
            for s in range(S):
                deps = [] if s == 0 else [act_ev[s - 1][m]]
                ev = streams.compute(base + s).launch(
                    fwd[s][m], deps=deps, phase="pipeline_fwd",
                    args={"stage": s, "micro": m}, **launch,
                )
                if s < S - 1:
                    act_ev[s][m] = streams.comm(base + s).launch(
                        xfer[s][m], deps=[ev],
                        phase="activation_transfer", category="comm",
                        args={"stage": s, "micro": m,
                              "bytes": costs[s]["boundary"]},
                    )
        last_bwd = [None] * S
        for m in range(M):
            for s in reversed(range(S)):
                deps = [] if s == S - 1 else [grad_ev[s + 1][m]]
                ev = streams.compute(base + s).launch(
                    bwd[s][m], deps=deps, phase="pipeline_bwd",
                    args={"stage": s, "micro": m}, **launch,
                )
                last_bwd[s] = ev
                if s > 0:
                    grad_ev[s][m] = streams.comm(base + s).launch(
                        xfer[s - 1][m], deps=[ev],
                        phase="activation_transfer", category="comm",
                        args={"stage": s, "micro": m, "direction": "grad",
                              "bytes": costs[s - 1]["boundary"]},
                    )
        for s in range(S):
            deps = [last_bwd[s]]
            if self.num_groups > 1:
                # hybrid: this stage's parameters all-reduce across its
                # data-parallel group before the optimizer applies them
                sync_t = costmodel.chunked_ring_allreduce_time(
                    costs[s]["params"], self.num_groups,
                    t.grad_sync.bandwidth, t.grad_sync.latency,
                )
                deps = [streams.comm(base + s).launch(
                    sync_t, deps=deps, phase="allreduce", category="comm",
                    args={"stage": s, "bytes": costs[s]["params"]},
                )]
            streams.compute(base + s).launch(
                opt[s], deps=deps, phase="optimizer",
                args={"stage": s}, **launch,
            )


class HybridParallelPlan(PipelineParallelPlan):
    """Pipeline stages replicated into data-parallel groups.

    ``num_groups`` pipeline replicas each own ``num_stages`` GPUs (ranks
    ``g*S .. g*S+S-1``); the groups process statistically-identical batches
    under the symmetric convention, and after each batch every stage
    all-reduces its stage-local parameters across the ``num_groups``
    replicas on the comm lane — the grad-sync engine's ring pricing at
    group width, charged through the plan interface.
    """

    name = "hybrid"

    def __init__(self, num_stages: int | None = None,
                 micro_batches: int | None = None,
                 num_groups: int | None = None):
        """``num_groups`` defaults to ``num_gpus // num_stages``."""
        super().__init__(num_stages=num_stages, micro_batches=micro_batches)
        self._requested_groups = num_groups

    def bind(self, trainer) -> None:
        """Resolve the stage/group grid, then bind the pipeline."""
        num_gpus = trainer.node.num_gpus
        num_layers = len(trainer.model.convs)
        stages = (
            min(num_gpus, num_layers) if self.num_stages is None
            else int(self.num_stages)
        )
        groups = (
            max(1, num_gpus // max(1, stages))
            if self._requested_groups is None
            else int(self._requested_groups)
        )
        if groups < 1 or stages * groups > num_gpus:
            raise ValueError(
                f"{stages} stages x {groups} groups needs "
                f"{stages * groups} GPUs; node has {num_gpus}"
            )
        self.num_groups = groups
        super().bind(trainer)
