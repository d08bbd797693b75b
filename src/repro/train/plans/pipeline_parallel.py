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
from repro.faults import RankFailureError
from repro.hardware import costmodel
from repro.telemetry import metrics
from repro.train.ddp import GradSyncModel
from repro.train.metrics import PhaseTimes
from repro.train.pipeline import sample_and_gather, train_batch
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
        t.replicas = [t.model]
        t.ddp = None
        # stage-local parameters: the engine below prices the hybrid plan's
        # cross-group sync; the pure pipeline never charges it
        t.grad_sync = GradSyncModel(
            t.node,
            [p.data.size * p.data.itemsize for p in t.model.parameters()],
            bucket_cap_mb=t._bucket_cap_mb,
            overlap=t._overlap_grad_sync,
        )

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
        """One fill-drain pipelined pass over the training nodes."""
        from repro.train.trainer import EpochStats

        t = self.trainer
        t.model.train()
        batches = t._epoch_batches()
        if max_iterations is not None:
            batches = batches[:max_iterations]
        node = t.node
        t_start = node.sync()
        bub0 = node.timeline.phase_total("pipeline_bubble")
        act0 = node.timeline.phase_total("activation_transfer")
        ar0 = node.timeline.phase_total("allreduce")
        losses: list[float] = []
        phase_totals = PhaseTimes()
        cursor = 0
        while cursor < len(batches):
            try:
                loss = self._run_batch(batches[cursor], phase_totals)
                losses.append(loss)
                cursor += 1
                t._poll_faults()
            except RankFailureError as exc:
                batches, cursor, losses = self.recover(
                    exc, batches, cursor, losses
                )
        t_end = node.sync()
        bubble = node.timeline.phase_total("pipeline_bubble") - bub0
        act = node.timeline.phase_total("activation_transfer") - act0
        reg = metrics.get_registry()
        reg.counter("pipeline_bubble_seconds_total").inc(bubble)
        reg.counter(
            "phase_seconds_total", phase="activation_transfer"
        ).inc(act)
        stats = EpochStats(
            epoch=t._epoch,
            mean_loss=float(np.mean(losses)) if losses else float("nan"),
            iterations=len(batches),
            times=phase_totals,
            epoch_time=t_end - t_start,
            allreduce=node.timeline.phase_total("allreduce") - ar0,
            extras={
                "pipeline_bubble": bubble,
                "activation_transfer": act,
                "bubble_fraction_model": bubble_fraction(
                    self.num_stages, self.micro_batches
                ),
            },
        )
        t._epoch += 1
        t.history.append(stats)
        if t._needs_checkpoints():
            t._save_checkpoint()
        return stats

    # -- one global batch --------------------------------------------------

    def _run_batch(self, batch: np.ndarray,
                   phase_totals: PhaseTimes) -> float:
        """Sample once, train once, schedule the micro-batch pipeline."""
        t = self.trainer
        node = t.node
        # stage 0's rank prepares the data (sampling lives with the first
        # stage, as in GNNPipe); the same streams and order as the
        # data-parallel plan, so the math is bit-identical at equal seeds
        sg, x_np, t_sample, t_gather = sample_and_gather(
            t.store, t.sampler, batch, 0, t.rngs.rank(0)
        )
        loss, _ = train_batch(
            t.model, sg, x_np, t.store.labels[batch],
            rng=t._model_rng, optimizer=t.optimizer,
        )
        total_compute = self._charge_pipeline(sg, batch.shape[0])
        node.sync()
        reg = metrics.get_registry()
        reg.counter("iterations_total", schedule="pipeline").inc(1)
        reg.counter("phase_seconds_total", phase="train").inc(total_compute)
        phase_totals += PhaseTimes(
            sample=t_sample, gather=t_gather, train=total_compute
        )
        return loss

    def _stage_costs(self, sg) -> list[dict]:
        """Per-stage compute/transfer quantities for one sampled subgraph.

        Returns one dict per stage with the layer-summed ``flops``,
        ``sparse_bytes``, activation bytes, parameter bytes and the
        boundary-activation bytes shipped to the next stage.
        """
        t = self.trainer
        convs = t.model.convs
        num_layers = len(convs)
        width_hint = t.model._width_hint()
        out = []
        for layers in self.stage_layers:
            flops = sbytes = act = params = 0.0
            for d in layers:
                block = sg.blocks[num_layers - 1 - d]
                cost = convs[d].estimate_cost(
                    block.num_targets, block.num_src, block.num_edges
                )
                flops += cost["flops"]
                sbytes += cost["sparse_bytes"]
                act += block.num_src * width_hint * 4
                params += sum(p.data.nbytes for p in convs[d].parameters())
            last = layers[-1]
            last_block = sg.blocks[num_layers - 1 - last]
            boundary = (
                last_block.num_targets
                * getattr(convs[last], "out_features", width_hint)
                * 4
            )
            out.append({
                "flops": flops, "sparse_bytes": sbytes, "act": act,
                "params": params, "boundary": boundary,
            })
        return out

    def _charge_pipeline(self, sg, batch_size: int) -> float:
        """Launch the fill-drain schedule onto the simulated streams.

        Forward ops run micro-major so stage ``s+1`` starts micro ``m`` as
        soon as its activations land; backward drains in reverse stage
        order.  Cross-stage activation/gradient chunks ride the comm lane
        as ``activation_transfer`` spans; every dependency stall on a
        compute stream is recorded under ``pipeline_bubble``.  Returns the
        summed compute seconds of one pipeline replica (the rank-0 view
        recorded in the phase totals).
        """
        t = self.trainer
        streams = t.node.streams
        costs = self._stage_costs(sg)
        S = self.num_stages
        M = min(self.micro_batches, max(1, batch_size))
        fracs = [c.shape[0] / batch_size
                 for c in np.array_split(np.arange(batch_size), M)]
        fwd = [[self._fwd_time(costs[s], f) for f in fracs]
               for s in range(S)]
        bwd = [[self._bwd_time(costs[s], f) for f in fracs]
               for s in range(S)]
        xfer = [[costmodel.nvlink_p2p_stream_time(costs[s]["boundary"] * f)
                 for f in fracs] for s in range(S)]
        total = 0.0
        for g in range(self.num_groups):
            base = g * S
            total_g = self._charge_group(
                streams, base, fwd, bwd, xfer, costs, M
            )
            if g == 0:
                total = total_g
        return total

    def _charge_group(self, streams, base, fwd, bwd, xfer, costs, M):
        """Charge one pipeline replica's batch onto ranks ``base..base+S-1``."""
        t = self.trainer
        S = self.num_stages
        launch = dict(
            category="compute",
            wait_phase="pipeline_bubble", wait_category="pipeline",
        )
        fwd_done = [[None] * M for _ in range(S)]
        act_ev = [[None] * M for _ in range(S)]
        grad_ev = [[None] * M for _ in range(S)]
        total = 0.0
        for m in range(M):
            for s in range(S):
                deps = [] if s == 0 else [act_ev[s - 1][m]]
                ev = streams.compute(base + s).launch(
                    fwd[s][m], deps=deps, phase="pipeline_fwd",
                    args={"stage": s, "micro": m}, **launch,
                )
                fwd_done[s][m] = ev
                total += fwd[s][m]
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
                total += bwd[s][m]
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
            opt_t = costmodel.elementwise_time(costs[s]["params"] * 8)
            streams.compute(base + s).launch(
                opt_t, deps=deps, phase="optimizer",
                args={"stage": s}, **launch,
            )
            total += opt_t
        return total

    @staticmethod
    def _fwd_time(cost: dict, frac: float) -> float:
        """Forward seconds of one stage for a ``frac``-sized micro-batch."""
        return (
            costmodel.dense_compute_time(cost["flops"] * frac)
            + costmodel.sparse_compute_time(cost["sparse_bytes"] * frac)
            + costmodel.elementwise_time(cost["act"] * frac)
        )

    @staticmethod
    def _bwd_time(cost: dict, frac: float) -> float:
        """Backward seconds (two GEMMs per forward GEMM, 1:2 rule)."""
        return (
            costmodel.dense_compute_time(2 * cost["flops"] * frac)
            + costmodel.sparse_compute_time(cost["sparse_bytes"] * frac)
            + costmodel.elementwise_time(cost["act"] * frac)
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
