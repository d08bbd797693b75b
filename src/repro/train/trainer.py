"""The WholeGraph trainer: epoch loops, evaluation, timing collection.

The trainer owns the task, its model and optimizer state, RNG streams,
checkpoints, evaluation and reporting.  Its parallelism plan
(:mod:`repro.train.plans`) owns the placement — single node, N-node
cluster, pipeline, CAGNET.  A task object holds only what differs between
node classification (:class:`~repro.train.pipeline.NodeClassification`) and
link prediction (:class:`LinkPrediction`): the epoch's batches and their
seed rows, a batch's input features, the loss head and the update after the
dense optimizers step.  Both tasks train through the plans' one
data-parallel round
(:meth:`~repro.train.plans.base.ParallelismPlan._train_round`) and
:func:`~repro.train.streaming.train_step`.  Two execution modes:

- ``compute_ranks="one"`` (default) — SPMD-symmetric simulation: rank 0
  runs the real math and its per-phase durations are charged to the other
  ranks too (all ranks process statistically-identical batches, the
  standard symmetry assumption of data-parallel performance models).  This
  is the mode the performance experiments run in, and the only one link
  prediction runs in.
- ``compute_ranks="all"`` — true DDP: one model replica per GPU rank, each
  training its slice of the global batch, and the plan's gradient average
  every step (paper §III-D).  Used by the DDP correctness tests and
  multi-replica accuracy runs.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro import config
from repro.dsm.sparse_embedding import WholeEmbedding
from repro.faults import FaultInjector, FaultPlan, RankFailure
from repro.nn import functional as F
from repro.nn.models import block_shapes, build_model
from repro.nn.optim import Adam
from repro.nn.sparse_optim import SparseAdam, SparseSGD, average_row_grads
from repro.nn.tensor import Tensor
from repro.ops.negative_sampling import (
    sample_negative_edges,
    sample_positive_edges,
)
from repro.ops.neighbor_sampler import NeighborSampler
from repro.train.checkpoint import save_checkpoint
from repro.train.metrics import PhaseTimes, roc_auc
from repro.train.pipeline import NODE_CLASSIFICATION
from repro.train.plans.base import resolve_plan
from repro.utils.rng import RngPool

#: sparse-optimizer names accepted by the link-prediction task
SPARSE_OPTIMIZERS = {"adam": SparseAdam, "sgd": SparseSGD}


def sample_link_batch(
    csr, num_pairs: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One link-prediction batch: ``num_pairs`` positive edges plus the same
    number of uniform negative corruptions, with 1/0 labels."""
    src_p, dst_p = sample_positive_edges(csr, num_pairs, rng)
    src_n, dst_n = sample_negative_edges(csr, num_pairs, rng)
    src = np.concatenate([src_p, src_n])
    dst = np.concatenate([dst_p, dst_n])
    labels = np.concatenate([
        np.ones(num_pairs, dtype=np.float32),
        np.zeros(num_pairs, dtype=np.float32),
    ])
    return src, dst, labels


class PairBatch(NamedTuple):
    """One link-prediction batch: the pairs' endpoints deduplicated into
    seed rows, each pair's two endpoints as indices into them, and the
    pairs' 1/0 labels."""

    seeds: np.ndarray
    left: np.ndarray
    right: np.ndarray
    labels: np.ndarray

    @classmethod
    def draw(cls, csr, num_pairs: int, rng: np.random.Generator):
        """:func:`sample_link_batch`'s pairs, endpoints deduplicated."""
        src, dst, labels = sample_link_batch(csr, num_pairs, rng)
        seeds, inverse = np.unique(
            np.concatenate([src, dst]), return_inverse=True
        )
        n = src.shape[0]
        return cls(seeds, inverse[:n], inverse[n:], labels)


class LinkPrediction:
    """Link prediction: pair batches over a DSM-sharded trainable
    embedding table, BCE on scaled dot products, then a sparse optimizer
    over the touched rows.  Replicated over a cluster: every machine node
    scores the same pair batch with the single-node streams."""

    #: every machine node of a cluster trains the same batch
    replicated = True
    #: the trainer method that scores the trained model
    metric = "evaluate_linkpred"

    def __init__(self, trainer, fault_plan: FaultPlan | None):
        """Validate ``trainer``'s knobs for link prediction."""
        t = trainer
        if t.compute_ranks == "all" or t.overlap or t.streaming:
            raise ValueError(
                "link prediction runs in the sequential symmetric mode"
            )
        if fault_plan is not None and fault_plan.of_kind(RankFailure):
            raise ValueError(
                "link prediction supports transient fault plans only"
            )
        if t.sparse_optim_name not in SPARSE_OPTIMIZERS:
            raise ValueError(
                f"sparse_optimizer must be one of "
                f"{sorted(SPARSE_OPTIMIZERS)}"
            )
        self.score_scale = t._score_scale
        self._pair_rng = t.rngs.named("linkpred-pairs")

    def model_dims(self, trainer) -> tuple[int, int]:
        """The encoder maps embedding rows into a ``hidden``-dim space."""
        return trainer.embedding_dim, trainer.hidden

    def replica_state(self, trainer, node):
        """The embedding table on ``node`` and its sparse optimizer; every
        call draws the same ``embedding`` init stream."""
        t = trainer
        embedding = WholeEmbedding(
            node, t.store.num_nodes, t.embedding_dim,
            rng=t.rngs.named("embedding"),
        )
        optimizer = SPARSE_OPTIMIZERS[t.sparse_optim_name](
            [embedding], lr=t.lr
        )
        return embedding, optimizer

    def batches(self, trainer, count: int | None) -> list[PairBatch]:
        """The epoch's pair batches, one per node-classification batch,
        at most ``count``."""
        t = trainer
        n = max(1, t.store.train_nodes.shape[0] // t.batch_size)
        if count is not None:
            n = min(n, count)
        return [
            PairBatch.draw(t.store.csr, t.num_pairs, self._pair_rng)
            for _ in range(n)
        ]

    def seeds(self, batch: PairBatch) -> np.ndarray:
        """The rows a batch samples from: the pairs' endpoints."""
        return batch.seeds

    def inputs(self, replica, rows: np.ndarray, rank: int) -> Tensor:
        """``rows``' trainable embedding rows, gathered on ``rank``."""
        return replica.embedding.forward(rows, rank=rank, phase="gather")

    def loss(self, replica, out: Tensor, batch: PairBatch) -> Tensor:
        """BCE of the scaled pair dot products against the pair labels."""
        scores = F.pairwise_dot(out, batch.left, batch.right) * self.score_scale
        return F.binary_cross_entropy_with_logits(scores, batch.labels)

    def update(self, replicas) -> None:
        """Step the sparse optimizer over the touched rows (averaging the
        replicas' row grads first when there are several); then every node
        barriers, since the next gather reads the rows just written."""
        if len(replicas) == 1:
            replicas[0].sparse_optimizer.step(rank=0)
        else:
            averaged = average_row_grads(
                [r.sparse_optimizer.collect() for r in replicas]
            )
            for r in replicas:
                r.sparse_optimizer.apply(averaged, rank=0)
        for r in replicas:
            r.node.sync()

    def report(self, trainer) -> tuple[dict, dict]:
        """The run manifest's config keys and extra sections."""
        t = trainer
        config = {"task": "linkpred", "embedding_dim": t.embedding_dim,
                  "num_pairs": t.num_pairs,
                  "sparse_optimizer": t.sparse_optim_name}
        extra = {"embedding": t.embedding.stats_dict(),
                 "sparse_state_bytes": t.sparse_optimizer.state_bytes()}
        return config, extra


def linkpred_forward(
    model, sampler: NeighborSampler, embedding: WholeEmbedding,
    batch: PairBatch, rng: np.random.Generator, score_scale: float,
) -> Tensor:
    """Score every pair of ``batch`` without charging any clock.

    The pairs' seed rows are sampled once and encoded without dropout; a
    score is the scaled dot product of its endpoints' encodings.  The
    forward pass of :meth:`WholeGraphTrainer.evaluate_linkpred`;
    ``sampler`` should not charge either.
    """
    sg = sampler.sample(batch.seeds, 0, rng)
    h = model(sg, Tensor(embedding.gather_no_cost(sg.input_nodes)), None)
    return F.pairwise_dot(h, batch.left, batch.right) * score_scale


@dataclass
class EpochStats:
    """Aggregate results of one training epoch."""

    epoch: int
    mean_loss: float
    iterations: int
    #: per-phase simulated seconds summed over iterations (rank-0 view)
    times: PhaseTimes
    #: simulated wall-clock duration of the epoch
    epoch_time: float
    #: *exposed* gradient all-reduce seconds (on the critical path)
    allreduce: float = 0.0
    #: collective entry-barrier stall seconds (skewed ranks aligning)
    allreduce_wait: float = 0.0
    #: all-reduce seconds hidden behind backward compute (overlap win)
    allreduce_hidden: float = 0.0
    #: plan-specific extra columns (pipeline bubbles, CAGNET collectives);
    #: ``None`` for the data-parallel plan so its rows — and the golden
    #: manifests built from them — keep their exact historical shape
    extras: dict | None = None

    def as_row(self) -> dict[str, float]:
        out = {"epoch": self.epoch, "loss": self.mean_loss,
               "iters": self.iterations, "epoch_time": self.epoch_time,
               "allreduce": self.allreduce,
               "allreduce_wait": self.allreduce_wait,
               "allreduce_hidden": self.allreduce_hidden}
        out.update(self.times.as_dict())
        if self.extras:
            out.update(self.extras)
        return out


class WholeGraphTrainer:
    """Drives mini-batch GNN training on a :class:`MultiGpuGraphStore`."""

    def __init__(
        self,
        store,
        model_name: str,
        seed: int = 0,
        batch_size: int = config.BATCH_SIZE,
        fanouts=None,
        hidden: int = config.HIDDEN_SIZE,
        num_layers: int = config.NUM_LAYERS,
        lr: float = 3e-3,
        dropout: float = 0.5,
        compute_ranks: str = "one",
        layer_cost_factor: float = 1.0,
        overlap: bool = False,
        streaming: bool = False,
        prefetch_depth: int | None = None,
        bucket_cap_mb: float | None = None,
        overlap_grad_sync: bool = True,
        fault_plan: FaultPlan | None = None,
        recovery_policy: str = "restart",
        checkpoint_dir: str | None = None,
        task: str = "node",
        embedding_dim: int | None = None,
        num_pairs: int | None = None,
        sparse_optimizer: str = "adam",
        plan=None,
    ):
        """``layer_cost_factor`` scales the simulated *training-compute* time
        — 1.0 for WholeGraph's fused layers, >1 when the model is built from
        third-party (DGL/PyG) layer implementations (paper §IV-C5).

        ``overlap=True`` trains with the double-buffered pipelined schedule:
        batch *i+1*'s sample+gather prefetches while batch *i* trains, so
        the steady-state iteration time is the max of the two instead of the
        sum.  The trained model is bit-identical to ``overlap=False``
        (sampling and dropout use separate streams, consumed in batch order
        under both schedules).

        ``streaming=True`` trains with the out-of-core streaming schedule
        (requires a store built with ``tier="tiered"``): a dedicated host
        stream prefetches the next ``prefetch_depth`` batches' host/disk
        tier rows into HBM while the current batch trains, so only the
        *exposed* tail of each transfer stalls the GPUs
        (:class:`~repro.train.streaming.StreamingLoader`).  Like the
        pipelined schedule, the trained model is bit-identical to a
        sequential run at equal seeds.

        ``bucket_cap_mb`` sets the gradient bucket capacity of the Apex-DDP
        style synchronisation (default :data:`config.DDP_BUCKET_CAP_MB`;
        <= 0 forces one flat bucket) and ``overlap_grad_sync`` toggles
        hiding each bucket's all-reduce behind the backward pass — both are
        pure *timing* knobs, the trained weights are bit-identical either
        way.

        ``fault_plan`` injects scheduled faults (:mod:`repro.faults`) into
        the run; a ``None`` or empty plan takes the exact fault-free code
        path.  ``recovery_policy`` selects how permanent rank failures are
        survived: ``"restart"`` reloads the last epoch-boundary checkpoint
        (written to ``checkpoint_dir``, or a temp dir) and re-runs the
        epoch on a replacement GPU; ``"shrink"`` re-shards WholeMemory
        across the surviving GPUs, re-buckets the gradient sync, and
        continues the epoch where it stopped (symmetric modes only; a
        cluster plan drops the failed machine node instead).
        Transient faults (degraded links, stragglers, gather reply loss)
        never change the trained weights — only simulated time.

        ``task="linkpred"`` switches from node classification to
        link-prediction training over a DSM-sharded trainable
        :class:`~repro.dsm.sparse_embedding.WholeEmbedding` (``embedding_dim``
        wide, default the store's feature dim): each step scores
        ``num_pairs`` positive edges against as many uniform negatives
        (BCE), the encoder's dense parameters ride the usual bucketed grad
        sync, and the embedding's touched rows are updated by a sparse
        optimizer (``sparse_optimizer`` in {'adam', 'sgd'}) whose row-grad
        push rides the comm stream.  It trains through the same
        data-parallel round as node classification, in the sequential
        symmetric mode on one node or replicated over a cluster; transient
        fault plans apply, permanent rank failures are rejected.

        ``plan`` selects the parallelism strategy (:mod:`repro.train.plans`):
        ``None`` or ``"data_parallel"`` is the default WholeGraph regime
        described above; ``"pipeline"`` / ``"hybrid"`` / ``"cagnet"`` (or a
        :class:`~repro.train.plans.ParallelismPlan` instance carrying its
        own knobs) switch to layer-pipelined model parallelism or CAGNET
        1.5D full-graph training, and a
        :class:`~repro.train.plans.ClusterDataParallelPlan` trains over
        several machine nodes with ``store``'s node as machine node 0 —
        see ``docs/parallelism.md``."""
        self.store = store
        self.node = store.node
        self.model_name = model_name
        self.seed = int(seed)
        self.layer_cost_factor = float(layer_cost_factor)
        self.batch_size = int(batch_size)
        # an explicit fanout list defines the depth
        fanouts = [config.FANOUT] * num_layers if fanouts is None else list(fanouts)
        num_layers = len(fanouts)
        self.sampler = NeighborSampler(store, fanouts)
        self.hidden = int(hidden)
        self.num_layers = int(num_layers)
        self.dropout = float(dropout)
        self.lr = float(lr)
        self._bucket_cap_mb = bucket_cap_mb
        self._overlap_grad_sync = bool(overlap_grad_sync)
        self.rngs = RngPool(seed, self.node.num_gpus)
        self.epoch_rng = self.rngs.named("epochs")
        if compute_ranks not in ("one", "all"):
            raise ValueError("compute_ranks must be 'one' or 'all'")
        if overlap and compute_ranks == "all":
            raise ValueError(
                "the pipelined schedule runs in the symmetric mode only"
            )
        if streaming and compute_ranks == "all":
            raise ValueError(
                "the streaming schedule runs in the symmetric mode only"
            )
        if streaming and overlap:
            raise ValueError(
                "pick one schedule: overlap (pipelined prefetch) or "
                "streaming (out-of-core host prefetch)"
            )
        if streaming and getattr(store, "tier", None) != "tiered":
            raise ValueError(
                "the streaming loader needs tiered features — build the "
                "store with tier='tiered'"
            )
        self.compute_ranks = compute_ranks
        self.overlap = bool(overlap)
        self.streaming = bool(streaming)
        self.prefetch_depth = (
            config.PREFETCH_DEPTH if prefetch_depth is None
            else int(prefetch_depth)
        )
        #: dropout stream, separate from the sampling stream so the
        #: sequential and pipelined schedules consume both identically
        self._model_rng = self.rngs.named("dropout")

        self.embedding_dim = (
            int(embedding_dim) if embedding_dim else store.feature_dim
        )
        self.num_pairs = int(num_pairs) if num_pairs else self.batch_size
        self.sparse_optim_name = sparse_optimizer
        #: link prediction scores pairs by scaled dot product
        self._score_scale = 1.0 / float(np.sqrt(hidden))
        if task == "node":
            self._task = NODE_CLASSIFICATION
        elif task == "linkpred":
            self._task = LinkPrediction(self, fault_plan)
        else:
            raise ValueError("task must be 'node' or 'linkpred'")
        self.task = task
        self.model = self._build_model(self.rngs.named("init"))
        self.embedding, self.sparse_optimizer = self._task.replica_state(
            self, self.node
        )
        self.optimizer = Adam(self.model.parameters(), lr=lr)

        self._epoch = 0
        self.history: list[EpochStats] = []

        # -- fault injection & recovery ------------------------------------
        if recovery_policy not in ("restart", "shrink"):
            raise ValueError("recovery_policy must be 'restart' or 'shrink'")
        if recovery_policy == "shrink" and compute_ranks == "all":
            raise ValueError(
                "elastic shrink re-shards the symmetric store; use "
                "recovery_policy='restart' with compute_ranks='all'"
            )
        self.recovery_policy = recovery_policy
        self.fault_plan = fault_plan
        self.fault_injector = None
        self._checkpoint_dir = checkpoint_dir
        #: recovery actions taken so far (time, ranks, policy, cost)
        self.recoveries: list[dict] = []

        # -- parallelism plan ----------------------------------------------
        # the plan owns replicas, gradient sync and epoch scheduling; it
        # validates the schedule knobs against its strategy and populates
        # self.grad_sync
        self.plan = resolve_plan(plan)
        self.plan.bind(self)

        if fault_plan is not None and fault_plan:
            self.fault_injector = FaultInjector(fault_plan).install(
                self.plan.nodes
            )
            if self._needs_checkpoints():
                self._save_checkpoint()

    def _build_model(self, rng: np.random.Generator):
        """A fresh model for this task: node classes, or (link prediction)
        an encoder of embedding rows into a ``hidden``-dim score space."""
        in_dim, out_dim = self._task.model_dims(self)
        return build_model(
            self.model_name, in_dim, out_dim, rng, hidden=self.hidden,
            num_layers=self.num_layers, dropout=self.dropout,
        )

    def _needs_checkpoints(self) -> bool:
        return (
            self.fault_injector is not None
            and self.recovery_policy == "restart"
            and bool(self.fault_plan.of_kind(RankFailure))
        )

    def _checkpoint_path(self) -> str:
        if self._checkpoint_dir is None:
            self._checkpoint_dir = tempfile.mkdtemp(prefix="wg-ckpt-")
        os.makedirs(self._checkpoint_dir, exist_ok=True)
        return os.path.join(self._checkpoint_dir, "latest.npz")

    def _save_checkpoint(self) -> None:
        save_checkpoint(
            self._checkpoint_path(), self.model, self.optimizer,
            epoch=self._epoch,
        )

    # -- training ---------------------------------------------------------------------

    def train_epoch(self, max_iterations: int | None = None) -> EpochStats:
        """One pass over the task's batches (optionally truncated): the
        shuffled train nodes, or as many link-prediction pair batches.

        With an overlapped schedule, phase totals still record the *full*
        per-phase work while ``epoch_time`` reflects the overlap.
        """
        return self.plan.train_epoch(max_iterations)

    # -- fault polling & recovery -------------------------------------------------

    def _poll_faults(self) -> None:
        """Detect due permanent failures (raises :class:`RankFailureError`).

        Called at iteration boundaries — the granularity at which a real
        DDP run notices a dead peer (the next collective hangs).
        """
        injector = self.node.fault_injector
        if injector is not None:
            nodes = self.plan.nodes
            injector.poll_rank_failures(
                max(c.now for node in nodes for c in node.gpu_clock),
                node_ids={node.node_id for node in nodes},
            )

    # -- link-prediction evaluation ----------------------------------------------

    def _require_metric(self, metric: str, method: str) -> None:
        """Raise unless this trainer's task is scored by ``metric``."""
        if self._task.metric != metric:
            raise ValueError(
                f"{method}() does not apply to task={self.task!r}; "
                f"score it with {self._task.metric}()"
            )

    def evaluate_linkpred(self, num_pairs: int = 2000) -> float:
        """Held-out link-prediction AUC over fresh positive/negative pairs.

        Functional only (no clock charges); every call draws the same
        ``linkpred-eval`` stream from its start, so repeated evaluations of
        the same trained state agree bitwise.
        """
        self._require_metric("evaluate_linkpred", "evaluate_linkpred")
        rng = self.rngs.named("linkpred-eval")
        batch = PairBatch.draw(self.store.csr, num_pairs, rng)
        self.model.eval()
        eval_sampler = NeighborSampler(
            self.store, self.sampler.fanouts, charge=False
        )
        scores = linkpred_forward(
            self.model, eval_sampler, self.embedding, batch, rng,
            self._score_scale,
        )
        self.model.train()
        return roc_auc(scores.data, batch.labels)

    # -- run artifacts ----------------------------------------------------------------

    def run_report(self, name: str = "wholegraph",
                   accuracy: float | None = None,
                   extra: dict | None = None):
        """Build the structured JSON manifest of everything trained so far.

        Captures config, seed, the rank-0 phase breakdown, feature-gather
        bandwidths, the metrics-registry snapshot, cache statistics and (if
        given) the final accuracy — see
        :mod:`repro.telemetry.run_report`.
        """
        from repro.telemetry.run_report import report_from_node

        cfg = {
            "model": self.model_name,
            "batch_size": self.batch_size,
            "fanouts": self.sampler.fanouts,
            "num_gpus": self.node.num_gpus,
            "compute_ranks": self.compute_ranks,
            "overlap": self.overlap,
            "layer_cost_factor": self.layer_cost_factor,
            "bucket_cap_mb": self.grad_sync.bucket_cap_mb,
            "overlap_grad_sync": self.grad_sync.overlap,
            "grad_buckets": self.grad_sync.num_buckets,
            # the plan makes a recovered run reproducible from its
            # manifest; None for both no-plan and empty-plan runs so
            # the two stay byte-identical (determinism contract)
            "fault_plan": (
                self.fault_plan.to_config()
                if self.fault_plan is not None and self.fault_plan
                else None
            ),
            "recovery_policy": self.recovery_policy,
        }
        # parallelism-plan keys appear only for non-default plans, so the
        # data-parallel manifests (and the goldens) stay byte-identical
        cfg.update(self.plan.report_config())
        # out-of-core knobs appear only when the tier is in play, so the
        # in-HBM manifests (and the goldens) stay byte-identical
        if getattr(self.store, "tier", None) == "tiered":
            cfg["tier"] = self.store.tier
            cfg["host_pinned_fraction"] = self.store._host_pinned_fraction
        if self.streaming:
            cfg["streaming"] = True
            cfg["prefetch_depth"] = self.prefetch_depth
        # task keys appear only for link prediction, so the
        # node-classification manifests (and goldens) stay byte-identical
        task_config, task_extra = self._task.report(self)
        cfg.update(task_config)
        return report_from_node(
            name,
            self.node,
            kind="train",
            config=cfg,
            seed=self.seed,
            feature_stats=getattr(self.store.feature_tensor, "stats", None),
            cache=self.store.feature_cache,
            accuracy=accuracy,
            history=[s.as_row() for s in self.history],
            extra={
                "recoveries": list(self.recoveries), **task_extra,
                **(extra or {}),
            },
        )

    # -- inference --------------------------------------------------------------------

    def predict(
        self,
        nodes: np.ndarray,
        batch_size: int | None = None,
        rank: int = 0,
        charge: bool = True,
    ) -> np.ndarray:
        """Predict class labels for ``nodes`` (sampled inference).

        Unlike training steps, inference involves no gradient collectives
        (paper §I) — each batch is sample + gather + a forward pass, all on
        ``rank``.  With ``charge=True`` the phases land on the timeline
        under ``sample`` / ``gather`` / ``inference``.
        """
        self._require_metric("evaluate", "predict")
        return self._predict(nodes, batch_size, rank, charge, "inference")

    def _predict(self, nodes, batch_size, rank, charge, stream) -> np.ndarray:
        """:meth:`predict`, sampling from the named RNG ``stream``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        batch_size = batch_size or self.batch_size
        self.model.eval()
        sampler = NeighborSampler(
            self.store, self.sampler.fanouts, charge=charge
        )
        rng = self.rngs.named(stream)
        out = np.empty(nodes.shape[0], dtype=np.int64)
        for i in range(0, nodes.shape[0], batch_size):
            seeds = nodes[i : i + batch_size]
            sg = sampler.sample(seeds, rank, rng)
            if charge:
                x_np = self.store.gather_features(
                    sg.input_nodes, rank, phase="gather"
                )
                self.node.gpu_clock[rank].advance(
                    self.model.step_costs(block_shapes(sg)).forward_seconds(
                        self.layer_cost_factor
                    ),
                    phase="inference",
                )
            else:
                x_np = self.store.feature_tensor.gather_no_cost(
                    sg.input_nodes
                )
            logits = self.model(sg, Tensor(x_np), None)
            out[i : i + seeds.shape[0]] = logits.data.argmax(axis=-1)
        self.model.train()
        return out

    # -- evaluation ----------------------------------------------------------------------

    def evaluate(self, nodes: np.ndarray | None = None,
                 batch_size: int | None = None) -> float:
        """Sampled-inference accuracy over ``nodes`` (default: validation),
        charging no clock."""
        self._require_metric("evaluate", "evaluate")
        if nodes is None:
            nodes = self.store.val_nodes
        nodes = np.asarray(nodes, dtype=np.int64)
        preds = self._predict(nodes, batch_size, 0, False, "eval")
        correct = int((preds == self.store.labels[nodes]).sum())
        return correct / max(nodes.shape[0], 1)
