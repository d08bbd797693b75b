"""The WholeGraph trainer: epoch loops, evaluation, timing collection.

The trainer owns the task (node classification or link prediction): model
and optimizer state, RNG streams, checkpoints, evaluation and reporting.
Its parallelism plan (:mod:`repro.train.plans`) owns the placement —
single node, N-node cluster, pipeline, CAGNET.  Two execution modes:

- ``compute_ranks="one"`` (default) — SPMD-symmetric simulation: rank 0
  runs the real math and its per-phase durations are charged to the other
  ranks too (all ranks process statistically-identical batches, the
  standard symmetry assumption of data-parallel performance models).  This
  is the mode the performance experiments run in.
- ``compute_ranks="all"`` — true DDP: one model replica per GPU rank, each
  training its slice of the global batch, and the plan's gradient average
  every step (paper §III-D).  Used by the DDP correctness tests and
  multi-replica accuracy runs.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from repro import config
from repro.dsm.sparse_embedding import WholeEmbedding
from repro.faults import FaultInjector, FaultPlan
from repro.nn import functional as F
from repro.nn.models import build_model
from repro.nn.optim import Adam
from repro.nn.sparse_optim import SparseAdam, SparseSGD, average_row_grads
from repro.nn.tensor import Tensor
from repro.ops.negative_sampling import (
    sample_negative_edges,
    sample_positive_edges,
)
from repro.ops.neighbor_sampler import NeighborSampler
from repro.telemetry import metrics
from repro.train.checkpoint import save_checkpoint
from repro.train.metrics import PhaseTimes, roc_auc
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


@dataclass
class LinkBatchResult:
    """Forward outputs of one link-prediction batch."""

    subgraph: object
    scores: Tensor
    loss: Tensor
    t_sample: float = 0.0
    t_gather: float = 0.0


def linkpred_forward(
    node,
    model,
    sampler: NeighborSampler,
    embedding: WholeEmbedding,
    src: np.ndarray,
    dst: np.ndarray,
    labels: np.ndarray,
    rank: int,
    sample_rng: np.random.Generator,
    model_rng: np.random.Generator | None,
    score_scale: float,
    charge: bool = True,
) -> LinkBatchResult:
    """Encode the pair endpoints and score every (src, dst) pair.

    The endpoints of all pairs are deduplicated into one seed set, sampled
    and encoded once; scores are scaled dot products of the endpoint
    embeddings against BCE-with-logits labels.  Shared by the training step
    (on every machine node's replica) and
    :meth:`WholeGraphTrainer.evaluate_linkpred`.  With ``charge=True`` the
    sampler and the embedding gather advance ``rank``'s clock under
    ``sample``/``gather``.
    """
    seeds, inverse = np.unique(
        np.concatenate([src, dst]), return_inverse=True
    )
    clock = node.gpu_clock[rank]
    t0 = clock.now
    subgraph = sampler.sample(seeds, rank, sample_rng)
    t1 = clock.now
    if charge:
        e = embedding.forward(subgraph.input_nodes, rank=rank, phase="gather")
    else:
        e = Tensor(embedding.gather_no_cost(subgraph.input_nodes))
    t2 = clock.now
    h = model(subgraph, e, model_rng)
    left = inverse[: src.shape[0]]
    right = inverse[src.shape[0]:]
    scores = F.pairwise_dot(h, left, right) * score_scale
    loss = F.binary_cross_entropy_with_logits(scores, labels)
    return LinkBatchResult(
        subgraph=subgraph, scores=scores, loss=loss,
        t_sample=t1 - t0, t_gather=t2 - t1,
    )


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
        push rides the comm stream.  Runs in the sequential symmetric mode;
        transient fault plans apply, permanent rank failures are rejected.

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
        if fanouts is None:
            fanouts = [config.FANOUT] * num_layers
        else:
            # an explicit fanout list defines the depth
            fanouts = list(fanouts)
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

        if task not in ("node", "linkpred"):
            raise ValueError("task must be 'node' or 'linkpred'")
        if task == "linkpred" and (
            compute_ranks == "all" or overlap or streaming
        ):
            raise ValueError(
                "link prediction runs in the sequential symmetric mode"
            )
        self.task = task

        init_rng = self.rngs.named("init")
        self.embedding = None
        self.sparse_optimizer = None
        if task == "linkpred":
            from repro.faults import RankFailure

            if fault_plan is not None and fault_plan.of_kind(RankFailure):
                raise ValueError(
                    "link prediction supports transient fault plans only"
                )
            if sparse_optimizer not in SPARSE_OPTIMIZERS:
                raise ValueError(
                    f"sparse_optimizer must be one of "
                    f"{sorted(SPARSE_OPTIMIZERS)}"
                )
            self.embedding_dim = (
                int(embedding_dim) if embedding_dim else store.feature_dim
            )
            self.num_pairs = int(num_pairs) if num_pairs else self.batch_size
            self.sparse_optim_name = sparse_optimizer
            self.model = self._build_model(init_rng)
            # pairs are scored by scaled dot product
            self._score_scale = 1.0 / float(np.sqrt(hidden))
            self.embedding, self.sparse_optimizer = self._build_embedding(
                self.node
            )
            self._pair_rng = self.rngs.named("linkpred-pairs")
            self.iterations_per_epoch = max(
                1, store.train_nodes.shape[0] // self.batch_size
            )
        else:
            self.model = self._build_model(init_rng)
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
        if self.task == "linkpred":
            in_dim, out_dim = self.embedding_dim, self.hidden
        else:
            in_dim, out_dim = self.store.feature_dim, self.store.num_classes
        return build_model(
            self.model_name, in_dim, out_dim, rng, hidden=self.hidden,
            num_layers=self.num_layers, dropout=self.dropout,
        )

    def _build_embedding(self, node):
        """The link-prediction embedding table on ``node`` and its sparse
        optimizer; every call draws the same ``embedding`` init stream."""
        embedding = WholeEmbedding(
            node, self.store.num_nodes, self.embedding_dim,
            rng=self.rngs.named("embedding"),
        )
        optimizer = SPARSE_OPTIMIZERS[self.sparse_optim_name](
            [embedding], lr=self.lr
        )
        return embedding, optimizer

    def _needs_checkpoints(self) -> bool:
        from repro.faults import RankFailure

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

    def _epoch_batches(self) -> list[np.ndarray]:
        """Shuffled train nodes cut into per-step global batches."""
        order = self.epoch_rng.permutation(self.store.train_nodes)
        nb = max(1, order.shape[0] // self.batch_size)
        return [
            order[i * self.batch_size : (i + 1) * self.batch_size]
            for i in range(nb)
        ]

    def train_epoch(self, max_iterations: int | None = None) -> EpochStats:
        """One pass over the training nodes (optionally truncated).

        With an overlapped schedule, phase totals still record the *full*
        per-phase work while ``epoch_time`` reflects the overlap.  A
        link-prediction epoch is ``iterations_per_epoch`` pair batches.
        """
        if self.task != "linkpred":
            return self.plan.train_epoch(max_iterations)
        n_iter = self.iterations_per_epoch
        if max_iterations is not None:
            n_iter = min(n_iter, int(max_iterations))
        return self.plan.run_epoch(
            [None] * n_iter,
            lambda todo, times: ([self._step_linkpred(times)] for _ in todo),
        )

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

    # -- link prediction over the DSM embedding table ---------------------------

    def _step_linkpred(self, phase_totals: PhaseTimes) -> float:
        """One link-prediction step over every replica.

        Every machine node scores the same global pair batch (replicated
        data parallelism), so the trajectory is the single-node one at any
        machine count.  Dense encoder grads go through the plan's gradient
        sync; sparse row grads ride the comm stream, averaged across the
        replicas first when there is more than one.  ``phase_totals``
        accumulates machine node 0's phase seconds.
        """
        replicas = self.plan.replicas
        src, dst, labels = sample_link_batch(
            self.store.csr, self.num_pairs, self._pair_rng
        )
        reg = metrics.get_registry()
        losses = []
        trained = []
        for m in replicas:
            node = m.node
            clock = node.gpu_clock[0]
            res = linkpred_forward(
                node, m.model, m.sampler, m.embedding,
                src, dst, labels, 0, m.sample_rng, m.model_rng,
                self._score_scale, charge=True,
            )
            losses.append(float(res.loss.data))
            m.model.zero_grad()
            res.loss.backward()
            sg = res.subgraph
            train_t = (
                m.model.estimate_train_time(sg) * self.layer_cost_factor
            )
            clock.advance(
                train_t, phase="train", category="compute",
                args={"edges": sg.total_edges(),
                      "input_nodes": int(sg.input_nodes.shape[0])},
            )
            reg.counter("iterations_total", schedule="linkpred").inc(1)
            reg.counter("phase_seconds_total", phase="sample").inc(
                res.t_sample
            )
            reg.counter("phase_seconds_total", phase="gather").inc(
                res.t_gather
            )
            reg.counter("phase_seconds_total", phase="train").inc(train_t)
            for r in range(1, node.num_gpus):
                clk = node.gpu_clock[r]
                clk.advance(res.t_sample, phase="sample")
                clk.advance(res.t_gather, phase="gather")
                clk.advance(train_t, phase="train")
            trained.append((m, train_t))
            if m is replicas[0]:
                phase_totals += PhaseTimes(
                    sample=res.t_sample, gather=res.t_gather, train=train_t
                )
        # the embedding is not a Parameter: the dense sync's buckets cover
        # the encoder only
        self.plan.sync_gradients(trained)
        for m in replicas:
            m.optimizer.step()
        # sparse rows: dedup + scatter-add + comm-lane push, touched-row
        # state update priced on the owning ranks
        if len(replicas) == 1:
            self.sparse_optimizer.step(rank=0)
        else:
            averaged = average_row_grads(
                [m.sparse_optimizer.collect() for m in replicas]
            )
            for m in replicas:
                m.sparse_optimizer.apply(averaged, rank=0)
        for m in replicas:
            m.node.sync()
        return float(np.mean(losses))

    def evaluate_linkpred(self, num_pairs: int = 2000) -> float:
        """Held-out link-prediction AUC over fresh positive/negative pairs.

        Functional only (no clock charges); every call draws the same
        ``linkpred-eval`` stream from its start, so repeated evaluations of
        the same trained state agree bitwise.
        """
        if self.task != "linkpred":
            raise ValueError("evaluate_linkpred needs task='linkpred'")
        rng = self.rngs.named("linkpred-eval")
        src, dst, labels = sample_link_batch(
            self.store.csr, num_pairs, rng
        )
        self.model.eval()
        eval_sampler = NeighborSampler(
            self.store, self.sampler.fanouts, charge=False
        )
        res = linkpred_forward(
            self.node, self.model, eval_sampler, self.embedding,
            src, dst, labels, 0, rng, None, self._score_scale, charge=False,
        )
        self.model.train()
        return roc_auc(res.scores.data, labels)

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
        # link-prediction keys appear only for the recsys task, so the
        # node-classification manifests (and goldens) stay byte-identical
        if self.task == "linkpred":
            cfg["task"] = "linkpred"
            cfg["embedding_dim"] = self.embedding_dim
            cfg["num_pairs"] = self.num_pairs
            cfg["sparse_optimizer"] = self.sparse_optim_name
            extra = {
                "embedding": self.embedding.stats_dict(),
                "sparse_state_bytes": self.sparse_optimizer.state_bytes(),
                **(extra or {}),
            }
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
            extra={"recoveries": list(self.recoveries), **(extra or {})},
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
        nodes = np.asarray(nodes, dtype=np.int64)
        batch_size = batch_size or self.batch_size
        self.model.eval()
        sampler = NeighborSampler(
            self.store, self.sampler.fanouts, charge=charge
        )
        rng = self.rngs.named("inference")
        out = np.empty(nodes.shape[0], dtype=np.int64)
        for i in range(0, nodes.shape[0], batch_size):
            seeds = nodes[i : i + batch_size]
            sg = sampler.sample(seeds, rank, rng)
            if charge:
                x_np = self.store.gather_features(
                    sg.input_nodes, rank, phase="gather"
                )
                self.node.gpu_clock[rank].advance(
                    self.model.estimate_inference_time(sg)
                    * self.layer_cost_factor,
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
        """Sampled-inference accuracy over ``nodes`` (default: validation)."""
        if nodes is None:
            nodes = self.store.val_nodes
        nodes = np.asarray(nodes, dtype=np.int64)
        batch_size = batch_size or self.batch_size
        self.model.eval()
        eval_sampler = NeighborSampler(
            self.store, self.sampler.fanouts, charge=False
        )
        rng = self.rngs.named("eval")
        correct = 0
        for i in range(0, nodes.shape[0], batch_size):
            seeds = nodes[i : i + batch_size]
            sg = eval_sampler.sample(seeds, 0, rng)
            x = Tensor(
                self.store.feature_tensor.gather_no_cost(sg.input_nodes)
            )
            logits = self.model(sg, x, None)
            correct += int(
                (logits.data.argmax(axis=-1) == self.store.labels[seeds]).sum()
            )
        self.model.train()
        return correct / max(nodes.shape[0], 1)
