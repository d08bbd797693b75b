"""Functional multi-node data-parallel training (paper §III-D).

Complements the analytic scaling model in :mod:`repro.cluster.multinode`
with a *measured* multi-machine run: every machine node is a full
:class:`~repro.hardware.machine.SimNode` holding its own replica of the
graph store; iterations are distributed across nodes; each node computes
its local gradients, an inter-node all-reduce averages them over the
InfiniBand NICs, and every replica steps identically — the Apex-DDP flow
the paper describes.

The replicas really stay bit-identical (``assert_in_sync``), and the
per-node clocks really show the near-linear epoch-time reduction of
Fig. 13.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro import config
from repro.dsm.sparse_embedding import WholeEmbedding
from repro.faults import FaultInjector, FaultPlan, RankFailureError
from repro.graph import MultiGpuGraphStore
from repro.graph.datasets import SyntheticDataset
from repro.hardware import SimNode
from repro.nn.models import build_model
from repro.nn.optim import Adam
from repro.nn.sparse_optim import average_row_grads
from repro.ops.neighbor_sampler import NeighborSampler
from repro.train.checkpoint import save_checkpoint
from repro.train.metrics import roc_auc
from repro.train.plans.cluster import ClusterDataParallelPlan
from repro.train.streaming import StreamingLoader, train_step
from repro.train.trainer import (
    SPARSE_OPTIMIZERS,
    linkpred_forward,
    sample_link_batch,
)
from repro.utils.rng import RngPool, spawn_rng


class ClusterTrainer:
    """Train one model data-parallel over ``num_machine_nodes`` DGX nodes."""

    def __init__(
        self,
        dataset: SyntheticDataset,
        num_machine_nodes: int,
        model_name: str,
        seed: int = 0,
        batch_size: int = config.BATCH_SIZE,
        fanouts=None,
        hidden: int = config.HIDDEN_SIZE,
        num_layers: int = config.NUM_LAYERS,
        lr: float = 3e-3,
        dropout: float = 0.5,
        overlap: bool = False,
        bucket_cap_mb: float | None = None,
        overlap_grad_sync: bool = True,
        fault_plan: FaultPlan | None = None,
        recovery_policy: str = "shrink",
        checkpoint_dir: str | None = None,
        task: str = "node",
        embedding_dim: int | None = None,
        num_pairs: int | None = None,
        sparse_optimizer: str = "adam",
        plan=None,
    ):
        """``overlap=True`` selects the double-buffered schedule on every
        machine node: each node prefetches its next batch's sample+gather
        while the current batch trains (same bit-identical-math guarantee as
        :class:`~repro.train.trainer.WholeGraphTrainer`).

        ``bucket_cap_mb`` / ``overlap_grad_sync`` configure the bucketed
        hierarchical gradient synchronisation (intra-node NVLink ring plus
        an inter-node IB ring per bucket); both are pure timing knobs.

        ``fault_plan`` injects scheduled faults (:mod:`repro.faults`); a
        rank failure takes its whole machine node (replica) down.
        ``recovery_policy="shrink"`` (default) drops the dead node and
        continues data-parallel over the survivors — replicas are already
        in sync, so no state moves; ``"restart"`` reloads the last
        epoch-boundary checkpoint into every replica and re-runs the epoch
        (the failed node's process is assumed restarted in place).

        ``plan`` is the parallelism plan owning gradient sync and fault
        recovery; only the default
        :class:`~repro.train.plans.cluster.ClusterDataParallelPlan` makes
        sense across machine nodes today, but instances may be passed for
        testing/extension."""
        if num_machine_nodes < 1:
            raise ValueError("need at least one machine node")
        if fanouts is None:
            fanouts = [config.FANOUT] * num_layers
        else:
            fanouts = list(fanouts)
            num_layers = len(fanouts)
        self.batch_size = int(batch_size)
        self.num_machine_nodes = num_machine_nodes
        self.seed = int(seed)
        self.model_name = model_name
        self.history: list[dict] = []

        # one full replica of everything per machine node (§III-D: "each
        # machine node holds one replica of the graph structure and graph
        # features")
        self.nodes = [SimNode(node_id=i) for i in range(num_machine_nodes)]
        self.stores = [
            MultiGpuGraphStore(node, dataset, seed=seed)
            for node in self.nodes
        ]
        self.samplers = [
            NeighborSampler(store, fanouts) for store in self.stores
        ]
        if task not in ("node", "linkpred"):
            raise ValueError("task must be 'node' or 'linkpred'")
        if task == "linkpred" and overlap:
            raise ValueError(
                "link prediction runs in the sequential symmetric mode"
            )
        self.task = task

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
                int(embedding_dim) if embedding_dim
                else self.stores[0].feature_dim
            )
            self.num_pairs = (
                int(num_pairs) if num_pairs else self.batch_size
            )
            self.sparse_optim_name = sparse_optimizer
            # replicated link prediction: every machine processes *the
            # same* global pair batch, so the trajectory is bit-identical
            # to the single-node trainer's — same "init" model stream,
            # same "embedding" init, same per-step "rank"/"dropout"
            # consumption, one shared "linkpred-pairs" stream
            init_rng = spawn_rng(seed, "init")
            self.models = [
                build_model(
                    model_name, self.embedding_dim, hidden, init_rng,
                    hidden=hidden, num_layers=num_layers, dropout=dropout,
                )
                for _ in range(num_machine_nodes)
            ]
            self._score_scale = 1.0 / float(np.sqrt(hidden))
            self.embeddings = [
                WholeEmbedding(
                    node, self.stores[0].num_nodes, self.embedding_dim,
                    rng=spawn_rng(seed, "embedding"),
                )
                for node in self.nodes
            ]
            self.sparse_optimizers = [
                SPARSE_OPTIMIZERS[sparse_optimizer]([emb], lr=lr)
                for emb in self.embeddings
            ]
            self._pair_rng = spawn_rng(seed, "linkpred-pairs")
            self._sample_rngs = [
                spawn_rng(seed, "rank", 0)
                for _ in range(num_machine_nodes)
            ]
            self.iterations_per_epoch = max(
                1, self.stores[0].train_nodes.shape[0] // self.batch_size
            )
        else:
            self.embeddings = []
            self.sparse_optimizers = []
            init_rng = spawn_rng(seed, "cluster-init")
            self.models = [
                build_model(
                    model_name, self.stores[0].feature_dim,
                    self.stores[0].num_classes, init_rng,
                    hidden=hidden, num_layers=num_layers, dropout=dropout,
                )
                for _ in range(num_machine_nodes)
            ]
        # start in sync (the DDP weight broadcast)
        state = self.models[0].state_dict()
        for m in self.models[1:]:
            m.load_state_dict(state)
        self.optimizers = [Adam(m.parameters(), lr=lr) for m in self.models]
        self._bucket_cap_mb = bucket_cap_mb
        self._overlap_grad_sync = bool(overlap_grad_sync)
        # the plan owns gradient sync and fault recovery; its bind leaves
        # ``self.grad_sync`` (the bucketed hierarchical pricing over all
        # machine nodes) populated for reporting and test access
        self.plan = ClusterDataParallelPlan() if plan is None else plan
        if self.plan.trainer is not None:
            raise ValueError("plan instances bind to a single trainer")
        self.plan.bind(self)
        self.rngs = RngPool(seed, num_machine_nodes)
        self.epoch_rng = self.rngs.named("cluster-epochs")
        self.overlap = bool(overlap)
        #: per-node dropout streams, separate from the sampling streams so
        #: both schedules consume each stream in the same order; replicated
        #: link prediction instead gives every machine the single-node
        #: trainer's "dropout" stream (consumed identically on identical
        #: batches, so replicas stay in lock-step with the single-node run)
        self._model_rngs = [
            (
                spawn_rng(seed, "dropout") if task == "linkpred"
                else self.rngs.named(f"cluster-dropout-{i}")
            )
            for i in range(num_machine_nodes)
        ]
        self._epoch = 0

        # -- fault injection & recovery ------------------------------------
        if recovery_policy not in ("restart", "shrink"):
            raise ValueError("recovery_policy must be 'restart' or 'shrink'")
        self.recovery_policy = recovery_policy
        self.fault_plan = fault_plan
        self.fault_injector = None
        self._checkpoint_dir = checkpoint_dir
        #: recovery actions taken so far (time, nodes, policy, cost)
        self.recoveries: list[dict] = []
        if fault_plan is not None and fault_plan:
            self.fault_injector = FaultInjector(fault_plan).install(
                self.nodes
            )
            if self._needs_checkpoints():
                self._save_checkpoint()

    def _needs_checkpoints(self) -> bool:
        from repro.faults import RankFailure

        return (
            self.fault_injector is not None
            and self.recovery_policy == "restart"
            and bool(self.fault_plan.of_kind(RankFailure))
        )

    def _checkpoint_path(self) -> str:
        if self._checkpoint_dir is None:
            self._checkpoint_dir = tempfile.mkdtemp(prefix="cluster-ckpt-")
        os.makedirs(self._checkpoint_dir, exist_ok=True)
        return os.path.join(self._checkpoint_dir, "latest.npz")

    def _save_checkpoint(self) -> None:
        save_checkpoint(
            self._checkpoint_path(), self.models[0], self.optimizers[0],
            epoch=self._epoch,
        )

    def _grad_nbytes(self) -> int:
        return sum(p.data.nbytes for p in self.models[0].parameters())

    def train_epoch(self, max_iterations: int | None = None) -> dict:
        """One epoch; global batches are distributed round-robin over the
        machine nodes and processed concurrently (per-node clocks advance
        in parallel)."""
        if self.task == "linkpred":
            return self._train_epoch_linkpred(max_iterations)
        store0 = self.stores[0]
        order = self.epoch_rng.permutation(store0.train_nodes)
        nb = max(1, order.shape[0] // self.batch_size)
        batches = [
            order[i * self.batch_size : (i + 1) * self.batch_size]
            for i in range(nb)
        ]
        if max_iterations is not None:
            batches = batches[: max_iterations * self.num_machine_nodes]

        t_start = max(node.sync() for node in self.nodes)
        losses: list[float] = []
        loaders = self._loaders()
        # round-robin: one step processes batches[cursor : cursor+k]
        # concurrently; the cursor loop (instead of a fixed-stride range)
        # lets a mid-epoch recovery change k or replay the epoch
        cursor = 0
        while cursor < len(batches):
            k = self.num_machine_nodes
            group = batches[cursor : cursor + k]
            try:
                producers = []
                for i, batch in enumerate(group):
                    # node i's next round-robin batch prefetches while this
                    # one trains (with overlap on)
                    nxt = cursor + k + i
                    loss, train_t = train_step(
                        loaders[i], batch, iter(batches[nxt : nxt + 1]),
                        self.rngs.rank(i), self.models[i],
                        self._model_rngs[i],
                    )
                    losses.append(loss)
                    producers.append(
                        (self.nodes[i].gpu_clock[0].now, train_t)
                    )
                # global bucketed sync: averages the gradients
                # functionally, then charges the hierarchical (NVLink +
                # IB) schedule — nodes that got no batch this step stall
                # at the collective barrier
                self.plan.sync_gradients(producers)
                for opt in self.optimizers:
                    opt.step()
                cursor += len(group)
                self._poll_faults()
            except RankFailureError as exc:
                _, cursor, losses = self.plan.recover(
                    exc, None, cursor, losses
                )
                # staged prefetches target pre-failure batch indexes;
                # rebuild and pay a fresh pipeline prologue
                loaders = self._loaders()
        t_end = max(node.sync() for node in self.nodes)
        self._epoch += 1
        stats = {
            "epoch": self._epoch - 1,
            "mean_loss": float(np.mean(losses)) if losses else float("nan"),
            "iterations": len(batches),
            "epoch_time": t_end - t_start,
        }
        self.history.append(stats)
        if self._needs_checkpoints():
            self._save_checkpoint()
        return stats

    # -- replicated link prediction (sparse embeddings + row-grad sync) -------

    def _train_epoch_linkpred(self, max_iterations: int | None) -> dict:
        """One link-prediction epoch: every machine node processes the
        *same* global pair batch each step (replicated data-parallel), so
        the loss trajectory is bit-identical to the single-node trainer's
        while still exercising the full gradient-averaging machinery."""
        n_iter = self.iterations_per_epoch
        if max_iterations is not None:
            n_iter = min(n_iter, int(max_iterations))
        t_start = max(node.sync() for node in self.nodes)
        losses = [self._step_linkpred() for _ in range(n_iter)]
        t_end = max(node.sync() for node in self.nodes)
        self._epoch += 1
        stats = {
            "epoch": self._epoch - 1,
            "mean_loss": float(np.mean(losses)) if losses else float("nan"),
            "iterations": n_iter,
            "epoch_time": t_end - t_start,
        }
        self.history.append(stats)
        return stats

    def _step_linkpred(self) -> float:
        """One replicated link-prediction step across all machine nodes."""
        src, dst, labels = sample_link_batch(
            self.stores[0].csr, self.num_pairs, self._pair_rng
        )
        producers = []
        collected = []
        machine_losses = []
        for i in range(self.num_machine_nodes):
            node = self.nodes[i]
            res = linkpred_forward(
                node, self.models[i], self.samplers[i], self.embeddings[i],
                src, dst, labels, 0, self._sample_rngs[i],
                self._model_rngs[i], self._score_scale, charge=True,
            )
            machine_losses.append(float(res.loss.data))
            self.models[i].zero_grad()
            res.loss.backward()
            sg = res.subgraph
            train_t = self.models[i].estimate_train_time(sg)
            clock = node.gpu_clock[0]
            clock.advance(
                train_t, phase="train", category="compute",
                args={"edges": sg.total_edges(),
                      "input_nodes": int(sg.input_nodes.shape[0])},
            )
            for r in range(1, node.num_gpus):
                clk = node.gpu_clock[r]
                clk.advance(res.t_sample, phase="sample")
                clk.advance(res.t_gather, phase="gather")
                clk.advance(train_t, phase="train")
            producers.append((clock.now, train_t))
            collected.append(self.sparse_optimizers[i].collect())
        # dense encoder grads: float64-accumulate average (exact for the
        # identical replicated grads), then the hierarchical sync charge
        self.plan.sync_gradients(producers, f64=True)
        for opt in self.optimizers:
            opt.step()
        # sparse row grads: union-average across replicas under the same
        # float64 contract, then every replica applies the identical update
        # (comm-lane push + touched-row state arithmetic on its own node)
        averaged = average_row_grads(collected)
        for sparse_opt in self.sparse_optimizers:
            sparse_opt.apply(averaged, rank=0)
        for node in self.nodes:
            node.sync()
        return float(np.mean(machine_losses))

    def evaluate_linkpred(self, num_pairs: int = 2000) -> float:
        """Held-out link-prediction AUC on machine node 0's replica.

        Draws the same ``linkpred-eval`` stream as the single-node
        trainer's :meth:`~repro.train.trainer.WholeGraphTrainer.\
evaluate_linkpred`, so the two agree bitwise on identical state.
        """
        if self.task != "linkpred":
            raise ValueError("evaluate_linkpred needs task='linkpred'")
        rng = spawn_rng(self.seed, "linkpred-eval")
        src, dst, labels = sample_link_batch(
            self.stores[0].csr, num_pairs, rng
        )
        model = self.models[0]
        model.eval()
        eval_sampler = NeighborSampler(
            self.stores[0], self.samplers[0].fanouts, charge=False
        )
        res = linkpred_forward(
            self.nodes[0], model, eval_sampler, self.embeddings[0],
            src, dst, labels, 0, rng, None, self._score_scale, charge=False,
        )
        model.train()
        return roc_auc(res.scores.data, labels)

    def _loaders(self) -> list[StreamingLoader]:
        """One batch loader per machine node (lookahead 1 with overlap)."""
        return [
            StreamingLoader(store, sampler, rank=0,
                            prefetch_depth=int(self.overlap))
            for store, sampler in zip(self.stores, self.samplers)
        ]

    # -- fault polling & recovery -------------------------------------------------

    def _now(self) -> float:
        return max(c.now for node in self.nodes for c in node.gpu_clock)

    def _poll_faults(self) -> None:
        """Detect due permanent failures on any machine node."""
        if self.fault_injector is not None:
            self.fault_injector.poll_rank_failures(self._now())

    def run_report(self, name: str = "cluster",
                   accuracy: float | None = None,
                   extra: dict | None = None):
        """Structured JSON manifest of the multi-node run (machine node 0's
        timeline; per-node epoch times in ``extra``) — see
        :mod:`repro.telemetry.run_report`."""
        from repro.telemetry.run_report import report_from_node

        merged = {
            "node_epoch_times": [
                max(c.now for c in node.gpu_clock) for node in self.nodes
            ],
            "recoveries": list(self.recoveries),
        }
        cfg = {
            "model": self.model_name,
            "batch_size": self.batch_size,
            "num_machine_nodes": self.num_machine_nodes,
            "num_gpus_per_node": self.nodes[0].num_gpus,
            "overlap": self.overlap,
            "bucket_cap_mb": self.grad_sync.bucket_cap_mb,
            "overlap_grad_sync": self.grad_sync.overlap,
            "grad_buckets": self.grad_sync.num_buckets,
            "fault_plan": (
                self.fault_plan.to_config()
                if self.fault_plan is not None and self.fault_plan
                else None
            ),
            "recovery_policy": self.recovery_policy,
        }
        if self.task == "linkpred":
            cfg["task"] = "linkpred"
            cfg["embedding_dim"] = self.embedding_dim
            cfg["num_pairs"] = self.num_pairs
            cfg["sparse_optimizer"] = self.sparse_optim_name
            merged["embedding"] = self.embeddings[0].stats_dict()
            merged["sparse_state_bytes"] = (
                self.sparse_optimizers[0].state_bytes()
            )
        merged.update(extra or {})
        return report_from_node(
            name,
            self.nodes[0],
            kind="train",
            config=cfg,
            seed=self.seed,
            feature_stats=getattr(
                self.stores[0].feature_tensor, "stats", None
            ),
            cache=self.stores[0].feature_cache,
            accuracy=accuracy,
            history=list(self.history),
            extra=merged,
        )

    def assert_in_sync(self, atol: float = 1e-5) -> None:
        """All machine-node replicas hold identical weights (and, for link
        prediction, identical embedding tables)."""
        ref = self.models[0].state_dict()
        for i, m in enumerate(self.models[1:], start=1):
            for a, b in zip(ref, m.state_dict()):
                if not np.allclose(a, b, atol=atol):
                    raise AssertionError(f"machine node {i} diverged")
        if self.embeddings:
            rows = np.arange(self.embeddings[0].num_rows, dtype=np.int64)
            ref_rows = self.embeddings[0].read_rows(rows)
            for i, emb in enumerate(self.embeddings[1:], start=1):
                if not np.allclose(emb.read_rows(rows), ref_rows, atol=atol):
                    raise AssertionError(
                        f"machine node {i} embedding diverged"
                    )

    def evaluate(self, nodes=None, batch_size: int | None = None) -> float:
        """Validation accuracy using machine node 0's replica."""
        from repro.nn.tensor import Tensor  # local: avoid cycle

        store = self.stores[0]
        if nodes is None:
            nodes = store.val_nodes
        nodes = np.asarray(nodes, dtype=np.int64)
        batch_size = batch_size or self.batch_size
        model = self.models[0]
        model.eval()
        sampler = NeighborSampler(store, self.samplers[0].fanouts,
                                  charge=False)
        rng = self.rngs.named("cluster-eval")
        correct = 0
        for i in range(0, nodes.shape[0], batch_size):
            seeds = nodes[i : i + batch_size]
            sg = sampler.sample(seeds, 0, rng)
            x = Tensor(store.feature_tensor.gather_no_cost(sg.input_nodes))
            logits = model(sg, x, None)
            correct += int(
                (logits.data.argmax(axis=-1) == store.labels[seeds]).sum()
            )
        model.train()
        return correct / max(nodes.shape[0], 1)
