"""CAGNET-style 1.5D partitioned full-graph training (PAPERS.md).

No sampling: every epoch is one full forward/backward over the whole
graph, with the adjacency and the feature matrix block-row partitioned
across the ``p`` GPUs.  Following CAGNET ("Reducing Communication in Graph
Neural Network Training"), the processes form a ``(p/c) x c`` grid with
replication factor ``c``:

- each of the ``p/c`` *broadcast groups* holds one block-row of the
  adjacency, replicated ``c`` ways;
- per layer, every rank receives the other block-rows' feature shards via
  ``p/c - 1`` ring-relayed broadcast steps, each shipping ``1/c`` of the
  slice (the replicas split the stationary matrix, so each moves a
  ``c``-th of the volume — the communication-avoiding win);
- when ``c > 1`` the ``c`` replicas hold partial SpMM outputs that a
  ``c``-way chunked-ring reduce combines.

``c = 1`` degenerates to the 1D block-row algorithm.  Broadcasts and
reduces ride the comm lanes under the ``broadcast``/``reduce`` phases
priced by :func:`~repro.hardware.costmodel.ring_broadcast_time` and the
chunked-ring all-reduce model, so both feed the analysis layer's blame
tables; layer-weight gradients sync through the plan-owned
:class:`~repro.train.ddp.GradSyncModel` like any other plan.

Dual-layer contract: the functional epoch is one deterministic full-graph
pass (loss over the training nodes only), independent of ``p`` and ``c``;
the partitioning shapes only the simulated clocks.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.faults import RankFailureError
from repro.hardware import costmodel
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.ops.neighbor_sampler import LayerBlock, SampledSubgraph
from repro.telemetry import metrics
from repro.train.ddp import GradSyncModel
from repro.train.metrics import PhaseTimes
from repro.train.plans.base import ParallelismPlan


class CagnetFullGraphPlan(ParallelismPlan):
    """Full-graph training over a 1.5D block partition (no sampling)."""

    name = "cagnet"

    def __init__(self, replication: int | None = None):
        """``replication`` is CAGNET's ``c``; defaults to
        :data:`config.CAGNET_REPLICATION` (1 = the 1D algorithm)."""
        super().__init__()
        self.replication = replication
        self._subgraph = None

    def bind(self, trainer) -> None:
        """Validate the knobs and build the one full-graph 'sample'."""
        self.trainer = trainer
        t = trainer
        if t.task != "node":
            raise ValueError(
                "the CAGNET plan supports node classification only"
            )
        if t.compute_ranks != "one":
            raise ValueError(
                "the CAGNET plan runs in the symmetric mode only"
            )
        if t.overlap or t.streaming:
            raise ValueError(
                "the CAGNET plan is a full-graph schedule — construct the "
                "trainer with overlap=False, streaming=False"
            )
        if t.recovery_policy != "restart":
            raise ValueError(
                "the CAGNET plan supports recovery_policy='restart' only"
            )
        c = (
            config.CAGNET_REPLICATION if self.replication is None
            else int(self.replication)
        )
        p = t.node.num_gpus
        if c < 1 or p % c != 0:
            raise ValueError(
                f"replication must divide the GPU count ({p}); got {c}"
            )
        self.replication = c
        t.replicas = [t.model]
        t.ddp = None
        t.grad_sync = GradSyncModel(
            t.node,
            [p_.data.size * p_.data.itemsize
             for p_ in t.model.parameters()],
            bucket_cap_mb=t._bucket_cap_mb,
            overlap=t._overlap_grad_sync,
        )
        # the whole graph as one L-layer "sample": every frontier is all
        # nodes, every block the full square CSR (no duplicate counts —
        # nothing was sampled, so nothing was deduplicated)
        csr = t.store.csr
        n = t.store.num_nodes
        all_nodes = np.arange(n, dtype=np.int64)
        num_layers = len(t.model.convs)
        self._subgraph = SampledSubgraph(
            frontiers=[all_nodes] * (num_layers + 1),
            blocks=[
                LayerBlock(csr.indptr, csr.indices, n, n, None)
                for _ in range(num_layers)
            ],
        )

    def report_config(self) -> dict:
        """Plan name plus the partition-grid knob."""
        return {"plan": self.name, "replication": self.replication}

    # -- epoch loop --------------------------------------------------------

    def train_epoch(self, max_iterations):
        """One full-graph pass = one 'iteration' epoch."""
        from repro.train.trainer import EpochStats

        t = self.trainer
        t.model.train()
        node = t.node
        t_start = node.sync()
        b0 = node.timeline.phase_total("broadcast")
        r0 = node.timeline.phase_total("reduce")
        ar0 = node.timeline.phase_total("allreduce")
        while True:
            try:
                loss, train_t = self._full_graph_step()
                t._poll_faults()
                break
            except RankFailureError as exc:
                _, _, _ = self.recover(exc, [], 0, [])
        t_end = node.sync()
        bcast = node.timeline.phase_total("broadcast") - b0
        reduce = node.timeline.phase_total("reduce") - r0
        reg = metrics.get_registry()
        reg.counter("phase_seconds_total", phase="broadcast").inc(bcast)
        reg.counter("phase_seconds_total", phase="reduce").inc(reduce)
        stats = EpochStats(
            epoch=t._epoch,
            mean_loss=loss,
            iterations=1,
            times=PhaseTimes(train=train_t),
            epoch_time=t_end - t_start,
            allreduce=node.timeline.phase_total("allreduce") - ar0,
            extras={
                "broadcast": bcast,
                "reduce": reduce,
                "replication": self.replication,
            },
        )
        t._epoch += 1
        t.history.append(stats)
        if t._needs_checkpoints():
            t._save_checkpoint()
        return stats

    # -- one full-graph iteration ------------------------------------------

    def _full_graph_step(self) -> tuple[float, float]:
        """Functional full-graph pass plus its partitioned clock charges."""
        t = self.trainer
        store = t.store
        # functional math: one deterministic full-batch pass; the loss is
        # taken over the training split only, as in full-graph GCN training
        x_np = store.feature_tensor.gather_no_cost(
            np.arange(store.num_nodes, dtype=np.int64)
        )
        logits = t.model(self._subgraph, Tensor(x_np), t._model_rng)
        train_nodes = store.train_nodes
        loss = F.cross_entropy(
            F.gather_rows(logits, train_nodes),
            store.labels[train_nodes],
        )
        t.model.zero_grad()
        loss.backward()
        t.optimizer.step()

        train_t = self._charge_partitioned_epoch()
        metrics.get_registry().counter(
            "iterations_total", schedule="full_graph"
        ).inc(1)
        metrics.get_registry().counter(
            "phase_seconds_total", phase="train"
        ).inc(train_t)
        return float(loss.data), train_t

    def _charge_partitioned_epoch(self) -> float:
        """Charge the 1.5D layer schedule onto the simulated streams.

        Per layer and rank: broadcast the other block-rows' feature
        shards in (forward), SpMM + dense update over the local block-row,
        reduce partial outputs across the ``c`` replicas; the backward
        repeats the pattern with the transposed operands (2x dense work,
        reversed comm).  Weight gradients then sync through the plan's
        grad-sync engine.  Returns rank 0's summed compute seconds.
        """
        t = self.trainer
        node = t.node
        streams = node.streams
        store = t.store
        p = node.num_gpus
        c = self.replication
        group = p // c
        rank_rows = [int(n) for n in store.partition.counts]
        rank_edges = store.edges_per_rank
        sync = t.grad_sync
        widths = [store.feature_dim] + [
            getattr(conv, "out_features", t.model._width_hint())
            for conv in t.model.convs
        ]
        convs = t.model.convs
        num_layers = len(convs)
        total0 = 0.0
        for d in range(num_layers):
            # deepest-first application order: conv d consumes widths[d]
            f_in, f_out = widths[d], widths[d + 1]
            for r in range(p):
                comp = convs[d].estimate_cost(
                    rank_rows[r], store.num_nodes, rank_edges[r]
                )
                fwd_t = (
                    costmodel.dense_compute_time(comp["flops"])
                    + costmodel.sparse_compute_time(comp["sparse_bytes"])
                )
                bwd_t = (
                    costmodel.dense_compute_time(2 * comp["flops"])
                    + costmodel.sparse_compute_time(comp["sparse_bytes"])
                )
                # ring-relayed broadcast of the other block-rows' feature
                # shards; each replica ships 1/c of the slice
                shard = store.num_nodes / max(group, 1) * f_in * 4 / c
                bcast_t = costmodel.ring_broadcast_time(
                    shard, group, sync.bandwidth, sync.latency
                )
                reduce_t = 0.0
                if c > 1:
                    reduce_t = costmodel.chunked_ring_allreduce_time(
                        rank_rows[r] * f_out * 4, c,
                        sync.bandwidth, sync.latency,
                    )
                comm = streams.comm(r)
                compute = streams.compute(r)
                ev_b = comm.launch(
                    bcast_t, phase="broadcast", category="comm",
                    args={"layer": d, "bytes": shard, "group": group},
                )
                ev_f = compute.launch(
                    fwd_t, deps=[ev_b], phase="train", category="compute",
                    wait_phase="broadcast_wait", wait_category="comm",
                    args={"layer": d, "direction": "fwd"},
                )
                deps = [ev_f]
                if reduce_t:
                    deps = [comm.launch(
                        reduce_t, deps=deps, phase="reduce",
                        category="comm", args={"layer": d, "c": c},
                    )]
                # backward: gradient broadcast mirrors the forward pattern
                ev_gb = comm.launch(
                    bcast_t, deps=deps, phase="broadcast", category="comm",
                    args={"layer": d, "direction": "grad"},
                )
                compute.launch(
                    bwd_t, deps=[ev_gb], phase="train",
                    category="compute",
                    wait_phase="broadcast_wait", wait_category="comm",
                    args={"layer": d, "direction": "bwd"},
                )
                if reduce_t:
                    comm.launch(
                        reduce_t, phase="reduce", category="comm",
                        args={"layer": d, "c": c, "direction": "grad"},
                    )
                if r == 0:
                    total0 += fwd_t + bwd_t
        node.sync()
        # layer-weight gradients all-reduce through the plan's grad-sync
        # engine (same bucketed pricing as every other plan)
        sync.charge(
            producers=[(node.gpu_clock[0].now, total0)],
            phase="allreduce",
        )
        opt_t = costmodel.elementwise_time(
            sum(p_.data.nbytes for p_ in t.model.parameters()) * 8
        )
        for r in range(p):
            streams.compute(r).launch(
                opt_t, phase="optimizer", category="compute",
            )
        node.sync()
        return total0 + opt_t
