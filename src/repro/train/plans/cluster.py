"""Data parallelism over several machine nodes (paper §III-D).

A multi-machine run is ``WholeGraphTrainer(store, model_name,
plan=ClusterDataParallelPlan(num_machine_nodes=N))``: every machine node is
a full :class:`~repro.hardware.machine.SimNode` holding its own replica of
the graph store ("each machine node holds one replica of the graph
structure and graph features"), iterations are distributed round-robin
across the nodes, each node computes its local gradients, a hierarchical
(NVLink-ring + InfiniBand-ring) all-reduce averages them, and every replica
steps identically — the Apex-DDP flow the paper describes.

The trainer's own node, store, sampler, model, optimizer and (link
prediction) embedding are machine node 0's; :meth:`bind` builds machine
nodes 1..N-1 by re-sharding the store onto fresh nodes.  The plan owns
their replicas, the grad-sync engine over all of them, the round-robin
epoch and both recovery policies (elastic shrink over the surviving
machines, or checkpoint restart into every replica).  The replicas stay
bit-identical (:meth:`assert_in_sync`), and the per-node clocks show the
near-linear epoch-time reduction of Fig. 13.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.faults import RankFailureError
from repro.hardware import SimNode
from repro.nn.optim import Adam
from repro.ops.neighbor_sampler import NeighborSampler
from repro.train.ddp import GradSyncModel
from repro.train.plans.base import MachineReplica, ParallelismPlan
from repro.train.streaming import StreamingLoader, train_step
from repro.utils.rng import spawn_rng


class ClusterDataParallelPlan(ParallelismPlan):
    """Data parallelism over machine nodes: one full replica per DGX."""

    name = "cluster_data_parallel"

    def __init__(self, num_machine_nodes: int):
        """``num_machine_nodes`` counts the trainer's own node (node 0)."""
        super().__init__()
        if num_machine_nodes < 1:
            raise ValueError("need at least one machine node")
        self.num_machine_nodes = int(num_machine_nodes)
        self._machines: list[MachineReplica] = []

    def bind(self, trainer) -> None:
        """Build machine nodes 1..N-1 and the grad sync over all of them.

        Node classification gives machine node *i* its own sampling and
        dropout streams.  Replicated link prediction gives every machine
        the single-node streams instead: all machines process the same pair
        batch, so they consume them identically and stay in lock-step with
        a single-node run.
        """
        self.trainer = trainer
        t = trainer
        if t.compute_ranks != "one" or t.streaming:
            raise ValueError(
                "the cluster plan runs the symmetric sequential or "
                "overlap schedule on every machine node"
            )
        linkpred = t.task == "linkpred"
        self._machines = super().machines  # node 0: the trainer's own
        state = t.model.state_dict()
        for i in range(1, self.num_machine_nodes):
            node = SimNode(t.node.spec, node_id=i)
            store = t.store.rebuild_on(node)
            model = t._build_model(t.rngs.named(f"replica{i}"))
            model.load_state_dict(state)  # the DDP weight broadcast
            machine = MachineReplica(
                node, store, NeighborSampler(store, t.sampler.fanouts),
                model, Adam(model.parameters(), lr=t.lr),
                sample_rng=spawn_rng(t.seed, "rank", 0 if linkpred else i),
                model_rng=t.rngs.named(
                    "dropout" if linkpred else f"cluster-dropout-{i}"
                ),
            )
            if linkpred:
                machine.embedding, machine.sparse_optimizer = (
                    t._build_embedding(node)
                )
            self._machines.append(machine)
        self._adopt_machines()

    def _adopt_machines(self) -> None:
        """Point the trainer at machine node 0; bucket the grad sync over
        every machine node."""
        t = self.trainer
        m0 = self._machines[0]
        t.node, t.store, t.sampler = m0.node, m0.store, m0.sampler
        t.model, t.optimizer = m0.model, m0.optimizer
        t.embedding, t.sparse_optimizer = m0.embedding, m0.sparse_optimizer
        t.replicas = [m.model for m in self._machines]
        t.optimizers = [m.optimizer for m in self._machines]
        t.ddp = None
        t.grad_sync = GradSyncModel(
            self.nodes,
            [p.data.nbytes for p in t.model.parameters()],
            bucket_cap_mb=t._bucket_cap_mb,
            overlap=t._overlap_grad_sync,
        )

    @property
    def machines(self) -> list[MachineReplica]:
        """Every live machine node's replica (node 0 first)."""
        return self._machines

    def report_config(self) -> dict:
        """Plan name plus the live machine-node count."""
        return {"plan": self.name, "num_machine_nodes": self.num_machine_nodes}

    def assert_in_sync(self) -> None:
        """Every machine node holds bitwise the same weights (and, for link
        prediction, the same embedding table) as machine node 0."""
        ref = self._machines[0]
        for i, m in enumerate(self._machines[1:], start=1):
            for a, b in zip(ref.model.state_dict(), m.model.state_dict()):
                if not np.array_equal(a, b):
                    raise AssertionError(f"machine node {i} diverged")
            if m.embedding is not None and not np.array_equal(
                m.embedding.state_dict(), ref.embedding.state_dict()
            ):
                raise AssertionError(f"machine node {i} embedding diverged")

    # -- epoch loop --------------------------------------------------------

    def train_epoch(self, max_iterations):
        """One epoch; global batches go round-robin over the machine nodes
        and are processed concurrently (per-node clocks advance in
        parallel).  ``max_iterations`` counts rounds of one batch per
        machine node."""
        batches = self.trainer._epoch_batches()
        if max_iterations is not None:
            batches = batches[: max_iterations * self.num_machine_nodes]
        return self.run_epoch(batches, self._round_robin_steps)

    def _round_robin_steps(self, batches, times):
        """Train ``batches`` one per machine node per step; yields each
        step's losses.  Machine node 0's phase seconds go to ``times``."""
        t = self.trainer
        machines = self._machines
        k = len(machines)
        loaders = [
            StreamingLoader(m.store, m.sampler, rank=0,
                            prefetch_depth=int(t.overlap))
            for m in machines
        ]
        loaders[0].times = times
        for start in range(0, len(batches), k):
            losses = []
            producers = []
            for i, (m, loader, seeds) in enumerate(
                zip(machines, loaders, batches[start : start + k])
            ):
                # node i's next round-robin batch prefetches while this one
                # trains (with overlap on)
                nxt = start + k + i
                loss, train_t = train_step(
                    loader, seeds, iter(batches[nxt : nxt + 1]),
                    m.sample_rng, m.model, m.model_rng,
                    train_time_factor=t.layer_cost_factor,
                )
                losses.append(loss)
                producers.append((m.node.gpu_clock[0].now, train_t))
            # global bucketed sync: nodes that got no batch this step
            # stall at the collective barrier
            self.sync_gradients(producers)
            for m in machines:
                m.optimizer.step()
            yield losses

    # -- fault recovery ----------------------------------------------------

    def _apply_recovery(self, exc, batches, cursor, losses):
        """Elastic shrink or checkpoint restart after a machine-node loss.

        ``batches`` pass through untranslated: every machine node holds a
        full replica of the store, so stored IDs survive a shrink.
        """
        if self.trainer.recovery_policy != "shrink":
            return super()._apply_recovery(exc, batches, cursor, losses)
        self._recover_shrink(exc)
        return batches, cursor, losses

    def _recover_shrink(self, exc: RankFailureError) -> None:
        """Drop the failed machine node(s); survivors continue in sync.

        Replicas are identical at every optimizer step, so no state moves —
        the survivors only pay failure detection and communicator re-init,
        and the gradient sync re-buckets over the remaining nodes.
        """
        t = self.trainer
        dead = {n for n, _ in exc.ranks}
        keep = [m for m in self._machines if m.node.node_id not in dead]
        if not keep:
            raise exc  # no surviving replica to continue with
        self._charge_recovery(
            [m.node for m in keep],
            lambda node: (
                config.FAULT_DETECT_SECONDS + config.COMM_REINIT_SECONDS
            ),
        )
        self._machines = keep
        self.num_machine_nodes = len(keep)
        self._adopt_machines()
        if t.fault_injector is not None:
            t.fault_injector.install(self.nodes)
