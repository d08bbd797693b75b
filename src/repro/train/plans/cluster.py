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
nodes 1..N-1 by re-sharding the store onto fresh nodes.  Link prediction is
*replicated* instead of round-robin: every machine node scores the same
pair batch with the single-node streams, each round is one iteration, and
the run is bitwise the single-node one
(``test_single_node_vs_cluster_bit_identity`` in
``tests/test_sparse_embedding.py``).  The plan owns
their replicas, the grad-sync engine over all of them, the round-robin
epoch and both recovery policies (elastic shrink over the surviving
machines, or checkpoint restart into every replica).  The replicas stay
bit-identical (:meth:`~repro.train.plans.base.ParallelismPlan.assert_in_sync`),
and the per-node clocks show the near-linear epoch-time reduction of
Fig. 13.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.faults import RankFailureError
from repro.hardware import SimNode
from repro.ops.neighbor_sampler import NeighborSampler
from repro.train.plans.base import ParallelismPlan, Replica
from repro.train.streaming import StreamingLoader
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

    def bind(self, trainer) -> None:
        """Build machine nodes 1..N-1 and the grad sync over all of them.

        Node classification gives machine node *i* its own sampling and
        dropout streams.  A replicated task (link prediction) gives every
        machine the single-node streams instead: all machines process the
        same batch, so they consume them identically and stay in lock-step
        with a single-node run.
        """
        self.trainer = trainer
        t = trainer
        if t.compute_ranks != "one" or t.streaming:
            raise ValueError(
                "the cluster plan runs the symmetric sequential or "
                "overlap schedule on every machine node"
            )
        replicated = t._task.replicated
        replicas = self.replicas  # node 0: the trainer's own
        for i in range(1, self.num_machine_nodes):
            store = t.store.rebuild_on(SimNode(t.node.spec, node_id=i))
            model, optimizer = self._clone_model(i)
            embedding, sparse_optimizer = t._task.replica_state(t, store.node)
            replicas.append(Replica(
                store, NeighborSampler(store, t.sampler.fanouts),
                model, optimizer,
                sample_rng=spawn_rng(t.seed, "rank", 0 if replicated else i),
                model_rng=t.rngs.named(
                    "dropout" if replicated else f"cluster-dropout-{i}"
                ),
                embedding=embedding, sparse_optimizer=sparse_optimizer,
            ))
        self._adopt(replicas)

    def _adopt(self, replicas) -> None:
        """Keep ``replicas``, point the trainer at machine node 0's, and
        bucket the grad sync over every machine node."""
        t = self.trainer
        self._replicas = replicas
        r0 = replicas[0]
        t.node, t.store, t.sampler = r0.node, r0.store, r0.sampler
        t.model, t.optimizer = r0.model, r0.optimizer
        t.embedding, t.sparse_optimizer = r0.embedding, r0.sparse_optimizer
        t.grad_sync = self._build_grad_sync(self.nodes)

    def report_config(self) -> dict:
        """Plan name plus the live machine-node count."""
        return {"plan": self.name, "num_machine_nodes": self.num_machine_nodes}

    # -- epoch loop --------------------------------------------------------

    def train_epoch(self, max_iterations):
        """One epoch; every round trains one batch per machine node, and
        the nodes process them concurrently (per-node clocks advance in
        parallel).  ``max_iterations`` counts rounds."""
        t = self.trainer
        per_round = 1 if t._task.replicated else self.num_machine_nodes
        count = None if max_iterations is None else max_iterations * per_round
        return self.run_epoch(
            t._task.batches(t, count), self._round_robin_steps
        )

    def _round_robin_steps(self, batches, times):
        """Train ``batches`` one per machine node per round; yields each
        round's losses.  Machine node 0's phase seconds go to ``times``.

        A replicated task trains each batch on every machine node and
        yields the round's mean loss, one iteration.  Otherwise batches go
        round-robin: a last round with fewer batches than machine nodes
        trains only the first ones, and the others stall at the collective
        barrier and step with the trained replicas' average gradient.
        """
        t = self.trainer
        replicated = t._task.replicated
        loaders = [
            StreamingLoader(r, prefetch_depth=int(t.overlap), task=t._task)
            for r in self.replicas
        ]
        loaders[0].times = times
        k = len(loaders)
        if replicated:
            rounds = [[batch] * k for batch in batches]
        else:
            rounds = [batches[s : s + k] for s in range(0, len(batches), k)]
        for i, todo in enumerate(rounds):
            # node j's next batch prefetches while this one trains (with
            # overlap on)
            ahead = rounds[i + 1] if i + 1 < len(rounds) else []
            losses = self._train_round(
                loaders, todo, [iter(ahead[j : j + 1]) for j in range(k)]
            )
            yield [float(np.mean(losses))] if replicated else losses

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
        keep = [r for r in self.replicas if r.node.node_id not in dead]
        if not keep:
            raise exc  # no surviving replica to continue with
        self._charge_recovery(
            [r.node for r in keep],
            lambda node: (
                config.FAULT_DETECT_SECONDS + config.COMM_REINIT_SECONDS
            ),
        )
        self.num_machine_nodes = len(keep)
        self._adopt(keep)
        if t.fault_injector is not None:
            t.fault_injector.install(self.nodes)
