"""The WholeGraph training iteration (paper Fig. 1 reworked onto GPUs).

One iteration on one GPU rank:

1. **sample** — multi-layer GPU neighbor sampling + AppendUnique over the
   multi-GPU graph store (all on-device, peer reads over NVLink);
2. **gather** — one global-gather kernel pulls the input frontier's
   features out of the distributed shared memory;
3. **train** — forward, backward, gradient all-reduce, optimizer step.

Each phase advances the rank's simulated clock under its phase label;
Fig. 9/11/12 are read off the resulting timeline.

:func:`sample_and_gather` and :func:`train_batch` are the two halves.  A
*task* object supplies what differs between the trained tasks: the epoch's
batches and their seed rows, a batch's input features, the loss head and
the update after the dense optimizers step.  :class:`NodeClassification`
(the paper's task) is here; link prediction is
:class:`~repro.train.trainer.LinkPrediction`.  Every data-parallel
schedule — sequential, double-buffered, out-of-core streaming, true DDP
and the cluster — runs both tasks through
:class:`~repro.train.streaming.StreamingLoader` and
:func:`~repro.train.streaming.train_step`.  The bucketed gradient-sync
planner below serves every schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.ops.neighbor_sampler import SampledSubgraph
from repro.sim import join
from repro.telemetry import metrics


class NodeClassification:
    """Node classification: batches of shuffled train nodes, the store's
    features as inputs, cross-entropy against the node labels."""

    #: a cluster gives each machine node its own batches and streams
    replicated = False
    #: the trainer method that scores the trained model
    metric = "evaluate"

    def __repr__(self) -> str:
        return "NodeClassification()"

    def model_dims(self, trainer) -> tuple[int, int]:
        """The model's input and output widths."""
        return trainer.store.feature_dim, trainer.store.num_classes

    def replica_state(self, trainer, node) -> tuple[None, None]:
        """A replica's embedding table and sparse optimizer: none."""
        return None, None

    def batches(self, trainer, count: int | None) -> list[np.ndarray]:
        """The epoch's first ``count`` (``None``: all) batches of shuffled
        train nodes."""
        order = trainer.epoch_rng.permutation(trainer.store.train_nodes)
        size = trainer.batch_size
        nb = max(1, order.shape[0] // size)
        return [order[i * size : (i + 1) * size] for i in range(nb)][:count]

    def seeds(self, batch: np.ndarray) -> np.ndarray:
        """The rows a batch samples from: its nodes."""
        return batch

    def inputs(self, replica, rows: np.ndarray, rank: int) -> Tensor:
        """``rows``' stored features, gathered on ``rank``."""
        return Tensor(replica.store.gather_features(rows, rank))

    def loss(self, replica, out: Tensor, batch: np.ndarray) -> Tensor:
        """Cross-entropy of the logits against the batch's labels."""
        return F.cross_entropy(out, replica.store.labels[batch])

    def update(self, replicas) -> None:
        """Nothing trains beyond the dense parameters."""

    def report(self, trainer) -> tuple[dict, dict]:
        """The run manifest's config keys and extra sections: none."""
        return {}, {}


#: the node-classification task (stateless, so one object serves all)
NODE_CLASSIFICATION = NodeClassification()


def sample_and_gather(
    replica, seeds: np.ndarray, rank: int, rng: np.random.Generator, task,
) -> tuple[SampledSubgraph, Tensor, float, float]:
    """The data-preparation half of an iteration on ``rank``.

    Samples ``seeds`` with the replica's sampler, then reads the frontier's
    input features through ``task``.  Returns ``(subgraph, input features,
    sample time, gather time)``; both phases advance ``rank``'s clock under
    ``sample`` and ``gather``.
    """
    clock = replica.node.gpu_clock[rank]
    t0 = clock.now
    subgraph = replica.sampler.sample(seeds, rank, rng)
    t1 = clock.now
    x = task.inputs(replica, subgraph.input_nodes, rank)
    t2 = clock.now
    reg = metrics.get_registry()
    reg.counter("phase_seconds_total", phase="sample").inc(t1 - t0)
    reg.counter("phase_seconds_total", phase="gather").inc(t2 - t1)
    return subgraph, x, t1 - t0, t2 - t1


def train_batch(
    replica, subgraph: SampledSubgraph, x: Tensor, batch, task
) -> Tensor:
    """The compute half: the replica model's forward, the task's loss and
    the backward pass; returns the loss tensor, which holds only the scalar
    loss: the backward has freed the graph behind it.

    Purely functional — charges no clocks and steps no optimizer; callers
    account the simulated train time themselves.  Dropout draws from the
    replica's ``model_rng``.
    """
    model = replica.model
    loss = task.loss(replica, model(subgraph, x, replica.model_rng), batch)
    model.zero_grad()
    loss.backward()
    return loss


def book_train(entry, ops: dict[str, float]) -> float:
    """Book a ledger entry's seconds per op into
    ``train_seconds_total{layer, pass, op}`` (``layer="all"`` for the
    optimizer) and their sum, which it returns, into the train phase."""
    reg = metrics.get_registry()
    labels = {
        "layer": "all" if entry.layer is None else str(entry.layer),
        "pass": entry.kind,
    }
    for op, t in ops.items():
        reg.counter("train_seconds_total", op=op, **labels).inc(t)
    seconds = sum(ops.values())
    reg.counter("phase_seconds_total", phase="train").inc(seconds)
    return seconds


# ---------------------------------------------------------------------------
# Bucketed gradient-synchronisation overlap engine (paper §III-D)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradSyncPlan:
    """Comm-stream schedule of one bucketed gradient synchronisation.

    All times are seconds relative to the *sync point*: the instant the
    slowest producing rank finishes its backward pass.  Bucket ``j``'s
    all-reduce occupies ``(starts[j], ends[j])`` on the (serial) comm
    stream; starts are <= 0 when the launch was hidden behind backward.
    """

    bucket_nbytes: tuple[int, ...]
    bucket_times: tuple[float, ...]
    starts: tuple[float, ...] = field(default=())
    ends: tuple[float, ...] = field(default=())
    exposed: float = 0.0

    @property
    def num_buckets(self) -> int:
        return len(self.bucket_nbytes)

    @property
    def total_comm(self) -> float:
        """Comm-stream busy time of the whole synchronisation."""
        return float(sum(self.bucket_times))

    @property
    def hidden(self) -> float:
        """Comm time overlapped with (hidden behind) backward compute."""
        return self.total_comm - self.exposed


def plan_grad_sync(
    bucket_nbytes: list[int] | tuple[int, ...],
    bucket_times: list[float] | tuple[float, ...],
    producers: list[tuple[float, list[float]]] | None = None,
) -> GradSyncPlan:
    """Schedule one bucketed all-reduce against the backward pass.

    ``producers`` lists the replicas producing gradients, each as
    ``(end, offsets)``: the time (<= 0) of that replica's backward end
    relative to the sync point, and each bucket's ready offset from that
    end (<= 0; from the cost ledger's backward entries,
    :meth:`~repro.train.grad_sync.GradSyncModel.plan`).  Bucket ``j`` can
    launch once *every* replica has it ready, at ``max(end + offsets[j])``.
    The comm stream is serial: bucket ``j`` starts at ``max(ready_j,
    end_{j-1})``.  ``exposed`` is the schedule tail past the sync point —
    with no producers (or zero offsets) everything is exposed, which is
    exactly the flat/non-overlapped baseline.
    """
    k = len(bucket_nbytes)
    if k == 0:
        return GradSyncPlan((), ())
    if len(bucket_times) != k:
        raise ValueError("bucket_nbytes and bucket_times length mismatch")
    if not producers:
        producers = [(0.0, [0.0] * k)]
    # the serial comm stream, in sync-point-relative time: each bucket
    # starts behind its readiness floor and the previous bucket's end
    starts: list[float] = []
    ends: list[float] = []
    cursor = -float("inf")
    for j in range(k):
        ready = max(end + offsets[j] for end, offsets in producers)
        start = max(ready, cursor)
        cursor = start + bucket_times[j]
        starts.append(start)
        ends.append(cursor)
    return GradSyncPlan(
        bucket_nbytes=tuple(int(b) for b in bucket_nbytes),
        bucket_times=tuple(float(t) for t in bucket_times),
        starts=tuple(starts),
        ends=tuple(ends),
        exposed=max(0.0, cursor),
    )


def charge_grad_sync(nodes: list, plan: GradSyncPlan) -> float:
    """Stamp a :class:`GradSyncPlan` onto the simulated clocks.

    The compute streams of every GPU of ``nodes`` first
    :func:`~repro.sim.join` — the collective's entry barrier, recorded as
    the distinct non-busy ``allreduce_wait`` — then each launches the
    plan's *exposed* tail as ``allreduce`` behind the barrier event: the hidden
    portion already ran under the backward compute that the producing
    clocks charged.  The full bucket-by-bucket schedule is committed onto
    each node's ``<gpu0>/nccl`` comm-stream lane so the overlap is visible
    in the Chrome trace.  Returns the sync-point time.
    """
    compute = [n.streams.compute(r) for n in nodes for r in range(n.num_gpus)]
    barrier = join(compute, phase="allreduce_wait", category="comm")
    sync_point = barrier.time
    span_args = {
        "buckets": plan.num_buckets,
        "total_comm_us": round(plan.total_comm / 1e-6, 3),
        "hidden_us": round(plan.hidden / 1e-6, 3),
    }
    if plan.exposed > 0.0:
        for stream in compute:
            stream.launch(plan.exposed, deps=[barrier], phase="allreduce",
                          category="comm", args=span_args)
    for n in nodes:
        lane = n.streams.comm(0)
        for j in range(plan.num_buckets):
            start = sync_point + plan.starts[j]
            end = sync_point + plan.ends[j]
            if end <= start:
                continue
            # per-bucket exposed/hidden split in plan-relative time: the
            # portion of (starts[j], ends[j]) past the sync point is exposed
            exposed_j = max(0.0, plan.ends[j]) - max(0.0, plan.starts[j])
            lane.record(
                max(0.0, start), max(0.0, end),
                phase="allreduce_bucket", category="comm",
                args={"bucket": j, "nbytes": plan.bucket_nbytes[j],
                      "hidden": plan.ends[j] <= 0.0,
                      "exposed_s": exposed_j,
                      "hidden_s": plan.bucket_times[j] - exposed_j},
            )
    reg = metrics.get_registry()
    reg.counter("phase_seconds_total", phase="allreduce").inc(plan.exposed)
    reg.counter("grad_sync_comm_seconds_total").inc(plan.total_comm)
    reg.counter("grad_sync_exposed_seconds_total").inc(plan.exposed)
    reg.counter("grad_sync_hidden_seconds_total").inc(plan.hidden)
    for nbytes in plan.bucket_nbytes:
        reg.histogram("grad_bucket_bytes").observe(float(nbytes))
    return sync_point
