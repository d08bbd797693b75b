"""The WholeGraph training iteration (paper Fig. 1 reworked onto GPUs).

One iteration on one GPU rank:

1. **sample** — multi-layer GPU neighbor sampling + AppendUnique over the
   multi-GPU graph store (all on-device, peer reads over NVLink);
2. **gather** — one global-gather kernel pulls the input frontier's
   features out of the distributed shared memory;
3. **train** — forward, backward, gradient all-reduce, optimizer step.

Each phase advances the rank's simulated clock under its phase label;
Fig. 9/11/12 are read off the resulting timeline.

:func:`sample_and_gather` and :func:`train_batch` are the two halves;
:func:`run_iteration` runs them back-to-back on one rank (the true-DDP
path and the tests).  The symmetric schedules — sequential, double-buffered
and out-of-core streaming — all run through
:class:`~repro.train.streaming.StreamingLoader` and
:func:`~repro.train.streaming.train_step`.  The bucketed gradient-sync
planner below serves every schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.ops.neighbor_sampler import NeighborSampler, SampledSubgraph
from repro.sim import join
from repro.telemetry import metrics
from repro.train.metrics import PhaseTimes, accuracy


@dataclass
class IterationResult:
    """Everything one training iteration produced."""

    loss: float
    batch_accuracy: float
    times: PhaseTimes
    subgraph: SampledSubgraph
    num_input_nodes: int


def sample_and_gather(
    store,
    sampler: NeighborSampler,
    seeds: np.ndarray,
    rank: int,
    rng: np.random.Generator,
    sample_phase: str = "sample",
    gather_phase: str = "gather",
) -> tuple[SampledSubgraph, np.ndarray, float, float]:
    """The data-preparation half of an iteration on ``rank``.

    Returns ``(subgraph, gathered features, sample time, gather time)``;
    both phases advance ``rank``'s clock under their own labels.
    """
    clock = store.node.gpu_clock[rank]
    t0 = clock.now
    subgraph = sampler.sample(seeds, rank, rng, phase=sample_phase)
    t1 = clock.now
    x_np = store.gather_features(
        subgraph.input_nodes, rank, phase=gather_phase
    )
    t2 = clock.now
    reg = metrics.get_registry()
    reg.counter("phase_seconds_total", phase=sample_phase).inc(t1 - t0)
    reg.counter("phase_seconds_total", phase=gather_phase).inc(t2 - t1)
    return subgraph, x_np, t1 - t0, t2 - t1


def train_batch(
    model,
    subgraph: SampledSubgraph,
    x_np: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator | None = None,
    optimizer=None,
    compute_grads: bool | None = None,
) -> tuple[float, float]:
    """The compute half: forward (+ backward + step) on gathered features.

    Purely functional — charges no clocks; callers account the simulated
    train time themselves (sequentially via ``estimate_train_time`` or
    overlapped in the pipelined schedule).  Returns ``(loss, accuracy)``.
    """
    if compute_grads is None:
        compute_grads = optimizer is not None
    x = Tensor(x_np)
    logits = model(subgraph, x, rng if compute_grads else None)
    loss = F.cross_entropy(logits, labels)
    if compute_grads:
        model.zero_grad()
        loss.backward()
        if optimizer is not None:
            optimizer.step()
    return float(loss.data), accuracy(logits.data, labels)


def run_iteration(
    store,
    sampler: NeighborSampler,
    model,
    seeds: np.ndarray,
    rank: int,
    rng: np.random.Generator,
    optimizer=None,
    charge_train: bool = True,
    compute_grads: bool | None = None,
    train_time_factor: float = 1.0,
    model_rng: np.random.Generator | None = None,
) -> IterationResult:
    """Run one mini-batch iteration on ``rank`` (sequential schedule).

    ``optimizer`` given: backward + step.  ``compute_grads=True`` without an
    optimizer: backward only (the DDP path, which steps after the gradient
    all-reduce).  Neither: pure inference (evaluation path).  ``model_rng``
    gives dropout its own stream (defaults to ``rng`` — the legacy shared
    stream); the pipelined schedule relies on the split so both schedules
    consume each stream in the same order.  The returned phase times are the
    clock deltas this iteration added on ``rank``.
    """
    if compute_grads is None:
        compute_grads = optimizer is not None
    node = store.node
    clock = node.gpu_clock[rank]

    t0 = clock.now
    subgraph, x_np, t_sample, t_gather = sample_and_gather(
        store, sampler, seeds, rank, rng
    )
    labels = store.labels[seeds]
    loss, batch_acc = train_batch(
        model, subgraph, x_np, labels,
        rng=model_rng if model_rng is not None else rng,
        optimizer=optimizer, compute_grads=compute_grads,
    )
    if charge_train:
        clock.advance(
            model.estimate_train_time(subgraph) * train_time_factor,
            phase="train", category="compute",
            args={"edges": subgraph.total_edges(),
                  "input_nodes": int(subgraph.input_nodes.shape[0])},
        )
    t3 = clock.now
    reg = metrics.get_registry()
    reg.counter("iterations_total", schedule="sequential").inc(1)
    reg.counter("phase_seconds_total", phase="train").inc(
        t3 - t0 - t_sample - t_gather
    )

    return IterationResult(
        loss=loss,
        batch_accuracy=batch_acc,
        times=PhaseTimes(
            sample=t_sample, gather=t_gather,
            train=t3 - t0 - t_sample - t_gather,
        ),
        subgraph=subgraph,
        num_input_nodes=int(subgraph.input_nodes.shape[0]),
    )


# ---------------------------------------------------------------------------
# Bucketed gradient-synchronisation overlap engine (paper §III-D)
# ---------------------------------------------------------------------------
# Apex-style DDP launches one ring all-reduce per gradient *bucket*, as soon
# as the backward pass has produced the bucket's last gradient.  The comm
# stream therefore runs concurrently with the tail of backward compute; only
# whatever is still in flight when backward finishes is *exposed* on the
# iteration's critical path.  ``plan_grad_sync`` computes that schedule in
# time relative to the sync point (t=0 == the slowest rank's backward end);
# ``charge_grad_sync`` stamps it onto the simulated clocks and timeline.


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
    producers: list[tuple[float, float]] | None = None,
) -> GradSyncPlan:
    """Schedule one bucketed all-reduce against the backward window.

    ``producers`` lists the replicas producing gradients, each as
    ``(end_offset, window)``: the offset (<= 0) of that replica's backward
    end relative to the sync point, and the backward duration ``window``.
    Gradients are modelled as produced linearly across the window in bucket
    order (reverse parameter order), so bucket ``j`` — covering a cumulative
    byte fraction ``f_j`` of the model — is ready on a replica at
    ``end - window * (1 - f_j)``; the collective can launch once *every*
    replica has it ready.  The comm stream is serial: bucket ``j`` starts at
    ``max(ready_j, end_{j-1})``.  ``exposed`` is the schedule tail past the
    sync point — with no producers (or zero windows) everything is exposed,
    which is exactly the flat/non-overlapped baseline.
    """
    k = len(bucket_nbytes)
    if k == 0:
        return GradSyncPlan((), ())
    if len(bucket_times) != k:
        raise ValueError("bucket_nbytes and bucket_times length mismatch")
    if not producers:
        producers = [(0.0, 0.0)]
    total = float(sum(bucket_nbytes))
    # the serial comm stream, in sync-point-relative time: each bucket
    # starts behind its readiness floor and the previous bucket's end
    starts: list[float] = []
    ends: list[float] = []
    cursor = -float("inf")
    cum = 0.0
    for j in range(k):
        cum += bucket_nbytes[j]
        frac = cum / total if total > 0 else 1.0
        ready = max(end - w * (1.0 - frac) for end, w in producers)
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


def charge_grad_sync(
    nodes,
    plan: GradSyncPlan,
    phase: str = "allreduce",
    wait_phase: str = "allreduce_wait",
) -> float:
    """Stamp a :class:`GradSyncPlan` onto the simulated clocks.

    The compute streams of every GPU of ``nodes`` (one :class:`SimNode` or
    a list of them) first :func:`~repro.sim.join` — the collective's entry
    barrier, recorded as the distinct non-busy ``wait_phase`` — then each
    launches the plan's *exposed* tail behind the barrier event: the hidden
    portion already ran under the backward compute that the producing
    clocks charged.  The full bucket-by-bucket schedule is committed onto
    each node's ``<gpu0>/nccl`` comm-stream lane so the overlap is visible
    in the Chrome trace.  Returns the sync-point time.
    """
    node_list = nodes if isinstance(nodes, (list, tuple)) else [nodes]
    compute = [
        n.streams.compute(r)
        for n in node_list
        for r in range(n.num_gpus)
    ]
    barrier = join(compute, phase=wait_phase, category="comm")
    sync_point = barrier.time
    span_args = {
        "buckets": plan.num_buckets,
        "total_comm_us": round(plan.total_comm / 1e-6, 3),
        "hidden_us": round(plan.hidden / 1e-6, 3),
    }
    if plan.exposed > 0.0:
        for stream in compute:
            stream.launch(plan.exposed, deps=[barrier], phase=phase,
                          category="comm", args=span_args)
    for n in node_list:
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
    reg.counter("phase_seconds_total", phase=phase).inc(plan.exposed)
    reg.counter("grad_sync_comm_seconds_total").inc(plan.total_comm)
    reg.counter("grad_sync_exposed_seconds_total").inc(plan.exposed)
    reg.counter("grad_sync_hidden_seconds_total").inc(plan.hidden)
    for nbytes in plan.bucket_nbytes:
        reg.histogram("grad_bucket_bytes").observe(float(nbytes))
    return sync_point
