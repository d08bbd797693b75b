"""Data-parallel gradient synchronisation (paper §III-D).

WholeGraph trains data-parallel with Apex DDP: every GPU computes on its
own mini-batch, gradients are bucketed in *reverse parameter order* (the
order backward produces them), and each bucket's ring all-reduce launches as
soon as its last gradient is ready — overlapping communication with the
still-running backward pass.  When each gradient is ready comes from the
step's per-layer cost ledger
(:meth:`~repro.nn.models.StepCosts.ready_offsets`).  All replicas then
step identically.

:func:`average_gradients` is the one functional average every replica set
uses (:meth:`~repro.train.plans.ParallelismPlan.sync_gradients`);
:class:`GradSyncModel` prices the bucketed schedule on the simulated clocks;
:func:`charge_allreduce` remains the legacy flat, non-overlapped charge.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.hardware import costmodel
from repro.hardware.machine import SimNode
from repro.train.pipeline import GradSyncPlan, charge_grad_sync, plan_grad_sync


def average_gradients(models: list, trained: list) -> None:
    """Give every model in ``models`` the mean gradient of ``trained``.

    The mean sums the float32 gradients in float64, divides by the number
    of trained models and rounds once to float32, for every count.  A
    ``None`` gradient counts as zero.  A model outside ``trained`` (one that
    sat the round out) keeps its stale gradient out of the mean but receives
    the mean, so it steps like the others.  One model averages nothing.
    """
    if len(models) < 2:
        return
    everyone = list(zip(*(m.parameters() for m in models)))
    for group, out in zip(zip(*(m.parameters() for m in trained)), everyone):
        acc = np.zeros(group[0].data.shape, dtype=np.float64)
        for p in group:
            if p.grad is not None:
                acc += p.grad
        mean = (acc / len(group)).astype(np.float32)
        for p in out:
            p.grad = mean.copy()


def assign_buckets(
    param_nbytes: list[int], bucket_cap_mb: float
) -> list[tuple[int, ...]]:
    """Greedy reverse-parameter-order bucket assignment (Apex/DDP rule).

    Backward produces gradients roughly from the last parameter to the
    first, so walking ``parameters()`` in reverse and cutting a new bucket
    whenever the running size would exceed the cap yields buckets that
    become ready in list order during backward.  A non-positive cap puts
    everything in one bucket — the flat baseline.  Returns tuples of
    parameter indices (into the forward ``parameters()`` order).
    """
    if bucket_cap_mb <= 0:
        cap = float("inf")
    else:
        cap = float(bucket_cap_mb) * config.MB
    buckets: list[tuple[int, ...]] = []
    cur: list[int] = []
    cur_bytes = 0
    for idx in reversed(range(len(param_nbytes))):
        nb = int(param_nbytes[idx])
        if cur and cur_bytes + nb > cap:
            buckets.append(tuple(cur))
            cur, cur_bytes = [], 0
        cur.append(idx)
        cur_bytes += nb
    if cur:
        buckets.append(tuple(cur))
    return buckets


class GradSyncModel:
    """Prices one bucketed, backward-overlapped gradient synchronisation.

    Owns the bucket layout for a parameter list and the per-bucket ring
    all-reduce costs (intra-node chunked ring; plus a hierarchical
    inter-node ring over the 1/num_gpus shards when ``nodes`` spans
    machines).  :meth:`charge` stamps one synchronisation onto the clocks:
    barrier to the max clock, then only the schedule's *exposed* tail.
    """

    def __init__(
        self,
        nodes: SimNode | list[SimNode],
        param_nbytes: list[int],
        bucket_cap_mb: float | None = None,
        overlap: bool = True,
    ):
        self.nodes = list(nodes) if isinstance(nodes, (list, tuple)) else [nodes]
        self.bucket_cap_mb = (
            config.DDP_BUCKET_CAP_MB if bucket_cap_mb is None
            else float(bucket_cap_mb)
        )
        self.overlap = bool(overlap)
        self.param_nbytes = [int(n) for n in param_nbytes]
        self.bandwidth = config.NVLINK_UNIDIR_BW * config.NCCL_BW_EFFICIENCY
        self.latency = config.P2P_BASE_LATENCY
        self.buckets = assign_buckets(self.param_nbytes, self.bucket_cap_mb)
        self.bucket_nbytes = [
            sum(self.param_nbytes[i] for i in b) for b in self.buckets
        ]
        self.bucket_times = [self.bucket_time(b) for b in self.bucket_nbytes]

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)

    def bucket_time(self, nbytes: int) -> float:
        """Comm-stream duration of one bucket's (hierarchical) all-reduce."""
        node = self.nodes[0]
        t = costmodel.chunked_ring_allreduce_time(
            nbytes, node.num_gpus, self.bandwidth, self.latency
        )
        num_machines = len(self.nodes)
        if num_machines > 1:
            # hierarchical: after the intra-node reduce-scatter each GPU
            # owns a 1/num_gpus shard, which rides the inter-node IB ring
            t += costmodel.chunked_ring_allreduce_time(
                nbytes / max(node.num_gpus, 1),
                num_machines,
                config.INTER_NODE_BW,
                config.INTER_NODE_LATENCY,
            )
        return t

    def plan(
        self, producers: list[tuple[float, list[float]]] | None = None
    ) -> GradSyncPlan:
        """Schedule one sync; ``producers`` pair each replica's backward
        end, relative to the sync point, with its per-parameter ready
        offsets from that end (:meth:`~repro.nn.models.StepCosts.ready_offsets`).
        A bucket is ready when its last-produced parameter is."""
        return plan_grad_sync(
            self.bucket_nbytes, self.bucket_times, self._per_bucket(producers)
        )

    def _per_bucket(self, producers):
        """``producers`` with per-parameter offsets turned per-bucket."""
        if not producers:
            return None
        return [
            (end, [max(offsets[i] for i in b) for b in self.buckets])
            for end, offsets in producers
        ]

    def charge(
        self, producers: list[tuple[float, list[float]]]
    ) -> GradSyncPlan:
        """Charge one gradient synchronisation to all clocks.

        ``producers`` lists the replicas that ran backward as ``(clock_now,
        ready_offsets)``: the absolute time of each backward end and the
        offsets of :meth:`plan`.  With ``overlap`` off every bucket waits for
        the sync point and the whole transfer is exposed — the flat
        schedule.
        """
        clocks = [c for n in self.nodes for c in n.gpu_clock]
        sync_point = max(c.now for c in clocks)
        rel = None
        if self.overlap and producers:
            rel = [(now - sync_point, offsets) for now, offsets in producers]
        slowdown = max(
            (n.fault_injector.link_slowdown(sync_point, n.node_id)
             for n in self.nodes if n.fault_injector is not None),
            default=1.0,
        )
        times = self.bucket_times
        if slowdown > 1.0:
            # degraded fabric at the sync point stretches every bucket ring
            times = [t * slowdown for t in times]
        plan = plan_grad_sync(self.bucket_nbytes, times, self._per_bucket(rel))
        charge_grad_sync(self.nodes, plan)
        return plan


def charge_allreduce(node: SimNode, grad_nbytes: int,
                     phase: str = "train") -> float:
    """Charge a flat, non-overlapped gradient all-reduce to every GPU clock.

    Proper collective semantics: skewed ranks first align to the max clock
    (the ``allreduce_wait`` barrier stall), then all pay the transfer
    together.  Returns the transfer duration.
    """
    t = costmodel.allreduce_time(
        grad_nbytes, node.num_gpus,
        config.NVLINK_UNIDIR_BW, config.P2P_BASE_LATENCY,
    )
    target = max(c.now for c in node.gpu_clock)
    for clock in node.gpu_clock:
        clock.wait_until(target, phase="allreduce_wait", category="comm")
        clock.advance(t, phase=phase)
    return t
