"""Data-parallel gradient synchronisation (paper §III-D).

WholeGraph trains data-parallel with Apex DistributedDataParallel: every GPU
computes on its own mini-batch, gradients are bucketed in *reverse parameter
order* (the order backward produces them), and each bucket's ring all-reduce
launches as soon as its last gradient is ready — overlapping communication
with the still-running backward pass.  All replicas then step identically.

:class:`DistributedDataParallel` reproduces that over our communicator for
*real* multi-replica training, with preallocated flat per-bucket gradient
storage (no per-step concatenation);  :class:`GradSyncModel` prices the same
bucketed schedule on the simulated clocks and is what the symmetric
single-replica harness and the multi-node cluster plan charge;
:func:`charge_allreduce` remains the legacy flat, non-overlapped charge.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.dsm.comm import Communicator
from repro.hardware import costmodel
from repro.hardware.machine import SimNode
from repro.nn.module import Module
from repro.train.pipeline import GradSyncPlan, charge_grad_sync, plan_grad_sync


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
        bandwidth: float | None = None,
        latency: float | None = None,
    ):
        self.nodes = list(nodes) if isinstance(nodes, (list, tuple)) else [nodes]
        node = self.nodes[0]
        self.bucket_cap_mb = (
            config.DDP_BUCKET_CAP_MB if bucket_cap_mb is None
            else float(bucket_cap_mb)
        )
        self.overlap = bool(overlap)
        self.param_nbytes = [int(n) for n in param_nbytes]
        self.bandwidth = (
            bandwidth if bandwidth is not None
            else node.spec.nvlink.bandwidth * config.NCCL_BW_EFFICIENCY
        )
        self.latency = (
            latency if latency is not None else node.spec.nvlink.latency
        )
        self.buckets = assign_buckets(self.param_nbytes, self.bucket_cap_mb)
        self.bucket_nbytes = [
            sum(self.param_nbytes[i] for i in b) for b in self.buckets
        ]
        self.bucket_times = [self.bucket_time(b) for b in self.bucket_nbytes]

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)

    @property
    def total_nbytes(self) -> int:
        return sum(self.bucket_nbytes)

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
        self, producers: list[tuple[float, float]] | None = None
    ) -> GradSyncPlan:
        """Schedule one sync; ``producers`` are (end_offset, window) pairs."""
        return plan_grad_sync(self.bucket_nbytes, self.bucket_times, producers)

    def charge(
        self,
        producers: list[tuple[float, float]] | None = None,
        phase: str = "allreduce",
    ) -> GradSyncPlan:
        """Charge one gradient synchronisation to all clocks.

        ``producers`` lists the replicas that ran backward, as
        ``(clock_now, train_seconds)`` pairs in *absolute* simulated time;
        the backward window is ``train_seconds * TRAIN_BACKWARD_FRACTION``.
        With ``overlap`` off (or no producers) every bucket waits for the
        sync point and the whole transfer is exposed — the flat schedule.
        """
        clocks = [c for n in self.nodes for c in n.gpu_clock]
        sync_point = max(c.now for c in clocks)
        rel: list[tuple[float, float]] | None = None
        if self.overlap and producers:
            rel = [
                (now - sync_point,
                 max(0.0, t) * config.TRAIN_BACKWARD_FRACTION)
                for now, t in producers
            ]
        slowdown = max(
            (n.fault_injector.link_slowdown(sync_point, n.node_id)
             for n in self.nodes if n.fault_injector is not None),
            default=1.0,
        )
        if slowdown > 1.0:
            # degraded fabric at the sync point stretches every bucket ring
            times = [t * slowdown for t in self.bucket_times]
            plan = plan_grad_sync(self.bucket_nbytes, times, rel)
        else:
            plan = self.plan(rel)
        charge_grad_sync(self.nodes, plan, phase=phase)
        return plan


class DistributedDataParallel:
    """Keeps N model replicas in lock-step via bucketed gradient all-reduce.

    Gradients live in preallocated flat per-bucket buffers with
    per-parameter views — sync copies each ``p.grad`` into its view once
    and re-points ``p.grad`` at the view, so no per-step ``np.concatenate``
    ever runs.  The numerical reduction (float64 sum across replicas, cast
    to float32, divide by N) is applied per element exactly as the flat
    path applies it, so bucketing is bit-identical to a single flat buffer.
    """

    def __init__(
        self,
        replicas: list[Module],
        comm: Communicator,
        bucket_cap_mb: float | None = None,
        overlap_grad_sync: bool = False,
    ):
        if len(replicas) != comm.num_ranks:
            raise ValueError("need one replica per communicator rank")
        self.replicas = replicas
        self.comm = comm
        params0 = replicas[0].parameters()
        shapes = [tuple(p.data.shape) for p in params0]
        for r in replicas[1:]:
            if [tuple(p.data.shape) for p in r.parameters()] != shapes:
                raise ValueError("replica parameter shapes differ")
        # broadcast replica 0's weights so training starts in sync
        state = replicas[0].state_dict()
        for r in replicas[1:]:
            r.load_state_dict(state)

        self.sync_model = GradSyncModel(
            comm.node,
            [p.data.size * p.data.itemsize for p in params0],
            bucket_cap_mb=bucket_cap_mb,
            overlap=overlap_grad_sync,
            bandwidth=comm.bandwidth,
            latency=comm.latency,
        )
        # preallocated flat gradient storage: one float32 buffer per
        # (replica, bucket), carved into per-parameter views
        self._bucket_elems = [
            sum(params0[i].data.size for i in b)
            for b in self.sync_model.buckets
        ]
        self._flat: list[list[np.ndarray]] = [
            [np.zeros(n, dtype=np.float32) for n in self._bucket_elems]
            for _ in replicas
        ]
        self._views: list[list[list[np.ndarray]]] = []
        for rep_idx, rep in enumerate(self.replicas):
            params = rep.parameters()
            rep_views: list[list[np.ndarray]] = []
            for b_idx, bucket in enumerate(self.sync_model.buckets):
                buf = self._flat[rep_idx][b_idx]
                views, offset = [], 0
                for p_idx in bucket:
                    size = params[p_idx].data.size
                    views.append(
                        buf[offset:offset + size].reshape(
                            params[p_idx].data.shape
                        )
                    )
                    offset += size
                rep_views.append(views)
            self._views.append(rep_views)

    @property
    def num_buckets(self) -> int:
        return self.sync_model.num_buckets

    def sync_gradients(
        self,
        phase: str = "allreduce",
        train_times: list[float] | None = None,
    ) -> GradSyncPlan:
        """Average gradients across replicas, bucket by bucket.

        ``train_times`` (one per rank, seconds of that rank's train phase)
        enables the backward-overlap schedule when the DDP was built with
        ``overlap_grad_sync=True``; without it the sync is charged flat at
        the barrier.  Returns the :class:`GradSyncPlan` that was charged.
        """
        n = float(len(self.replicas))
        all_params = [r.parameters() for r in self.replicas]
        for b_idx, bucket in enumerate(self.sync_model.buckets):
            # stage each replica's gradients into its flat bucket buffer
            for rep_idx, params in enumerate(all_params):
                for slot, p_idx in enumerate(bucket):
                    view = self._views[rep_idx][b_idx][slot]
                    grad = all_params[rep_idx][p_idx].grad
                    if grad is None:
                        view[...] = 0.0
                    else:
                        view[...] = grad
            # elementwise float64 sum -> float32 -> /N: identical to the
            # flat single-buffer reduction on every element
            total = self._flat[0][b_idx].astype(np.float64)
            for rep_idx in range(1, len(self.replicas)):
                total = total + self._flat[rep_idx][b_idx]
            reduced = total.astype(np.float32) / n
            for rep_idx, params in enumerate(all_params):
                self._flat[rep_idx][b_idx][...] = reduced
                for slot, p_idx in enumerate(bucket):
                    params[p_idx].grad = self._views[rep_idx][b_idx][slot]
        producers = None
        if train_times is not None:
            clocks = self.comm.node.gpu_clock
            producers = [
                (clocks[r].now, train_times[r])
                for r in range(len(train_times))
            ]
        return self.sync_model.charge(producers, phase=phase)

    def sync_gradients_flat(self, phase: str = "allreduce") -> None:
        """Legacy flat path: concatenate, one ring all-reduce, scatter back.

        Kept as the reference implementation the bucketed path must match
        bit-for-bit (and as the micro-benchmark baseline).
        """
        flats = []
        for r in self.replicas:
            params = r.parameters()
            grads = [
                p.grad if p.grad is not None else np.zeros_like(p.data)
                for p in params
            ]
            flats.append(
                np.concatenate([g.ravel() for g in grads]).astype(np.float32)
            )
        reduced = self.comm.allreduce(flats, phase=phase)
        n = float(len(self.replicas))
        for r, flat in zip(self.replicas, reduced):
            flat = flat / n
            offset = 0
            for p in r.parameters():
                size = p.data.size
                p.grad = flat[offset : offset + size].reshape(p.data.shape)
                offset += size

    def assert_in_sync(self) -> None:
        """Verify replicas hold bitwise identical weights (test hook)."""
        ref = self.replicas[0].state_dict()
        for i, r in enumerate(self.replicas[1:], start=1):
            for a, b in zip(ref, r.state_dict()):
                if not np.array_equal(a, b):
                    raise AssertionError(f"replica {i} diverged")


def allreduce_cost(node: SimNode, grad_nbytes: int) -> float:
    """Simulated duration of the intra-node gradient all-reduce."""
    return costmodel.allreduce_time(
        grad_nbytes,
        node.num_gpus,
        node.spec.nvlink.bandwidth,
        node.spec.nvlink.latency,
    )


def charge_allreduce(node: SimNode, grad_nbytes: int,
                     phase: str = "train") -> float:
    """Charge a flat, non-overlapped gradient all-reduce to every GPU clock.

    Proper collective semantics: skewed ranks first align to the max clock
    (the ``allreduce_wait`` barrier stall), then all pay the transfer
    together.  Returns the transfer duration.
    """
    t = allreduce_cost(node, grad_nbytes)
    target = max(c.now for c in node.gpu_clock)
    for clock in node.gpu_clock:
        clock.wait_until(target, phase="allreduce_wait", category="comm")
        clock.advance(t, phase=phase)
    return t
