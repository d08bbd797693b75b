"""Global feature gather: shared-memory vs distributed-memory (paper Fig. 4).

Every GPU holds a random list of node IDs whose feature rows live across all
GPUs and must end up locally, in input order.

**Shared-memory implementation** (WholeGraph): one gather kernel per GPU;
NVLink/NVSwitch moves the bytes with no software staging — a thin wrapper
over :meth:`WholeTensor.gather`.

**Distributed-memory implementation** (the NCCL baseline of Fig. 4 left,
measured in Fig. 10) runs five software steps:

1. *bucket* the node IDs by home GPU (one pass over the IDs);
2. exchange per-pair counts, then *alltoallv* the bucketed IDs;
3. every GPU performs a *local gather* for all requesters;
4. *alltoallv* the gathered feature rows back;
5. *reorder* the received rows into input order.

Both produce identical results; the trace records per-step simulated time so
the Fig. 10 latency/bandwidth comparison can be regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dsm.comm import Communicator
from repro.dsm.whole_tensor import WholeTensor
from repro.hardware import costmodel
from repro.telemetry import metrics


def shared_memory_gather(
    tensor: WholeTensor, per_rank_rows: list[np.ndarray], phase: str = "gather"
) -> tuple[list[np.ndarray], float]:
    """All ranks gather concurrently with one kernel each.

    Returns ``(per-rank results, elapsed)`` where ``elapsed`` is the
    simulated wall time of the concurrent gather (max over ranks).
    """
    node = tensor.node
    node.sync()
    t0 = node.gpu_clock[0].now
    results = [
        tensor.gather(rows, rank, phase=phase)
        for rank, rows in enumerate(per_rank_rows)
    ]
    t1 = node.sync()
    return results, t1 - t0


@dataclass
class DistributedGatherTrace:
    """Per-step simulated timings of the 5-step NCCL-style gather."""

    step_times: dict[str, float] = field(default_factory=dict)
    total_time: float = 0.0
    #: mean payload bytes of the feature alltoallv (step 4) per rank,
    #: summed from the *actual* reply rows each requester received — for the
    #: Fig. 10 "NCCL bandwidth measured on the final alltoallv" bar
    step4_bytes_per_rank: float = 0.0
    #: the subset of those bytes that really crossed NVLink (home != requester)
    step4_remote_bytes_per_rank: float = 0.0

    def step4_bus_bw(self, num_ranks: int) -> float:
        """BusBW of the feature alltoallv alone (what Fig. 10 reports)."""
        t = self.step_times.get("alltoallv_features", 0.0)
        if t <= 0:
            return 0.0
        if self.step4_remote_bytes_per_rank > 0:
            return self.step4_remote_bytes_per_rank / t
        # fall back to the uniform-ownership estimate when the actual remote
        # payload was not recorded
        remote = self.step4_bytes_per_rank * (num_ranks - 1) / num_ranks
        return remote / t


def distributed_memory_gather(
    tensor: WholeTensor,
    per_rank_rows: list[np.ndarray],
    comm: Communicator,
    phase: str = "gather_nccl",
) -> tuple[list[np.ndarray], DistributedGatherTrace]:
    """The explicit-communication gather of Fig. 4 (left side)."""
    node = tensor.node
    nr = node.num_gpus
    if len(per_rank_rows) != nr:
        raise ValueError("need one row list per rank")
    trace = DistributedGatherTrace()
    node.sync()
    t_start = node.gpu_clock[0].now

    def step_mark() -> float:
        return node.sync()

    # ---- step 1: bucket node IDs by home GPU -------------------------------
    buckets: list[list[np.ndarray]] = []  # [requester][home] -> local rows
    orders: list[list[np.ndarray]] = []  # positions for the final reorder
    for rank, rows in enumerate(per_rank_rows):
        rows = np.asarray(rows, dtype=np.int64)
        owners, local = tensor._owners_and_local(rows)
        # single stable sort by owner replaces one boolean-mask pass per
        # rank: positions sorted by home give the reorder indices, and the
        # per-home counts give the split points
        order = np.argsort(owners, kind="stable")
        splits = np.cumsum(np.bincount(owners, minlength=nr))[:-1]
        buckets.append(np.split(local[order], splits))
        orders.append(np.split(order, splits))
        # one pass over the IDs: read id, compute owner, write to bucket
        node.gpu_clock[rank].advance(
            costmodel.elementwise_time(rows.nbytes * 2), phase=phase,
            args={"step": "bucket_ids", "rows": int(rows.size),
                  "bytes": int(rows.nbytes)},
        )
    t1 = step_mark()
    trace.step_times["bucket_ids"] = t1 - t_start

    # ---- step 2: exchange counts, then alltoallv the IDs --------------------
    counts = [[b.size for b in row] for row in buckets]
    comm.allgather(counts, phase=phase, nbytes_each=8 * nr)
    id_requests = comm.alltoallv(
        [[b.astype(np.int64) for b in row] for row in buckets], phase=phase
    )  # id_requests[home][requester]
    t2 = step_mark()
    trace.step_times["alltoallv_ids"] = t2 - t1

    # ---- step 3: local gather on every home GPU ------------------------------
    # per-(home, requester) request-row counts — the split points of every
    # fused gather below and the payload matrix of the step-4 accounting
    req_counts = np.array(
        [[id_requests[home][requester].size for requester in range(nr)]
         for home in range(nr)],
        dtype=np.int64,
    )
    replies: list[list[np.ndarray]] = []
    for home in range(nr):
        part = tensor.local_part(home)
        # one fused gather over all requesters' rows, split per requester
        fused = part[np.concatenate(id_requests[home])]
        replies.append(np.split(fused, np.cumsum(req_counts[home])[:-1]))
        node.gpu_clock[home].advance(
            costmodel.gather_time(
                int(req_counts[home].sum()) * tensor.row_bytes,
                tensor.row_bytes,
                num_gpus=1,  # purely local HBM reads
            ),
            phase=phase, category="gather",
            args={"step": "local_gather",
                  "rows": int(req_counts[home].sum()),
                  "bytes": int(req_counts[home].sum() * tensor.row_bytes)},
        )
    t3 = step_mark()
    trace.step_times["local_gather"] = t3 - t2

    # ---- step 4: alltoallv the features back ----------------------------------
    feature_replies = comm.alltoallv(replies, phase=phase)
    # feature_replies[requester][home]
    injector = node.fault_injector
    if injector is not None:
        # the reply leg is where transient loss bites: each requester whose
        # reply went missing stalls for timeout+backoff before the re-issue
        for requester in range(nr):
            injector.charge_gather_retries(
                node.gpu_clock[requester], node.node_id
            )
    t4 = step_mark()
    trace.step_times["alltoallv_features"] = t4 - t3
    # sum the actual reply payloads each requester received (requests can be
    # uneven across ranks, so this is not the mean of *requested* rows).
    # ``req_counts[home][requester]`` rows of ``row_bytes`` each came back on
    # the transposed leg, so the payload matrix is one outer product — the
    # byte counts are integer-exact in float64, identical to summing the
    # per-array ``.nbytes`` in a Python loop.
    payload = req_counts.T.astype(np.float64) * float(tensor.row_bytes)
    reply_bytes = payload.sum(axis=1)
    remote_reply_bytes = reply_bytes - np.diag(payload)
    trace.step4_bytes_per_rank = float(reply_bytes.mean())
    trace.step4_remote_bytes_per_rank = float(remote_reply_bytes.mean())

    # ---- step 5: local reorder into input order --------------------------------
    results = []
    for rank, rows in enumerate(per_rank_rows):
        rows = np.asarray(rows, dtype=np.int64)
        out = np.empty((rows.size, tensor.num_cols), dtype=tensor.dtype)
        # the per-home reply blocks are already in bucketed (home-major)
        # order, and the per-home position lists concatenate back to the
        # full bucketing permutation — one fancy-index assignment replaces
        # the per-home scatter loop
        if rows.size:
            out[np.concatenate(orders[rank])] = np.concatenate(
                feature_replies[rank], axis=0
            )
        results.append(out)
        node.gpu_clock[rank].advance(
            costmodel.elementwise_time(out.nbytes * 2), phase=phase,
            args={"step": "reorder", "rows": int(rows.size),
                  "bytes": int(out.nbytes)},
        )
    t5 = step_mark()
    trace.step_times["reorder"] = t5 - t4
    trace.total_time = t5 - t_start

    reg = metrics.get_registry()
    for step, dt in trace.step_times.items():
        reg.counter("nccl_gather_step_seconds_total", step=step).inc(dt)
    reg.counter("nccl_gather_bytes_total", payload="features").inc(
        trace.step4_bytes_per_rank * nr
    )
    reg.counter("nccl_gather_bytes_total", payload="features_remote").inc(
        trace.step4_remote_bytes_per_rank * nr
    )
    return results, trace
