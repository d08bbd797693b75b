"""The batch loader and training step behind every symmetric schedule.

The paper's iteration (§III-D, Fig. 1) is one loop — sample, gather,
train — and the schedules differ only in how far ahead of the trained batch
the loader runs.  :class:`StreamingLoader` keeps a queue of up to
``prefetch_depth`` prepared batches; :func:`train_step` takes the oldest,
tops the queue up, trains, and launches the train op on every compute
stream:

- **depth 0 — sequential.**  Nothing is staged ahead: each step fetches its
  own batch inline (:func:`~repro.train.pipeline.sample_and_gather` on the
  rank's clock) and then trains.
- **in-core store, depth >= 1 — double buffering.**  The prefetch of batch
  *i+1* runs on the rank's clock (the copy engine shares the GPU timeline)
  while batch *i* trains, so the train op only exposes
  ``max(0, train - prefetch)``: the steady state is
  ``max(train_i, sample_{i+1} + gather_{i+1})`` per iteration.
- **tiered store, depth >= 1 — out-of-core streaming.**  When features
  spill below HBM (``tier="tiered"``), every gather pays the zero-copy PCIe
  hop and, for cold rows, the disk staging chain.  A **dedicated host
  stream** carries those transfers: each prefetched batch is sampled on
  the compute stream, its frontier split into HBM-cached hits and tier
  rows, and the tier fetch launched on the host stream with the
  :meth:`~repro.dsm.tiered_tensor.TieredTensor.fetch_time` duration.  The
  **consume** op — reading the staged rows plus cache hits out of HBM —
  launches on the compute streams *depending on the fetch event*, so the
  scheduler charges only the dependency stall (a non-busy
  ``host_fetch_wait`` span).  The host stream is FIFO, so in-flight
  transfers serialise like a real copy engine.  Exposed/hidden seconds
  land in the ``host_fetch_*_seconds_total`` ledgers.

Under every schedule the other ranks are charged rank 0's sample and
gather durations on their compute streams (the SPMD-symmetric
approximation).  The functional math never changes: sampling and dropout
draw from separate streams, each consumed in batch order, so losses and
trained weights are bit-identical across schedules at equal seeds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import config
from repro.hardware import costmodel
from repro.ops.neighbor_sampler import NeighborSampler, SampledSubgraph
from repro.telemetry import metrics
from repro.train import pipeline
from repro.train.metrics import PhaseTimes

__all__ = ["StreamingLoader", "train_step"]


@dataclass
class _StagedBatch:
    """One prepared batch: sampled subgraph, features, tier fetch state."""

    subgraph: SampledSubgraph
    features: np.ndarray
    #: host-stream completion event of the tier fetch (``None`` in-core)
    event: object = None
    #: host-stream transfer duration (the full fetch, hidden or not)
    fetch_time: float = 0.0
    #: tier fetch span args (rows / bytes / host_bytes / disk_bytes)
    fetch_args: dict | None = None
    #: rows served from the rank's HBM cache (no host transfer needed)
    cache_hits: int = 0


class StreamingLoader:
    """Depth-``prefetch_depth`` batch queue over one store/sampler pair.

    The trainer calls :meth:`prefetch` to stage batches ahead and
    :meth:`take` for the current one (or lets :func:`train_step` do both).
    ``times`` accumulates the rank's sample/gather/train seconds of every
    batch this loader handled; a caller may point it at its own
    :class:`~repro.train.metrics.PhaseTimes` to keep one running total
    across loaders.
    """

    def __init__(
        self,
        store,
        sampler: NeighborSampler,
        rank: int = 0,
        prefetch_depth: int | None = None,
    ):
        if prefetch_depth is None:
            prefetch_depth = config.PREFETCH_DEPTH
        if prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        #: prefetches ride the host stream (tiered store, staged ahead)
        self.streams_host = store.tier == "tiered" and prefetch_depth > 0
        cache = store.feature_cache
        if self.streams_host and cache is not None and cache.policy != "static":
            raise ValueError(
                "streaming prefetch plans against a stable cache hit set; "
                "use the static cache policy (or no cache)"
            )
        self.store = store
        self.sampler = sampler
        self.rank = rank
        self.node = store.node
        self.tensor = store.feature_tensor
        self.cache = cache
        self.prefetch_depth = int(prefetch_depth)
        self._queue: deque[_StagedBatch] = deque()
        self.times = PhaseTimes()

    @property
    def in_flight(self) -> int:
        return len(self._queue)

    @property
    def schedule(self) -> str:
        """The ``iterations_total`` label of a step off this loader."""
        if self.streams_host:
            return "streaming"
        return "pipelined" if self.prefetch_depth else "sequential"

    def _split_cached(self, rows: np.ndarray) -> tuple[int, np.ndarray]:
        """``(cache hits, rows needing a tier fetch)`` for the frontier."""
        if self.cache is None or rows.size == 0:
            return 0, rows
        st = self.cache._ranks[self.rank]
        hit = st.slot_of[rows] >= 0
        return int(np.count_nonzero(hit)), rows[~hit]

    def prefetch(
        self, seeds: np.ndarray, rng: np.random.Generator
    ) -> PhaseTimes:
        """Sample ``seeds`` and stage its features.

        Returns the sample/gather seconds charged on the rank's clock.
        In-core (or at depth 0) both phases run there.  On the host stream
        only the sample does: the tier transfer is launched on the host
        stream and read back by :meth:`take`.
        """
        if len(self._queue) >= max(self.prefetch_depth, 1):
            raise RuntimeError(
                f"prefetch queue full ({len(self._queue)} in flight) — "
                "take() a batch first"
            )
        if not self.streams_host:
            sg, x_np, t_sample, t_gather = pipeline.sample_and_gather(
                self.store, self.sampler, seeds, self.rank, rng
            )
            for r in range(self.node.num_gpus):
                if r != self.rank:
                    stream = self.node.streams.compute(r)
                    stream.launch(t_sample, phase="sample")
                    stream.launch(t_gather, phase="gather")
            fetched = PhaseTimes(sample=t_sample, gather=t_gather)
            self.times += fetched
            self._queue.append(_StagedBatch(sg, x_np))
            return fetched

        node = self.node
        clock = node.gpu_clock[self.rank]
        t0 = clock.now
        sg = self.sampler.sample(seeds, self.rank, rng)
        t_sample = clock.now - t0
        for r in range(node.num_gpus):
            if r != self.rank:
                node.streams.compute(r).launch(t_sample, phase="sample")

        rows = sg.input_nodes
        x_np = self.tensor.gather_no_cost(rows)
        cache_hits, fetch_rows = self._split_cached(rows)
        t_fetch, fargs = self.tensor.fetch_time(fetch_rows)
        injector = node.fault_injector
        if injector is not None:
            t_fetch = injector.scale_gather_time(
                t_fetch, 1.0, node.host_clock.now, node.node_id
            )
            injector.charge_gather_retries(
                node.host_clock, phase="gather_retry", node_id=node.node_id
            )
        event = node.streams.host().launch(
            t_fetch, phase="host_fetch", category="gather", args=dict(fargs)
        )
        self.tensor._account(fargs, t_fetch, event.time)

        metrics.get_registry().counter(
            "phase_seconds_total", phase="sample"
        ).inc(t_sample)
        fetched = PhaseTimes(sample=t_sample)
        self.times += fetched
        self._queue.append(
            _StagedBatch(
                subgraph=sg, features=x_np, event=event,
                fetch_time=t_fetch, fetch_args=fargs, cache_hits=cache_hits,
            )
        )
        return fetched

    def take(self) -> tuple[SampledSubgraph, np.ndarray]:
        """Pop the oldest staged ``(subgraph, features)`` for training.

        On the host stream this launches the HBM read of the staged rows
        (plus cache hits) on every compute stream behind the fetch event —
        if the transfer is still in flight, the dependency stall lands as a
        non-busy ``host_fetch_wait`` span: the *exposed* portion of the
        host transfer, and nothing more.
        """
        if not self._queue:
            raise RuntimeError("nothing staged — call prefetch() first")
        staged = self._queue.popleft()
        if self.streams_host:
            self._consume(staged)
        return staged.subgraph, staged.features

    def _consume(self, staged: _StagedBatch) -> None:
        """Charge the HBM read of a host-staged batch and its ledgers."""
        node = self.node
        tensor = self.tensor
        rows = staged.subgraph.input_nodes
        nbytes = int(rows.size * tensor.row_bytes)
        t_consume = costmodel.cached_gather_time(
            nbytes, 0.0, tensor.row_bytes
        )
        stall = max(
            0.0, staged.event.time - node.gpu_clock[self.rank].now
        )
        # the ledger decomposes each transfer exactly: a stall longer than
        # the transfer itself (queueing behind earlier fetches) is capped —
        # the excess is still on the timeline as the host_fetch_wait span
        exposed = min(stall, staged.fetch_time)
        hidden = staged.fetch_time - exposed
        span_args = {
            "rows": int(rows.size),
            "bytes": nbytes,
            "cache_hits": staged.cache_hits,
            "staged": True,
            "fetch_s": staged.fetch_time,
            "exposed_s": exposed,
            "stall_s": stall,
            "tensor": tensor.tag,
        }
        for r in range(node.num_gpus):
            node.streams.compute(r).launch(
                t_consume, deps=(staged.event,), phase="gather",
                category="gather", wait_phase="host_fetch_wait",
                args=span_args,
            )

        tensor.stats["staged_bytes"] += int(staged.fetch_args["bytes"])
        now = node.gpu_clock[self.rank].now
        reg = metrics.get_registry()
        reg.counter("phase_seconds_total", phase="gather").inc(t_consume)
        # the staged read is a local HBM gather; the PCIe/disk bytes were
        # booked when the fetch launched (TieredTensor._account)
        reg.counter("gather_link_bytes_total", link="hbm").inc(nbytes, t=now)
        reg.counter("host_fetch_seconds_total").inc(staged.fetch_time)
        reg.counter("host_fetch_exposed_seconds_total").inc(exposed)
        reg.counter("host_fetch_hidden_seconds_total").inc(hidden)
        if self.cache is not None:
            misses = rows.size - staged.cache_hits
            hit_bytes = staged.cache_hits * tensor.row_bytes
            st = self.cache._ranks[self.rank].stats
            st["gather_calls"] += 1
            st["hits"] += staged.cache_hits
            st["misses"] += misses
            st["hit_bytes"] += hit_bytes
            st["miss_bytes"] += misses * tensor.row_bytes
            st["remote_bytes_saved"] += hit_bytes
            st["gather_time"] += t_consume
            reg.counter("cache_requests_total").inc(rows.size)
            reg.counter("cache_hits_total").inc(staged.cache_hits)
            reg.counter("cache_misses_total").inc(misses)
            reg.counter("cache_remote_bytes_saved_total").inc(hit_bytes)
            total = (
                reg.total("cache_hits_total")
                + reg.total("cache_misses_total")
            )
            reg.gauge("cache_hit_rate").set(
                reg.total("cache_hits_total") / total if total else 0.0,
                t=now,
            )
        self.times += PhaseTimes(gather=t_consume)


def train_step(
    loader: StreamingLoader,
    seeds: np.ndarray,
    upcoming,
    rng: np.random.Generator,
    model,
    model_rng: np.random.Generator,
    optimizer=None,
    train_time_factor: float = 1.0,
) -> tuple[float, float]:
    """Train ``seeds`` off ``loader``; returns ``(loss, train seconds)``.

    Fetches ``seeds`` first if nothing is staged (the sequential schedule
    and a pipeline prologue), takes the staged batch, tops the queue up to
    ``prefetch_depth`` from the ``upcoming`` seed iterator, then runs the
    forward/backward (and ``optimizer`` step, if given).  The train op goes
    on every compute stream as ``max(0.0, train - overlapped)``, where
    ``overlapped`` is the in-core prefetch launched during this step.  The
    caller charges the gradient sync.
    """
    node = loader.node
    clock = node.gpu_clock[loader.rank]
    t0 = clock.now
    fetched = loader.prefetch(seeds, rng) if not loader.in_flight else None
    sg, x_np = loader.take()
    overlapped = 0.0
    while loader.in_flight < loader.prefetch_depth:
        nxt = next(upcoming, None)
        if nxt is None:
            break
        ahead = loader.prefetch(nxt, rng)
        if not loader.streams_host:
            overlapped += ahead.sample + ahead.gather
    loss, _ = pipeline.train_batch(
        model, sg, x_np, loader.store.labels[seeds],
        rng=model_rng, optimizer=optimizer, compute_grads=True,
    )
    train_t = model.estimate_train_time(sg) * train_time_factor
    exposed = max(0.0, train_t - overlapped)
    schedule = loader.schedule
    args = {"edges": sg.total_edges(),
            "input_nodes": int(sg.input_nodes.shape[0])}
    if schedule == "pipelined":
        args.update(train_time=train_t, hidden_by_prefetch=train_t - exposed)
    streams = node.streams
    streams.compute(loader.rank).launch(
        exposed, phase="train", category="compute", args=args,
    )
    if schedule == "sequential":
        # the sequential step books its train time as the rank's clock
        # time net of its inline fetch: ``train_t`` up to rounding, and the
        # float the golden manifests were recorded with
        train_t = exposed = clock.now - t0 - fetched.sample - fetched.gather
    for r in range(node.num_gpus):
        if r != loader.rank:
            streams.compute(r).launch(
                exposed, phase="train", category="compute", args=args,
            )
    reg = metrics.get_registry()
    reg.counter("iterations_total", schedule=schedule).inc(1)
    reg.counter("phase_seconds_total", phase="train").inc(train_t)
    if schedule == "pipelined":
        reg.counter("overlap_hidden_seconds_total").inc(train_t - exposed)
    loader.times += PhaseTimes(train=train_t)
    return loss, train_t
