"""The batch loader and training step behind every data-parallel schedule.

The paper's iteration (§III-D, Fig. 1) is one loop — sample, gather,
train — and the schedules differ only in how far ahead of the trained batch
the loader runs.  :class:`StreamingLoader` keeps a queue of up to
``prefetch_depth`` prepared batches; :func:`train_step` takes the oldest,
tops the queue up, trains, and launches the step's per-layer forward and
backward entries (:meth:`~repro.nn.models._BlockModel.step_costs`) on the
compute stream of every rank the loader's replica stands for:

- **depth 0 — sequential.**  Nothing is staged ahead: each step fetches its
  own batch inline (:func:`~repro.train.pipeline.sample_and_gather` on the
  rank's clock) and then trains.
- **in-core store, depth >= 1 — double buffering.**  The prefetch of batch
  *i+1* runs on the rank's clock (the copy engine shares the GPU timeline)
  while batch *i* trains, so the train entries only expose
  ``max(0, fwd + bwd - prefetch)``: the steady state is
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

The loader's task (:class:`~repro.train.pipeline.NodeClassification` by
default, or :class:`~repro.train.trainer.LinkPrediction`) names each
batch's seed rows, reads its input features and scores the forward pass;
link prediction runs at depth 0 only.  Under every schedule the replica's
other ranks are charged its computing rank's sample and gather durations on
their compute streams (the SPMD-symmetric approximation).  A true-DDP
replica stands for one rank, so its loader charges that rank alone.  The
functional math never changes: sampling and dropout draw from separate
streams, each consumed in batch order, so losses and trained weights are
bit-identical across schedules at equal seeds
(``test_overlap_bit_identical_and_faster`` in
``tests/test_pipeline_overlap.py``,
``test_streaming_loss_and_weights_bit_identical`` in
``tests/test_streaming_tiered.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import config
from repro.hardware import costmodel
from repro.nn.models import StepCosts, block_shapes
from repro.nn.tensor import Tensor
from repro.ops.neighbor_sampler import SampledSubgraph
from repro.telemetry import metrics
from repro.train import pipeline
from repro.train.metrics import PhaseTimes

__all__ = ["StreamingLoader", "launch_train", "train_step"]


@dataclass
class _StagedBatch:
    """One prepared batch: sampled subgraph, features, tier fetch state."""

    subgraph: SampledSubgraph
    features: Tensor
    #: host-stream completion event of the tier fetch (``None`` in-core)
    event: object = None
    #: host-stream transfer duration (the full fetch, hidden or not)
    fetch_time: float = 0.0
    #: tier fetch span args (rows / bytes / host_bytes / disk_bytes)
    fetch_args: dict | None = None
    #: rows served from the rank's HBM cache (no host transfer needed)
    cache_hits: int = 0


class StreamingLoader:
    """Depth-``prefetch_depth`` batch queue over one replica's store/sampler.

    The loader charges the ranks the
    :class:`~repro.train.plans.base.Replica` stands for: it computes on the
    first and mirrors the durations onto the rest.  ``task`` names each
    batch's seed rows and reads its input features.  The trainer calls
    :meth:`prefetch` to stage batches ahead and :meth:`take` for the current
    one (or lets :func:`train_step` do both).  ``times`` accumulates the
    computing rank's sample/gather/train seconds of every batch this loader
    handled; a caller may point it at its own
    :class:`~repro.train.metrics.PhaseTimes` to keep one running total
    across loaders.
    """

    def __init__(self, replica, prefetch_depth: int | None = None,
                 task=pipeline.NODE_CLASSIFICATION):
        store = replica.store
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
        self.replica = replica
        self.task = task
        self.store = store
        self.sampler = replica.sampler
        #: the ranks charged: the computing rank, then its mirrors
        self.ranks = replica.ranks
        self.rank = replica.ranks[0]
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
        hit = self.cache.hit_mask(rows, self.rank)
        return int(np.count_nonzero(hit)), rows[~hit]

    def prefetch(self, batch, rng: np.random.Generator) -> PhaseTimes:
        """Sample ``batch``'s seed rows and stage its features.

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
        seeds = self.task.seeds(batch)
        if not self.streams_host:
            sg, x, t_sample, t_gather = pipeline.sample_and_gather(
                self.replica, seeds, self.rank, rng, self.task
            )
            for r in self.ranks[1:]:
                stream = self.node.streams.compute(r)
                stream.launch(t_sample, phase="sample")
                stream.launch(t_gather, phase="gather")
            fetched = PhaseTimes(sample=t_sample, gather=t_gather)
            self.times += fetched
            self._queue.append(_StagedBatch(sg, x))
            return fetched

        node = self.node
        clock = node.gpu_clock[self.rank]
        t0 = clock.now
        sg = self.sampler.sample(seeds, self.rank, rng)
        t_sample = clock.now - t0
        for r in self.ranks[1:]:
            node.streams.compute(r).launch(t_sample, phase="sample")

        rows = sg.input_nodes
        x = Tensor(self.tensor.gather_no_cost(rows))
        cache_hits, fetch_rows = self._split_cached(rows)
        t_fetch, fargs = self.tensor.fetch_time(fetch_rows)
        injector = node.fault_injector
        if injector is not None:
            t_fetch = injector.faulted_gather_time(
                t_fetch, 1.0, node.host_clock, node.node_id
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
                subgraph=sg, features=x, event=event,
                fetch_time=t_fetch, fetch_args=fargs, cache_hits=cache_hits,
            )
        )
        return fetched

    def take(self) -> tuple[SampledSubgraph, Tensor]:
        """Pop the oldest staged ``(subgraph, features)`` for training.

        On the host stream this launches the HBM read of the staged rows
        (plus cache hits) on the replica's compute streams behind the fetch
        event — if the transfer is still in flight, the dependency stall
        lands as a non-busy ``host_fetch_wait`` span: the *exposed* portion
        of the host transfer, and nothing more.
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
        for r in self.ranks:
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
            self.cache.book(
                self.rank, int(rows.size), staged.cache_hits,
                staged.cache_hits * tensor.row_bytes, t_consume, now,
            )
        self.times += PhaseTimes(gather=t_consume)


def train_step(
    loader: StreamingLoader, batch, upcoming, layer_cost_factor: float,
) -> tuple[Tensor, StepCosts]:
    """Train ``batch`` on the loader's replica; returns ``(loss tensor,
    the step's cost ledger)``.

    Fetches ``batch`` first if nothing is staged (the sequential schedule
    and a pipeline prologue), takes the staged batch, tops the queue up to
    ``prefetch_depth`` from the ``upcoming`` batch iterator, then runs the
    replica model's forward, the loader task's loss and the backward pass.
    Sampling draws from the replica's ``sample_rng`` and dropout from its
    ``model_rng``.  The ledger's forward and backward entries, priced with
    ``layer_cost_factor``, go on the replica's compute streams
    (:func:`launch_train`), with the in-core prefetch launched during this
    step as their credit.  The caller averages the gradients, charges their
    sync, steps the optimizers and launches the optimizer entry.
    """
    replica = loader.replica
    rng = replica.sample_rng
    if not loader.in_flight:
        loader.prefetch(batch, rng)
    sg, x = loader.take()
    overlapped = 0.0
    while loader.in_flight < loader.prefetch_depth:
        nxt = next(upcoming, None)
        if nxt is None:
            break
        ahead = loader.prefetch(nxt, rng)
        if not loader.streams_host:
            overlapped += ahead.sample + ahead.gather
    loss = pipeline.train_batch(replica, sg, x, batch, loader.task)
    costs = replica.model.step_costs(block_shapes(sg))
    hidden = launch_train(
        loader, costs.compute_entries(), layer_cost_factor, overlapped
    )
    schedule = loader.schedule
    reg = metrics.get_registry()
    reg.counter("iterations_total", schedule=schedule).inc(1)
    if schedule == "pipelined":
        reg.counter("overlap_hidden_seconds_total").inc(hidden)
    return loss, costs


def launch_train(
    loader: StreamingLoader, entries, scale: float, credit: float,
) -> float:
    """Launch ledger ``entries``, priced with ``scale``, in order as
    ``train`` spans on the loader's ranks; returns the seconds ``credit``
    hid.

    The prefetch ``credit`` hides the entries' leading seconds, so they
    expose ``max(0, total - credit)``.  Each entry is booked
    (:func:`~repro.train.pipeline.book_train`) and its span's args name its
    layer, pass and op seconds.
    """
    streams = loader.node.streams
    hidden = total = 0.0
    for entry in entries:
        ops = entry.op_seconds(scale)
        t = pipeline.book_train(entry, ops)
        exposed = max(0.0, t - credit)
        credit = max(0.0, credit - t)
        args = {"layer": entry.layer, "pass": entry.kind}
        args.update((f"{op}_s", v) for op, v in ops.items())
        for r in loader.ranks:
            streams.compute(r).launch(
                exposed, phase="train", category="compute", args=args,
            )
        hidden += t - exposed
        total += t
    loader.times += PhaseTimes(train=total)
    return hidden
