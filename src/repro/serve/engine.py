"""The sharded online inference engine.

This is the serving counterpart of :class:`~repro.train.trainer.WholeGraphTrainer`:
requests arrive on a simulated clock, are routed to a GPU *replica*, queued
through the dynamic micro-batcher, and each dispatched batch runs the real
data path — neighbor sampling over the sharded CSR, feature gather through
:class:`~repro.dsm.whole_tensor.WholeTensor` / the hot-row
:class:`~repro.dsm.feature_cache.FeatureCache`, and the frozen forward — so
every request charges genuine bytes-per-link and kernel costs to the
replica's :class:`~repro.hardware.clock.SimClock`.

Per-request latency is *completion minus arrival* on the simulated clock:
queueing delay (the micro-batcher's wait), then sampling, gather and forward
service time.  The engine reports exact p50/p90/p95/p99 over the run in a
:class:`~repro.serve.report.ServeReport`, streams queue-depth/occupancy/QPS
into the metrics registry, and draws each dispatched batch on a dedicated
``<gpu>/serve`` trace lane (the same synthetic-lane trick the grad-sync
overlap engine uses for its ``<gpu>/nccl`` lane).

Two serving modes:

- **model serving** (``model=`` a :class:`~repro.serve.model.FrozenModel`):
  sample an L-layer sub-graph per batch, gather the deepest frontier's
  features, run the frozen forward, answer with class predictions;
- **embedding lookup** (``model=None``): answer with the raw feature rows of
  the requested nodes — a pure sharded-gather workload, the lower bound of
  the latency story.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import config
from repro.graph.storage import MultiGpuGraphStore
from repro.nn.models import block_shapes
from repro.ops.neighbor_sampler import NeighborSampler
from repro.sim import Event
from repro.serve.batcher import MicroBatcher, Request
from repro.serve.model import FrozenModel
from repro.serve.report import ServeReport, latency_summary
from repro.telemetry import metrics
from repro.utils.rng import RngPool

#: routing policies: request index round-robin vs node-ID hash affinity
ROUTING_POLICIES = ("round_robin", "hash")
#: rolling windows of a serve run's analysis time series
SERVE_WINDOWS = 20


@dataclass
class ServeResult:
    """Everything one :meth:`InferenceEngine.serve` call produced.

    ``predictions[i]`` / ``latencies[i]`` / ``replica_of[i]`` align with
    ``requests[i]`` of the submitted list (``predictions`` is ``None`` in
    embedding-lookup mode).  ``report`` is the saved-to-disk artifact.
    """

    latencies: np.ndarray
    predictions: np.ndarray | None
    replica_of: np.ndarray
    report: ServeReport


class InferenceEngine:
    """Routes, batches and executes requests over the sharded store."""

    def __init__(
        self,
        store: MultiGpuGraphStore,
        model: FrozenModel | None = None,
        fanouts=None,
        batcher: MicroBatcher | None = None,
        replicas=None,
        routing: str = "round_robin",
        name: str = "serve",
    ):
        """Build a serving endpoint over ``store``.

        ``model`` enables full GNN inference (``fanouts`` defaults to
        ``[config.FANOUT] * model.num_layers`` and must match the model's
        layer count); ``model=None`` serves raw feature rows.  ``replicas``
        is the list of GPU ranks that serve (default: every GPU of the
        store's node).  ``routing`` is ``"round_robin"`` (load-balanced) or
        ``"hash"`` (node-ID affinity, cache-friendlier).  ``batcher``
        defaults to ``MicroBatcher()``'s knobs.
        """
        if routing not in ROUTING_POLICIES:
            raise ValueError(f"routing must be one of {ROUTING_POLICIES}")
        self.store = store
        self.node = store.node
        self.model = model
        if model is not None:
            if fanouts is None:
                fanouts = [config.FANOUT] * model.num_layers
            if len(fanouts) != model.num_layers:
                raise ValueError(
                    f"{len(fanouts)} fanouts for a "
                    f"{model.num_layers}-layer model"
                )
        self.fanouts = [int(f) for f in fanouts] if fanouts else None
        self.sampler = (
            NeighborSampler(store, self.fanouts, charge=True)
            if self.fanouts
            else None
        )
        self.batcher = batcher if batcher is not None else MicroBatcher()
        if replicas is None:
            replicas = list(range(self.node.num_gpus))
        if not replicas:
            raise ValueError("need at least one serving replica")
        self.replicas = [int(r) for r in replicas]
        self.routing = routing
        self.name = name
        #: stage-time stash of the most recent :meth:`_execute` call
        self._last_exec: dict = {}

    # -- routing ----------------------------------------------------------------

    def _route(self, order: np.ndarray, node_ids: np.ndarray) -> np.ndarray:
        """Replica *index* (into ``self.replicas``) per request, given the
        arrival-sorted request order."""
        n_rep = len(self.replicas)
        out = np.empty(order.shape[0], dtype=np.int64)
        if self.routing == "round_robin":
            # arrival-order round robin: consecutive requests hit
            # consecutive replicas regardless of submission order
            out[order] = np.arange(order.shape[0], dtype=np.int64) % n_rep
        else:  # hash affinity: a node always hits the same replica
            out = node_ids % n_rep
        return out

    # -- the serve loop ----------------------------------------------------------

    def serve(
        self, requests: list[Request], seed: int = 0, analysis: bool = False,
    ) -> ServeResult:
        """Serve a simulated request stream; returns the :class:`ServeResult`.

        Deterministic: the same requests, seed and engine configuration give
        a byte-identical scrubbed :class:`ServeReport`.  ``seed`` feeds the
        per-replica sampling RNG streams (unused in embedding mode).

        ``analysis=True`` additionally decomposes every request's latency
        into queue-wait / sample / gather / infer stages and attaches a
        ``latency_blame`` block (which stage owns the p99 tail) plus a
        rolling-window ``timeseries`` (QPS, queue depth, latency — the
        signals a replica autoscaler consumes) to the report.  Analysis is
        pure observation: it never charges a clock, so the schedule and all
        SLO numbers are bit-identical with it on or off.
        """
        if not requests:
            raise ValueError("empty request stream")
        reg = metrics.get_registry()
        node = self.node
        t0 = node.sync(phase="wait")

        arrival = np.array([r.arrival for r in requests], dtype=np.float64)
        node_ids = np.array([r.node_id for r in requests], dtype=np.int64)
        if np.any(arrival < 0):
            raise ValueError("request arrivals must be >= 0")
        # stable arrival order (ties broken by submission index)
        order = np.argsort(arrival, kind="stable")
        replica_idx = self._route(order, node_ids)

        pool = RngPool(int(seed), node.num_gpus)
        n = len(requests)
        latencies = np.zeros(n, dtype=np.float64)
        predictions = (
            np.zeros(n, dtype=np.int64) if self.model is not None else None
        )
        num_batches = 0
        occupancies: list[int] = []
        per_replica_rows = []
        last_completion = t0
        # per-request stage decomposition (analysis mode): every request in
        # a batch shares the batch's service-stage times, but owns its own
        # queueing delay (dispatch - arrival)
        stage_names = ("queue_wait", "sample", "gather", "infer", "other")
        stages = (
            {s: np.zeros(n, dtype=np.float64) for s in stage_names}
            if analysis else None
        )
        batch_rows: list[dict] = []
        completion_at = np.zeros(n, dtype=np.float64) if analysis else None

        for ri, rank in enumerate(self.replicas):
            mine = order[replica_idx[order] == ri]
            if mine.size == 0:
                per_replica_rows.append({
                    "rank": rank,
                    "device": node.gpu_memory[rank].device,
                    "requests": 0, "batches": 0,
                    "latency": latency_summary([]),
                })
                continue
            abs_arrival = t0 + arrival[mine]
            clock = node.gpu_clock[rank]
            stream = node.streams.compute(rank)
            serve_lane = node.streams.lane(rank, "serve")
            rng = pool.rank(rank)
            rep_batches = 0
            i = 0
            while i < mine.size:
                decision = self.batcher.next_batch(abs_arrival, i, clock.now)
                batch = mine[i:decision.last_index]
                # the batch-close deadline is an external event; the replica
                # stream launches the batch behind it, idling (the queueing
                # delay) until it fires
                close = Event.at(decision.close_time, label="batch_close")
                done = stream.launch(
                    lambda b=batch: self._execute(node_ids[b], rank, rng),
                    deps=[close],
                    wait_phase="serve_wait", wait_category="serve",
                    label="serve_batch",
                )
                completion = done.wait()
                dispatch = done.start
                preds = done.value
                exec_info = self._last_exec
                if predictions is not None and preds is not None:
                    predictions[batch] = preds
                latencies[batch] = completion - abs_arrival[
                    i:decision.last_index
                ]
                # the serve lane: one span per dispatched batch, carrying
                # the batch's payload sizes for Perfetto and the analyzer
                serve_lane.record(
                    dispatch, completion,
                    phase="serve_batch", category="serve",
                    args={"occupancy": int(decision.count),
                          "queue_depth": int(decision.queue_depth_after),
                          "rows": int(exec_info.get("rows", 0)),
                          "input_nodes": int(exec_info.get("input_nodes", 0))},
                )
                if analysis:
                    service = completion - dispatch
                    charged = (exec_info.get("sample", 0.0)
                               + exec_info.get("gather", 0.0)
                               + exec_info.get("infer", 0.0))
                    stages["queue_wait"][batch] = dispatch - abs_arrival[
                        i:decision.last_index
                    ]
                    stages["sample"][batch] = exec_info.get("sample", 0.0)
                    stages["gather"][batch] = exec_info.get("gather", 0.0)
                    stages["infer"][batch] = exec_info.get("infer", 0.0)
                    stages["other"][batch] = max(0.0, service - charged)
                    completion_at[batch] = completion
                    batch_rows.append({
                        "rank": rank,
                        "dispatch": float(dispatch),
                        "completion": float(completion),
                        "count": int(decision.count),
                        "queue_depth": int(decision.queue_depth_after),
                    })
                reg.counter("serve_requests_total").inc(decision.count)
                reg.counter("serve_batches_total").inc(1)
                reg.histogram("serve_batch_occupancy").observe(decision.count)
                reg.histogram("serve_latency_seconds").observe(
                    latencies[batch]
                )
                reg.gauge(
                    "serve_queue_depth", replica=str(rank)
                ).set(decision.queue_depth_after, t=dispatch)
                occupancies.append(int(decision.count))
                rep_batches += 1
                num_batches += 1
                i = decision.last_index
            last_completion = max(last_completion, clock.now)
            per_replica_rows.append({
                "rank": rank,
                "device": node.gpu_memory[rank].device,
                "requests": int(mine.size),
                "batches": rep_batches,
                "latency": latency_summary(latencies[mine]),
            })

        duration = last_completion - t0
        qps = n / duration if duration > 0 else 0.0
        reg.gauge("serve_qps").set(qps)
        occ = np.asarray(occupancies, dtype=np.float64)
        report = ServeReport(
            name=self.name,
            config=self._config_dict(),
            seed=int(seed),
            num_requests=n,
            num_batches=num_batches,
            duration_seconds=float(duration),
            qps=float(qps),
            latency=latency_summary(latencies),
            batch_occupancy={
                "mean": float(occ.mean()) if occ.size else None,
                "min": int(occ.min()) if occ.size else None,
                "max": int(occ.max()) if occ.size else None,
            },
            per_replica=per_replica_rows,
            phase_totals={
                p: node.timeline.phase_total(p)
                for p in ("serve_wait", "serve_sample",
                          "serve_gather", "serve_infer")
            },
            metrics=reg.snapshot(),
            latency_blame=(
                _latency_blame(latencies, stages) if analysis else None
            ),
            timeseries=(
                _serve_timeseries(
                    t0, duration, arrival + t0, completion_at,
                    latencies, batch_rows,
                ) if analysis else None
            ),
        )
        return ServeResult(
            latencies=latencies,
            predictions=predictions,
            replica_of=np.asarray(self.replicas, dtype=np.int64)[replica_idx],
            report=report,
        )

    def _execute(
        self, seeds: np.ndarray, rank: int, rng: np.random.Generator
    ) -> np.ndarray | None:
        """Run one dispatched batch on ``rank``, charging its clock.

        Returns the batch's class predictions (model mode) or ``None``
        (embedding mode, where the gathered rows are the response).
        """
        node = self.node
        clock = node.gpu_clock[rank]
        if self.sampler is not None:
            # a batch may ask for the same node twice; dedupe before
            # sampling (AppendUnique requires unique targets) and fan the
            # answer back out — the compute is shared, as a real server
            # coalescing identical queries would share it
            uniq, inverse = np.unique(seeds, return_inverse=True)
            t0 = clock.now
            sub = self.sampler.sample(uniq, rank, rng, phase="serve_sample")
            t1 = clock.now
            feats = self.store.gather_features(
                sub.input_nodes, rank, phase="serve_gather"
            )
            t2 = clock.now
            self._last_exec = {
                "sample": t1 - t0, "gather": t2 - t1, "infer": 0.0,
                "rows": int(uniq.shape[0]),
                "input_nodes": int(sub.input_nodes.shape[0]),
            }
            if self.model is not None:
                logits = self.model(sub, feats)
                clock.advance(
                    self.model.step_costs(block_shapes(sub))
                    .forward_seconds(1.0),
                    phase="serve_infer", category="serve",
                    args={"seeds": int(uniq.shape[0]),
                          "input_nodes": int(sub.input_nodes.shape[0])},
                )
                self._last_exec["infer"] = clock.now - t2
                return logits.argmax(axis=-1)[inverse]
            return None
        t0 = clock.now
        self.store.gather_features(seeds, rank, phase="serve_gather")
        self._last_exec = {
            "sample": 0.0, "gather": clock.now - t0, "infer": 0.0,
            "rows": int(seeds.shape[0]), "input_nodes": int(seeds.shape[0]),
        }
        return None

    # -- analysis helpers (opt-in; never touch a clock) --------------------------

    def _config_dict(self) -> dict:
        """The engine configuration block of the :class:`ServeReport`."""
        return {
            "mode": "model" if self.model is not None else "embedding",
            "model": self.model.module_name if self.model else None,
            "fanouts": list(self.fanouts) if self.fanouts else None,
            "max_batch_size": self.batcher.max_batch_size,
            "max_wait_us": self.batcher.max_wait_us,
            "routing": self.routing,
            "replicas": list(self.replicas),
            "cache_enabled": self.store.feature_cache is not None,
            "feature_location": self.store.tier,
        }


def _latency_blame(latencies: np.ndarray, stages: dict) -> dict:
    """Decompose mean and p99-tail latency into serving stages.

    ``stages`` maps stage name -> per-request seconds (queue_wait / sample /
    gather / infer / other); every request in a batch shares the batch's
    service-stage times but owns its queueing delay.  The ``p99_tail`` block
    answers the SLO question directly: *which stage owns the tail* — the
    batcher's deadline (queue_wait), sampling, the DSM gather, or the
    forward pass.
    """
    lat = np.asarray(latencies, dtype=np.float64)
    p99 = float(np.percentile(lat, 99.0))
    names = sorted(stages)

    def block(mask: np.ndarray) -> dict:
        mean_lat = float(lat[mask].mean()) if mask.any() else 0.0
        seconds = {
            s: (float(stages[s][mask].mean()) if mask.any() else 0.0)
            for s in names
        }
        fraction = {
            s: (seconds[s] / mean_lat if mean_lat > 0 else 0.0)
            for s in names
        }
        worst = max(names, key=lambda s: seconds[s])
        return {
            "requests": int(mask.sum()),
            "mean_latency": mean_lat,
            "seconds": seconds,
            "fraction": fraction,
            "worst_stage": worst,
        }

    return {
        "p99_latency": p99,
        "all": block(np.ones(lat.size, dtype=bool)),
        "p99_tail": block(lat >= p99),
    }


def _serve_timeseries(
    t0: float,
    duration: float,
    abs_arrival: np.ndarray,
    completion_at: np.ndarray,
    latencies: np.ndarray,
    batch_rows: list,
) -> dict:
    """Rolling-window QPS / queue-depth / latency series over a serve run.

    ``SERVE_WINDOWS`` windows tile ``[t0, t0 + duration]``; per window the
    series reports offered load (arrivals), completed throughput (QPS), the
    max batcher queue depth observed at a dispatch, and the mean/max latency
    of the requests that completed in the window.  Times in the output are offsets
    from serve start, so same-seed runs emit byte-identical series.  This is
    the signal ROADMAP item 4's replica autoscaler consumes.
    """
    num_windows = SERVE_WINDOWS
    if duration <= 0 or abs_arrival.size == 0:
        num_windows = 1
        duration = max(duration, 0.0)
    width = duration / num_windows if duration > 0 else 0.0
    edges = t0 + duration * np.arange(1, num_windows + 1) / num_windows
    # half-open (prev, edge] windows; clip the first to include t0 exactly
    arr_bin = np.clip(
        np.searchsorted(edges, abs_arrival, side="left"), 0, num_windows - 1
    )
    done_bin = np.clip(
        np.searchsorted(edges, completion_at, side="left"), 0, num_windows - 1
    )
    windows = []
    for k in range(num_windows):
        done_mask = done_bin == k
        n_done = int(done_mask.sum())
        lat_k = latencies[done_mask]
        depths = [
            row["queue_depth"] for row in batch_rows
            if (k == 0 or row["dispatch"] > edges[k - 1])
            and row["dispatch"] <= edges[k]
        ]
        windows.append({
            "t_end": float(edges[k] - t0),
            "arrivals": int((arr_bin == k).sum()),
            "completed": n_done,
            "qps": (n_done / width) if width > 0 else 0.0,
            "queue_depth_max": max(depths) if depths else None,
            "latency_mean": float(lat_k.mean()) if n_done else None,
            "latency_max": float(lat_k.max()) if n_done else None,
        })
    return {"window_seconds": width, "windows": windows}
