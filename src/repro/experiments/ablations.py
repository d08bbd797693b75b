"""Ablations of WholeGraph's design choices (DESIGN.md §3, last row).

Three studies, each isolating one decision the paper argues for:

1. **Hash vs sort unique** (§III-C2): AppendUnique with the bucketed hash
   table versus the sort-based unique other frameworks use, measured as the
   sampling-phase time of real training iterations.

2. **Atomic elision in g-SpMM backward** (§III-C4): the duplicate-count
   array turns sampled-once rows into plain stores; we price the backward
   scatter of real sampled sub-graphs with and without the optimisation.

3. **P2P vs UM storage** (§II-B): what the per-iteration feature gather
   would cost if WholeMemory were built on Unified Memory instead of
   GPUDirect P2P — every gathered row pays a page fault instead of riding
   the NVLink bandwidth curve.

4. **Hot-row feature cache**: the per-rank degree-ordered HBM cache
   (:class:`~repro.dsm.feature_cache.FeatureCache`) versus plain DSM
   gathers, on a power-law graph where the hot rows dominate the sampled
   frontiers; :func:`cache_sweep` traces hit rate and gather time across
   cache sizes.

5. **Pipelined prefetch**: the double-buffered iteration schedule
   (``overlap=True``) versus the sequential sample→gather→train loop —
   same math bit-for-bit, steady-state iteration cost drops from the sum
   of the phases to their max.

6. **Bucketed gradient-sync overlap** (§III-D): the Apex-DDP style
   reverse-order bucketed all-reduce, hidden behind the backward pass,
   versus one flat serial all-reduce per step; :func:`bucket_cap_sweep`
   traces the latency-vs-bandwidth regimes across bucket capacities and
   :func:`overlap_scaling_ablation` the Fig. 13-style multi-node view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import config
from repro.experiments.common import get_dataset
from repro.graph import MultiGpuGraphStore
from repro.hardware import SimNode, costmodel
from repro.nn.models import block_shapes
from repro.ops.neighbor_sampler import NeighborSampler
from repro.ops.spmm import atomic_elision_stats
from repro.telemetry.report import format_table
from repro.train import WholeGraphTrainer
from repro.train.grad_sync import GradSyncModel
from repro.train.plans import ClusterDataParallelPlan
from repro.utils.rng import spawn_rng


@dataclass
class AblationResult:
    name: str
    baseline_label: str
    optimized_label: str
    baseline_time: float
    optimized_time: float

    @property
    def speedup(self) -> float:
        return self.baseline_time / self.optimized_time


def _sample_setup(num_nodes: int, seed: int, batch_size: int, fanouts):
    ds = get_dataset("ogbn-papers100M", num_nodes, seed)
    node = SimNode()
    store = MultiGpuGraphStore(node, ds, seed=seed)
    seeds = store.train_nodes[
        spawn_rng(seed, "abl").integers(
            0, len(store.train_nodes), size=batch_size
        )
    ]
    seeds = np.unique(seeds)
    return node, store, seeds


def unique_impl_ablation(
    num_nodes: int = 20_000, batch_size: int = 512,
    fanouts=(30, 30), iterations: int = 3, seed: int = 0,
) -> AblationResult:
    """Sampling-phase time: hash-table vs sort-based AppendUnique."""
    times = {}
    for impl in ("hash", "sort"):
        node, store, seeds = _sample_setup(num_nodes, seed, batch_size,
                                           fanouts)
        sampler = NeighborSampler(store, list(fanouts), unique_impl=impl)
        node.reset_clocks()
        rng = spawn_rng(seed, "abl-sample", impl)
        for _ in range(iterations):
            sampler.sample(seeds, 0, rng)
        times[impl] = node.timeline.phase_total("sample") / iterations
    return AblationResult(
        name="AppendUnique kernel",
        baseline_label="sort-based unique",
        optimized_label="bucketed hash table",
        baseline_time=times["sort"],
        optimized_time=times["hash"],
    )


def atomic_elision_ablation(
    num_nodes: int = 20_000, batch_size: int = 512,
    fanouts=(30, 30), hidden: int = 256, seed: int = 0,
) -> AblationResult:
    """Backward-scatter time with vs without duplicate-count elision."""
    node, store, seeds = _sample_setup(num_nodes, seed, batch_size, fanouts)
    sampler = NeighborSampler(store, list(fanouts), charge=False)
    sg = sampler.sample(seeds, 0, spawn_rng(seed, "abl-atomic"))
    with_opt = 0.0
    without = 0.0
    for block in sg.blocks:
        stats = atomic_elision_stats(block.indices, block.duplicate_counts)
        row_bytes = hidden * 4
        with_opt += costmodel.backward_scatter_time(
            stats["plain_stores"], stats["atomic_adds"], row_bytes
        )
        without += costmodel.backward_scatter_time(
            0, block.num_edges, row_bytes
        )
    return AblationResult(
        name="g-SpMM backward scatter",
        baseline_label="all atomic adds",
        optimized_label="duplicate-count elision",
        baseline_time=without,
        optimized_time=with_opt,
    )


def um_storage_ablation(
    num_nodes: int = 20_000, batch_size: int = 512,
    fanouts=(30, 30), seed: int = 0,
) -> AblationResult:
    """Per-iteration feature-gather time: P2P DSM vs UM-backed storage."""
    node, store, seeds = _sample_setup(num_nodes, seed, batch_size, fanouts)
    sampler = NeighborSampler(store, list(fanouts), charge=False)
    sg = sampler.sample(seeds, 0, spawn_rng(seed, "abl-um"))
    rows = sg.input_nodes
    node.reset_clocks()
    store.gather_features(rows, rank=0)
    t_p2p = node.gpu_clock[0].now
    # UM: a random row is almost always on a fresh page -> one fault per
    # remote row; 1/8 of rows are local.
    footprint = store.feature_tensor.total_bytes
    remote_rows = rows.shape[0] * (node.num_gpus - 1) / node.num_gpus
    t_um = remote_rows * costmodel.um_access_latency(
        max(footprint, 8 * 2**30)
    ) + (rows.shape[0] - remote_rows) * costmodel.local_access_latency()
    return AblationResult(
        name="feature storage substrate",
        baseline_label="Unified Memory (page migration)",
        optimized_label="GPUDirect P2P (WholeMemory)",
        baseline_time=t_um,
        optimized_time=t_p2p,
    )


def feature_location_ablation(
    num_nodes: int = 20_000, batch_size: int = 512,
    fanouts=(30, 30), seed: int = 0,
) -> AblationResult:
    """Per-iteration feature gather: device DSM vs host-pinned zero-copy.

    The host-pinned placement survives graphs beyond aggregate GPU memory
    but pays the shared PCIe uplink — the §III-B bandwidth argument
    measured through the real gather path.
    """
    ds = get_dataset("ogbn-papers100M", num_nodes, seed)
    times = {}
    for location in ("device", "host_pinned"):
        node = SimNode()
        store = MultiGpuGraphStore(node, ds, seed=seed, tier=location)
        sampler = NeighborSampler(store, list(fanouts), charge=False)
        seeds = store.train_nodes[:batch_size]
        sg = sampler.sample(seeds, 0, spawn_rng(seed, "abl-loc", location))
        node.reset_clocks()
        store.gather_features(sg.input_nodes, rank=0)
        times[location] = node.gpu_clock[0].now
    return AblationResult(
        name="feature placement",
        baseline_label="host-pinned (PCIe zero-copy)",
        optimized_label="device DSM (NVLink P2P)",
        baseline_time=times["host_pinned"],
        optimized_time=times["device"],
    )


def _cache_workload(
    store: MultiGpuGraphStore,
    fanouts,
    batch_size: int,
    iterations: int,
    seed: int,
) -> float:
    """Replay a fixed sampled-frontier sequence through the gather path.

    The sampler draws from a freshly spawned stream keyed only on ``seed``,
    so every cache configuration sees the *same* frontier sequence — the
    comparison isolates the gather cost.  Returns mean gather time.
    """
    node = store.node
    sampler = NeighborSampler(store, list(fanouts), charge=False)
    rng = spawn_rng(seed, "abl-cache-frontiers")
    train = store.train_nodes
    total = 0.0
    for _ in range(iterations):
        seeds = rng.choice(train, size=min(batch_size, train.size),
                           replace=False)
        sg = sampler.sample(np.sort(seeds), 0, rng)
        t0 = node.gpu_clock[0].now
        store.gather_features(sg.input_nodes, 0)
        total += node.gpu_clock[0].now - t0
    return total / iterations


def feature_cache_ablation(
    num_nodes: int = 20_000, batch_size: int = 64,
    fanouts=(5, 5), iterations: int = 8,
    cache_ratio: float = 0.1, seed: int = 0,
) -> AblationResult:
    """Feature-gather time: plain DSM vs the degree-ordered hot-row cache.

    Runs on the power-law ``uk_domain`` graph, where the hottest 10 % of
    the rows carry most of the degree mass — the skew the cache exploits.
    """
    ds = get_dataset("uk_domain", num_nodes, seed)
    times = {}
    for ratio in (0.0, cache_ratio):
        node = SimNode()
        store = MultiGpuGraphStore(node, ds, seed=seed, cache_ratio=ratio)
        node.reset_clocks()  # exclude setup + cache prefill
        times[ratio] = _cache_workload(
            store, fanouts, batch_size, iterations, seed
        )
    return AblationResult(
        name="hot-row feature cache",
        baseline_label="uncached DSM gather",
        optimized_label=f"degree-ordered cache ({cache_ratio:.0%}/rank)",
        baseline_time=times[0.0],
        optimized_time=times[cache_ratio],
    )


def overlap_ablation(
    num_nodes: int = 20_000, batch_size: int = 32,
    fanouts=(30, 30), iterations: int = 6, seed: int = 0,
) -> AblationResult:
    """Epoch time: sequential schedule vs double-buffered prefetch.

    Both runs train the *same* model trajectory (the trainer guarantees
    bit-identical math under either schedule); only the clock accounting
    differs.
    """
    ds = get_dataset("ogbn-papers100M", num_nodes, seed)
    times = {}
    losses = {}
    for overlap in (False, True):
        node = SimNode()
        store = MultiGpuGraphStore(node, ds, seed=seed)
        trainer = WholeGraphTrainer(
            store, "graphsage", seed=seed, batch_size=batch_size,
            fanouts=list(fanouts), overlap=overlap,
        )
        node.reset_clocks()
        stats = trainer.train_epoch(max_iterations=iterations)
        times[overlap] = stats.epoch_time
        losses[overlap] = stats.mean_loss
    assert losses[True] == losses[False], "schedules must be bit-identical"
    return AblationResult(
        name="iteration schedule",
        baseline_label="sequential (sum of phases)",
        optimized_label="pipelined prefetch (overlap)",
        baseline_time=times[False],
        optimized_time=times[True],
    )


def grad_sync_ablation(
    num_nodes: int = 20_000, batch_size: int = 512,
    fanouts=(30, 30, 30), iterations: int = 2, seed: int = 0,
) -> AblationResult:
    """Exposed gradient-sync time per step (Table-5 GraphSage config):
    one flat serial all-reduce vs reverse-order buckets overlapped with
    the backward pass.  Both runs train identical weights — only the comm
    schedule (and hence the exposed critical-path time) differs.
    """
    ds = get_dataset("ogbn-papers100M", num_nodes, seed)
    exposed = {}
    losses = {}
    for overlap in (False, True):
        node = SimNode()
        store = MultiGpuGraphStore(node, ds, seed=seed)
        trainer = WholeGraphTrainer(
            store, "graphsage", seed=seed, batch_size=batch_size,
            fanouts=list(fanouts),
            bucket_cap_mb=None if overlap else 0,
            overlap_grad_sync=overlap,
        )
        node.reset_clocks()
        stats = trainer.train_epoch(max_iterations=iterations)
        exposed[overlap] = stats.allreduce / iterations
        losses[overlap] = stats.mean_loss
    assert losses[True] == losses[False], "schedules must be bit-identical"
    return AblationResult(
        name="gradient synchronisation",
        baseline_label="flat serial all-reduce",
        optimized_label="bucketed + backward-overlapped",
        baseline_time=exposed[False],
        optimized_time=exposed[True],
    )


def bucket_cap_sweep(
    caps_mb=(0.015625, 0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0, 0),
    num_nodes: int = 20_000, batch_size: int = 512,
    fanouts=(30, 30, 30), seed: int = 0,
) -> list[dict]:
    """Comm schedule across bucket capacities (cap 0 = one flat bucket).

    One sampled step's cost ledger fixes the model's parameter layout and
    its gradients' ready offsets; each capacity is then *planned* against
    those offsets.
    The sweep exposes both regimes of the chunked-ring model: tiny buckets
    multiply the per-collective launch + hop latencies (total comm blows
    up), while a single flat buffer serializes after backward (everything
    exposed).
    """
    ds = get_dataset("ogbn-papers100M", num_nodes, seed)
    node = SimNode()
    store = MultiGpuGraphStore(node, ds, seed=seed)
    trainer = WholeGraphTrainer(
        store, "graphsage", seed=seed, batch_size=batch_size,
        fanouts=list(fanouts),
    )
    batch = trainer._task.batches(trainer, 1)[0]
    sg = trainer.sampler.sample(batch, 0, trainer.rngs.rank(0))
    offsets = trainer.model.step_costs(block_shapes(sg)).ready_offsets(1.0)
    param_nbytes = [
        p.data.nbytes for p in trainer.model.parameters()
    ]
    rows = []
    for cap in caps_mb:
        model = GradSyncModel(node, param_nbytes, bucket_cap_mb=cap,
                              overlap=True)
        plan = model.plan([(0.0, offsets)])
        rows.append({
            "bucket_cap_mb": cap,
            "buckets": plan.num_buckets,
            "total_comm": plan.total_comm,
            "exposed": plan.exposed,
            "hidden": plan.hidden,
        })
    return rows


def bucket_sweep_report(rows: list[dict]) -> str:
    return format_table(
        ["bucket cap (MB)", "buckets", "total comm (us)", "exposed (us)",
         "hidden (us)"],
        [
            ["flat" if r["bucket_cap_mb"] == 0 else f"{r['bucket_cap_mb']}",
             r["buckets"], r["total_comm"] * 1e6, r["exposed"] * 1e6,
             f"{r['hidden'] * 1e6:.1f}"]
            for r in rows
        ],
        title="Gradient-bucket capacity sweep (Table-5 GraphSage step)",
    )


def overlap_scaling_ablation(
    node_counts=(1, 2, 4),
    num_nodes: int = 20_000, batch_size: int = 512,
    fanouts=(30, 30, 30), hidden: int = 256, iterations: int = 2,
    seed: int = 0,
) -> list[dict]:
    """Fig. 13-style scaling view of the gradient-sync overlap.

    For each machine-node count, trains the Table-5 GraphSage config with
    the flat serial sync and with the bucketed overlapped sync, recording
    the exposed all-reduce time on machine node 0 plus the epoch time.
    The hierarchical inter-node term grows with the node count, so the
    absolute overlap win widens with scale — provided the backward window
    is long enough to hide the growing comm backlog, which the Table-5
    workload's is (tiny toy windows are not; the bucket-cap sweep shows
    that regime instead).
    """
    ds = get_dataset("ogbn-papers100M", num_nodes, seed)
    rows = []
    for k in node_counts:
        row = {"machine_nodes": k}
        for overlap in (False, True):
            store = MultiGpuGraphStore(SimNode(), ds, seed=seed)
            tr = WholeGraphTrainer(
                store, "graphsage", seed=seed, batch_size=batch_size,
                fanouts=list(fanouts), hidden=hidden,
                bucket_cap_mb=None if overlap else 0,
                overlap_grad_sync=overlap,
                plan=ClusterDataParallelPlan(num_machine_nodes=k),
            )
            stats = tr.train_epoch(max_iterations=iterations)
            dev0 = tr.node.gpu_memory[0].device
            key = "overlap" if overlap else "flat"
            row[f"epoch_time_{key}"] = stats.epoch_time
            row[f"exposed_{key}"] = tr.node.timeline.phase_total(
                "allreduce", dev0
            )
        rows.append(row)
    return rows


def scaling_report(rows: list[dict]) -> str:
    return format_table(
        ["machine nodes", "exposed flat (us)", "exposed overlap (us)",
         "epoch flat (ms)", "epoch overlap (ms)"],
        [
            [r["machine_nodes"], r["exposed_flat"] * 1e6,
             r["exposed_overlap"] * 1e6,
             r["epoch_time_flat"] * 1e3, r["epoch_time_overlap"] * 1e3]
            for r in rows
        ],
        title="Gradient-sync overlap across machine nodes (Fig. 13 style)",
    )


def cache_sweep(
    ratios=(0.0, 0.05, 0.1, 0.25, 0.5, 1.0),
    num_nodes: int = 20_000, batch_size: int = 64,
    fanouts=(5, 5), iterations: int = 8,
    policy: str = "static", seed: int = 0,
) -> list[dict]:
    """Hit rate and gather time across cache sizes (same frontier replay)."""
    ds = get_dataset("uk_domain", num_nodes, seed)
    rows = []
    for ratio in ratios:
        node = SimNode()
        store = MultiGpuGraphStore(
            node, ds, seed=seed, cache_ratio=ratio, cache_policy=policy
        )
        node.reset_clocks()
        gather_time = _cache_workload(
            store, fanouts, batch_size, iterations, seed
        )
        cache = store.feature_cache
        summary = cache.summary() if cache is not None else None
        rows.append({
            "cache_ratio": ratio,
            "policy": policy if cache is not None else "none",
            "hit_rate": summary["hit_rate"] if summary else 0.0,
            "gather_time": gather_time,
            "nvlink_mib_saved": (
                summary["remote_bytes_saved"] / 2**20 if summary else 0.0
            ),
        })
    return rows


def sweep_report(rows: list[dict]) -> str:
    return format_table(
        ["cache ratio", "policy", "hit rate", "gather (ms)",
         "NVLink MiB saved"],
        [
            [f"{r['cache_ratio']:.0%}", r["policy"],
             f"{r['hit_rate']:.3f}", r["gather_time"] * 1e3,
             f"{r['nvlink_mib_saved']:.1f}"]
            for r in rows
        ],
        title="Feature-cache sweep (uk_domain, degree-ordered placement)",
    )


def tier_hit_ratio_sweep(
    cache_ratios=(0.0, 0.05, 0.1),
    host_fractions=(0.25, 0.5, 0.75),
    num_nodes: int = 30_000, batch_size: int = config.BATCH_SIZE,
    fanouts=(config.FANOUT,) * config.NUM_LAYERS,
    iterations: int = 8, seed: int = 0,
) -> list[dict]:
    """Where gathered bytes land across the out-of-core storage tiers.

    The Table-5 training config (papers100M stand-in, default batch size
    and fanouts) replayed over the tiered store for every HBM-cache size x
    pinned-host fraction.  ``tier_hit_ratio`` is the headline: the share
    of gathered bytes served *above* the disk tier (HBM cache hits plus
    warm pinned-host rows) — the out-of-core analogue of a cache hit rate.
    Every configuration replays the identical frontier sequence, so the
    rows isolate placement, not sampling noise.
    """
    from repro.telemetry import metrics

    ds = get_dataset("ogbn-papers100M", num_nodes, seed)
    rows = []
    for ratio in cache_ratios:
        for frac in host_fractions:
            prev = metrics.get_registry()
            metrics.set_registry(metrics.MetricsRegistry())
            try:
                node = SimNode()
                store = MultiGpuGraphStore(
                    node, ds, seed=seed, tier="tiered",
                    cache_ratio=ratio, host_pinned_fraction=frac,
                )
                node.reset_clocks()
                gather_time = _cache_workload(
                    store, fanouts, batch_size, iterations, seed
                )
                reg = metrics.get_registry()
                hbm = reg.total("gather_link_bytes_total", link="hbm")
                host = reg.total("tier_gather_bytes_total", tier="host")
                disk = reg.total("tier_gather_bytes_total", tier="disk")
            finally:
                metrics.set_registry(prev)
            total = hbm + host + disk
            cache = store.feature_cache
            rows.append({
                "cache_ratio": ratio,
                "host_pinned_fraction": frac,
                "tier_hit_ratio": (hbm + host) / total if total else 0.0,
                "hbm_share": hbm / total if total else 0.0,
                "host_share": host / total if total else 0.0,
                "disk_share": disk / total if total else 0.0,
                "cache_hit_rate": (
                    cache.summary()["hit_rate"] if cache is not None else 0.0
                ),
                "gather_time": gather_time,
            })
    return rows


def tier_sweep_report(rows: list[dict]) -> str:
    return format_table(
        ["cache ratio", "host frac", "tier hit", "hbm/host/disk",
         "gather (ms)"],
        [
            [f"{r['cache_ratio']:.0%}", f"{r['host_pinned_fraction']:.0%}",
             f"{r['tier_hit_ratio']:.3f}",
             (f"{r['hbm_share']:.2f}/{r['host_share']:.2f}"
              f"/{r['disk_share']:.2f}"),
             r["gather_time"] * 1e3]
            for r in rows
        ],
        title=(
            "Out-of-core tier hit ratio (papers100M stand-in, Table-5 "
            "config, degree-ordered placement)"
        ),
    )


def run(num_nodes: int = 20_000, seed: int = 0) -> list[AblationResult]:
    return [
        unique_impl_ablation(num_nodes=num_nodes, seed=seed),
        atomic_elision_ablation(num_nodes=num_nodes, seed=seed),
        um_storage_ablation(num_nodes=num_nodes, seed=seed),
        feature_location_ablation(num_nodes=num_nodes, seed=seed),
        feature_cache_ablation(num_nodes=num_nodes, seed=seed),
        overlap_ablation(num_nodes=num_nodes, seed=seed),
        grad_sync_ablation(num_nodes=num_nodes, seed=seed),
    ]


def report(results: list[AblationResult]) -> str:
    return format_table(
        ["Design choice", "baseline", "optimized", "base (ms)", "opt (ms)",
         "speedup"],
        [
            [r.name, r.baseline_label, r.optimized_label,
             r.baseline_time * 1e3, r.optimized_time * 1e3,
             f"{r.speedup:.2f}x"]
            for r in results
        ],
        title="Ablations: each WholeGraph design choice vs its alternative",
    )


def check_shape(results: list[AblationResult]) -> None:
    by_name = {r.name: r for r in results}
    # every design choice must actually help
    for r in results:
        assert r.speedup > 1.0, (r.name, r.speedup)
    # the storage substrate is the dominant choice by far (Table I's
    # order-of-magnitude latency gap)
    assert by_name["feature storage substrate"].speedup > 10
    # NVLink vs shared PCIe: roughly the paper's 18.75x bandwidth gap
    # (modulo the random-access efficiency of each link)
    if "feature placement" in by_name:
        assert 5 < by_name["feature placement"].speedup < 40
    # overlap can at best halve the iteration (max vs sum of two phases)
    if "iteration schedule" in by_name:
        assert by_name["iteration schedule"].speedup <= 2.0
    # bucketed overlap must cut the exposed all-reduce by >= 30 %
    if "gradient synchronisation" in by_name:
        assert by_name["gradient synchronisation"].speedup >= 1.0 / 0.7
