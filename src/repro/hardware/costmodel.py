"""Cost model: converts op work descriptors into simulated seconds.

This module is the heart of the performance-simulation layer.  Every formula
is anchored to a number the paper publishes:

- **Pointer-chase latency** (Table I): a chain of dependent random accesses
  cannot be pipelined, so total time = accesses x per-access latency.  P2P
  latency starts at 1.35 us for an 8 GB footprint and creeps up ~0.05 us per
  footprint doubling; UM latency starts at 20.8 us (page-fault service) and
  grows ~3.75 us per doubling.

- **Random-gather bandwidth** (Fig. 8): independent random reads *are*
  pipelined, so throughput is bandwidth-bound.  BusBW grows linearly with the
  contiguous segment size until ~64 B, saturating near 230 GB/s for >=128 B
  segments.  AlgoBW = BusBW x N/(N-1) because 1/N of a uniform gather is
  local and never crosses NVLink.

- **Kernels**: fixed launch overhead plus work/throughput, with per-kernel
  throughput constants in :mod:`repro.config`.
"""

from __future__ import annotations

import math

from repro import config


# ---------------------------------------------------------------------------
# Latency (dependent-access) models — paper Table I
# ---------------------------------------------------------------------------

def _doublings(footprint_bytes: float) -> float:
    """log2 of footprint relative to the 8 GB anchor, floored at 0."""
    ratio = max(float(footprint_bytes), 1.0) / config.LATENCY_ANCHOR_BYTES
    return max(0.0, math.log2(ratio))


def p2p_access_latency(footprint_bytes: float) -> float:
    """GPUDirect P2P load latency for one dependent remote access."""
    return config.P2P_BASE_LATENCY + config.P2P_LATENCY_PER_DOUBLING * _doublings(
        footprint_bytes
    )


def um_access_latency(footprint_bytes: float) -> float:
    """Unified-memory access latency (page fault + migration) per access.

    The UM pointer chase touches a fresh page almost every step (random
    addresses over a huge footprint), so nearly every access pays the fault.
    """
    return config.UM_BASE_LATENCY + config.UM_LATENCY_PER_DOUBLING * _doublings(
        footprint_bytes
    )


def local_access_latency() -> float:
    """Local HBM random-access latency for one dependent access."""
    return config.LOCAL_HBM_LATENCY


def pointer_chase_time(
    num_accesses: int, footprint_bytes: float, mechanism: str
) -> float:
    """Total time of a dependent random-access chain (Table I experiment).

    ``mechanism`` is ``'p2p'``, ``'um'`` or ``'local'``.
    """
    if mechanism == "p2p":
        lat = p2p_access_latency(footprint_bytes)
    elif mechanism == "um":
        lat = um_access_latency(footprint_bytes)
    elif mechanism == "local":
        lat = local_access_latency()
    else:
        raise ValueError(f"unknown access mechanism: {mechanism!r}")
    return num_accesses * lat


# ---------------------------------------------------------------------------
# Bandwidth (independent-access) models — paper Fig. 8
# ---------------------------------------------------------------------------

def random_read_bus_bw(segment_bytes: float) -> float:
    """NVLink BusBW of a random gather with the given segment size.

    Linear in the segment size below ~81 B (181 GB/s at 64 B), saturating at
    230 GB/s — the Fig. 8 curve.
    """
    return min(segment_bytes * config.RANDOM_READ_BW_SLOPE, config.RANDOM_READ_BW_SAT)


def local_random_read_bw(segment_bytes: float) -> float:
    """Random-read bandwidth out of local HBM (same saturation shape)."""
    slope = config.HBM_RANDOM_READ_BW_SAT / 96.0  # saturate near 96 B segments
    return min(segment_bytes * slope, config.HBM_RANDOM_READ_BW_SAT)


def gather_time(
    total_bytes: float,
    segment_bytes: float,
    num_gpus: int,
    remote_fraction: float | None = None,
) -> float:
    """Time for one GPU to gather ``total_bytes`` of random segments.

    ``remote_fraction`` defaults to the uniform (N-1)/N split.  The gather is
    bandwidth-bound: remote traffic runs at the Fig. 8 NVLink curve, local
    traffic at HBM speed, and both proceed concurrently (the kernel issues
    loads to all destinations at once), so the slower stream dominates.
    """
    if total_bytes <= 0:
        return config.KERNEL_LAUNCH_OVERHEAD
    if num_gpus <= 1:
        return (
            config.KERNEL_LAUNCH_OVERHEAD
            + total_bytes / local_random_read_bw(segment_bytes)
        )
    if remote_fraction is None:
        remote_fraction = (num_gpus - 1) / num_gpus
    remote_bytes = total_bytes * remote_fraction
    local_bytes = total_bytes - remote_bytes
    t_remote = remote_bytes / random_read_bus_bw(segment_bytes)
    t_local = local_bytes / local_random_read_bw(segment_bytes)
    return config.KERNEL_LAUNCH_OVERHEAD + max(t_remote, t_local)


def cached_gather_time(
    local_bytes: float, remote_bytes: float, segment_bytes: float
) -> float:
    """One gather kernel split between local-HBM and remote-NVLink streams.

    This is the cost of a cache-aware gather (:mod:`repro.dsm.feature_cache`):
    rows served by the per-rank hot-row cache — plus rows whose home partition
    is the calling GPU — ride the local HBM random-read curve, while cache
    misses owned by peers pay the Fig. 8 NVLink curve.  Both streams proceed
    concurrently inside the kernel, so the slower one dominates, exactly as in
    :func:`gather_time` (to which this degenerates when the cache is empty).
    """
    if local_bytes + remote_bytes <= 0:
        return config.KERNEL_LAUNCH_OVERHEAD
    t_remote = remote_bytes / random_read_bus_bw(segment_bytes)
    t_local = local_bytes / local_random_read_bw(segment_bytes)
    return config.KERNEL_LAUNCH_OVERHEAD + max(t_remote, t_local)


def zero_copy_host_bw(segment_bytes: float) -> float:
    """PCIe random-read bandwidth of a zero-copy gather out of host memory.

    The UVA/zero-copy regime of host-pinned storage (PyTorch-Direct): GPU
    threads load host rows directly over the shared PCIe uplink (16 GB/s
    per GPU when all stream, paper §III-B).  The curve keeps the Fig. 8
    shape — BusBW proportional to the contiguous segment below the 128 B
    knee, saturating at the shared line rate, a far lower ceiling than
    NVLink's: the 18.75x bandwidth argument.
    """
    slope = config.PCIE_BW_PER_GPU_SHARED / config.ZERO_COPY_SEG_KNEE_BYTES
    return min(segment_bytes * slope, config.PCIE_BW_PER_GPU_SHARED)


def zero_copy_gather_time(total_bytes: float, segment_bytes: float) -> float:
    """GPU gather of random host rows via zero-copy PCIe loads."""
    if total_bytes <= 0:
        return config.KERNEL_LAUNCH_OVERHEAD
    return config.KERNEL_LAUNCH_OVERHEAD + total_bytes / zero_copy_host_bw(
        segment_bytes
    )


def disk_staging_time(total_bytes: float) -> float:
    """Disk->host staging cost for cold-tier rows.

    The streaming loader sorts cold rows and coalesces them into aligned
    ``DISK_BLOCK_BYTES`` reads; each read pays the NVMe latency, and the
    payload rides the sequential-read bandwidth of the scratch RAID.
    """
    if total_bytes <= 0:
        return 0.0
    num_requests = max(1, math.ceil(total_bytes / config.DISK_BLOCK_BYTES))
    return (
        num_requests * config.DISK_READ_LATENCY
        + total_bytes / config.DISK_READ_BW
    )


def tiered_gather_time(
    local_bytes: float,
    host_bytes: float,
    disk_bytes: float,
    segment_bytes: float,
) -> float:
    """One gather split across HBM-cached, warm (pinned-host) and cold
    (disk) rows.

    Cached rows ride the local HBM random-read curve and warm rows are
    zero-copy PCIe reads.  Cold rows are first staged disk->host, then
    cross PCIe like warm rows — the two hops of the same rows serialize.
    The three streams proceed concurrently (independent transactions
    interleave), so the slowest dominates, exactly as in
    :func:`cached_gather_time`.
    """
    if local_bytes <= 0 and host_bytes <= 0 and disk_bytes <= 0:
        return config.KERNEL_LAUNCH_OVERHEAD
    bw = zero_copy_host_bw(segment_bytes)
    t_warm = host_bytes / bw
    t_cold = 0.0
    if disk_bytes > 0:
        t_cold = disk_staging_time(disk_bytes) + disk_bytes / bw
    t_local = local_bytes / local_random_read_bw(segment_bytes)
    return config.KERNEL_LAUNCH_OVERHEAD + max(t_local, t_warm, t_cold)


# ---------------------------------------------------------------------------
# Bulk-transfer models
# ---------------------------------------------------------------------------

def stream_transfer_time(nbytes: float, bandwidth: float, latency: float) -> float:
    """Time for one contiguous (DMA-style) transfer over a link."""
    if nbytes <= 0:
        return 0.0
    return latency + nbytes / bandwidth


def pcie_host_to_gpu_time(nbytes: float, shared: bool = True) -> float:
    """Host->GPU copy over PCIe 4.0 x16; ``shared`` halves bandwidth
    (2 GPUs per uplink, paper §III-B)."""
    bw = config.PCIE_BW_PER_GPU_SHARED if shared else config.PCIE_GEN4_X16_BW
    return stream_transfer_time(nbytes, bw, config.PCIE_LATENCY)


def nvlink_p2p_stream_time(nbytes: float) -> float:
    """GPU->GPU contiguous copy over NVLink."""
    return stream_transfer_time(
        nbytes, config.NVLINK_UNIDIR_BW, config.P2P_BASE_LATENCY
    )


# ---------------------------------------------------------------------------
# Kernel models
# ---------------------------------------------------------------------------

def kernel_time(work: float, rate: float) -> float:
    """Generic kernel: launch overhead + work units / rate."""
    if work < 0:
        raise ValueError("work must be non-negative")
    return config.KERNEL_LAUNCH_OVERHEAD + work / rate


def dense_compute_time(flops: float) -> float:
    """Dense GEMM/attention compute time."""
    return kernel_time(flops, config.GPU_DENSE_FLOPS)


def fused_kernel_seconds(
    flops: float, sparse_bytes: float, elementwise_bytes: float
) -> dict[str, float]:
    """One fused layer kernel's seconds per op: dense FLOPs, g-SpMM /
    g-SDDMM bytes and elementwise bytes at their throughputs, plus one
    launch.  The kernel's time is their sum."""
    return {
        "dense": flops / config.GPU_DENSE_FLOPS,
        "sparse": sparse_bytes / config.GPU_SPARSE_BYTES_PER_S,
        "elementwise": elementwise_bytes / config.GPU_ELEMENTWISE_BYTES_PER_S,
        "launch": config.KERNEL_LAUNCH_OVERHEAD,
    }


def elementwise_time(bytes_touched: float) -> float:
    """Elementwise kernel (activations, optimizer steps) time."""
    return kernel_time(bytes_touched, config.GPU_ELEMENTWISE_BYTES_PER_S)


def gpu_sample_time(edges_considered: float) -> float:
    """Fused multi-GPU sampling kernel time (path-doubling sampler)."""
    return kernel_time(edges_considered, config.GPU_SAMPLE_EDGES_PER_S)


def hash_table_time(num_ops: float) -> float:
    """AppendUnique hash insert/probe kernel time."""
    return kernel_time(num_ops, config.GPU_HASH_OPS_PER_S)


def sort_unique_time(num_keys: float) -> float:
    """Sort-based unique (the alternative the paper rejects, §III-C2)."""
    return kernel_time(num_keys, config.GPU_SORT_UNIQUE_KEYS_PER_S)


def backward_scatter_time(plain_rows: float, atomic_rows: float,
                          row_bytes: float) -> float:
    """g-SpMM backward scatter: plain stores vs contended atomic adds.

    The duplicate-count optimisation (paper §III-C4) turns
    sampled-exactly-once rows into plain stores; the remainder pay the
    atomic read-modify-write premium.
    """
    bytes_plain = plain_rows * row_bytes
    bytes_atomic = atomic_rows * row_bytes * config.ATOMIC_ADD_COST_FACTOR
    return kernel_time(bytes_plain + bytes_atomic,
                       config.GPU_SPARSE_BYTES_PER_S)


# ---------------------------------------------------------------------------
# DSM setup — paper §III-B "tens to one or two hundred ms"
# ---------------------------------------------------------------------------

def dsm_setup_time(total_bytes: float) -> float:
    """One-time cost of cudaMalloc + IPC exchange + pointer-table setup."""
    return config.DSM_SETUP_BASE + config.DSM_SETUP_PER_GB * (
        total_bytes / config.GB
    )


# ---------------------------------------------------------------------------
# Collectives — used by the NCCL-style baseline gather and DDP
# ---------------------------------------------------------------------------

def allreduce_time(nbytes: float, num_ranks: int, bandwidth: float,
                   latency: float) -> float:
    """Ring all-reduce: 2(N-1)/N of the payload crosses the slowest link."""
    if num_ranks <= 1 or nbytes <= 0:
        return 0.0
    traffic = 2 * (num_ranks - 1) / num_ranks * nbytes
    return (
        2 * (num_ranks - 1) * latency
        + traffic / (bandwidth * config.ALLREDUCE_EFFICIENCY)
    )


def chunked_ring_allreduce_time(
    nbytes: float,
    num_ranks: int,
    bandwidth: float,
    latency: float,
) -> float:
    """One *bucket*'s ring all-reduce, priced with its size regime.

    The ring runs 2(N-1) steps (reduce-scatter then all-gather); each step
    moves one 1/N shard of the bucket over the slowest link, split into
    pipeline chunks of ``config.RING_CHUNK_BYTES``.  The collective additionally pays a
    fixed launch overhead.  Consequences the bucket-cap sweep measures:

    - **latency regime** — a tiny bucket still pays the launch plus
      2(N-1) hop latencies, so many small buckets are visibly bad;
    - **bandwidth regime** — a large bucket amortises those fixed costs
      and approaches the classic 2(N-1)/N * nbytes / bandwidth bound,
      with a mild per-chunk protocol overhead.

    Payloads under ``NCCL_LL_THRESHOLD`` use the LL protocol: per-hop
    latency shrinks by ``NCCL_LL_LATENCY_FACTOR`` while the flag-interleaved
    stores halve the usable bandwidth — exactly why DDP's *last* (small)
    bucket drains quickly once backward ends.
    """
    if num_ranks <= 1 or nbytes <= 0:
        return 0.0
    if nbytes < config.NCCL_LL_THRESHOLD:
        latency = latency * config.NCCL_LL_LATENCY_FACTOR
        bandwidth = bandwidth * config.NCCL_LL_BW_FACTOR
    shard = nbytes / num_ranks
    chunks_per_step = max(1, math.ceil(shard / config.RING_CHUNK_BYTES))
    eff_bw = bandwidth * config.ALLREDUCE_EFFICIENCY
    per_step = (
        latency
        + chunks_per_step * config.RING_CHUNK_OVERHEAD
        + shard / eff_bw
    )
    return config.NCCL_COLL_LAUNCH_OVERHEAD + 2 * (num_ranks - 1) * per_step

def ring_broadcast_time(
    nbytes: float,
    num_ranks: int,
    bandwidth: float,
    latency: float,
) -> float:
    """One shard's pipelined ring broadcast to ``num_ranks - 1`` peers.

    The CAGNET full-graph SpMM broadcasts each rank's feature block around
    the replica-group ring; a pipelined broadcast relays the shard in
    ``config.RING_CHUNK_BYTES`` pieces, so for realistic shard sizes the cost is one
    traversal of the shard over the slowest link plus the per-hop latencies
    — (N-1) steps, each moving the shard once (no reduce-scatter half, so
    half the steps of :func:`chunked_ring_allreduce_time`).  Small shards
    ride the same NCCL LL regime as the all-reduce.
    """
    if num_ranks <= 1 or nbytes <= 0:
        return 0.0
    if nbytes < config.NCCL_LL_THRESHOLD:
        latency = latency * config.NCCL_LL_LATENCY_FACTOR
        bandwidth = bandwidth * config.NCCL_LL_BW_FACTOR
    chunks_per_step = max(1, math.ceil(nbytes / config.RING_CHUNK_BYTES))
    eff_bw = bandwidth * config.ALLREDUCE_EFFICIENCY
    per_step = (
        latency
        + chunks_per_step * config.RING_CHUNK_OVERHEAD
        + nbytes / eff_bw
    )
    return config.NCCL_COLL_LAUNCH_OVERHEAD + (num_ranks - 1) * per_step
