"""Global calibration constants for the WholeGraph reproduction.

Every number that turns *work* (bytes moved, edges sampled, FLOPs) into
*simulated time* lives here, with provenance.  Values marked ``[paper]`` are
taken directly from the WholeGraph paper (SC'22); values marked ``[fit]`` are
fitted so that the reproduced tables/figures land in the paper's reported
ranges; values marked ``[public]`` are public hardware specifications.

Units: bytes, seconds, bytes/second, FLOP/second unless stated otherwise.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Unit helpers
# ---------------------------------------------------------------------------

KB = 1024
MB = 1024**2
GB = 1024**3

US = 1e-6
MS = 1e-3

# ---------------------------------------------------------------------------
# DGX-A100 interconnect  [paper §II-B, §III-B, Fig. 6]
# ---------------------------------------------------------------------------

#: NVLink unidirectional bandwidth per GPU on DGX-A100.  [paper: 300 GB/s]
NVLINK_UNIDIR_BW = 300 * GB

#: Number of GPUs in one DGX-A100 node.  [paper]
GPUS_PER_NODE = 8

#: Maximum AlgoBW for an 8-GPU all-to-all gather: 300 / (7/8).  [paper §IV-C1]
NVLINK_MAX_ALGO_BW = NVLINK_UNIDIR_BW * GPUS_PER_NODE / (GPUS_PER_NODE - 1)

#: PCIe 4.0 x16 unidirectional bandwidth.  [paper: 32 GB/s]
PCIE_GEN4_X16_BW = 32 * GB

#: GPUs sharing one PCIe host uplink on DGX-A100.  [paper: 2]
GPUS_PER_PCIE_SWITCH = 2

#: Effective host<->GPU bandwidth per GPU when all GPUs stream concurrently.
#: [paper: 16 GB/s = 32/2]
PCIE_BW_PER_GPU_SHARED = PCIE_GEN4_X16_BW // GPUS_PER_PCIE_SWITCH

#: GPU device memory capacity (A100-40GB as implied by Table IV totals).
GPU_MEMORY_CAPACITY = 40 * GB

#: PCIe one-way latency for a DMA transfer setup.  [public, ~]
PCIE_LATENCY = 10 * US

# ---------------------------------------------------------------------------
# Remote-access latency  [paper Table I]
# ---------------------------------------------------------------------------
# The paper's pointer-chase experiment: P2P latency grows mildly with the
# total allocation footprint (TLB/page-table reach), UM latency is dominated
# by the page-fault + migration round trip.

#: GPUDirect P2P load latency at an 8 GB footprint.  [paper: 1.35 us]
P2P_BASE_LATENCY = 1.35 * US

#: P2P latency growth per doubling of footprint beyond 8 GB.
#: Fitted to Table I: 1.35, 1.37, 1.43, 1.51, 1.56 us for 8..128 GB.  [fit]
P2P_LATENCY_PER_DOUBLING = 0.053 * US

#: Unified-memory page-fault service latency at an 8 GB footprint.
#: [paper: 20.8 us]
UM_BASE_LATENCY = 20.8 * US

#: UM latency growth per doubling of footprint (page-table walk depth &
#: migration queue pressure).  Fitted to Table I: 20.8 -> 35.8 us.  [fit]
UM_LATENCY_PER_DOUBLING = 3.75 * US

#: Footprint at which the latency tables are anchored.
LATENCY_ANCHOR_BYTES = 8 * GB

#: Local (same-GPU) HBM random-access latency.  [public, ~]
LOCAL_HBM_LATENCY = 0.45 * US

#: UM page size used by the migration model.  [public: 64 KB driver pages]
UM_PAGE_BYTES = 64 * KB

# ---------------------------------------------------------------------------
# Random-read bandwidth curve  [paper Fig. 8]
# ---------------------------------------------------------------------------
# BusBW is "almost proportional to the random read segment size" below 64 B,
# hits ~181 GB/s at 64 B, and saturates around 230 GB/s for segments >=128 B.
# Model: BusBW(seg) = min(seg * RANDOM_READ_BW_SLOPE, RANDOM_READ_BW_SAT).

#: GB/s of BusBW per byte of segment size in the linear regime.
#: 181 GB/s / 64 B ~= 2.83.  [fit to paper Fig. 8]
RANDOM_READ_BW_SLOPE = 181 * GB / 64

#: Saturated random-read BusBW over NVLink.  [paper Fig. 8: ~230 GB/s]
RANDOM_READ_BW_SAT = 230 * GB

#: Fraction of remote traffic in a uniform gather over N GPUs: (N-1)/N.
#: Used to convert AlgoBW <-> BusBW.  [paper §IV-C1]

#: Saturated random-read bandwidth for *local* HBM (A100 HBM2e ~1.5 TB/s,
#: random gather efficiency ~0.6).  [public, fit]
HBM_RANDOM_READ_BW_SAT = 900 * GB

# ---------------------------------------------------------------------------
# Kernel cost model  [fit]
# ---------------------------------------------------------------------------

#: Fixed launch overhead per CUDA kernel.  [public: ~3-5 us]
KERNEL_LAUNCH_OVERHEAD = 4 * US

#: Effective dense FP32 throughput of one A100 for GNN-sized GEMMs.
#: A100 peak FP32 is 19.5 TFLOP/s; mini-batch GNN GEMMs are small/skinny, so
#: we use a 60% efficiency factor.  [public, fit]
GPU_DENSE_FLOPS = 11.7e12

#: Effective throughput for sparse/aggregation kernels (g-SpMM, g-SDDMM):
#: bandwidth-bound, expressed as bytes touched per second.  [fit]
GPU_SPARSE_BYTES_PER_S = 700 * GB

#: GPU sampling throughput: sampled edges per second for the fused
#: path-doubling sampler (thread-block per target node).  [fit so that
#: WholeGraph sampling is a minor slice of Fig. 9 epochs]
GPU_SAMPLE_EDGES_PER_S = 2.0e9

#: GPU hash-table insert/probe throughput (AppendUnique).  [fit; Warpcore
#: reports >1e9 inserts/s on V100-class parts]
GPU_HASH_OPS_PER_S = 1.5e9

#: Elementwise op throughput in bytes/s (activation, optimizer steps).  [fit]
GPU_ELEMENTWISE_BYTES_PER_S = 1200 * GB

#: Effective throughput of a sort-based unique (64-bit radix sort + compact
#: + ID map-back), in keys/s.  Slower than the hash-table path — the reason
#: the paper adopts hashing (§III-C2).  [fit]
GPU_SORT_UNIQUE_KEYS_PER_S = 0.35e9

#: Cost multiplier of an atomic add over a plain store in the g-SpMM
#: backward scatter (contention + read-modify-write).  [fit]
ATOMIC_ADD_COST_FACTOR = 2.5

# ---------------------------------------------------------------------------
# Baseline (DGL-like / PyG-like) CPU pipeline  [fit to Table V & Fig. 9]
# ---------------------------------------------------------------------------
# The paper's baselines sample and gather on the host CPU and ship mini-batch
# tensors over PCIe.  Epoch-time ratios in Table V put DGL ~8-57x and PyG
# ~14-243x slower than WholeGraph, with sampling+gather dominating (Fig. 9).

#: DGL-like CPU sampling throughput (sampled edges / second, all workers).
#: DGL 0.7 uses OpenMP C++ samplers.  [fit]
CPU_SAMPLE_EDGES_PER_S_DGL = 2.2e7

#: PyG-like CPU sampling throughput.  PyG 2.0's sampler does more Python-side
#: work per batch, an order of magnitude slower.  [fit]
CPU_SAMPLE_EDGES_PER_S_PYG = 2.0e6

#: CPU feature-gather throughput (bytes/s) out of host DRAM, DGL-like.  [fit]
CPU_GATHER_BYTES_PER_S_DGL = 6.0 * GB

#: CPU feature-gather throughput, PyG-like (index_select on CPU tensors).
CPU_GATHER_BYTES_PER_S_PYG = 2.5 * GB

#: Per-iteration fixed host overhead (dataloader wakeup, Python glue). [fit]
HOST_ITER_OVERHEAD_DGL = 2.0 * MS
HOST_ITER_OVERHEAD_PYG = 12.0 * MS

#: Third-party layer compute multipliers vs WholeGraph's fused layers.
#: [paper §IV-C5: WholeGraph layers up to 1.31x vs DGL layers and 2.43x vs
#: PyG layers on whole-epoch time; since compute dominates those epochs, the
#: layer-time multipliers are slightly larger.]
LAYER_COST_FACTOR_DGL = 1.45
LAYER_COST_FACTOR_PYG = 3.1
LAYER_COST_FACTOR_WHOLEGRAPH = 1.0

# ---------------------------------------------------------------------------
# Multi-node  [paper §III-D, §IV-D]
# ---------------------------------------------------------------------------

#: Inter-node bandwidth: 8x ConnectX-6 HDR IB per DGX = 8x25 GB/s.  [public]
INTER_NODE_BW = 200 * GB

#: Inter-node message latency.  [public: ~2 us + software]
INTER_NODE_LATENCY = 5 * US

#: Ring-allreduce efficiency on gradients.  [fit]
ALLREDUCE_EFFICIENCY = 0.85

# ---------------------------------------------------------------------------
# Gradient-synchronisation (Apex-DDP style) bucketing & overlap  [§III-D]
# ---------------------------------------------------------------------------
# The paper trains data-parallel with Apex DDP, which buckets gradients and
# overlaps each bucket's ring all-reduce with the still-running backward
# pass.  The chunked-ring model below prices individual buckets: tiny
# buckets are latency/launch-bound (2(N-1) hops plus a collective launch
# amortise nothing), large buckets ride the bandwidth term.

#: Default gradient bucket capacity.  PyTorch/Apex DDP ship a 25 MB cap
#: sized for ~100 MB vision models; the paper's 3-layer GNNs carry only
#: ~1-2 MB of gradients, so a 25 MB cap degenerates to a single bucket and
#: hides nothing.  We keep DDP's ~8-buckets-per-model ratio by scaling the
#: cap to the model class.  [fit]
DDP_BUCKET_CAP_MB = 0.25

#: Fixed software cost of launching one NCCL collective (kernel launch +
#: proxy wakeup), paid once per bucket.  [public: ~5-10 us, fit]
NCCL_COLL_LAUNCH_OVERHEAD = 6 * US

#: Pipeline chunk granularity of the ring all-reduce: each of the 2(N-1)
#: ring steps moves its shard in chunks of this size.  [public: NCCL
#: chunking is O(128 KB-1 MB); fit]
RING_CHUNK_BYTES = 512 * KB

#: Per-chunk protocol overhead inside a ring step (flag check + copy
#: engine turnaround).  [fit]
RING_CHUNK_OVERHEAD = 0.4 * US

#: Below this payload NCCL switches to its low-latency (LL) protocol:
#: flag-embedded 8-byte stores skip the copy-engine round trip, trading
#: about half the bandwidth for a much smaller per-hop latency.  [public:
#: NCCL_PROTO=LL for small messages; threshold fit]
NCCL_LL_THRESHOLD = 256 * KB

#: Per-hop latency multiplier under the LL protocol.  [fit to the ~3x
#: small-message latency advantage NCCL reports for LL vs Simple]
NCCL_LL_LATENCY_FACTOR = 0.35

#: Bandwidth multiplier under the LL protocol (4-byte data + 4-byte flag
#: per 8-byte store => ~half the line rate).  [public]
NCCL_LL_BW_FACTOR = 0.5

#: Fraction of NVLink line rate NCCL sustains on alltoall(v) traffic
#: (protocol overhead, chunking).  [public: NCCL achieves ~80% on DGX]
NCCL_BW_EFFICIENCY = 0.8

# ---------------------------------------------------------------------------
# DSM setup cost  [paper §III-B: "tens to one or two hundred ms"]
# ---------------------------------------------------------------------------

#: Fixed cost of cudaMalloc + IPC handle exchange per shared allocation.
DSM_SETUP_BASE = 8 * MS

#: Additional setup cost per GiB of allocation (page-table population).
DSM_SETUP_PER_GB = 1.5 * MS

# ---------------------------------------------------------------------------
# Out-of-core host/disk storage tier  [PyTorch-Direct; public NVMe specs]
# ---------------------------------------------------------------------------
# Graphs whose features exceed aggregate HBM spill into a host-pinned tier
# (GPU-centric zero-copy reads over PCIe, as in PyTorch-Direct) and a disk
# tier (NVMe staging into pinned host buffers).  The zero-copy regime keeps
# the PCIe random-read curve shape of Fig. 8: bandwidth proportional to the
# access segment below a knee, saturating at the shared per-GPU line rate.

#: Segment size at which zero-copy PCIe random reads saturate.  PyTorch-
#: Direct reports near-peak PCIe efficiency once accesses coalesce to
#: cache-line-multiple granularity; below the knee BusBW is proportional
#: to the segment.  [fit, mirrors the Fig. 8 NVLink knee at 128 B]
ZERO_COPY_SEG_KNEE_BYTES = 128

#: Sustained sequential read bandwidth of the node-local NVMe scratch
#: (DGX A100 ships 2x1.92 TB U.2 NVMe, RAID-0 ~6-7 GB/s).  [public]
DISK_READ_BW = 6 * GB

#: Per-request disk read latency (NVMe queue + FS overhead).  [public, ~]
DISK_READ_LATENCY = 80 * US

#: Staging granularity of disk->host reads: cold rows are fetched in
#: aligned blocks of this size into the pinned staging area.  [fit]
DISK_BLOCK_BYTES = 512 * KB

#: Fraction of out-of-HBM feature rows kept in pinned host memory under
#: ``tier="tiered"``; the remaining cold tail lives on disk.  [fit]
HOST_PINNED_FRACTION = 0.5

#: Micro-batches the streaming loader prefetches ahead of compute.  [fit:
#: 2 deep hides the host tier on the benchmark config without hoarding
#: staging buffers]
PREFETCH_DEPTH = 2

# ---------------------------------------------------------------------------
# Fault injection & recovery  [fit]
# ---------------------------------------------------------------------------
# Used by :mod:`repro.faults` and the trainer recovery policies.  All values
# are simulated-time costs; none affect functional results.

#: Requester-side timeout before re-issuing a gather whose reply was lost.
#: [fit: a few RTTs over NVLink/NVSwitch at gather-message granularity]
GATHER_RETRY_TIMEOUT = 50 * US

#: Multiplicative backoff applied to the timeout on every further retry.
GATHER_RETRY_BACKOFF = 2.0

#: Maximum retries before a gather is treated as a permanent failure.
GATHER_RETRY_MAX = 5

#: Watchdog delay between a rank dying and the survivors detecting it
#: (missed NCCL heartbeats).  [fit]
FAULT_DETECT_SECONDS = 1 * MS

#: Cost of tearing down and re-initialising the communicator / NCCL ranks
#: after a membership change (restart or shrink).  [fit: NCCL comm init is
#: O(ms) per rank]
COMM_REINIT_SECONDS = 2 * MS

# ---------------------------------------------------------------------------
# Training hyper-parameters used throughout the evaluation  [paper §IV]
# ---------------------------------------------------------------------------

BATCH_SIZE = 512
NUM_LAYERS = 3
HIDDEN_SIZE = 256
FANOUT = 30
GAT_NUM_HEADS = 4

# ---------------------------------------------------------------------------
# Parallelism plans (repro.train.plans)  [GNNPipe / CAGNET reproductions]
# ---------------------------------------------------------------------------

#: Default micro-batches per global batch in the pipeline-parallel plan's
#: GPipe-style fill-drain schedule; the idle ("bubble") fraction of an
#: S-stage pipeline is (S - 1) / (M + S - 1).  [public: GNNPipe §4]
PIPELINE_MICRO_BATCHES = 4

#: Default replication factor c of the CAGNET 1.5D full-graph plan.  The
#: p ranks form a (p/c) x c grid; broadcast volume shrinks by c at the cost
#: of a c-way partial-output reduce and c-fold activation memory.  c=1
#: degenerates to the 1D block-row algorithm.  [public: CAGNET §4]
CAGNET_REPLICATION = 1
