"""WholeGraph ops (paper §III-C).

- :mod:`repro.ops.sampling` — Algorithm 1: fully-parallel random neighbor
  sampling *without replacement* via path doubling;
- :mod:`repro.ops.hashtable` — the bucketed GPU hash table (Warpcore-style)
  behind AppendUnique;
- :mod:`repro.ops.append_unique` — append neighbors to targets, de-duplicate,
  assign contiguous sub-graph IDs, emit duplicate counts;
- :mod:`repro.ops.neighbor_sampler` — multi-layer sub-graph sampling over the
  multi-GPU graph store;
- :mod:`repro.ops.gather` — the shared-memory one-kernel global gather and
  the NCCL-style 5-step distributed-memory gather (Fig. 4);
- :mod:`repro.ops.segment` / :mod:`repro.ops.spmm` / :mod:`repro.ops.sddmm`
  — segment reductions, g-SpMM and g-SDDMM with the duplicate-count
  atomic-elision optimisation.
"""

from repro.ops.sampling import (
    parallel_sample_without_replacement,
    batch_sample_without_replacement,
    reference_sample_without_replacement,
)
from repro.ops.hashtable import GpuHashTable
from repro.ops.append_unique import (
    AppendUniqueResult,
    append_unique,
    sort_based_append_unique,
)
from repro.ops.neighbor_sampler import NeighborSampler, SampledSubgraph
from repro.ops.gather import (
    shared_memory_gather,
    distributed_memory_gather,
    DistributedGatherTrace,
)
from repro.ops.segment import (
    segment_sum,
    segment_max,
    segment_softmax,
)
from repro.ops.spmm import gspmm_sum, gspmm_mean, gspmm_backward_features
from repro.ops.sddmm import gsddmm_dot, gsddmm_add
from repro.ops.negative_sampling import (
    edges_exist,
    sample_negative_edges,
    sample_positive_edges,
)

__all__ = [
    "parallel_sample_without_replacement",
    "batch_sample_without_replacement",
    "reference_sample_without_replacement",
    "GpuHashTable",
    "AppendUniqueResult",
    "append_unique",
    "sort_based_append_unique",
    "NeighborSampler",
    "SampledSubgraph",
    "shared_memory_gather",
    "distributed_memory_gather",
    "DistributedGatherTrace",
    "segment_sum",
    "segment_max",
    "segment_softmax",
    "gspmm_sum",
    "gspmm_mean",
    "gspmm_backward_features",
    "gsddmm_dot",
    "gsddmm_add",
    "edges_exist",
    "sample_negative_edges",
    "sample_positive_edges",
]
