"""Multi-GPU distributed shared memory library (the WholeMemory substrate).

Paper §III-B: each training process owns one GPU, allocates its partition of
a logically-shared allocation with ``cudaMalloc``, exports it with
``cudaIpcGetMemHandle``, all-gathers the handles, opens peers' handles with
``cudaIpcOpenMemHandle``, and stores the mapped pointers in a per-device
*memory pointer table*.  After this one-time setup every GPU can load/store
any peer's memory inside a single CUDA kernel over NVLink (GPUDirect P2P).

This package reproduces that protocol step-by-step:

- :mod:`repro.dsm.ipc` — IPC handle objects, export and open;
- :mod:`repro.dsm.pointer_table` — the per-device pointer table;
- :mod:`repro.dsm.whole_memory` — partitioned shared allocations;
- :mod:`repro.dsm.whole_tensor` — typed 2-D tensors over WholeMemory with
  costed gather/scatter (the op behind feature storage);
- :mod:`repro.dsm.tiered_tensor` — host-memory storage beneath the DSM
  (rows pinned in host DRAM, optionally a cold tail on disk; zero-copy
  PCIe pricing);
- :mod:`repro.dsm.feature_cache` — per-rank hot-row HBM caches over either
  tensor's gather path (degree-ordered static and CLOCK policies);
- :mod:`repro.dsm.unified_memory` — the CUDA UM page-migration alternative
  (Table I comparison);
- :mod:`repro.dsm.comm` — NCCL-style collectives over the *distributed
  memory* view (the baseline in Fig. 4/Fig. 10).
"""

from repro.dsm.ipc import IpcHandle, ipc_get_mem_handle, ipc_open_mem_handle
from repro.dsm.pointer_table import MemoryPointerTable
from repro.dsm.whole_memory import WholeMemory
from repro.dsm.whole_tensor import WholeTensor
from repro.dsm.sparse_embedding import WholeEmbedding, dedup_row_grads
from repro.dsm.tiered_tensor import TieredTensor
from repro.dsm.feature_cache import FeatureCache
from repro.dsm.unified_memory import UnifiedMemorySpace
from repro.dsm.comm import Communicator

__all__ = [
    "IpcHandle",
    "ipc_get_mem_handle",
    "ipc_open_mem_handle",
    "MemoryPointerTable",
    "WholeMemory",
    "WholeTensor",
    "WholeEmbedding",
    "dedup_row_grads",
    "TieredTensor",
    "FeatureCache",
    "UnifiedMemorySpace",
    "Communicator",
]
