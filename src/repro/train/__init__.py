"""Mini-batch GNN training on the multi-GPU shared-memory store.

- :mod:`repro.train.pipeline` — the per-iteration sample → append-unique →
  gather → train pipeline with per-phase simulated timing;
- :mod:`repro.train.trainer` — epoch loops, evaluation, the WholeGraph
  trainer (paper §III-D training flow);
- :mod:`repro.train.plans` — composable parallelism plans (data-parallel,
  GNNPipe-style pipelined model parallelism, hybrid, CAGNET full-graph);
- :mod:`repro.train.streaming` — the batch loader and step every symmetric
  schedule runs on (sequential, double-buffered, and out-of-core streaming
  with host-stream tier transfers);
- :mod:`repro.train.ddp` — data-parallel gradient synchronisation;
- :mod:`repro.train.metrics` — accuracy and epoch statistics.
"""

from repro.train.pipeline import IterationResult, run_iteration
from repro.train.trainer import WholeGraphTrainer, EpochStats
from repro.train.streaming import StreamingLoader
from repro.train.ddp import DistributedDataParallel
from repro.train.metrics import accuracy
from repro.train.plans import (
    CagnetFullGraphPlan,
    DataParallelPlan,
    HybridParallelPlan,
    ParallelismPlan,
    PipelineParallelPlan,
)

__all__ = [
    "IterationResult",
    "run_iteration",
    "WholeGraphTrainer",
    "EpochStats",
    "StreamingLoader",
    "DistributedDataParallel",
    "accuracy",
    "ParallelismPlan",
    "DataParallelPlan",
    "PipelineParallelPlan",
    "HybridParallelPlan",
    "CagnetFullGraphPlan",
]
