"""Mini-batch GNN training on the multi-GPU shared-memory store.

- :mod:`repro.train.pipeline` — the two halves of an iteration (sample +
  gather, train) and the bucketed gradient-sync schedule;
- :mod:`repro.train.trainer` — epoch loops, evaluation, the WholeGraph
  trainer (paper §III-D training flow);
- :mod:`repro.train.plans` — composable parallelism plans (data-parallel,
  GNNPipe-style pipelined model parallelism, hybrid, CAGNET full-graph);
- :mod:`repro.train.streaming` — the batch loader and step every
  data-parallel schedule runs on (sequential, double-buffered, out-of-core
  streaming with host-stream tier transfers, true DDP and the cluster);
- :mod:`repro.train.grad_sync` — data-parallel gradient synchronisation;
- :mod:`repro.train.metrics` — accuracy and epoch statistics.
"""

from repro.train.trainer import WholeGraphTrainer, EpochStats
from repro.train.streaming import StreamingLoader
from repro.train.metrics import accuracy
from repro.train.plans import (
    CagnetFullGraphPlan,
    DataParallelPlan,
    HybridParallelPlan,
    ParallelismPlan,
    PipelineParallelPlan,
)

__all__ = [
    "WholeGraphTrainer",
    "EpochStats",
    "StreamingLoader",
    "accuracy",
    "ParallelismPlan",
    "DataParallelPlan",
    "PipelineParallelPlan",
    "HybridParallelPlan",
    "CagnetFullGraphPlan",
]
