"""Composable parallelism plans for the training layer.

A plan encapsulates one strategy for spreading training across GPUs —
replica layout, epoch scheduling onto the simulated streams, gradient
synchronisation and fault recovery — behind the interface defined in
:mod:`repro.train.plans.base`.  The trainer picks a plan by name (or takes
a configured instance) and delegates; see ``docs/parallelism.md`` for the
handbook and DESIGN.md §15 for the interface contract.

Available plans: :class:`DataParallelPlan` (the default WholeGraph
regime), :class:`PipelineParallelPlan` (GNNPipe-style layer pipelining),
:class:`HybridParallelPlan` (pipelined stages replicated into
data-parallel groups), :class:`CagnetFullGraphPlan` (CAGNET-style 1.5D
partitioned full-graph training) and :class:`ClusterDataParallelPlan`
(data parallelism over several machine nodes, one replica per node).
"""

from repro.train.plans.base import ParallelismPlan, Replica, resolve_plan
from repro.train.plans.cagnet import CagnetFullGraphPlan
from repro.train.plans.cluster import ClusterDataParallelPlan
from repro.train.plans.data_parallel import DataParallelPlan
from repro.train.plans.pipeline_parallel import (
    HybridParallelPlan,
    PipelineParallelPlan,
    bubble_fraction,
)

__all__ = [
    "CagnetFullGraphPlan",
    "ClusterDataParallelPlan",
    "DataParallelPlan",
    "HybridParallelPlan",
    "ParallelismPlan",
    "PipelineParallelPlan",
    "Replica",
    "bubble_fraction",
    "resolve_plan",
]
