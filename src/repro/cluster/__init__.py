"""Multi-node scaling (paper Fig. 13)."""

from repro.cluster.multinode import MultiNodeCluster, scaling_curve

__all__ = ["MultiNodeCluster", "scaling_curve"]
