"""Hardware specifications and the DGX-A100 preset.

The paper's testbed (§IV, Fig. 6): one DGX-A100 with 8 NVIDIA A100 GPUs, all
connected to NVSwitch (300 GB/s unidirectional NVLink per GPU), two AMD Rome
7742 CPUs, and PCIe 4.0 switches each shared by 2 GPUs and 2 ConnectX-6 NICs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import config


@dataclass(frozen=True)
class GpuSpec:
    """Capabilities of a single GPU."""

    name: str
    memory_capacity: int
    dense_flops: float
    sparse_bytes_per_s: float
    elementwise_bytes_per_s: float
    hbm_random_read_bw: float
    sample_edges_per_s: float
    hash_ops_per_s: float
    kernel_launch_overhead: float


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point or switched link."""

    kind: str  #: 'nvlink', 'pcie', 'ib'
    bandwidth: float  #: unidirectional bytes/s
    latency: float  #: seconds per message


@dataclass(frozen=True)
class NodeSpec:
    """A full machine node."""

    name: str
    num_gpus: int
    gpu: GpuSpec
    nvlink: LinkSpec
    pcie: LinkSpec
    gpus_per_pcie_switch: int
    inter_node: LinkSpec
    #: number of NICs (for multi-node bandwidth aggregation)
    num_nics: int = 8


def a100() -> GpuSpec:
    """A100-40GB spec with the calibrated throughput constants."""
    return GpuSpec(
        name="A100-40GB",
        memory_capacity=config.GPU_MEMORY_CAPACITY,
        dense_flops=config.GPU_DENSE_FLOPS,
        sparse_bytes_per_s=config.GPU_SPARSE_BYTES_PER_S,
        elementwise_bytes_per_s=config.GPU_ELEMENTWISE_BYTES_PER_S,
        hbm_random_read_bw=config.HBM_RANDOM_READ_BW_SAT,
        sample_edges_per_s=config.GPU_SAMPLE_EDGES_PER_S,
        hash_ops_per_s=config.GPU_HASH_OPS_PER_S,
        kernel_launch_overhead=config.KERNEL_LAUNCH_OVERHEAD,
    )


def dgx_a100(num_gpus: int = config.GPUS_PER_NODE) -> NodeSpec:
    """The paper's testbed: DGX-A100 with ``num_gpus`` A100s on NVSwitch."""
    return NodeSpec(
        name="DGX-A100",
        num_gpus=num_gpus,
        gpu=a100(),
        nvlink=LinkSpec(
            kind="nvlink",
            bandwidth=config.NVLINK_UNIDIR_BW,
            latency=config.P2P_BASE_LATENCY,
        ),
        pcie=LinkSpec(
            kind="pcie",
            bandwidth=config.PCIE_GEN4_X16_BW,
            latency=config.PCIE_LATENCY,
        ),
        gpus_per_pcie_switch=config.GPUS_PER_PCIE_SWITCH,
        inter_node=LinkSpec(
            kind="ib",
            bandwidth=config.INTER_NODE_BW,
            latency=config.INTER_NODE_LATENCY,
        ),
    )
