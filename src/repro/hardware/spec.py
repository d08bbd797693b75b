"""Hardware specifications and the DGX-A100 preset.

The paper's testbed (§IV, Fig. 6): one DGX-A100 with 8 NVIDIA A100 GPUs, all
connected to NVSwitch (300 GB/s unidirectional NVLink per GPU), two AMD Rome
7742 CPUs, and PCIe 4.0 switches each shared by 2 GPUs and 2 ConnectX-6 NICs.

A :class:`NodeSpec` holds only what a caller varies: the GPU count (elastic
shrink, scaling sweeps) and the per-GPU memory capacity (out-of-memory and
out-of-core experiments).  Every bandwidth, latency and throughput the cost
model prices with is a :mod:`repro.config` constant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import config


@dataclass(frozen=True)
class NodeSpec:
    """A machine node: its GPU count and per-GPU memory capacity."""

    num_gpus: int
    gpu_memory_capacity: int


def dgx_a100(num_gpus: int = config.GPUS_PER_NODE) -> NodeSpec:
    """The paper's testbed: DGX-A100 with ``num_gpus`` A100-40GBs."""
    return NodeSpec(
        num_gpus=num_gpus, gpu_memory_capacity=config.GPU_MEMORY_CAPACITY
    )
