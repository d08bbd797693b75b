"""Simulated multi-GPU hardware substrate.

This package stands in for the DGX-A100 node the paper evaluates on.  It
models the pieces of the machine that WholeGraph's performance story depends
on:

- per-GPU device memory with an allocator and usage accounting
  (:mod:`repro.hardware.memory`),
- per-device simulated clocks and a phase timeline
  (:mod:`repro.hardware.clock`),
- the cost model converting work into simulated time
  (:mod:`repro.hardware.costmodel`),
- node presets (:mod:`repro.hardware.spec`) and the :class:`SimNode`
  machine bundle (:mod:`repro.hardware.machine`).
"""

from repro.hardware.spec import NodeSpec, dgx_a100
from repro.hardware.memory import DeviceMemory, Allocation, OutOfDeviceMemory
from repro.hardware.clock import SimClock, Timeline, Span
from repro.hardware.machine import SimNode
from repro.hardware import costmodel

__all__ = [
    "NodeSpec",
    "dgx_a100",
    "DeviceMemory",
    "Allocation",
    "OutOfDeviceMemory",
    "SimClock",
    "Timeline",
    "Span",
    "SimNode",
    "costmodel",
]
