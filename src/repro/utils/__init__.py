"""Shared utilities: GlobalID packing, scans, RNG streams, formatting."""

from repro.utils.ids import (
    GLOBAL_ID_RANK_BITS,
    make_global_ids,
    split_global_ids,
    rank_of,
)
from repro.utils.scan import exclusive_prefix_sum
from repro.utils.rng import RngPool, spawn_rng
from repro.utils.units import format_bytes, format_seconds

__all__ = [
    "GLOBAL_ID_RANK_BITS",
    "make_global_ids",
    "split_global_ids",
    "rank_of",
    "exclusive_prefix_sum",
    "RngPool",
    "spawn_rng",
    "format_bytes",
    "format_seconds",
]
