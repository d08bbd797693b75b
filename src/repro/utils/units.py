"""Human-readable formatting of byte counts and durations."""

from __future__ import annotations

from repro.config import GB, KB, MB


def format_bytes(n: float) -> str:
    """Format a byte count with a binary-prefix unit (e.g. ``'3.1 GB'``)."""
    n = float(n)
    for unit, scale in (("GB", GB), ("MB", MB), ("KB", KB)):
        if abs(n) >= scale:
            return f"{n / scale:.2f} {unit}"
    return f"{n:.0f} B"


def format_seconds(t: float) -> str:
    """Format a duration, picking s / ms / us as appropriate."""
    t = float(t)
    if abs(t) >= 1.0:
        return f"{t:.2f} s"
    if abs(t) >= 1e-3:
        return f"{t * 1e3:.2f} ms"
    return f"{t * 1e6:.2f} us"
