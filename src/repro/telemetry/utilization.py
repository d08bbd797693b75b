"""GPU-utilization traces from the simulated timeline (paper Fig. 12).

``nvidia-smi``-style utilization: the fraction of each sampling window in
which the device had a kernel resident (a *busy* span).  WholeGraph keeps
every phase on the GPU, so utilization stays ≥95 %; the baselines' GPUs
idle through the host sampling/gather phases and the trace collapses.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.clock import Timeline


def utilization_trace(
    timeline: Timeline,
    device: str,
    window: float,
    t_end: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(window_centers, utilization%)`` for one device over
    ``[0, t_end]``.

    ``window`` is the sampling period (``nvidia-smi`` polls ~1 s; the
    experiments use a window that yields ~100 points per run).  The
    windows cover ``[0, t_end]``, the last one partly if ``window`` does
    not divide ``t_end``; ``window = t_end / k`` gives exactly ``k``
    windows, whichever way the division rounds.
    """
    spans = timeline.device_spans(device)
    if t_end is None:
        t_end = max((s.end for s in spans), default=window)
    nw = max(1, int(np.ceil(t_end / window * (1 - 1e-12))))
    edges = np.arange(nw + 1) * window
    busy = np.zeros(nw)

    # vectorised distribution of every busy span over the windows it
    # overlaps: clip the spans to the sampled range, then spread each one as
    # (full window width over its covered windows) minus the partial-window
    # corrections at its two ends — all via searchsorted + a difference array
    starts = np.array([s.start for s in spans if s.busy])
    ends = np.array([s.end for s in spans if s.busy])
    if starts.size:
        starts = np.clip(starts, edges[0], edges[-1])
        ends = np.clip(ends, edges[0], edges[-1])
        keep = ends > starts
        starts, ends = starts[keep], ends[keep]
    if starts.size:
        lo = np.clip(np.searchsorted(edges, starts, side="right") - 1,
                     0, nw - 1)
        hi = np.clip(np.searchsorted(edges, ends, side="left"), 1, nw)
        # full window width over windows [lo, hi)
        diff = np.zeros(nw + 1)
        np.add.at(diff, lo, window)
        np.add.at(diff, hi, -window)
        busy = np.cumsum(diff)[:nw]
        # trim the first window down to the true overlap start ...
        np.add.at(busy, lo, -(starts - edges[lo]))
        # ... and the last one down to the true overlap end
        np.add.at(busy, hi - 1, -(edges[hi] - ends))
    centers = (edges[:-1] + edges[1:]) / 2
    return centers, 100.0 * busy / window


def mean_utilization(
    timeline: Timeline, device: str, t_end: float | None = None,
) -> float:
    """Overall busy fraction (%) of a device over ``[0, t_end]``."""
    spans = timeline.device_spans(device)
    if t_end is None:
        t_end = max((s.end for s in spans), default=0.0)
    if t_end <= 0:
        return 0.0
    busy = sum(
        max(0.0, min(s.end, t_end) - max(s.start, 0.0))
        for s in spans
        if s.busy
    )
    return 100.0 * busy / t_end
