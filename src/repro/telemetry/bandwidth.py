"""AlgoBW / BusBW accounting (paper §IV-C1).

*AlgoBW* is the bandwidth the algorithm sees: gathered bytes divided by
time.  *BusBW* is what the NVLink fabric actually carries.  Two BusBW
definitions coexist, and each figure uses exactly one:

- **measured** — remote bytes (home GPU != requester) divided by time.
  This is what :func:`bw_from_gather_stats` reports whenever the stats dict
  carries ``gather_remote_bytes`` (every :class:`WholeTensor` does), and
  what the Fig. 10 NCCL-vs-DSM comparison uses
  (:meth:`DistributedGatherTrace.step4_bus_bw`).
- **uniform estimate** — ``AlgoBW * (N-1)/N``, the conversion for a uniform
  gather over ``N`` GPUs where only that fraction of traffic crosses the
  fabric.  :func:`bus_bw` implements it; the Fig. 8 segment-size sweep uses
  it (its row placement is uniform by construction), and
  :func:`bw_from_gather_stats` falls back to it when remote bytes were not
  recorded (e.g. :class:`~repro.dsm.tiered_tensor.TieredTensor` stats, where
  all traffic crosses PCIe or disk and the split is meaningless).
"""

from __future__ import annotations


def algo_bw(total_bytes: float, seconds: float) -> float:
    """Algorithm-visible bandwidth."""
    if seconds <= 0:
        return 0.0
    return total_bytes / seconds


def bus_bw(total_bytes: float, seconds: float, num_gpus: int) -> float:
    """Fabric bandwidth of a *uniform* gather over ``num_gpus`` GPUs.

    The ``(N-1)/N`` estimate; prefer the measured definition (remote bytes
    / time) whenever the access pattern's owner distribution is known.
    """
    if num_gpus <= 1:
        return 0.0
    return algo_bw(total_bytes, seconds) * (num_gpus - 1) / num_gpus


def bw_from_gather_stats(stats: dict, num_gpus: int) -> dict[str, float]:
    """Compute both bandwidths from a gather stats dict.

    BusBW uses the *measured* remote bytes when the stats carry
    ``gather_remote_bytes``; otherwise it falls back to the uniform
    ``(N-1)/N`` estimate (this is the only place ``num_gpus`` enters the
    arithmetic — with measured remote bytes it is passed through for
    context only).
    """
    t = stats.get("gather_time", 0.0)
    total = stats.get("gather_bytes", 0)
    remote = stats.get("gather_remote_bytes")
    if remote is not None:
        bus = algo_bw(remote, t)
    else:
        bus = bus_bw(total, t, num_gpus)
    return {
        "algo_bw": algo_bw(total, t),
        "bus_bw": bus,
        "num_gpus": num_gpus,
    }
