"""Feature-cache telemetry: per-rank hit rates and bytes-saved tables.

The hot-row cache (:mod:`repro.dsm.feature_cache`) keeps cumulative per-rank
counters; this module turns them into the same report shapes the rest of the
telemetry package produces: per-rank stats and a per-rank table.
"""

from __future__ import annotations

from repro.telemetry.report import format_table


def per_rank_cache_stats(cache) -> list[dict]:
    """One stats dict per rank, with the derived per-rank hit rate."""
    rows = []
    for rank in range(cache.node.num_gpus):
        stats = cache.rank_stats(rank)
        requests = stats["hits"] + stats["misses"]
        stats["rank"] = rank
        stats["hit_rate"] = stats["hits"] / requests if requests else 0.0
        rows.append(stats)
    return rows


def cache_report(cache) -> str:
    """Per-rank hit-rate / bytes-saved table (plus the aggregate row)."""
    rows = [
        [
            s["rank"],
            s["hits"],
            s["misses"],
            f"{s['hit_rate'] * 100:.1f}%",
            s["remote_bytes_saved"] / 2**20,
            s["gather_time"] * 1e3,
        ]
        for s in per_rank_cache_stats(cache)
    ]
    total = cache.summary()
    rows.append(
        [
            "all",
            total["hits"],
            total["misses"],
            f"{total['hit_rate'] * 100:.1f}%",
            total["remote_bytes_saved"] / 2**20,
            total["gather_time"] * 1e3,
        ]
    )
    return format_table(
        ["Rank", "hits", "misses", "hit rate", "NVLink MiB saved",
         "gather (ms)"],
        rows,
        title=(
            f"Feature cache ({total['policy']} policy, "
            f"{total['capacity_rows']} rows/rank)"
        ),
    )
