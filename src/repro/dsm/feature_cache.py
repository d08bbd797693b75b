"""Per-rank hot-row HBM cache over a DSM or host-memory gather path.

Neighbor sampling produces a heavily skewed access pattern: high-degree nodes
land in almost every mini-batch's input frontier, so their feature rows are
re-gathered over NVLink (or PCIe) again and again.  PyTorch-Direct and Quiver
exploit exactly this by pinning the hottest rows in the local GPU's HBM; this
module reproduces that optimisation on top of the distributed shared memory
and the host-memory tier beneath it.

Each rank owns an independent cache of ``capacity_rows`` feature rows:

- **static policy** — the cache is filled once with the globally hottest rows
  (degree order, the classic degree-based static placement) and never changes;
- **clock policy** — a CLOCK (second-chance) approximation of LRU: hits set a
  reference bit, misses are inserted, eviction sweeps the clock hand past
  referenced slots.

Both behaviours are *functional* (real NumPy rows are copied into and served
from per-rank cache arrays, so cached gathers are bit-identical to uncached
ones) and *performance-modelled* (cache capacity is allocated against the
rank's :class:`~repro.hardware.memory.DeviceMemory`).  The cached tensor
prices each read of its own rows (``cached_read_cost``): a
:class:`~repro.dsm.whole_tensor.WholeTensor` puts hits and locally owned
misses on the HBM curve and remote misses on the Fig. 8 NVLink curve; a
:class:`~repro.dsm.tiered_tensor.TieredTensor` puts its misses on PCIe and
disk.  :meth:`FeatureCache.book` keeps the one hit/miss ledger of every
served read, the streaming loader's included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dsm.tiered_tensor import TieredTensor
from repro.dsm.whole_tensor import WholeTensor
from repro.hardware import costmodel
from repro.telemetry import metrics

#: eviction/placement policies the cache understands
CACHE_POLICIES = ("static", "clock")


@dataclass
class _RankCache:
    """The per-rank cache arrays and CLOCK state."""

    #: cache slot of each global row (-1 = not cached)
    slot_of: np.ndarray
    #: the cached rows themselves, one row per slot
    data: np.ndarray
    #: global row held by each slot (-1 = empty)
    row_of: np.ndarray
    #: CLOCK reference bits
    ref: np.ndarray
    hand: int = 0
    filled: int = 0
    stats: dict = field(default_factory=dict)


def _new_stats() -> dict:
    return {
        "gather_calls": 0,
        "hits": 0,
        "misses": 0,
        "hit_bytes": 0,
        "miss_bytes": 0,
        #: fabric traffic the cache actually eliminated: remote-owned rows
        #: served from it (DSM), or every hit (host memory)
        "remote_bytes_saved": 0,
        "gather_time": 0.0,
    }


class FeatureCache:
    """A per-rank hot-row cache layered over a tensor's gather."""

    def __init__(
        self,
        tensor: WholeTensor | TieredTensor,
        capacity_rows: int,
        policy: str = "static",
        hot_rows: np.ndarray | None = None,
        tag: str = "feature_cache",
        charge_fill: bool = True,
    ):
        """``capacity_rows`` is the per-rank capacity.  The static policy
        requires ``hot_rows`` (global row IDs, hottest first); the clock
        policy starts empty and learns the hot set online."""
        if policy not in CACHE_POLICIES:
            raise ValueError(f"policy must be one of {CACHE_POLICIES}")
        tensor._require_data()
        self.tensor = tensor
        self.node = tensor.node
        self.policy = policy
        self.capacity_rows = int(min(max(capacity_rows, 0), tensor.num_rows))
        self.row_bytes = tensor.row_bytes

        # capacity accounting: every rank reserves the full cache footprint
        # against its device memory, like any other allocation
        self._allocations = [
            self.node.gpu_memory[r].allocate(
                self.capacity_rows * self.row_bytes, tag=tag
            )
            for r in range(self.node.num_gpus)
        ]
        cap = self.capacity_rows
        self._ranks = [
            _RankCache(
                slot_of=np.full(tensor.num_rows, -1, dtype=np.int64),
                data=np.empty((cap, tensor.num_cols), dtype=tensor.dtype),
                row_of=np.full(cap, -1, dtype=np.int64),
                ref=np.zeros(cap, dtype=bool),
                stats=_new_stats(),
            )
            for _ in range(self.node.num_gpus)
        ]

        if policy == "static":
            if hot_rows is None:
                raise ValueError("the static policy needs a hot_rows ranking")
            self._prefill(np.asarray(hot_rows, dtype=np.int64), charge_fill)

    @classmethod
    def from_ratio(
        cls,
        tensor: WholeTensor | TieredTensor,
        cache_ratio: float,
        policy: str = "static",
        degrees: np.ndarray | None = None,
        **kwargs,
    ) -> "FeatureCache":
        """Size the cache as a fraction of the tensor's rows.

        For the static policy, ``degrees`` ranks the rows (hottest = highest
        degree, the access-frequency proxy neighbor sampling induces).
        """
        if not 0.0 <= cache_ratio <= 1.0:
            raise ValueError("cache_ratio must be within [0, 1]")
        capacity = int(round(cache_ratio * tensor.num_rows))
        hot_rows = None
        if policy == "static":
            if degrees is None:
                raise ValueError("static policy needs per-row degrees")
            degrees = np.asarray(degrees)
            if degrees.shape[0] != tensor.num_rows:
                raise ValueError("need one degree per tensor row")
            hot_rows = np.argsort(-degrees, kind="stable")[:capacity]
        return cls(tensor, capacity, policy=policy, hot_rows=hot_rows, **kwargs)

    # -- setup -----------------------------------------------------------------

    def _prefill(self, hot_rows: np.ndarray, charge_fill: bool) -> None:
        """Fill every rank's cache with the hottest rows (static policy).

        A charged fill costs each rank one bulk read of the rows out of
        the tensor plus the HBM write-back."""
        rows = hot_rows[: self.capacity_rows]
        if rows.size == 0:
            return
        data = self.tensor.gather_no_cost(rows)
        for rank, st in enumerate(self._ranks):
            n = rows.size
            st.data[:n] = data
            st.row_of[:n] = rows
            st.slot_of[rows] = np.arange(n)
            st.filled = n
            if charge_fill:
                t = self.tensor.prefill_time(rows) + costmodel.elementwise_time(
                    n * self.row_bytes
                )
                self.node.gpu_clock[rank].advance(t, phase="cache_fill")
        if charge_fill:
            self.node.sync()

    # -- the cached gather -----------------------------------------------------

    def gather(
        self, rows, rank: int, phase: str = "gather"
    ) -> np.ndarray:
        """Gather ``rows`` onto ``rank``, serving hot rows from local HBM.

        Bit-identical to ``tensor.gather`` — only the charged time and the
        cache state differ.
        """
        tensor = self.tensor
        rows = tensor._check_rows(rows)
        st = self._ranks[rank]
        out = np.empty((rows.size, tensor.num_cols), dtype=tensor.dtype)

        slots = st.slot_of[rows] if rows.size else np.empty(0, dtype=np.int64)
        hit = slots >= 0
        num_hits = int(np.count_nonzero(hit))
        if num_hits:
            out[hit] = st.data[slots[hit]]
        miss = ~hit
        if num_hits < rows.size:
            out[miss] = tensor._read(rows[miss])

        t, args, saved = tensor.cached_read_cost(rows, hit, rank)
        clock = self.node.gpu_clock[rank]
        injector = self.node.fault_injector
        if injector is not None:
            t = injector.faulted_gather_time(
                t, tensor.fabric_share(args), clock, self.node.node_id
            )
        if self.policy == "clock" and self.capacity_rows > 0:
            st.ref[slots[hit]] = True
            inserted = self._insert_misses(st, rows, out, miss)
            if inserted:
                # the miss rows are already in registers after the gather;
                # pay only the HBM write into the cache array
                t += costmodel.elementwise_time(inserted * self.row_bytes)
        clock.advance(t, phase=phase, category="gather", args=args)
        tensor._account(args, t, clock.now)
        self.book(rank, int(rows.size), num_hits, saved, t, clock.now)
        return out

    def book(
        self, rank: int, rows: int, hits: int, saved_bytes: int,
        seconds: float, now: float,
    ) -> None:
        """Book one served read of ``rows`` rows on ``rank``, ``hits`` of
        them out of the cache, into the rank's statistics and the
        ``cache_*`` metrics."""
        misses = rows - hits
        stats = self._ranks[rank].stats
        stats["gather_calls"] += 1
        stats["hits"] += hits
        stats["misses"] += misses
        stats["hit_bytes"] += hits * self.row_bytes
        stats["miss_bytes"] += misses * self.row_bytes
        stats["remote_bytes_saved"] += saved_bytes
        stats["gather_time"] += seconds

        reg = metrics.get_registry()
        reg.counter("cache_requests_total").inc(rows)
        reg.counter("cache_hits_total").inc(hits)
        reg.counter("cache_misses_total").inc(misses)
        reg.counter("cache_remote_bytes_saved_total").inc(saved_bytes)
        total = reg.total("cache_hits_total") + reg.total("cache_misses_total")
        reg.gauge("cache_hit_rate").set(
            reg.total("cache_hits_total") / total if total else 0.0, t=now
        )

    def hit_mask(self, rows: np.ndarray, rank: int) -> np.ndarray:
        """Which of the checked ``rows`` ``rank``'s cache holds."""
        return self._ranks[rank].slot_of[rows] >= 0

    def _insert_misses(
        self,
        st: _RankCache,
        rows: np.ndarray,
        gathered: np.ndarray,
        miss: np.ndarray,
    ) -> int:
        """CLOCK-insert each missed row (first occurrence wins)."""
        miss_pos = np.flatnonzero(miss)
        if miss_pos.size == 0:
            return 0
        uniq, first = np.unique(rows[miss_pos], return_index=True)
        order = np.argsort(first)  # preserve first-seen order
        cap = self.capacity_rows
        for row, pos in zip(uniq[order], miss_pos[first[order]]):
            if st.filled < cap:
                slot = st.filled
                st.filled += 1
            else:
                # sweep past referenced slots, clearing their second chance
                while st.ref[st.hand]:
                    st.ref[st.hand] = False
                    st.hand = (st.hand + 1) % cap
                slot = st.hand
                st.hand = (st.hand + 1) % cap
                st.slot_of[st.row_of[slot]] = -1
            st.row_of[slot] = row
            st.slot_of[row] = slot
            st.data[slot] = gathered[pos]
            st.ref[slot] = True
        return int(uniq.size)

    # -- introspection ---------------------------------------------------------

    def rank_stats(self, rank: int) -> dict:
        """Cumulative hit/miss statistics of one rank's cache."""
        return dict(self._ranks[rank].stats)

    def summary(self) -> dict:
        """Aggregate statistics over all ranks (plus the derived hit rate)."""
        total = _new_stats()
        for st in self._ranks:
            for k, v in st.stats.items():
                total[k] += v
        requests = total["hits"] + total["misses"]
        total["hit_rate"] = total["hits"] / requests if requests else 0.0
        total["capacity_rows"] = self.capacity_rows
        total["policy"] = self.policy
        return total

    @property
    def hit_rate(self) -> float:
        return self.summary()["hit_rate"]

    def cached_rows(self, rank: int) -> np.ndarray:
        """The global rows currently resident in ``rank``'s cache."""
        st = self._ranks[rank]
        return np.sort(st.row_of[: st.filled][st.row_of[: st.filled] >= 0])

    def free(self) -> None:
        """Release the per-rank cache memory."""
        for rank, alloc in enumerate(self._allocations):
            self.node.gpu_memory[rank].free(alloc)
        self._allocations = []
