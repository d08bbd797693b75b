"""Host-memory storage beneath the DSM: pinned host DRAM + NVMe disk.

The open-source WholeGraph exposes a *host-pinned* memory type next to the
device-resident one: the data lives in CPU DRAM registered for GPU access,
and kernels read it directly over PCIe at the 16 GB/s shared uplink instead
of NVLink's 300 GB/s (paper §III-B's 18.75x).  Graphs whose features
exceed even host DRAM spill one tier further:

- **warm** — the hottest rows live in *pinned* host DRAM and are read
  zero-copy over PCIe (the PyTorch-Direct regime: GPU threads load host
  cache lines directly);
- **cold** — the tail lives on the node-local NVMe scratch and is staged
  disk->host (aligned-block reads into a pinned staging area) before the
  same zero-copy hop.

:class:`TieredTensor` is the one tensor for rows held in host memory:
``host_pinned_fraction=1.0`` is plain host-pinned storage (the graph
store's ``tier="host_pinned"`` features and the tiered store's CSR), and a
smaller fraction places the hottest rows warm by degree order, the
access-frequency proxy neighbor sampling induces.  Layered on top, the
*hot* tier is the per-rank HBM :class:`~repro.dsm.feature_cache.
FeatureCache`, whose reads the tensor prices with
:meth:`TieredTensor.cached_read_cost`: hits on the local HBM curve, warm
and cold misses on PCIe and disk.

Gathers really move NumPy rows (bit-identical to a device gather), and
every access charges the calling GPU's clock through the zero-copy cost
regime in :mod:`repro.hardware.costmodel`, stamping
``host_bytes``/``disk_bytes`` span args that feed the per-tier ledgers,
critical-path link blame and the ``host_bw_2x`` what-if knob.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.hardware import costmodel
from repro.hardware.machine import SimNode
from repro.telemetry import metrics

__all__ = ["TIER_HOST", "TIER_DISK", "TieredTensor"]

#: tier codes of :attr:`TieredTensor.tier_of`
TIER_HOST = 0
TIER_DISK = 1


class TieredTensor:
    """A ``(num_rows, num_cols)`` array held in host memory.

    The warm fraction is pinned in host DRAM (allocated against the node's
    host memory); the cold tail lives on disk and only its staging buffer
    counts against host DRAM.  With no cold rows it is plain host-pinned
    storage: no staging buffer and no per-row tier map.  Mirrors the
    ``WholeTensor`` gather API so the graph store (and the trainer above
    it) can swap storage locations transparently.
    """

    def __init__(
        self,
        node: SimNode,
        num_rows: int,
        num_cols: int,
        dtype=np.float32,
        tag: str = "tiered",
        host_pinned_fraction: float | None = None,
        hotness: np.ndarray | None = None,
    ):
        """``host_pinned_fraction`` defaults to
        :data:`repro.config.HOST_PINNED_FRACTION`.  ``hotness`` ranks rows
        for placement (hottest = largest value, typically node degree);
        without it, the lowest row IDs are warm."""
        if host_pinned_fraction is None:
            host_pinned_fraction = config.HOST_PINNED_FRACTION
        if not 0.0 <= host_pinned_fraction <= 1.0:
            raise ValueError("host_pinned_fraction must be within [0, 1]")
        self.node = node
        self.num_rows = int(num_rows)
        self.num_cols = int(num_cols)
        self.dtype = np.dtype(dtype)
        self.row_bytes = self.num_cols * self.dtype.itemsize
        self.tag = tag
        self.host_pinned_fraction = float(host_pinned_fraction)

        n_host = int(round(self.host_pinned_fraction * self.num_rows))
        n_host = min(max(n_host, 0), self.num_rows)
        self.host_rows = n_host
        self.disk_rows = self.num_rows - n_host
        if hotness is not None:
            hotness = np.asarray(hotness)
            if hotness.shape[0] != self.num_rows:
                raise ValueError("need one hotness value per row")
        staging = 0
        if not self.disk_rows:
            #: tier of each row (:data:`TIER_HOST` or :data:`TIER_DISK`);
            #: a zero-stride view when every row is warm
            self.tier_of = np.broadcast_to(
                np.int8(TIER_HOST), (self.num_rows,)
            )
        else:
            if hotness is not None:
                order = np.argsort(-hotness, kind="stable")
            else:
                order = np.arange(self.num_rows, dtype=np.int64)
            self.tier_of = np.full(self.num_rows, TIER_DISK, dtype=np.int8)
            self.tier_of[order[:n_host]] = TIER_HOST
            staging = config.DISK_BLOCK_BYTES * config.PREFETCH_DEPTH

        # host DRAM accounting: the warm rows plus the disk staging area
        self._allocation = node.host_memory.allocate(
            n_host * self.row_bytes + staging, tag=tag
        )
        self._data = np.zeros((self.num_rows, self.num_cols), dtype=self.dtype)
        self.stats = {
            "gather_calls": 0,
            "gather_rows": 0,
            "gather_bytes": 0,
            "host_bytes": 0,
            "disk_bytes": 0,
            "staged_bytes": 0,
            "gather_time": 0.0,
        }

    # -- layout ----------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_cols)

    @property
    def total_bytes(self) -> int:
        return self.num_rows * self.row_bytes

    def _require_data(self) -> None:
        """WholeTensor-API shim: tiered tensors are always materialized."""

    def _check_rows(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.num_rows):
            raise IndexError(f"row index out of range [0, {self.num_rows})")
        return rows

    def tier_split(self, rows: np.ndarray) -> tuple[int, int]:
        """``(warm_rows, cold_rows)`` of an (already validated) row set."""
        if not self.disk_rows:
            return int(rows.size), 0
        host = int(np.count_nonzero(self.tier_of[rows] == TIER_HOST))
        return host, int(rows.size) - host

    def _read(self, rows: np.ndarray) -> np.ndarray:
        """Copy out checked ``rows``."""
        return self._data[rows]

    # -- load ------------------------------------------------------------------

    def load_from_host(self, array: np.ndarray, phase: str = "load") -> float:
        """Populate from a host array, which the tensor keeps as its rows
        (already in DRAM, so no PCIe; disk write-behind charged to
        nobody)."""
        self._data = np.asarray(array, dtype=self.dtype).reshape(
            self.num_rows, self.num_cols
        )
        return 0.0

    # -- pricing ---------------------------------------------------------------

    def fetch_time(self, rows) -> tuple[float, dict]:
        """Host-tier fetch cost of ``rows`` plus the trace span args.

        Touches no clock: :meth:`gather` charges it inline on the calling
        rank, while the streaming loader launches the same duration on the
        dedicated host stream and lets the consumer depend on its event.
        """
        rows = self._check_rows(rows)
        host_rows, disk_rows = self.tier_split(rows)
        host_bytes = host_rows * self.row_bytes
        disk_bytes = disk_rows * self.row_bytes
        t = costmodel.tiered_gather_time(
            0.0, host_bytes, disk_bytes, self.row_bytes
        )
        args = {
            "rows": int(rows.size),
            "bytes": int(host_bytes + disk_bytes),
            "host_bytes": int(host_bytes),
            "disk_bytes": int(disk_bytes),
            "tensor": self.tag,
        }
        return t, args

    def prefill_time(self, rows) -> float:
        """A cache prefill's read of ``rows``: one fetch up from the
        host/disk tier."""
        return self.fetch_time(rows)[0]

    def cached_read_cost(
        self, rows: np.ndarray, hit: np.ndarray, rank: int
    ) -> tuple[float, dict, int]:
        """``(seconds, span args, bytes saved)`` of reading checked ``rows``
        onto ``rank`` when its HBM cache serves the ``hit`` rows.

        Hits stream from local HBM while warm misses ride zero-copy PCIe
        and cold misses chain disk staging + PCIe; the streams overlap
        in-kernel, so the slowest dominates.  Every hit is a host or disk
        transfer the cache saved.
        """
        num_hits = int(np.count_nonzero(hit))
        host_miss, disk_miss = self.tier_split(rows[~hit])
        rb = self.row_bytes
        host_bytes = host_miss * rb
        disk_bytes = disk_miss * rb
        hit_bytes = num_hits * rb
        t = costmodel.tiered_gather_time(hit_bytes, host_bytes, disk_bytes, rb)
        args = {"rows": int(rows.size), "cache_hits": num_hits,
                "bytes": int(rows.size * rb),
                "host_bytes": int(host_bytes),
                "disk_bytes": int(disk_bytes),
                "tensor": self.tag}
        return t, args, hit_bytes

    @staticmethod
    def fabric_share(args: dict) -> float:
        """The share of a cached read's bytes that crossed the host
        fabric: its warm and cold misses."""
        if not args["bytes"]:
            return 0.0
        return (args["host_bytes"] + args["disk_bytes"]) / args["bytes"]

    # -- gathers ---------------------------------------------------------------

    def gather(self, rows, rank: int, phase: str = "gather") -> np.ndarray:
        """Synchronous tier gather onto GPU ``rank``.

        Warm rows arrive zero-copy over PCIe; cold rows pay the disk->host
        staging chain first.  Fault hooks mirror ``WholeTensor.gather``
        with a remote fraction of 1.0 — every byte crosses the host fabric.
        """
        rows = self._check_rows(rows)
        out = self._read(rows)
        t, args = self.fetch_time(rows)
        clock = self.node.gpu_clock[rank]
        injector = self.node.fault_injector
        if injector is not None:
            t = injector.faulted_gather_time(
                t, 1.0, clock, self.node.node_id
            )
        clock.advance(t, phase=phase, category="gather", args=args)
        self._account(args, t, clock.now)
        return out

    def gather_no_cost(self, rows) -> np.ndarray:
        """Functional gather without clock charging (evaluation paths)."""
        return self._read(self._check_rows(rows))

    def _account(self, args: dict, t: float, now: float) -> None:
        """Book one read of ``t`` seconds (span ``args``) into the stats
        and the ``gather_*``, per-link and per-tier ledgers; a read through
        the HBM cache also books its hits as HBM bytes."""
        st = self.stats
        st["gather_calls"] += 1
        st["gather_rows"] += args["rows"]
        st["gather_bytes"] += args["bytes"]
        st["host_bytes"] += args["host_bytes"]
        st["disk_bytes"] += args["disk_bytes"]
        st["gather_time"] += t
        reg = metrics.get_registry()
        reg.counter("gather_requests_total", tensor=self.tag).inc(1)
        reg.counter("gather_rows_total", tensor=self.tag).inc(args["rows"])
        reg.counter("gather_seconds_total", tensor=self.tag).inc(t)
        reg.histogram("gather_rows_per_call", tensor=self.tag).observe(
            args["rows"]
        )
        if "cache_hits" in args:
            reg.counter("gather_link_bytes_total", link="hbm").inc(
                args["cache_hits"] * self.row_bytes, t=now
            )
        # warm bytes ride PCIe; cold bytes are attributed to the disk stage
        # (their PCIe hop is implied by the chain)
        reg.counter("gather_link_bytes_total", link="pcie").inc(
            args["host_bytes"], t=now
        )
        reg.counter("gather_link_bytes_total", link="disk").inc(
            args["disk_bytes"], t=now
        )
        reg.counter("tier_gather_bytes_total", tier="host").inc(
            args["host_bytes"]
        )
        reg.counter("tier_gather_bytes_total", tier="disk").inc(
            args["disk_bytes"]
        )

    # -- lifecycle --------------------------------------------------------------

    def free(self) -> None:
        self.node.host_memory.free(self._allocation)
        self._data = None
