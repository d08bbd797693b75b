"""WholeTensor: a typed 2-D array stored in WholeMemory.

This is the object WholeGraph stores node features (and CSR arrays) in:
rows are partitioned across GPUs in contiguous blocks, and any GPU can gather
an arbitrary set of rows in a single "kernel" — the shared-memory global
gather of paper §III-C3 (right side of Fig. 4).

Two coupled behaviours:

- **functional**: ``gather``/``scatter`` really move the data.  The
  partitions are consecutive views of one rank-major host buffer
  (:attr:`WholeMemory.storage`), so an access maps each requested row to
  its flat slot once and makes one NumPy index, like the one kernel that
  reads the DSM pointer table;
- **performance**: every access charges the calling GPU's clock using the
  Fig. 8 segment-size bandwidth curve, with the remote fraction computed
  from the actual owner distribution of the requested rows.

``materialize=False`` creates an accounting-only tensor (no backing NumPy
data) so full-scale footprints like ogbn-papers100M's 53 GB feature matrix
can be modelled without 53 GB of host RAM (Table IV).
"""

from __future__ import annotations

import numpy as np

from repro.hardware import costmodel
from repro.hardware.machine import SimNode
from repro.dsm.whole_memory import WholeMemory, split_evenly
from repro.telemetry import metrics


class WholeTensor:
    """A ``(num_rows, num_cols)`` array partitioned row-wise across GPUs."""

    def __init__(
        self,
        node: SimNode,
        num_rows: int,
        num_cols: int,
        dtype=np.float32,
        tag: str = "wholetensor",
        charge_setup: bool = True,
        materialize: bool = True,
        rows_per_rank: list[int] | None = None,
        partition: str = "block",
    ):
        """``partition`` selects the row layout: ``"block"`` gives each rank
        one contiguous range (the layout the graph store's hash partition
        produces), ``"cyclic"`` deals rows round-robin (``owner = row % N``)
        — the balanced layout for arbitrary access patterns, matching the
        chunked/strided placements of the open-source WholeGraph.
        ``rows_per_rank`` is only meaningful for block partitions."""
        self.node = node
        self.num_rows = int(num_rows)
        self.num_cols = int(num_cols)
        self.dtype = np.dtype(dtype)
        self.row_bytes = self.num_cols * self.dtype.itemsize
        self.materialized = materialize
        self.tag = tag
        if partition not in ("block", "cyclic"):
            raise ValueError("partition must be 'block' or 'cyclic'")
        if partition == "cyclic" and rows_per_rank is not None:
            raise ValueError("cyclic partition derives rows_per_rank itself")
        self.partition = partition

        if partition == "cyclic":
            n = node.num_gpus
            rows_per_rank = [
                (self.num_rows - r + n - 1) // n for r in range(n)
            ]
        elif rows_per_rank is None:
            rows_per_rank = split_evenly(self.num_rows, node.num_gpus)
        elif (
            len(rows_per_rank) != node.num_gpus
            or sum(rows_per_rank) != self.num_rows
        ):
            raise ValueError(
                "rows_per_rank must have one entry per GPU and sum to num_rows"
            )
        self.rows_per_rank = [int(r) for r in rows_per_rank]
        self.row_offsets = np.concatenate(
            ([0], np.cumsum(self.rows_per_rank))
        ).astype(np.int64)
        partition_bytes = [r * self.row_bytes for r in self.rows_per_rank]
        if materialize:
            self.memory = WholeMemory(
                node, partition_bytes, tag=tag, charge_setup=charge_setup
            )
            self.memory.materialize()
            #: every row in rank-major order: rank 0's rows, then rank 1's
            self._flat = self.memory.storage.view(self.dtype).reshape(
                self.num_rows, self.num_cols
            )
        else:
            # accounting-only: reserve device memory and charge setup, but
            # keep no host-side data.
            self.memory = None
            self._flat = None
            self._allocations = [
                node.gpu_memory[r].allocate(partition_bytes[r], tag=tag)
                for r in range(node.num_gpus)
            ]
            if charge_setup:
                t = costmodel.dsm_setup_time(sum(partition_bytes))
                for clock in node.gpu_clock:
                    clock.advance(t, phase="dsm_setup")
                node.sync()

        #: cumulative access statistics (read by telemetry)
        self.stats = {
            "gather_calls": 0,
            "gather_rows": 0,
            "gather_bytes": 0,
            "gather_remote_bytes": 0,
            "gather_time": 0.0,
        }

    # -- layout --------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_cols)

    @property
    def total_bytes(self) -> int:
        return self.num_rows * self.row_bytes

    def rank_of_row(self, rows) -> np.ndarray:
        """Owning rank of each (global) row index."""
        rows = np.asarray(rows, dtype=np.int64)
        if self.partition == "cyclic":
            return rows % self.node.num_gpus
        return (
            np.searchsorted(self.row_offsets, rows, side="right") - 1
        ).astype(np.int64)

    def _owners_and_local(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map global rows to ``(owner rank, local index)`` per layout."""
        owners = self.rank_of_row(rows)
        if self.partition == "cyclic":
            return owners, rows // self.node.num_gpus
        return owners, rows - self.row_offsets[owners]

    def _slots(self, rows: np.ndarray) -> np.ndarray:
        """Rank-major flat slot of each global row: the row itself if block,
        ``row_offsets[row % N] + row // N`` if cyclic."""
        if self.partition == "block":
            return rows
        n = self.node.num_gpus
        return self.row_offsets[rows % n] + rows // n

    def _read(self, rows: np.ndarray) -> np.ndarray:
        """Copy out checked ``rows`` with one index over the flat buffer."""
        # the slots of checked rows are in range, so "clip" clips nothing;
        # it only spares the bounds pass and buffered copy of "raise"
        return np.take(self._flat, self._slots(rows), axis=0, mode="clip")

    def _write(self, rows: np.ndarray, values) -> None:
        """Store ``values`` at checked ``rows`` (a repeated row keeps the last)."""
        self._flat[self._slots(rows)] = np.asarray(
            values, dtype=self.dtype
        ).reshape(rows.size, self.num_cols)

    def _remote_fraction(self, rows: np.ndarray, rank: int) -> float:
        """Share of ``rows`` another rank owns (the NVLink share)."""
        remote = np.count_nonzero(self.rank_of_row(rows) != rank)
        return float(remote) / max(rows.size, 1)

    def local_part(self, rank: int) -> np.ndarray:
        """The rows resident on ``rank`` (a view, not a copy)."""
        self._require_data()
        return self._flat[self.row_offsets[rank]:self.row_offsets[rank + 1]]

    def _require_data(self) -> None:
        if not self.materialized:
            raise RuntimeError(
                "tensor was created with materialize=False (accounting only)"
            )

    def _check_rows(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.num_rows):
            raise IndexError(
                f"row index out of range [0, {self.num_rows}) "
                f"(got min={rows.min()}, max={rows.max()})"
            )
        return rows

    # -- bulk load (host -> device over PCIe) ---------------------------------

    def load_from_host(self, array: np.ndarray, phase: str = "load") -> float:
        """Populate the tensor from a host array, charging PCIe streams.

        Each rank DMA-copies its own partition concurrently; returns the
        simulated per-rank transfer time.  A block tensor keeps ``array``
        itself as its host bytes (its rank-major order is row order), so a
        caller that goes on writing ``array`` passes a copy; a cyclic one
        copies the strided rows into its own buffer.
        """
        self._require_data()
        array = np.ascontiguousarray(array, dtype=self.dtype).reshape(
            self.num_rows, self.num_cols
        )
        n = self.node.num_gpus
        if self.partition == "block":
            self.memory.attach(array.reshape(-1).view(np.uint8))
            self._flat = array
        else:
            for rank in range(n):
                self.local_part(rank)[:] = array[rank::n]
        t = 0.0
        for rank in range(n):
            rows = self.rows_per_rank[rank]
            t = costmodel.pcie_host_to_gpu_time(
                rows * self.row_bytes, shared=True
            )
            self.node.gpu_clock[rank].advance(
                t, phase=phase, category="pcie",
                args={"rows": rows, "bytes": rows * self.row_bytes,
                      "tensor": self.tag},
            )
        self.node.sync()
        return t

    # -- the shared-memory global gather (one kernel) -------------------------

    def gather(self, rows, rank: int, phase: str = "gather") -> np.ndarray:
        """Gather ``rows`` into ``rank``'s memory in one kernel.

        The underlying NVLink/NVSwitch handles all communication without
        software involvement (paper Fig. 4, right).  Returns the gathered
        ``(len(rows), num_cols)`` array.
        """
        self._require_data()
        rows = self._check_rows(rows)
        out = self._read(rows)

        total_bytes = rows.size * self.row_bytes
        remote = self._remote_fraction(rows, rank)
        t = costmodel.gather_time(
            total_bytes,
            self.row_bytes,
            self.node.num_gpus,
            remote_fraction=remote,
        )
        clock = self.node.gpu_clock[rank]
        injector = self.node.fault_injector
        if injector is not None:
            # degraded fabric slows only the NVLink-crossing share; lost
            # replies cost timeout+backoff stalls before the re-issue lands
            t = injector.faulted_gather_time(
                t, remote, clock, self.node.node_id
            )
        args = {"rows": int(rows.size), "bytes": int(total_bytes),
                "remote_bytes": int(round(total_bytes * remote)),
                "tensor": self.tag}
        clock.advance(t, phase=phase, category="gather", args=args)
        self._account(args, t, clock.now)
        return out

    def _account(self, args: dict, t: float, now: float) -> None:
        """Book one read of ``t`` seconds (span ``args``) into the stats
        and the ``gather_*`` ledgers: remote bytes ride NVLink, the rest
        is HBM."""
        remote_bytes = args["remote_bytes"]
        st = self.stats
        st["gather_calls"] += 1
        st["gather_rows"] += args["rows"]
        st["gather_bytes"] += args["bytes"]
        st["gather_remote_bytes"] += remote_bytes
        st["gather_time"] += t

        reg = metrics.get_registry()
        reg.counter("gather_requests_total", tensor=self.tag).inc(1)
        reg.counter("gather_rows_total", tensor=self.tag).inc(args["rows"])
        reg.counter("gather_link_bytes_total", link="nvlink").inc(
            remote_bytes, t=now
        )
        reg.counter("gather_link_bytes_total", link="hbm").inc(
            args["bytes"] - remote_bytes, t=now
        )
        reg.counter("gather_seconds_total", tensor=self.tag).inc(t)
        reg.histogram("gather_rows_per_call", tensor=self.tag).observe(
            args["rows"]
        )

    def gather_no_cost(self, rows) -> np.ndarray:
        """Functional gather without clock charging (evaluation paths)."""
        self._require_data()
        return self._read(self._check_rows(rows))

    # -- pricing a read through a hot-row cache ----------------------------------

    def prefill_time(self, rows) -> float:
        """A cache prefill's read of ``rows``: one bulk gather at the
        uniform remote fraction."""
        nbytes = len(rows) * self.row_bytes
        return costmodel.gather_time(nbytes, self.row_bytes, self.node.num_gpus)

    def cached_read_cost(
        self, rows: np.ndarray, hit: np.ndarray, rank: int
    ) -> tuple[float, dict, int]:
        """``(seconds, span args, bytes saved)`` of reading checked ``rows``
        onto ``rank`` when its HBM cache serves the ``hit`` rows.

        Hits plus locally owned misses stream from HBM while remote misses
        ride the NVLink random-read curve; both streams overlap in-kernel
        (:func:`~repro.hardware.costmodel.cached_gather_time`).  The cache
        saved the NVLink bytes of its remote-owned hits.
        """
        rb = self.row_bytes
        remote = self.rank_of_row(rows) != rank
        remote_miss = int(np.count_nonzero(~hit & remote))
        local_rows = rows.size - remote_miss
        t = costmodel.cached_gather_time(
            local_rows * rb, remote_miss * rb, rb
        )
        args = {"rows": int(rows.size),
                "cache_hits": int(np.count_nonzero(hit)),
                "remote_miss_rows": remote_miss,
                "bytes": int(rows.size * rb),
                "remote_bytes": int(remote_miss * rb)}
        return t, args, int(np.count_nonzero(hit & remote)) * rb

    @staticmethod
    def fabric_share(args: dict) -> float:
        """The share of a cached read's bytes that crossed NVLink."""
        return args["remote_bytes"] / args["bytes"] if args["bytes"] else 0.0

    def scatter_no_cost(self, rows, values: np.ndarray) -> None:
        """Functional scatter without clock charging (restore/update paths)."""
        self._require_data()
        self._write(self._check_rows(rows), values)

    def scatter(
        self, rows, values: np.ndarray, rank: int, phase: str = "scatter"
    ) -> None:
        """Write ``values`` to ``rows`` from ``rank`` (single store kernel)."""
        self._require_data()
        rows = self._check_rows(rows)
        self._write(rows, values)
        remote = self._remote_fraction(rows, rank)
        total_bytes = rows.size * self.row_bytes
        t = costmodel.gather_time(
            total_bytes,
            self.row_bytes,
            self.node.num_gpus,
            remote_fraction=remote,
        )
        self.node.gpu_clock[rank].advance(
            t, phase=phase, category="gather",
            args={"rows": int(rows.size), "bytes": int(total_bytes),
                  "remote_bytes": int(round(total_bytes * remote)),
                  "tensor": self.tag},
        )

    # -- lifecycle -------------------------------------------------------------

    def free(self) -> None:
        """Release device memory."""
        if self.materialized:
            self.memory.free()
            self._flat = None
        else:
            for rank, alloc in enumerate(self._allocations):
                self.node.gpu_memory[rank].free(alloc)
            self._allocations = []
