"""WholeEmbedding: a trainable embedding table in distributed shared memory.

WholeGraph's headline use case beyond feature storage is *trainable* node
embeddings that are too large to replicate per GPU (the "millions of users"
recommendation scenario): the table lives in WholeMemory, sharded row-wise
exactly like features, and every training step only touches the rows the
mini-batch referenced.

Three coupled pieces:

- **forward** — :meth:`WholeEmbedding.forward` gathers the requested rows
  through :meth:`~repro.dsm.whole_tensor.WholeTensor.gather`, so the access
  is priced on the Fig. 8 gather bandwidth curve, flows through the fault
  injector (gather retries / link degradation hit embedding rows the same
  way they hit features), and returns an autograd :class:`Tensor` whose
  pullback records the incoming row gradients;
- **backward** — row gradients accumulate in a pending list (duplicated
  rows and multiple forwards per step are allowed);
  :func:`dedup_row_grads` sums them into one gradient per unique row with
  one CSR g-SpMM, bit-identically to summing each row's contributions in
  occurrence order;
- **update push** — :meth:`push_row_grads` charges the cost of shipping the
  deduplicated row gradients to their owner shards: hash-table dedup
  (AppendUnique regime), scatter-add with atomic-collision pricing, and the
  NVLink share of the row payload, committed as a span on the comm-stream
  lane so the Chrome trace shows sparse row-grad traffic next to the dense
  all-reduce buckets.

The table is *not* a :class:`~repro.nn.module.Parameter` and never appears
in ``Module.parameters()``: the dense grad-sync overlap engine (bucketed
all-reduce over replicated parameters) skips it by construction, and the
sparse rows ride the comm stream through this module instead.
"""

from __future__ import annotations

import numpy as np

from repro.dsm.whole_tensor import WholeTensor
from repro.hardware import costmodel
from repro.hardware.machine import SimNode
from repro.nn.tensor import Tensor
from repro.ops.spmm import gspmm_sum
from repro.telemetry import metrics


def dedup_row_grads(
    rows: np.ndarray, grads: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scatter-add duplicated row gradients into one gradient per row.

    Returns ``(unique_rows, summed_grads, counts)`` where ``summed_grads[i]``
    is the float32 sum of every ``grads[j]`` with ``rows[j] ==
    unique_rows[i]``, added one by one from +0.0 in occurrence order: each
    row's occurrences, in order, form its CSR row of unit weights, and
    SciPy's g-SpMM adds ``1.0 * grads[j]`` into a zeroed row in that order
    — ``np.add.at``'s exact sequence, so bit-identical to it, signed zeros
    included (``test_dedup_row_grads_matches_sequential_sum``).
    """
    rows = np.asarray(rows, dtype=np.int64)
    grads = np.asarray(grads, dtype=np.float32)
    uniq, inverse, counts = np.unique(
        rows, return_inverse=True, return_counts=True
    )
    # distinct (rank, position) keys: the fast unstable argsort is stable
    order = np.argsort(inverse * rows.size + np.arange(rows.size))
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return uniq, gspmm_sum(indptr, order, grads), counts


class WholeEmbedding:
    """A trainable ``(num_rows, dim)`` float32 table sharded across GPUs."""

    def __init__(
        self,
        node: SimNode,
        num_rows: int,
        dim: int,
        rng: np.random.Generator | None = None,
        tag: str = "embedding",
        partition: str = "cyclic",
        charge_setup: bool = True,
    ):
        """``partition`` defaults to ``"cyclic"`` (``owner = row % N``): user
        and item IDs arrive in arbitrary hot/cold mixes, so round-robin is
        the balanced layout.  ``rng`` given: the table is initialised with
        ``N(0, 1/sqrt(dim))`` rows and the
        host->device load is charged on the PCIe streams like a feature
        load."""
        self.table = WholeTensor(
            node, num_rows, dim, dtype=np.float32, tag=tag,
            charge_setup=charge_setup, partition=partition,
        )
        #: raw (rows, grad) pairs recorded by forward pullbacks since the
        #: last optimizer step
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        #: cumulative update-path statistics (read by telemetry/reports)
        self.grad_stats = {
            "steps": 0,
            "raw_rows": 0,
            "rows_touched": 0,
            "grad_bytes": 0,
            "remote_grad_bytes": 0,
            "grad_time": 0.0,
        }
        if rng is not None:
            init = (
                rng.standard_normal((num_rows, dim))
                * (1.0 / float(np.sqrt(dim)))
            ).astype(np.float32)
            self.table.load_from_host(init, phase="embed_load")

    # -- layout ---------------------------------------------------------------

    @property
    def node(self) -> SimNode:
        return self.table.node

    @property
    def num_rows(self) -> int:
        return self.table.num_rows

    @property
    def dim(self) -> int:
        return self.table.num_cols

    @property
    def tag(self) -> str:
        return self.table.tag

    @property
    def row_bytes(self) -> int:
        return self.table.row_bytes

    @property
    def total_bytes(self) -> int:
        return self.table.total_bytes

    def rank_of_row(self, rows) -> np.ndarray:
        """Owning rank of each (global) row index."""
        return self.table.rank_of_row(rows)

    # -- forward gather -------------------------------------------------------

    def gather(
        self, rows, rank: int, phase: str = "embed_gather"
    ) -> np.ndarray:
        """Costed row gather (delegates to the WholeTensor gather kernel).

        On top of the generic gather metrics, the per-link *embedding* byte
        counters split this table's traffic out of the shared
        ``gather_link_bytes_total`` ledger.
        """
        stats = self.table.stats
        bytes0 = stats["gather_bytes"]
        remote0 = stats["gather_remote_bytes"]
        out = self.table.gather(rows, rank, phase=phase)
        moved = stats["gather_bytes"] - bytes0
        remote = stats["gather_remote_bytes"] - remote0
        reg = metrics.get_registry()
        now = self.node.gpu_clock[rank].now
        reg.counter(
            "embedding_link_bytes_total", tensor=self.tag, link="nvlink"
        ).inc(remote, t=now)
        reg.counter(
            "embedding_link_bytes_total", tensor=self.tag, link="hbm"
        ).inc(moved - remote, t=now)
        return out

    def gather_no_cost(self, rows) -> np.ndarray:
        """Functional row gather without clock charging (eval/serve-index)."""
        return self.table.gather_no_cost(rows)

    def forward(
        self, rows, rank: int = 0, phase: str = "embed_gather",
        charge: bool = True,
    ) -> Tensor:
        """Gather ``rows`` as an autograd tensor.

        The returned tensor is a tape *leaf with a pullback*: backward
        appends ``(rows, grad)`` to the pending row-gradient list that the
        sparse optimizer drains on its next step.  Duplicate rows in one
        call and multiple forwards per step both accumulate correctly
        (deduplication happens at step time).
        """
        rows = np.asarray(rows, dtype=np.int64).copy()
        data = (
            self.gather(rows, rank, phase=phase)
            if charge else self.gather_no_cost(rows)
        )

        def pullback(grad):
            self._pending.append(
                (rows, np.asarray(grad, dtype=np.float32).copy())
            )
            return ()

        out = Tensor(data)
        out.requires_grad = True
        out._backward = pullback
        return out

    # -- backward row gradients ----------------------------------------------

    @property
    def has_pending_grads(self) -> bool:
        return bool(self._pending)

    def zero_grad(self) -> None:
        """Drop any recorded row gradients without applying them."""
        self._pending = []

    def collect_row_grads(
        self,
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Drain pending grads into ``(rows, grads, raw_rows, atomic_rows)``.

        ``rows`` are unique and sorted; ``grads`` is the occurrence-order
        float32 scatter-add of every contribution (:func:`dedup_row_grads`).
        ``raw_rows`` counts the pre-dedup contributions (the hash-table op
        count) and ``atomic_rows`` the contributions that collided with a
        duplicate (the share paying the atomic-add penalty).
        """
        if not self._pending:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty((0, self.dim), dtype=np.float32), 0, 0
        rows = np.concatenate([r for r, _ in self._pending])
        grads = np.concatenate([g for _, g in self._pending])
        self._pending = []
        uniq, summed, counts = dedup_row_grads(rows, grads)
        atomic_rows = int(counts[counts > 1].sum())
        return uniq, summed, int(rows.size), atomic_rows

    def push_row_grads(
        self,
        rows: np.ndarray,
        grads: np.ndarray,
        raw_rows: int,
        atomic_rows: int,
        rank: int = 0,
        phase: str = "embed_grad",
    ) -> float:
        """Charge the row-gradient push to the owner shards.

        Prices dedup (hash-table regime), the scatter-add (atomic collisions
        at the duplicated share), and the cross-GPU row payload on the
        gather bandwidth curve; the whole push is committed as one span on
        the node's comm-stream lane with the rows/bytes split in its args,
        mirroring the dense ``allreduce_bucket`` spans.  Returns the charged
        duration.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return 0.0
        node = self.node
        owners = self.table.rank_of_row(rows)
        total_bytes = int(rows.size) * self.row_bytes
        remote = float(np.count_nonzero(owners != rank)) / max(rows.size, 1)
        remote_bytes = int(round(total_bytes * remote))
        plain_rows = raw_rows - atomic_rows
        t = (
            costmodel.hash_table_time(max(raw_rows, rows.size))
            + costmodel.backward_scatter_time(
                plain_rows, atomic_rows, self.row_bytes
            )
            + costmodel.gather_time(
                total_bytes, self.row_bytes, node.num_gpus,
                remote_fraction=remote,
            )
        )
        clock = node.gpu_clock[rank]
        start = clock.now
        clock.advance(
            t, phase=phase, category="comm",
            args={"rows": int(rows.size), "nbytes": total_bytes,
                  "remote_bytes": remote_bytes, "raw_rows": int(raw_rows),
                  "tensor": self.tag},
        )
        node.streams.comm(0).record(
            start, clock.now, phase=phase, category="comm",
            args={"rows": int(rows.size), "nbytes": total_bytes,
                  "remote_bytes": remote_bytes, "tensor": self.tag},
        )

        self.grad_stats["steps"] += 1
        self.grad_stats["raw_rows"] += int(raw_rows)
        self.grad_stats["rows_touched"] += int(rows.size)
        self.grad_stats["grad_bytes"] += total_bytes
        self.grad_stats["remote_grad_bytes"] += remote_bytes
        self.grad_stats["grad_time"] += t

        reg = metrics.get_registry()
        now = clock.now
        reg.counter("embedding_rows_touched_total", tensor=self.tag).inc(
            rows.size, t=now
        )
        reg.counter(
            "embedding_link_bytes_total", tensor=self.tag, link="nvlink"
        ).inc(remote_bytes, t=now)
        reg.counter(
            "embedding_link_bytes_total", tensor=self.tag, link="hbm"
        ).inc(total_bytes - remote_bytes, t=now)
        reg.counter("embedding_grad_seconds_total", tensor=self.tag).inc(t)
        reg.counter("phase_seconds_total", phase=phase).inc(t)
        return t

    # -- functional row access (the sparse optimizer's KV surface) -----------

    def read_rows(self, rows: np.ndarray) -> np.ndarray:
        """Functional read of ``rows`` (no clock charge — the update path
        prices its traffic through :meth:`push_row_grads`)."""
        return self.table.gather_no_cost(rows)

    def write_rows(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Functional write of ``rows`` (costing handled by the caller)."""
        self.table.scatter_no_cost(rows, values)

    # -- lifecycle ------------------------------------------------------------

    def rebuild_on(
        self, node: SimNode, charge_setup: bool = True
    ) -> "WholeEmbedding":
        """Re-shard the table onto ``node`` (elastic shrink/grow recovery).

        Row *values* and global row IDs are preserved exactly; only the
        row->shard routing changes with the new GPU count.  Pending row
        gradients do not survive (they referenced the dead layout).
        """
        clone = WholeEmbedding(
            node, self.num_rows, self.dim, rng=None, tag=self.tag,
            partition=self.table.partition, charge_setup=charge_setup,
        )
        data = self.table.gather_no_cost(
            np.arange(self.num_rows, dtype=np.int64)
        )
        if charge_setup:
            clone.table.load_from_host(data, phase="embed_load")
        else:
            clone.table.scatter_no_cost(
                np.arange(self.num_rows, dtype=np.int64), data
            )
        return clone

    def state_dict(self) -> np.ndarray:
        """A host-side copy of the full table (checkpointing)."""
        return self.table.gather_no_cost(
            np.arange(self.num_rows, dtype=np.int64)
        )

    def load_state_dict(self, array: np.ndarray) -> None:
        """Restore the full table from a host-side copy (no clock charge)."""
        array = np.asarray(array, dtype=np.float32).reshape(
            self.num_rows, self.dim
        )
        self.table.scatter_no_cost(
            np.arange(self.num_rows, dtype=np.int64), array
        )

    def stats_dict(self) -> dict:
        """Gather + update statistics for run reports."""
        return {**self.table.stats, **self.grad_stats}

    def free(self) -> None:
        self.table.free()
        self._pending = []

    def __repr__(self) -> str:
        return (
            f"WholeEmbedding({self.num_rows}x{self.dim}, tag={self.tag!r}, "
            f"partition={self.table.partition!r})"
        )
