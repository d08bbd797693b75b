"""Sparse optimizers over DSM embedding tables (touched-rows-only updates).

A dense optimizer walks every parameter every step; an embedding table with
millions of rows makes that a non-starter.  :class:`SparseSGD` and
:class:`SparseAdam` instead drain the row gradients a
:class:`~repro.dsm.sparse_embedding.WholeEmbedding` recorded during
backward, deduplicate them (scatter-add of duplicate contributions in
occurrence order), and update *only the touched rows* — with the optimizer
state (momentum / first and second moments, and the per-row step count)
held in WholeTensors co-sharded with the table, so state never leaves the
owning GPU.

The update arithmetic replays :class:`~repro.nn.optim.SGD` /
:class:`~repro.nn.optim.Adam` exactly, restricted to the touched rows.  The
only structural difference is bias correction: dense Adam uses one global
step count, sparse Adam one count per row (a row skipped for ten steps must
not have its moments bias-corrected as if it had been updated ten times).
The per-row correction factors are computed in float64 and cast to float32
*before* entering the update — the same two-rounding semantics NumPy
applies to dense Adam's Python-float scalars — so a touched row's update is
bit-identical to a dense optimizer stepping a one-row parameter on that
row's touch subsequence (``tests/test_sparse_embedding.py`` pins this).

Cluster training averages row gradients across replicas with
:func:`average_row_grads` under the float64-accumulate contract of the
dense :func:`~repro.train.grad_sync.average_gradients`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.dsm.whole_tensor import WholeTensor
from repro.hardware import costmodel

if TYPE_CHECKING:  # import cycle: dsm.sparse_embedding needs nn.tensor
    from repro.dsm.sparse_embedding import WholeEmbedding


@dataclass
class RowGrads:
    """Deduplicated row gradients of one embedding for one step."""

    rows: np.ndarray       #: unique touched rows (sorted int64)
    grads: np.ndarray      #: float32 summed gradient per row
    raw_rows: int          #: pre-dedup contribution count (hash-table ops)
    atomic_rows: int       #: contributions that collided with a duplicate

    @property
    def num_rows(self) -> int:
        return int(self.rows.size)


def average_row_grads(
    collected: list[list[RowGrads]],
) -> list[RowGrads]:
    """Average per-replica row gradients (the sparse all-reduce).

    ``collected[i][j]`` holds replica ``i``'s :class:`RowGrads` for
    embedding ``j``.  For each embedding the union of touched rows is
    reduced with the contract of the dense gradient average
    (:func:`~repro.train.grad_sync.average_gradients`): contributions are
    summed in float64 in replica order, divided by the replica count, and
    cast back to float32.  Rows a replica never touched contribute zero.
    """
    if not collected:
        return []
    num_embeddings = len(collected[0])
    out: list[RowGrads] = []
    for j in range(num_embeddings):
        parts = [replica[j] for replica in collected]
        union = np.unique(np.concatenate([p.rows for p in parts]))
        dim = parts[0].grads.shape[1]
        acc = np.zeros((union.size, dim), dtype=np.float64)
        for p in parts:
            idx = np.searchsorted(union, p.rows)
            acc[idx] += p.grads.astype(np.float64)
        mean = (acc / len(parts)).astype(np.float32)
        out.append(RowGrads(
            rows=union,
            grads=mean,
            raw_rows=parts[0].raw_rows,
            atomic_rows=parts[0].atomic_rows,
        ))
    return out


class SparseOptimizer:
    """Common bookkeeping: pending-grad draining and update-cost charging."""

    #: state reads+writes per touched element (p alone; subclasses add)
    STATE_RW_FACTOR = 2

    def __init__(self, embeddings, lr: float, charge_setup: bool = True):
        from repro.dsm.sparse_embedding import WholeEmbedding

        self.embeddings: list[WholeEmbedding] = list(embeddings)
        if not self.embeddings:
            raise ValueError("sparse optimizer needs at least one embedding")
        for emb in self.embeddings:
            if not isinstance(emb, WholeEmbedding):
                raise TypeError(
                    f"sparse optimizer updates WholeEmbedding tables, "
                    f"got {type(emb)!r}"
                )
        self.lr = float(lr)
        self._charge_setup = bool(charge_setup)
        #: with ``record_history=True``, every applied (rows, grads) pair is
        #: appended here — the bit-identity tests replay it through the
        #: dense optimizer restricted to each row's touch subsequence
        self.record_history = False
        self.history: list[list[tuple[np.ndarray, np.ndarray]]] = []

    def _state_tensor(
        self, emb: WholeEmbedding, suffix: str, dtype=np.float32,
        num_cols: int | None = None,
    ) -> WholeTensor:
        """Allocate optimizer state co-sharded with ``emb``'s table."""
        return WholeTensor(
            emb.node, emb.num_rows,
            emb.dim if num_cols is None else num_cols,
            dtype=dtype, tag=f"{emb.tag}.{suffix}",
            charge_setup=self._charge_setup,
            partition=emb.table.partition,
        )

    def zero_grad(self) -> None:
        for emb in self.embeddings:
            emb.zero_grad()

    def state_bytes(self) -> int:
        """Total bytes of DSM-resident optimizer state."""
        return sum(t.total_bytes for t in self._state_tensors())

    def _state_tensors(self) -> list[WholeTensor]:
        raise NotImplementedError

    def _update_rows(
        self, index: int, emb: WholeEmbedding,
        rows: np.ndarray, grads: np.ndarray,
    ) -> None:
        raise NotImplementedError

    # -- the step, split so cluster training can average between halves ------

    def collect(self) -> list[RowGrads]:
        """Drain every embedding's pending grads into :class:`RowGrads`."""
        return [
            RowGrads(*emb.collect_row_grads()) for emb in self.embeddings
        ]

    def apply(
        self, collected: list[RowGrads], rank: int = 0, charge: bool = True,
    ) -> None:
        """Push and apply deduplicated row gradients.

        With ``charge=True`` the row-grad payload rides the comm-stream lane
        (:meth:`WholeEmbedding.push_row_grads`) and the touched-row state
        arithmetic is priced at the elementwise bandwidth on each owning
        rank's clock.
        """
        if self.record_history:
            self.history.append([
                (rg.rows.copy(), rg.grads.copy()) for rg in collected
            ])
        for index, (emb, rg) in enumerate(zip(self.embeddings, collected)):
            if rg.num_rows == 0:
                continue
            if charge:
                emb.push_row_grads(
                    rg.rows, rg.grads, rg.raw_rows, rg.atomic_rows,
                    rank=rank,
                )
            self._update_rows(index, emb, rg.rows, rg.grads)
            if charge:
                self._charge_update(emb, rg.rows)

    def step(self, rank: int = 0, charge: bool = True) -> None:
        """Drain pending row grads and update the touched rows."""
        self.apply(self.collect(), rank=rank, charge=charge)

    def _charge_update(self, emb: WholeEmbedding, rows: np.ndarray) -> None:
        """Price the per-row state arithmetic on the owning ranks."""
        node = emb.node
        owners = emb.rank_of_row(rows)
        counts = np.bincount(owners, minlength=node.num_gpus)
        for r in range(node.num_gpus):
            if counts[r] == 0:
                continue
            nbytes = int(counts[r]) * emb.row_bytes * self.STATE_RW_FACTOR
            node.gpu_clock[r].advance(
                costmodel.elementwise_time(nbytes),
                phase="sparse_step", category="compute",
                args={"rows": int(counts[r]), "tensor": emb.tag},
            )


class SparseSGD(SparseOptimizer):
    """Touched-rows SGD with optional momentum, state in DSM."""

    def __init__(self, embeddings, lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0, charge_setup: bool = True):
        super().__init__(embeddings, lr, charge_setup=charge_setup)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = (
            [self._state_tensor(e, "velocity") for e in self.embeddings]
            if self.momentum else []
        )
        # p read+write, plus velocity read+write when momentum is on
        self.STATE_RW_FACTOR = 4 if self.momentum else 2

    def _state_tensors(self) -> list[WholeTensor]:
        return list(self._velocity)

    def _update_rows(self, index, emb, rows, grads) -> None:
        # mirrors nn.optim.SGD.step restricted to `rows`: every op below is
        # the dense statement with p.data/v replaced by the touched-row
        # slices, so the float32 rounding sequence is identical
        p = emb.read_rows(rows)
        g = grads
        if self.weight_decay:
            g = g + self.weight_decay * p
        if self.momentum:
            v = self._velocity[index].gather_no_cost(rows)
            v *= self.momentum
            v += g
            g = v
            self._velocity[index].scatter_no_cost(rows, v)
        p -= self.lr * g
        emb.write_rows(rows, p)


class SparseAdam(SparseOptimizer):
    """Touched-rows Adam with per-row bias correction, state in DSM."""

    def __init__(self, embeddings, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0,
                 charge_setup: bool = True):
        super().__init__(embeddings, lr, charge_setup=charge_setup)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m = [self._state_tensor(e, "m") for e in self.embeddings]
        self._v = [self._state_tensor(e, "v") for e in self.embeddings]
        #: per-row step counts — Adam's `t`, advanced only when touched
        self._t = [
            self._state_tensor(e, "step", dtype=np.int64, num_cols=1)
            for e in self.embeddings
        ]
        # p, m, v each read+written per touched element
        self.STATE_RW_FACTOR = 6

    def _state_tensors(self) -> list[WholeTensor]:
        return [*self._m, *self._v, *self._t]

    def _update_rows(self, index, emb, rows, grads) -> None:
        t = self._t[index].gather_no_cost(rows) + 1
        self._t[index].scatter_no_cost(rows, t)
        # per-row bias correction: float64 power then one cast to float32,
        # matching NumPy's handling of dense Adam's Python-float scalars
        # (cast to the array dtype, then a float32 op) element-for-element
        t64 = t.astype(np.float64)
        bc1 = (1.0 - self.beta1 ** t64).astype(np.float32)
        bc2 = (1.0 - self.beta2 ** t64).astype(np.float32)
        # mirrors nn.optim.Adam.step restricted to `rows`
        p = emb.read_rows(rows)
        m = self._m[index].gather_no_cost(rows)
        v = self._v[index].gather_no_cost(rows)
        g = grads
        if self.weight_decay:
            g = g + self.weight_decay * p
        # in place on the gathered copies: the same float32 ops in order
        scratch = np.multiply(g, 1 - self.beta1)
        m *= self.beta1
        m += scratch
        np.multiply(g, g, out=scratch)
        scratch *= 1 - self.beta2
        v *= self.beta2
        v += scratch
        self._m[index].scatter_no_cost(rows, m)
        self._v[index].scatter_no_cost(rows, v)
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        m /= bc1
        m *= self.lr
        v /= bc2
        np.sqrt(v, out=v)
        v += self.eps
        m /= v
        p -= m
        emb.write_rows(rows, p)
