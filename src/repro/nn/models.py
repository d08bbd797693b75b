"""The paper's evaluation models: 3-layer GCN, GraphSage and GAT.

All three share the mini-batch forward over sampled blocks: the input is the
feature matrix of the deepest frontier; each layer consumes one block and
shrinks the rows to that block's targets; the final rows are the seed batch,
projected to class logits.  Hyper-parameters follow §IV: 3 layers, hidden
256, fanout 30 per layer, batch 512, GAT with 4 heads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro import config
from repro.hardware import costmodel
from repro.nn import functional as F
from repro.nn.layers import GATConv, GCNConv, SAGEConv
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.ops.neighbor_sampler import SampledSubgraph

#: the paper's evaluation trio
MODEL_NAMES = ("gcn", "graphsage", "gat")


def block_shapes(subgraph: SampledSubgraph) -> list[tuple[int, ...]]:
    """A sampled subgraph's block shapes for :meth:`~_BlockModel.step_costs`,
    conv 0 (the deepest block) first."""
    return [(b.num_targets, b.num_src, b.num_edges, b.num_src)
            for b in reversed(subgraph.blocks)]


@dataclass(frozen=True)
class CostEntry:
    """One ledger entry: the work of one fused kernel."""

    #: the conv index, or ``None`` for the optimizer
    layer: int | None
    #: ``"forward"``, ``"backward"`` or ``"optimizer"``
    kind: str
    flops: float
    sparse_bytes: float
    elementwise_bytes: float

    def op_seconds(self, scale: float) -> dict[str, float]:
        """Seconds per op (dense, sparse, elementwise, launch), each times
        ``scale`` (the layer cost factor)."""
        ops = costmodel.fused_kernel_seconds(
            self.flops, self.sparse_bytes, self.elementwise_bytes
        )
        return {op: t * scale for op, t in ops.items()}

    def seconds(self, scale: float) -> float:
        return sum(self.op_seconds(scale).values())

    def part(self, frac: float) -> "CostEntry":
        """The kernel over a ``frac`` share of the rows: the work scales,
        the launch does not."""
        return replace(
            self, flops=self.flops * frac,
            sparse_bytes=self.sparse_bytes * frac,
            elementwise_bytes=self.elementwise_bytes * frac,
        )


@dataclass(frozen=True)
class StepCosts:
    """One training step's per-layer cost ledger (:meth:`step_costs`).

    Each conv has a forward entry ``{F, S, A}`` and a backward entry
    ``{2F, S, A}`` (two GEMMs per forward GEMM), with ``F`` and ``S`` from
    its ``estimate_cost`` and ``A`` its activation bytes; one optimizer
    entry (Adam reads and writes four arrays per parameter) follows.
    """

    #: per conv, conv 0 first
    forward: tuple[CostEntry, ...]
    backward: tuple[CostEntry, ...]
    optimizer: CostEntry
    #: each conv's parameter bytes, in ``parameters()`` order
    param_nbytes: tuple[tuple[int, ...], ...]

    def compute_entries(self) -> tuple[CostEntry, ...]:
        """Launch order: forward conv 0 to L-1, backward L-1 to 0."""
        return self.forward + self.backward[::-1]

    def forward_seconds(self, scale: float) -> float:
        """One forward pass (inference)."""
        return sum(e.seconds(scale) for e in self.forward)

    def train_seconds(self, scale: float) -> float:
        """Forward, backward and optimizer update."""
        entries = self.compute_entries() + (self.optimizer,)
        return sum(e.seconds(scale) for e in entries)

    def ready_offsets(self, scale: float) -> list[float]:
        """Each parameter's gradient-ready time in seconds from the end of
        the backward pass (<= 0), in ``parameters()`` order.

        The backward entries run last conv first.  Within conv ``d``'s
        entry its gradients arrive in reverse parameter order, linearly in
        cumulative bytes.
        """
        out: list[float] = []
        end = 0.0
        for entry, nbytes in zip(self.backward, self.param_nbytes):
            dur = entry.seconds(scale)
            total = sum(nbytes)
            offsets = [0.0] * len(nbytes)
            cum = 0
            for i in reversed(range(len(nbytes))):
                cum += nbytes[i]
                offsets[i] = end - dur * (1.0 - cum / total)
            out += offsets
            end -= dur
        return out


class _BlockModel(Module):
    """Shared forward/cost logic for the three block-based models."""

    def __init__(self, dropout: float = 0.5):
        super().__init__()
        self.convs: list[Module] = []
        self.dropout = float(dropout)

    def forward(
        self,
        subgraph: SampledSubgraph,
        x: Tensor,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """``x``: features of ``subgraph.input_nodes``; returns seed logits."""
        if len(self.convs) != subgraph.num_layers:
            raise ValueError(
                f"model has {len(self.convs)} layers but subgraph has "
                f"{subgraph.num_layers}"
            )
        h = x
        # blocks[l] maps frontier l+1 -> l; apply deepest-first
        for depth, conv in enumerate(self.convs):
            block = subgraph.blocks[subgraph.num_layers - 1 - depth]
            h = conv(block, h)
            if depth < len(self.convs) - 1:
                h = self._activate(h)
                if rng is not None and self.training and self.dropout > 0:
                    h = F.dropout(h, self.dropout, rng, training=True)
        return h

    def _activate(self, h: Tensor) -> Tensor:
        return F.relu(h)

    # -- cost model -----------------------------------------------------------------

    def step_costs(self, shapes) -> StepCosts:
        """The per-layer cost ledger of one step.

        ``shapes`` holds one ``(num_targets, num_src, num_edges, act_rows)``
        per conv, conv 0 first: :func:`block_shapes` of a sampled subgraph,
        or the block-row a partitioned plan computes.  ``act_rows`` rows of
        the hidden width are the activation, dropout and loss traffic.
        """
        if len(shapes) != len(self.convs):
            raise ValueError(
                f"model has {len(self.convs)} layers but got "
                f"{len(shapes)} block shapes"
            )
        width = self._width_hint()
        forward, backward, params = [], [], []
        for d, (conv, shape) in enumerate(zip(self.convs, shapes)):
            cost = conv.estimate_cost(*shape[:3])
            f, s, a = cost["flops"], cost["sparse_bytes"], shape[3] * width * 4
            forward.append(CostEntry(d, "forward", f, s, a))
            backward.append(CostEntry(d, "backward", 2 * f, s, a))
            params.append(tuple(p.data.nbytes for p in conv.parameters()))
        optimizer = CostEntry(
            None, "optimizer", 0.0, 0.0, 8 * sum(map(sum, params))
        )
        return StepCosts(
            tuple(forward), tuple(backward), optimizer, tuple(params)
        )

    def _width_hint(self) -> int:
        return getattr(self.convs[0], "out_features", config.HIDDEN_SIZE)

    def grad_nbytes(self) -> int:
        return sum(p.data.nbytes for p in self.parameters())


class GCN(_BlockModel):
    """Sampling-augmented GCN (paper adds sampling to support large graphs)."""

    def __init__(self, in_features: int, hidden: int, num_classes: int,
                 num_layers: int, rng: np.random.Generator,
                 dropout: float = 0.5):
        super().__init__(dropout)
        dims = [in_features] + [hidden] * (num_layers - 1) + [num_classes]
        self.convs = [
            GCNConv(dims[i], dims[i + 1], rng) for i in range(num_layers)
        ]


class GraphSage(_BlockModel):
    """GraphSage with mean aggregation."""

    def __init__(self, in_features: int, hidden: int, num_classes: int,
                 num_layers: int, rng: np.random.Generator,
                 dropout: float = 0.5):
        super().__init__(dropout)
        dims = [in_features] + [hidden] * (num_layers - 1) + [num_classes]
        self.convs = [
            SAGEConv(dims[i], dims[i + 1], rng) for i in range(num_layers)
        ]


class GAT(_BlockModel):
    """Multi-head graph attention network (4 heads in the paper)."""

    def __init__(self, in_features: int, hidden: int, num_classes: int,
                 num_layers: int, rng: np.random.Generator,
                 num_heads: int = config.GAT_NUM_HEADS,
                 dropout: float = 0.5):
        super().__init__(dropout)
        # hidden layers concatenate heads to `hidden`; the output layer uses
        # one effective head by emitting num_classes per head and averaging —
        # simplified here to a single-head-width final GAT layer when the
        # class count divides by heads, else heads=1.
        self.convs = []
        dims = [in_features] + [hidden] * (num_layers - 1) + [num_classes]
        for i in range(num_layers):
            heads = num_heads if dims[i + 1] % num_heads == 0 else 1
            self.convs.append(
                GATConv(dims[i], dims[i + 1], rng, num_heads=heads)
            )

    def _activate(self, h: Tensor) -> Tensor:
        return F.elu(h)


def build_model(
    name: str,
    in_features: int,
    num_classes: int,
    rng: np.random.Generator,
    hidden: int = config.HIDDEN_SIZE,
    num_layers: int = config.NUM_LAYERS,
    dropout: float = 0.5,
) -> _BlockModel:
    """Factory for the three evaluation models by paper name."""
    name = name.lower()
    if name == "gcn":
        return GCN(in_features, hidden, num_classes, num_layers, rng, dropout)
    if name in ("graphsage", "sage"):
        return GraphSage(in_features, hidden, num_classes, num_layers, rng,
                         dropout)
    if name == "gat":
        return GAT(in_features, hidden, num_classes, num_layers, rng,
                   dropout=dropout)
    raise ValueError(
        f"unknown model {name!r}; expected one of {MODEL_NAMES}"
    )
