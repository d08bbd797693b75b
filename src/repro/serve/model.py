"""Frozen-model export: a forward-only snapshot of a trained module.

Serving must not share mutable state with training: a request that races a
concurrent fine-tuning step would read half-updated weights, and autograd
tape construction is pure overhead on a path that never calls ``backward``.
:class:`FrozenModel` therefore *snapshots* the weights at export time (deep
copy, so later optimizer steps leave the serving copy untouched), drops every
parameter out of the autograd graph (``requires_grad=False`` — the tape
machinery in :class:`~repro.nn.tensor.Tensor` then records no parents and no
pullbacks), and pins the module in eval mode so dropout is a no-op.

The forward math is bit-identical to running the original module under
``eval()``: same layers, same float32 kernels, no stochastic ops.
``tests/test_serve.py`` pins that equality.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.ops.neighbor_sampler import SampledSubgraph


class FrozenModel:
    """A weight snapshot of a trained :class:`Module`, forward-only."""

    def __init__(self, module: Module):
        """Snapshot ``module`` for serving.

        The module is deep-copied; the copy's parameters are detached from
        autograd (``requires_grad=False``, gradients dropped) and the copy
        is switched to eval mode permanently.  The original module is not
        modified and may keep training.
        """
        if not isinstance(module, Module):
            raise TypeError(
                f"FrozenModel wraps a repro.nn Module, got {type(module)!r}"
            )
        self._module = copy.deepcopy(module)
        self._module.eval()
        for p in self._module.parameters():
            p.requires_grad = False
            p.grad = None

    @classmethod
    def freeze(cls, module: Module) -> "FrozenModel":
        """Alias constructor mirroring ``torch.jit.freeze`` ergonomics."""
        return cls(module)

    # -- introspection -------------------------------------------------------

    @property
    def module_name(self) -> str:
        """Class name of the snapshotted module (e.g. ``GraphSage``)."""
        return type(self._module).__name__

    def num_parameters(self) -> int:
        """Total scalar parameter count of the snapshot."""
        return self._module.num_parameters()

    def param_bytes(self) -> int:
        """Total bytes of the snapshotted weights (the export size)."""
        return sum(p.data.nbytes for p in self._module.parameters())

    def state_dict(self) -> list[np.ndarray]:
        """Copies of the frozen parameter arrays, in parameter order."""
        return self._module.state_dict()

    # -- the forward-only path ----------------------------------------------

    def __call__(
        self, subgraph: SampledSubgraph, x: np.ndarray | Tensor
    ) -> np.ndarray:
        """Forward ``x`` (features of ``subgraph.input_nodes``) to logits.

        Accepts a raw NumPy feature matrix (the gather output) or a
        :class:`Tensor`; returns the seed-row logits as a NumPy array.  No
        autograd tape is built: every parameter has ``requires_grad=False``,
        so intermediate tensors record no parents.
        """
        if isinstance(x, Tensor):
            x = x.data
        out = self._module(subgraph, Tensor(x), None)
        assert not out.requires_grad, "frozen forward built an autograd tape"
        return out.data

    def predict(
        self, subgraph: SampledSubgraph, x: np.ndarray | Tensor
    ) -> np.ndarray:
        """Class labels (argmax over logits) for the subgraph's seeds."""
        return self(subgraph, x).argmax(axis=-1)

    # -- cost model -----------------------------------------------------------

    def step_costs(self, shapes):
        """The snapshot module's per-layer cost ledger
        (:class:`~repro.nn.models.StepCosts`); serving prices its forward
        entries."""
        return self._module.step_costs(shapes)

    @property
    def num_layers(self) -> int:
        """Sampling depth the model expects (one block per conv layer)."""
        return len(getattr(self._module, "convs", ()))

    def __repr__(self) -> str:
        return (
            f"FrozenModel({self.module_name}, "
            f"{self.num_parameters()} params, forward-only)"
        )
