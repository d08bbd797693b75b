"""Dense affine layer."""

from __future__ import annotations

import numpy as np

from repro.nn.init import xavier_uniform, zeros
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class Linear(Module):
    """``y = x W + b`` with Glorot-initialised ``W``.

    :meth:`apply` and :meth:`pullback` hold the float32 operations, which
    the convs call inside their own taped op: the forward is ``x @ W`` with
    ``b`` added in place, and the pullback returns ``g @ W.T`` (only when
    ``x`` needs a gradient), then ``x.T @ g``, then ``g.sum(axis=0)`` — the
    operations of the separate ``(x @ W) + b`` tensor ops, without their
    intermediate node.  :meth:`forward` tapes them as one op.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ):
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = Parameter(xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(zeros((out_features,))) if bias else None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The forward array ``x @ W + b`` of a plain input array."""
        out = x @ self.weight.data
        if self.bias is not None:
            out += self.bias.data
        return out

    def pullback(self, g: np.ndarray, x: np.ndarray, x_grad: bool) -> tuple:
        """``(dL/dx or None, dL/dW)``, then ``dL/db`` if there is a bias,
        for the output gradient ``g`` of :meth:`apply` on ``x``."""
        grads = (g @ self.weight.data.T if x_grad else None, x.T @ g)
        return grads if self.bias is None else grads + (g.sum(axis=0),)

    def forward(self, x: Tensor) -> Tensor:
        return Tensor._make(
            self.apply(x.data), (x, *self.parameters()),
            lambda g: self.pullback(g, x.data, x.requires_grad),
        )

    def flops(self, rows: int) -> float:
        """Forward FLOPs for ``rows`` input rows (2·m·k·n GEMM count)."""
        return 2.0 * rows * self.in_features * self.out_features
