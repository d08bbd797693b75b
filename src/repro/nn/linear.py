"""Dense affine layer."""

from __future__ import annotations

import numpy as np

from repro.nn.init import xavier_uniform, zeros
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class Linear(Module):
    """``y = x W + b`` with Glorot-initialised ``W``.

    One taped op: the forward is ``x @ W`` with ``b`` added in place, and the
    pullback returns ``g @ W.T`` (only when ``x`` needs a gradient), then
    ``x.T @ g``, then ``g.sum(axis=0)`` — the float32 operations of the
    separate ``(x @ W) + b`` tensor ops, without their intermediate node.
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

    def forward(self, x: Tensor) -> Tensor:
        w, b = self.weight, self.bias
        out = x.data @ w.data
        if b is None:
            parents = (x, w)
        else:
            out += b.data
            parents = (x, w, b)

        def backward(g):
            grads = (g @ w.data.T if x.requires_grad else None, x.data.T @ g)
            return grads if b is None else grads + (g.sum(axis=0),)

        return Tensor._make(out, parents, backward)

    def flops(self, rows: int) -> float:
        """Forward FLOPs for ``rows`` input rows (2·m·k·n GEMM count)."""
        return 2.0 * rows * self.in_features * self.out_features
