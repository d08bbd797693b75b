"""NumPy-backed reverse-mode autograd tensor.

A deliberately small tape-based autodiff: each op records its parents and a
closure that returns their gradients; ``backward()`` walks the tape in
reverse topological order and frees it as it goes, as PyTorch does, so
only leaves keep ``.grad``.  Broadcasting in ``+``/``*`` is handled by
summing gradients over broadcast axes (:func:`unbroadcast`).  A pullback
returns ``None`` for a parent that needs no gradient instead of computing
it, and each gradient array is held once (:meth:`Tensor.accumulate_grad`).

Gradients are validated against central finite differences in the test
suite for every op.
"""

from __future__ import annotations

import numpy as np


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    # sum leading axes added by broadcasting
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # sum axes that were size-1 in the original
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _walked(grad):
    """The pullback a node keeps once :meth:`Tensor.backward` walked it."""
    raise RuntimeError(
        "backward() through a graph that was already walked: its pullbacks "
        "and intermediate gradients have been freed"
    )


class Tensor:
    """A value in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- graph construction -------------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: tuple["Tensor", ...], backward):
        """Create a non-leaf tensor with the given parents and pullback.

        ``backward(grad)`` must return one gradient array (or ``None``) per
        parent, in order: ``None`` for a parent that needs no gradient.  It
        never writes into ``grad``, which other nodes may hold.
        """
        out = Tensor(data)
        out.requires_grad = any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        return out

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` to this tensor's gradient.

        Nothing writes into an array after handing it here, except a leaf
        writing into its own copy.  A tensor with a pullback keeps the first
        gradient it receives as is, without a copy (another node may hold
        the same array), and adds later ones out of place.  A leaf (no
        pullback: parameters and inputs) copies its first gradient and adds
        later ones in place; optimizers and gradient averaging read and
        replace its ``.grad``.
        """
        grad = np.asarray(grad, dtype=np.float32)
        if self._backward is not None:
            self.grad = grad if self.grad is None else self.grad + grad
        elif self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad=None) -> None:
        """Reverse-mode sweep from this tensor.

        ``grad`` defaults to ones (must be provided for non-scalar roots in
        principle, but ones is the useful convention for mean-losses too).
        A given ``grad`` is copied, so the caller keeps its array.

        Once a node's pullback has handed its gradients on, the node drops
        its ``.grad``, its parents and the pullback with every array it
        kept; walking the graph again raises ``RuntimeError`` instead of
        leaving the leaves' gradients untouched.
        """
        grad = (np.ones_like(self.data) if grad is None
                else np.array(grad, dtype=np.float32))
        # topological order over the tape, popped from the end
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _walked:
                _walked(None)  # before any gradient moves
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.accumulate_grad(grad)
        while topo:
            node = topo.pop()
            if node._backward is None or node.grad is None:
                continue
            grads = node._backward(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is not None and parent.requires_grad:
                    parent.accumulate_grad(g)
            node.grad, node._parents, node._backward = None, (), _walked

    def zero_grad(self) -> None:
        self.grad = None

    # -- shape ----------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def reshape(self, *shape) -> "Tensor":
        orig = self.data.shape
        out_data = self.data.reshape(*shape)
        return Tensor._make(
            out_data, (self,), lambda g: (g.reshape(orig),)
        )

    # -- arithmetic -------------------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = Tensor._coerce(other)

        def backward(g):
            return (
                unbroadcast(g, self.data.shape)
                if self.requires_grad else None,
                unbroadcast(g, other.data.shape)
                if other.requires_grad else None,
            )

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return Tensor._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = Tensor._coerce(other)

        def backward(g):
            return (
                unbroadcast(g * other.data, self.data.shape)
                if self.requires_grad else None,
                unbroadcast(g * self.data, other.data.shape)
                if other.requires_grad else None,
            )

        return Tensor._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor._coerce(other)

        def backward(g):
            return (
                unbroadcast(g / other.data, self.data.shape)
                if self.requires_grad else None,
                unbroadcast(-g * self.data / (other.data**2), other.data.shape)
                if other.requires_grad else None,
            )

        return Tensor._make(self.data / other.data, (self, other), backward)

    def __matmul__(self, other) -> "Tensor":
        other = Tensor._coerce(other)

        def backward(g):
            return (
                g @ other.data.T if self.requires_grad else None,
                self.data.T @ g if other.requires_grad else None,
            )

        return Tensor._make(self.data @ other.data, (self, other), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        e = float(exponent)
        return Tensor._make(
            self.data**e,
            (self,),
            lambda g: (g * e * self.data ** (e - 1),),
        )

    # -- reductions -----------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            gg = np.asarray(g)
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            return (np.broadcast_to(gg, self.data.shape).copy(),)

        return Tensor._make(out, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = (
            self.data.size
            if axis is None
            else self.data.shape[axis]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def __repr__(self) -> str:
        return (
            f"Tensor(shape={self.data.shape}, "
            f"requires_grad={self.requires_grad})"
        )
