"""Autograd engine: every op's gradient vs central finite differences, plus
the tape's gradient ownership and needed-gradient rules."""

import tracemalloc

import numpy as np
import pytest

from repro.nn.linear import Linear
from repro.nn.tensor import Tensor, _walked, unbroadcast
from repro.train import WholeGraphTrainer


def numeric_grad(f, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        fp = f()
        x[i] = orig - eps
        fm = f()
        x[i] = orig
        g[i] = (fp - fm) / (2 * eps)
    return g


def check_grad(build, x: np.ndarray, atol: float = 2e-2):
    """``build(Tensor) -> scalar Tensor``; compares grads to numeric."""
    t = Tensor(x, requires_grad=True)
    loss = build(t)
    loss.backward()
    num = numeric_grad(lambda: float(build(Tensor(x)).data), x)
    assert np.allclose(t.grad, num, atol=atol), (t.grad, num)


@pytest.fixture
def x(rng):
    return rng.standard_normal((4, 3)).astype(np.float32)


def test_add_mul_sub_grads(x, rng):
    y = rng.standard_normal((4, 3)).astype(np.float32)
    check_grad(lambda t: ((t + Tensor(y)) * t - t).sum(), x)


def test_broadcast_add_bias_grad(x):
    b = np.ones(3, dtype=np.float32)
    t = Tensor(x, requires_grad=True)
    bias = Tensor(b, requires_grad=True)
    (t + bias).sum().backward()
    assert np.allclose(bias.grad, np.full(3, 4.0))
    assert np.allclose(t.grad, np.ones((4, 3)))


def test_matmul_grad(x, rng):
    w = rng.standard_normal((3, 5)).astype(np.float32)
    check_grad(lambda t: (t @ Tensor(w)).sum(), x)
    wt = Tensor(w, requires_grad=True)
    (Tensor(x) @ wt).sum().backward()
    num = numeric_grad(
        lambda: float((Tensor(x) @ Tensor(w)).sum().data), w
    )
    assert np.allclose(wt.grad, num, atol=2e-2)


def test_div_pow_grads(x):
    xp = np.abs(x) + 1.0
    check_grad(lambda t: (t / Tensor(np.full_like(xp, 2.0))).sum(), xp)
    check_grad(lambda t: (t ** 2.0).sum(), xp)


def test_mean_and_axis_sum_grads(x):
    check_grad(lambda t: t.mean(), x)
    check_grad(lambda t: t.sum(axis=0).sum(), x)
    check_grad(lambda t: t.sum(axis=1, keepdims=True).sum(), x)


def test_reshape_grad(x):
    check_grad(lambda t: (t.reshape(2, 6) * 2.0).sum(), x)


def test_diamond_graph_accumulates(x):
    """y used twice: gradient contributions must add."""
    t = Tensor(x, requires_grad=True)
    y = t * 2.0
    (y + y).sum().backward()
    assert np.allclose(t.grad, np.full_like(x, 4.0))


def test_no_grad_tracking_when_not_required(x):
    t = Tensor(x)  # requires_grad False
    out = (t * 2.0).sum()
    assert not out.requires_grad
    assert out._backward is None


def test_backward_twice_accumulates(x):
    t = Tensor(x, requires_grad=True)
    loss = (t * 3.0).sum()
    loss.backward()
    first = t.grad.copy()
    loss2 = (t * 3.0).sum()
    loss2.backward()
    assert np.allclose(t.grad, 2 * first)


def test_zero_grad(x):
    t = Tensor(x, requires_grad=True)
    (t * 1.0).sum().backward()
    t.zero_grad()
    assert t.grad is None


def test_unbroadcast_shapes():
    g = np.ones((4, 3))
    assert unbroadcast(g, (3,)).shape == (3,)
    assert unbroadcast(g, (1, 3)).shape == (1, 3)
    assert unbroadcast(g, (4, 1)).shape == (4, 1)
    assert np.allclose(unbroadcast(g, (3,)), np.full(3, 4.0))


def test_deep_chain_no_recursion_limit():
    t = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    out = t
    for _ in range(3000):
        out = out * 1.0
    out.sum().backward()
    assert np.allclose(t.grad, np.ones(2))


# -- gradient ownership: each gradient array is held once ---------------------
# A tensor with a pullback keeps the first gradient it receives without a
# copy, so one array can reach several nodes; every later contribution must
# be added out of place, and a leaf must own its ``.grad``.  Backward frees
# a node's ``.grad`` once its pullback has run, so the tests read the array
# each pullback received, and check after backward that nothing wrote into
# any of them.


@pytest.fixture
def received(monkeypatch):
    """Record, per tensor, the gradient array its pullback received.

    ``received(t)`` returns that array after checking it still holds what
    it held on receipt; ``received.all_unchanged()`` checks every one.
    """
    seen = {}
    make = Tensor._make

    def recording_make(data, parents, backward):
        def pullback(g):
            seen[out] = (g, g.copy())
            return backward(g)

        out = make(data, parents, pullback)
        return out  # ``pullback`` reads ``out`` when backward calls it

    class Received:
        def __call__(self, t):
            g, on_receipt = seen[t]
            assert np.array_equal(g, on_receipt)
            return g

        def all_unchanged(self):
            return all(np.array_equal(g, c) for g, c in seen.values())

    monkeypatch.setattr(Tensor, "_make", staticmethod(recording_make))
    return Received()


@pytest.mark.parametrize("x_first", [True, False])
def test_shared_gradient_survives_a_second_contribution(rng, received,
                                                        x_first):
    """``x + y`` hands one array to both parents; ``x`` then receives a
    second contribution (before or after, by term order), which must leave
    ``y``'s gradient and the sum's own gradient unchanged."""
    a_np, b_np, c, d = (
        rng.standard_normal((4, 3)).astype(np.float32) for _ in range(4)
    )

    def build(a, b):
        x, y = a * 1.5, b * 0.5
        s = x + y
        terms = [(s * Tensor(c)).sum(), (x * Tensor(d)).sum()]
        if x_first:
            terms.reverse()
        return terms[0] + terms[1], x, y, s

    a = Tensor(a_np, requires_grad=True)
    b = Tensor(b_np, requires_grad=True)
    loss, x, y, s = build(a, b)
    loss.backward()
    assert np.array_equal(received(s), c) and np.array_equal(received(y), c)
    assert np.array_equal(received(x), c + d)
    assert received.all_unchanged()
    for leaf, value in ((a, a_np), (b, b_np)):
        num = numeric_grad(
            lambda: float(build(Tensor(a_np), Tensor(b_np))[0].data), value
        )
        assert np.allclose(leaf.grad, num, atol=2e-2)


def test_reshape_view_gradient_survives_a_second_contribution(rng, received):
    """``h.reshape`` hands ``h`` a view of its own gradient; ``h``'s second
    contribution must not write through it."""
    a_np = rng.standard_normal((4, 3)).astype(np.float32)
    c = rng.standard_normal((2, 6)).astype(np.float32)
    d = rng.standard_normal((4, 3)).astype(np.float32)

    def build(a):
        h = a * 1.0
        r = h.reshape(2, 6)
        return (r * Tensor(c)).sum() + (h * Tensor(d)).sum(), h, r

    a = Tensor(a_np, requires_grad=True)
    loss, h, r = build(a)
    loss.backward()
    assert np.array_equal(received(r), c)
    assert np.array_equal(received(h), c.reshape(4, 3) + d)
    assert received.all_unchanged()
    num = numeric_grad(lambda: float(build(Tensor(a_np))[0].data), a_np)
    assert np.allclose(a.grad, num, atol=2e-2)


def test_tensor_used_twice_gets_its_own_sum(rng, received):
    """``y + y`` hands ``y`` the same array twice: ``y`` sums the two out
    of place, and the sum node keeps its own gradient."""
    a_np, c = (rng.standard_normal((4, 3)).astype(np.float32) for _ in range(2))
    a = Tensor(a_np, requires_grad=True)
    y = a * 2.0
    s = y + y
    (s * Tensor(c)).sum().backward()
    assert np.array_equal(received(s), c)
    assert np.array_equal(received(y), c + c)
    assert received.all_unchanged()
    assert np.array_equal(a.grad, (c + c) * np.float32(2.0))


def test_leaves_never_share_a_grad_array(rng, received):
    """Two leaves handed one array each copy it: scaling one leaf's
    ``.grad`` in place leaves the other leaf and the tape unchanged."""
    a_np, b_np, c = (
        rng.standard_normal((4, 3)).astype(np.float32) for _ in range(3)
    )
    a = Tensor(a_np, requires_grad=True)
    b = Tensor(b_np, requires_grad=True)
    s = a + b
    (s * Tensor(c)).sum().backward()
    assert not np.shares_memory(a.grad, b.grad)
    a.grad *= 2
    assert np.array_equal(b.grad, c) and np.array_equal(received(s), c)
    assert np.array_equal(a.grad, c * np.float32(2.0))


def test_backward_copies_an_explicit_seed(rng, received):
    a = Tensor(rng.standard_normal((4, 3)).astype(np.float32),
               requires_grad=True)
    out = a * 3.0
    seed = rng.standard_normal((4, 3)).astype(np.float32)
    out.backward(seed)
    assert not np.shares_memory(received(out), seed)
    expected = seed.copy()
    seed[...] = 0
    assert np.array_equal(received(out), expected)


# -- the tape is freed as backward walks it ------------------------------------


def test_backward_frees_every_non_leaf(rng):
    """Only leaves keep ``.grad``; each walked node drops its gradient,
    parents and pullback, and the leaves' gradients are unchanged."""
    a_np, c = (rng.standard_normal((4, 3)).astype(np.float32) for _ in range(2))
    a = Tensor(a_np, requires_grad=True)
    y = a * 2.0
    s = (y + y.reshape(4, 3)) * Tensor(c)
    loss = s.sum()
    loss.backward()
    for t in (y, s, loss):
        assert t.grad is None and t._parents == () and t._backward is _walked
    assert np.array_equal(a.grad, (c + c) * np.float32(2.0))


def test_second_backward_through_a_walked_graph_raises(rng):
    """A walked graph has no pullbacks left: walking it again raises
    instead of leaving the leaves' gradients untouched."""
    a = Tensor(rng.standard_normal((4, 3)).astype(np.float32),
               requires_grad=True)
    y = a * 2.0
    loss = (y * y).sum()
    loss.backward()
    first = a.grad.copy()
    with pytest.raises(RuntimeError, match="already walked"):
        loss.backward()
    with pytest.raises(RuntimeError, match="already walked"):
        (y * 3.0).sum().backward()  # a new root over a walked node
    assert np.array_equal(a.grad, first)


@pytest.mark.parametrize("model", ["gcn", "graphsage", "gat"])
def test_a_training_step_leaves_no_tape(small_store, monkeypatch, model):
    """After one step, no tensor the step taped keeps ``.grad``, a pullback
    or parents, and each conv is one taped node."""
    trainer = WholeGraphTrainer(small_store, model, seed=0, batch_size=32,
                                fanouts=[5, 5], hidden=16)
    taped, per_conv = [], []
    make = Tensor._make

    def recording_make(data, parents, backward):
        out = make(data, parents, backward)
        if out.requires_grad:
            taped.append(out)
        return out

    monkeypatch.setattr(Tensor, "_make", staticmethod(recording_make))
    for conv in trainer.model.convs:
        def counted(block, x, forward=conv.forward):
            before = len(taped)
            out = forward(block, x)
            per_conv.append(len(taped) - before)
            return out

        monkeypatch.setattr(conv, "forward", counted)
    trainer.train_epoch(max_iterations=1)
    assert taped and per_conv == [1] * len(trainer.model.convs)
    for t in taped:
        assert t.grad is None and t._parents == () and t._backward is _walked
    assert all(p.grad is not None for p in trainer.model.parameters())


# -- only needed gradients: Linear is one taped op ----------------------------


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("x_needs_grad", [True, False])
def test_linear_bitwise_matches_separate_tensor_ops(rng, bias, x_needs_grad):
    """The fused op against the literal ``(x @ W) + b`` tape: output and
    every gradient compare as ``uint32`` bits."""
    lin = Linear(6, 5, rng, bias=bias)
    if bias:
        lin.bias.data[...] = rng.standard_normal(5)
    x_np = rng.standard_normal((7, 6)).astype(np.float32)
    g = rng.standard_normal((7, 5)).astype(np.float32)

    x = Tensor(x_np, requires_grad=x_needs_grad)
    out = lin(x)
    out.backward(g)

    rx = Tensor(x_np, requires_grad=x_needs_grad)
    rw = Tensor(lin.weight.data.copy(), requires_grad=True)
    ref = rx @ rw
    if bias:
        rb = Tensor(lin.bias.data.copy(), requires_grad=True)
        ref = ref + rb
    ref.backward(g)

    assert np.array_equal(bits(out.data), bits(ref.data))
    assert np.array_equal(bits(lin.weight.grad), bits(rw.grad))
    if bias:
        assert np.array_equal(bits(lin.bias.grad), bits(rb.grad))
    if x_needs_grad:
        assert np.array_equal(bits(x.grad), bits(rx.grad))
    else:
        assert x.grad is None and rx.grad is None


def backward_peak_bytes(loss: Tensor) -> int:
    """Peak bytes ``tracemalloc`` sees allocated during ``loss.backward()``."""
    tracemalloc.start()
    try:
        loss.backward()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_linear_backward_skips_the_input_gradient(rng):
    """An input that needs no gradient gets no ``g @ W.T``: the backward
    allocates nothing near the input's size."""
    lin = Linear(64, 4, rng)
    x = Tensor(rng.standard_normal((4096, 64)).astype(np.float32))
    loss = lin(x).sum()
    assert backward_peak_bytes(loss) < x.nbytes // 4
    assert x.grad is None and lin.weight.grad is not None
