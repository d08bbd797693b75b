"""Modules, Linear, initialisers and optimizers."""

import numpy as np
import pytest

from repro.nn import Adam, Linear, SGD, Tensor
from repro.nn.init import xavier_uniform, zeros
from repro.nn.module import Module, Parameter


def test_linear_forward_shape(rng):
    lin = Linear(6, 4, rng)
    out = lin(Tensor(np.ones((10, 6), dtype=np.float32)))
    assert out.shape == (10, 4)


def test_linear_no_bias(rng):
    lin = Linear(3, 2, rng, bias=False)
    assert lin.bias is None
    assert len(lin.parameters()) == 1


def test_linear_flops(rng):
    assert Linear(10, 20, rng).flops(5) == 2 * 5 * 10 * 20


def test_module_parameter_collection(rng):
    class Net(Module):
        def __init__(self):
            super().__init__()
            self.a = Linear(2, 3, rng)
            self.layers = [Linear(3, 3, rng), Linear(3, 1, rng)]
            self.scale = Parameter(np.ones(1, dtype=np.float32))

    net = Net()
    # 2 params per Linear (w, b) x3 + scale
    assert len(net.parameters()) == 7
    assert net.num_parameters() == (2 * 3 + 3) + (3 * 3 + 3) + (3 + 1) + 1


def test_module_parameters_deterministic_order(rng):
    class Net(Module):
        def __init__(self):
            super().__init__()
            self.a = Linear(2, 2, rng)
            self.b = Linear(2, 2, rng)

    net = Net()
    assert [p.shape for p in net.parameters()] == [
        (2, 2), (2,), (2, 2), (2,)
    ]
    # stable across calls (DDP's flat all-reduce depends on this)
    first = [id(p) for p in net.parameters()]
    assert first == [id(p) for p in net.parameters()]


def test_train_eval_mode_propagates(rng):
    class Net(Module):
        def __init__(self):
            super().__init__()
            self.inner = Linear(2, 2, rng)

    net = Net()
    net.eval()
    assert not net.training and not net.inner.training
    net.train()
    assert net.training and net.inner.training


def test_state_dict_roundtrip(rng):
    a, b = Linear(4, 3, rng), Linear(4, 3, rng)
    b.load_state_dict(a.state_dict())
    assert np.array_equal(a.weight.data, b.weight.data)
    with pytest.raises(ValueError):
        b.load_state_dict(a.state_dict()[:1])


def test_xavier_bounds(rng):
    w = xavier_uniform((100, 50), rng)
    limit = np.sqrt(6 / 150)
    assert np.abs(w).max() <= limit
    assert w.std() > 0.1 * limit


def test_zeros_init():
    assert np.all(zeros((5,)) == 0)


def _quadratic_problem():
    """min ||w - target||^2 — any sane optimizer converges fast."""
    target = np.array([1.0, -2.0, 3.0], dtype=np.float32)
    w = Parameter(np.zeros(3, dtype=np.float32))

    def loss_and_grad():
        diff = Tensor(w.data) - Tensor(target)
        w.grad = 2 * (w.data - target)
        return float((diff * diff).sum().data)

    return w, target, loss_and_grad


def test_sgd_converges():
    w, target, step = _quadratic_problem()
    opt = SGD([w], lr=0.1)
    for _ in range(100):
        step()
        opt.step()
    assert np.allclose(w.data, target, atol=1e-3)


def test_sgd_momentum_faster_than_plain():
    w1, target, s1 = _quadratic_problem()
    w2, _, s2 = _quadratic_problem()
    plain, mom = SGD([w1], lr=0.01), SGD([w2], lr=0.01, momentum=0.9)
    for _ in range(50):
        s1(); plain.step()
        s2(); mom.step()
    assert np.abs(w2.data - target).sum() < np.abs(w1.data - target).sum()


def test_adam_converges():
    w, target, step = _quadratic_problem()
    opt = Adam([w], lr=0.1)
    for _ in range(200):
        step()
        opt.step()
    assert np.allclose(w.data, target, atol=1e-2)


def test_adam_weight_decay_shrinks():
    w = Parameter(np.full(4, 10.0, dtype=np.float32))
    opt = Adam([w], lr=0.1, weight_decay=0.5)
    for _ in range(50):
        w.grad = np.zeros(4, dtype=np.float32)
        opt.step()
    assert np.abs(w.data).max() < 10.0


def test_optimizer_skips_none_grads(rng):
    lin = Linear(2, 2, rng)
    opt = SGD(lin.parameters(), lr=0.1)
    before = lin.weight.data.copy()
    opt.step()  # no grads accumulated
    assert np.array_equal(before, lin.weight.data)


def test_optimizer_grad_nbytes(rng):
    lin = Linear(4, 4, rng)
    opt = Adam(lin.parameters())
    assert opt.grad_nbytes() == (16 + 4) * 4


def test_optimizer_requires_params():
    with pytest.raises(ValueError):
        SGD([])
