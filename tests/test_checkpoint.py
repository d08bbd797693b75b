"""Training checkpoints: round trip, resume and rejected loads."""

import numpy as np
import pytest

from repro.nn import Adam, SGD, build_model
from repro.train.checkpoint import load_checkpoint, save_checkpoint


def test_checkpoint_roundtrip_adam(tmp_path, rng):
    model = build_model("gcn", 8, 3, rng, hidden=8, num_layers=2)
    opt = Adam(model.parameters(), lr=0.01)
    # take a step so optimizer state is non-trivial
    for p in model.parameters():
        p.grad = np.ones_like(p.data)
    opt.step()
    path = tmp_path / "ck.npz"
    save_checkpoint(path, model, opt, epoch=7, extra={"best_acc": 0.9})

    model2 = build_model("gcn", 8, 3, np.random.default_rng(99), hidden=8,
                         num_layers=2)
    opt2 = Adam(model2.parameters(), lr=0.01)
    meta = load_checkpoint(path, model2, opt2)
    assert meta["epoch"] == 7
    assert float(meta["extra"]["best_acc"]) == pytest.approx(0.9)
    for a, b in zip(model.parameters(), model2.parameters()):
        assert np.array_equal(a.data, b.data)
    assert opt2.t == opt.t
    for m1, m2 in zip(opt._m, opt2._m):
        assert np.array_equal(m1, m2)


def test_checkpoint_resume_training_identical(tmp_path, rng):
    """Save -> load -> continue must equal uninterrupted training."""
    def make():
        m = build_model("gcn", 4, 2, np.random.default_rng(0), hidden=4,
                        num_layers=1, dropout=0.0)
        return m, Adam(m.parameters(), lr=0.05)

    def fake_step(model, opt, value):
        for p in model.parameters():
            p.grad = np.full_like(p.data, value)
        opt.step()

    m1, o1 = make()
    fake_step(m1, o1, 0.5)
    path = tmp_path / "mid.npz"
    save_checkpoint(path, m1, o1)
    fake_step(m1, o1, -0.25)
    uninterrupted = m1.state_dict()

    m2, o2 = make()
    load_checkpoint(path, m2, o2)
    fake_step(m2, o2, -0.25)
    for a, b in zip(uninterrupted, m2.state_dict()):
        assert np.allclose(a, b, atol=1e-7)


def test_checkpoint_optimizer_kind_mismatch(tmp_path, rng):
    model = build_model("gcn", 4, 2, rng, hidden=4, num_layers=1)
    opt = Adam(model.parameters())
    path = tmp_path / "ck.npz"
    save_checkpoint(path, model, opt)
    with pytest.raises(ValueError, match="Adam"):
        load_checkpoint(path, model, SGD(model.parameters()))


def test_checkpoint_shape_mismatch(tmp_path, rng):
    model = build_model("gcn", 4, 2, rng, hidden=4, num_layers=1)
    opt = Adam(model.parameters())
    path = tmp_path / "ck.npz"
    save_checkpoint(path, model, opt)
    other = build_model("gcn", 6, 2, rng, hidden=4, num_layers=1)
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(path, other, Adam(other.parameters()))


def _state(model, opt):
    """Copies of every parameter and Adam moment, plus the step count."""
    return ([p.data.copy() for p in model.parameters()]
            + [m.copy() for m in opt._m] + [v.copy() for v in opt._v]
            + [np.array(opt.t)])


def _stepped(model):
    opt = Adam(model.parameters(), lr=0.01)
    for p in model.parameters():
        p.grad = np.ones_like(p.data)
    opt.step()
    return opt


def test_rejected_shape_leaves_model_unchanged(tmp_path):
    """The mismatch is in the last layer; the first ones must stay."""
    model = build_model("gcn", 8, 3, np.random.default_rng(0), hidden=8,
                        num_layers=2)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, model, _stepped(model))
    other = build_model("gcn", 8, 5, np.random.default_rng(1), hidden=8,
                        num_layers=2)
    opt = _stepped(other)
    before = _state(other, opt)
    assert before[0].shape == model.parameters()[0].data.shape
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(path, other, opt)
    for a, b in zip(before, _state(other, opt)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("saved_layers,model_layers", [(3, 2), (2, 3)])
def test_parameter_count_mismatch_rejected(tmp_path, saved_layers,
                                           model_layers):
    """Equal widths make every shared shape match; the count must not."""
    def make(layers, seed):
        return build_model("gcn", 4, 4, np.random.default_rng(seed),
                           hidden=4, num_layers=layers)

    saved = make(saved_layers, 0)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, saved, _stepped(saved))
    model = make(model_layers, 1)
    opt = _stepped(model)
    before = _state(model, opt)
    with pytest.raises(ValueError, match="parameters"):
        load_checkpoint(path, model, opt)
    for a, b in zip(before, _state(model, opt)):
        assert np.array_equal(a, b)
