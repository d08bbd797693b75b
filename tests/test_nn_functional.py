"""Functional ops (activations, losses), the taped graph ops kept as the
convs' oracle in ``tests/taped_reference.py``, and the one-op convs:
finite differences, and ``uint32`` bits against the taped composition."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import GATConv, GCNConv, SAGEConv
from repro.nn.tensor import Tensor
from repro.ops.neighbor_sampler import LayerBlock
from repro.train import WholeGraphTrainer
from tests import taped_reference as R
from tests.test_nn_tensor import backward_peak_bytes, bits, numeric_grad


def grad_close(build, x, atol=2e-2):
    t = Tensor(x, requires_grad=True)
    build(t).backward()
    num = numeric_grad(lambda: float(build(Tensor(x)).data), x)
    assert np.allclose(t.grad, num, atol=atol), np.abs(t.grad - num).max()


@pytest.fixture
def x(rng):
    return rng.standard_normal((5, 4)).astype(np.float32) + 0.05


def test_relu_leaky_elu_grads(x):
    grad_close(lambda t: F.relu(t).sum(), x)
    grad_close(lambda t: R.leaky_relu(t, 0.1).sum(), x)
    grad_close(lambda t: F.elu(t).sum(), x)


def test_relu_forward_values():
    out = F.relu(Tensor([[-1.0, 2.0]]))
    assert out.data.tolist() == [[0.0, 2.0]]
    out = R.leaky_relu(Tensor([[-1.0, 2.0]]), 0.2)
    assert np.allclose(out.data, [[-0.2, 2.0]])


def test_dropout_train_vs_eval(x, rng):
    t = Tensor(x)
    assert F.dropout(t, 0.5, rng, training=False) is t
    out = F.dropout(t, 0.5, rng, training=True)
    kept = out.data != 0
    # inverted dropout rescales survivors
    assert np.allclose(out.data[kept], x[kept] * 2.0, atol=1e-5)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9])
def test_dropout_bitwise_matches_float_keep_array(rng, p):
    """Forward and backward against the literal float32 keep array, as
    ``uint32`` bits; negative inputs make dropped entries ``-0.0``."""
    shape = (64, 33)
    x_np = -np.abs(rng.standard_normal(shape)).astype(np.float32)
    g = rng.standard_normal(shape).astype(np.float32)
    t = Tensor(x_np, requires_grad=True)
    out = F.dropout(t, p, np.random.default_rng(5))
    out.backward(g)
    keep = (np.random.default_rng(5).random(shape) >= p).astype(
        np.float32
    ) / np.float32(1 - p)
    assert np.array_equal(bits(out.data), bits(x_np * keep))
    assert np.array_equal(bits(t.grad), bits(g * keep))
    assert np.signbit(out.data[out.data == 0]).all()
    assert (out.data == 0).any()


@pytest.mark.parametrize("p", [1.0, 1.5, -0.1, float("nan")])
def test_dropout_rejects_p_outside_unit_interval(x, rng, p):
    with pytest.raises(ValueError, match="dropout"):
        F.dropout(Tensor(x), p, rng)


def test_dropout_zero_is_identity_without_drawing(x, rng):
    t = Tensor(x)
    state = rng.bit_generator.state
    assert F.dropout(t, 0.0, rng) is t
    assert rng.bit_generator.state == state


def test_training_step_with_dropout_one_is_rejected(small_store):
    """A model built with ``dropout=1.0`` used to train on NaN."""
    trainer = WholeGraphTrainer(
        small_store, "graphsage", seed=0, batch_size=32, fanouts=[5, 5],
        hidden=16, dropout=1.0,
    )
    with pytest.raises(ValueError, match="dropout"):
        trainer.train_epoch(max_iterations=1)


def test_log_softmax_rows_normalised(x):
    out = F.log_softmax(Tensor(x))
    assert np.allclose(np.exp(out.data).sum(axis=-1), 1.0, atol=1e-5)


def test_cross_entropy_matches_manual(x):
    labels = np.array([0, 1, 2, 3, 0])
    loss = F.cross_entropy(Tensor(x), labels)
    logp = F.log_softmax(Tensor(x)).data
    manual = -logp[np.arange(5), labels].mean()
    assert float(loss.data) == pytest.approx(manual, abs=1e-6)


def test_cross_entropy_grad(x):
    labels = np.array([0, 1, 2, 3, 0])
    grad_close(lambda t: F.cross_entropy(t, labels), x, atol=5e-3)


def test_gather_and_slice_rows_grads(x):
    rows = np.array([0, 2, 2, 4])
    grad_close(lambda t: (F.gather_rows(t, rows) ** 2.0).sum(), x)
    grad_close(lambda t: (R.slice_rows(t, 3) * 3.0).sum(), x)


def test_slice_rows_is_prefix(x):
    out = R.slice_rows(Tensor(x), 2)
    assert np.array_equal(out.data, x[:2])


@pytest.fixture
def csr():
    indptr = np.array([0, 2, 5])
    indices = np.array([1, 2, 0, 3, 4])
    return indptr, indices


def test_spmm_sum_grad(csr, x):
    indptr, indices = csr
    grad_close(
        lambda t: (R.spmm_sum(indptr, indices, t) ** 2.0).sum(), x
    )


def test_spmm_sum_weighted_grads(csr, x, rng):
    indptr, indices = csr
    w = rng.standard_normal(5).astype(np.float32)
    grad_close(
        lambda t: (
            R.spmm_sum(indptr, indices, t, edge_weights=Tensor(w)) ** 2.0
        ).sum(),
        x,
    )
    # gradient w.r.t. weights is the g-SDDMM
    wt = Tensor(w, requires_grad=True)
    xs = Tensor(x)
    (R.spmm_sum(indptr, indices, xs, edge_weights=wt) ** 2.0).sum().backward()
    num = numeric_grad(
        lambda: float(
            (R.spmm_sum(indptr, indices, xs, edge_weights=Tensor(w)) ** 2.0)
            .sum().data
        ),
        w,
    )
    assert np.allclose(wt.grad, num, atol=2e-2)


def test_spmm_mean_grad(csr, x):
    indptr, indices = csr
    grad_close(
        lambda t: (R.spmm_mean(indptr, indices, t) ** 2.0).sum(), x
    )


def test_edge_softmax_grad(csr, rng):
    indptr, indices = csr
    logits = rng.standard_normal((5, 2)).astype(np.float32)
    grad_close(
        lambda t: (R.edge_softmax(indptr, t) ** 2.0).sum(), logits
    )


def test_edge_softmax_normalised_per_target(csr, rng):
    indptr, _ = csr
    alpha = R.edge_softmax(indptr, Tensor(rng.standard_normal((5, 3))))
    assert np.allclose(alpha.data[0:2].sum(axis=0), 1.0, atol=1e-5)
    assert np.allclose(alpha.data[2:5].sum(axis=0), 1.0, atol=1e-5)


def test_edge_gather_add_grads(csr, rng):
    indptr, indices = csr
    dst = rng.standard_normal((5, 2)).astype(np.float32)  # >2 rows: prefix
    src = rng.standard_normal((5, 2)).astype(np.float32)
    grad_close(
        lambda t: (
            R.edge_gather_add(indptr, indices, t, Tensor(src)) ** 2.0
        ).sum(),
        dst,
    )
    grad_close(
        lambda t: (
            R.edge_gather_add(indptr, indices, Tensor(dst), t) ** 2.0
        ).sum(),
        src,
    )


def test_gat_aggregate_grads(csr, rng):
    """GAT's aggregation: ``spmm_sum`` with ``(E, H)`` weights over
    ``(N, H, D)`` features."""
    indptr, indices = csr
    alpha = rng.random((5, 2)).astype(np.float32)
    feat = rng.standard_normal((5, 2, 3)).astype(np.float32)
    grad_close(
        lambda t: (R.spmm_sum(indptr, indices, Tensor(feat), t) ** 2.0).sum(),
        alpha,
    )
    grad_close(
        lambda t: (R.spmm_sum(indptr, indices, t, Tensor(alpha)) ** 2.0).sum(),
        feat,
    )


def test_gat_aggregate_unit_weights_grad(rng):
    """With unit weights each head is a plain segment sum of gathered rows;
    the empty middle segment and the repeated source get exact gradients."""
    indptr = np.array([0, 2, 2, 5])
    indices = np.array([1, 1, 0, 3, 1])
    ones = np.ones((5, 2), dtype=np.float32)
    feat = rng.standard_normal((4, 2, 3)).astype(np.float32)
    out = R.spmm_sum(indptr, indices, Tensor(feat), Tensor(ones))
    assert out.data.shape == (3, 2, 3)
    assert np.allclose(out.data[1], 0.0)
    assert np.allclose(out.data[0], 2 * feat[1])
    grad_close(
        lambda t: (R.spmm_sum(indptr, indices, t, Tensor(ones)) ** 2.0).sum(),
        feat,
    )


def test_sage_layer0_backward_skips_the_input_gradient(rng):
    """Layer 0's input features need no gradient, so neither linear map
    computes ``g @ W.T``: the backward allocates nothing near the size of
    the targets' input rows."""
    num_targets, num_src, in_features = 1024, 2048, 64
    sizes = rng.integers(1, 9, size=num_targets)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    indices = rng.integers(0, num_src, size=int(indptr[-1]))
    block = LayerBlock(
        indptr=indptr, indices=indices, num_targets=num_targets,
        num_src=num_src,
        duplicate_counts=np.bincount(indices, minlength=num_src),
    )
    conv = SAGEConv(in_features, 4, rng)
    x = Tensor(rng.standard_normal((num_src, in_features)).astype(np.float32))
    loss = conv(block, x).sum()
    target_rows_bytes = num_targets * in_features * 4
    assert backward_peak_bytes(loss) < target_rows_bytes // 4
    assert all(p.grad is not None for p in conv.parameters())


def test_elu_bitwise_matches_its_kept_derivative(rng):
    """The ELU that reads its slope off the output against the one that
    kept ``dgrad``, on ±0, ±inf, NaN, tiny negatives and normals."""
    special = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, -1e-45, -1e-38, -1e-8, 1e-45],
        dtype=np.float32,
    )
    x_np = np.concatenate((special, rng.standard_normal(64).astype(np.float32)))
    g = rng.standard_normal(x_np.shape).astype(np.float32)
    for alpha in (1.0, 0.5, 0.0):
        x, rx = (Tensor(x_np, requires_grad=True) for _ in range(2))
        out, ref = F.elu(x, alpha), R.elu(rx, alpha)
        out.backward(g)
        ref.backward(g)
        assert np.array_equal(bits(out.data), bits(ref.data))
        assert np.array_equal(bits(x.grad), bits(rx.grad))
    with pytest.raises(ValueError, match="alpha"):
        F.elu(Tensor(x_np), -1.0)


# -- each conv is one taped op ------------------------------------------------

CONVS = {
    "gcn": (lambda rng: GCNConv(4, 6, rng), R.gcn_forward),
    "sage": (lambda rng: SAGEConv(4, 6, rng), R.sage_forward),
    "gat-4-heads": (lambda rng: GATConv(4, 8, rng, num_heads=4),
                    R.gat_forward),
    "gat-1-head": (lambda rng: GATConv(4, 6, rng, num_heads=1),
                   R.gat_forward),
}


def random_block(rng, num_targets: int, num_src: int,
                 max_degree: int) -> LayerBlock:
    """A block with empty segments and repeated sources."""
    sizes = rng.integers(0, max_degree + 1, size=num_targets)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    indices = rng.integers(0, num_src, size=int(indptr[-1]))
    return LayerBlock(
        indptr=indptr, indices=indices, num_targets=num_targets,
        num_src=num_src,
        duplicate_counts=np.bincount(indices, minlength=num_src),
    )


def randomized(conv, rng):
    """The conv with every parameter (biases too) drawn at random."""
    for p in conv.parameters():
        p.data[...] = rng.standard_normal(p.data.shape)
    return conv


@pytest.mark.parametrize("name", sorted(CONVS))
def test_conv_grads_match_finite_differences(rng, name):
    """The one-op conv's input and parameter gradients against central
    finite differences."""
    conv = randomized(CONVS[name][0](rng), rng)
    block = random_block(rng, 3, 5, 3)
    x_np = rng.standard_normal((5, 4)).astype(np.float32)
    c = rng.standard_normal((3, conv.out_features)).astype(np.float32)

    def loss(t):
        return (conv(block, t) * Tensor(c)).sum()

    grad_close(loss, x_np)
    conv.zero_grad()
    loss(Tensor(x_np)).backward()
    for p in conv.parameters():
        num = numeric_grad(lambda: float(loss(Tensor(x_np)).data), p.data)
        assert np.allclose(p.grad, num, atol=2e-2), np.abs(p.grad - num).max()


@pytest.mark.parametrize("x_needs_grad", [True, False])
@pytest.mark.parametrize("name", sorted(CONVS))
def test_conv_bitwise_matches_taped_composition(rng, name, x_needs_grad):
    """Output and every gradient of the one-op conv against the taped
    composition it replaced, as ``uint32`` bits."""
    make, reference = CONVS[name]
    conv = randomized(make(rng), rng)
    block = random_block(rng, 40, 70, 9)
    x_np = rng.standard_normal((70, 4)).astype(np.float32)
    g = rng.standard_normal((40, conv.out_features)).astype(np.float32)

    x = Tensor(x_np, requires_grad=x_needs_grad)
    out = conv(block, x)
    out.backward(g)
    grads = [p.grad for p in conv.parameters()]
    conv.zero_grad()
    rx = Tensor(x_np, requires_grad=x_needs_grad)
    ref = reference(conv, block, rx)
    ref.backward(g)

    assert np.array_equal(bits(out.data), bits(ref.data))
    for got, p in zip(grads, conv.parameters()):
        assert np.array_equal(bits(got), bits(p.grad))
    if x_needs_grad:
        assert np.array_equal(bits(x.grad), bits(rx.grad))
    else:
        assert x.grad is None and rx.grad is None
