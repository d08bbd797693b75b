"""GNN layers and the three evaluation models."""

import numpy as np
import pytest

from repro import config
from repro.nn import GATConv, GCNConv, SAGEConv, Tensor, build_model
from repro.nn import functional as F
from repro.nn.models import GAT, GCN, MODEL_NAMES, GraphSage, block_shapes
from repro.ops.neighbor_sampler import LayerBlock, NeighborSampler


def toy_block(rng, num_targets=3, num_src=7, fanout=3):
    counts = rng.integers(0, fanout + 1, size=num_targets)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    indices = rng.integers(0, num_src, size=indptr[-1])
    dup = np.bincount(indices, minlength=num_src)
    return LayerBlock(
        indptr=indptr, indices=indices, num_targets=num_targets,
        num_src=num_src, duplicate_counts=dup,
    )


@pytest.fixture
def block(rng):
    return toy_block(rng)


def test_gcn_conv_output_shape_and_semantics(rng, block):
    conv = GCNConv(4, 6, rng)
    x = rng.standard_normal((7, 4)).astype(np.float32)
    out = conv(block, Tensor(x))
    assert out.shape == (3, 6)
    # row t aggregates (sum_nbrs + self) / (deg+1) then projects
    for t in range(3):
        nbrs = block.indices[block.indptr[t]:block.indptr[t + 1]]
        agg = (x[nbrs].sum(axis=0) + x[t]) / (len(nbrs) + 1)
        expected = agg @ conv.linear.weight.data + conv.linear.bias.data
        assert np.allclose(out.data[t], expected, atol=1e-4)


def test_sage_conv_semantics(rng, block):
    conv = SAGEConv(4, 5, rng)
    x = rng.standard_normal((7, 4)).astype(np.float32)
    out = conv(block, Tensor(x))
    for t in range(3):
        nbrs = block.indices[block.indptr[t]:block.indptr[t + 1]]
        mean = x[nbrs].mean(axis=0) if len(nbrs) else np.zeros(4)
        expected = (
            x[t] @ conv.linear_self.weight.data
            + conv.linear_self.bias.data
            + mean @ conv.linear_neigh.weight.data
        )
        assert np.allclose(out.data[t], expected, atol=1e-4)


def test_gat_conv_shape_and_heads(rng, block):
    conv = GATConv(4, 8, rng, num_heads=4)
    x = rng.standard_normal((7, 4)).astype(np.float32)
    out = conv(block, Tensor(x))
    assert out.shape == (3, 8)
    assert conv.head_dim == 2


def test_gat_attention_is_convex_combination(rng):
    """With a single head and the bias zeroed, each output row lies in the
    convex hull of its neighbors' projected features."""
    block = LayerBlock(
        indptr=np.array([0, 3]), indices=np.array([0, 1, 2]),
        num_targets=1, num_src=3,
        duplicate_counts=np.array([1, 1, 1]),
    )
    conv = GATConv(4, 4, rng, num_heads=1)
    x = rng.standard_normal((3, 4)).astype(np.float32)
    out = conv(block, Tensor(x)).data - conv.bias.data
    h = x @ conv.linear.weight.data
    lo, hi = h.min(axis=0) - 1e-4, h.max(axis=0) + 1e-4
    assert np.all(out[0] >= lo) and np.all(out[0] <= hi)


def test_gat_rejects_indivisible_heads(rng):
    with pytest.raises(ValueError):
        GATConv(4, 10, rng, num_heads=4)


def test_layer_cost_estimates_positive(rng, block):
    for conv in (GCNConv(4, 8, rng), SAGEConv(4, 8, rng),
                 GATConv(4, 8, rng)):
        cost = conv.estimate_cost(3, 7, block.num_edges)
        assert cost["flops"] > 0 and cost["sparse_bytes"] > 0


def test_build_model_dispatch(rng):
    assert isinstance(build_model("gcn", 8, 4, rng, hidden=16,
                                  num_layers=2), GCN)
    assert isinstance(build_model("graphsage", 8, 4, rng, hidden=16,
                                  num_layers=2), GraphSage)
    assert isinstance(build_model("gat", 8, 4, rng, hidden=16,
                                  num_layers=2), GAT)
    with pytest.raises(ValueError):
        build_model("transformer", 8, 4, rng)
    assert set(MODEL_NAMES) == {"gcn", "graphsage", "gat"}


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_models_forward_on_sampled_subgraph(name, small_store, rng):
    sampler = NeighborSampler(small_store, [4, 4], charge=False)
    seeds = small_store.train_nodes[:16]
    sg = sampler.sample(seeds, 0, rng)
    model = build_model(name, small_store.feature_dim,
                        small_store.num_classes, rng, hidden=8, num_layers=2)
    x = Tensor(small_store.feature_tensor.gather_no_cost(sg.input_nodes))
    logits = model(sg, x, rng)
    assert logits.shape == (16, small_store.num_classes)
    loss = F.cross_entropy(logits, small_store.labels[seeds])
    model.zero_grad()
    loss.backward()
    assert all(p.grad is not None for p in model.parameters())


def test_model_layer_count_mismatch_rejected(small_store, rng):
    sampler = NeighborSampler(small_store, [4], charge=False)
    sg = sampler.sample(small_store.train_nodes[:4], 0, rng)
    model = build_model("gcn", small_store.feature_dim, 3, rng,
                        hidden=8, num_layers=2)
    x = Tensor(small_store.feature_tensor.gather_no_cost(sg.input_nodes))
    with pytest.raises(ValueError):
        model(sg, x)


def test_train_seconds_positive_and_ordered(small_store, rng):
    """GAT must cost more simulated train time than GCN/SAGE (paper
    §IV-C2's explanation of the smaller GAT speedups)."""
    sampler = NeighborSampler(small_store, [4, 4], charge=False)
    sg = sampler.sample(small_store.train_nodes[:16], 0, rng)
    times = {}
    for name in MODEL_NAMES:
        m = build_model(name, small_store.feature_dim, 8, rng,
                        hidden=16, num_layers=2)
        times[name] = m.step_costs(block_shapes(sg)).train_seconds(1.0)
        assert times[name] > 0
    assert times["gat"] > times["gcn"]
    assert times["gat"] > times["graphsage"]


# -- the per-layer cost ledger ------------------------------------------------------


def _lump_times(model, sg):
    """A literal transcription of the pre-ledger pricing: the train lump
    (dense, sparse, activation and optimizer kernels, 3F / 2S / 2A / 8P)
    and the inference pass (F / S / A), one launch per kernel."""
    launch = config.KERNEL_LAUNCH_OVERHEAD
    L = len(model.convs)
    flops = sparse = 0.0
    for depth, conv in enumerate(model.convs):
        b = sg.blocks[L - 1 - depth]
        cost = conv.estimate_cost(b.num_targets, b.num_src, b.num_edges)
        flops += cost["flops"]
        sparse += cost["sparse_bytes"]
    act = sum(b.num_src * model._width_hint() * 4 for b in sg.blocks)
    params = sum(p.data.nbytes for p in model.parameters())
    dense_bw = config.GPU_DENSE_FLOPS
    sparse_bw = config.GPU_SPARSE_BYTES_PER_S
    ew_bw = config.GPU_ELEMENTWISE_BYTES_PER_S
    train = (
        launch + 3.0 * flops / dense_bw
        + launch + 2 * sparse / sparse_bw
        + launch + 2 * act / ew_bw
        + launch + 8 * params / ew_bw
    )
    infer = (
        launch + flops / dense_bw
        + launch + sparse / sparse_bw
        + launch + act / ew_bw
    )
    return flops, sparse, act, params, train, infer


@pytest.mark.parametrize("num_layers", [2, 3])
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_step_costs_sum_to_the_lump(small_store, rng, name, num_layers):
    """The ledger's work sums exactly to the old lump (3F, 2S, 2A + 8P);
    only the launch count moves: 2L+1 kernels for a step instead of 4,
    L for inference instead of 3."""
    sampler = NeighborSampler(small_store, [4] * num_layers, charge=False)
    sg = sampler.sample(small_store.train_nodes[:16], 0, rng)
    model = build_model(name, small_store.feature_dim, 8, rng,
                        hidden=16, num_layers=num_layers)
    costs = model.step_costs(block_shapes(sg))
    flops, sparse, act, params, train, infer = _lump_times(model, sg)
    compute = costs.compute_entries()
    assert len(compute) == 2 * num_layers
    assert [(e.layer, e.kind) for e in compute] == (
        [(d, "forward") for d in range(num_layers)]
        + [(d, "backward") for d in reversed(range(num_layers))]
    )
    assert sum(e.flops for e in compute) == pytest.approx(3 * flops)
    assert sum(e.sparse_bytes for e in compute) == pytest.approx(2 * sparse)
    assert sum(e.elementwise_bytes for e in compute) == 2 * act
    assert costs.optimizer.elementwise_bytes == 8 * params
    assert costs.optimizer.flops == costs.optimizer.sparse_bytes == 0.0
    launch = config.KERNEL_LAUNCH_OVERHEAD
    assert costs.train_seconds(1.0) == pytest.approx(
        train + (2 * num_layers - 3) * launch, rel=1e-12
    )
    assert costs.forward_seconds(1.0) == pytest.approx(
        infer + (num_layers - 3) * launch, rel=1e-12
    )
    # every entry is one fused kernel; a layer cost factor scales it whole
    for e in compute + (costs.optimizer,):
        ops = e.op_seconds(2.5)
        assert ops["launch"] == 2.5 * launch
        assert e.seconds(2.5) == pytest.approx(2.5 * e.seconds(1.0))


def test_ready_offsets_linear_within_each_layer(small_store, rng):
    """Backward runs the last conv first; within conv d's entry its
    gradients arrive in reverse parameter order, linearly in cumulative
    bytes, and conv 0's first parameter is ready at the backward end."""
    sampler = NeighborSampler(small_store, [4, 4, 4], charge=False)
    sg = sampler.sample(small_store.train_nodes[:16], 0, rng)
    model = build_model("graphsage", small_store.feature_dim, 8, rng,
                        hidden=16, num_layers=3)
    costs = model.step_costs(block_shapes(sg))
    offsets = costs.ready_offsets(1.0)
    params = model.parameters()
    assert len(offsets) == len(params)
    assert offsets[0] == 0.0
    bwd = [e.seconds(1.0) for e in costs.backward]
    i = 0
    end = 0.0
    for d, conv in enumerate(model.convs):
        nbytes = [p.data.nbytes for p in conv.parameters()]
        mine = offsets[i:i + len(nbytes)]
        # the conv's last parameter starts its entry's production; its
        # first finishes it at the entry's end
        assert mine[0] == pytest.approx(end)
        assert mine[-1] == pytest.approx(
            end - bwd[d] * (1 - nbytes[-1] / sum(nbytes))
        )
        assert mine == sorted(mine, reverse=True)
        i += len(nbytes)
        end -= bwd[d]
