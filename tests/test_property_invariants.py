"""Property-based invariants for the core graph ops (hypothesis).

Complements the example-based suites with adversarial randomized inputs:

- the hash-based AppendUnique and the sort-based variant other frameworks
  use are interchangeable (same node set, same target prefix, same
  duplicate counts) and each is deterministic call-to-call;
- per-layer neighbor sampling respects the degree bound
  ``counts == min(degree, fanout)`` and only ever emits true neighbors;
- a directed CSR survives the COO round-trip exactly.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.graph.builder import from_edge_list
from repro.ops.append_unique import append_unique, sort_based_append_unique
from repro.ops.neighbor_sampler import sample_layer

# -- AppendUnique: hash vs sort equivalence, stability ------------------------------

targets_and_neighbors = st.tuples(
    st.integers(min_value=0, max_value=40),
    st.lists(st.integers(min_value=0, max_value=300), max_size=400),
    st.integers(min_value=0, max_value=2**31),
)


def _draw_targets(nt, seed):
    rng = np.random.default_rng(seed)
    return rng.choice(1000, size=nt, replace=False).astype(np.int64)


@given(targets_and_neighbors)
def test_hash_and_sort_append_unique_agree(data):
    nt, neighbor_list, seed = data
    targets = _draw_targets(nt, seed)
    neighbors = np.asarray(neighbor_list, dtype=np.int64)

    hashed = append_unique(targets, neighbors, bucket_size=32)
    sorted_ = sort_based_append_unique(targets, neighbors)

    # same universe of nodes, regardless of suffix ordering
    assert set(hashed.unique_nodes.tolist()) == set(
        sorted_.unique_nodes.tolist()
    )
    assert hashed.num_unique == sorted_.num_unique
    # targets first and in order, for both
    assert np.array_equal(hashed.unique_nodes[:nt], targets)
    assert np.array_equal(sorted_.unique_nodes[:nt], targets)
    # sub-graph IDs translate back to the input neighbors, for both
    assert np.array_equal(
        hashed.unique_nodes[hashed.neighbor_subgraph_ids], neighbors
    )
    assert np.array_equal(
        sorted_.unique_nodes[sorted_.neighbor_subgraph_ids], neighbors
    )
    # duplicate counts agree per *node* (the layouts may differ)
    h = dict(zip(hashed.unique_nodes.tolist(),
                 hashed.duplicate_counts.tolist()))
    s = dict(zip(sorted_.unique_nodes.tolist(),
                 sorted_.duplicate_counts.tolist()))
    assert h == s
    # and both match the true neighbor multiplicity
    assert h == {
        n: Counter(neighbors.tolist()).get(n, 0)
        for n in hashed.unique_nodes.tolist()
    }


@given(targets_and_neighbors)
def test_append_unique_is_deterministic(data):
    nt, neighbor_list, seed = data
    targets = _draw_targets(nt, seed)
    neighbors = np.asarray(neighbor_list, dtype=np.int64)
    a = append_unique(targets, neighbors, bucket_size=32)
    b = append_unique(targets, neighbors, bucket_size=32)
    for attr in ("unique_nodes", "neighbor_subgraph_ids",
                 "duplicate_counts"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr))


# -- sampler: degree bound and membership -------------------------------------------

edge_lists = st.tuples(
    st.integers(min_value=1, max_value=30),  # num_nodes
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=29),
            st.integers(min_value=0, max_value=29),
        ),
        max_size=200,
    ),
    st.integers(min_value=1, max_value=12),  # fanout
    st.integers(min_value=0, max_value=2**31),  # rng seed
)


@given(edge_lists)
def test_sample_layer_degree_bounds(data):
    num_nodes, edges, fanout, seed = data
    src = np.array([min(s, num_nodes - 1) for s, _ in edges],
                   dtype=np.int64)
    dst = np.array([min(d, num_nodes - 1) for _, d in edges],
                   dtype=np.int64)
    g = from_edge_list(src, dst, num_nodes, undirected=False, dedup=False,
                       remove_self_loops=False)
    targets = np.arange(num_nodes, dtype=np.int64)
    rng = np.random.default_rng(seed)
    flat, counts, positions = sample_layer(
        g.indptr, g.indices, targets, fanout, rng
    )
    degrees = g.degree(targets)
    # the degree bound: exactly min(degree, fanout) neighbors per target
    assert np.array_equal(counts, np.minimum(degrees, fanout))
    assert flat.shape[0] == int(counts.sum())
    # every sampled edge is a real edge of its target, at its position
    assert np.array_equal(g.indices[positions], flat)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    for i, t in enumerate(targets):
        mine = flat[offsets[i] : offsets[i + 1]]
        neighbors = Counter(g.neighbors(int(t)).tolist())
        sampled = Counter(mine.tolist())
        # sampling without replacement: multiplicity never exceeds the
        # edge multiplicity in the graph
        for n, c in sampled.items():
            assert c <= neighbors[n]
        # full-degree targets get every neighbor verbatim
        if degrees[i] <= fanout:
            assert sampled == neighbors
        # edge positions stay inside the target's own CSR row
        pos = positions[offsets[i] : offsets[i + 1]]
        assert np.all((pos >= g.indptr[t]) & (pos < g.indptr[t + 1]))
        assert np.unique(pos).shape[0] == pos.shape[0]  # no edge twice


# -- CSR round-trip -----------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=40),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=39),
            st.integers(min_value=0, max_value=39),
        ),
        max_size=300,
    ),
)
def test_csr_coo_roundtrip_exact(num_nodes, edges):
    src = np.array([min(s, num_nodes - 1) for s, _ in edges],
                   dtype=np.int64)
    dst = np.array([min(d, num_nodes - 1) for _, d in edges],
                   dtype=np.int64)
    g = from_edge_list(src, dst, num_nodes, undirected=False, dedup=False,
                       remove_self_loops=False)
    assert g.num_edges == src.shape[0]  # nothing dropped or added
    s2, d2 = g.subgraph_edges()
    g2 = from_edge_list(s2, d2, num_nodes, undirected=False, dedup=False,
                        remove_self_loops=False)
    assert np.array_equal(g.indptr, g2.indptr)
    assert np.array_equal(g.indices, g2.indices)
    # the COO expansion preserves the multiset of input edges
    assert Counter(zip(src.tolist(), dst.tolist())) == Counter(
        zip(s2.tolist(), d2.tolist())
    )


# -- negative sampling: purity and exact counts -------------------------------------


link_graphs = st.tuples(
    st.integers(min_value=20, max_value=40),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=39),
            st.integers(min_value=0, max_value=39),
        ),
        min_size=1,
        max_size=80,
    ),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=2**31),
)


@given(link_graphs)
def test_link_batch_negatives_never_positive(data):
    """The uniform negative sampler only emits non-edges, non-self-loops,
    and the batch carries exactly ``num_pairs`` of each label."""
    from repro.train.trainer import sample_link_batch

    num_nodes, edges, num_pairs, seed = data
    s = np.array([min(a, num_nodes - 1) for a, _ in edges], dtype=np.int64)
    d = np.array([min(b, num_nodes - 1) for _, b in edges], dtype=np.int64)
    g = from_edge_list(s, d, num_nodes, undirected=False, dedup=True,
                       remove_self_loops=False)
    src, dst, labels = sample_link_batch(
        g, num_pairs, np.random.default_rng(seed)
    )
    # exact counts: num_pairs positives then num_pairs negatives
    assert src.shape == dst.shape == labels.shape == (2 * num_pairs,)
    assert labels[:num_pairs].tolist() == [1.0] * num_pairs
    assert labels[num_pairs:].tolist() == [0.0] * num_pairs
    edge_set = set(zip(*(e.tolist() for e in g.subgraph_edges())))
    for a, b in zip(src[:num_pairs], dst[:num_pairs]):
        assert (int(a), int(b)) in edge_set  # positives are real edges
    for a, b in zip(src[num_pairs:], dst[num_pairs:]):
        assert int(a) != int(b)  # no self-loops
        assert (int(a), int(b)) not in edge_set  # never a positive


# -- embedding row -> shard routing is a partition ----------------------------------


embedding_layouts = st.tuples(
    st.integers(min_value=1, max_value=200),      # num_rows
    st.sampled_from([1, 2, 3, 4, 8]),             # num_gpus
    st.integers(min_value=0, max_value=2**31),    # seed
)


@given(embedding_layouts)
def test_row_shard_routing_is_partition(data):
    """Every table row is owned by exactly one rank, the per-rank shard
    sizes tile the table, and values round-trip through the owners —
    including after an elastic ``rebuild_on`` shrink."""
    from repro.dsm.sparse_embedding import WholeEmbedding
    from repro.hardware import SimNode, dgx_a100

    num_rows, num_gpus, seed = data
    node = SimNode(dgx_a100(num_gpus))
    emb = WholeEmbedding(node, num_rows, 3, charge_setup=False)
    rows = np.arange(num_rows, dtype=np.int64)
    owners = emb.rank_of_row(rows)
    assert owners.shape == (num_rows,)
    assert np.all((owners >= 0) & (owners < num_gpus))
    # shard sizes tile the table exactly: the routing is a partition
    shard_rows = np.bincount(owners, minlength=num_gpus)
    local_sizes = [
        emb.table.local_part(r).shape[0] for r in range(num_gpus)
    ]
    assert shard_rows.tolist() == local_sizes
    assert int(shard_rows.sum()) == num_rows
    # values written through the routing come back verbatim, and survive
    # re-sharding onto fewer GPUs
    w = np.random.default_rng(seed).standard_normal(
        (num_rows, 3)
    ).astype(np.float32)
    emb.write_rows(rows, w)
    assert np.array_equal(emb.read_rows(rows), w)
    if num_gpus > 1:
        shrunk = emb.rebuild_on(SimNode(dgx_a100(1)), charge_setup=False)
        assert np.array_equal(shrunk.read_rows(rows), w)


# -- scatter-add dedup of duplicated row grads --------------------------------------


duplicated_grads = st.tuples(
    # unsorted IDs, duplicated, offset up to 2**40 (past int32)
    st.lists(st.integers(min_value=0, max_value=15), min_size=1,
             max_size=60),
    st.sampled_from([0, 2**31 - 8, 2**40]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31),
    # share of grad entries replaced by +0.0 or -0.0
    st.sampled_from([0.0, 0.5, 1.0]),
)


@given(duplicated_grads)
def test_dedup_row_grads_matches_sequential_sum(data):
    """``dedup_row_grads`` scatter-adds duplicates bit-identically to
    summing each row's contributions one by one from +0.0, in occurrence
    order, and to the literal ``np.add.at`` scatter-add — compared as bits,
    so a -0.0 where the sequential sum gives +0.0 fails."""
    from repro.dsm.sparse_embedding import dedup_row_grads

    row_list, offset, dim, seed, zero_share = data
    rows = np.array(row_list, dtype=np.int64) + offset
    rng = np.random.default_rng(seed)
    grads = rng.standard_normal((rows.size, dim)).astype(np.float32)
    zero = rng.random(grads.shape) < zero_share
    grads[zero] = np.where(rng.random(grads.shape) < 0.5, -0.0, 0.0)[zero]
    uniq, summed, counts = dedup_row_grads(rows, grads)
    assert np.array_equal(uniq, np.unique(rows))
    assert int(counts.sum()) == rows.size
    inverse = np.searchsorted(uniq, rows)
    add_at = np.zeros((uniq.size, dim), dtype=np.float32)
    np.add.at(add_at, inverse, grads)
    assert np.array_equal(summed.view(np.uint32), add_at.view(np.uint32))
    for i, r in enumerate(uniq):
        acc = np.zeros(dim, dtype=np.float32)
        for j in np.flatnonzero(rows == r):
            acc = acc + grads[j]  # float32 adds, occurrence order
        assert np.array_equal(summed[i].view(np.uint32), acc.view(np.uint32))
        assert counts[i] == int((rows == r).sum())
