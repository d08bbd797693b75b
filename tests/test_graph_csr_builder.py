"""CSR structure invariants, builders and node relabelling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph.builder import from_edge_list
from repro.graph.csr import CSRGraph


def edges_strategy(max_nodes=30, max_edges=120):
    return st.integers(min_value=2, max_value=max_nodes).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ),
                max_size=max_edges,
            ),
        )
    )


@given(edges_strategy())
def test_builder_produces_valid_csr(case):
    n, edges = case
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    g = from_edge_list(src, dst, n, undirected=True, dedup=True)
    g.validate()
    # undirected + dedup + no self loops: adjacency is symmetric
    pairs = set(zip(*g.subgraph_edges()))
    assert all((b, a) in pairs for (a, b) in pairs)
    assert all(a != b for (a, b) in pairs)


@given(edges_strategy())
def test_builder_dedup_removes_duplicates(case):
    n, edges = case
    if not edges:
        return
    src = np.array([e[0] for e in edges] * 2, dtype=np.int64)
    dst = np.array([e[1] for e in edges] * 2, dtype=np.int64)
    g = from_edge_list(src, dst, n, undirected=False, dedup=True,
                       remove_self_loops=False)
    pairs = list(zip(*g.subgraph_edges()))
    assert len(pairs) == len(set(pairs))


def lexsort_build(src, dst, num_nodes, undirected, remove_self_loops):
    """The dedup build as a literal lexsort: sort by ``(src, dst)``, drop
    exact repeats, count degrees with ``np.add.at``."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if undirected:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    if remove_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    if src.size:
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        keep = np.empty(src.size, dtype=bool)
        keep[0] = True
        np.logical_or(
            src[1:] != src[:-1], dst[1:] != dst[:-1], out=keep[1:]
        )
        src, dst = src[keep], dst[keep]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, dst


@given(edges_strategy(), st.integers(0, 5), st.booleans(), st.booleans())
def test_packed_key_dedup_matches_lexsort_reference(case, loops, undirected,
                                                    remove_self_loops):
    n, edges = case
    # repeated pairs and self-loops in every case
    edges = edges + edges[: len(edges) // 2] + [(v % n, v % n)
                                                for v in range(loops)]
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    g = from_edge_list(src, dst, n, undirected=undirected, dedup=True,
                       remove_self_loops=remove_self_loops)
    indptr, indices = lexsort_build(src, dst, n, undirected,
                                    remove_self_loops)
    assert np.array_equal(g.indptr, indptr)
    assert np.array_equal(g.indices, indices)


def test_builder_dedup_rejects_keys_past_int64():
    # 3_037_000_500**2 > 2**63 - 1 >= 3_037_000_499**2
    with pytest.raises(ValueError, match="int64"):
        from_edge_list([0], [1], num_nodes=3_037_000_500)


def test_builder_rejects_out_of_range():
    with pytest.raises(ValueError):
        from_edge_list([0], [5], num_nodes=3)


def test_builder_without_dedup_orders_edges_by_source():
    g = from_edge_list([2, 0, 1], [0, 1, 2], 3, undirected=False, dedup=False)
    # edges sorted by src: (0,1), (1,2), (2,0)
    assert g.indices.tolist() == [1, 2, 0]


def test_csr_degree_and_neighbors():
    g = CSRGraph([0, 2, 2, 3], [1, 2, 0])
    assert g.degrees().tolist() == [2, 0, 1]
    assert g.neighbors(0).tolist() == [1, 2]
    assert g.neighbors(1).tolist() == []
    assert g.degree([0, 2]).tolist() == [2, 1]


def test_csr_validation_catches_breakage():
    with pytest.raises(ValueError):
        CSRGraph([0, 2], [5], num_nodes=1)  # endpoint out of range
    with pytest.raises(ValueError):
        CSRGraph([0, 2, 1], [0, 0], num_nodes=2)  # decreasing indptr
    with pytest.raises(ValueError):
        CSRGraph([0, 1], [0, 0], num_nodes=1)  # indptr[-1] != num_edges


def test_transpose_reverses_edges():
    g = CSRGraph([0, 2, 2, 3], [1, 2, 0])
    t = g.transpose()
    fwd = set(zip(*g.subgraph_edges()))
    bwd = set(zip(*t.subgraph_edges()))
    assert bwd == {(b, a) for (a, b) in fwd}


def test_transpose_involution():
    rng = np.random.default_rng(3)
    src = rng.integers(0, 20, 100)
    dst = rng.integers(0, 20, 100)
    g = from_edge_list(src, dst, 20, undirected=False, dedup=True)
    tt = g.transpose().transpose()
    assert np.array_equal(tt.indptr, g.indptr)
    assert np.array_equal(tt.indices, g.indices)


def test_permute_nodes_preserves_structure():
    rng = np.random.default_rng(4)
    g = from_edge_list(
        rng.integers(0, 30, 200), rng.integers(0, 30, 200), 30,
        undirected=True, dedup=True,
    )
    perm = rng.permutation(30).astype(np.int64)
    p = g.permute_nodes(perm)
    assert p.num_edges == g.num_edges
    orig = set(zip(*g.subgraph_edges()))
    new = set(zip(*p.subgraph_edges()))
    assert new == {(perm[a], perm[b]) for (a, b) in orig}
    # degrees follow the relabelling
    assert np.array_equal(p.degrees()[perm], g.degrees())
