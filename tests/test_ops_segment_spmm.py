"""Segment reductions, g-SpMM and g-SDDMM against dense references."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ops.sddmm import gsddmm_add, gsddmm_dot
from repro.ops.segment import (
    scatter_add_rows,
    segment_ids_from_indptr,
    segment_max,
    segment_softmax,
    segment_sum,
)
from repro.ops.spmm import (
    atomic_elision_stats,
    gspmm_backward_features,
    gspmm_mean,
    gspmm_sum,
)
from tests.spmm_reference import (
    reference_gspmm_backward_features,
    reference_gspmm_mean,
    reference_gspmm_sum,
)


def random_csr(rng, rows=6, cols=9, density=0.4):
    mask = rng.random((rows, cols)) < density
    indptr = np.zeros(rows + 1, dtype=np.int64)
    indices = []
    for r in range(rows):
        cs = np.flatnonzero(mask[r])
        indices.extend(cs.tolist())
        indptr[r + 1] = indptr[r] + cs.size
    return indptr, np.array(indices, dtype=np.int64)


@given(st.integers(min_value=0, max_value=2**31))
def test_segment_sum_mean_max_vs_loop(seed):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, 5, size=8)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    values = rng.standard_normal((indptr[-1], 3)).astype(np.float32)
    s = segment_sum(values, indptr)
    mx = segment_max(values, indptr)
    for i in range(8):
        seg = values[indptr[i]:indptr[i + 1]]
        if seg.shape[0] == 0:
            assert np.all(s[i] == 0) and np.all(mx[i] == 0)
        else:
            assert np.allclose(s[i], seg.sum(axis=0), atol=1e-5)
            assert np.allclose(mx[i], seg.max(axis=0), atol=1e-5)


def test_segment_softmax_sums_to_one():
    rng = np.random.default_rng(0)
    indptr = np.array([0, 3, 3, 7])
    vals = rng.standard_normal((7, 2)).astype(np.float32)
    sm = segment_softmax(vals, indptr)
    assert np.allclose(sm[0:3].sum(axis=0), 1.0, atol=1e-5)
    assert np.allclose(sm[3:7].sum(axis=0), 1.0, atol=1e-5)


def test_segment_softmax_stable_with_large_values():
    indptr = np.array([0, 2])
    vals = np.array([[1000.0], [1001.0]], dtype=np.float32)
    sm = segment_softmax(vals, indptr)
    assert np.isfinite(sm).all()
    assert sm.sum() == pytest.approx(1.0, abs=1e-5)


def test_segment_ids_expansion():
    assert segment_ids_from_indptr([0, 2, 2, 5]).tolist() == [0, 0, 2, 2, 2]


@given(st.integers(min_value=0, max_value=2**31))
def test_scatter_add_matches_np_add_at(seed):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, 10, size=50)
    vals = rng.standard_normal((50, 4)).astype(np.float32)
    ref = np.zeros((10, 4), dtype=np.float32)
    np.add.at(ref, idx, vals)
    out = scatter_add_rows(10, idx, vals)
    assert np.allclose(out, ref, atol=1e-4)


def test_scatter_add_empty():
    out = scatter_add_rows(5, np.array([], dtype=np.int64),
                           np.zeros((0, 3), dtype=np.float32))
    assert out.shape == (5, 3) and np.all(out == 0)


@given(st.integers(min_value=0, max_value=2**31))
def test_gspmm_sum_vs_dense_matmul(seed):
    rng = np.random.default_rng(seed)
    indptr, indices = random_csr(rng)
    x = rng.standard_normal((9, 5)).astype(np.float32)
    w = rng.standard_normal(indices.shape[0]).astype(np.float32)
    dense = np.zeros((6, 9), dtype=np.float32)
    for r in range(6):
        for e in range(indptr[r], indptr[r + 1]):
            dense[r, indices[e]] += w[e]
    assert np.allclose(
        gspmm_sum(indptr, indices, x, w), dense @ x, atol=1e-4
    )


@pytest.mark.parametrize("indptr, indices", [
    ([0, 1, 2], [0, 7]),        # a column past the 3 sources
    ([0, 1, 2], [0, -1]),       # a negative column
    ([0, -5, 3], [0, 1, 2]),    # a decreasing indptr
])
def test_csr_builder_rejects_out_of_range_indices(indptr, indices):
    """SciPy trusts its index arrays; the one CSR builder must not."""
    with pytest.raises(ValueError):
        gspmm_sum(indptr, indices, np.ones((3, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        gspmm_backward_features(
            indptr, indices, np.ones((2, 2), dtype=np.float32), 3
        )


def test_segment_sum_and_scatter_add_reject_bad_bounds():
    values = np.ones((3, 2), dtype=np.float32)
    with pytest.raises(ValueError):
        segment_sum(values, [0, 2, 1, 3])
    for rows in ([0, 5, 1], [0, -1, 1]):
        with pytest.raises(ValueError):
            scatter_add_rows(5, np.array(rows), values)


@given(st.integers(min_value=0, max_value=2**31))
def test_scipy_and_reference_kernels_agree(seed):
    rng = np.random.default_rng(seed)
    indptr, indices = random_csr(rng)
    x = rng.standard_normal((9, 5)).astype(np.float32)
    w = rng.standard_normal(indices.shape[0]).astype(np.float32)
    assert np.allclose(
        gspmm_sum(indptr, indices, x, w),
        reference_gspmm_sum(indptr, indices, x, w),
        atol=1e-4,
    )
    assert np.allclose(
        gspmm_mean(indptr, indices, x),
        reference_gspmm_mean(indptr, indices, x),
        atol=1e-4,
    )
    g = rng.standard_normal((6, 5)).astype(np.float32)
    fast = gspmm_backward_features(indptr, indices, g, 9, edge_weights=w)
    ref, _ = reference_gspmm_backward_features(
        indptr, indices, g, 9, edge_weights=w
    )
    assert np.allclose(fast, ref, atol=1e-4)


def test_backward_is_transpose_spmm():
    """grad_x = A^T g — verified against explicit transpose."""
    rng = np.random.default_rng(7)
    indptr, indices = random_csr(rng)
    g = rng.standard_normal((6, 4)).astype(np.float32)
    dense = np.zeros((6, 9), dtype=np.float32)
    for r in range(6):
        dense[r, indices[indptr[r]:indptr[r + 1]]] = 1.0
    out = gspmm_backward_features(indptr, indices, g, 9)
    assert np.allclose(out, dense.T @ g, atol=1e-4)


def test_duplicate_count_elision_same_result_and_stats():
    rng = np.random.default_rng(1)
    indptr = np.array([0, 2, 4])
    indices = np.array([0, 1, 1, 2])  # node 1 hit twice, 0 and 2 once
    dup = np.array([1, 2, 1])
    g = rng.standard_normal((2, 3)).astype(np.float32)
    with_dup, stats = reference_gspmm_backward_features(
        indptr, indices, g, 3, duplicate_counts=dup
    )
    without, _ = reference_gspmm_backward_features(indptr, indices, g, 3)
    assert np.allclose(with_dup, without, atol=1e-5)
    assert stats == {"plain_stores": 2, "atomic_adds": 2}
    assert atomic_elision_stats(indices, dup) == stats
    assert atomic_elision_stats(indices, None)["atomic_adds"] == 4


def test_gsddmm_dot_per_edge():
    indptr = np.array([0, 2, 3])
    indices = np.array([0, 2, 1])
    u = np.arange(6, dtype=np.float32).reshape(2, 3)  # dst rows
    v = np.arange(9, dtype=np.float32).reshape(3, 3)  # src rows
    out = gsddmm_dot(indptr, indices, u, v)
    expected = [u[0] @ v[0], u[0] @ v[2], u[1] @ v[1]]
    assert np.allclose(out, expected)


def test_gsddmm_add_multihead():
    indptr = np.array([0, 1, 3])
    indices = np.array([1, 0, 2])
    dst = np.array([[1.0, 10.0], [2.0, 20.0]], dtype=np.float32)
    src = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], dtype=np.float32)
    out = gsddmm_add(indptr, indices, dst, src)
    assert np.allclose(out, [[1.3, 10.4], [2.1, 20.2], [2.5, 20.6]])
