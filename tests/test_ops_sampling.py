"""Algorithm 1: parallel sampling without replacement.

Property-tested invariants: exactly M outputs, all distinct, all in range,
uniform marginal distribution, and agreement with the sequential reference
on feasibility.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ops.sampling import (
    batch_sample_without_replacement,
    parallel_sample_without_replacement,
    reference_sample_without_replacement,
)


@given(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=0, max_value=2**31),
)
def test_single_node_distinct_and_in_range(m, extra, seed):
    n = m + extra
    rng = np.random.default_rng(seed)
    out = parallel_sample_without_replacement(n, m, rng)
    assert out.shape == (m,)
    assert len(set(out.tolist())) == m
    assert out.min() >= 0 and out.max() < n


@given(
    st.integers(min_value=1, max_value=32),
    st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=40),
    st.integers(min_value=0, max_value=2**31),
)
def test_batch_rows_independent(m, extras, seed):
    counts = np.array([m + e for e in extras], dtype=np.int64)
    rng = np.random.default_rng(seed)
    res = batch_sample_without_replacement(counts, m, rng)
    assert res.shape == (len(extras), m)
    for i, n in enumerate(counts):
        row = res[i]
        assert len(set(row.tolist())) == m
        assert row.min() >= 0 and row.max() < n


def test_m_equals_n_is_permutation():
    rng = np.random.default_rng(0)
    res = batch_sample_without_replacement(np.full(50, 7), 7, rng)
    for row in res:
        assert sorted(row.tolist()) == list(range(7))


def test_rejects_m_greater_than_n():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        parallel_sample_without_replacement(3, 5, rng)
    with pytest.raises(ValueError):
        batch_sample_without_replacement(np.array([3, 10]), 5, rng)


def test_zero_samples():
    rng = np.random.default_rng(0)
    assert parallel_sample_without_replacement(5, 0, rng).shape == (0,)
    out = batch_sample_without_replacement(np.array([5, 6]), 0, rng)
    assert out.shape == (2, 0)


def test_marginal_uniformity_chi_square():
    """Each of N indices should be selected with probability M/N."""
    rng = np.random.default_rng(42)
    n, m, trials = 12, 4, 6000
    res = batch_sample_without_replacement(np.full(trials, n), m, rng)
    counts = np.bincount(res.ravel(), minlength=n)
    expected = trials * m / n
    chi2 = ((counts - expected) ** 2 / expected).sum()
    # 11 dof, p=0.001 critical value ~31.3
    assert chi2 < 31.3, (chi2, counts)


def test_reference_sampler_properties():
    rng = np.random.default_rng(0)
    out = reference_sample_without_replacement(10, 4, rng)
    assert len(set(out.tolist())) == 4
    # M >= N returns everything
    assert np.array_equal(
        reference_sample_without_replacement(3, 5, rng), np.arange(3)
    )


def test_deterministic_given_rng_state():
    a = batch_sample_without_replacement(
        np.full(10, 20), 5, np.random.default_rng(9)
    )
    b = batch_sample_without_replacement(
        np.full(10, 20), 5, np.random.default_rng(9)
    )
    assert np.array_equal(a, b)


def test_without_replacement_never_duplicates_contrast():
    rng = np.random.default_rng(0)
    res = batch_sample_without_replacement(np.full(200, 5), 5, rng)
    assert all(len(set(r.tolist())) == 5 for r in res)


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=2**31))
def test_large_m_stress(seed):
    """Heavy collision regime: M close to N."""
    rng = np.random.default_rng(seed)
    n, m = 130, 128
    res = batch_sample_without_replacement(np.full(20, n), m, rng)
    for row in res:
        assert len(set(row.tolist())) == m
        assert row.max() < n
