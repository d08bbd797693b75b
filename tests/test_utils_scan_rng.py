"""Prefix sums, RNG streams and formatting helpers."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.rng import RngPool, spawn_rng
from repro.utils.scan import exclusive_prefix_sum
from repro.utils.units import format_bytes, format_seconds


@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=200))
def test_exclusive_scan_matches_reference(values):
    out = exclusive_prefix_sum(np.array(values, dtype=np.int64))
    ref = [sum(values[:i]) for i in range(len(values))]
    assert out.tolist() == ref


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                max_size=200))
def test_scan_total_recoverable(values):
    v = np.array(values, dtype=np.int64)
    ex = exclusive_prefix_sum(v)
    assert ex[-1] + v[-1] == v.sum()


def test_exclusive_scan_empty():
    assert exclusive_prefix_sum(np.array([], dtype=np.int64)).shape == (0,)


def test_rank_streams_are_independent():
    pool = RngPool(seed=0, num_ranks=4)
    draws = [pool.rank(r).integers(0, 2**31, size=16) for r in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(draws[i], draws[j])


def test_rng_reproducible_across_pools():
    a = RngPool(seed=5, num_ranks=2).rank(1).integers(0, 1000, 8)
    b = RngPool(seed=5, num_ranks=2).rank(1).integers(0, 1000, 8)
    assert np.array_equal(a, b)


def test_named_streams_differ_from_rank_streams():
    pool = RngPool(seed=0, num_ranks=2)
    named = pool.named("features").integers(0, 2**31, 16)
    rank0 = pool.rank(0).integers(0, 2**31, 16)
    assert not np.array_equal(named, rank0)


def test_spawn_rng_distinguishes_string_keys():
    a = spawn_rng(0, "alpha").integers(0, 2**31, 8)
    b = spawn_rng(0, "beta").integers(0, 2**31, 8)
    assert not np.array_equal(a, b)


def test_format_bytes():
    assert format_bytes(512) == "512 B"
    assert format_bytes(3.1 * 1024**3) == "3.10 GB"
    assert "MB" in format_bytes(5 * 1024**2)


def test_format_seconds():
    assert format_seconds(2.5) == "2.50 s"
    assert format_seconds(3e-3) == "3.00 ms"
    assert format_seconds(4e-6) == "4.00 us"
