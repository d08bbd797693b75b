"""GlobalID packing round-trips and range enforcement."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.ids import (
    MAX_LOCAL_ID,
    MAX_RANK,
    make_global_ids,
    rank_of,
    split_global_ids,
)


@given(
    st.integers(min_value=0, max_value=MAX_RANK),
    st.integers(min_value=0, max_value=MAX_LOCAL_ID),
)
def test_roundtrip_scalar(rank, local):
    gid = make_global_ids(rank, local)
    r, l = split_global_ids(gid)
    assert int(r) == rank
    assert int(l) == local


def test_roundtrip_vectorised():
    rng = np.random.default_rng(0)
    ranks = rng.integers(0, 8, size=1000)
    locals_ = rng.integers(0, 10**9, size=1000)
    gids = make_global_ids(ranks, locals_)
    assert np.array_equal(rank_of(gids), ranks)
    assert np.array_equal(split_global_ids(gids)[1], locals_)


def test_global_ids_are_distinct_across_ranks():
    # the same local id on different ranks must differ
    gids = make_global_ids(np.arange(8), np.zeros(8, dtype=np.int64))
    assert np.unique(gids).shape[0] == 8


def test_ordering_within_rank_preserved():
    gids = make_global_ids(3, np.arange(100))
    assert np.all(np.diff(gids) > 0)


def test_rank_out_of_range_rejected():
    with pytest.raises(ValueError):
        make_global_ids(MAX_RANK + 1, 0)


def test_negative_local_rejected():
    with pytest.raises(ValueError):
        make_global_ids(0, -1)


def test_local_out_of_range_rejected():
    with pytest.raises(ValueError):
        make_global_ids(0, MAX_LOCAL_ID + 1)
