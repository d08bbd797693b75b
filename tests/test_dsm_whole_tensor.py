"""WholeTensor gather/scatter correctness and cost accounting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dsm.whole_tensor import WholeTensor
from repro.hardware import SimNode, dgx_a100


@pytest.fixture
def loaded():
    node = SimNode()
    t = WholeTensor(node, 500, 4, tag="f", charge_setup=False)
    host = np.arange(500 * 4, dtype=np.float32).reshape(500, 4)
    t.load_from_host(host)
    return node, t, host


def test_gather_equals_fancy_indexing(loaded):
    node, t, host = loaded
    rows = np.array([0, 499, 250, 3, 250])
    out = t.gather(rows, rank=5)
    assert np.array_equal(out, host[rows])


# -- the per-rank masked loop every row access used before the rank-major
# flat index; kept verbatim as the reference the flat index must match ------


def _masked_loop_gather(t, rows):
    owners, local_rows = t._owners_and_local(rows)
    out = np.empty((rows.size, t.num_cols), dtype=t.dtype)
    for r in range(t.node.num_gpus):
        mask = owners == r
        if np.any(mask):
            out[mask] = t.local_part(r)[local_rows[mask]]
    return out


def _masked_loop_scatter(t, parts, rows, values):
    owners, local_rows = t._owners_and_local(rows)
    for r in range(t.node.num_gpus):
        mask = owners == r
        if np.any(mask):
            parts[r][local_rows[mask]] = values[mask]


@st.composite
def layouts(draw):
    """A loaded WholeTensor on 1, 3 or 8 GPUs, block (with uneven, possibly
    empty ranks) or cyclic, plus its host copy and a drawn seed."""
    num_gpus = draw(st.sampled_from([1, 3, 8]))
    partition = draw(st.sampled_from(["block", "cyclic"]))
    num_rows = draw(st.integers(min_value=1, max_value=60))
    rows_per_rank = None
    if partition == "block":
        cuts = sorted(draw(st.lists(
            st.integers(min_value=0, max_value=num_rows),
            min_size=num_gpus - 1, max_size=num_gpus - 1,
        )))
        rows_per_rank = np.diff([0, *cuts, num_rows]).tolist()
    seed = draw(st.integers(min_value=0, max_value=2**31))
    t = WholeTensor(SimNode(dgx_a100(num_gpus)), num_rows, 3, tag="f",
                    charge_setup=False, rows_per_rank=rows_per_rank,
                    partition=partition)
    host = np.random.default_rng(seed).standard_normal(
        (num_rows, 3)
    ).astype(np.float32)
    t.load_from_host(host)
    rows = np.array(draw(st.lists(
        st.integers(min_value=0, max_value=num_rows - 1), max_size=64
    )), dtype=np.int64)
    return t, host, rows, seed


@given(layouts())
def test_gather_property_any_rows(layout):
    t, host, rows, _ = layout
    for rank in {0, t.node.num_gpus - 1}:
        out = t.gather(rows, rank)
        assert np.array_equal(out, host[rows])
        assert np.array_equal(out, _masked_loop_gather(t, rows))
    assert np.array_equal(t.gather_no_cost(rows), host[rows])


@given(layouts())
def test_scatter_property_duplicate_rows(layout):
    """``scatter`` and ``scatter_no_cost`` store exactly what the per-rank
    masked loop stores, duplicated rows included (the last value wins)."""
    t, host, rows, seed = layout
    rows = np.concatenate([rows, rows[::2]])
    values = np.random.default_rng(seed + 1).standard_normal(
        (rows.size, 3)
    ).astype(np.float32)
    parts = [t.local_part(r).copy() for r in range(t.node.num_gpus)]
    _masked_loop_scatter(t, parts, rows, values)
    for write in (t.scatter_no_cost,
                  lambda r, v: t.scatter(r, v, rank=t.node.num_gpus - 1)):
        t.load_from_host(host.copy())  # a block tensor keeps its array
        write(rows, values)
        for r in range(t.node.num_gpus):
            assert np.array_equal(t.local_part(r), parts[r])


def test_gather_charges_requesting_rank_only(loaded):
    node, t, host = loaded
    node.reset_clocks()
    t.gather(np.arange(100), rank=2)
    assert node.gpu_clock[2].now > 0
    assert node.gpu_clock[3].now == 0


def test_gather_stats_accumulate(loaded):
    node, t, _ = loaded
    t.gather(np.arange(10), 0)
    t.gather(np.arange(20), 0)
    assert t.stats["gather_calls"] == 2
    assert t.stats["gather_rows"] == 30
    assert t.stats["gather_bytes"] == 30 * t.row_bytes


def test_gather_remote_fraction_reflects_ownership(loaded):
    node, t, _ = loaded
    t.stats["gather_remote_bytes"] = 0
    t.stats["gather_bytes"] = 0
    # rows owned by rank 0, requested from rank 0: all local
    local_rows = np.arange(t.row_offsets[1])
    t.gather(local_rows, 0)
    assert t.stats["gather_remote_bytes"] == 0


def test_gather_out_of_range_rejected(loaded):
    _, t, _ = loaded
    with pytest.raises(IndexError):
        t.gather(np.array([500]), 0)
    with pytest.raises(IndexError):
        t.gather(np.array([-1]), 0)


def test_scatter_roundtrip(loaded):
    node, t, host = loaded
    rows = np.array([7, 123, 456])
    vals = np.full((3, 4), -1.0, dtype=np.float32)
    t.scatter(rows, vals, rank=1)
    assert np.array_equal(t.gather(rows, 0), vals)


def test_rank_of_row_matches_offsets(loaded):
    _, t, _ = loaded
    for rank in range(8):
        lo, hi = t.row_offsets[rank], t.row_offsets[rank + 1]
        if hi > lo:
            assert t.rank_of_row([lo]).item() == rank
            assert t.rank_of_row([hi - 1]).item() == rank


def test_explicit_rows_per_rank():
    node = SimNode()
    rows = [10, 20, 30, 40, 0, 0, 0, 0]
    t = WholeTensor(node, 100, 2, rows_per_rank=rows, charge_setup=False)
    assert t.rows_per_rank == rows
    assert t.local_part(1).shape == (20, 2)
    with pytest.raises(ValueError):
        WholeTensor(node, 100, 2, rows_per_rank=[50, 50], charge_setup=False)


def test_materialize_false_accounts_without_data():
    node = SimNode()
    num_rows = 500_000_000  # 256 GB total — far beyond host RAM, fits 8x40GB
    t = WholeTensor(node, num_rows, 128, tag="feature", materialize=False,
                    charge_setup=False)
    usage = node.memory_usage_by_tag()
    assert usage["feature"] == num_rows * 128 * 4
    with pytest.raises(RuntimeError):
        t.gather(np.array([0]), 0)
    t.free()
    assert node.total_memory_usage() == 0


def test_gather_no_cost_does_not_touch_clock(loaded):
    node, t, host = loaded
    node.reset_clocks()
    out = t.gather_no_cost(np.array([5, 10]))
    assert np.array_equal(out, host[[5, 10]])
    assert all(c.now == 0 for c in node.gpu_clock)
