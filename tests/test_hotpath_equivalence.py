"""Equivalence tests for the vectorized hot-path kernels.

Each vectorized kernel is checked against a straightforward loop reference:
the sums on the one CSR g-SpMM — ``segment_sum``, ``scatter_add_rows`` and
GAT's weighted multi-head ``gspmm_heads`` with its two gradients — must be
*bitwise* identical to float32 loops that add edge by edge from +0.0 (and
to ``np.add.at``), the gather reply assembly must
reproduce the loop-built replies and byte accounting, the batched
hash-table probe must resolve exactly like the slot-at-a-time loop —
including wrap-around chains and missing keys — and the sampler's two
kernels must return exactly what their literal transcriptions return:
AppendUnique with every sampled lane inserted, and Algorithm 1 as a 2-D
array program with path doubling.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.dsm.comm import Communicator
from repro.dsm.whole_tensor import WholeTensor
from repro.hardware import SimNode
from repro.ops import neighbor_sampler
from repro.ops.append_unique import (
    AppendUniqueResult,
    _distinct_neighbors,
    append_unique,
)
from repro.ops.gather import distributed_memory_gather
from repro.ops.hashtable import EMPTY_KEY, GpuHashTable
from repro.ops.sampling import batch_sample_without_replacement
from repro.ops.sddmm import BLOCK_EDGES, gspmm_heads_backward
from repro.ops.segment import scatter_add_rows, segment_sum
from repro.ops.spmm import gspmm_heads
from repro.utils.scan import exclusive_prefix_sum

# ---------------------------------------------------------------------------
# segment sums, scatter-adds and weighted multi-head aggregation on the
# one CSR g-SpMM: bitwise equal to float32 loops in edge order
# ---------------------------------------------------------------------------


def _bits(a: np.ndarray) -> np.ndarray:
    """The raw bit patterns of a float32 array (so ``-0.0 != 0.0``)."""
    assert a.dtype == np.float32
    return a.view(np.uint32)


def _random_indptr(rng, num_edges, num_segments):
    cuts = np.sort(rng.integers(0, num_edges + 1, size=num_segments - 1))
    return np.concatenate(([0], cuts, [num_edges])).astype(np.int64)


def _segment_sum_loop(values, indptr):
    """Each segment's edges added one by one, in order, from +0.0."""
    out = np.zeros((len(indptr) - 1,) + values.shape[1:], dtype=np.float32)
    for i in range(len(indptr) - 1):
        for e in range(indptr[i], indptr[i + 1]):
            out[i] += values[e]
    return out


@st.composite
def edge_streams(draw, row_shapes=((), (7,), (4, 3), (2, 128))):
    """Per-edge float32 values with signed zeros, and segment bounds with
    empty segments inside and at both ends."""
    row_shape = draw(st.sampled_from(row_shapes))
    num_edges = draw(st.sampled_from([0, 1]) | st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((num_edges,) + row_shape).astype(np.float32)
    values[rng.random(num_edges) < 0.2] = -0.0
    cuts = rng.integers(0, num_edges + 1, size=draw(st.integers(0, 12)))
    if num_edges and draw(st.booleans()):
        # a -0.0 edge alone in its segment sums to +0.0
        values[0] = -0.0
        cuts = np.append(cuts, 1)
    indptr = np.concatenate((
        np.zeros(draw(st.integers(1, 3)), dtype=np.int64), np.sort(cuts),
        np.full(draw(st.integers(1, 3)), num_edges),
    )).astype(np.int64)
    return values, indptr


@given(edge_streams())
def test_segment_sum_bitwise_matches_sequential_loop(stream):
    values, indptr = stream
    out = segment_sum(values, indptr)
    assert out.shape == (len(indptr) - 1,) + values.shape[1:]
    assert np.array_equal(_bits(out), _bits(_segment_sum_loop(values, indptr)))


@given(edge_streams(), st.integers(1, 40))
def test_scatter_add_rows_bitwise_matches_add_at(stream, num_rows):
    values, _ = stream
    rng = np.random.default_rng(values.size)
    indices = rng.integers(0, num_rows, size=values.shape[0])
    ref = np.zeros((num_rows,) + values.shape[1:], dtype=np.float32)
    np.add.at(ref, indices, values)
    out = scatter_add_rows(num_rows, indices, values)
    assert np.array_equal(_bits(out), _bits(ref))


def _weighted_spmm_loops(indptr, indices, alpha, h, g):
    """GAT's aggregation ``out[t] = Σ_e α_e · h[src_e]`` and its two
    gradients as loops over the edges in CSR order: each product is a
    float32 multiply, added into a zeroed row.  ``dL/dα`` is each edge's
    and head's own dot product ``<g[t], h[src]>``."""
    out = np.zeros((len(indptr) - 1,) + h.shape[1:], dtype=np.float32)
    g_alpha = np.zeros(alpha.shape, dtype=np.float32)
    g_h = np.zeros_like(h)
    for t in range(len(indptr) - 1):
        for e in range(indptr[t], indptr[t + 1]):
            s = indices[e]
            out[t] += alpha[e][:, None] * h[s]
            g_h[s] += alpha[e][:, None] * g[t]
            for k in range(h.shape[1]):
                g_alpha[e, k] = np.einsum("d,d->", g[t, k], h[s, k])
    return out, g_alpha, g_h


@pytest.mark.parametrize("num_edges", [0, 1, 2 * BLOCK_EDGES + 3])
@pytest.mark.parametrize("heads_dim", [(1, 5), (4, 64)])
def test_weighted_multihead_spmm_sum_bitwise_matches_loops(num_edges,
                                                           heads_dim):
    num_heads, head_dim = heads_dim
    rng = np.random.default_rng(num_edges)
    nsrc = 50
    indptr = _random_indptr(rng, num_edges, 40)
    indices = rng.integers(0, nsrc, size=num_edges)
    alpha = rng.random((num_edges, num_heads)).astype(np.float32)
    alpha[rng.random(alpha.shape) < 0.1] = 0.0  # signed-zero products
    h = rng.standard_normal((nsrc, num_heads, head_dim)).astype(np.float32)
    g = rng.standard_normal((40, num_heads, head_dim)).astype(np.float32)

    out = gspmm_heads(indptr, indices, h, alpha)
    g_h, g_alpha = gspmm_heads_backward(indptr, indices, g, h, alpha)
    ref_out, ref_ga, ref_gh = _weighted_spmm_loops(
        indptr, indices, alpha, h, g
    )
    assert np.array_equal(_bits(out), _bits(ref_out))
    assert np.array_equal(_bits(g_alpha), _bits(ref_ga))
    assert np.array_equal(_bits(g_h), _bits(ref_gh))


def test_segment_sum_empty_segments_and_edges():
    out = segment_sum(np.zeros((0, 3), dtype=np.float32), [0, 0, 0])
    assert out.shape == (2, 3)
    assert np.all(out == 0)


# ---------------------------------------------------------------------------
# gather: vectorized reply assembly vs loop reference
# ---------------------------------------------------------------------------


def _loop_reference_gather(tensor, per_rank_rows):
    """Steps 3-5 of the NCCL gather as the original per-rank loops, run
    functionally (no clocks): returns (results, reply_bytes,
    remote_reply_bytes)."""
    nr = tensor.node.num_gpus
    buckets, orders = [], []
    for rows in per_rank_rows:
        rows = np.asarray(rows, dtype=np.int64)
        owners, local = tensor._owners_and_local(rows)
        order = np.argsort(owners, kind="stable")
        splits = np.cumsum(np.bincount(owners, minlength=nr))[:-1]
        buckets.append(np.split(local[order], splits))
        orders.append(np.split(order, splits))
    # transpose: id_requests[home][requester]
    id_requests = [
        [buckets[req][home] for req in range(nr)] for home in range(nr)
    ]
    replies = [[None] * nr for _ in range(nr)]
    for home in range(nr):
        part = tensor.local_part(home)
        for requester in range(nr):
            replies[home][requester] = part[id_requests[home][requester]]
    feature_replies = [
        [replies[home][req] for home in range(nr)] for req in range(nr)
    ]
    reply_bytes = np.zeros(nr)
    remote = np.zeros(nr)
    for requester in range(nr):
        for home in range(nr):
            nbytes = feature_replies[requester][home].nbytes
            reply_bytes[requester] += nbytes
            if home != requester:
                remote[requester] += nbytes
    results = []
    for rank, rows in enumerate(per_rank_rows):
        rows = np.asarray(rows, dtype=np.int64)
        out = np.empty((rows.size, tensor.num_cols), dtype=tensor.dtype)
        for home in range(nr):
            pos = orders[rank][home]
            if pos.size:
                out[pos] = feature_replies[rank][home]
        results.append(out)
    return results, reply_bytes, remote


@pytest.fixture
def tensor(registry):
    node = SimNode()
    rng = np.random.default_rng(3)
    host = rng.standard_normal((512, 16)).astype(np.float32)
    wt = WholeTensor(node, 512, 16, tag="feat", charge_setup=False)
    wt.load_from_host(host)
    return node, wt, host


def test_distributed_gather_matches_loop_reference(tensor, seeded_rng):
    node, wt, host = tensor
    nr = node.num_gpus
    per_rank_rows = [
        seeded_rng.integers(0, 512, size=seeded_rng.integers(1, 200))
        for _ in range(nr)
    ]
    ref_results, ref_bytes, ref_remote = _loop_reference_gather(
        wt, per_rank_rows
    )
    results, trace = distributed_memory_gather(
        wt, per_rank_rows, Communicator(node)
    )
    for got, ref, rows in zip(results, ref_results, per_rank_rows):
        assert np.array_equal(got, ref)
        # and both equal the direct row read
        assert np.array_equal(got, host[np.asarray(rows)])
    assert trace.step4_bytes_per_rank == float(ref_bytes.mean())
    assert trace.step4_remote_bytes_per_rank == float(ref_remote.mean())


def test_distributed_gather_with_empty_and_skewed_requests(tensor):
    node, wt, host = tensor
    nr = node.num_gpus
    # rank 0 asks for a handful (with repeats), the rest ask for nothing
    per_rank_rows = [np.array([5, 5, 17, 400, 5], dtype=np.int64)] + [
        np.array([], dtype=np.int64) for _ in range(nr - 1)
    ]
    results, _ = distributed_memory_gather(
        wt, per_rank_rows, Communicator(node)
    )
    assert np.array_equal(results[0], host[per_rank_rows[0]])
    for r in range(1, nr):
        assert results[r].shape == (0, wt.num_cols)


# ---------------------------------------------------------------------------
# hash table: batched window probe vs slot-at-a-time reference
# ---------------------------------------------------------------------------


def _loop_reference_lookup(table, keys):
    """The original one-slot-per-round probe loop."""
    keys = np.asarray(keys, dtype=np.int64).ravel()
    vals = np.full(keys.shape[0], EMPTY_KEY, dtype=np.int64)
    found = np.zeros(keys.shape[0], dtype=bool)
    if keys.size == 0:
        return vals, found
    pending = np.arange(keys.shape[0], dtype=np.int64)
    probe = table._home_slot(keys)
    for _ in range(table.capacity):
        if pending.size == 0:
            break
        cur = probe[pending]
        slot_keys = table.keys[cur]
        hit = slot_keys == keys[pending]
        vals[pending[hit]] = table.values[cur[hit]]
        found[pending[hit]] = True
        miss = slot_keys == EMPTY_KEY
        resolved = hit | miss
        nxt = pending[~resolved]
        probe[nxt] = (probe[nxt] + 1) % table.capacity
        pending = nxt
    return vals, found


@pytest.mark.parametrize("bucket_size", [4, 16, 128])
@pytest.mark.parametrize("load", [0.3, 0.9])
def test_lookup_matches_slot_at_a_time_reference(
    seeded_rng, bucket_size, load
):
    table = GpuHashTable(256, bucket_size=bucket_size, seed=1)
    keys = seeded_rng.choice(10_000, size=int(table.capacity * load),
                             replace=False).astype(np.int64)
    table.insert(keys, np.arange(keys.size))
    # half present, half absent, with duplicates
    queries = np.concatenate([
        seeded_rng.choice(keys, size=200),
        seeded_rng.integers(10_000, 20_000, size=200),
    ])
    got_vals, got_found = table.lookup(queries)
    ref_vals, ref_found = _loop_reference_lookup(table, queries)
    assert np.array_equal(got_vals, ref_vals)
    assert np.array_equal(got_found, ref_found)


def test_lookup_wraparound_chain(seeded_rng):
    """Chains that wrap past the end of the slot array resolve the same."""
    table = GpuHashTable(8, bucket_size=4, seed=0)
    keys = np.arange(100, 100 + table.capacity - 1, dtype=np.int64)
    table.insert(keys, np.arange(keys.size))
    queries = np.concatenate([keys, [999_999]])
    got_vals, got_found = table.lookup(queries)
    ref_vals, ref_found = _loop_reference_lookup(table, queries)
    assert np.array_equal(got_vals, ref_vals)
    assert np.array_equal(got_found, ref_found)
    assert bool(got_found[-1]) is False


def test_lookup_on_full_table_terminates(seeded_rng):
    """A completely full table of foreign keys must not loop forever."""
    table = GpuHashTable(8, bucket_size=8, seed=0)
    keys = np.arange(50, 50 + table.capacity, dtype=np.int64)
    table.insert(keys, np.arange(keys.size))
    vals, found = table.lookup(np.array([123_456]))
    ref_vals, ref_found = _loop_reference_lookup(
        table, np.array([123_456])
    )
    assert np.array_equal(vals, ref_vals)
    assert np.array_equal(found, ref_found)
    assert not found[0]


def test_lookup_empty_batch():
    table = GpuHashTable(16)
    vals, found = table.lookup(np.array([], dtype=np.int64))
    assert vals.size == 0 and found.size == 0


# ---------------------------------------------------------------------------
# sampler indptr preallocation
# ---------------------------------------------------------------------------


def test_sampler_block_indptr_structure(small_store, registry):
    from repro.ops.neighbor_sampler import NeighborSampler

    sampler = NeighborSampler(small_store, [5, 3], charge=False)
    rng = np.random.default_rng(1)
    seeds = rng.choice(small_store.num_nodes, size=64, replace=False)
    sub = sampler.sample(np.sort(seeds), 0, rng)
    for block in sub.blocks:
        indptr = block.indptr
        assert indptr.dtype == np.int64
        assert indptr[0] == 0
        assert np.all(np.diff(indptr) >= 0)
        assert indptr[-1] == block.indices.shape[0]
        assert indptr.shape[0] == block.num_targets + 1


# ---------------------------------------------------------------------------
# AppendUnique: dedupe-first insert vs every sampled lane inserted
# ---------------------------------------------------------------------------


def _append_unique_reference(target_nodes, neighbor_nodes, bucket_size=128,
                             load_factor=0.5):
    """The all-lanes AppendUnique: every neighbor lane probes the table,
    and the IDs come from a scan of the whole slot array (Fig. 5 read
    literally)."""
    targets = np.asarray(target_nodes, dtype=np.int64).ravel()
    neighbors = np.asarray(neighbor_nodes, dtype=np.int64).ravel()
    nt = targets.shape[0]
    if nt and np.unique(targets).shape[0] != nt:
        raise ValueError("target nodes must be unique")
    capacity = max(int((nt + neighbors.shape[0]) / load_factor), bucket_size)
    table = GpuHashTable(capacity, bucket_size=bucket_size)
    _, _, rounds_t = table.insert(targets, np.arange(nt, dtype=np.int64))
    nbr_slots, _, rounds_n = table.insert(
        neighbors, np.full(neighbors.shape[0], EMPTY_KEY)
    ) if neighbors.size else (np.empty(0, np.int64), None, 0)
    occ = table.occupied_slots()
    is_new_neighbor = table.values[occ] == EMPTY_KEY
    buckets = table.bucket_of_slot(occ)
    bucket_counts = np.bincount(
        buckets[is_new_neighbor], minlength=table.num_buckets
    )
    bucket_starts = exclusive_prefix_sum(bucket_counts) + nt
    new_slots = occ[is_new_neighbor]
    new_buckets = buckets[is_new_neighbor]
    within = np.arange(new_slots.shape[0]) - exclusive_prefix_sum(
        bucket_counts
    )[new_buckets]
    sub_ids = bucket_starts[new_buckets] + within
    table.set_value(new_slots, sub_ids)
    if neighbors.size:
        neighbor_subgraph_ids = table.values[nbr_slots]
    else:
        neighbor_subgraph_ids = np.empty(0, dtype=np.int64)
    num_unique = nt + int(is_new_neighbor.sum())
    unique_nodes = np.empty(num_unique, dtype=np.int64)
    unique_nodes[:nt] = targets
    unique_nodes[sub_ids] = table.keys[new_slots]
    duplicate_counts = np.bincount(
        neighbor_subgraph_ids, minlength=num_unique
    ).astype(np.int64)
    return AppendUniqueResult(
        unique_nodes=unique_nodes,
        num_targets=nt,
        neighbor_subgraph_ids=neighbor_subgraph_ids,
        duplicate_counts=duplicate_counts,
        probe_rounds=int(rounds_t + rounds_n),
    )


def _table_capacity(num_keys: int, bucket_size: int) -> int:
    """The capacity ``append_unique`` allocates for ``num_keys`` inputs."""
    requested = max(int(num_keys / 0.5), bucket_size)
    return -(-requested // bucket_size) * bucket_size


def _assert_same_append_unique(got, ref):
    for field in ("unique_nodes", "neighbor_subgraph_ids", "duplicate_counts"):
        a, b = getattr(got, field), getattr(ref, field)
        assert a.dtype == b.dtype == np.int64, field
        assert np.array_equal(a, b), field
    assert got.num_targets == ref.num_targets
    # the losing duplicate lanes of the all-lanes insert need at most one
    # more round to re-read the slot their key's first lane claimed
    assert ref.probe_rounds - 1 <= got.probe_rounds <= ref.probe_rounds


@st.composite
def append_unique_inputs(draw):
    """Targets and neighbors with IDs on both sides of the dense bound."""
    bucket_size = draw(st.integers(4, 128))
    nt = draw(st.sampled_from([0, 1]) | st.integers(0, 60))
    n = draw(st.sampled_from([0, 1]) | st.integers(0, 400))
    capacity = _table_capacity(nt + n, bucket_size)
    # ID ranges: well inside the table, exactly filling it (the largest
    # dense map), one past it, and 40-bit IDs
    span = draw(st.sampled_from(
        [max(1, capacity // 8), capacity, capacity + 1, 2**40]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nt = min(nt, span)
    targets = rng.permutation(
        np.unique(rng.integers(0, span, size=4 * nt + 1))
    )[:nt]
    neighbors = rng.integers(0, span, size=n)
    mode = draw(st.sampled_from(["random", "all-targets", "mixed"]))
    if nt and mode == "all-targets":
        neighbors = rng.choice(targets, size=n)
    elif nt and mode == "mixed":
        take = rng.random(n) < 0.5
        neighbors[take] = rng.choice(targets, size=int(take.sum()))
    if n and draw(st.booleans()):
        neighbors[rng.integers(0, n)] = span - 1  # the range's largest ID
    return targets, neighbors, bucket_size


def _dense_bound_case(past_bound: int, bucket_size: int):
    """Inputs whose largest neighbor ID is the largest the dense map
    accepts (``past_bound=0``) or the first it refuses (``1``)."""
    rng = np.random.default_rng(7)
    targets = rng.choice(500, size=50, replace=False)
    neighbors = rng.integers(0, 500, size=2_000)
    neighbors[7] = _table_capacity(2_050, bucket_size) - 1 + past_bound
    return targets, neighbors, bucket_size


@given(append_unique_inputs())
@example(_dense_bound_case(0, 4))
@example(_dense_bound_case(1, 128))
def test_append_unique_matches_all_lanes_insert(data):
    targets, neighbors, bucket_size = data
    got = append_unique(targets, neighbors, bucket_size=bucket_size)
    ref = _append_unique_reference(targets, neighbors, bucket_size=bucket_size)
    _assert_same_append_unique(got, ref)


def test_distinct_neighbors_dense_map_bounds():
    neighbors = np.array([4, 2, 4, 9, 2, 0], dtype=np.int64)
    keys, id_map = _distinct_neighbors(neighbors, 10)
    assert keys.tolist() == [4, 2, 9, 0]  # first-occurrence order
    assert id_map.shape == (10,)
    assert id_map[[4, 2, 9, 0]].tolist() == [0, 1, 3, 5]
    # one past the bound, negative IDs and no neighbors keep every lane
    for nbrs, bound in ((neighbors, 9), (np.array([3, -2]), 10),
                        (np.empty(0, np.int64), 10)):
        keys, id_map = _distinct_neighbors(nbrs, bound)
        assert id_map is None and keys is nbrs


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_append_unique_memory_scales_with_inputs_not_id_range():
    """Memory guard: 40-bit IDs allocate O(targets + neighbors), never an
    array over the ID range; at the widest ID range the dense map accepts,
    it costs at most one table-capacity array over the all-lanes insert."""
    rng = np.random.default_rng(0)
    n, nt = 100_000, 2_000
    targets = rng.permutation(np.unique(rng.integers(0, 2**40, size=nt)))
    neighbors = rng.integers(0, 2**40, size=n)
    inputs = targets.size + n
    # in 8-byte words per input: the table's keys and values at 2 slots
    # per input, the per-lane probe state and the hash temporaries
    assert _traced_peak(append_unique, targets, neighbors) < 8 * 24 * inputs

    capacity = _table_capacity(inputs, 128)
    dense_nbrs = rng.integers(0, capacity, size=n)
    dense_nbrs[0] = capacity - 1
    dense_targets = rng.choice(capacity, size=targets.size, replace=False)
    dense = _traced_peak(append_unique, dense_targets, dense_nbrs)
    all_lanes = _traced_peak(
        _append_unique_reference, dense_targets, dense_nbrs
    )
    assert dense <= all_lanes + 8 * capacity


# ---------------------------------------------------------------------------
# Algorithm 1: flat-indexed sampler vs the literal 2-D transcription
# ---------------------------------------------------------------------------


def _batch_sample_reference(neighbor_counts, max_sample, rng):
    """Algorithm 1 as a ``(B, M)`` array program, line by line: per-row
    packed sort, ``put_along_axis``/``take_along_axis`` scatters and
    ``ceil(log2 M)`` rounds of path doubling over the whole chain."""
    counts = np.asarray(neighbor_counts, dtype=np.int64)
    m = int(max_sample)
    b = counts.shape[0]
    if m == 0 or b == 0:
        return np.empty((b, m), dtype=np.int64)
    lanes = np.arange(m, dtype=np.int64)
    spans = counts[:, None] - lanes[None, :]
    r = (rng.random((b, m)) * spans).astype(np.int64)
    chain = np.broadcast_to(lanes, (b, m)).copy()
    packed = (r.astype(np.uint64) << np.uint64(32)) | lanes.astype(np.uint64)
    packed.sort(axis=-1)
    s = (packed >> np.uint64(32)).astype(np.int64)
    p = (packed & np.uint64(0xFFFFFFFF)).astype(np.int64)
    q = np.empty_like(p)
    np.put_along_axis(q, p, np.broadcast_to(lanes, (b, m)), axis=1)
    is_group_end = np.ones((b, m), dtype=bool)
    is_group_end[:, :-1] = s[:, :-1] != s[:, 1:]
    eligible = is_group_end & (s >= (counts[:, None] - m))
    slots = counts[:, None] - s - 1
    rows = np.broadcast_to(np.arange(b)[:, None], (b, m))
    chain[rows[eligible], slots[eligible]] = p[eligible]
    for _ in range(max(1, int(np.ceil(np.log2(max(m, 2)))))):
        chain = np.take_along_axis(chain, chain, axis=-1)
    last = counts[:, None] - chain - 1
    res = np.empty((b, m), dtype=np.int64)
    first_of_group = np.zeros((b, m), dtype=bool)
    first_of_group[:, 0] = True
    first_of_group |= q == 0
    safe_prev = np.maximum(q - 1, 0)
    first_of_group |= (np.take_along_axis(s, q, axis=1)
                       != np.take_along_axis(s, safe_prev, axis=1))
    res[first_of_group] = r[first_of_group]
    p_prev = np.take_along_axis(p, safe_prev, axis=1)
    last_redirect = np.take_along_axis(last, p_prev, axis=1)
    res[~first_of_group] = last_redirect[~first_of_group]
    return res


@given(
    st.sampled_from(["N==M", "N==M+1", "M==1", "N>>M", "mixed"]),
    st.integers(1, 48),
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
)
def test_batch_sampler_matches_2d_reference(shape, m, b, seed):
    rng = np.random.default_rng(seed)
    if shape == "M==1":
        m = 1
    counts = {
        "N==M": np.full(b, m),
        "N==M+1": np.full(b, m + 1),
        "M==1": 1 + rng.integers(0, 50, size=b),
        "N>>M": m + rng.integers(1_000, 2**31 - m, size=b),
        "mixed": m + rng.integers(0, 3 * m, size=b),
    }[shape].astype(np.int64)
    got_rng = np.random.default_rng(seed + 1)
    ref_rng = np.random.default_rng(seed + 1)
    got = batch_sample_without_replacement(counts, m, got_rng)
    ref = _batch_sample_reference(counts, m, ref_rng)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref)
    # both consumed exactly the same draws
    assert got_rng.random() == ref_rng.random()


def test_neighbor_sampler_matches_reference_kernels(small_store, monkeypatch):
    """A whole multi-layer sample is the one the literal kernels build."""
    sampler = neighbor_sampler.NeighborSampler(
        small_store, [10, 10, 5], charge=False
    )
    seeds = np.sort(np.random.default_rng(3).choice(
        small_store.num_nodes, size=96, replace=False
    ))
    got = sampler.sample(seeds, 0, np.random.default_rng(4))
    monkeypatch.setattr(neighbor_sampler, "batch_sample_without_replacement",
                        _batch_sample_reference)
    monkeypatch.setattr(neighbor_sampler, "append_unique",
                        _append_unique_reference)
    ref = sampler.sample(seeds, 0, np.random.default_rng(4))
    assert len(got.frontiers) == len(ref.frontiers) == 4
    for a, b in zip(got.frontiers, ref.frontiers):
        assert np.array_equal(a, b)
    for a, b in zip(got.blocks, ref.blocks):
        assert (a.num_targets, a.num_src) == (b.num_targets, b.num_src)
        for field in ("indptr", "indices", "duplicate_counts"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
