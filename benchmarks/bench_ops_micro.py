"""Microbenchmarks of the core WholeGraph ops (host wall-clock).

Unlike the table/figure benches these measure *this implementation's*
throughput (useful for tracking regressions in the vectorised kernels),
not the simulated DGX times.  The sampler cases include the shapes the
training workloads run: degrees just above the fan-out (every sampled row
collides) and a neighbor stream far longer than its ID range.  The DSM
row-access and row-grad dedup cases run the ``recsys-linkpred`` shapes, the
weighted multi-head aggregation runs ``gat-papers``' layer 0, and one
``SAGEConv`` forward and backward runs ``sage-products-overlap``'s layer 0.
CI runs the file with ``--benchmark-disable`` (each case once) so it
cannot rot.
"""

import numpy as np

from repro.dsm.sparse_embedding import dedup_row_grads
from repro.dsm.whole_tensor import WholeTensor
from repro.hardware import SimNode
from repro.nn.layers import SAGEConv
from repro.nn.tensor import Tensor
from repro.ops.append_unique import append_unique
from repro.ops.neighbor_sampler import LayerBlock
from repro.ops.sampling import batch_sample_without_replacement
from repro.ops.sddmm import gspmm_heads_backward
from repro.ops.segment import scatter_add_rows, segment_sum
from repro.ops.spmm import gspmm_backward_features, gspmm_heads, gspmm_sum

RNG = np.random.default_rng(0)


def test_bench_parallel_sampler(benchmark):
    counts = RNG.integers(30, 200, size=20_000)
    benchmark(
        batch_sample_without_replacement, counts, 30,
        np.random.default_rng(1),
    )


def test_bench_parallel_sampler_near_fanout(benchmark):
    # ogbn-products-like rows: degree 31-60 against a fan-out of 30, so
    # draws collide in every row and the redirect chains are exercised
    counts = RNG.integers(31, 61, size=60_000)
    benchmark(
        batch_sample_without_replacement, counts, 30,
        np.random.default_rng(1),
    )


def test_bench_append_unique(benchmark):
    # IDs span 1M, wider than the table: the all-lanes insert
    targets = RNG.choice(1_000_000, size=5_000, replace=False)
    neighbors = RNG.integers(0, 1_000_000, size=150_000)
    benchmark(append_unique, targets, neighbors)


def test_bench_append_unique_dense(benchmark):
    # a deep layer's stream: 1.8M sampled neighbors over a 60k-node graph,
    # nearly all of them already targets — the dense first-occurrence map
    targets = RNG.permutation(60_000)[:59_000]
    neighbors = RNG.integers(0, 60_000, size=1_800_000)
    benchmark(append_unique, targets, neighbors)


def test_bench_segment_sum(benchmark):
    sizes = RNG.integers(0, 60, size=20_000)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    values = RNG.standard_normal((int(indptr[-1]), 64)).astype(np.float32)
    benchmark(segment_sum, values, indptr)


def test_bench_scatter_add(benchmark):
    idx = RNG.integers(0, 50_000, size=500_000)
    vals = RNG.standard_normal((500_000, 32)).astype(np.float32)
    benchmark(scatter_add_rows, 50_000, idx, vals)


def test_bench_gspmm_forward(benchmark):
    sizes = RNG.integers(1, 40, size=20_000)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    indices = RNG.integers(0, 60_000, size=int(indptr[-1]))
    x = RNG.standard_normal((60_000, 128)).astype(np.float32)
    benchmark(gspmm_sum, indptr, indices, x)


def test_bench_gspmm_backward(benchmark):
    sizes = RNG.integers(1, 40, size=20_000)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    indices = RNG.integers(0, 60_000, size=int(indptr[-1]))
    g = RNG.standard_normal((20_000, 128)).astype(np.float32)
    benchmark(gspmm_backward_features, indptr, indices, g, 60_000)


def test_bench_gat_spmm_sum_forward_backward(benchmark):
    # gat-papers layer 0: ~140k edges from 6,000 sources into 5,728 targets,
    # 4 heads of 64; backward runs the transposed SpMMs and the blocked
    # g-SDDMM for the attention weights
    sizes = RNG.integers(1, 49, size=5_728)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    indices = RNG.integers(0, 6_000, size=int(indptr[-1]))
    h = RNG.standard_normal((6_000, 4, 64)).astype(np.float32)
    alpha = RNG.random((indices.size, 4)).astype(np.float32)
    g = RNG.standard_normal((sizes.size, 4, 64)).astype(np.float32)

    def step():
        gspmm_heads(indptr, indices, h, alpha)
        gspmm_heads_backward(indptr, indices, g, h, alpha)

    benchmark(step)


def test_bench_sage_layer0_forward_backward(benchmark):
    # sage-products-overlap layer 0: 1,781,278 edges from 60,000 sources
    # into 59,379 targets, 100 -> 64 features; the input features need no
    # gradient, so backward computes only the two weight products and the
    # bias sum, and no (targets x 100) input gradient
    rng = np.random.default_rng(4)
    num_targets, num_src = 59_379, 60_000
    sizes = np.full(num_targets, 30)
    sizes[rng.choice(num_targets, 92, replace=False)] = 29
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    indices = rng.integers(0, num_src, size=int(indptr[-1]))
    block = LayerBlock(
        indptr=indptr, indices=indices, num_targets=num_targets,
        num_src=num_src,
        duplicate_counts=np.bincount(indices, minlength=num_src),
    )
    conv = SAGEConv(100, 64, rng)
    x = Tensor(rng.standard_normal((num_src, 100)).astype(np.float32))
    g = rng.standard_normal((num_targets, 64)).astype(np.float32)

    def step():
        conv(block, x).backward(g)

    benchmark(step)


# -- DSM row access at the recsys-linkpred shapes: a 110k x 64 cyclic
# embedding table (100k users + 10k items), 106k rows touched per step ------

RECSYS_ROWS, RECSYS_DIM, RECSYS_TOUCHED = 110_000, 64, 106_000


def _recsys_table(rng):
    table = WholeTensor(SimNode(), RECSYS_ROWS, RECSYS_DIM,
                        charge_setup=False, partition="cyclic")
    table.load_from_host(
        rng.standard_normal((RECSYS_ROWS, RECSYS_DIM)).astype(np.float32)
    )
    rows = np.sort(rng.choice(RECSYS_ROWS, RECSYS_TOUCHED, replace=False))
    return table, rows


def test_bench_whole_tensor_gather_no_cost(benchmark):
    table, rows = _recsys_table(np.random.default_rng(1))
    benchmark(table.gather_no_cost, rows)


def test_bench_whole_tensor_scatter_no_cost(benchmark):
    rng = np.random.default_rng(2)
    table, rows = _recsys_table(rng)
    values = rng.standard_normal((rows.size, RECSYS_DIM)).astype(np.float32)
    benchmark(table.scatter_no_cost, rows, values)


def test_bench_dedup_row_grads(benchmark):
    # one step's raw row grads, with repeated IDs
    rng = np.random.default_rng(3)
    rows = rng.integers(0, RECSYS_ROWS, size=RECSYS_TOUCHED)
    grads = rng.standard_normal((rows.size, RECSYS_DIM)).astype(np.float32)
    benchmark(dedup_row_grads, rows, grads)
