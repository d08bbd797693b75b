"""Parallel random sampling without replacement (paper Algorithm 1).

WholeGraph needs, for every target node, ``M`` random neighbors drawn
*without replacement* from its ``N`` neighbors.  Rejection-free parallel
generation is non-trivial because each lane must avoid every other lane's
pick.  The paper adopts the path-doubling scheme of Rajan, Ghosh & Gupta
(IPL 1989):

1. lane ``i`` draws ``r[i]`` uniform in ``[0, N-1-i]`` — a parallel analogue
   of Floyd's sampling;
2. the draws are sorted (the paper packs the 32-bit value and the 32-bit
   lane index into one 64-bit key and radix-sorts once — reproduced here);
3. colliding draws are redirected to the "reserved" values
   ``{N-M, …, N-1}`` through a successor ``chain`` array resolved with
   path doubling (``chain[i] = chain[chain[i]]`` for ``log M`` rounds) —
   here, for just the lanes that read a redirect, by following their
   pointers to the same fixpoint;
4. each lane emits either its own draw (first of its value group) or the
   redirect of its predecessor in the sorted order.

The output is always ``M`` *distinct* neighbor indices, and the marginal
distribution is uniform — both are property-tested.

Two entry points:

- :func:`parallel_sample_without_replacement` — a single (N, M) instance,
  literal transcription of Algorithm 1;
- :func:`batch_sample_without_replacement` — the batched form used by the
  training pipeline: one CUDA thread block per target node becomes one row
  of ``M`` lanes in a flat array program, all rows resolved simultaneously.
"""

from __future__ import annotations

import numpy as np


def _parallel_sort_packed(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The paper's radix-sort trick: pack value<<32 | index, sort once.

    Sorts each row of ``r`` and returns ``(s, p)``: the sorted values and
    the *flat* index (``row * M + lane``) of each.  Packing makes the sort
    stable by construction (ties broken by index), exactly like the 64-bit
    radix sort in the CUDA implementation; within a row the flat index
    orders like the lane, so it breaks ties identically.
    """
    packed = r.astype(np.uint64)
    packed <<= np.uint64(32)
    packed |= np.arange(r.size, dtype=np.uint64).reshape(r.shape)
    packed.sort(axis=-1)
    s = (packed >> np.uint64(32)).view(np.int64)
    p = (packed & np.uint64(0xFFFFFFFF)).view(np.int64)
    return s, p


def parallel_sample_without_replacement(
    neighbor_count: int,
    max_sample: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Algorithm 1 for a single target node.

    Parameters
    ----------
    neighbor_count:
        ``N``, the node's degree.
    max_sample:
        ``M``, the number of samples; must satisfy ``M <= N`` (for
        ``M >= N`` the caller simply takes all neighbors — paper §III-C1).

    Returns
    -------
    np.ndarray
        ``M`` distinct neighbor indices in ``[0, N)``.
    """
    n, m = int(neighbor_count), int(max_sample)
    if m > n:
        raise ValueError("Algorithm 1 requires M <= N; take all neighbors instead")
    if m == 0:
        return np.empty(0, dtype=np.int64)
    out = batch_sample_without_replacement(
        np.array([n], dtype=np.int64), m, rng
    )
    return out[0]


def batch_sample_without_replacement(
    neighbor_counts: np.ndarray,
    max_sample: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Algorithm 1 batched over ``B`` target nodes (one row per node).

    Every row must have ``N_b >= M`` (callers split off the take-all rows
    first).  Returns a ``(B, M)`` int64 array of distinct indices per row.
    """
    counts = np.asarray(neighbor_counts, dtype=np.int64)
    m = int(max_sample)
    b = counts.shape[0]
    if m == 0 or b == 0:
        return np.empty((b, m), dtype=np.int64)
    if np.any(counts < m):
        raise ValueError("every row must satisfy N >= M")

    # line 2: r[i] ~ uniform[0, N-1-i]
    r = rng.random((b, m))
    r *= counts[:, None] - np.arange(m, dtype=np.int64)
    # line 5: s, p = parallel_sort(r)  (packed 64-bit radix sort).  From
    # here on every array is flat: sorted position i of row b is b*M + i,
    # and p holds flat lane indices b*M + lane.
    s, p = _parallel_sort_packed(r.astype(np.int64))
    s, p = s.ravel(), p.ravel()
    total = b * m
    # value-group bounds in sorted order: new_group[i] marks the first of
    # its group, so new_group[i + 1] marks the last (lines 8 and 17)
    new_group = np.empty(total + 1, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=new_group[1:total])
    new_group[::m] = True
    row_base = np.arange(0, total, m, dtype=np.int64)

    # lines 3 and 8-10: chain[i] = i, then the last of each value group with
    # s[i] >= N-M claims slot chain[N - s[i] - 1] = p[i]
    slots = counts[:, None] - 1 - s.reshape(b, m)
    claim = new_group[1:] & (slots.ravel() < m)
    slots += row_base[:, None]
    chain = np.arange(total, dtype=np.int64)
    chain[slots.ravel()[claim]] = p[claim]

    # lines 16-22: the first of each value group emits its own draw; every
    # other lane emits N - chain*[p[i-1]] - 1, where chain* resolves the
    # predecessor's redirect chain.  Line 12 resolves all of chain by path
    # doubling; only these lanes read it, and chain[k] <= k (lane k draws at
    # most N-1-k), so following their pointers reaches the same fixpoint in
    # at most M-1 hops.
    out = s.copy()
    dup = np.flatnonzero(~new_group[:total])
    root = chain[p[dup - 1]]
    while True:
        nxt = chain[root]
        if np.array_equal(nxt, root):
            break
        root = nxt
    rows = dup // m
    out[dup] = counts[rows] - 1 - (root - row_base[rows])
    res = np.empty(total, dtype=np.int64)
    res[p] = out
    return res.reshape(b, m)


def reference_sample_without_replacement(
    neighbor_count: int, max_sample: int, rng: np.random.Generator
) -> np.ndarray:
    """Sequential reference sampler (Fisher–Yates partial shuffle).

    The oracle the parallel sampler is property-tested against.
    """
    n, m = int(neighbor_count), int(max_sample)
    if m >= n:
        return np.arange(n, dtype=np.int64)
    return rng.choice(n, size=m, replace=False).astype(np.int64)
