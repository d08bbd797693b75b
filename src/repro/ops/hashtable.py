"""Bucketed open-addressing hash table, GPU-style (paper §III-C2).

WholeGraph's AppendUnique op de-duplicates sampled neighbors with a GPU hash
table rather than the sort used by other frameworks, borrowing the parallel
hashing scheme of Warpcore (Jünger et al., HiPC'20).  The table here keeps
the GPU execution shape:

- slots are grouped into fixed-size *buckets* (the unit over which the
  AppendUnique ID-assignment scan runs);
- keys hash to a bucket and linear-probe within it, overflowing to the next
  bucket — the cooperative-group probing of Warpcore flattened to a data-
  parallel loop over *probe rounds*: in each round every unresolved key
  attempts one slot, exactly one winner per slot is committed (the CAS), and
  losers continue;
- insertion is idempotent: re-inserting an existing key finds it and reports
  ``found``.

Because conflicts are resolved per-round with a deterministic winner
(lowest input index, mirroring a CAS race that some lane wins), the table
contents are reproducible, which the tests rely on.
"""

from __future__ import annotations

import numpy as np

from repro.utils.hashing import splitmix64

EMPTY_KEY = np.int64(-1)


class GpuHashTable:
    """Open-addressing table with bucket structure and round-based probing."""

    def __init__(self, capacity: int, bucket_size: int = 128, seed: int = 0):
        """``capacity`` is rounded up to a whole number of buckets.

        Size the table at ~2x the expected key count to keep probe chains
        short (standard open-addressing practice; the CUDA op does the same).
        """
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.bucket_size = int(bucket_size)
        self.num_buckets = -(-int(capacity) // self.bucket_size)
        self.capacity = self.num_buckets * self.bucket_size
        self.seed = seed
        self.keys = np.full(self.capacity, EMPTY_KEY, dtype=np.int64)
        self.values = np.full(self.capacity, EMPTY_KEY, dtype=np.int64)
        self.size = 0

    # -- hashing ----------------------------------------------------------------

    def _home_slot(self, keys: np.ndarray) -> np.ndarray:
        h = splitmix64(
            keys.astype(np.uint64) ^ np.uint64(self.seed * 0x9E3779B97F4A7C15)
        )
        return (h % np.uint64(self.capacity)).astype(np.int64)

    # -- core probe/insert loop ----------------------------------------------------

    def insert(self, keys, values) -> tuple[np.ndarray, np.ndarray, int]:
        """Insert key/value pairs; existing keys keep their stored value.

        Returns ``(slots, found, probe_rounds)``: the slot of each input key,
        whether the key already existed *before this call or earlier in this
        batch*, and the number of probe rounds the batch needed (the cost
        model multiplies work by this).

        Duplicate keys *within* the batch resolve like the CUDA kernel: one
        lane wins the CAS and inserts, the rest subsequently find the key.
        """
        keys = np.asarray(keys, dtype=np.int64).ravel()
        values = np.broadcast_to(
            np.asarray(values, dtype=np.int64), keys.shape
        ).copy()
        if np.any(keys == EMPTY_KEY):
            raise ValueError("-1 is the reserved empty key")
        slots_out = np.full(keys.shape[0], -1, dtype=np.int64)
        found = np.zeros(keys.shape[0], dtype=bool)
        if keys.size == 0:
            return slots_out, found, 0

        pending = np.arange(keys.shape[0], dtype=np.int64)
        probe = self._home_slot(keys)
        rounds = 0
        while pending.size:
            rounds += 1
            # a lane advances at most once per two rounds (CAS-loss retries
            # revisit the slot), so 2·capacity rounds without resolution
            # means every slot was visited and held a foreign key
            if rounds > 2 * self.capacity + 4:
                raise RuntimeError("hash table is full (probe loop exhausted)")
            cur = probe[pending]
            slot_keys = self.keys[cur]

            # lanes whose probed slot already holds their key: hit.
            hit = slot_keys == keys[pending]
            slots_out[pending[hit]] = cur[hit]
            found[pending[hit]] = True

            # lanes probing an empty slot race to CAS it; the first lane per
            # slot (in input order) wins, ties on the same key resolved next
            # round as hits.
            empty = slot_keys == EMPTY_KEY
            cand = pending[empty]
            cand_slots = cur[empty]
            if cand.size:
                uniq_slots, first_idx = np.unique(cand_slots, return_index=True)
                winners = cand[first_idx]
                self.keys[uniq_slots] = keys[winners]
                self.values[uniq_slots] = values[winners]
                self.size += uniq_slots.size
                slots_out[winners] = uniq_slots

            # Unresolved lanes that probed an *occupied foreign* slot advance;
            # lanes that lost the CAS race on an empty slot retry the same
            # slot (it may now hold their own key — the failed-CAS re-read of
            # the CUDA kernel).
            unresolved = slots_out[pending] == -1
            nxt = pending[unresolved]
            foreign = ~empty[unresolved]
            adv = nxt[foreign]
            probe[adv] = (probe[adv] + 1) % self.capacity
            pending = nxt
        return slots_out, found, rounds

    def lookup(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(values, found)`` per key; missing keys get value -1.

        Probes a whole bucket-sized window per round instead of one slot:
        each pending key gathers ``W`` consecutive slots and resolves at
        the *first* slot along its chain holding its own key (hit) or the
        empty sentinel (definitive absence).  The table does not mutate
        during lookup, so first-stop-along-the-chain gives exactly the
        slot-at-a-time answer — in ``capacity / W`` rounds instead of up to
        ``capacity``.
        """
        keys = np.asarray(keys, dtype=np.int64).ravel()
        vals = np.full(keys.shape[0], EMPTY_KEY, dtype=np.int64)
        found = np.zeros(keys.shape[0], dtype=bool)
        if keys.size == 0:
            return vals, found
        w = min(self.bucket_size, self.capacity)
        offsets = np.arange(w, dtype=np.int64)
        pending = np.arange(keys.shape[0], dtype=np.int64)
        probe = self._home_slot(keys)
        for _ in range(-(-self.capacity // w)):
            if pending.size == 0:
                break
            window = (probe[pending, None] + offsets[None, :]) % self.capacity
            slot_keys = self.keys[window]
            hit = slot_keys == keys[pending, None]
            stop = hit | (slot_keys == EMPTY_KEY)
            has_stop = stop.any(axis=1)
            idx = np.flatnonzero(has_stop)
            if idx.size:
                cols = stop[idx].argmax(axis=1)
                hit_idx = idx[hit[idx, cols]]
                if hit_idx.size:
                    slots = window[hit_idx, stop[hit_idx].argmax(axis=1)]
                    vals[pending[hit_idx]] = self.values[slots]
                    found[pending[hit_idx]] = True
            # keys with no hit and no empty slot in the window probe on
            pending = pending[~has_stop]
            probe[pending] = (probe[pending] + w) % self.capacity
        return vals, found

    def set_value(self, slots, values) -> None:
        """Overwrite the value of occupied slots (AppendUnique's ID fill)."""
        slots = np.asarray(slots, dtype=np.int64)
        if np.any(self.keys[slots] == EMPTY_KEY):
            raise ValueError("cannot set value of an empty slot")
        self.values[slots] = np.asarray(values, dtype=np.int64)

    # -- bucket views (AppendUnique's scan domain) ------------------------------------

    def bucket_of_slot(self, slots) -> np.ndarray:
        return np.asarray(slots, dtype=np.int64) // self.bucket_size

    def occupied_slots(self) -> np.ndarray:
        """All occupied slot indices, in (bucket, slot) order."""
        return np.flatnonzero(self.keys != EMPTY_KEY).astype(np.int64)
