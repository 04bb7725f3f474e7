"""Mergeable Bloom filter + Bloom-accelerated exact semi/anti join.

The 100-TB path q19 documents: a distinct-key broadcast set is itself
the OOM at 10^12 rows, so the membership side becomes a fixed-size
mergeable Bloom (per-batch partial bitmaps OR-reduced, the
``stages/sketch.py`` HLL pattern).  Bloom negatives are EXACT
(no false negatives), so they resolve immediately; Bloom positives —
true matches plus an fpp-bounded trickle of false positives — go
through a bucketed co-partition exact verify, keeping the final
answer hash-exact while the all-to-all shuffle only carries the
Bloom-surviving fraction of the probe side.

Standard public construction (Bloom 1970; double hashing per
Kirsch & Mitzenmacher 2006): k probe positions h1 + i*h2 mod m from
two murmur-finalized 64-bit hashes.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

from naer_ray.hashing import hash_u32
from .sketch import _fmix64

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _keys_u64(values) -> np.ndarray:
    """Deterministic uint64 keys from an int numpy array / Arrow column /
    sequence; strings hash via FNV (per-value — int keys are the hot
    path and stay fully vectorized)."""
    if isinstance(values, (pa.ChunkedArray, pa.Array)):
        if pa.types.is_integer(values.type):
            values = values.to_numpy(zero_copy_only=False)
        else:
            values = values.to_pylist()
    if isinstance(values, np.ndarray) and np.issubdtype(values.dtype, np.integer):
        return values.astype(np.int64).view(np.uint64)
    return np.array(
        [(hash_u32(str(v)) << 32) | hash_u32(str(v) + "\x00bloom") for v in values],
        dtype=np.uint64,
    )


class BloomFilter:
    def __init__(self, n_bits: int, k: int):
        n_words = max(1, (int(n_bits) + 63) // 64)
        self.n_bits = n_words * 64
        self.k = int(k)
        self.words = np.zeros(n_words, dtype=np.uint64)

    @classmethod
    def sized(cls, n_expected: int, fpp: float = 0.01, max_bits: int = 1 << 31):
        """Optimal m/k for n keys at the target false-positive rate
        (m = -n ln p / ln^2 2, k = (m/n) ln 2).  ``max_bits`` bounds
        worker memory — past it the realized fpp degrades gracefully
        and the exact-verify stage still keeps results correct."""
        n = max(int(n_expected), 1)
        m = int(-n * math.log(max(min(fpp, 0.5), 1e-9)) / (math.log(2) ** 2))
        m = min(max(m, 1024), max_bits)
        k = min(max(round(m / n * math.log(2)), 1), 16)
        return cls(m, k)

    def _positions(self, keys_u64: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            h1 = _fmix64(keys_u64)
            h2 = _fmix64(h1 ^ _GOLDEN) | np.uint64(1)
            i = np.arange(self.k, dtype=np.uint64)[:, None]
            return (h1[None, :] + i * h2[None, :]) % np.uint64(self.n_bits)

    def add_many(self, values) -> "BloomFilter":
        keys = _keys_u64(values)
        if len(keys) == 0:
            return self
        pos = self._positions(keys)
        np.bitwise_or.at(
            self.words, (pos >> np.uint64(6)).astype(np.int64),
            np.uint64(1) << (pos & np.uint64(63)),
        )
        return self

    def contains_many(self, values) -> np.ndarray:
        keys = _keys_u64(values)
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(keys)
        bits = (
            self.words[(pos >> np.uint64(6)).astype(np.int64)]
            >> (pos & np.uint64(63))
        ) & np.uint64(1)
        return bits.all(axis=0)

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        np.bitwise_or(self.words, other.words, out=self.words)
        return self

    def to_bytes(self) -> bytes:
        return self.words.tobytes()

    @classmethod
    def from_bytes(cls, buf: bytes, k: int) -> "BloomFilter":
        bf = cls(len(buf) * 8, k)
        bf.words = np.frombuffer(buf, dtype=np.uint64).copy()
        return bf


def build_bloom(ds, col: str, n_expected: int, fpp: float = 0.01) -> BloomFilter:
    """Distributed Bloom build: per-batch partial bitmaps OR-merged in a
    tiny driver reduce (shuffle volume O(batches x m/8 bytes), never
    O(rows) — the HLL pattern)."""
    proto = BloomFilter.sized(n_expected, fpp)

    def per_batch(batch: pa.Table) -> pa.Table:
        bf = BloomFilter(proto.n_bits, proto.k)
        bf.add_many(batch[col].combine_chunks() if isinstance(batch[col], pa.ChunkedArray) else batch[col])
        return pa.table({"bits": pa.array([bf.to_bytes()], pa.binary())})

    parts = ds.map_batches(per_batch, batch_format="pyarrow", batch_size=65536)
    for block in parts.iter_batches(batch_format="pyarrow"):
        for buf in block["bits"].to_pylist():
            proto.words |= np.frombuffer(buf, dtype=np.uint64)
    return proto


def bloom_flag_membership(
    left_ds,
    keys_ds,
    *,
    left_col: str,
    key_col: str,
    n_expected: int,
    fpp: float = 0.01,
    n_buckets: int = 64,
):
    """Left rows + an EXACT ``in_right`` bool column, Bloom-accelerated.

    1. build the mergeable Bloom over ``keys_ds[key_col]`` and broadcast
       it once (``ray.put``, read per actor — never re-shipped per task);
    2. probe each left batch: Bloom-negative rows resolve exactly to
       ``in_right=False`` and never enter the shuffle;
    3. Bloom-positive rows co-partition with the keys (one key-hash
       bucket shuffle, bucket-run kernel) for the exact verdict.

    Returns a Dataset with the left columns plus ``in_right``.
    """
    import ray

    from .joins import _co_partitioned

    bloom = build_bloom(keys_ds, key_col, n_expected, fpp)
    words_ref = ray.put(bloom.words)
    k = bloom.k

    def probe(keep_maybe: bool):
        def f(batch: pd.DataFrame) -> pd.DataFrame:
            bf = BloomFilter(1, k)
            bf.words = ray.get(words_ref)  # zero-copy plasma read per task
            bf.n_bits = len(bf.words) * 64
            maybe = bf.contains_many(batch[left_col].to_numpy())
            if keep_maybe:
                return batch[maybe]
            out = batch[~maybe].copy()
            out["in_right"] = False
            return out

        return f

    # Bloom-negative rows resolve exactly (no false negatives) and skip
    # the shuffle entirely; the probe is re-run on each branch (two cheap
    # streaming passes beat materializing the split point)
    negatives = left_ds.map_batches(
        probe(keep_maybe=False), batch_format="pandas", batch_size=65536
    )
    candidates = left_ds.map_batches(
        probe(keep_maybe=True), batch_format="pandas", batch_size=65536
    )

    # per-batch partial dedup of the key side trims shuffle bytes
    keys_dedup = keys_ds.map_batches(
        lambda df: df[[key_col]].drop_duplicates(), batch_format="pandas"
    )
    tagged, left_cols, _rcols, restore = _co_partitioned(
        candidates, keys_dedup, left_col, key_col, n_buckets
    )

    def verify(group: pd.DataFrame) -> pd.DataFrame:
        rows = restore(group.loc[group["__side"] == 0, left_cols])
        keys = restore(group.loc[group["__side"] == 1, [key_col]])[key_col]
        rows = rows.copy()
        rows["in_right"] = rows[left_col].isin(set(keys.tolist()))
        return rows

    verified = tagged.groupby("__bucket").map_groups(verify, batch_format="pandas")
    return negatives.union(verified)
