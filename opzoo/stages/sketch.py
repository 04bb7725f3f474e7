"""Mergeable sketches (approximate aggregates) for wide pipelines.

HyperLogLog with the standard bias-corrected estimator (Flajolet et
al. 2007, public algorithm).  The Ray pattern: one sketch per batch
inside ``map_batches`` (vectorized register update), merged in a tiny
reduce — shuffle volume is O(batches × 2^p bytes), never O(rows).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from naer_ray.hashing import hash_u32


def _fmix64(h: np.ndarray) -> np.ndarray:
    """MurmurHash3 64-bit finalizer (public) — full-avalanche mixing."""
    with np.errstate(over="ignore"):
        h = h ^ (h >> np.uint64(33))
        h = h * np.uint64(0xFF51AFD7ED558CCD)
        h = h ^ (h >> np.uint64(33))
        h = h * np.uint64(0xC4CEB9FE1A85EC53)
        h = h ^ (h >> np.uint64(33))
    return h


def _hash64(values) -> np.ndarray:
    """Deterministic 64-bit hashes: two FNV-1a passes + murmur finalizer
    (raw FNV's high bits avalanche poorly — observed 14% HLL bias)."""
    h1 = np.array([hash_u32(str(v)) for v in values], dtype=np.uint64)
    h2 = np.array([hash_u32(str(v) + "\x00hll")
                   for v in values], dtype=np.uint64)
    return _fmix64((h1 << np.uint64(32)) | h2)


class HyperLogLog:
    def __init__(self, p: int = 12):
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def add_many(self, values) -> "HyperLogLog":
        h = _hash64(values)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = (h << np.uint64(self.p)) | np.uint64((1 << self.p) - 1)
        # rank = leading zeros of the remaining bits + 1
        ranks = np.zeros(len(h), dtype=np.uint8)
        mask = np.uint64(1) << np.uint64(63)
        cur = rest.copy()
        rank = np.ones(len(h), dtype=np.uint8)
        alive = np.ones(len(h), dtype=bool)
        for _ in range(64 - self.p + 1):
            top = (cur & mask) != 0
            done = alive & top
            ranks[done] = rank[done]
            alive &= ~top
            if not alive.any():
                break
            cur = cur << np.uint64(1)
            rank += 1
        ranks[alive] = 64 - self.p + 1
        np.maximum.at(self.registers, idx, ranks)
        return self

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        raw = alpha * m * m / np.power(2.0, -self.registers.astype(np.float64)).sum()
        zeros = int((self.registers == 0).sum())
        if raw <= 2.5 * m and zeros:
            return m * np.log(m / zeros)  # small-range correction
        return raw


def approx_distinct(ds, col: str, p: int = 12) -> float:
    """Distributed approximate COUNT(DISTINCT col) via mergeable HLLs."""
    import pyarrow as pa

    def per_batch(batch: pa.Table) -> pa.Table:
        hll = HyperLogLog(p).add_many(batch[col].to_pylist())
        return pa.table({"registers": pa.array([hll.registers.tobytes()], pa.binary())})

    parts = ds.map_batches(per_batch, batch_format="pyarrow", batch_size=65536)
    merged = HyperLogLog(p)
    for block in parts.iter_batches(batch_format="pyarrow"):
        for buf in block["registers"].to_pylist():
            other = HyperLogLog(p)
            other.registers = np.frombuffer(buf, dtype=np.uint8).copy()
            merged.merge(other)
    return merged.estimate()


class MisraGries:
    """Misra-Gries frequent-items summary with capacity ``m``.

    After ``N`` items, the stored count of any item satisfies
    ``true - N/(m+1) <= stored <= true`` and every item with true
    count > N/(m+1) is guaranteed present.  Merging summaries keeps
    the combined-N bound (Agarwal et al. 2013, "Mergeable Summaries" —
    public).  Memory is O(m) regardless of vocabulary size.
    """

    def __init__(self, m: int):
        self.m = m
        self.counts: dict = {}

    def add_counts(self, items, counts) -> "MisraGries":
        d = self.counts
        for t, c in zip(items, counts):
            d[t] = d.get(t, 0) + int(c)
        if len(d) > self.m:
            # decrement by the (m+1)-th largest count, drop <= 0
            dec = sorted(d.values(), reverse=True)[self.m]
            self.counts = {t: c - dec for t, c in d.items() if c > dec}
        return self

    def merge(self, other: "MisraGries") -> "MisraGries":
        return self.add_counts(other.counts.keys(), other.counts.values())


def frequent_tokens_topk(
    ds,
    text_col: str = "text",
    k: int = 10,
    capacity: int = 256,
    batch_size: int = 65536,
):
    """EXACT top-k frequent tokens over an unbounded vocabulary via
    sketch-then-verify — the 100 TB shape where a full token groupby
    would shuffle the whole vocabulary:

    1. One pass builds per-batch Misra-Gries summaries on the batch's
       dictionary-encoded UNIQUE tokens (exact in-batch counts, then
       one shrink) — each summary is <= ``capacity`` rows; the driver
       merge holds O(capacity) entries total.
    2. The merged candidate set (a guaranteed superset of every token
       with count > N/(capacity+1)) is broadcast via ``ray.put``; a
       second pass counts ONLY candidates exactly (``is_in`` on batch
       uniques), reduced by a capacity-bounded groupby.
    3. Exactness guard: if the k-th candidate's exact count is not
       > N/(capacity+1), a non-candidate could tie into the top-k and
       the result is not provably exact — raise with the capacity to
       retry at.  Ties break (count desc, token asc).

    Returns a pandas DataFrame (token, cnt), k rows.
    """
    import pandas as pd
    import pyarrow.compute as pc
    import ray

    def summarize(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(
            pc.split_pattern(
                pc.fill_null(batch[text_col].combine_chunks(), ""), " "
            )
        )
        toks = toks.filter(pc.not_equal(toks, ""))
        enc = pc.dictionary_encode(toks)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        cnts = np.bincount(
            enc.indices.to_numpy(zero_copy_only=False),
            minlength=len(enc.dictionary),
        )
        mg = MisraGries(capacity).add_counts(
            enc.dictionary.to_pylist(), cnts
        )
        items = list(mg.counts.items())
        # batch item total rides on the first summary row only, so
        # n_total is a plain column sum even if Ray coalesces blocks;
        # a shrink can empty the summary (uniform over-capacity batch),
        # so a null-token carrier row keeps N when there are no items
        tokens = [t for t, _ in items] or [None]
        cnts = [c for _, c in items] or [0]
        n_items = [int(len(toks))] + [0] * (len(tokens) - 1)
        return pa.table(
            {
                "token": pa.array(tokens, pa.string()),
                "cnt": pa.array(cnts, pa.int64()),
                "n_items": pa.array(n_items, pa.int64()),
            }
        )

    merged, n_total = MisraGries(capacity), 0
    for block in ds.map_batches(
        summarize, batch_format="pyarrow", batch_size=batch_size
    ).iter_batches(batch_format="pyarrow"):
        if block.num_rows == 0:
            continue
        n_total += int(pc.sum(block["n_items"]).as_py() or 0)
        df = block.select(["token", "cnt"]).to_pandas()
        df = df[df["token"].notna()]
        merged.add_counts(df["token"], df["cnt"])

    candidates = sorted(merged.counts)
    cand_ref = ray.put(set(candidates))

    def count_candidates(batch: pa.Table) -> pa.Table:
        cands = ray.get(cand_ref)
        toks = pc.list_flatten(
            pc.split_pattern(
                pc.fill_null(batch[text_col].combine_chunks(), ""), " "
            )
        )
        toks = toks.filter(pc.not_equal(toks, ""))
        enc = pc.dictionary_encode(toks)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        vocab = enc.dictionary.to_pylist()
        cnts = np.bincount(
            enc.indices.to_numpy(zero_copy_only=False), minlength=len(vocab)
        )
        keep = [i for i, t in enumerate(vocab) if t in cands]
        return pa.table(
            {
                "token": pa.array([vocab[i] for i in keep], pa.string()),
                "cnt": pa.array(cnts[keep].astype(np.int64), pa.int64()),
            }
        )

    if candidates:
        exact = (
            ds.map_batches(
                count_candidates,
                batch_format="pyarrow",
                batch_size=batch_size,
            )
            .groupby("token")
            .sum("cnt")
            .to_pandas()
            .rename(columns={"sum(cnt)": "cnt"})
        )
        exact = exact.sort_values(
            ["cnt", "token"], ascending=[False, True], ignore_index=True
        )
    else:
        exact = pd.DataFrame({"token": pd.Series([], dtype=str), "cnt": []})
    top = exact.head(k).copy()
    # provably exact iff k candidates survive AND the k-th exact count
    # beats the sketch error bound (so no non-candidate can tie in)
    kth = int(top["cnt"].iloc[-1]) if len(top) == k else 0
    if n_total and not kth > n_total / (capacity + 1):
        raise ValueError(
            f"top-{k} not provably exact at capacity={capacity} "
            f"(k-th count {kth} <= N/(m+1) = "
            f"{n_total / (capacity + 1):.1f}); retry with capacity >= "
            f"{int(n_total / max(kth, 1)) + 1}"
        )
    top["cnt"] = top["cnt"].astype("int64")
    return top[["token", "cnt"]]


class QuantileSketch:
    """Mergeable weighted-sample quantile summary with capacity ``c``.

    Per-batch: the batch's sorted values enter with unit weight and are
    compressed to ``c`` evenly-(weight-)spaced representatives, each
    carrying ``W/c`` weight.  Merging concatenates, re-sorts, and
    re-compresses — O(c) memory regardless of input size, the
    mergeable-summary shape (Agarwal et al. 2013; the compression is
    the classic equi-weight sample, not GK, so the rank-error bound is
    empirical — the caller VERIFIES the estimate's true rank with one
    exact counting pass, q29-style sketch-then-verify).
    """

    def __init__(self, capacity: int = 1024):
        self.capacity = capacity
        self.values = np.empty(0, np.float64)
        self.weights = np.empty(0, np.float64)

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    def _load(self, values_sorted: np.ndarray, weights: np.ndarray):
        if len(values_sorted) <= self.capacity:
            self.values, self.weights = values_sorted, weights
            return self
        w_total = weights.sum()
        cum = np.cumsum(weights) - weights / 2.0  # midpoint ranks
        targets = (np.arange(self.capacity) + 0.5) / self.capacity * w_total
        idx = np.clip(
            np.searchsorted(cum, targets), 0, len(values_sorted) - 1
        )
        self.values = values_sorted[idx]
        self.weights = np.full(self.capacity, w_total / self.capacity)
        return self

    @classmethod
    def from_array(cls, v: np.ndarray, capacity: int = 1024):
        v = np.asarray(v, np.float64)
        return cls(capacity)._load(np.sort(v), np.ones(len(v)))

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        values = np.concatenate([self.values, other.values])
        weights = np.concatenate([self.weights, other.weights])
        order = np.argsort(values, kind="stable")
        return self._load(values[order], weights[order])

    def query(self, q: float) -> float:
        """Smallest stored value whose cumulative weight >= q * W."""
        if not len(self.values):
            return float("nan")
        cum = np.cumsum(self.weights)
        i = int(np.searchsorted(cum, q * cum[-1]))
        return float(self.values[min(i, len(self.values) - 1)])

    def to_bytes(self) -> bytes:
        return np.concatenate([self.values, self.weights]).tobytes()

    @classmethod
    def from_bytes(cls, buf: bytes, capacity: int = 1024):
        arr = np.frombuffer(buf, np.float64)
        sk = cls(capacity)
        sk.values = arr[: len(arr) // 2].copy()
        sk.weights = arr[len(arr) // 2 :].copy()
        return sk


def quantile_sketch_gate(
    ds,
    col: str,
    quantiles=(0.5, 0.9, 0.99),
    capacity: int = 1024,
    eps: float = 0.01,
    batch_size: int = 65536,
):
    """Approximate quantiles via mergeable sketches + an EXACT rank
    verification (sketch-then-verify, the q29 pattern):

    1. One pass builds a per-batch :class:`QuantileSketch`; the driver
       merges O(batches) fixed-size summaries.
    2. One exact pass counts rows strictly below / at-or-below each
       estimate (vectorized compare, a scalar pair per batch) — the
       estimate's TRUE rank interval.
    3. Gate: the rank interval must overlap ``q ± eps`` — asserted per
       quantile, so a bad sketch breaks the literal-TRUE oracle.

    Returns a DataFrame (quantile, within_eps) — one row per quantile.
    """
    import pandas as pd

    def per_batch(batch: pa.Table) -> pa.Table:
        v = batch[col].combine_chunks().to_numpy(zero_copy_only=False)
        v = v[~np.isnan(v.astype(np.float64))]
        sk = QuantileSketch.from_array(v, capacity)
        return pa.table(
            {"sketch": pa.array([sk.to_bytes()], pa.binary()),
             "n": pa.array([len(v)], pa.int64())}
        )

    merged, n_total = QuantileSketch(capacity), 0
    for block in ds.map_batches(
        per_batch, batch_format="pyarrow", batch_size=batch_size
    ).iter_batches(batch_format="pyarrow"):
        for buf, n in zip(block["sketch"].to_pylist(), block["n"].to_pylist()):
            merged = merged.merge(QuantileSketch.from_bytes(buf, capacity))
            n_total += int(n)

    ests = np.array([merged.query(q) for q in quantiles])

    def ranks(batch: pa.Table) -> pa.Table:
        v = batch[col].combine_chunks().to_numpy(zero_copy_only=False)
        v = v[~np.isnan(v.astype(np.float64))]
        lt = np.array([(v < e).sum() for e in ests], np.int64)
        le = np.array([(v <= e).sum() for e in ests], np.int64)
        return pa.table(
            {"i": pa.array(np.arange(len(ests)), pa.int64()),
             "lt": pa.array(lt, pa.int64()),
             "le": pa.array(le, pa.int64())}
        )

    agg = (
        ds.map_batches(ranks, batch_format="pyarrow", batch_size=batch_size)
        .groupby("i")
        .sum(["lt", "le"])
        .to_pandas()
        .sort_values("i")
    )
    lt = agg["sum(lt)"].to_numpy(np.float64)
    le = agg["sum(le)"].to_numpy(np.float64)
    qs = np.array(quantiles, np.float64)
    ok = (lt / n_total <= qs + eps) & (le / n_total >= qs - eps)
    return pd.DataFrame({"quantile": qs, "within_eps": ok})


def grouped_approx_distinct(ds, group_col: str, col: str, p: int = 12):
    """Per-group approximate COUNT(DISTINCT col): one mergeable HLL
    per (batch, group) — shuffle volume is O(batches × groups × 2^p),
    never O(rows).  Groups are assumed low-cardinality (dashboard
    dimensions); the driver merge holds groups × 2^p bytes.

    Returns ``dict group -> estimate``.
    """
    def per_batch(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame(
            {"g": batch[group_col].to_pylist(), "v": batch[col].to_pylist()}
        )
        groups, bufs = [], []
        for g, sub in df.groupby("g", sort=False):
            groups.append(g)
            bufs.append(
                HyperLogLog(p).add_many(sub["v"].unique()).registers.tobytes()
            )
        return pa.table(
            {"g": pa.array(groups), "registers": pa.array(bufs, pa.binary())}
        )

    merged: dict = {}
    parts = ds.map_batches(per_batch, batch_format="pyarrow", batch_size=65536)
    for block in parts.iter_batches(batch_format="pyarrow"):
        for g, buf in zip(block["g"].to_pylist(), block["registers"].to_pylist()):
            hll = merged.setdefault(g, HyperLogLog(p))
            other = HyperLogLog(p)
            other.registers = np.frombuffer(buf, dtype=np.uint8).copy()
            hll.merge(other)
    return {g: hll.estimate() for g, hll in merged.items()}
