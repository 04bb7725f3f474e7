"""Bucketed high-cardinality aggregation (the scale-safe groupby pattern).

Ray Data's ``groupby(key).aggregate(...)`` dispatches per group; with
hundreds of thousands of distinct keys the per-group overhead dominates
(observed: 140 s for a 150k-group sum that takes <2 s bucketed).  The
pattern here: per-batch partial aggregation (pandas groupby inside
``map_batches``) -> deterministic hash bucket of the key -> one
``groupby("bucket").map_groups`` whose kernel does a single vectorized
pandas groupby over the whole bucket.  Shuffle volume is O(partials),
group dispatch is O(n_buckets), kernel work is vectorized.

Skew note: buckets are hash-distributed over the full key domain; a
single hot KEY still lands in one bucket, but the kernel cost is
per-row vectorized, so a hot key costs its row count, not a Python
loop.  For pathological single-key skew, raise ``n_buckets`` and salt
the key upstream (append ``hash(row)%S`` and re-merge after).
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def _key_hash(g: pd.DataFrame, keys: list[str]) -> pd.Series:
    """Vectorized 32-bit key hash over the (stringified) composite key
    — the FNV64 Arrow kernel folded to 32 bits so the salted-bucket
    arithmetic (``hash * salt + sub``) stays well inside int64.  Bucket
    keys only need determinism + co-location, so swapping the former
    per-row ``hash_u32`` map for this kernel changes only partitioning,
    never results."""
    import pyarrow as pa

    from naer_ray.hashing import _fnv64_arr

    comb = g[keys[0]].astype(str)
    for k in keys[1:]:
        comb = comb + "\x1f" + g[k].astype(str)
    h = _fnv64_arr(pa.array(comb, from_pandas=True))
    return pd.Series(
        (h % np.uint64(1 << 32)).astype(np.int64), index=g.index
    )


def bucketed_sum(
    ds,
    keys: list[str],
    sum_cols: list[str],
    n_buckets: int = 64,
    count_col: str | None = None,
    salt: int | None = None,
):
    """Distributed SUM (and optional COUNT) grouped by ``keys``.

    Returns a Dataset with columns ``keys + sum_cols (+ count_col)``.

    ``salt=S`` enables the hot-key two-round reduce: each partial row's
    bucket is derived from ``hash(key) * S + batch-local salt`` so one
    pathologically hot key spreads over S buckets in round one; the
    salted partials are then re-grouped by the unsalted key in a second
    (tiny) bucketed pass.  Sums are associative, so the result is
    identical — only the shuffle distribution changes.  Use when one
    key holds >~1/n_buckets of all rows (the "WebUI in every
    conversation" scenario from SURVEY §4).
    """

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if count_col:
            batch = batch.assign(**{count_col: 1})
        cols = sum_cols + ([count_col] if count_col else [])
        g = batch.groupby(keys, as_index=False, sort=False)[cols].sum()
        hashed = _key_hash(g, keys)
        if salt:
            # deterministic batch-local salt: spread a hot key's partials
            # from different batches across `salt` sub-buckets
            sub = pd.Series(np.arange(len(g)) % salt, index=g.index)
            g["bucket"] = (((hashed * salt + sub)) % n_buckets).astype("int32")
        else:
            g["bucket"] = (hashed % n_buckets).astype("int32")
        return g

    def final(group: pd.DataFrame) -> pd.DataFrame:
        cols = sum_cols + ([count_col] if count_col else [])
        return group.groupby(keys, as_index=False, sort=False)[cols].sum()

    parts = ds.map_batches(partial, batch_format="pandas", batch_size=65536)
    round1 = parts.groupby("bucket").map_groups(final, batch_format="pandas")
    if not salt:
        return round1

    # round 2: merge the <= salt partial rows per key (tiny shuffle)
    def rebucket(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            batch["bucket"] = pd.Series([], dtype="int32")
            return batch
        batch = batch.copy()
        batch["bucket"] = (_key_hash(batch, keys) % n_buckets).astype("int32")
        return batch

    return (
        round1.map_batches(rebucket, batch_format="pandas", batch_size=65536)
        .groupby("bucket")
        .map_groups(final, batch_format="pandas")
    )


def group_zscore(ds, group_col: str, value_col: str, out_col: str = "z"):
    """Per-row z-score against the row's GROUP mean/std — the two-pass
    normalize pattern (feature scaling, per-domain length normalization).

    Pass 1 computes exact integer moments per group — per-batch partial
    ``(count, sum, sum_sq)`` then one tiny grouped merge, so the shuffle
    carries O(groups) rows and integer addition order cannot perturb the
    result.  The moment table is broadcast (``ray.put``) and pass 2
    computes ``z = (x - mu) / sigma`` per row with a FIXED float
    expression tree::

        mu    = sum / count                  (double division of exact ints)
        sigma = sqrt((sum_sq - sum*mu) / count)   (population std)

    Every step is an IEEE correctly-rounded op on exactly-represented
    integers, so the SQL oracle (n01) states the same tree and matches
    bit-exactly.  Requires an integer ``value_col`` with group sums
    below 2^53 — the caller scales floats to ints first (the repo's
    integer-cents trick).  Groups with sigma == 0 emit NULL.
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "g": batch[group_col].to_pandas(),
                "v": batch[value_col].to_pandas().astype("int64"),
            }
        )
        df["v2"] = df["v"] * df["v"]
        out = df.groupby("g", as_index=False, sort=False).agg(
            cnt=("v", "size"), s=("v", "sum"), s2=("v2", "sum")
        )
        return pa.table(
            {
                group_col: pa.array(out["g"]),
                "cnt": pa.array(out["cnt"].astype("int64"), pa.int64()),
                "s": pa.array(out["s"].astype("int64"), pa.int64()),
                "s2": pa.array(out["s2"].astype("int64"), pa.int64()),
            }
        )

    moments = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(
            Sum("cnt", alias_name="cnt"),
            Sum("s", alias_name="s"),
            Sum("s2", alias_name="s2"),
        )
        .to_pandas()
    )
    mref = ray.put(
        {
            g: (int(c), int(s), int(s2))
            for g, c, s, s2 in zip(
                moments[group_col], moments["cnt"], moments["s"], moments["s2"]
            )
        }
    )

    def normalize(batch: pa.Table) -> pa.Table:
        m = ray.get(mref)
        groups = batch[group_col].to_pandas()
        codes, uniques = pd.factorize(groups, sort=False)
        mu = np.empty(len(uniques), np.float64)
        sigma = np.empty(len(uniques), np.float64)
        for i, g in enumerate(uniques):
            c, s, s2 = m[g]
            mu[i] = s / c
            sigma[i] = np.sqrt((s2 - s * mu[i]) / c)
        x = batch[value_col].combine_chunks().to_numpy(zero_copy_only=False)
        sig = sigma[codes]
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (x.astype(np.float64) - mu[codes]) / sig
        z = np.where(sig == 0.0, np.nan, z)
        return batch.append_column(
            out_col, pa.array(z, pa.float64(), from_pandas=True)
        )

    return ds.map_batches(normalize, batch_format="pyarrow")


def rollup_sum(ds, keys: list[str], value_col: str, count: bool = True):
    """GROUP BY ROLLUP(keys): subtotals at every key prefix plus the
    grand total, SQL-ROLLUP-shaped (coarser levels carry NULL in the
    rolled-up key columns).

    Scale shape: ONE distributed pass computes the finest-level
    partial sums (combiner inside ``map_batches`` + one small-key
    shuffle via :func:`bucketed_sum`'s pattern); every coarser level is
    derived from the finest level's result — which is
    cardinality-of-keys-sized, not data-sized — with plain pandas on
    the driver.  No second scan, no extra shuffle.

    ``value_col`` must be integer-valued (caller casts; keeps sums
    exact and oracle-hashable).
    """
    import pandas as pd

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(keys, as_index=False, sort=False)[value_col].agg(
            ["sum", "size"]
        )
        g.columns = keys + ["s", "n"]
        return g

    # merge partials: the finest level is small (distinct key combos),
    # so a single-group reduce is fine; shuffle carries partials only
    fine = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby(keys)
        .sum(["s", "n"])
        .to_pandas()
        .rename(columns={"sum(s)": "s", "sum(n)": "n"})
    )
    levels = [fine.copy()]
    for i in range(len(keys) - 1, -1, -1):
        lvl = (
            fine.groupby(keys[:i], as_index=False)[["s", "n"]].sum()
            if i
            else pd.DataFrame([fine[["s", "n"]].sum()])
        )
        for k in keys[i:]:
            lvl[k] = None
        levels.append(lvl[keys + ["s", "n"]])
    out = pd.concat(levels, ignore_index=True)
    cols = {f"sum_{value_col}": out["s"].astype("int64")}
    if count:
        cols["n_rows"] = out["n"].astype("int64")
    res = out[keys].copy()
    for c, v in cols.items():
        res[c] = v
    return res


def cube_sum(ds, keys: list[str], value_col: str, count: bool = True):
    """GROUP BY CUBE(keys): totals for every subset of the grouping
    keys (2^k levels), SQL-CUBE-shaped (NULL in the cubed-out
    columns).

    Same scale shape as :func:`rollup_sum`: ONE distributed
    finest-level pass, then every coarser level is derived from that
    cardinality-sized result on the driver — no second scan.
    ``value_col`` must be integer-valued (caller casts).
    """
    import pandas as pd

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(keys, as_index=False, sort=False)[value_col].agg(
            ["sum", "size"]
        )
        g.columns = keys + ["s", "n"]
        return g

    fine = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby(keys)
        .sum(["s", "n"])
        .to_pandas()
        .rename(columns={"sum(s)": "s", "sum(n)": "n"})
    )
    levels = []
    for mask in range(1 << len(keys)):
        kept = [k for i, k in enumerate(keys) if mask & (1 << i)]
        if len(kept) == len(keys):
            lvl = fine.copy()
        elif kept:
            lvl = fine.groupby(kept, as_index=False)[["s", "n"]].sum()
        else:
            lvl = pd.DataFrame([fine[["s", "n"]].sum()])
        for k in keys:
            if k not in kept:
                lvl[k] = None
        levels.append(lvl[keys + ["s", "n"]])
    out = pd.concat(levels, ignore_index=True)
    res = out[keys].copy()
    res[f"sum_{value_col}"] = out["s"].astype("int64")
    if count:
        res["n_rows"] = out["n"].astype("int64")
    return res
