"""The general-purpose operator registry, kept apart from the KG library.

TPC-H-style queries, event/window operators, dedup, similarity search,
text analysis, multimodal plumbing, sampling, packing and lakehouse
operators: each entry in :data:`REGISTRY` is ``name -> (ray_fn, sql |
None)`` where ``ray_fn(sf_dir)`` returns a Dataset / pandas DataFrame /
pyarrow Table and ``sql`` is the DuckDB query over the same parquet
tables (views: region nation customer supplier part orders lineitem
events documents embeddings).  Column names match exactly on both sides.

``naer_ray`` never imports this package; the KG entries that
``__ray_entry__`` serves live in :mod:`naer_ray.pipelines.queries`.
``tests/`` checks every entry here against its oracle.

Exact-parity discipline:
* money/double sums go through the integer-cents trick —
  ``floor(x * 100 + 0.5)`` summed as int64 — so aggregation order can
  never change a bit (IEEE double sums are order-dependent; integer
  sums are not);
* every top-k has a deterministic tie-break key;
* ratios are single divisions of identical integer operands.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from naer_ray.pipelines.queries import (
    _DERIVE_SQL,
    KG_ENTITIES,
    _derive_transcripts,
    _entity_presence,
    _read,
)


def _cents(x: np.ndarray) -> np.ndarray:
    return np.floor(x * 100 + 0.5).astype(np.int64)


def _read_wide(sf_dir: str, table: str, columns=None, blocks_per_cpu: int = 4):
    """Column-pruned read re-blocked for COMPUTE-heavy per-row kernels.

    ``_read``'s byte-sized block count is right for cheap kernels (a
    task on <256 KB is pure scheduling overhead), but it hands a small
    table 1-2 blocks — and Ray dispatches one task per block, so an
    expensive stage (minhash shingling ~0.7ms/doc, span gram-hashing,
    edit-distance candidates) downstream of that read runs nearly
    serial (measured: d01's fused explode = ONE 3.6s task at sf0.1).
    The repartition moves only the pruned columns; at corpus scale the
    byte term dominates and this converges to _read's plan.
    """
    import ray

    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return _read(sf_dir, table, columns).repartition(blocks_per_cpu * ncpu)


def _media_rows(sf_dir: str, prefix: str, synth, pool_blocks: int = 32):
    """doc_id -> synthetic (media_id, payload) rows, split into enough
    blocks to keep a decode actor pool busy.

    The pruned doc_id read of a small-SF table yields 1-2 blocks, and an
    actor-pool ``map_batches`` dispatches one TASK per block — so a
    fused synth->decode pool was capped at 2 concurrent tasks no matter
    its size (measured: m08 8.3s at 2 blocks vs 3.0s at 32, same pool).
    The repartition here moves only an int64 column; at real corpus
    scale the media table arrives from storage already in many blocks
    and this becomes a no-op-sized safety net.
    """
    ds = _read(sf_dir, "documents", ["doc_id"]).repartition(pool_blocks)

    def to_media(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        return pa.table(
            {
                "media_id": pa.array([f"{prefix}{i:07d}" for i in ids], pa.string()),
                "payload": pa.array([synth(i) for i in ids], pa.binary()),
            }
        )

    return ds.map_batches(to_media, batch_format="pyarrow", batch_size=256)


# ------------------------------------------------------------------ TPC-H-ish


def q01_pricing_summary(sf_dir: str):
    """Grouped aggregate with per-batch partial aggregation (A-class op).

    Pre-aggregates inside map_batches (one row per key per batch), then
    a tiny groupby over partials — the shuffle moves O(keys × batches)
    rows, not O(rows).
    """
    from ray.data.aggregate import Sum

    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        ep = batch["l_extendedprice"].to_numpy()
        disc = batch["l_discount"].to_numpy()
        tbl = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "qty": pa.array(
                    batch["l_quantity"].to_numpy().astype(np.int64), pa.int64()
                ),
                "base_c": pa.array(_cents(ep), pa.int64()),
                "disc_c": pa.array(_cents(ep * (1 - disc)), pa.int64()),
                "n": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        g = tbl.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("base_c", "sum"), ("disc_c", "sum"), ("n", "sum")]
        )
        return g.rename_columns(
            ["l_returnflag", "l_linestatus", "qty", "base_c", "disc_c", "n"]
        )

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    agg = parts.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("qty", alias_name="sum_qty"),
        Sum("base_c", alias_name="base_c"),
        Sum("disc_c", alias_name="disc_c"),
        Sum("n", alias_name="count_order"),
    )
    df = agg.to_pandas()
    df["sum_base_price"] = df.pop("base_c") / 100.0
    df["sum_disc_price"] = df.pop("disc_c") / 100.0
    df["sum_qty"] = df["sum_qty"].astype("int64")
    df["count_order"] = df["count_order"].astype("int64")
    return df[
        ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price", "sum_disc_price", "count_order"]
    ]


Q01_SQL = """
SELECT l_returnflag, l_linestatus,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
       SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT)) / 100.0 AS sum_base_price,
       SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) / 100.0 AS sum_disc_price,
       COUNT(*) AS count_order
FROM lineitem
GROUP BY l_returnflag, l_linestatus
"""


def q02_top_revenue_orders(sf_dir: str):
    """Top-10 orders by lineitem revenue: bucketed high-cardinality sum
    (stages/agg.py) -> per-bucket local top-k -> tiny global top-k."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def with_rev(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "rev_c": pa.array(
                    _cents(
                        batch["l_extendedprice"].to_numpy()
                        * (1 - batch["l_discount"].to_numpy())
                    ),
                    pa.int64(),
                ),
            }
        )

    revs = ds.map_batches(with_rev, batch_format="pyarrow", batch_size=65536)
    agg = bucketed_sum(revs, ["l_orderkey"], ["rev_c"])

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(["rev_c", "l_orderkey"], ascending=[False, True]).head(10)

    df = (
        agg.map_batches(local_topk, batch_format="pandas", batch_size=65536)
        .to_pandas()
        .sort_values(["rev_c", "l_orderkey"], ascending=[False, True])
        .head(10)
        .reset_index(drop=True)
    )
    df["revenue"] = df.pop("rev_c") / 100.0
    return df[["l_orderkey", "revenue"]]


Q02_SQL = """
SELECT l_orderkey,
       SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) / 100.0 AS revenue
FROM lineitem
GROUP BY l_orderkey
ORDER BY SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) DESC, l_orderkey
LIMIT 10
"""


def q03_orders_by_segment(sf_dir: str, broadcast_threshold_bytes: int = 128 * 2**20):
    """orders ⋈ customer, SIZE-GATED (VERDICT r3): customer is
    fact-proportional, so unconditionally broadcasting it is a driver
    materialization at 100 TB.  Below the gate (on-disk parquet bytes)
    the small side ships once as sorted key/code arrays via ``ray.put``
    and every batch joins with one searchsorted; above it the query
    uses the native partitioned hash join (the q18 machinery) — no
    full-table ``to_pandas`` on the driver."""
    import os as _os

    import ray
    from ray.data.aggregate import Sum

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust_bytes = _os.path.getsize(f"{sf_dir}/customer.parquet")

    if cust_bytes <= broadcast_threshold_bytes:
        cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
        keys = cust["c_custkey"].to_numpy(np.int64)
        order_idx = np.argsort(keys, kind="stable")
        seg_names, seg_codes = np.unique(
            cust["c_mktsegment"].to_numpy(object), return_inverse=True
        )
        seg_ref = ray.put(
            (keys[order_idx], seg_codes[order_idx].astype(np.int32),
             [str(s) for s in seg_names])
        )

        class Joiner:
            def __init__(self):
                self.keys, self.codes, self.names = ray.get(seg_ref)

            def __call__(self, batch: pa.Table) -> pa.Table:
                ck = batch["o_custkey"].to_numpy()
                pos = np.minimum(
                    np.searchsorted(self.keys, ck), len(self.keys) - 1
                )
                valid = self.keys[pos] == ck  # inner-join semantics
                code = self.codes[pos][valid]
                price_c = _cents(batch["o_totalprice"].to_numpy())[valid]
                k = len(self.names)
                sums = np.zeros(k, np.int64)
                np.add.at(sums, code, price_c)
                counts = np.bincount(code, minlength=k)
                nz = counts > 0
                return pa.table(
                    {
                        "c_mktsegment": pa.array(
                            [self.names[i] for i in np.flatnonzero(nz)],
                            pa.string(),
                        ),
                        "price_c": pa.array(sums[nz], pa.int64()),
                        "n": pa.array(counts[nz], pa.int64()),
                    }
                )

        partials = orders.map_batches(
            Joiner, batch_format="pyarrow", batch_size=65536, concurrency=(1, 4)
        )
    else:
        cust_ds = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
        n_parts = max(8, int(ray.cluster_resources().get("CPU", 8)) // 2)
        joined = orders.join(
            cust_ds,
            join_type="inner",
            num_partitions=n_parts,
            on=("o_custkey",),
            right_on=("c_custkey",),
        )

        def partial(batch: pa.Table) -> pa.Table:
            tbl = pa.table(
                {
                    "c_mktsegment": batch["c_mktsegment"],
                    "price_c": pa.array(
                        _cents(batch["o_totalprice"].to_numpy()), pa.int64()
                    ),
                    "n": pa.array(np.ones(batch.num_rows, np.int64)),
                }
            )
            g = tbl.group_by("c_mktsegment").aggregate(
                [("price_c", "sum"), ("n", "sum")]
            )
            return g.rename_columns(["c_mktsegment", "price_c", "n"])

        partials = joined.map_batches(
            partial, batch_format="pyarrow", batch_size=65536
        )

    agg = partials.groupby("c_mktsegment").aggregate(
        Sum("price_c", alias_name="price_c"), Sum("n", alias_name="n_orders")
    )
    df = agg.to_pandas()
    df["total_price"] = df.pop("price_c") / 100.0
    df["n_orders"] = df["n_orders"].astype("int64")
    return df[["c_mktsegment", "n_orders", "total_price"]]


Q03_SQL = """
SELECT c.c_mktsegment,
       COUNT(*) AS n_orders,
       SUM(CAST(FLOOR(o.o_totalprice * 100 + 0.5) AS BIGINT)) / 100.0 AS total_price
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment
"""


def q04_supplier_region(sf_dir: str):
    """Three-way dimension join via broadcast (supplier ⋈ nation ⋈ region)."""
    import ray
    from ray.data.aggregate import Sum

    nation = _read(sf_dir, "nation").to_pandas()
    region = _read(sf_dir, "region").to_pandas()
    n2r = dict(zip(nation["n_nationkey"], nation["n_regionkey"]))
    r2name = dict(zip(region["r_regionkey"], region["r_name"]))
    lookup_ref = ray.put({k: r2name[v] for k, v in n2r.items()})

    ds = _read(sf_dir, "supplier", ["s_nationkey"])

    class Joiner:
        def __init__(self):
            self.lookup = ray.get(lookup_ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            batch = batch.assign(r_name=batch["s_nationkey"].map(self.lookup), n=1)
            return batch.groupby("r_name", as_index=False)[["n"]].sum()

    agg = (
        ds.map_batches(Joiner, batch_format="pandas", concurrency=(1, 2))
        .groupby("r_name")
        .aggregate(Sum("n", alias_name="n_suppliers"))
    )
    df = agg.to_pandas()
    df["n_suppliers"] = df["n_suppliers"].astype("int64")
    return df[["r_name", "n_suppliers"]]


Q04_SQL = """
SELECT r.r_name, COUNT(*) AS n_suppliers
FROM supplier s JOIN nation n ON s.s_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY r.r_name
"""


def q05_filtered_revenue(sf_dir: str):
    """Row-group filter pushdown at the READ + single global aggregate
    (TPC-H Q6 shape): the discount predicate is given to read_parquet as
    an Arrow dataset expression so non-matching row groups never leave
    storage; the residual quantity filter applies per batch."""
    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_discount", "l_quantity", "l_extendedprice"],
        filter=(pc.field("l_discount") >= 0.05) & (pc.field("l_discount") <= 0.07),
    )

    def partial(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.and_(
                pc.greater_equal(batch["l_discount"], 0.05),
                pc.less_equal(batch["l_discount"], 0.07),
            ),
            pc.less(batch["l_quantity"], 24.0),
        )
        sel = batch.filter(mask)
        rev = np.asarray(sel["l_extendedprice"]) * np.asarray(sel["l_discount"])
        return pa.table(
            {
                "rev_c": pa.array([int(_cents(rev).sum())], pa.int64()),
                "n": pa.array([sel.num_rows], pa.int64()),
            }
        )

    agg = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536).sum(["rev_c", "n"])
    return pd.DataFrame(
        {"revenue": [agg["sum(rev_c)"] / 100.0], "n_rows": [int(agg["sum(n)"])]}
    )


Q05_SQL = """
SELECT SUM(CAST(FLOOR(l_extendedprice * l_discount * 100 + 0.5) AS BIGINT)) / 100.0 AS revenue,
       COUNT(*) AS n_rows
FROM lineitem
WHERE l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
"""


def q06_distinct_flags(sf_dir: str):
    """Exact distinct on a LOW-cardinality composite key: per-batch
    partial dedup shrinks each block to O(keys) rows, then one tiny
    task combines the partials — Ray's sort-shuffle groupby costs a
    fixed ~1.5s to move 246 six-row partials, 75% of the query
    (measured via ds.stats()).  High-cardinality distinct stays on the
    hash-partitioned path (q21 / stages/dedup.exact_dedup)."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus"])
    partial = ds.map_batches(
        lambda t: t.group_by(["l_returnflag", "l_linestatus"]).aggregate([]),
        batch_format="pyarrow",
    )
    return partial.repartition(1).map_batches(
        lambda t: t.group_by(["l_returnflag", "l_linestatus"]).aggregate([]),
        batch_format="pyarrow",
        batch_size=None,
    )


Q06_SQL = "SELECT DISTINCT l_returnflag, l_linestatus FROM lineitem"


# ------------------------------------------------------------------ events


def q07_sessionize(sf_dir: str, n_buckets: int = 64):
    """Per-user session windows (30-min gap rule), bucket-run: one
    user-hash-bucket shuffle (O(n_buckets) Ray groups, never one group
    per user) and a fully vectorized per-bucket kernel."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def bucketize(batch: pa.Table) -> pa.Table:
        b = (batch["user_id"].to_numpy().astype(np.int64) % n_buckets).astype(
            np.int32
        )
        return batch.append_column("bucket", pa.array(b, pa.int32()))

    def sessions(g: pa.Table) -> pa.Table:
        g = g.sort_by([("user_id", "ascending"), ("ts", "ascending")])
        uid = g["user_id"].to_numpy().astype(np.int64)
        # microsecond precision: casting to [s] truncates, so a 1800.5s gap
        # would NOT open a session here while SQL's `> INTERVAL 30 MINUTE` would
        ts_us = (
            g["ts"].combine_chunks().cast(pa.timestamp("us")).to_numpy()
            .astype(np.int64)
        )
        same_user = np.r_[False, uid[1:] == uid[:-1]]
        gap_open = same_user & (np.r_[0, np.diff(ts_us)] > 1800 * 1_000_000)
        # per-user run reduction on the sorted array: first-index bounds +
        # one cumsum, no hash groupby
        users, starts = np.unique(uid, return_index=True)
        bounds = np.append(starts, len(uid))
        cs = np.concatenate([[0], np.cumsum(gap_open.astype(np.int64))])
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "n_sessions": pa.array(
                    cs[bounds[1:]] - cs[bounds[:-1]] + 1, pa.int64()
                ),
                "n_events": pa.array(np.diff(bounds), pa.int64()),
            }
        )

    return (
        ds.map_batches(bucketize, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(sessions, batch_format="pyarrow")
    )


Q07_SQL = """
WITH gaps AS (
  SELECT user_id,
         CASE WHEN ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts) > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS new_session
  FROM events)
SELECT user_id, CAST(SUM(new_session) + 1 AS BIGINT) AS n_sessions, COUNT(*) AS n_events
FROM gaps GROUP BY user_id
"""


def q08_tumbling_hour(sf_dir: str):
    """Tumbling 1-hour windowed aggregate per event_type (bucketed sum —
    thousands of (window, type) groups would choke per-group dispatch)."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "window_start": pc.floor_temporal(batch["ts"], unit="hour"),
                "event_type": batch["event_type"],
                "value_c": pa.array(
                    np.floor(v * 1000 + 0.5).astype(np.int64), pa.int64()
                ),
            }
        )

    rows = ds.map_batches(prep, batch_format="pyarrow", batch_size=65536)
    agg = bucketed_sum(rows, ["window_start", "event_type"], ["value_c"], count_col="n_events")
    df = agg.to_pandas()
    df["sum_value"] = df.pop("value_c") / 1000.0
    df["n_events"] = df["n_events"].astype("int64")
    return df[["window_start", "event_type", "n_events", "sum_value"]]


Q08_SQL = """
SELECT date_trunc('hour', ts) AS window_start, event_type,
       COUNT(*) AS n_events,
       SUM(CAST(FLOOR(value * 1000 + 0.5) AS BIGINT)) / 1000.0 AS sum_value
FROM events GROUP BY 1, 2
"""


# ------------------------------------------------------------------ documents


def q09_doc_token_stats(sf_dir: str):
    """Per-document token statistics (text analysis, vectorized per batch)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        # fully vectorized: distinct tokens per doc via dictionary-encode
        # + one unique over (parent, code) int64 keys (no per-doc loop)
        toks = pc.split_pattern(batch["text"], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        n = batch.num_rows
        n_tokens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        if len(flat):
            codes = pc.dictionary_encode(flat)
            if isinstance(codes, pa.ChunkedArray):
                codes = codes.combine_chunks()
            key = parents.astype(np.int64) * np.int64(
                len(codes.dictionary)
            ) + codes.indices.to_numpy().astype(np.int64)
            uniq = np.bincount(
                np.unique(key) // len(codes.dictionary), minlength=n
            )
        else:
            uniq = np.zeros(n, dtype=np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "n_uniq_tokens": pa.array(uniq, pa.int64()),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow", batch_size=8192)


Q09_SQL = """
SELECT doc_id,
       CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens,
       CAST(len(list_distinct(string_split(text, ' '))) AS BIGINT) AS n_uniq_tokens
FROM documents
"""

STOPWORDS = ("the", "a", "data", "key", "row")


def q10_doc_quality(sf_dir: str):
    """Stopword-ratio quality score (single division of integer operands)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    stop = set(STOPWORDS)

    stop_arr = pa.array(sorted(stop), pa.string())

    def score(batch: pa.Table) -> pa.Table:
        # vectorized: is_in over the flattened tokens + bincount per doc
        toks = pc.split_pattern(batch["text"], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        n = batch.num_rows
        n_tok = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        hits = pc.is_in(flat, value_set=stop_arr).to_numpy(zero_copy_only=False)
        n_stop = np.bincount(parents[hits], minlength=n).astype(np.int64)
        ratio = np.where(n_tok > 0, n_stop / np.maximum(n_tok, 1), 0.0)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_stop": pa.array(n_stop, pa.int64()),
                "n_tok": pa.array(n_tok, pa.int64()),
                "stop_ratio": pa.array(ratio, pa.float64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow", batch_size=8192)


_STOP_SQL = "(" + ", ".join(f"'{w}'" for w in STOPWORDS) + ")"

Q10_SQL = f"""
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents)
SELECT doc_id,
       CAST(SUM(CASE WHEN w IN {_STOP_SQL} THEN 1 ELSE 0 END) AS BIGINT) AS n_stop,
       COUNT(*) AS n_tok,
       SUM(CASE WHEN w IN {_STOP_SQL} THEN 1 ELSE 0 END) * 1.0 / COUNT(*) AS stop_ratio
FROM toks GROUP BY doc_id
"""


def q11_dedup_exact(sf_dir: str):
    """Exact text dedup: hash-partition on content, keep min doc_id per text."""
    from ray.data.aggregate import Count, Min

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    agg = ds.groupby("text").aggregate(
        Min("doc_id", alias_name="rep_doc_id"), Count(alias_name="n_dups")
    )
    df = agg.to_pandas()[["rep_doc_id", "n_dups"]]
    df["n_dups"] = df["n_dups"].astype("int64")
    return df


Q11_SQL = """
SELECT MIN(doc_id) AS rep_doc_id, COUNT(*) AS n_dups FROM documents GROUP BY text
"""


def q12_lang_source_counts(sf_dir: str):
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", ["lang", "source"])
    agg = ds.groupby(["lang", "source"]).aggregate(Count(alias_name="n_docs"))
    df = agg.to_pandas()
    df["n_docs"] = df["n_docs"].astype("int64")
    return df


Q12_SQL = "SELECT lang, source, COUNT(*) AS n_docs FROM documents GROUP BY lang, source"


# ------------------------------------------------------------------ embeddings


def q13_ann_topk(sf_dir: str):
    """Brute-force cosine top-10 vs the vec_id=0 query vector.

    Per-batch numpy matmul against the broadcast query vector, per-batch
    local top-k, then a tiny global sort — the baseline ANN path
    (IVF/LSH variants live in stages/ann.py).
    """
    # point read with predicate pushdown: only the row group(s) holding
    # vec_id=0 are decoded — never the whole embeddings table
    t = _point_read_embeddings(sf_dir, [0])
    emb0 = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)[0]
    qnorm = emb0 / np.linalg.norm(emb0)

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def local_topk(batch: pa.Table) -> pa.Table:
        from .stages.ann import _as_matrix

        mat = _as_matrix(batch["embedding"])
        sims = (mat @ qnorm) / np.linalg.norm(mat, axis=1)
        vec_ids = batch["vec_id"].to_numpy()
        order = np.lexsort((vec_ids, -sims))[:10]
        return pa.table(
            {
                "vec_id": pa.array(vec_ids[order], pa.int64()),
                "sim": pa.array(sims[order], pa.float64()),
            }
        )

    parts = ds.map_batches(local_topk, batch_format="pyarrow", batch_size=4096).to_pandas()
    top = parts.sort_values(["sim", "vec_id"], ascending=[False, True]).head(10)
    return top[["vec_id"]].reset_index(drop=True)


Q13_SQL = """
SELECT vec_id
FROM embeddings
ORDER BY list_cosine_similarity(embedding,
         (SELECT embedding FROM embeddings WHERE vec_id = 0)) DESC, vec_id
LIMIT 10
"""


# --------------------------------------------- training-data operator queries


def _docs_with_mutants(sf_dir: str):
    """documents ∪ near-dup mutants (doc_id + 1_000_000, case-mutated).

    Deterministic construction so near-dup detection has a knowable
    ground truth: the mutant differs only in casing, which the
    (lowercasing) shingle/simhash normalizers erase — similarity is
    exactly 1.0, so every original pairs with exactly its mutant and
    the cluster oracle is closed-form.  Partial-similarity behavior is
    covered by unit tests; the oracle checks the full distributed
    pipeline (shingle -> minhash -> band -> groupby -> pairs ->
    union-find) end to end."""
    import ray.data

    ds = _read_wide(sf_dir, "documents", ["doc_id", "text"])

    def mutate(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out_ids = list(ids) + [i + 1_000_000 for i in ids]
        out_texts = list(texts) + [t.upper() for t in texts]
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.int64()),
                "text": pa.array(out_texts, pa.string()),
            }
        )

    # batch_size=None: per-block batches, so this cheap kernel never
    # raises the fused chain's task-bundling unit above the heavy
    # minhash explode downstream (batch_size is the bundling unit of a
    # fused map chain — an 8192 here serialized d01's explode into one
    # 4.9s task at sf0.1, nullifying _read_wide's repartition)
    return ds.map_batches(mutate, batch_format="pyarrow", batch_size=None)


def _planted_only(pairs_ds):
    """Restrict near-dup pairs to the planted (i, i + 1M) mutants.

    The word-soup documents contain GENUINE cross-document near-dups
    (observed: 12 extra simhash-identical pairs at sf0.001), so a
    closed-form oracle can only assert recall of the planted pairs;
    precision/extra-pair behavior is covered by tests/test_dedup.py.
    """
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        a = batch["id_a"].cast(pa.int64())
        b = batch["id_b"].cast(pa.int64())
        t = pa.table({"id_a": a, "id_b": b})
        return t.filter(pc.equal(pc.subtract(t["id_b"], t["id_a"]), 1_000_000))

    return pairs_ds.map_batches(f, batch_format="pyarrow")


def d01_minhash_planted_pairs(sf_dir: str):
    """MinHash-LSH near-dup detection over documents ∪ injected mutants:
    the full shingle → minhash → band → groupby → candidate-pair path
    must recover every planted (i, i+1M) pair (est_jaccard = 1.0)."""
    import pyarrow.compute as pc

    from .stages.dedup import minhash_bands, minhash_candidate_pairs

    ds = _docs_with_mutants(sf_dir)
    strong = minhash_candidate_pairs(
        minhash_bands(ds, "doc_id", "text"), "doc_id", min_est=0.95
    )
    return _planted_only(strong)


D01_SQL = """
SELECT doc_id AS id_a, doc_id + 1000000 AS id_b FROM documents
"""


def d02_simhash_pairs(sf_dir: str):
    """SimHash near-dup detection over documents ∪ mutants: planted
    (i, i+1M) pairs at Hamming distance 0."""
    from .stages.dedup import simhash_pairs

    ds = _docs_with_mutants(sf_dir)
    return _planted_only(simhash_pairs(ds, "doc_id", "text", max_hamming=0))


D02_SQL = D01_SQL


def d03_embedding_neardup(sf_dir: str):
    """Embedding-cosine near-dup via hyperplane LSH over embeddings ∪
    direction-preserving copies (vec_id + 1M, scaled 2x): cosine exactly 1."""
    import ray.data

    from .stages.dedup import embedding_neardup_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def mutate(batch: pa.Table) -> pa.Table:
        from .stages.ann import _as_matrix

        ids = batch["vec_id"].to_numpy().astype(np.int64)
        mat = _as_matrix(batch["embedding"])  # zero-copy flatten, no boxing
        out_mat = np.concatenate([mat, 2.0 * mat]).astype(np.float32)
        n, dim = out_mat.shape
        emb = pa.ListArray.from_arrays(
            pa.array(np.arange(0, (n + 1) * dim, dim, dtype=np.int32)),
            pa.array(out_mat.ravel(), pa.float32()),
        )
        return pa.table(
            {
                "vec_id": pa.array(np.r_[ids, ids + 1_000_000], pa.int64()),
                "embedding": emb,
            }
        )

    both = ds.map_batches(mutate, batch_format="pyarrow", batch_size=4096)
    pairs = embedding_neardup_pairs(both, "vec_id", "embedding", threshold=0.999999)
    return pairs.map_batches(
        lambda t: pa.table(
            {
                "id_a": t["id_a"].cast(pa.int64()),
                "id_b": t["id_b"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


D03_SQL = """
SELECT vec_id AS id_a, vec_id + 1000000 AS id_b FROM embeddings
"""


def d04_embedding_clusters(sf_dir: str):
    """Near-dup clusters over embeddings ∪ colinear copies: LSH pairs
    (d03) -> distributed union-find -> (node, label) with label = the
    original vec_id — the full embedding-dedup DAG, oracle-checked."""
    from naer_ray.stages.canon import connected_components

    pairs = d03_embedding_neardup(sf_dir)
    labels = connected_components(pairs)
    return labels.map_batches(
        lambda t: pa.table(
            {
                "node": t["node"].cast(pa.int64()),
                "label": t["label"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


D04_SQL = """
SELECT vec_id AS node, vec_id AS label FROM embeddings
UNION ALL
SELECT vec_id + 1000000 AS node, vec_id AS label FROM embeddings
"""


def d05_ngram_jaccard_pairs(sf_dir: str):
    """Full LSH-candidate + EXACT n-gram-Jaccard-verify DAG over
    documents ∪ case mutants: minhash bands propose, the distributed
    two-join verify stage (stages/dedup.ngram_jaccard_pairs) confirms
    jaccard = 1.0 for every planted (i, i+1M) pair."""
    from opzoo.stages.dedup import (
        minhash_bands,
        minhash_candidate_pairs,
        ngram_jaccard_pairs,
    )

    ds = _docs_with_mutants(sf_dir)
    # est >= 0.9 pushdown: planted mutants sit at est 1.0, and the
    # corpus's ~735k weaker genuine candidates would otherwise all flow
    # through the exact-verify joins for nothing
    cands = minhash_candidate_pairs(
        minhash_bands(ds, "doc_id", "text"), "doc_id", min_est=0.9
    )
    verified = ngram_jaccard_pairs(ds, cands, "doc_id", "text")
    strong = verified.map_batches(
        lambda t: t.filter(pc.greater_equal(t["jaccard"], 0.999999)),
        batch_format="pyarrow",
    )
    return _planted_only(strong)


D05_SQL = D01_SQL


# Planted language documents: stopword-dense text per language, doc_id
# 3M+.  The operator runs over documents ∪ planted; only the planted
# rows (whose true language is known) are oracle-checked (the d01
# planted-recall pattern).
_T01_PLANTED: list[tuple[int, str, str]] = [
    (3_000_000, "the cat and the dog ran to the park for it is that good", "en"),
    (3_000_001, "der hund und die katze ist ein tier mit das haus von dem garten", "de"),
    (3_000_002, "le chat est dans la maison et les chiens pour que une idee", "fr"),
    (3_000_003, "el perro y la casa es un animal en los campos para que una", "es"),
    (3_000_004, "il cane e la casa in un campo per che una gli animali di", "it"),
]


def _docs_with_planted(sf_dir: str, planted: list[tuple[int, str]]):
    import ray.data

    extra = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([i for i, _ in planted], pa.int64()),
                "text": pa.array([t for _, t in planted], pa.string()),
            }
        )
    )
    return _read(sf_dir, "documents", ["doc_id", "text"]).union(extra)


def t01_lang_id(sf_dir: str):
    """Language ID over documents ∪ planted per-language docs; the planted
    rows' predictions are oracle-checked against their true language."""
    from .stages.text import lang_id

    ds = _docs_with_planted(sf_dir, [(i, t) for i, t, _l in _T01_PLANTED])
    out = lang_id(ds)
    return out.map_batches(
        lambda t: t.filter(pc.greater_equal(t["doc_id"], 3_000_000)),
        batch_format="pyarrow",
    ).select_columns(["doc_id", "pred_lang"])


T01_SQL = (
    "SELECT doc_id, pred_lang FROM (VALUES "
    + ", ".join(f"({i}, '{l}')" for i, _t, l in _T01_PLANTED)
    + ") AS t(doc_id, pred_lang)"
)


def t02_fingerprints(sf_dir: str, n_buckets: int = 64):
    """Winnowing fingerprints over documents ∪ case-mutated copies
    (i, i+1M): the fingerprint lowercases, so every planted pair is
    fingerprint-identical and the equal-fingerprint pair extraction
    (fingerprint-hash bucket-run, no per-value dispatch) must recover
    all of them."""
    from .stages.text import fingerprints

    fps = fingerprints(_docs_with_mutants(sf_dir))

    def bucketize(batch: pa.Table) -> pa.Table:
        b = (
            batch["fingerprint"].to_numpy(zero_copy_only=False).astype(np.uint64)
            % n_buckets
        ).astype(np.int32)
        return batch.append_column("bucket", pa.array(b, pa.int32()))

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for _fp, sub in group.groupby("fingerprint", sort=False):
            if len(sub) < 2:
                continue
            ids = sorted(sub["doc_id"].tolist())
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    rows.append((ids[i], ids[j]))
        return pd.DataFrame(rows, columns=["id_a", "id_b"]).astype("int64")

    pair_ds = (
        fps.map_batches(bucketize, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(pairs, batch_format="pandas")
    )
    return _planted_only(pair_ds)


def t03_quality(sf_dir: str):
    """Quality score over documents ∪ planted letters-and-spaces docs;
    planted rows are oracle-checked against an INDEPENDENT SQL
    translation of the scoring formula (same IEEE expression tree)."""
    from .stages.text import quality_score

    ds = _docs_with_planted(sf_dir, [(i, t) for i, t, _l in _T03_PLANTED])
    out = quality_score(ds)
    return out.map_batches(
        lambda t: t.filter(pc.greater_equal(t["doc_id"], 3_100_000)),
        batch_format="pyarrow",
    )


# quality_score's english stopword profile (stages/text._LANG_PROFILES["en"])
_STOP_SQL_EN = "('the', 'and', 'of', 'to', 'a', 'in', 'is', 'it', 'that', 'for')"

# letters + single spaces ONLY (so the alpha ratio is exactly 1.0 and
# Python str.split == SQL string_split on ' ')
_T03_PLANTED: list[tuple[int, str, str]] = [
    (3_100_000, "the cat sat on the mat and the dog ran far", "en"),
    (3_100_001, "alpha beta gamma delta epsilon zeta eta theta iota kappa", "x"),
    (3_100_002, "word word word word word word word word word word", "x"),
    (3_100_003, "a b c d e f g h i j k l m n o p q r s t u v w x y z", "x"),
    (
        3_100_004,
        "this is a long document that keeps going for a while with many "
        "different tokens in it so that the length score saturates and the "
        "unique ratio stays high while stopwords appear here and there for "
        "the quality formula to exercise every term of the weighted sum",
        "x",
    ),
]

_T03_TEXT_VALUES = ", ".join(f"({i}, '{t}')" for i, t, _ in _T03_PLANTED)

T03_SQL = f"""
WITH d(doc_id, text) AS (VALUES {_T03_TEXT_VALUES}),
toks AS (
  SELECT doc_id, text, string_split(text, ' ') AS tk FROM d),
m AS (
  SELECT doc_id,
         len(tk) AS n,
         len(list_distinct(tk)) AS uniq,
         len(list_filter(tk, w -> w IN {_STOP_SQL_EN})) AS stop_hits
  FROM toks)
SELECT doc_id,
       ROUND(LEAST(GREATEST(
         0.3 * LEAST(n / 50.0, 1.0)
         + 0.25 * 1.0
         + 0.2 * LEAST((stop_hits * 1.0 / n) * 4, 1.0)
         + 0.25 * (uniq * 1.0 / n), 0.0), 1.0), 6) AS quality
FROM m
"""


def _point_read_embeddings(sf_dir: str, vec_ids: list[int]) -> pa.Table:
    """Fetch specific query vectors via parquet predicate pushdown
    (row-group pruning + late filtering in the reader — the driver never
    materializes the table)."""
    import pyarrow.dataset as pads

    dataset = pads.dataset(f"{sf_dir}/embeddings.parquet")
    t = dataset.to_table(
        columns=["vec_id", "embedding"],
        filter=pc.field("vec_id").isin(vec_ids),
    )
    return t.sort_by("vec_id")


def _query_vectors(sf_dir: str) -> np.ndarray:
    t = _point_read_embeddings(sf_dir, [0, 1, 2])
    return np.asarray(t["embedding"].to_pylist(), dtype=np.float64)


def _ann_recall_vs_exact(sf_dir: str, method: str, k: int = 5, min_hits: int = 4):
    """ANN-vs-exact recall gate, oracle-checkable: run the approximate
    index AND the exact brute force on the same queries, count overlap
    per query, return (query_id, recall_ok = overlap >= min_hits).

    The raw corpus is near-random (its true neighbors are weak, which
    no LSH can find — by design), so the recall target is PLANTED: each
    query vector gets 5 near-colinear companions (scales 1 + j/1024,
    float32-exact, cosine ~0.9999) appended with ids 2M+.  The exact
    top-k then consists of the query row + its companions, and an ANN
    index that preserves locality must recover >= min_hits of them.

    The ANN paths are fully deterministic (seeded planes / seeded
    centroids / id-keyed sample), so recall_ok is a stable value the
    SQL oracle can assert as literal TRUE per query — an oracle-checked
    recall@k >= 0.8 bound rather than a rows-only smoke check."""
    from opzoo.stages.ann import (
        brute_force_topk,
        ivf_topk,
        lsh_topk,
        pq_topk,
        quantized_topk,
    )

    q = _query_vectors(sf_dir)

    def with_planted():
        import ray.data

        planted_ids, planted_vecs = [], []
        for qi, vec in enumerate(q):
            for j in range(1, 6):
                planted_ids.append(2_000_000 + qi * 10 + j)
                planted_vecs.append([float(x) * (1.0 + j / 1024.0) for x in vec])
        planted = ray.data.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array(planted_ids, pa.int64()),
                    "embedding": pa.array(planted_vecs, pa.list_(pa.float32())),
                }
            )
        )
        return _read(sf_dir, "embeddings", ["vec_id", "embedding"]).union(planted)

    if method == "pq_indexed":
        import os as _os
        import shutil

        from .stages.ann import pq_topk_indexed, save_pq_index

        def ann_fn(ds, q, k):
            path = f"/tmp/naer_pq_index/{_os.getpid()}-{_os.path.basename(sf_dir.rstrip('/'))}"
            shutil.rmtree(path, ignore_errors=True)
            save_pq_index(ds, path)
            return pq_topk_indexed(path, q, k=k)

    else:
        ann_fn = {
            "lsh": lsh_topk,
            "ivf": ivf_topk,
            "quant": quantized_topk,
            "pq": pq_topk,
        }[method]
    approx = ann_fn(with_planted(), q, k=k)
    exact = brute_force_topk(with_planted(), q, k=k)
    hits = approx.merge(exact[["query_id", "vec_id"]], on=["query_id", "vec_id"])
    n_hits = (
        hits.groupby("query_id")
        .size()
        .reindex(range(len(q)), fill_value=0)
    )
    return pd.DataFrame(
        {
            "query_id": np.arange(len(q), dtype=np.int64),
            "recall_ok": (n_hits.to_numpy() >= min_hits),
        }
    )


def a01_lsh_topk(sf_dir: str):
    """Hyperplane-LSH ANN: recall@5 vs exact top-5 per query (>=4/5),
    oracle-checked against literal TRUE rows."""
    return _ann_recall_vs_exact(sf_dir, "lsh")


def a02_ivf_topk(sf_dir: str):
    """IVF ANN: recall@5 vs exact top-5 per query (>=4/5),
    oracle-checked against literal TRUE rows."""
    return _ann_recall_vs_exact(sf_dir, "ivf")


ANN_RECALL_SQL = """
SELECT CAST(q.query_id AS BIGINT) AS query_id, TRUE AS recall_ok
FROM (VALUES (0), (1), (2)) AS q(query_id)
"""


def a07_pq_topk(sf_dir: str):
    """Product-quantization ANN (stages/ann.pq_topk — Jégou et al.
    2011): m-byte PQ codes + asymmetric-distance scan, recall@5 vs
    exact top-5 per query (>= 4/5) on the planted near-colinear
    companions, oracle-checked against literal TRUE rows (the
    a01/a02 gate)."""
    return _ann_recall_vs_exact(sf_dir, "pq")


def a08_pq_indexed(sf_dir: str):
    """PQ ANN against a PERSISTED index (stages/ann.save_pq_index +
    pq_topk_indexed): codebooks + m-byte code table written once, the
    probe scans only (id, codes) parquet — never the raw vectors —
    and must still clear the recall gate (>= 4/5 vs exact top-5 on
    the planted neighbors, literal-TRUE oracle rows)."""
    return _ann_recall_vs_exact(sf_dir, "pq_indexed")


def a06_mmr_select(sf_dir: str, k: int = 10, n_cand: int = 50):
    """Diversified retrieval: MMR re-ranking (stages/ann.mmr_greedy)
    of the distributed top-C relevance candidates — the
    retrieve-then-diversify selection a curation pipeline uses to pick
    varied exemplars instead of k near-duplicates.

    Stage 1 streams the corpus once: per-batch integer dots (a04's
    quantized _cents trick — exact, no float tie hazard) against one
    broadcast query vector, local top-C per batch, bounded C x blocks
    merge.  Stage 2 is the C-row greedy loop on the driver.  Gate
    (k01/b01 pattern): the result must equal a single-process
    reference over the raw parquet — a bug in the candidate merge,
    quantization, or tie-breaks changes specific ranks."""
    import ray

    from .stages.ann import _as_matrix, mmr_greedy

    qtbl = _point_read_embeddings(sf_dir, [0])
    qv = np.floor(
        np.asarray(qtbl["embedding"].to_pylist(), dtype=np.float64)[0] * 1000
        + 0.5
    ).astype(np.int64)
    q_ref = ray.put(qv)

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def local_topc(batch: pa.Table) -> pd.DataFrame:
        q = ray.get(q_ref)
        m = np.floor(_as_matrix(batch["embedding"]) * 1000 + 0.5).astype(
            np.int64
        )
        ids = np.asarray(batch["vec_id"]).astype(np.int64)
        rel = m @ q
        o = np.lexsort((ids, -rel))[:n_cand]
        return pd.DataFrame(
            {
                "vec_id": ids[o],
                "rel": rel[o],
                "vec": [row.tolist() for row in m[o]],
            }
        )

    parts = ds.map_batches(
        local_topc, batch_format="pyarrow", batch_size=65536
    ).to_pandas()  # C x blocks rows — bounded, never corpus-sized
    top = parts.sort_values(
        ["rel", "vec_id"], ascending=[False, True]
    ).head(n_cand)
    got = mmr_greedy(
        top["vec_id"].to_numpy(np.int64),
        np.array(top["vec"].tolist(), dtype=np.int64),
        top["rel"].to_numpy(np.int64),
        k,
    )

    # single-process reference over the raw parquet (same rules)
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    rids = t["vec_id"].to_numpy().astype(np.int64)
    rmat = np.floor(
        np.array(t["embedding"].to_pylist(), dtype=np.float64) * 1000 + 0.5
    ).astype(np.int64)
    rrel = rmat @ qv
    o = np.lexsort((rids, -rrel))[:n_cand]
    want = mmr_greedy(rids[o], rmat[o], rrel[o], k)

    return pd.DataFrame(
        {
            "rank": np.arange(1, len(want) + 1, dtype=np.int64),
            "mmr_match": [int(a) == int(b) for a, b in zip(got, want)],
        }
    )


A06_SQL = """
SELECT CAST(range + 1 AS BIGINT) AS rank, TRUE AS mmr_match FROM range(10)
"""


def a05_quantized_topk(sf_dir: str):
    """int8-quantized ANN (stages/ann.quantized_topk): recall@5 vs the
    exact float path (>=4/5 on the planted near-colinear neighbors),
    oracle-checked against literal TRUE rows — the a01/a02 gate
    over the 4x-smaller-scan quantization scale path."""
    return _ann_recall_vs_exact(sf_dir, "quant")


def a03_brute_topk_multi(sf_dir: str):
    """Exact multi-query cosine top-5 — oracle-checked against DuckDB."""
    from .stages.ann import brute_force_topk

    got = brute_force_topk(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        _query_vectors(sf_dir),
        k=5,
    )
    return got[["query_id", "vec_id"]]


A03_SQL = """
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qvec FROM embeddings WHERE vec_id IN (0, 1, 2)),
scored AS (
  SELECT q.query_id, e.vec_id,
         list_cosine_similarity(e.embedding, q.qvec) AS sim,
         ROW_NUMBER() OVER (PARTITION BY q.query_id
                            ORDER BY list_cosine_similarity(e.embedding, q.qvec) DESC,
                                     e.vec_id) AS rn
  FROM embeddings e CROSS JOIN q)
SELECT CAST(query_id AS BIGINT) AS query_id, vec_id FROM scored WHERE rn <= 5
"""


def q18_native_hash_join(sf_dir: str):
    """Both-sides-large partitioned hash join via the native
    ``Dataset.join`` (lineitem ⋈ part on partkey), then a small grouped
    aggregate per p_brand — the non-broadcast join path."""
    from ray.data.aggregate import Sum

    import ray

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity"])
    part = _read(sf_dir, "part", ["p_partkey", "p_brand"])
    # join partitions scale with the cluster, not a hard-coded constant
    n_parts = max(8, int(ray.cluster_resources().get("CPU", 8)) // 2)
    joined = li.join(
        part,
        join_type="inner",
        num_partitions=n_parts,
        on=("l_partkey",),
        right_on=("p_partkey",),
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.assign(qty=batch["l_quantity"].astype("int64"), n=1)
        return batch.groupby("p_brand", as_index=False)[["qty", "n"]].sum()

    agg = (
        joined.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby("p_brand")
        .aggregate(Sum("qty", alias_name="sum_qty"), Sum("n", alias_name="n_rows"))
    )
    df = agg.to_pandas()
    df["sum_qty"] = df["sum_qty"].astype("int64")
    df["n_rows"] = df["n_rows"].astype("int64")
    return df[["p_brand", "sum_qty", "n_rows"]]


Q18_SQL = """
SELECT p.p_brand,
       CAST(SUM(CAST(l.l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
       COUNT(*) AS n_rows
FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
GROUP BY p.p_brand
"""


def q19_semi_anti_join(sf_dir: str):
    """Semi/anti join via the Bloom membership path: per mktsegment,
    customers WITH orders (semi) and WITHOUT orders (anti).

    The order-custkey side becomes a mergeable Bloom filter (per-batch
    bitmaps OR-reduced, broadcast once) — at 10^12 orders the distinct
    key set itself is the driver OOM, the fixed-size Bloom is not.
    Bloom negatives are exact; positives co-partition with the keys for
    an exact verify, so the result stays hash-exact at any fpp
    (stages/bloom.py)."""
    import pyarrow.parquet as _pq
    from ray.data.aggregate import Sum

    from .stages.bloom import bloom_flag_membership

    # size the Bloom from the parquet footer (metadata-only read)
    n_orders = _pq.ParquetFile(f"{sf_dir}/orders.parquet").metadata.num_rows
    flagged = bloom_flag_membership(
        _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]),
        _read(sf_dir, "orders", ["o_custkey"]),
        left_col="c_custkey",
        key_col="o_custkey",
        n_expected=n_orders,
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        has = batch["in_right"].to_numpy(dtype=bool)
        out = pd.DataFrame(
            {
                "c_mktsegment": batch["c_mktsegment"],
                "with_orders": has.astype("int64"),
                "without_orders": (~has).astype("int64"),
            }
        )
        return out.groupby("c_mktsegment", as_index=False)[
            ["with_orders", "without_orders"]
        ].sum()

    agg = (
        flagged.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby("c_mktsegment")
        .aggregate(
            Sum("with_orders", alias_name="with_orders"),
            Sum("without_orders", alias_name="without_orders"),
        )
    )
    df = agg.to_pandas()
    df["with_orders"] = df["with_orders"].astype("int64")
    df["without_orders"] = df["without_orders"].astype("int64")
    return df[["c_mktsegment", "with_orders", "without_orders"]]


Q19_SQL = """
SELECT c_mktsegment,
       CAST(SUM(CASE WHEN c_custkey IN (SELECT o_custkey FROM orders) THEN 1 ELSE 0 END) AS BIGINT) AS with_orders,
       CAST(SUM(CASE WHEN c_custkey IN (SELECT o_custkey FROM orders) THEN 0 ELSE 1 END) AS BIGINT) AS without_orders
FROM customer GROUP BY c_mktsegment
"""


def q20_sliding_window(sf_dir: str):
    """3-hour sliding window stepped hourly per event_type.

    Window starts = DISTINCT event hours (small; broadcast).  Each event
    expands to the <=3 windows covering it inside map_batches (no
    self-join), partial-aggregated, then a tiny groupby."""
    import ray
    from ray.data.aggregate import Sum

    hours_df = (
        _read(sf_dir, "events", ["ts"])
        .map_batches(
            lambda b: pd.DataFrame({"h": b["ts"].dt.floor("h").unique()}),
            batch_format="pandas",
        )
        .to_pandas()
    )
    valid_hours = set(pd.unique(hours_df["h"]))
    hours_ref = ray.put(valid_hours)

    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def expand(batch: pd.DataFrame) -> pd.DataFrame:
        valid = ray.get(hours_ref)
        h = batch["ts"].dt.floor("h")
        frames = []
        for k in range(3):  # event at hour h is inside windows starting h, h-1, h-2
            ws = h - pd.Timedelta(hours=k)
            frames.append(
                pd.DataFrame({"window_start": ws, "event_type": batch["event_type"]})
            )
        ex = pd.concat(frames, ignore_index=True)
        return ex[ex["window_start"].isin(valid)]

    from .stages.agg import bucketed_sum

    rows = ds.map_batches(expand, batch_format="pandas", batch_size=65536)
    agg = bucketed_sum(rows, ["window_start", "event_type"], [], count_col="n_events")
    df = agg.to_pandas()
    df["n_events"] = df["n_events"].astype("int64")
    return df[["window_start", "event_type", "n_events"]]


Q20_SQL = """
WITH hours AS (SELECT DISTINCT date_trunc('hour', ts) AS h FROM events)
SELECT hours.h AS window_start, e.event_type, COUNT(*) AS n_events
FROM hours JOIN events e
  ON e.ts >= hours.h AND e.ts < hours.h + INTERVAL 3 HOUR
GROUP BY 1, 2
"""


def q21_distinct_count(sf_dir: str):
    """Exact COUNT(DISTINCT o_custkey) per orderpriority — bucketed
    partial-distinct then a small merge (the exact twin of the HLL
    sketch in stages/sketch.py)."""
    from ray.data.aggregate import Sum

    from naer_ray.hashing import _bucket_series

    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_custkey"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.drop_duplicates()
        comb = g["o_orderpriority"].astype(str) + "|" + g["o_custkey"].astype(str)
        g = g.assign(bucket=_bucket_series(comb, 64))
        return g

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        # each distinct (priority, custkey) pair lands in exactly one
        # bucket, so per-bucket nunique sums to the exact global count
        out = (
            group.drop_duplicates(subset=["o_orderpriority", "o_custkey"])
            .groupby("o_orderpriority", as_index=False)["o_custkey"]
            .nunique()
            .rename(columns={"o_custkey": "n_partial"})
        )
        return out

    parts = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )
    agg = parts.groupby("o_orderpriority").aggregate(
        Sum("n_partial", alias_name="n_customers")
    )
    out = agg.to_pandas()
    out["n_customers"] = out["n_customers"].astype("int64")
    return out[["o_orderpriority", "n_customers"]]


Q21_SQL = """
SELECT o_orderpriority, CAST(COUNT(DISTINCT o_custkey) AS BIGINT) AS n_customers
FROM orders GROUP BY o_orderpriority
"""


def q25_streaming_sessionize(sf_dir: str):
    """Sessionization via stateful Ray actors fed in event-time order
    (stages/streaming.py) — identical result to q07's batch groupby,
    different execution model; oracle-checked against the same SQL."""
    from .stages.streaming import streaming_sessionize

    return streaming_sessionize(_read(sf_dir, "events", ["user_id", "ts"]))


def q23_asof_join(sf_dir: str):
    """As-of join: each event matches the latest order (by orderdate) of
    the same customer at or before the event time.

    Both sides are fact tables, so this runs the BUCKETED co-partition
    operator (stages/joins.asof_join): one user-hash shuffle co-locates
    each customer's events and orders, the per-bucket kernel dedups
    order-date ties (max price — exact per bucket because the hash
    co-partition is total per key) and runs a vectorized merge_asof.
    Nothing is broadcast and nothing touches the driver.
    Aggregated to (event_type, n_matched, matched_price) so the result
    is small and exactly comparable to DuckDB's ASOF JOIN.
    """
    from ray.data.aggregate import Sum

    from .stages.joins import asof_join

    events = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])

    def dedup_ties(od: pd.DataFrame) -> pd.DataFrame:
        od = od.groupby(["o_custkey", "o_orderdate"], as_index=False)[
            "o_totalprice"
        ].max()
        od["price_c"] = _cents(od["o_totalprice"].to_numpy())
        return od[["o_custkey", "o_orderdate", "price_c"]]

    merged = asof_join(
        events,
        orders,
        left_on="ts",
        right_on="o_orderdate",
        left_by="user_id",
        right_by="o_custkey",
        n_buckets=64,
        right_prepare=dedup_ties,
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.assign(
            matched=batch["price_c"].notna().astype("int64"),
            price_c=batch["price_c"].fillna(0).astype("int64"),
        )
        return batch.groupby("event_type", as_index=False)[["matched", "price_c"]].sum()

    agg = (
        merged.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby("event_type")
        .aggregate(
            Sum("matched", alias_name="n_matched"),
            Sum("price_c", alias_name="price_c"),
        )
    )
    df = agg.to_pandas()
    df["matched_price"] = df.pop("price_c") / 100.0
    df["n_matched"] = df["n_matched"].astype("int64")
    return df[["event_type", "n_matched", "matched_price"]]


Q23_SQL = """
WITH o AS (
  SELECT o_custkey, o_orderdate,
         CAST(FLOOR(MAX(o_totalprice) * 100 + 0.5) AS BIGINT) AS price_c
  FROM (SELECT o_custkey, o_orderdate, MAX(o_totalprice) AS o_totalprice
        FROM orders GROUP BY o_custkey, o_orderdate)
  GROUP BY o_custkey, o_orderdate)
SELECT e.event_type,
       CAST(SUM(CASE WHEN o.price_c IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_matched,
       CAST(SUM(COALESCE(o.price_c, 0)) AS BIGINT) / 100.0 AS matched_price
FROM events e ASOF LEFT JOIN o
  ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
GROUP BY e.event_type
"""


def q26_range_join(sf_dir: str):
    """Range (band) join: reorders — each order pairs with every PRIOR
    order of the same customer placed in the preceding 90 days
    (bucketed co-partition self-join, stages/joins.range_join — both
    sides large, nothing broadcast).  Aggregated per orderpriority."""
    from ray.data.aggregate import Sum

    from .stages.joins import range_join

    later = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"])
    earlier = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_orderkey": batch["o_orderkey"],
                "p_custkey": batch["o_custkey"],
                "p_orderdate": batch["o_orderdate"],
                "p_totalprice": batch["o_totalprice"],
            }
        )

    matched = range_join(
        later,
        earlier.map_batches(rename, batch_format="pyarrow"),
        left_on="o_orderdate",
        right_on="p_orderdate",
        left_by="o_custkey",
        right_by="p_custkey",
        lower=pd.Timedelta(0),
        upper=pd.Timedelta(days=90),
        n_buckets=64,
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[batch["o_orderkey"] != batch["p_orderkey"]]
        batch = batch.assign(
            prior_c=_cents(batch["p_totalprice"].to_numpy()), n=1
        )
        return batch.groupby("o_orderpriority", as_index=False)[["prior_c", "n"]].sum()

    agg = (
        matched.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby("o_orderpriority")
        .aggregate(
            Sum("n", alias_name="n_pairs"), Sum("prior_c", alias_name="prior_c")
        )
    )
    df = agg.to_pandas()
    df["prior_price"] = df.pop("prior_c") / 100.0
    df["n_pairs"] = df["n_pairs"].astype("int64")
    return df[["o_orderpriority", "n_pairs", "prior_price"]]


Q26_SQL = """
SELECT a.o_orderpriority,
       COUNT(*) AS n_pairs,
       SUM(CAST(FLOOR(b.o_totalprice * 100 + 0.5) AS BIGINT)) / 100.0 AS prior_price
FROM orders a JOIN orders b
  ON a.o_custkey = b.o_custkey
 AND a.o_orderkey <> b.o_orderkey
 AND a.o_orderdate - b.o_orderdate >= INTERVAL 0 SECOND
 AND a.o_orderdate - b.o_orderdate <= INTERVAL 90 DAY
GROUP BY a.o_orderpriority
"""


def q24_grouped_topk(sf_dir: str):
    """Top-3 orders by totalprice per mktsegment (grouped top-k):
    broadcast segment lookup -> per-batch local top-k per segment ->
    tiny global merge; deterministic orderkey tie-break."""
    import ray

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    seg_ref = ray.put(dict(zip(cust["c_custkey"], cust["c_mktsegment"])))

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def local(batch: pd.DataFrame) -> pd.DataFrame:
        seg = ray.get(seg_ref)
        batch = batch.assign(
            c_mktsegment=batch["o_custkey"].map(seg),
            price_c=_cents(batch["o_totalprice"].to_numpy()),
        )
        return (
            batch.sort_values(["price_c", "o_orderkey"], ascending=[False, True])
            .groupby("c_mktsegment", as_index=False, sort=False)
            .head(3)[["c_mktsegment", "o_orderkey", "price_c"]]
        )

    parts = ds.map_batches(local, batch_format="pandas", batch_size=65536).to_pandas()
    top = (
        parts.sort_values(["price_c", "o_orderkey"], ascending=[False, True])
        .groupby("c_mktsegment", as_index=False, sort=False)
        .head(3)
        .reset_index(drop=True)
    )
    top["o_totalprice"] = top.pop("price_c") / 100.0
    return top[["c_mktsegment", "o_orderkey", "o_totalprice"]]


Q24_SQL = """
WITH ranked AS (
  SELECT c.c_mktsegment, o.o_orderkey,
         CAST(FLOOR(o.o_totalprice * 100 + 0.5) AS BIGINT) / 100.0 AS o_totalprice,
         ROW_NUMBER() OVER (PARTITION BY c.c_mktsegment
                            ORDER BY CAST(FLOOR(o.o_totalprice * 100 + 0.5) AS BIGINT) DESC,
                                     o.o_orderkey) AS rn
  FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey)
SELECT c_mktsegment, o_orderkey, o_totalprice FROM ranked WHERE rn <= 3
"""


def q22_hll_distinct(sf_dir: str):
    """Approximate distinct users via mergeable HLL sketches, with a
    oracle-checked accuracy gate: the deterministic estimate must land
    within 5% of the exact distinct count (computed distributively),
    asserted against a literal TRUE oracle row."""
    from .stages.sketch import approx_distinct

    ds = _read(sf_dir, "events", ["user_id"])
    est = approx_distinct(ds, "user_id")
    exact = _read(sf_dir, "events", ["user_id"]).unique("user_id")
    ok = abs(est - len(exact)) <= 0.05 * max(len(exact), 1)
    return pd.DataFrame({"within_5pct": [bool(ok)]})


Q22_SQL = "SELECT TRUE AS within_5pct"


def m01_multimodal_features(sf_dir: str):
    """REAL multimodal decode: binary P6 PPM payloads (deterministically
    generated from doc_id by closed-form arithmetic) flow through the
    actor-pool decoder, which parses the header and pixel BYTES alone;
    the SQL oracle re-derives width/height/mean_luma from the generator
    arithmetic — so a decoder bug (offset, channel order, header parse)
    breaks the hash match."""
    from .stages.multimodal import decode_ppm_features, synth_ppm_payload

    return decode_ppm_features(_media_rows(sf_dir, "m", synth_ppm_payload))


M01_SQL = """
WITH dims AS (
  SELECT doc_id,
         4 + (doc_id * 131) % 29 AS width,
         4 + (doc_id * 197) % 31 AS height
  FROM documents),
px AS (
  SELECT doc_id, width, height, unnest(range(0, width * height)) AS j
  FROM dims)
SELECT printf('m%07d', doc_id) AS media_id,
       CAST(width AS INTEGER) AS width,
       CAST(height AS INTEGER) AS height,
       CAST(width * height AS BIGINT) AS n_pix,
       CAST(SUM((doc_id * 7 + j * 13) % 256
              + (doc_id * 11 + j * 17) % 256
              + (doc_id * 13 + j * 23) % 256) AS DOUBLE)
         / (3.0 * width * height) AS mean_luma
FROM px GROUP BY doc_id, width, height
"""


def _derived_media(sf_dir: str):
    """documents -> media-shaped rows with doc-id-derived metadata
    (deterministic integer arithmetic, so a SQL oracle can re-derive
    the same table): every 3rd doc cycles image/audio/video."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def derive(batch: pa.Table) -> pa.Table:
        from .stages.multimodal import MEDIA_SCHEMA

        ids = batch["doc_id"].to_pylist()
        kinds = ["image", "audio", "video"]
        rows = {k: [] for k in MEDIA_SCHEMA.names}
        for i in ids:
            kind = kinds[i % 3]
            rows["media_id"].append(f"m{i:07d}")
            rows["kind"].append(kind)
            rows["payload"].append(b"")
            rows["mime"].append("application/octet-stream")
            rows["width"].append(16 + (i * 131) % 496 if kind == "image" else -1)
            rows["height"].append(16 + (i * 197) % 496 if kind == "image" else -1)
            rows["duration_ms"].append(100 + (i * 7919) % 59900 if kind == "video" else -1)
        return pa.Table.from_pydict(rows, schema=MEDIA_SCHEMA)

    return ds.map_batches(derive, batch_format="pyarrow")


_MEDIA_SQL = """
  SELECT printf('m%07d', doc_id) AS media_id,
         doc_id % 3 AS kind_i,
         16 + (doc_id * 131) % 496 AS width,
         16 + (doc_id * 197) % 496 AS height,
         100 + (doc_id * 7919) % 59900 AS duration_ms
  FROM documents
"""


def m02_resize_plan(sf_dir: str):
    """Image resize planning (aspect-preserving, integer half-up,
    never upscale) over doc-derived media metadata — the multimodal
    dimension math oracle-checked end to end."""
    from .stages.multimodal import resize_plan

    return resize_plan(_derived_media(sf_dir), max_side=224)


M02_SQL = f"""
WITH media AS ({_MEDIA_SQL})
SELECT media_id,
       CAST(width AS INTEGER) AS width,
       CAST(height AS INTEGER) AS height,
       CAST(CASE WHEN GREATEST(width, height) <= 224 THEN width
            ELSE GREATEST(1, CAST(FLOOR((width * 224 * 2 + GREATEST(width, height))
                 / (2.0 * GREATEST(width, height))) AS BIGINT)) END AS INTEGER) AS target_w,
       CAST(CASE WHEN GREATEST(width, height) <= 224 THEN height
            ELSE GREATEST(1, CAST(FLOOR((height * 224 * 2 + GREATEST(width, height))
                 / (2.0 * GREATEST(width, height))) AS BIGINT)) END AS INTEGER) AS target_h
FROM media WHERE kind_i = 0
"""


def m03_frame_sample_plan(sf_dir: str):
    """Video frame-sampling grid (1 fps, max 16 frames, always t=0)
    over doc-derived media metadata — oracle-checked."""
    from .stages.multimodal import frame_sample_plan

    return frame_sample_plan(_derived_media(sf_dir), fps=1.0, max_frames=16)


M03_SQL = f"""
WITH media AS ({_MEDIA_SQL}),
grid AS (
  SELECT media_id, unnest(range(0, duration_ms, 1000)) AS frame_ts_ms
  FROM media WHERE kind_i = 2)
SELECT media_id, CAST(frame_ts_ms AS INTEGER) AS frame_ts_ms
FROM (SELECT media_id, frame_ts_ms,
             ROW_NUMBER() OVER (PARTITION BY media_id ORDER BY frame_ts_ms) AS rn
      FROM grid)
WHERE rn <= 16
"""


# ------------------------------------------------- sampling / quantiles / packing


def s01_hash_sample(sf_dir: str):
    """Deterministic ~5% document sample (stages/sample.hash_sample):
    multiplicative-hash of doc_id, stable under any partitioning —
    the repeatable-subset primitive for ablations and holdouts."""
    from .stages.sample import hash_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source"])
    return hash_sample(ds, "doc_id", rate_pct=5)


S01_SQL = """
SELECT doc_id, lang, source FROM documents
WHERE ((doc_id * 2654435761) % 4294967296) % 100 < 5
"""


def t04_token_quantiles(sf_dir: str):
    """Exact per-language token-count quantiles via a distributed value
    histogram (stages/quantile.grouped_discrete_quantiles) — the
    shuffle carries (lang, n_tokens, cnt) partials, never documents."""
    from .stages.quantile import grouped_discrete_quantiles

    ds = _read(sf_dir, "documents", ["lang", "text"])

    def tokens(batch: pa.Table) -> pa.Table:
        n = pc.list_value_length(pc.split_pattern(batch["text"], " "))
        return pa.table(
            {"lang": batch["lang"], "n_tokens": pc.cast(n, pa.int64())}
        )

    counted = ds.map_batches(tokens, batch_format="pyarrow")
    return grouped_discrete_quantiles(counted, "lang", "n_tokens")


# the explicit order statistic (smallest v with cum_count >= ceil(q*n))
# so both sides state the same rule — no engine interpolation flavor
T04_SQL = """
WITH t AS (
  SELECT lang, CAST(len(string_split(text, ' ')) AS BIGINT) AS v FROM documents),
r AS (
  SELECT lang, v,
         ROW_NUMBER() OVER (PARTITION BY lang ORDER BY v) AS rn,
         COUNT(*) OVER (PARTITION BY lang) AS n
  FROM t)
SELECT lang,
       MIN(CASE WHEN rn >= CEIL(0.25 * n) THEN v END) AS p25,
       MIN(CASE WHEN rn >= CEIL(0.50 * n) THEN v END) AS p50,
       MIN(CASE WHEN rn >= CEIL(0.75 * n) THEN v END) AS p75,
       MIN(CASE WHEN rn >= CEIL(0.95 * n) THEN v END) AS p95
FROM r GROUP BY lang
"""


def p01_pack_plan(sf_dir: str):
    """Sequence-packing plan (stages/pack.pack_plan): distributed
    exclusive prefix sum of token counts in doc_id order, split every
    512 tokens; one histogram-sized shuffle per pass."""
    from .stages.pack import pack_plan

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def tokens(batch: pa.Table) -> pa.Table:
        n = pc.list_value_length(pc.split_pattern(batch["text"], " "))
        return pa.table(
            {"doc_id": batch["doc_id"], "w": pc.cast(n, pa.int64())}
        )

    plan = pack_plan(
        ds.map_batches(tokens, batch_format="pyarrow"),
        id_col="doc_id",
        weight_col="w",
        budget=512,
        bucket_width=512,
    )
    df = plan.to_pandas()
    for c in ("seq_id", "n_docs", "total_weight"):
        df[c] = df[c].astype("int64")
    return df[["seq_id", "n_docs", "total_weight"]]


P01_SQL = """
WITH t AS (
  SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) AS w
  FROM documents),
c AS (
  SELECT doc_id, w,
         COALESCE(SUM(w) OVER (ORDER BY doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cum
  FROM t)
SELECT CAST(cum // 512 AS BIGINT) AS seq_id, COUNT(*) AS n_docs,
       CAST(SUM(w) AS BIGINT) AS total_weight
FROM c GROUP BY 1
"""


def s02_bottomk_sample(sf_dir: str):
    """Fixed-size deterministic sample (stages/sample.bottom_k_sample):
    the 100 docs with the smallest hash rank — per-batch argpartition
    local bottom-k, exact sort only over the k x n_blocks survivors."""
    from .stages.sample import bottom_k_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source"])
    df = bottom_k_sample(ds, "doc_id", k=100).to_pandas()
    return df[["doc_id", "lang", "source"]]


S02_SQL = """
SELECT doc_id, lang, source FROM documents
ORDER BY (doc_id * 2654435761) % 4294967296, doc_id LIMIT 100
"""


def w01_weighted_mixture(sf_dir: str):
    """Mixture reweighting (stages/sample.weighted_mixture_sample):
    per-source keep rates over the same hash-bucket rule as s01 —
    the curriculum/downsampling primitive; rate lookup touches unique
    source values only (dictionary-encoded)."""
    from .stages.sample import weighted_mixture_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source"])
    rates = {"src0": 80, "src1": 50, "src2": 20}
    return weighted_mixture_sample(
        ds, "doc_id", "source", rates, default_pct=10
    )


W01_SQL = """
SELECT doc_id, lang, source FROM documents
WHERE ((doc_id * 2654435761) % 4294967296) % 100 <
  CASE source WHEN 'src0' THEN 80 WHEN 'src1' THEN 50
              WHEN 'src2' THEN 20 ELSE 10 END
"""


def t05_tfidf_top_terms(sf_dir: str):
    """Per-doc top-3 TF-IDF terms (stages/text.tfidf_top_terms): one
    vocab-histogram shuffle for document frequencies + a broadcast
    df-map second pass; ties (score DESC, term ASC) so the result is
    deterministic and the float expression tree matches the SQL."""
    from .stages.text import tfidf_top_terms

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = ds.count()
    out = tfidf_top_terms(ds, n_docs=n_docs, top_n=3).to_pandas()
    for c in ("doc_id", "tf", "df", "rnk"):
        out[c] = out[c].astype("int64")
    return out[["doc_id", "term", "tf", "df", "score", "rnk"]]


T05_SQL = """
WITH tok AS (
  SELECT doc_id, UNNEST(string_split(text, ' ')) AS term FROM documents),
tf AS (
  SELECT doc_id, term, COUNT(*) AS tf FROM tok GROUP BY doc_id, term),
df AS (
  SELECT term, COUNT(DISTINCT doc_id) AS df FROM tok GROUP BY term),
n AS (SELECT COUNT(*) AS n FROM documents),
s AS (
  SELECT tf.doc_id, tf.term, tf.tf, df.df,
         tf.tf * ln(CAST(n.n AS DOUBLE) / df.df) AS score
  FROM tf JOIN df USING (term) CROSS JOIN n),
r AS (
  SELECT *, ROW_NUMBER() OVER (
      PARTITION BY doc_id ORDER BY score DESC, term) AS rnk
  FROM s)
SELECT doc_id, term, tf, df, score, CAST(rnk AS BIGINT) AS rnk
FROM r WHERE rnk <= 3
"""


def s03_stratified_sample(sf_dir: str):
    """Per-language fixed-size sample (stages/sample.stratified_bottom_k):
    20 docs per lang by hash rank — local per-group bottom-k per batch,
    k x groups x blocks merge."""
    from .stages.sample import stratified_bottom_k

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    return stratified_bottom_k(ds, "doc_id", "lang", k=20)


S03_SQL = """
SELECT doc_id, lang FROM (
  SELECT doc_id, lang, ROW_NUMBER() OVER (
    PARTITION BY lang
    ORDER BY (doc_id * 2654435761) % 4294967296, doc_id) AS rn
  FROM documents)
WHERE rn <= 20
"""


def n01_group_zscore(sf_dir: str):
    """Per-row z-score of n_chars against the language's moments
    (stages/agg.group_zscore): exact integer moment shuffle + broadcast
    + fixed IEEE expression tree, so floats match DuckDB bit-exactly."""
    from .stages.agg import group_zscore

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return group_zscore(ds, "lang", "n_chars")


N01_SQL = """
WITH m AS (
  SELECT lang, COUNT(*) AS cnt,
         CAST(SUM(n_chars) AS BIGINT) AS s,
         CAST(SUM(n_chars * n_chars) AS BIGINT) AS s2
  FROM documents GROUP BY lang),
e AS (
  SELECT lang, cnt, s, s2,
         CAST(s AS DOUBLE) / cnt AS mu,
         sqrt((CAST(s2 AS DOUBLE) - s * (CAST(s AS DOUBLE) / cnt)) / cnt)
             AS sigma
  FROM m)
SELECT d.doc_id, d.lang, d.n_chars,
       CASE WHEN e.sigma = 0 THEN NULL
            ELSE (CAST(d.n_chars AS DOUBLE) - e.mu) / e.sigma END AS z
FROM documents d JOIN e USING (lang)
"""


def t06_normalize_text(sf_dir: str):
    """Canonical normalization (stages/text.normalize_text): lowercase
    + whitespace collapse + trim — pure Arrow kernels; Arrow and DuckDB
    both use RE2, so the regex semantics line up exactly."""
    from .stages.text import normalize_text

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return normalize_text(ds).select_columns(["doc_id", "norm_text"])


T06_SQL = r"""
SELECT doc_id,
       trim(regexp_replace(lower(text), '\s+', ' ', 'g')) AS norm_text
FROM documents
"""


def k01_kmeans_clusters(sf_dir: str):
    """Distributed k-means (stages/cluster.kmeans_fit): deterministic
    bottom-k-hash init, one broadcast + one combiner-shuffle per Lloyd
    round.  The oracle gate: distributed assignments must equal the
    single-process reference (same init/update rules) exactly — the
    a01-style literal-TRUE row pattern for non-SQL-expressible ops."""
    import pyarrow.parquet as pq

    from .stages.cluster import kmeans_fit, kmeans_reference

    k = 8
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    _cents, assign = kmeans_fit(ds, "vec_id", "embedding", k=k, n_iter=5)
    got = assign(ds).to_pandas().sort_values("vec_id")

    ref_tbl = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    ids = ref_tbl["vec_id"].to_numpy()
    import numpy as _np

    mat = _np.array(ref_tbl["embedding"].to_pylist(), dtype=_np.float64)
    order = _np.argsort(ids)
    want = kmeans_reference(ids[order], mat[order], k=k, n_iter=5)

    match = bool((got["cluster"].to_numpy() == want).all())
    out = pd.DataFrame({"cluster_id": range(k)})
    out["cluster_id"] = out["cluster_id"].astype("int64")
    out["assignments_match"] = match
    return out


K01_SQL = """
SELECT CAST(range AS BIGINT) AS cluster_id, TRUE AS assignments_match
FROM range(8)
"""


def t07_pii_redact(sf_dir: str):
    """PII redaction (stages/text.pii_redact): Arrow RE2 count+replace
    kernels, emails then phones.  The corpus carries no organic PII, so
    the query plants one deterministic email + phone per doc (pure
    Arrow concat, mirrored exactly in the SQL) and the oracle checks
    the redaction kernel end-to-end."""
    from .stages.text import pii_redact

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def inject(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].combine_chunks()
        id_str = pc.cast(ids, pa.string())
        pad = pc.utf8_lpad(
            pc.cast(pa.array(ids.to_numpy() % 10000), pa.string()), 4, "0"
        )
        aug = pc.binary_join_element_wise(
            batch["text"].combine_chunks(),
            " contact user",
            id_str,
            "@example.com or call +1-555-",
            pad,
            ".",
            "",
        )
        return pa.table({"doc_id": ids, "text": aug})

    return pii_redact(ds.map_batches(inject, batch_format="pyarrow"))


T07_SQL = r"""
WITH aug AS (
  SELECT doc_id,
         text || ' contact user' || CAST(doc_id AS VARCHAR) ||
         '@example.com or call +1-555-' ||
         lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') || '.' AS t
  FROM documents),
e AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(
             t, '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}'))
           AS BIGINT) AS n_emails,
         regexp_replace(
             t, '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}',
             '<EMAIL>', 'g') AS t2
  FROM aug)
SELECT doc_id,
       regexp_replace(t2, '\+?[0-9][0-9.\-()]{5,}[0-9]', '<PHONE>', 'g')
           AS red_text,
       n_emails,
       CAST(len(regexp_extract_all(t2, '\+?[0-9][0-9.\-()]{5,}[0-9]'))
           AS BIGINT) AS n_phones
FROM e
"""


def t08_gopher_rules(sf_dir: str):
    """Gopher-style quality rules (stages/text.gopher_rules): word-count
    bounds + mean-word-length band + stopword floor, fixed IEEE
    expression tree (DOUBLE cast before each divide) so the SQL oracle
    matches bit-exactly."""
    from .stages.text import gopher_rules

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return gopher_rules(ds)


T08_SQL = r"""
WITH tok AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS ts,
         length(regexp_replace(text, '\s+', '', 'g')) AS n_chars
  FROM documents),
m AS (
  SELECT doc_id,
         CAST(len(ts) AS BIGINT) AS n_words,
         CAST(n_chars AS DOUBLE) / len(ts) AS mean_word_len,
         CAST(len(list_filter(ts, x -> x IN
             ('the','and','of','to','a','in','is','it','that','for')))
           AS DOUBLE) / len(ts) AS stop_frac
  FROM tok WHERE len(ts) > 0)
SELECT doc_id, n_words, mean_word_len, stop_frac,
       (n_words BETWEEN 50 AND 100000
        AND mean_word_len BETWEEN 2.0 AND 10.0
        AND stop_frac >= 0.01) AS keep
FROM m
UNION ALL
SELECT doc_id, 0 AS n_words, NULL, NULL, FALSE
FROM tok WHERE len(ts) = 0
"""


def p02_chunk_plan(sf_dir: str):
    """Overlapping chunk plan (stages/text.chunk_plan): budget 128,
    stride 112 — per-batch arithmetic only (split + repeat/arange),
    no shuffle; the p01 token convention."""
    from .stages.text import chunk_plan

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return chunk_plan(ds, budget=128, stride=112)


P02_SQL = """
WITH t AS (
  SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) AS n
  FROM documents),
c AS (
  SELECT doc_id, n,
         GREATEST(1, CAST(ceil((n - 16) / 112.0) AS BIGINT)) AS n_chunks
  FROM t)
SELECT doc_id, CAST(u.i AS BIGINT) AS chunk_id,
       CAST(u.i * 112 AS BIGINT) AS start_tok,
       CAST(LEAST(u.i * 112 + 128, n) AS BIGINT) AS end_tok
FROM c, UNNEST(range(0, n_chunks)) AS u(i)
"""


def d06_decontaminate(sf_dir: str):
    """Test-set decontamination (stages/dedup.decontaminate): word
    8-gram overlap vs a held-out 2% hash split.  Contamination is
    planted deterministically — each test doc's text re-enters the
    training side under doc_id+10M — so the flag is exercised in both
    directions.  Test-side n-grams broadcast once (bounded, documented
    cap); training batches probe via dictionary-encoded uniques."""
    import ray

    from .stages.dedup import decontaminate
    from .stages.sample import KNUTH_K

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def split(batch: pa.Table, want_test: bool) -> pa.Table:
        ids = batch["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        is_test = ((ids.astype(np.uint64) * np.uint64(KNUTH_K))
                   & np.uint64(0xFFFFFFFF)) % np.uint64(100) < 2
        return batch.filter(pa.array(is_test if want_test else ~is_test))

    test_ds = ds.map_batches(
        lambda b: split(b, True), batch_format="pyarrow"
    )

    def leak(batch: pa.Table) -> pa.Table:
        b = split(batch, True)
        return pa.table(
            {
                "doc_id": pc.add(b["doc_id"], 10_000_000),
                "text": b["text"],
            }
        )

    train_ds = ds.map_batches(
        lambda b: split(b, False), batch_format="pyarrow"
    ).union(ds.map_batches(leak, batch_format="pyarrow"))
    return decontaminate(train_ds, test_ds, n=8)


D06_SQL = """
WITH test_ids AS (
  SELECT doc_id FROM documents
  WHERE ((doc_id * 2654435761) % 4294967296) % 100 < 2),
train AS (
  SELECT doc_id, text FROM documents
  WHERE doc_id NOT IN (SELECT doc_id FROM test_ids)
  UNION ALL
  SELECT d.doc_id + 10000000 AS doc_id, d.text
  FROM documents d JOIN test_ids USING (doc_id)),
tok_test AS (
  SELECT string_split(text, ' ') AS ts
  FROM documents JOIN test_ids USING (doc_id)),
tsh AS (
  SELECT DISTINCT array_to_string(ts[i:i+7], ' ') AS g
  FROM tok_test, UNNEST(range(1, len(ts) - 6)) AS u(i)),
tok_train AS (
  SELECT doc_id, string_split(text, ' ') AS ts FROM train),
hits AS (
  SELECT DISTINCT t.doc_id
  FROM tok_train t, UNNEST(range(1, len(t.ts) - 6)) AS u(i)
  JOIN tsh ON array_to_string(t.ts[u.i:u.i+7], ' ') = tsh.g)
SELECT tr.doc_id, (h.doc_id IS NOT NULL) AS contaminated
FROM train tr LEFT JOIN hits h USING (doc_id)
"""


def d07_priority_dedup(sf_dir: str):
    """Cross-source priority dedup (stages/dedup.keep_best_dedup):
    lowest (source priority, doc_id) wins per distinct text.  Exact
    duplicates are planted (each doc re-enters as source 'src9' under
    doc_id+10M) so the keep-best rule is exercised on every text."""
    from .stages.dedup import keep_best_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def dup(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.add(batch["doc_id"], 10_000_000),
                "text": batch["text"],
                "source": pa.array(["src9"] * batch.num_rows, pa.string()),
            }
        )

    prio_map = {"src0": 0, "src1": 1, "src2": 2}

    def with_prio(batch: pd.DataFrame) -> pd.DataFrame:
        batch["priority"] = (
            batch["source"].map(prio_map).fillna(9).astype("int64")
        )
        return batch[["doc_id", "text", "priority"]]

    both = ds.union(ds.map_batches(dup, batch_format="pyarrow"))
    keyed = both.map_batches(with_prio, batch_format="pandas", batch_size=65536)
    out = keep_best_dedup(keyed, "doc_id", "text", "priority").to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["priority"] = out["priority"].astype("int64")
    return out[["doc_id", "priority"]]


D07_SQL = """
WITH all_rows AS (
  SELECT doc_id, text, source FROM documents
  UNION ALL
  SELECT doc_id + 10000000 AS doc_id, text, 'src9' AS source
  FROM documents),
p AS (
  SELECT doc_id, text,
         CASE source WHEN 'src0' THEN 0 WHEN 'src1' THEN 1
                     WHEN 'src2' THEN 2 ELSE 9 END AS priority
  FROM all_rows),
r AS (
  SELECT doc_id, priority,
         ROW_NUMBER() OVER (PARTITION BY text ORDER BY priority, doc_id)
             AS rn
  FROM p)
SELECT doc_id, CAST(priority AS BIGINT) AS priority FROM r WHERE rn = 1
"""


def w02_user_gaps(sf_dir: str, n_buckets: int = 64):
    """Per-user inter-event gap stats (lag/lead analytics): bucket-run
    over a user-hash shuffle, vectorized diff kernel; avg as one fixed
    DOUBLE divide so the LAG-window oracle matches bit-exactly.
    Single-event users have no gaps and are excluded (HAVING parity)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def bucketize(batch: pa.Table) -> pa.Table:
        b = (
            batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            % n_buckets
        ).astype(np.int32)
        return batch.append_column("bucket", pa.array(b, pa.int32()))

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        uid = g["user_id"].to_numpy().astype(np.int64)
        ts_us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        same = np.r_[False, uid[1:] == uid[:-1]]
        gap = np.r_[0, np.diff(ts_us)]
        df = pd.DataFrame({"user_id": uid[same], "gap": gap[same]})
        out = df.groupby("user_id", as_index=False).agg(
            n_gaps=("gap", "size"),
            sum_gap_us=("gap", "sum"),
            max_gap_us=("gap", "max"),
        )
        for c in ("n_gaps", "sum_gap_us", "max_gap_us"):
            out[c] = out[c].astype("int64")
        out["avg_gap_us"] = (
            out["sum_gap_us"].astype("float64") / out["n_gaps"].to_numpy()
        )
        return out

    return (
        ds.map_batches(bucketize, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(gaps, batch_format="pandas")
    )


W02_SQL = """
WITH g AS (
  SELECT user_id,
         epoch_us(ts) - LAG(epoch_us(ts)) OVER (
             PARTITION BY user_id ORDER BY ts, event_id) AS gap
  FROM events)
SELECT user_id,
       CAST(COUNT(gap) AS BIGINT) AS n_gaps,
       CAST(SUM(gap) AS BIGINT) AS sum_gap_us,
       CAST(MAX(gap) AS BIGINT) AS max_gap_us,
       CAST(SUM(gap) AS DOUBLE) / COUNT(gap) AS avg_gap_us
FROM g GROUP BY user_id HAVING COUNT(gap) > 0
"""


def r01_rollup_agg(sf_dir: str):
    """GROUP BY ROLLUP (stages/agg.rollup_sum): one distributed
    finest-level pass (combiner partials + a cardinality-sized
    shuffle); subtotal and grand-total levels derived from the finest
    result on the driver — no second scan.  Quantities cast to int64
    (whole-valued in this corpus) so sums are exact."""
    from .stages.agg import rollup_sum

    ds = _read(
        sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity"]
    )

    def to_int(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "qty": pc.cast(
                    batch["l_quantity"], pa.int64(), safe=False
                ),
            }
        )

    out = rollup_sum(
        ds.map_batches(to_int, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        "qty",
    )
    return out.rename(columns={"sum_qty": "sum_qty"})


R01_SQL = """
SELECT l_returnflag, l_linestatus,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(COUNT(*) AS BIGINT) AS n_rows
FROM lineitem
GROUP BY ROLLUP(l_returnflag, l_linestatus)
"""


def _lineify(col, every: int = 7):
    """Insert a newline after every ``every`` tokens (RE2 backref
    rewrite — identical semantics in Arrow and DuckDB, both RE2)."""
    pat = r"((?:\S+ ){%d}\S+) " % (every - 1)
    return pc.replace_substring_regex(col, pat, "\\1\n")


_LINEIFY_SQL = r"regexp_replace({col}, '((?:\S+ ){{6}}\S+) ', '\1' || chr(10), 'g')"


def t09_c4_line_rules(sf_dir: str):
    """C4-style line cleaning (stages/text.c4_line_rules).  The corpus
    carries no newlines or punctuation, so the query plants line
    structure deterministically — token replacements ('table'→'table.'
    for terminal punctuation, 'spark'→'javascript', 'slow'→'{slow}',
    'key agg'→'lorem ipsum') then a newline every 7 tokens — mirrored
    exactly in the SQL, so every rule fires on real data."""
    from .stages.text import c4_line_rules

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def structure(batch: pa.Table) -> pa.Table:
        t = batch["text"].combine_chunks()
        t = pc.replace_substring_regex(t, r"\bkey agg\b", "lorem ipsum")
        t = pc.replace_substring_regex(t, r"\b(table|row|value|scan)\b", r"\1.")
        t = pc.replace_substring_regex(t, r"\bspark\b", "javascript")
        t = pc.replace_substring_regex(t, r"\bslow\b", "{slow}")
        return pa.table({"doc_id": batch["doc_id"], "text": _lineify(t)})

    return c4_line_rules(ds.map_batches(structure, batch_format="pyarrow"))


T09_SQL = r"""
WITH aug AS (
  SELECT doc_id,
         regexp_replace(regexp_replace(regexp_replace(regexp_replace(
             regexp_replace(text, '\bkey agg\b', 'lorem ipsum', 'g'),
             '\b(table|row|value|scan)\b', '\1.', 'g'),
             '\bspark\b', 'javascript', 'g'),
             '\bslow\b', '{slow}', 'g'),
             '((?:\S+ ){6}\S+) ', '\1' || chr(10), 'g') AS t
  FROM documents),
l AS (SELECT doc_id, t, string_split(t, chr(10)) AS ls FROM aug),
k AS (
  SELECT doc_id, t, ls,
         list_filter(ls, x -> regexp_matches(x, '[.!?"]$')
             AND len(list_filter(string_split_regex(x, '\s+'),
                                 y -> y <> '')) >= 5
             AND NOT contains(x, '{')
             AND NOT regexp_matches(x, '(?i)javascript')) AS kept
  FROM l)
SELECT doc_id,
       COALESCE(array_to_string(kept, chr(10)), '') AS clean_text,
       CAST(len(ls) AS BIGINT) AS n_lines,
       CAST(len(kept) AS BIGINT) AS n_kept,
       (len(kept) >= 3 AND NOT contains(lower(t), 'lorem ipsum')) AS keep
FROM k
"""


def d08_line_dedup(sf_dir: str):
    """Corpus-wide line dedup (stages/dedup.line_dedup).  Line
    structure is planted (newline every 7 tokens) plus one shared
    boilerplate footer appended to EVERY doc — only the earliest doc
    keeps the footer, exercising the global first-win rule on real
    cross-doc duplication."""
    from .stages.dedup import line_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def structure(batch: pa.Table) -> pa.Table:
        t = pc.binary_join_element_wise(
            _lineify(batch["text"].combine_chunks()),
            "shared boilerplate footer line",
            "\n",
        )
        return pa.table({"doc_id": batch["doc_id"], "text": t})

    return line_dedup(ds.map_batches(structure, batch_format="pyarrow"))


D08_SQL = r"""
WITH aug AS (
  SELECT doc_id,
         regexp_replace(text, '((?:\S+ ){6}\S+) ', '\1' || chr(10), 'g')
           || chr(10) || 'shared boilerplate footer line' AS t
  FROM documents),
ls AS (SELECT doc_id, string_split(t, chr(10)) AS a FROM aug),
lines AS (
  SELECT doc_id, CAST(u.i AS BIGINT) AS line_no, a[u.i + 1] AS line
  FROM ls, UNNEST(range(0, len(a))) AS u(i)),
tot AS (SELECT doc_id, COUNT(*) AS n_lines FROM lines GROUP BY doc_id),
w AS (SELECT doc_id, line_no, line,
             ROW_NUMBER() OVER (PARTITION BY line
                                ORDER BY doc_id, line_no) AS rn
      FROM lines)
SELECT w.doc_id,
       string_agg(line, chr(10) ORDER BY line_no) AS clean_text,
       CAST(COUNT(*) AS BIGINT) AS n_kept,
       CAST(any_value(n_lines) AS BIGINT) AS n_lines
FROM w JOIN tot USING (doc_id)
WHERE rn = 1
GROUP BY w.doc_id
"""


def q29_heavy_hitters(sf_dir: str, k: int = 20):
    """Exact top-k frequent tokens via Misra-Gries sketch-then-verify
    (stages/sketch.frequent_tokens_topk): bounded-memory candidate
    generation + one exact counting pass over the broadcast candidate
    set — never a full-vocabulary shuffle.  The exactness guard
    (k-th count > N/(capacity+1)) makes the result provably equal to
    the brute-force SQL top-k, deterministic ties (count desc, token
    asc)."""
    from .stages.sketch import frequent_tokens_topk

    ds = _read(sf_dir, "documents", ["text"])
    return frequent_tokens_topk(ds, k=k, capacity=256)


Q29_SQL = """
WITH tok AS (
  SELECT unnest(list_filter(string_split(text, ' '), x -> x <> ''))
      AS token
  FROM documents),
c AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS cnt FROM tok GROUP BY token)
SELECT token, cnt FROM c ORDER BY cnt DESC, token LIMIT 20
"""


def w03_running_revenue(sf_dir: str, n_buckets: int = 64):
    """Per-customer running order total (cumulative window aggregate):
    bucket-run over a custkey-hash shuffle, vectorized groupby-cumsum
    inside the bucket kernel; integer-cents so the SUM OVER oracle is
    exact."""
    ds = _read(
        sf_dir,
        "orders",
        ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )

    def bucketize(batch: pa.Table) -> pa.Table:
        b = (
            batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            % n_buckets
        ).astype(np.int32)
        return batch.append_column("bucket", pa.array(b, pa.int32()))

    def running(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
        g["price_c"] = _cents(g["o_totalprice"].to_numpy())
        g["running_c"] = (
            g.groupby("o_custkey")["price_c"].cumsum().astype("int64")
        )
        return g[["o_custkey", "o_orderkey", "running_c"]]

    return (
        ds.map_batches(bucketize, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(running, batch_format="pandas")
    )


W03_SQL = """
SELECT o_custkey, o_orderkey,
       CAST(SUM(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) OVER (
           PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
           ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running_c
FROM orders
"""


def q30_set_ops(sf_dir: str):
    """Distributed INTERSECT / EXCEPT decomposition: classify each
    custkey as 'both' (INTERSECT), 'only_a' (A EXCEPT B) or 'only_b'
    (B EXCEPT A), where A = customers with an URGENT order and B =
    customers with a finished ('F') order.  Per-batch dedup partials
    (one small row per distinct member key per batch) then ONE
    key-shuffle max-reduce — never ships full rows, never runs three
    separate passes."""
    ds = _read(
        sf_dir, "orders", ["o_custkey", "o_orderpriority", "o_orderstatus"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch.loc[
            batch["o_orderpriority"] == "1-URGENT", "o_custkey"
        ].unique()
        b = batch.loc[batch["o_orderstatus"] == "F", "o_custkey"].unique()
        df = pd.concat(
            [
                pd.DataFrame({"o_custkey": a, "in_a": 1, "in_b": 0}),
                pd.DataFrame({"o_custkey": b, "in_a": 0, "in_b": 1}),
            ]
        )
        return df.groupby("o_custkey", as_index=False).max()

    def bucketize(batch: pa.Table) -> pa.Table:
        b = (
            batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            % 64
        ).astype(np.int32)
        return batch.append_column("bucket", pa.array(b, pa.int32()))

    def classify(group: pd.DataFrame) -> pd.DataFrame:
        m = group.groupby("o_custkey", as_index=False)[["in_a", "in_b"]].max()
        a = m["in_a"].to_numpy() == 1
        b = m["in_b"].to_numpy() == 1
        op = np.where(a & b, "both", np.where(a, "only_a", "only_b"))
        return pd.DataFrame(
            {"o_custkey": m["o_custkey"].astype("int64"), "set_op": op}
        )

    # bucket-run max-reduce: Ray's native groupby on the 15k-key custkey
    # column dispatched per key (60s at sf0.1); one bucket groupby + a
    # vectorized per-bucket pandas max is the repo's bucket-run rule
    return (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .map_batches(bucketize, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(classify, batch_format="pandas")
    )


Q30_SQL = """
WITH a AS (SELECT DISTINCT o_custkey FROM orders
           WHERE o_orderpriority = '1-URGENT'),
     b AS (SELECT DISTINCT o_custkey FROM orders
           WHERE o_orderstatus = 'F')
SELECT o_custkey, 'both' AS set_op
FROM (SELECT * FROM a INTERSECT SELECT * FROM b)
UNION ALL
SELECT o_custkey, 'only_a' FROM (SELECT * FROM a EXCEPT SELECT * FROM b)
UNION ALL
SELECT o_custkey, 'only_b' FROM (SELECT * FROM b EXCEPT SELECT * FROM a)
"""


def q31_quantile_sketch(sf_dir: str):
    """Mergeable quantile sketch over l_extendedprice with an exact
    rank-verification gate (stages/sketch.quantile_sketch_gate):
    p50/p90/p99 estimates must have true rank within ±1% — asserted
    against literal-TRUE oracle rows, the q22/q29 sketch-then-verify
    pattern."""
    from .stages.sketch import quantile_sketch_gate

    ds = _read(sf_dir, "lineitem", ["l_extendedprice"])
    return quantile_sketch_gate(ds, "l_extendedprice")


Q31_SQL = """
SELECT CAST(q AS DOUBLE) AS quantile, TRUE AS within_eps
FROM (VALUES (0.5), (0.9), (0.99)) t(q)
"""


def q32_grouped_hll(sf_dir: str):
    """Per-group approximate distinct (grouped mergeable HLLs,
    stages/sketch.grouped_approx_distinct) gated within 5% of the
    exact per-group count (computed by the q21 bucketed-distinct
    pipeline) — literal-TRUE oracle rows per group."""
    from .stages.sketch import grouped_approx_distinct

    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_custkey"])
    est = grouped_approx_distinct(ds, "o_orderpriority", "o_custkey")
    exact = q21_distinct_count(sf_dir).set_index("o_orderpriority")[
        "n_customers"
    ]
    rows = [
        (g, bool(abs(est.get(g, 0.0) - n) <= 0.05 * max(n, 1)))
        for g, n in exact.items()
    ]
    return pd.DataFrame(rows, columns=["o_orderpriority", "within_5pct"])


Q32_SQL = """
SELECT DISTINCT o_orderpriority, TRUE AS within_5pct FROM orders
"""


def r03_pivot(sf_dir: str):
    """PIVOT: documents count by source (rows) × lang (columns).  One
    distributed (source, lang) combiner-count pass; the pivot itself
    runs on the cardinality-sized result (sources × langs), never on
    rows.  Column set is the corpus's closed lang vocabulary."""
    langs = ["de", "en", "es", "fr", "zh"]
    ds = _read(sf_dir, "documents", ["source", "lang"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(["source", "lang"], as_index=False).size()
        return g.rename(columns={"size": "n"})

    fine = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby(["source", "lang"])
        .sum("n")
        .to_pandas()
        .rename(columns={"sum(n)": "n"})
    )
    wide = (
        fine.pivot_table(
            index="source", columns="lang", values="n",
            aggfunc="sum", fill_value=0,
        )
        .reindex(columns=langs, fill_value=0)
        .reset_index()
    )
    wide.columns.name = None
    for c in langs:
        wide[c] = wide[c].astype("int64")
    return wide


R03_SQL = """
SELECT source,
       CAST(COUNT(*) FILTER (lang = 'de') AS BIGINT) AS de,
       CAST(COUNT(*) FILTER (lang = 'en') AS BIGINT) AS en,
       CAST(COUNT(*) FILTER (lang = 'es') AS BIGINT) AS es,
       CAST(COUNT(*) FILTER (lang = 'fr') AS BIGINT) AS fr,
       CAST(COUNT(*) FILTER (lang = 'zh') AS BIGINT) AS zh
FROM documents GROUP BY source
"""


def s04_global_shuffle(sf_dir: str):
    """Deterministic global shuffle for training-data ordering: range-
    partitioned sort on a splitmix-style hash of doc_id — the same
    permutation on every run and any partition layout, without
    ``random_shuffle``'s nondeterminism.  The oracle checks the row
    SET is preserved; determinism and mixing are unit-tested."""
    from .stages.sketch import _fmix64

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source"])

    def key(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        h = _fmix64(ids.astype(np.uint64))  # full avalanche: a
        # multiplicative hash stays monotonic for small ids (no wrap)
        return batch.append_column(
            "_h", pa.array(h.view(np.int64), pa.int64())
        )

    return (
        ds.map_batches(key, batch_format="pyarrow")
        .sort("_h")
        .drop_columns(["_h"])
    )


S04_SQL = """
SELECT doc_id, lang, source FROM documents
"""


def e01_json_extract(sf_dir: str):
    """Vectorized JSON field extraction: pull ``k`` out of the
    ``props`` JSON column with one RE2 ``extract_regex`` kernel (no
    per-row json.loads), then aggregate per event_type.  The shape for
    semi-structured columns at scale: regex/simdjson-style projection
    inside map_batches, aggregation on the extracted ints."""
    ds = _read(sf_dir, "events", ["event_type", "props"])

    def extract(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(
            batch["props"].combine_chunks(), r'"k":\s*(?P<k>-?\d+)'
        )
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        return pa.table({"event_type": batch["event_type"], "k": k})

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("event_type", as_index=False)["k"].agg(
            ["sum", "size"]
        )
        g.columns = ["event_type", "s", "n"]
        return g

    out = (
        ds.map_batches(extract, batch_format="pyarrow")
        .map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby("event_type")
        .sum(["s", "n"])
        .to_pandas()
    )
    out["sum_k"] = out["sum(s)"].astype("int64")
    out["n_events"] = out["sum(n)"].astype("int64")
    return out[["event_type", "sum_k", "n_events"]]


E01_SQL = """
SELECT event_type,
       CAST(SUM(CAST(json_extract_string(props, '$.k') AS BIGINT))
            AS BIGINT) AS sum_k,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM events GROUP BY event_type
"""


def _graph_bucket(arr: np.ndarray, n_buckets: int) -> np.ndarray:
    """splitmix bucket keys for int64 node ids (one definition shared
    by every stage of a co-partitioned graph iteration — co-location
    breaks if two stages hash differently)."""
    with np.errstate(over="ignore"):
        v = arr.astype(np.uint64, copy=False)
        h = (v ^ (v >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
    return (h % np.uint64(n_buckets)).astype(np.int32)


def _pagerank_copartition(edges, iters: int, scale: int, n_buckets: int = 64):
    """PageRank for graphs whose dense node vector exceeds worker RAM —
    the co-partition fallback the g01 docstring promises: ranks/degrees
    live in a DISTRIBUTED (node, rank, deg) state dataset co-partitioned
    with the edges by node hash; each iteration is exactly two bucketed
    exchanges (contrib emit, contrib sum + apply) and the driver never
    holds anything node-sized until the final result pull.  Identical
    scaled-int64 arithmetic to the dense path (rank//deg contribs,
    base + (85*s)//100 apply), so the same 3-round SQL oracle gates
    both paths bit-exactly."""
    import ray.data

    from .stages.agg import bucketed_sum

    deg = bucketed_sum(edges, ["src"], [], count_col="deg").materialize()
    n = deg.count()
    r0 = scale // n
    base = (15 * (scale // n)) // 100

    def edge_tagged(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = batch["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = len(src)
        return pa.table(
            {
                "node": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "rank": pa.nulls(m, pa.int64()),
                "deg": pa.nulls(m, pa.int64()),
                "kind": pa.array(np.zeros(m, np.int8), pa.int8()),
                "bucket": pa.array(_graph_bucket(src, n_buckets), pa.int32()),
            }
        )

    edges_t = edges.map_batches(
        edge_tagged, batch_format="pyarrow", batch_size=65536
    ).materialize()

    def deg_tagged(batch: pa.Table) -> pa.Table:
        node = batch["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = len(node)
        return pa.table(
            {
                "node": pa.array(node, pa.int64()),
                "c": pa.array(d, pa.int64()),  # deg travels in the c slot
                "kind": pa.array(np.ones(m, np.int8), pa.int8()),
                "bucket": pa.array(_graph_bucket(node, n_buckets), pa.int32()),
            }
        )

    deg_t = deg.map_batches(
        deg_tagged, batch_format="pyarrow", batch_size=65536
    ).materialize()

    def state0(batch: pa.Table) -> pa.Table:
        node = batch["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = len(node)
        return pa.table(
            {
                "node": pa.array(node, pa.int64()),
                "dst": pa.nulls(m, pa.int64()),
                "rank": pa.array(np.full(m, r0, np.int64), pa.int64()),
                "deg": pa.array(d, pa.int64()),
                "kind": pa.array(np.ones(m, np.int8), pa.int8()),
                "bucket": pa.array(_graph_bucket(node, n_buckets), pa.int32()),
            }
        )

    state = deg.map_batches(
        state0, batch_format="pyarrow", batch_size=65536
    ).materialize()

    for _ in range(iters):

        def contrib(group: pa.Table) -> pa.Table:
            kind = group["kind"].to_numpy(zero_copy_only=False)
            node = group["node"].to_numpy(zero_copy_only=False)
            st = kind == 1
            s_node = node[st]
            order = np.argsort(s_node)
            s_node = s_node[order]
            s_rank = group["rank"].to_numpy(zero_copy_only=False)[st][order]
            s_deg = group["deg"].to_numpy(zero_copy_only=False)[st][order]
            e_src = node[~st]
            e_dst = group["dst"].to_numpy(zero_copy_only=False)[~st].astype(
                np.int64
            )
            pos = np.searchsorted(s_node, e_src)
            c = (s_rank[pos].astype(np.int64) // s_deg[pos].astype(np.int64))
            return pa.table(
                {
                    "node": pa.array(e_dst, pa.int64()),
                    "c": pa.array(c, pa.int64()),
                    "kind": pa.array(np.zeros(len(e_dst), np.int8), pa.int8()),
                    "bucket": pa.array(
                        _graph_bucket(e_dst, n_buckets), pa.int32()
                    ),
                }
            )

        msgs = (
            state.union(edges_t).groupby("bucket").map_groups(
                contrib, batch_format="pyarrow"
            )
        )

        def apply_rank(group: pa.Table) -> pa.Table:
            kind = group["kind"].to_numpy(zero_copy_only=False)
            node = group["node"].to_numpy(zero_copy_only=False)
            c = group["c"].to_numpy(zero_copy_only=False)
            isdeg = kind == 1
            d_node = node[isdeg]
            order = np.argsort(d_node)
            d_node = d_node[order]
            d_deg = c[isdeg][order].astype(np.int64)
            m_node = node[~isdeg]
            m_c = c[~isdeg].astype(np.int64)
            s = np.zeros(len(d_node), np.int64)
            np.add.at(s, np.searchsorted(d_node, m_node), m_c)
            rank = base + (85 * s) // 100
            m = len(d_node)
            return pa.table(
                {
                    "node": pa.array(d_node, pa.int64()),
                    "dst": pa.nulls(m, pa.int64()),
                    "rank": pa.array(rank, pa.int64()),
                    "deg": pa.array(d_deg, pa.int64()),
                    "kind": pa.array(np.ones(m, np.int8), pa.int8()),
                    "bucket": pa.array(_graph_bucket(d_node, n_buckets), pa.int32()),
                }
            )

        state = (
            msgs.union(deg_t).groupby("bucket").map_groups(
                apply_rank, batch_format="pyarrow"
            )
        ).materialize()

    df = state.select_columns(["node", "rank"]).to_pandas()
    df = df.rename(columns={"node": "node_id"}).astype(
        {"node_id": "int64", "rank": "int64"}
    )
    return df.sort_values("node_id", ignore_index=True)


def g01_pagerank(sf_dir: str, iters: int = 3, node_threshold: int = 50_000_000):
    """Iterative graph computation: integer-arithmetic PageRank over
    the bidirected part↔supplier graph from DISTINCT lineitem pairs.

    All arithmetic is scaled-int64 with explicit floor divisions
    (rank0 = SCALE//N; contrib = rank//outdeg; rank' = (15*(SCALE//N))
    //100 + (85*in_sum)//100) so every iteration is order-independent
    and the 3-round SQL oracle matches hash-exactly — no float
    summation-order hazard.

    Ray shape, SIZE-GATED on the dense-vector bound: below
    ``node_threshold`` (max node id + 1; 50M ids = a 400 MB int64
    vector) the node→rank vector broadcasts via ``ray.put`` and each
    edge block emits ONE dense int64 partial-contribution vector
    (np.add.at — exact, order-independent) summed on the driver —
    ZERO shuffles per iteration (measured: g01 4.0s -> ~1.7s at sf0.1
    vs the first-cut per-round sort shuffle).  Above the threshold
    (web-scale node sets) :func:`_pagerank_copartition` keeps ranks in
    a distributed state dataset co-partitioned with the edges — two
    bucketed exchanges per iteration, nothing node-sized on the
    driver.  Both paths share the integer arithmetic and the oracle
    (forced-path test in tests/test_round3_ops.py)."""
    import ray

    from .stages.agg import bucketed_sum

    SCALE = 1_000_000_000
    ds = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])

    def edge_partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.drop_duplicates()
        p = g["l_partkey"].to_numpy().astype(np.int64) * 2
        s = g["l_suppkey"].to_numpy().astype(np.int64) * 2 + 1
        return pd.DataFrame(
            {"src": np.concatenate([p, s]), "dst": np.concatenate([s, p])}
        )

    both = ds.map_batches(
        edge_partial, batch_format="pandas", batch_size=65536
    )
    edges = (
        bucketed_sum(both, ["src", "dst"], [], count_col="n")
        .drop_columns(["n"])
        .materialize()  # distinct edge list, reused every iteration
    )
    if edges.max("src") + 1 > node_threshold:
        return _pagerank_copartition(edges, iters, SCALE)

    def _dense_sum(vec_ds) -> np.ndarray:
        """Sum per-block dense int64 vectors (driver-side, node-sized)."""
        parts = [np.frombuffer(b, np.int64) for b in vec_ds.to_pandas()["v"]]
        size = max(p.size for p in parts)
        out = np.zeros(size, np.int64)
        for p in parts:
            out[: p.size] += p
        return out

    def outdeg_block(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = np.bincount(src).astype(np.int64)
        return pa.table({"v": pa.array([v.tobytes()], pa.binary())})

    outdeg = _dense_sum(
        edges.map_batches(outdeg_block, batch_format="pyarrow", batch_size=None)
    )
    nodes = np.flatnonzero(outdeg)  # every node has an edge (bidirected)
    n = len(nodes)
    base = (15 * (SCALE // n)) // 100
    rank_arr = np.zeros(outdeg.size, np.int64)
    rank_arr[nodes] = SCALE // n
    deg_ref = ray.put(outdeg)

    for _ in range(iters):
        rank_ref = ray.put(rank_arr)

        def contribs(batch: pa.Table) -> pa.Table:
            r, d = ray.get(rank_ref), ray.get(deg_ref)
            src = batch["src"].to_numpy(zero_copy_only=False).astype(np.int64)
            dst = batch["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
            c = r[src] // d[src]
            v = np.zeros(r.size, np.int64)
            np.add.at(v, dst, c)
            return pa.table({"v": pa.array([v.tobytes()], pa.binary())})

        in_sum = _dense_sum(
            edges.map_batches(contribs, batch_format="pyarrow", batch_size=None)
        )
        rank_arr = np.zeros(outdeg.size, np.int64)
        rank_arr[nodes] = base + (85 * in_sum[nodes]) // 100

    return pd.DataFrame(
        {"node_id": nodes.astype("int64"), "rank": rank_arr[nodes]}
    ).sort_values("node_id", ignore_index=True)


G01_SQL = """
WITH d AS (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem),
e AS (
  SELECT l_partkey * 2 AS src, l_suppkey * 2 + 1 AS dst FROM d
  UNION ALL
  SELECT l_suppkey * 2 + 1 AS src, l_partkey * 2 AS dst FROM d),
deg AS (SELECT src, CAST(COUNT(*) AS BIGINT) AS od FROM e GROUP BY src),
p AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM deg),
r0 AS (SELECT src AS id, 1000000000 // (SELECT n FROM p) AS r FROM deg),
i1 AS (SELECT e.dst AS id, SUM(r0.r // deg.od) AS s
       FROM e JOIN r0 ON r0.id = e.src JOIN deg ON deg.src = e.src
       GROUP BY e.dst),
r1 AS (SELECT r0.id,
              (15 * (1000000000 // (SELECT n FROM p))) // 100
              + (85 * COALESCE(i1.s, 0)) // 100 AS r
       FROM r0 LEFT JOIN i1 ON i1.id = r0.id),
i2 AS (SELECT e.dst AS id, SUM(r1.r // deg.od) AS s
       FROM e JOIN r1 ON r1.id = e.src JOIN deg ON deg.src = e.src
       GROUP BY e.dst),
r2 AS (SELECT r1.id,
              (15 * (1000000000 // (SELECT n FROM p))) // 100
              + (85 * COALESCE(i2.s, 0)) // 100 AS r
       FROM r1 LEFT JOIN i2 ON i2.id = r1.id),
i3 AS (SELECT e.dst AS id, SUM(r2.r // deg.od) AS s
       FROM e JOIN r2 ON r2.id = e.src JOIN deg ON deg.src = e.src
       GROUP BY e.dst),
r3 AS (SELECT r2.id,
              (15 * (1000000000 // (SELECT n FROM p))) // 100
              + (85 * COALESCE(i3.s, 0)) // 100 AS r
       FROM r2 LEFT JOIN i3 ON i3.id = r2.id)
SELECT id AS node_id, CAST(r AS BIGINT) AS rank FROM r3
"""


def r02_cube_agg(sf_dir: str):
    """GROUP BY CUBE (stages/agg.cube_sum): all 2^k grouping subsets
    from ONE distributed finest-level pass; coarser levels derived
    from the cardinality-sized finest result, no second scan."""
    from .stages.agg import cube_sum

    ds = _read(sf_dir, "documents", ["lang", "source", "n_chars"])
    return cube_sum(ds, ["lang", "source"], "n_chars")


R02_SQL = """
SELECT lang, source,
       CAST(SUM(n_chars) AS BIGINT) AS sum_n_chars,
       CAST(COUNT(*) AS BIGINT) AS n_rows
FROM documents
GROUP BY CUBE(lang, source)
"""


def w04_order_ntile(sf_dir: str, k: int = 4, n_buckets: int = 64):
    """NTILE window function: quartile of each order within its
    customer's date-ordered history.  Bucket-run over a custkey-hash
    shuffle (w03 pattern); the tile assignment is the SQL NTILE rule
    (first n%k tiles get one extra row) computed vectorized from
    cumcount + group size — no per-group Python."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def bucketize(batch: pa.Table) -> pa.Table:
        b = (
            batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            % n_buckets
        ).astype(np.int32)
        return batch.append_column("bucket", pa.array(b, pa.int32()))

    def ntile(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
        grp = g.groupby("o_custkey")
        r = grp.cumcount().to_numpy()
        n = grp["o_orderkey"].transform("size").to_numpy()
        q, rem = n // k, n % k
        boundary = rem * (q + 1)
        tile = np.where(
            r < boundary,
            r // (q + 1),
            rem + (r - boundary) // np.maximum(q, 1),
        ) + 1
        return pd.DataFrame(
            {
                "o_custkey": g["o_custkey"].to_numpy(),
                "o_orderkey": g["o_orderkey"].to_numpy(),
                "tile": tile.astype("int64"),
            }
        )

    return (
        ds.map_batches(bucketize, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(ntile, batch_format="pandas")
    )


W04_SQL = """
SELECT o_custkey, o_orderkey,
       CAST(NTILE(4) OVER (
           PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
       ) AS BIGINT) AS tile
FROM orders
"""


def w05_funnel(sf_dir: str, gap_us: int = 600_000_000, n_buckets: int = 64):
    """Sequence-pattern funnel (MATCH_RECOGNIZE-lite): per user, count
    view→click and click→purchase steps where the second event
    IMMEDIATELY follows the first (same user, ts order, event_id
    tie-break) within 10 minutes.  Bucket-run over a user-hash
    shuffle; the adjacency test is one vectorized shift-compare —
    the LAG window expressed without a global sort."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def bucketize(batch: pa.Table) -> pa.Table:
        b = (
            batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            % n_buckets
        ).astype(np.int32)
        return batch.append_column("bucket", pa.array(b, pa.int32()))

    def funnel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        uid = g["user_id"].to_numpy().astype(np.int64)
        et = g["event_type"].to_numpy()
        ts_us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        same = np.r_[False, uid[1:] == uid[:-1]]
        prev = np.r_[[""], et[:-1]]
        gap = np.r_[0, np.diff(ts_us)]
        close = same & (gap <= gap_us)
        vc = close & (prev == "view") & (et == "click")
        cp = close & (prev == "click") & (et == "purchase")
        out = pd.DataFrame({"user_id": uid, "vc": vc, "cp": cp})
        res = out.groupby("user_id", as_index=False).agg(
            n_view_click=("vc", "sum"), n_click_purchase=("cp", "sum")
        )
        for c in ("n_view_click", "n_click_purchase"):
            res[c] = res[c].astype("int64")
        return res

    return (
        ds.map_batches(bucketize, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(funnel, batch_format="pandas")
    )


W05_SQL = """
WITH s AS (
  SELECT user_id, event_type, event_id,
         LAG(event_type) OVER w AS prev_type,
         epoch_us(ts) - LAG(epoch_us(ts)) OVER w AS gap
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
SELECT user_id,
       CAST(COUNT(*) FILTER (prev_type = 'view' AND event_type = 'click'
            AND gap <= 600000000) AS BIGINT) AS n_view_click,
       CAST(COUNT(*) FILTER (prev_type = 'click'
            AND event_type = 'purchase'
            AND gap <= 600000000) AS BIGINT) AS n_click_purchase
FROM s GROUP BY user_id
"""


def t10_rep_ngrams(sf_dir: str):
    """Gopher repetition filter (stages/text.rep_ngrams): fraction of
    characters in the most common word 2-gram and in duplicated word
    5-grams; the corpus's small vocabulary guarantees both rules fire
    on real data (e.g. 'batch batch batch')."""
    from .stages.text import rep_ngrams

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return rep_ngrams(ds)


T10_SQL = r"""
WITH ws AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS w,
         length(regexp_replace(text, '\s+', '', 'g')) AS n_chars
  FROM documents),
g2 AS (
  SELECT doc_id, w[i] || ' ' || w[i+1] AS g,
         length(w[i]) + length(w[i+1]) AS glen
  FROM ws, UNNEST(range(1, len(w))) AS u(i)),
g2c AS (
  SELECT doc_id, g, glen, count(*) AS c FROM g2 GROUP BY ALL),
top2 AS (
  SELECT doc_id, c, glen,
         ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY c DESC, g) AS rn
  FROM g2c),
g5 AS (
  SELECT doc_id,
         w[i] || ' ' || w[i+1] || ' ' || w[i+2] || ' ' || w[i+3]
              || ' ' || w[i+4] AS g,
         length(w[i]) + length(w[i+1]) + length(w[i+2])
              + length(w[i+3]) + length(w[i+4]) AS glen
  FROM ws, UNNEST(range(1, len(w) - 3)) AS u(i)),
g5c AS (
  SELECT doc_id, g, glen, count(*) AS c FROM g5 GROUP BY ALL),
dup5 AS (
  SELECT doc_id, CAST(SUM(c * glen) AS DOUBLE) AS dup_chars
  FROM g5c WHERE c > 1 GROUP BY doc_id)
SELECT d.doc_id,
       CAST(len(d.w) AS BIGINT) AS n_words,
       CASE WHEN len(d.w) >= 2
            THEN CAST(t.c * t.glen AS DOUBLE) / CAST(d.n_chars AS DOUBLE)
       END AS top2_frac,
       CASE WHEN len(d.w) >= 5
            THEN COALESCE(p.dup_chars / CAST(d.n_chars AS DOUBLE), 0.0)
       END AS dup5_frac,
       (len(d.w) > 0
        AND COALESCE(CAST(t.c * t.glen AS DOUBLE)
                     / CAST(d.n_chars AS DOUBLE), 0) <= 0.20
        AND COALESCE(p.dup_chars / CAST(d.n_chars AS DOUBLE), 0) <= 0.15)
           AS keep
FROM ws d
LEFT JOIN top2 t ON t.doc_id = d.doc_id AND t.rn = 1
LEFT JOIN dup5 p ON p.doc_id = d.doc_id
"""


def w06_retention_cohorts(sf_dir: str, n_buckets: int = 64):
    """Cohort retention matrix: users grouped by first-activity week,
    counted once per later active week (offset).  The classic
    training-data / product-analytics rollup.

    Ray shape: one user-hash bucket shuffle co-locates each user's
    events; inside a bucket-run the kernel reduces to DISTINCT
    (user, week), a per-user MIN transform, and a partial
    (cohort_week, week_offset) count — all vectorized pandas.  Buckets
    partition users, so partial counts are disjoint user sets; the
    final merge is a bucketed sum over the cardinality-sized partials
    (weeks x offsets rows, not events)."""
    from .stages.agg import bucketed_sum

    WEEK_US = 7 * 86_400 * 1_000_000
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def bucketize(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        week = (
            batch["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64) // WEEK_US
        )
        return pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "week": pa.array(week, pa.int64()),
                "bucket": pa.array(
                    (uid % n_buckets).astype(np.int32), pa.int32()
                ),
            }
        ).group_by(["user_id", "week", "bucket"]).aggregate([])

    def cohort_partial(g: pd.DataFrame) -> pd.DataFrame:
        df = g[["user_id", "week"]].drop_duplicates()
        cohort = df.groupby("user_id")["week"].transform("min")
        out = pd.DataFrame(
            {
                "cohort_week": cohort.to_numpy(),
                "week_offset": df["week"].to_numpy() - cohort.to_numpy(),
            }
        )
        p = out.groupby(
            ["cohort_week", "week_offset"], as_index=False
        ).size()
        return p.rename(columns={"size": "n_users"}).astype("int64")

    partials = (
        ds.map_batches(bucketize, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(cohort_partial, batch_format="pandas")
    )
    out = bucketed_sum(
        partials, ["cohort_week", "week_offset"], ["n_users"], n_buckets=8
    ).to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


W06_SQL = """
WITH w AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 604800000000 AS week
  FROM events),
f AS (SELECT user_id, MIN(week) AS cohort_week FROM w GROUP BY user_id)
SELECT CAST(f.cohort_week AS BIGINT) AS cohort_week,
       CAST(w.week - f.cohort_week AS BIGINT) AS week_offset,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM w JOIN f USING (user_id)
GROUP BY 1, 2
"""


def w07_activity_streaks(sf_dir: str, n_buckets: int = 64):
    """Gaps-and-islands: per-user runs of consecutive active days
    (streaks).  SQL needs the day - ROW_NUMBER() grouping trick; the
    Ray kernel gets the same islands from one boolean break mask over
    the user-sorted distinct-day array — no window function, no
    per-user loop.  One user-hash bucket shuffle, then vectorized
    numpy inside each bucket-run."""
    DAY_US = 86_400 * 1_000_000
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def bucketize(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        day = (
            batch["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64) // DAY_US
        )
        return pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "day": pa.array(day, pa.int64()),
                "bucket": pa.array(
                    (uid % n_buckets).astype(np.int32), pa.int32()
                ),
            }
        ).group_by(["user_id", "day", "bucket"]).aggregate([])

    def streaks(g: pd.DataFrame) -> pd.DataFrame:
        df = (
            g[["user_id", "day"]]
            .drop_duplicates()
            .sort_values(["user_id", "day"])
        )
        uid = df["user_id"].to_numpy()
        day = df["day"].to_numpy()
        # A new streak starts at each user change or day gap > 1.
        start = np.r_[True, (uid[1:] != uid[:-1]) | (np.diff(day) != 1)]
        sid = np.cumsum(start) - 1
        lens = np.bincount(sid)  # streak lengths, in order
        out = pd.DataFrame(
            {"user_id": uid[start], "len": lens.astype(np.int64)}
        )
        res = out.groupby("user_id", as_index=False).agg(
            n_streaks=("len", "size"), max_streak_days=("len", "max")
        )
        return res.astype("int64")

    return (
        ds.map_batches(bucketize, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(streaks, batch_format="pandas")
    )


W07_SQL = """
WITH d AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS day
  FROM events),
i AS (
  SELECT user_id, day,
         day - ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY day) AS grp
  FROM d),
s AS (
  SELECT user_id, grp, CAST(COUNT(*) AS BIGINT) AS len
  FROM i GROUP BY user_id, grp)
SELECT user_id,
       CAST(COUNT(*) AS BIGINT) AS n_streaks,
       MAX(len) AS max_streak_days
FROM s GROUP BY user_id
"""

_SCD2_OPEN_US = np.iinfo(np.int64).max  # "current row" sentinel


def i01_scd2_intervals(sf_dir: str, n_buckets: int = 64):
    """SCD2 / CDC interval build: collapse each user's event stream
    into validity intervals per run of equal event_type —
    (user_id, event_type, valid_from_us, valid_to_us), half-open,
    with int64-max marking the still-open current interval.

    This is the change-data-capture "snapshot to slowly-changing
    dimension" transform.  Ray shape: user-hash bucket shuffle, then
    one vectorized pass per bucket-run — run starts from a boolean
    change mask, valid_to from the next run's start (shift), no LAG /
    LEAD window machinery and no per-user loop."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def bucketize(batch: pa.Table) -> pa.Table:
        b = (
            batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            % n_buckets
        ).astype(np.int32)
        return batch.append_column("bucket", pa.array(b, pa.int32()))

    def intervals(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        uid = g["user_id"].to_numpy().astype(np.int64)
        ts_us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        et = g["event_type"].to_numpy()
        start = np.r_[True, (uid[1:] != uid[:-1]) | (et[1:] != et[:-1])]
        s_uid = uid[start]
        s_from = ts_us[start]
        # next run's start within the same user closes this interval
        nxt = np.r_[s_from[1:], np.int64(0)]
        same_user = np.r_[s_uid[1:] == s_uid[:-1], False]
        valid_to = np.where(same_user, nxt, _SCD2_OPEN_US)
        return pd.DataFrame(
            {
                "user_id": s_uid,
                "event_type": et[start],
                "valid_from_us": s_from,
                "valid_to_us": valid_to.astype(np.int64),
            }
        )

    return (
        ds.map_batches(bucketize, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(intervals, batch_format="pandas")
    )


I01_SQL = """
WITH o AS (
  SELECT user_id, event_type, ts, event_id,
         CASE WHEN LAG(event_type) OVER w IS DISTINCT FROM event_type
              THEN 1 ELSE 0 END AS chg
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
r AS (
  SELECT user_id, event_type, ts,
         SUM(chg) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS run
  FROM o),
iv AS (
  SELECT user_id, event_type, run,
         CAST(MIN(epoch_us(ts)) AS BIGINT) AS valid_from_us
  FROM r GROUP BY user_id, event_type, run)
SELECT user_id, event_type, valid_from_us,
       COALESCE(
         LEAD(valid_from_us) OVER (
             PARTITION BY user_id ORDER BY valid_from_us),
         9223372036854775807) AS valid_to_us
FROM iv
"""


def t11_unigram_lm(sf_dir: str):
    """Corpus-frequency (unigram-LM-ish) quality scoring
    (stages/text.unigram_lm_score): vocab histogram shuffle +
    broadcast-frequency scoring pass; integer-exact per-doc stats so
    the oracle hashes bit-identically (no float log sums)."""
    from .stages.text import unigram_lm_score

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return unigram_lm_score(ds)


T11_SQL = r"""
WITH tok AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(text, '\s+'),
                            x -> x <> '')) AS t
  FROM documents),
vocab AS (SELECT t, CAST(COUNT(*) AS BIGINT) AS c FROM tok GROUP BY t)
SELECT tok.doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_tokens,
       CAST(SUM(v.c) AS BIGINT) AS sum_tok_freq,
       MIN(v.c) AS min_tok_freq,
       CAST(SUM(v.c) AS DOUBLE) / COUNT(*) AS avg_tok_freq
FROM tok JOIN vocab v ON v.t = tok.t
GROUP BY tok.doc_id
"""


def _copurchase_edges(sf_dir: str, n_buckets: int = 64):
    """Distinct undirected co-purchase edges (u < v): parts sharing an
    order, thinned to ``l_partkey % 7 == 0`` so the all-pairs-per-order
    step stays bounded at bench scale (the SQL oracles apply the same
    filter).  Order-hash bucket-run builds distinct in-order pairs; a
    bucketed sum dedupes edges.  Shared by g02 (triangles) and g03
    (link prediction).  Returns a materialized Dataset — the edge list
    is reused by multiple downstream passes."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def bucketize(batch: pa.Table) -> pa.Table:
        keep = batch.filter(
            pa.array(batch["l_partkey"].to_numpy(zero_copy_only=False) % 7 == 0)
        )
        b = (
            keep["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            % n_buckets
        ).astype(np.int32)
        return keep.append_column("bucket", pa.array(b, pa.int32()))

    def order_pairs(g: pd.DataFrame) -> pd.DataFrame:
        df = (
            g[["l_orderkey", "l_partkey"]]
            .drop_duplicates()
            .sort_values(["l_orderkey", "l_partkey"])
        )
        ok = df["l_orderkey"].to_numpy(np.int64)
        pk = df["l_partkey"].to_numpy(np.int64)
        us, vs = [], []
        # distance-j pairs within each order run; orders hold only a
        # handful of parts, so this loop is O(max parts per order)
        j = 1
        while True:
            same = ok[j:] == ok[:-j]
            if not same.any():
                break
            us.append(pk[:-j][same])
            vs.append(pk[j:][same])
            j += 1
        if not us:
            return pd.DataFrame({"u": pd.Series([], dtype="int64"),
                                 "v": pd.Series([], dtype="int64")})
        return pd.DataFrame(
            {"u": np.concatenate(us), "v": np.concatenate(vs)}
        ).drop_duplicates()

    pairs = (
        ds.map_batches(bucketize, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(order_pairs, batch_format="pandas")
    )
    return (
        bucketed_sum(pairs, ["u", "v"], [], count_col="n")
        .drop_columns(["n"])
        .materialize()
    )


def g02_triangle_count(sf_dir: str, n_buckets: int = 64):
    """Distributed triangle counting over the co-purchase graph
    (parts sharing an order; graph thinned to ``l_partkey % 7 == 0``
    so the all-pairs-per-order step stays bounded at bench scale —
    the SQL oracle applies the same filter).

    Compact-forward / degree-orientation algorithm (Latapy 2008):
    orient each undirected edge from lower to higher (degree, id)
    rank, enumerate rank-ordered wedges from each vertex's
    out-neighborhood, and count wedges that close against the
    oriented edge set — each triangle counted exactly once, and
    out-degrees are O(sqrt(E)) after orientation so the wedge count
    is subquadratic.

    Ray shape: order-hash bucket-run builds distinct in-order pairs;
    a bucketed sum dedupes edges; the node-degree vector (node-sized,
    not edge-sized) broadcasts via ``ray.put``; wedges are generated
    per out-neighborhood bucket-run; the closing test is one tagged
    co-partition (union wedges+edges, hash-bucket on the pair) — no
    driver-side adjacency, no all-pairs."""
    import ray

    from .stages.agg import bucketed_sum

    # distinct undirected edges (u < v), reused twice
    edges = _copurchase_edges(sf_dir, n_buckets)

    def node_partial(batch: pd.DataFrame) -> pd.DataFrame:
        nodes = np.concatenate(
            [batch["u"].to_numpy(np.int64), batch["v"].to_numpy(np.int64)]
        )
        n, c = np.unique(nodes, return_counts=True)
        return pd.DataFrame({"node": n, "deg": c.astype(np.int64)})

    deg_df = bucketed_sum(
        edges.map_batches(node_partial, batch_format="pandas"),
        ["node"],
        ["deg"],
    ).to_pandas()
    # rank = (deg << 32) | node: one int64 total order on (deg, id)
    rank = pd.Series(
        (deg_df["deg"].astype("int64").to_numpy() << 32)
        | deg_df["node"].to_numpy(np.int64),
        index=deg_df["node"].to_numpy(),
    )
    rank_ref = ray.put(rank)

    def orient(batch: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(rank_ref)
        ru = r.loc[batch["u"].to_numpy(np.int64)].to_numpy()
        rv = r.loc[batch["v"].to_numpy(np.int64)].to_numpy()
        return pd.DataFrame(
            {
                "a": np.where(ru < rv, ru, rv),
                "b": np.where(ru < rv, rv, ru),
                "bucket": ((np.where(ru < rv, ru, rv)) % n_buckets).astype(
                    np.int32
                ),
            }
        )

    oriented = edges.map_batches(orient, batch_format="pandas", batch_size=65536)

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        df = g[["a", "b"]].sort_values(["a", "b"])
        a = df["a"].to_numpy(np.int64)
        b = df["b"].to_numpy(np.int64)
        xs, ys = [], []
        j = 1
        while True:
            same = a[j:] == a[:-j]
            if not same.any():
                break
            xs.append(b[:-j][same])  # rank-ordered: b sorted within a
            ys.append(b[j:][same])
            j += 1
        if not xs:
            return pd.DataFrame({"x": pd.Series([], dtype="int64"),
                                 "y": pd.Series([], dtype="int64"),
                                 "w": pd.Series([], dtype="int64")})
        return pd.DataFrame(
            {"x": np.concatenate(xs), "y": np.concatenate(ys), "w": 1}
        )

    wedge_ds = oriented.groupby("bucket").map_groups(
        wedges, batch_format="pandas"
    )

    def edge_tag(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "x": batch["a"].to_numpy(np.int64),
                "y": batch["b"].to_numpy(np.int64),
                "w": np.int64(0),
            }
        )

    tagged = wedge_ds.union(
        oriented.map_batches(edge_tag, batch_format="pandas", batch_size=65536)
    )

    def close_bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        h = (
            batch["x"].to_numpy(np.int64) * np.int64(1_000_003)
            + batch["y"].to_numpy(np.int64)
        ) % n_buckets
        return batch.assign(bucket=h.astype(np.int32))

    def count_closed(g: pd.DataFrame) -> pd.DataFrame:
        is_edge = g["w"].to_numpy() == 0
        key = g["x"].to_numpy(np.int64) * np.int64(1 << 32) + g[
            "y"
        ].to_numpy(np.int64)
        edge_keys = np.unique(key[is_edge])
        hit = np.isin(key[~is_edge], edge_keys)
        return pd.DataFrame({"t": [np.int64(hit.sum())]})

    parts = (
        tagged.map_batches(close_bucketize, batch_format="pandas", batch_size=65536)
        .groupby("bucket")
        .map_groups(count_closed, batch_format="pandas")
        .to_pandas()
    )
    return pd.DataFrame(
        {"n_triangles": [np.int64(parts["t"].to_numpy().sum())]}
    )


G02_SQL = """
WITH li AS (
  SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
  WHERE l_partkey % 7 = 0),
e AS (
  SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
  FROM li a JOIN li b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey)
SELECT CAST(COUNT(*) AS BIGINT) AS n_triangles
FROM e e1
JOIN e e2 ON e2.u = e1.u AND e2.v > e1.v
JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v
"""


def t12_mad_outliers(sf_dir: str):
    """Robust outlier flagging: per-source lower-median and MAD
    (median absolute deviation) of document length; a doc is an
    outlier when |n_chars - median| > 3 * MAD.  Both medians use the
    explicit lower order statistic k = (n+1)//2 (shared with the SQL
    ROW_NUMBER construction) so ties and even counts are
    deterministic.

    Ray shape: ONE distributed value-histogram pass — per-batch
    (source, n_chars) counts, bucketed sum — gives a
    cardinality-sized table from which the driver takes BOTH order
    statistics (the deviation histogram is the value histogram
    re-keyed by |v - med|, no second scan); the flag pass broadcasts
    the tiny per-source (med, mad) map."""
    import ray

    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def hist_partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(["source", "n_chars"], as_index=False).size()
        return g.rename(columns={"size": "n"})

    hist = bucketed_sum(
        ds.map_batches(hist_partial, batch_format="pandas"),
        ["source", "n_chars"],
        ["n"],
        n_buckets=8,
    ).to_pandas()

    def lower_median(values: np.ndarray, counts: np.ndarray) -> int:
        order = np.argsort(values)
        v, c = values[order], counts[order]
        k = (c.sum() + 1) // 2  # 1-based lower-median rank
        return int(v[np.searchsorted(np.cumsum(c), k)])

    stats = {}
    for src, g in hist.groupby("source"):
        v = g["n_chars"].to_numpy(np.int64)
        c = g["n"].to_numpy(np.int64)
        med = lower_median(v, c)
        # deviation histogram = same counts re-keyed by |v - med|
        dev = np.abs(v - med)
        dv = pd.DataFrame({"d": dev, "c": c}).groupby("d", as_index=False)[
            "c"
        ].sum()
        mad = lower_median(dv["d"].to_numpy(np.int64), dv["c"].to_numpy(np.int64))
        stats[src] = (med, mad)
    stats_ref = ray.put(stats)

    def flag(batch: pd.DataFrame) -> pd.DataFrame:
        s = ray.get(stats_ref)
        med = batch["source"].map(lambda x: s[x][0]).to_numpy(np.int64)
        mad = batch["source"].map(lambda x: s[x][1]).to_numpy(np.int64)
        nc = batch["n_chars"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "source": batch["source"],
                "n_chars": nc,
                "is_outlier": np.abs(nc - med) > 3 * mad,
            }
        )

    return ds.map_batches(flag, batch_format="pandas", batch_size=65536)


T12_SQL = """
WITH r AS (
  SELECT source, n_chars,
         ROW_NUMBER() OVER (PARTITION BY source ORDER BY n_chars) AS rn,
         COUNT(*) OVER (PARTITION BY source) AS n
  FROM documents),
med AS (SELECT source, n_chars AS med FROM r WHERE rn = (n + 1) // 2),
ad AS (
  SELECT d.source, ABS(d.n_chars - m.med) AS dev
  FROM documents d JOIN med m USING (source)),
r2 AS (
  SELECT source, dev,
         ROW_NUMBER() OVER (PARTITION BY source ORDER BY dev) AS rn,
         COUNT(*) OVER (PARTITION BY source) AS n
  FROM ad),
mad AS (SELECT source, dev AS mad FROM r2 WHERE rn = (n + 1) // 2)
SELECT d.doc_id, d.source, d.n_chars,
       (ABS(d.n_chars - m.med) > 3 * x.mad) AS is_outlier
FROM documents d
JOIN med m USING (source)
JOIN mad x USING (source)
"""


def _mod_filter(modulus: int, col: str = "vec_id"):
    """Arrow-batch filter keeping rows where ``col % modulus == 0``."""

    def fil(batch: pa.Table) -> pa.Table:
        vals = np.asarray(batch[col]).astype(np.int64)
        return batch.filter(pa.array(vals % modulus == 0))

    return fil


def d09_edit_distance_pairs(sf_dir: str):
    """Typo / spelling-variant pair mining (stages/dedup.
    edit_distance_pairs): FastSS deletion-neighborhood candidates +
    exact verify over the corpus vocabulary ∪ planted middle-char
    deletions (the corpus vocab alone has no lev-1 pairs; the planted
    derivation is SQL-expressible, c02 pattern).  Oracle = brute
    levenshtein join.

    Shuffle budget (round-5 d09 regression root-cause): the pipeline's
    wall time at test scale is fixed per-exchange latency, not data —
    so tokenize + variant-planting fuse into ONE corpus pass and the
    two global string dedups are dropped entirely.  That is safe
    because :func:`edit_distance_pairs` dedups internally at every
    level (per-batch strings, per-bucket candidates, bucketed pair
    reduce), so duplicate input strings across batches cannot change
    the output pair set."""
    from .stages.dedup import edit_distance_pairs
    from .stages.text import _RE2_SPACE_CLASS, _flat_nonempty, _string_array

    ds = _read_wide(sf_dir, "documents", ["text"])

    def toks_with_variants(batch: pa.Table) -> pa.Table:
        txt = _string_array(batch["text"])
        flat, _, _ = _flat_nonempty(
            pc.split_pattern_regex(txt, _RE2_SPACE_CLASS), len(txt)
        )
        u = np.unique(flat.to_numpy(zero_copy_only=False))
        u = u[np.char.str_len(u.astype(str)) >= 4]
        out = []
        for t in u.tolist():  # batch-vocab-sized, not corpus-sized
            out.append(t)
            p = (len(t) + 1) // 2  # 1-based middle position
            out.append(t[: p - 1] + t[p:])
        return pa.table({"s": pa.array(out, pa.string())})

    return edit_distance_pairs(
        ds.map_batches(toks_with_variants, batch_format="pyarrow")
    )


D09_SQL = r"""
WITH tok AS (
  SELECT unnest(list_filter(string_split_regex(text, '\s+'),
                            x -> x <> '')) AS t
  FROM documents),
v AS (SELECT DISTINCT t FROM tok WHERE length(t) >= 4),
s AS (
  SELECT t AS s FROM v
  UNION
  SELECT substr(t, 1, (length(t) + 1) // 2 - 1)
         || substr(t, (length(t) + 1) // 2 + 1, length(t))
  FROM v)
SELECT a.s AS a, b.s AS b
FROM s a JOIN s b ON a.s < b.s AND levenshtein(a.s, b.s) = 1
"""


def a04_knn_graph(sf_dir: str, k: int = 3, modulus: int = 4):
    """kNN-graph construction over an embedding column — the
    neighbor-list artifact semantic-dedup and curriculum pipelines
    consume.  Similarity is the INTEGER dot product of
    1e-3-quantized vectors (the _cents trick lifted to vectors), so
    ranks and scores are order-independent and hash-exact — no float
    cosine tie hazard at 125k pairs.

    Ray shape: the quantized index side broadcasts via ``ray.put``
    (bounded by the modulus filter here; at corpus scale the index
    side comes from an IVF partition, ann.save_ivf_index, and each
    task probes its list) while batches stream through one int64
    matmul + vectorized top-k each.  Self-pairs excluded; ties break
    on neighbor id."""
    import ray

    from .stages.ann import _as_matrix

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    f = ds.map_batches(_mod_filter(modulus), batch_format="pyarrow")
    idx = f.to_pandas()  # index side: bounded by the modulus filter
    ids = idx["vec_id"].to_numpy(np.int64)
    mat = np.floor(
        np.array(idx["embedding"].tolist(), dtype=np.float64) * 1000 + 0.5
    ).astype(np.int64)
    order = np.argsort(ids)
    ids, mat = ids[order], mat[order]
    index_ref = ray.put((ids, mat))

    def topk(batch: pa.Table) -> pd.DataFrame:
        iids, imat = ray.get(index_ref)
        q = np.floor(_as_matrix(batch["embedding"]) * 1000 + 0.5).astype(
            np.int64
        )
        src = np.asarray(batch["vec_id"]).astype(np.int64)
        dots = q @ imat.T  # exact int64 matmul
        self_col = np.searchsorted(iids, src)
        # sort on the NEGATED key, masking self AFTER negation —
        # -int64.min overflows back to int64.min and would sort first
        ndots = -dots
        ndots[np.arange(len(src)), self_col] = np.iinfo(np.int64).max
        frames = []
        for r in range(len(src)):
            o = np.lexsort((iids, ndots[r]))[:k]
            frames.append(
                pd.DataFrame(
                    {
                        "src": src[r],
                        "rank": np.arange(1, k + 1, dtype=np.int64),
                        "nbr": iids[o],
                        "dot": dots[r, o],
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    return f.map_batches(topk, batch_format="pyarrow", batch_size=4096)


A04_SQL = """
WITH f AS (
  SELECT vec_id,
         list_transform(embedding,
                        e -> CAST(floor(e * 1000 + 0.5) AS BIGINT)) AS v
  FROM embeddings WHERE vec_id % 4 = 0),
d AS (
  SELECT a.vec_id AS src, b.vec_id AS nbr,
         CAST(list_sum(list_transform(range(1, len(a.v) + 1),
                                      i -> a.v[i] * b.v[i])) AS BIGINT)
             AS dot
  FROM f a JOIN f b ON a.vec_id <> b.vec_id),
r AS (
  SELECT src, nbr, dot,
         ROW_NUMBER() OVER (PARTITION BY src
                            ORDER BY dot DESC, nbr) AS rank
  FROM d)
SELECT src, CAST(rank AS BIGINT) AS rank, nbr, dot
FROM r WHERE rank <= 3
"""


def d10_semantic_dedup(sf_dir: str, threshold: int = 350_000, modulus: int = 4):
    """Semantic deduplication end-to-end: embedding similarity graph
    (integer-quantized dot >= threshold, the a04 trick) → connected
    components → keep one representative (min vec_id) per cluster.
    The full near-dup REMOVAL path a training-data pipeline runs, not
    just pair mining.

    Ray shape: quantized index broadcast + streamed int64 matmul per
    batch emits threshold edges; `dedup.connected_components` (bucketed
    min-label propagation) labels clusters; isolated nodes label
    themselves.  Oracle: DuckDB recursive-CTE transitive closure —
    multi-hop chains (A~B~C with A!~C) must share one label, which a
    pairwise SQL join can't express."""
    import ray

    from naer_ray.stages.canon import connected_components

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    f = ds.map_batches(_mod_filter(modulus), batch_format="pyarrow")
    idx = f.to_pandas()  # index side: bounded by the modulus filter
    ids = np.sort(idx["vec_id"].to_numpy(np.int64))
    mat = np.floor(
        np.array(
            idx.sort_values("vec_id")["embedding"].tolist(), dtype=np.float64
        )
        * 1000
        + 0.5
    ).astype(np.int64)
    index_ref = ray.put((ids, mat))

    from .stages.ann import _as_matrix

    def edges(batch: pa.Table) -> pd.DataFrame:
        iids, imat = ray.get(index_ref)
        q = np.floor(_as_matrix(batch["embedding"]) * 1000 + 0.5).astype(
            np.int64
        )
        src = np.asarray(batch["vec_id"]).astype(np.int64)
        hit_r, hit_c = np.nonzero(q @ imat.T >= threshold)
        a = src[hit_r]
        b = iids[hit_c]
        keep = a < b  # dedupe symmetric pairs; drops self-pairs too
        return pd.DataFrame(
            {
                "id_a": pd.Series(a[keep], dtype="int64"),
                "id_b": pd.Series(b[keep], dtype="int64"),
            }
        )

    edge_ds = f.map_batches(edges, batch_format="pyarrow", batch_size=4096)
    labels = connected_components(edge_ds).to_pandas()
    if labels.empty:
        labels = pd.DataFrame(
            {
                "node": pd.Series([], dtype="int64"),
                "label": pd.Series([], dtype="int64"),
            }
        )
    lbl = pd.Series(
        labels["label"].to_numpy(np.int64),
        index=labels["node"].to_numpy(np.int64),
    ).reindex(ids)
    out_label = np.where(lbl.isna(), ids, lbl.fillna(0).to_numpy(np.int64))
    return pd.DataFrame(
        {
            "vec_id": ids,
            "label": out_label.astype(np.int64),
            "keep": ids == out_label,
        }
    )


D10_SQL = """
WITH RECURSIVE f AS (
  SELECT vec_id,
         list_transform(embedding,
                        e -> CAST(floor(e * 1000 + 0.5) AS BIGINT)) AS v
  FROM embeddings WHERE vec_id % 4 = 0),
e AS (
  SELECT a.vec_id AS u, b.vec_id AS w
  FROM f a JOIN f b
    ON a.vec_id < b.vec_id
   AND list_sum(list_transform(range(1, len(a.v) + 1),
                               i -> a.v[i] * b.v[i])) >= 350000),
ee AS (SELECT u, w FROM e UNION ALL SELECT w, u FROM e),
r(a, b) AS (
  SELECT u, w FROM ee
  UNION
  SELECT r.a, ee.w FROM r JOIN ee ON ee.u = r.b),
lbl AS (
  SELECT f.vec_id,
         LEAST(f.vec_id, COALESCE(MIN(r.b), f.vec_id)) AS label
  FROM f LEFT JOIN r ON r.a = f.vec_id
  GROUP BY f.vec_id)
SELECT vec_id, label, (vec_id = label) AS keep FROM lbl
"""


def d11_incremental_dedup(sf_dir: str):
    """Incremental near-dup detection against a PERSISTED MinHash-LSH
    index (stages/dedup.save_minhash_index / minhash_probe_index): the
    original documents are indexed ONCE to hash-sharded parquet; the
    planted mutants (doc_id + 1M, uppercased — the 'daily delta')
    probe only the index shards their band hashes touch and must each
    recover their source doc at est_jaccard = 1.0.

    This is the production incremental shape: at 100 TB the corpus is
    never re-shuffled against itself — each intake batch probes the
    persisted index (partition-pruned read), pays O(delta x bands),
    and appends its own band rows afterwards."""
    import os as _os
    import shutil

    from .stages.dedup import minhash_probe_index, save_minhash_index

    path = f"/tmp/naer_minhash_index/{_os.getpid()}-{_os.path.basename(sf_dir.rstrip('/'))}"
    shutil.rmtree(path, ignore_errors=True)
    docs = _read_wide(sf_dir, "documents", ["doc_id", "text"])
    save_minhash_index(docs, path)

    def mutate(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.add(batch["doc_id"], pa.scalar(1_000_000, pa.int64())),
                "text": pc.utf8_upper(batch["text"]),
            }
        )

    delta = _read_wide(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        mutate, batch_format="pyarrow"
    )
    pairs = minhash_probe_index(delta, path, min_est=0.95)

    def planted(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "id_a": batch["old_id"].cast(pa.int64()),
                "id_b": batch["new_id"].cast(pa.int64()),
            }
        )
        return t.filter(pc.equal(pc.subtract(t["id_b"], t["id_a"]), 1_000_000))

    return pairs.map_batches(planted, batch_format="pyarrow")


D11_SQL = D01_SQL


def n02_group_corr(sf_dir: str):
    """Grouped Pearson correlation (quantity vs discount-percent per
    return flag) from EXACT integer moment partials: per-batch int64
    (n, sx, sy, sxx, syy, sxy) combiners -> one tiny bucketed sum ->
    a fixed IEEE expression tree on the driver, so the DOUBLE result
    matches the SQL oracle bit-exactly (the n01 moment-shuffle pattern
    extended to second cross-moments).  Small integer domains
    (qty <= 50, pct <= 10) keep every moment in int64 at any SF."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_discount"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        x = np.floor(batch["l_quantity"].to_numpy() + 0.5).astype(np.int64)
        y = np.floor(batch["l_discount"].to_numpy() * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"],
                "n": np.int64(1),
                "sx": x,
                "sy": y,
                "sxx": x * x,
                "syy": y * y,
                "sxy": x * y,
            }
        )
        return g.groupby("l_returnflag", as_index=False).sum()

    m = bucketed_sum(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        ["l_returnflag"],
        ["n", "sx", "sy", "sxx", "syy", "sxy"],
    ).to_pandas()  # one row per flag

    n = m["n"].to_numpy(np.int64)
    mux = m["sx"].to_numpy(np.int64).astype(np.float64) / n
    muy = m["sy"].to_numpy(np.int64).astype(np.float64) / n
    cov = m["sxy"].to_numpy(np.int64).astype(np.float64) - n * mux * muy
    varx = m["sxx"].to_numpy(np.int64).astype(np.float64) - n * mux * mux
    vary = m["syy"].to_numpy(np.int64).astype(np.float64) - n * muy * muy
    denom = np.sqrt(varx) * np.sqrt(vary)
    corr = np.where(denom == 0, np.nan, cov / np.where(denom == 0, 1.0, denom))
    out = pd.DataFrame(
        {
            "l_returnflag": m["l_returnflag"],
            "n_rows": n,
            "corr_qty_disc": corr,
        }
    ).sort_values("l_returnflag").reset_index(drop=True)
    return out


N02_SQL = """
WITH b AS (
  SELECT l_returnflag,
         CAST(FLOOR(l_quantity + 0.5) AS BIGINT) AS x,
         CAST(FLOOR(l_discount * 100 + 0.5) AS BIGINT) AS y
  FROM lineitem),
m AS (
  SELECT l_returnflag, COUNT(*) AS n,
         SUM(x) AS sx, SUM(y) AS sy,
         SUM(x * x) AS sxx, SUM(y * y) AS syy, SUM(x * y) AS sxy
  FROM b GROUP BY l_returnflag),
e AS (
  SELECT l_returnflag, n,
         CAST(sx AS DOUBLE) / n AS mux,
         CAST(sy AS DOUBLE) / n AS muy,
         CAST(sxx AS DOUBLE) AS sxx_d, CAST(syy AS DOUBLE) AS syy_d,
         CAST(sxy AS DOUBLE) AS sxy_d
  FROM m)
SELECT l_returnflag, CAST(n AS BIGINT) AS n_rows,
       CASE WHEN sqrt(sxx_d - n * mux * mux) * sqrt(syy_d - n * muy * muy) = 0
            THEN NULL
            ELSE (sxy_d - n * mux * muy)
                 / (sqrt(sxx_d - n * mux * mux) * sqrt(syy_d - n * muy * muy))
       END AS corr_qty_disc
FROM e
"""


def w08_dense_rank(sf_dir: str, n_buckets: int = 64):
    """DENSE_RANK per customer over order totals (integer cents, ties
    share a rank): custkey bucket-run + one vectorized change-mask
    cumsum per bucket — no per-customer dispatch, no global sort."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def bucketize(batch: pa.Table) -> pa.Table:
        b = (
            batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            % n_buckets
        ).astype(np.int32)
        return batch.append_column("bucket", pa.array(b, pa.int32()))

    def rank_kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(
            value_c=np.floor(g["o_totalprice"].to_numpy() * 100 + 0.5).astype(
                np.int64
            )
        ).sort_values(["o_custkey", "value_c"], ascending=[True, False])
        ck = g["o_custkey"].to_numpy(np.int64)
        vc = g["value_c"].to_numpy(np.int64)
        new_user = np.r_[True, ck[1:] != ck[:-1]]
        chg = new_user | np.r_[True, vc[1:] != vc[:-1]]
        r = np.cumsum(chg)
        starts = np.flatnonzero(new_user)
        sizes = np.diff(np.r_[starts, len(g)])
        base = (r[starts] - 1).repeat(sizes)
        return pd.DataFrame(
            {
                "o_orderkey": g["o_orderkey"].to_numpy(np.int64),
                "o_custkey": ck,
                "value_c": vc,
                "rnk": (r - base).astype(np.int64),
            }
        )

    return (
        ds.map_batches(bucketize, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(rank_kernel, batch_format="pandas")
    )


W08_SQL = """
SELECT o_orderkey, o_custkey,
       CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS value_c,
       DENSE_RANK() OVER (
           PARTITION BY o_custkey
           ORDER BY CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) DESC
       ) AS rnk
FROM orders
"""


def q33_full_outer_join(sf_dir: str, n_buckets: int = 64):
    """FULL OUTER join: per-customer order counts vs the (c_custkey %
    3 == 0)-filtered customer dimension — left-only, right-only and
    matched rows all non-empty by construction.  Co-partition union
    (typed-null padded sides, the asof/attach pattern) + one per-bucket
    outer merge; counts surface as DOUBLE because the unmatched side is
    NULL (matching DuckDB's NULL-able aggregate output dtype)."""
    from .stages.agg import bucketed_sum

    orders = _read(sf_dir, "orders", ["o_custkey"])

    def order_partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("o_custkey", as_index=False).size()
        return g.rename(columns={"size": "order_cnt"})

    counts = bucketed_sum(
        orders.map_batches(order_partial, batch_format="pandas", batch_size=65536),
        ["o_custkey"],
        ["order_cnt"],
    )
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    schema = pa.schema(
        [
            ("custkey", pa.int64()),
            ("order_cnt", pa.int64()),
            ("c_mktsegment", pa.string()),
            ("__side", pa.int8()),
            ("bucket", pa.int32()),
        ]
    )

    def tag_counts(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        key = batch["o_custkey"].cast(pa.int64())
        return pa.Table.from_arrays(
            [
                key,
                batch["order_cnt"].cast(pa.int64()),
                pa.nulls(n, pa.string()),
                pa.array(np.zeros(n, np.int8)),
                pc.cast(
                    pc.bit_wise_and(key, pa.scalar(n_buckets - 1, pa.int64())),
                    pa.int32(),
                ),
            ],
            schema=schema,
        )

    def tag_cust(batch: pa.Table) -> pa.Table:
        key = batch["c_custkey"].cast(pa.int64())
        # c_custkey % 3 == 0 via integer divide (Arrow has no modulo)
        keep = pc.equal(
            pc.subtract(
                key, pc.multiply(pc.divide(key, pa.scalar(3, pa.int64())), 3)
            ),
            pa.scalar(0, pa.int64()),
        )
        t = batch.filter(keep)
        n = t.num_rows
        key = t["c_custkey"].cast(pa.int64())
        return pa.Table.from_arrays(
            [
                key,
                pa.nulls(n, pa.int64()),
                t["c_mktsegment"].cast(pa.string()),
                pa.array(np.ones(n, np.int8)),
                pc.cast(
                    pc.bit_wise_and(key, pa.scalar(n_buckets - 1, pa.int64())),
                    pa.int32(),
                ),
            ],
            schema=schema,
        )

    tagged = counts.map_batches(tag_counts, batch_format="pyarrow").union(
        cust.map_batches(tag_cust, batch_format="pyarrow")
    )

    def outer_merge(group: pd.DataFrame) -> pd.DataFrame:
        left = group[group["__side"] == 0][["custkey", "order_cnt"]]
        right = group[group["__side"] == 1][["custkey", "c_mktsegment"]]
        m = left.merge(right, on="custkey", how="outer")
        seg = m["c_mktsegment"].astype(object)
        return pd.DataFrame(
            {
                "custkey": m["custkey"].astype("int64"),
                "order_cnt": m["order_cnt"].astype("float64"),
                # None (not float NaN) so the object column stringifies
                # like DuckDB's NULL under the oracle compare
                "c_mktsegment": seg.where(seg.notna(), None),
            }
        )

    return tagged.groupby("bucket").map_groups(outer_merge, batch_format="pandas")


Q33_SQL = """
WITH a AS (
  SELECT o_custkey, COUNT(*) AS order_cnt FROM orders GROUP BY o_custkey),
b AS (
  SELECT c_custkey, c_mktsegment FROM customer WHERE c_custkey % 3 = 0)
SELECT COALESCE(a.o_custkey, b.c_custkey) AS custkey,
       CAST(a.order_cnt AS DOUBLE) AS order_cnt,
       b.c_mktsegment
FROM a FULL OUTER JOIN b ON a.o_custkey = b.c_custkey
"""


def b01_bpe_merges(sf_dir: str, n_merges: int = 12):
    """Distributed BPE merge learning (stages/text.bpe_learn) over the
    documents corpus — tokenizer training as a pipeline stage.  The
    oracle gate (k01 pattern for non-SQL-expressible iterative ops):
    the distributed merge list must equal the single-process reference
    (same count/tie-break/apply rules) exactly, asserted as
    literal-TRUE rows per merge rank.  ``local_threshold=0`` forces
    the DISTRIBUTED merge rounds here — the gate exists to prove that
    path; production callers keep the size-adaptive default."""
    import pyarrow.parquet as pq

    from .stages.text import bpe_learn, bpe_reference

    ds = _read(sf_dir, "documents", ["text"])
    got = bpe_learn(ds, "text", n_merges=n_merges, local_threshold=0)

    ref_tbl = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    counts: dict[str, int] = {}
    for t in ref_tbl["text"].to_pylist():
        for w in t.split():
            counts[w] = counts.get(w, 0) + 1
    want = bpe_reference(counts, n_merges=n_merges)

    match = got == want
    out = pd.DataFrame({"merge_rank": range(len(want))})
    out["merge_rank"] = out["merge_rank"].astype("int64")
    out["merges_match"] = bool(match)
    return out


B01_SQL = """
SELECT CAST(range AS BIGINT) AS merge_rank, TRUE AS merges_match
FROM range(12)
"""


def b02_bpe_encode(sf_dir: str, n_merges: int = 12):
    """Corpus-wide BPE tokenization (stages/text.bpe_encode_counts):
    learn merges, then apply them to every document and count tokens —
    the pass whose output feeds the p01 packing budget at real scale.

    Gate (b01/k01 pattern for non-SQL-expressible ops): the
    distributed per-doc token counts must equal a single-process
    reference encode of the same parquet, asserted per doc_id — a bug
    in the dictionary-encode, the reduceat doc mapping, or the merge
    application order breaks specific rows, not just an aggregate."""
    import pyarrow.parquet as pq

    from .stages.text import _bpe_apply_merge, bpe_learn, bpe_encode_counts

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    merges = bpe_learn(ds, "text", n_merges=n_merges)
    got = (
        bpe_encode_counts(ds, merges)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    ref_tbl = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    cache: dict[str, int] = {}

    def ref_tokens(t: str) -> int:
        n = 0
        for w in t.split():
            if w not in cache:
                sym = tuple(w)
                for left, right in merges:
                    sym = _bpe_apply_merge(sym, left, right)
                cache[w] = len(sym)
            n += cache[w]
        return n

    ref = pd.DataFrame(
        {
            "doc_id": ref_tbl["doc_id"].to_numpy(),
            "want_tokens": [ref_tokens(t) for t in ref_tbl["text"].to_pylist()],
            "want_words": [len(t.split()) for t in ref_tbl["text"].to_pylist()],
        }
    ).sort_values("doc_id").reset_index(drop=True)
    ok = (
        (got["doc_id"].to_numpy() == ref["doc_id"].to_numpy())
        & (got["n_tokens"].to_numpy() == ref["want_tokens"].to_numpy())
        & (got["n_words"].to_numpy() == ref["want_words"].to_numpy())
    )
    out = pd.DataFrame(
        {"doc_id": got["doc_id"].astype("int64"), "encode_match": ok}
    )
    return out.sort_values("doc_id").reset_index(drop=True)


B02_SQL = """
SELECT doc_id, TRUE AS encode_match FROM documents
"""


def d12_duplicated_spans(sf_dir: str):
    """Exact duplicated-span dedup signal (Lee et al. 2021 substring
    dedup): every doc pair sharing an IDENTICAL 40-character span —
    gram-hash bucket-run candidates + exact co-partition verify
    (stages/dedup.duplicated_span_pairs); the SQL oracle brute-forces
    the same grams with substr + self-join."""
    from .stages.dedup import duplicated_span_pairs

    ds = _read_wide(sf_dir, "documents", ["doc_id", "text"])
    return duplicated_span_pairs(ds, k=40)


D12_SQL = """
WITH g AS (
  SELECT doc_id, substr(text, CAST(j AS INT), 40) AS gram
  FROM documents,
       LATERAL unnest(generate_series(1, GREATEST(len(text) - 39, 0))) AS t(j))
SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b
FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
"""


def d13_winnowed_span_pairs(sf_dir: str):
    """Winnowed substring-dedup signal (Schleimer et al. 2003 MOSS
    winnowing — stages/dedup.winnowed_span_pairs): the d12 gram
    stream thinned to per-window minima BEFORE the exchange, so the
    shuffle moves ~1/8 the rows at the same scan cost — the 100-TB
    configuration of substring dedup.

    Planted ground truth: each mutant (doc_id + 1M) is the original
    text plus a short per-doc suffix, so every planted pair shares the
    full original text (>= 44 bytes >= k + window - 1 = 39) and
    winnowing's guarantee makes its detection DETERMINISTIC; the exact
    shared-span verify keeps precision 1.0, and the planted projection
    removes the corpus's genuine duplicated-span pairs that a
    closed-form oracle cannot enumerate (d12 brute-forces those)."""
    from .stages.dedup import winnowed_span_pairs

    ds = _read_wide(sf_dir, "documents", ["doc_id", "text"])

    def mutate(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = batch["text"].to_pylist()
        # suffix is per-doc unique and < k bytes, so no 32-byte window
        # can be shared between two different docs' suffix regions
        out_texts = texts + [
            t + f" #{i}#dup" for i, t in zip(ids.tolist(), texts)
        ]
        return pa.table(
            {
                "doc_id": pa.array(np.r_[ids, ids + 1_000_000], pa.int64()),
                "text": pa.array(out_texts, pa.string()),
            }
        )

    both = ds.map_batches(mutate, batch_format="pyarrow", batch_size=None)
    return _planted_only(winnowed_span_pairs(both, k=32, window=8))


D13_SQL = D01_SQL


def d14_bloom_decontaminate(sf_dir: str):
    """Bloom-prefiltered test-set decontamination
    (stages/dedup.bloom_decontaminate): the d06 scan with the broadcast
    side shrunk from the full test gram set to a ~1.5-byte/gram Bloom
    filter — the production configuration for multi-GB eval suites.
    Bloom filters have no false negatives, so the exact candidate-sized
    confirm join makes the output bit-identical to d06; same planted
    contamination (each 2%-split test doc's text re-enters training
    under doc_id+10M), same oracle."""
    from .stages.dedup import bloom_decontaminate
    from .stages.sample import KNUTH_K

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def split(batch: pa.Table, want_test: bool) -> pa.Table:
        ids = batch["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        is_test = ((ids.astype(np.uint64) * np.uint64(KNUTH_K))
                   & np.uint64(0xFFFFFFFF)) % np.uint64(100) < 2
        return batch.filter(pa.array(is_test if want_test else ~is_test))

    test_ds = ds.map_batches(
        lambda b: split(b, True), batch_format="pyarrow"
    )

    def leak(batch: pa.Table) -> pa.Table:
        b = split(batch, True)
        return pa.table(
            {
                "doc_id": pc.add(b["doc_id"], 10_000_000),
                "text": b["text"],
            }
        )

    train_ds = ds.map_batches(
        lambda b: split(b, False), batch_format="pyarrow"
    ).union(ds.map_batches(leak, batch_format="pyarrow"))
    return bloom_decontaminate(train_ds, test_ds, n=8)


# d14's oracle is D06_SQL (identical planted contamination and output
# contract); the REGISTRY entry at the bottom of the module references
# it directly since it is defined later in the file.


def v01_constraint_violations(sf_dir: str):
    """KG ontology/constraint validation (SHACL-lite): check emitted
    triples against per-predicate rules and emit the VIOLATING rows —
    the data-contract gate a production KG ingest runs before
    publishing a graph snapshot.

    Rules: ``mentionedIn`` subjects must come from the entity
    dictionary (domain constraint — the noisy first-word extractor
    deliberately produces out-of-dictionary subjects); ``occursIn``
    objects must sit within the first 20 turns (range constraint).

    Ray shape: one streaming pass per triple source; the dictionary is
    a broadcast small side (`pc.is_in` per batch — never a shuffle
    join); nothing materializes."""
    ds = _derive_transcripts(sf_dir)
    entities = KG_ENTITIES

    def domain_violations(batch: pa.Table) -> pa.Table:
        first = pc.list_element(pc.split_pattern(batch["text"], " "), 0)
        obj = pc.binary_join_element_wise(
            batch["conv_id"],
            pc.cast(batch["turn_idx"], pa.string()),
            "#",
        )
        bad = pc.invert(pc.is_in(first, value_set=pa.array(entities)))
        t = pa.table(
            {
                "subj": first,
                "pred": pa.array(["mentionedIn"] * len(batch), pa.string()),
                "obj": obj,
                "violation": pa.array(["domain"] * len(batch), pa.string()),
            }
        )
        return t.filter(bad)

    ents_sorted = np.array(sorted(entities))

    def range_violations(batch: pa.Table) -> pa.Table:
        late = batch.filter(pc.greater(batch["turn_idx"], 20))
        r, c = _entity_presence(late["text"], ents_sorted)
        idx = pa.array(r)
        conv = late["conv_id"].combine_chunks().take(idx)
        turn = late["turn_idx"].combine_chunks().take(idx)
        return pa.table(
            {
                "subj": pa.array(ents_sorted[c], pa.string()),
                "pred": pa.array(["occursIn"] * len(r), pa.string()),
                "obj": pc.binary_join_element_wise(
                    conv, pc.cast(turn, pa.string()), "#"
                ),
                "violation": pa.array(["range"] * len(r), pa.string()),
            }
        )

    dom = ds.map_batches(domain_violations, batch_format="pyarrow")
    rng = ds.map_batches(range_violations, batch_format="pyarrow")
    return dom.union(rng)


V01_SQL = f"""
WITH t AS ({_DERIVE_SQL}),
d(entity) AS (VALUES {", ".join(f"('{e}')" for e in KG_ENTITIES)})
SELECT string_split(t.text, ' ')[1] AS subj,
       'mentionedIn' AS pred,
       t.conv_id || '#' || CAST(t.turn_idx AS VARCHAR) AS obj,
       'domain' AS violation
FROM t
WHERE string_split(t.text, ' ')[1] NOT IN (SELECT entity FROM d)
UNION ALL
SELECT d.entity AS subj, 'occursIn' AS pred,
       t.conv_id || '#' || CAST(t.turn_idx AS VARCHAR) AS obj,
       'range' AS violation
FROM t JOIN d ON list_contains(string_split(t.text, ' '), d.entity)
WHERE t.turn_idx > 20
"""


def i02_cdc_merge(sf_dir: str, n_buckets: int = 64):
    """CDC merge-apply (MERGE INTO semantics): treat the event stream
    as a changelog keyed by (user_id, event_type), ordered by
    (ts, event_id); the LATEST change per key wins, and a change whose
    integer-cents value is divisible by 10 is a DELETE marker — the key
    disappears from the snapshot.  This is the "apply a changelog to a
    base table" upsert path every incremental-ingest pipeline needs.

    Ray shape: user-hash bucket shuffle (the key's natural prefix), one
    vectorized pass per bucket-run — last-of-run boolean mask instead
    of ROW_NUMBER machinery, deletes filtered after the last-wins
    selection (a delete must suppress older upserts, not be skipped).
    Integer-cents value so the oracle is hash-exact."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"])

    def bucketize(batch: pa.Table) -> pa.Table:
        b = (
            batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            % n_buckets
        ).astype(np.int32)
        return batch.append_column("bucket", pa.array(b, pa.int32()))

    def merge_apply(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_type", "ts", "event_id"])
        uid = g["user_id"].to_numpy().astype(np.int64)
        et = g["event_type"].to_numpy()
        ts_us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        value_c = np.floor(g["value"].to_numpy() * 100 + 0.5).astype(np.int64)
        last = np.r_[(uid[1:] != uid[:-1]) | (et[1:] != et[:-1]), True]
        keep = last & (value_c % 10 != 0)  # delete marker wins, emits nothing
        return pd.DataFrame(
            {
                "user_id": uid[keep],
                "event_type": et[keep],
                "last_value_c": value_c[keep],
                "last_ts_us": ts_us[keep],
            }
        )

    return (
        ds.map_batches(bucketize, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(merge_apply, batch_format="pandas")
    )


I02_SQL = """
WITH c AS (
  SELECT user_id, event_type, event_id,
         CAST(epoch_us(ts) AS BIGINT) AS ts_us,
         CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS value_c
  FROM events),
ranked AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id, event_type
                               ORDER BY ts_us DESC, event_id DESC) AS rn
  FROM c)
SELECT user_id, event_type, value_c AS last_value_c, ts_us AS last_ts_us
FROM ranked WHERE rn = 1 AND value_c % 10 <> 0
"""


def e02_adjacent_relations(sf_dir: str):
    """KG relation extraction by adjacency pattern: (a, precedes, b)
    triples with weights for every ADJACENT entity-dictionary bigram in
    a document (the pattern-based relation-mining step between mention
    detection and graph build).

    Fully vectorized: one Arrow split per batch, doc boundaries from
    list offsets (no cross-document bigrams), entities dictionary-coded
    via searchsorted, pair counts from one bincount on a*K+b codes —
    then a cardinality-sized bucketed sum (at most K^2 rows per
    batch)."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ents = np.array(sorted(KG_ENTITIES))
    k = len(ents)

    def partial(batch: pa.Table) -> pd.DataFrame:
        split = pc.split_pattern(batch["text"].combine_chunks(), " ")
        flat = split.flatten().to_numpy(zero_copy_only=False)
        offs = split.offsets.to_numpy()
        if len(flat) < 2:
            return pd.DataFrame(
                {"subj": pd.Series([], dtype="string"),
                 "obj": pd.Series([], dtype="string"),
                 "n": pd.Series([], dtype="int64")}
            )
        # searchsorted dictionary-coding: code k means "not an entity"
        pos = np.searchsorted(ents, flat)
        pos_c = np.minimum(pos, k - 1)
        code = np.where(ents[pos_c] == flat, pos_c, k)
        a, b = code[:-1], code[1:]
        # a bigram is invalid where position i+1 starts a new document.
        # Clip interior offsets: a trailing null/empty text row yields an
        # offset equal to len(flat), which would index out of bounds
        # (ADVICE r3); clipping is harmless since such a scatter target
        # only marks an already-past-the-end boundary.
        boundary = np.zeros(len(flat), dtype=bool)
        inner = offs[1:-1]
        boundary[inner[inner < len(flat)]] = True
        ok = (a < k) & (b < k) & ~boundary[1:]
        counts = np.bincount(a[ok] * k + b[ok], minlength=k * k)
        nz = np.flatnonzero(counts)
        return pd.DataFrame(
            {
                "subj": pd.array(ents[nz // k], dtype="string"),
                "obj": pd.array(ents[nz % k], dtype="string"),
                "n": counts[nz].astype(np.int64),
            }
        )

    agg = bucketed_sum(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=8192),
        ["subj", "obj"],
        ["n"],
    ).to_pandas()  # <= K^2 rows
    agg.insert(1, "pred", "precedes")
    agg["subj"] = agg["subj"].astype(object)
    agg["obj"] = agg["obj"].astype(object)
    return agg.sort_values(["subj", "obj"]).reset_index(drop=True)


E02_SQL = f"""
WITH w AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
p AS (
  SELECT ws[CAST(j AS INT)] AS subj, ws[CAST(j AS INT) + 1] AS obj
  FROM w, LATERAL unnest(generate_series(1, len(ws) - 1)) AS t(j)),
d(entity) AS (VALUES {", ".join(f"('{e}')" for e in KG_ENTITIES)})
SELECT subj, 'precedes' AS pred, obj, CAST(COUNT(*) AS BIGINT) AS n
FROM p
WHERE subj IN (SELECT entity FROM d) AND obj IN (SELECT entity FROM d)
GROUP BY subj, obj
"""


def e03_entity_pmi(sf_dir: str):
    """PMI association scores for entity pairs co-occurring in a
    document (KG relation weighting: PMI(a,b) = ln(c_ab * N / (c_a *
    c_b)) over document-level presence counts).

    One corpus pass: each batch builds a docs x K 0/1 presence matrix
    (searchsorted dictionary codes scattered by list offsets) and emits
    the K x K integer Gram matrix ``X.T @ X`` — pair counts AND
    per-entity doc counts (the diagonal) from one matmul.  Partials are
    cardinality-sized (<= K^2 rows/batch); one bucketed sum merges
    them; the PMI floats are computed once on the <= K(K-1)/2-row
    result with ``math.log`` (libm, the t05 bit-exact-vs-DuckDB
    precedent).  No shuffle of corpus-sized data, integer-exact counts."""
    import math

    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = ds.count()  # parquet metadata count, no scan
    ents = np.array(sorted(KG_ENTITIES))
    k = len(ents)

    def partial(batch: pa.Table) -> pd.DataFrame:
        split = pc.split_pattern(batch["text"].combine_chunks(), " ")
        flat = split.flatten().to_numpy(zero_copy_only=False)
        offs = split.offsets.to_numpy()
        n_rows = len(offs) - 1
        empty = pd.DataFrame(
            {"subj": pd.Series([], dtype="string"),
             "obj": pd.Series([], dtype="string"),
             "n": pd.Series([], dtype="int64")}
        )
        if n_rows == 0 or len(flat) == 0:
            return empty
        pos = np.searchsorted(ents, flat)
        pos_c = np.minimum(pos, k - 1)
        code = np.where(ents[pos_c] == flat, pos_c, k)
        doc_idx = np.repeat(np.arange(n_rows), np.diff(offs))
        hit = code < k
        if not hit.any():
            return empty
        x = np.zeros((n_rows, k), dtype=np.int64)
        x[doc_idx[hit], code[hit]] = 1
        gram = x.T @ x  # co-occurrence counts; diag = doc counts
        nz = np.flatnonzero(gram)
        return pd.DataFrame(
            {
                "subj": pd.array(ents[nz // k], dtype="string"),
                "obj": pd.array(ents[nz % k], dtype="string"),
                "n": gram.reshape(-1)[nz],
            }
        )

    agg = bucketed_sum(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=8192),
        ["subj", "obj"],
        ["n"],
    ).to_pandas()  # <= K^2 rows
    diag = dict(
        zip(
            agg.loc[agg.subj == agg.obj, "subj"],
            agg.loc[agg.subj == agg.obj, "n"],
        )
    )
    pairs = agg[agg.subj < agg.obj].reset_index(drop=True)
    ca = pairs["subj"].map(diag).astype("int64")
    cb = pairs["obj"].map(diag).astype("int64")
    cab = pairs["n"].astype("int64")
    # fixed IEEE tree, identical to the SQL: (CAST(cab AS DOUBLE) * N)
    # / (ca * cb) then libm ln
    pmi = [
        math.log((float(a_b) * n_docs) / (a * b))
        for a_b, a, b in zip(cab, ca, cb)
    ]
    out = pd.DataFrame(
        {
            "subj": pairs["subj"].astype(object),
            "obj": pairs["obj"].astype(object),
            "cab": cab,
            "ca": ca,
            "cb": cb,
            "pmi": pd.Series(pmi, dtype="float64"),
        }
    )
    return out.sort_values(["subj", "obj"]).reset_index(drop=True)


E03_SQL = f"""
WITH d(entity) AS (VALUES {", ".join(f"('{e}')" for e in KG_ENTITIES)}),
tok AS (
  SELECT doc_id, UNNEST(string_split(text, ' ')) AS tok FROM documents),
m AS (
  SELECT DISTINCT doc_id, tok FROM tok
  WHERE tok IN (SELECT entity FROM d)),
c AS (SELECT tok, CAST(COUNT(*) AS BIGINT) AS cnt FROM m GROUP BY tok),
n AS (SELECT COUNT(*) AS n FROM documents),
p AS (
  SELECT a.tok AS subj, b.tok AS obj, CAST(COUNT(*) AS BIGINT) AS cab
  FROM m a JOIN m b ON a.doc_id = b.doc_id AND a.tok < b.tok
  GROUP BY 1, 2)
SELECT p.subj, p.obj, p.cab, ca.cnt AS ca, cb.cnt AS cb,
       ln((CAST(p.cab AS DOUBLE) * n.n) / (ca.cnt * cb.cnt)) AS pmi
FROM p
JOIN c ca ON ca.tok = p.subj
JOIN c cb ON cb.tok = p.obj
CROSS JOIN n
"""


def e04_triple_spans(sf_dir: str):
    """Temporal scoping of KG mentions: per (entity, conversation) the
    first / last mentioning turn and the mention-turn count — the
    validity-interval annotation a temporal KG attaches to its
    (entity, mentionedIn, conv) triples.

    Vectorized detect (the e02 searchsorted dictionary-coding over one
    Arrow split) + per-batch (conv, entity) min/max/count partials +
    one key-hash bucket-run merge (min of mins / max of maxes / sum of
    counts are all associative — no corpus-sized shuffle)."""
    from naer_ray.hashing import _bucket_series

    ds = _derive_transcripts(sf_dir)
    ents = np.array(sorted(KG_ENTITIES))
    k = len(ents)

    def partial(batch: pa.Table) -> pd.DataFrame:
        split = pc.split_pattern(batch["text"].combine_chunks(), " ")
        flat = split.flatten().to_numpy(zero_copy_only=False)
        offs = split.offsets.to_numpy()
        empty = pd.DataFrame(
            {
                "subj": pd.Series([], dtype="string"),
                "conv_id": pd.Series([], dtype="string"),
                "first_turn": pd.Series([], dtype="int32"),
                "last_turn": pd.Series([], dtype="int32"),
                "n_turns": pd.Series([], dtype="int64"),
                "bucket": pd.Series([], dtype="int32"),
            }
        )
        if len(flat) == 0:
            return empty
        pos = np.searchsorted(ents, flat)
        pos_c = np.minimum(pos, k - 1)
        code = np.where(ents[pos_c] == flat, pos_c, k)
        row_idx = np.repeat(np.arange(len(offs) - 1), np.diff(offs))
        hit = code < k
        if not hit.any():
            return empty
        # one row per (turn row, entity) present
        pair = np.unique(row_idx[hit] * k + code[hit])
        rows, codes = pair // k, pair % k
        conv = batch["conv_id"].combine_chunks().to_numpy(zero_copy_only=False)
        turn = batch["turn_idx"].combine_chunks().to_numpy()
        df = pd.DataFrame(
            {
                "subj": ents[codes],
                "conv_id": conv[rows],
                "t": turn[rows],
            }
        )
        g = df.groupby(["subj", "conv_id"], as_index=False).agg(
            first_turn=("t", "min"), last_turn=("t", "max"), n_turns=("t", "size")
        )
        comb = g["subj"].astype(str) + "|" + g["conv_id"].astype(str)
        g["bucket"] = _bucket_series(comb, 64)
        g["subj"] = g["subj"].astype("string")
        g["conv_id"] = g["conv_id"].astype("string")
        return g.astype(
            {"first_turn": "int32", "last_turn": "int32", "n_turns": "int64"}
        )

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby(["subj", "conv_id"], as_index=False).agg(
            first_turn=("first_turn", "min"),
            last_turn=("last_turn", "max"),
            n_turns=("n_turns", "sum"),
        )
        return out.astype(
            {"first_turn": "int32", "last_turn": "int32", "n_turns": "int64"}
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=8192)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    out["subj"] = out["subj"].astype(object)
    out["conv_id"] = out["conv_id"].astype(object)
    return out.sort_values(["subj", "conv_id"]).reset_index(drop=True)


E04_SQL = f"""
WITH t AS ({_DERIVE_SQL}),
d(entity) AS (VALUES {", ".join(f"('{e}')" for e in KG_ENTITIES)}),
m AS (
  SELECT d.entity AS subj, t.conv_id, t.turn_idx
  FROM t JOIN d ON list_contains(string_split(t.text, ' '), d.entity))
SELECT subj, conv_id,
       CAST(MIN(turn_idx) AS INTEGER) AS first_turn,
       CAST(MAX(turn_idx) AS INTEGER) AS last_turn,
       CAST(COUNT(*) AS BIGINT) AS n_turns
FROM m GROUP BY subj, conv_id
"""


def p03_curation_pipeline(sf_dir: str):
    """END-TO-END curation composition — the actual pre-training data
    path, chained as one streaming Dataset: canonical normalization
    (t06 stage) → word-count quality filter on the normalized text →
    corpus-wide exact keep-first dedup of the normalized content.

    Each stage streams into the next (no materialize between); the
    only shuffle is the dedup's single content-hash bucket pass.
    Output: surviving (doc_id, n_words).  The SQL oracle composes the
    same three relational steps, so a drift in ANY stage (regex
    semantics, filter bound, dedup tie-break) breaks the hash."""
    from naer_ray.hashing import _fnv64_arr
    from .stages.text import normalize_text

    ds = normalize_text(_read(sf_dir, "documents", ["doc_id", "text"]))

    def filt(batch: pa.Table) -> pd.DataFrame:
        norm = batch["norm_text"].combine_chunks()
        split = pc.split_pattern(norm, " ")
        n = pc.list_value_length(split).to_numpy()
        keep = (n >= 20) & (n <= 80)
        # vectorized FNV64 content buckets (full-corpus stage — no
        # per-row Python hash loop)
        h = _fnv64_arr(norm)
        df = pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "norm_text": norm.to_pandas(),
                "n_words": n.astype(np.int64),
                "bucket": (h % np.uint64(64)).astype("int32"),
            }
        )[keep]
        return df

    def first_per_text(group: pd.DataFrame) -> pd.DataFrame:
        out = (
            group.sort_values("doc_id")
            .groupby("norm_text", as_index=False)
            .first()
        )
        return out[["doc_id", "n_words"]].astype("int64")

    out = (
        ds.map_batches(filt, batch_format="pyarrow", batch_size=8192)
        .groupby("bucket")
        .map_groups(first_per_text, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


P03_SQL = r"""
WITH n AS (
  SELECT doc_id,
         trim(regexp_replace(lower(text), '\s+', ' ', 'g')) AS nt
  FROM documents),
f AS (
  SELECT doc_id, nt, len(string_split(nt, ' ')) AS n_words
  FROM n WHERE len(string_split(nt, ' ')) BETWEEN 20 AND 80),
d AS (
  SELECT doc_id, n_words,
         ROW_NUMBER() OVER (PARTITION BY nt ORDER BY doc_id) AS rn
  FROM f)
SELECT doc_id, CAST(n_words AS BIGINT) AS n_words FROM d WHERE rn = 1
"""


def u01_url_stats(sf_dir: str):
    """Per-host URL stats after REAL URL normalization
    (stages/url.parse_normalize_urls: RE2 component split, case-fold,
    default-port strip, utm_* removal, canonical reassembly).

    The corpus has no URL column, so each doc's raw URL is derived by
    the same closed-form (source, lang, doc_id) arithmetic in Ray and
    in the oracle (the m04 audio-payload precedent) — deliberately
    messy-cased with a default port and a utm param so normalization
    has real work to do.  The Ray side genuinely parses; the SQL side
    re-derives the normalized parts from the construction arithmetic.

    Per-batch groupby gives (host, path, url_norm, n) partials — one
    row per DISTINCT url per batch, so distinct urls shuffle once
    through the bucketed sum and page counts ride along; the final
    per-host distinct counts run over the distinct-url result (each
    distinct url lands in exactly one group row)."""
    from .stages.agg import bucketed_sum
    from .stages.url import parse_normalize_urls

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source"])

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].combine_chunks().to_numpy()
        m211 = pa.array((ids % 211).astype("U"), type=pa.string())
        m13 = pa.array((ids % 13).astype("U"), type=pa.string())
        raw = pc.binary_join_element_wise(
            pa.scalar("HTTPS://"),
            pc.utf8_upper(batch["source"].combine_chunks()),
            pa.scalar(".Example.COM:443/"),
            batch["lang"].combine_chunks(),
            pa.scalar("/page-"),
            m211,
            pa.scalar("?utm_source=feed&id="),
            m13,
            "",
        )
        parsed = parse_normalize_urls(raw)
        return (
            parsed.select(["host", "path", "url_norm"])
            .group_by(["host", "path", "url_norm"])
            .aggregate([("url_norm", "count")])
            .rename_columns(["host", "path", "url_norm", "n"])
        )

    dist = bucketed_sum(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        ["host", "path", "url_norm"],
        ["n"],
    ).to_pandas()  # one row per distinct normalized url (bounded here;
    # at corpus scale keep it a Dataset and bucket the final groupby)
    out = (
        dist.groupby("host", as_index=False)
        .agg(
            n_pages=("n", "sum"),
            n_paths=("path", "nunique"),
            n_urls=("url_norm", "nunique"),
        )
        .astype({"n_pages": "int64", "n_paths": "int64", "n_urls": "int64"})
    )
    out["host"] = out["host"].astype(object)
    return out.sort_values("host").reset_index(drop=True)


U01_SQL = """
SELECT source || '.example.com' AS host,
       CAST(COUNT(*) AS BIGINT) AS n_pages,
       CAST(COUNT(DISTINCT lang || '/' || CAST(doc_id % 211 AS VARCHAR))
            AS BIGINT) AS n_paths,
       CAST(COUNT(DISTINCT lang || '/' || CAST(doc_id % 211 AS VARCHAR)
                  || '?' || CAST(doc_id % 13 AS VARCHAR))
            AS BIGINT) AS n_urls
FROM documents GROUP BY source
"""


def m05_audio_frames(sf_dir: str):
    """Frame-level audio features: the m04 WAV payloads decoded for
    real, then windowed into 64-sample frames with per-frame integer
    energy (sum |s|) and peak — the frame-granular feature table a
    speech pipeline feeds to a model.  The tail frame is partial
    (no padding), exactly as the SQL oracle's j/64 grouping derives."""
    from .stages.multimodal import decode_wav, synth_wav_payload

    ds = _read(sf_dir, "documents", ["doc_id"])

    def frames(batch: pa.Table) -> pa.Table:
        out = {"media_id": [], "frame_idx": [], "n_samples": [], "sum_abs": [], "peak_abs": []}
        for i in batch["doc_id"].to_pylist():
            _rate, s = decode_wav(synth_wav_payload(i))
            a = np.abs(s.astype(np.int64))
            for f in range(0, len(a), 64):
                w = a[f : f + 64]
                out["media_id"].append(f"a{i:07d}")
                out["frame_idx"].append(f // 64)
                out["n_samples"].append(len(w))
                out["sum_abs"].append(int(w.sum()))
                out["peak_abs"].append(int(w.max()))
        return pa.table(
            {
                "media_id": pa.array(out["media_id"], pa.string()),
                "frame_idx": pa.array(out["frame_idx"], pa.int32()),
                "n_samples": pa.array(out["n_samples"], pa.int64()),
                "sum_abs": pa.array(out["sum_abs"], pa.int64()),
                "peak_abs": pa.array(out["peak_abs"], pa.int32()),
            }
        )

    return ds.map_batches(frames, batch_format="pyarrow", batch_size=256)


M05_SQL = """
WITH dims AS (
  SELECT doc_id, 64 + (doc_id * 89) % 193 AS n FROM documents),
s AS (
  SELECT doc_id,
         unnest(range(0, n)) AS j,
         abs(((doc_id * 31 + unnest(range(0, n)) * 57) % 2048) - 1024) AS a
  FROM dims)
SELECT printf('a%07d', doc_id) AS media_id,
       CAST(j // 64 AS INTEGER) AS frame_idx,
       CAST(COUNT(*) AS BIGINT) AS n_samples,
       CAST(SUM(a) AS BIGINT) AS sum_abs,
       CAST(MAX(a) AS INTEGER) AS peak_abs
FROM s GROUP BY doc_id, j // 64
"""


def g03_link_prediction(sf_dir: str, k: int = 20, n_buckets: int = 64):
    """Common-neighbor link prediction over the co-purchase graph: for
    every NON-adjacent node pair, count shared neighbors and return the
    top-k candidate links (the classic KG link-prediction baseline,
    Liben-Nowell & Kleinberg 2003).

    Ray shape: the shared ``_copurchase_edges`` derivation gives the
    distinct edge list; adjacency rows (w, n) in both directions are
    bucket-run on w-hash, each center's sorted neighborhood emits its
    rank-ordered pairs as count-1 partials (wedge generation — same
    run-diff kernel as g02, O(sum deg^2) bounded by the thinned graph),
    and one bucketed sum reduces them to common-neighbor counts.
    Existing edges are removed by a tagged co-partition (union scored
    pairs + edges, hash-bucket on the pair — never a broadcast edge
    set), and top-k is per-bucket local top-k + one k x n_buckets
    driver merge (q24 pattern).  Deterministic tie-break:
    (count desc, u, v)."""
    from .stages.agg import bucketed_sum

    edges = _copurchase_edges(sf_dir, n_buckets)

    def adjacency(batch: pd.DataFrame) -> pd.DataFrame:
        u = batch["u"].to_numpy(np.int64)
        v = batch["v"].to_numpy(np.int64)
        w = np.concatenate([u, v])
        n = np.concatenate([v, u])
        return pd.DataFrame(
            {"w": w, "n": n, "bucket": (w % n_buckets).astype(np.int32)}
        )

    def wedge_partials(g: pd.DataFrame) -> pd.DataFrame:
        df = g[["w", "n"]].sort_values(["w", "n"])
        a = df["w"].to_numpy(np.int64)
        b = df["n"].to_numpy(np.int64)
        xs, ys = [], []
        j = 1
        while True:
            same = a[j:] == a[:-j]
            if not same.any():
                break
            xs.append(b[:-j][same])  # n sorted within w -> u < v holds
            ys.append(b[j:][same])
            j += 1
        if not xs:
            return pd.DataFrame({"u": pd.Series([], dtype="int64"),
                                 "v": pd.Series([], dtype="int64"),
                                 "c": pd.Series([], dtype="int64")})
        return pd.DataFrame(
            {"u": np.concatenate(xs), "v": np.concatenate(ys),
             "c": np.int64(1)}
        )

    scored = bucketed_sum(
        edges.map_batches(adjacency, batch_format="pandas", batch_size=65536)
        .groupby("bucket")
        .map_groups(wedge_partials, batch_format="pandas"),
        ["u", "v"],
        ["c"],
    )

    def edge_tag(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "u": batch["u"].to_numpy(np.int64),
                "v": batch["v"].to_numpy(np.int64),
                "c": np.int64(-1),  # marker: existing edge
            }
        )

    tagged = scored.union(edges.map_batches(edge_tag, batch_format="pandas"))

    def pair_bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        h = (
            batch["u"].to_numpy(np.int64) * np.int64(1_000_003)
            + batch["v"].to_numpy(np.int64)
        ) % n_buckets
        return batch.assign(bucket=h.astype(np.int32))

    def local_topk(g: pd.DataFrame) -> pd.DataFrame:
        key = g["u"].to_numpy(np.int64) * np.int64(1 << 32) + g[
            "v"
        ].to_numpy(np.int64)
        is_edge = g["c"].to_numpy() == -1
        keep = ~np.isin(key[~is_edge], np.unique(key[is_edge]))
        cand = g[~is_edge][keep]
        return (
            cand.sort_values(["c", "u", "v"], ascending=[False, True, True])
            .head(k)[["u", "v", "c"]]
        )

    survivors = (
        tagged.map_batches(pair_bucketize, batch_format="pandas", batch_size=65536)
        .groupby("bucket")
        .map_groups(local_topk, batch_format="pandas")
        .to_pandas()  # <= k x n_buckets rows
    )
    top = (
        survivors.sort_values(["c", "u", "v"], ascending=[False, True, True])
        .head(k)
        .reset_index(drop=True)
        .rename(columns={"c": "common_neighbors"})
    )
    return top[["u", "v", "common_neighbors"]]


G03_SQL = """
WITH li AS (
  SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
  WHERE l_partkey % 7 = 0),
edges AS (
  SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
  FROM li a JOIN li b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
adj AS (
  SELECT u AS w, v AS n FROM edges
  UNION ALL
  SELECT v AS w, u AS n FROM edges),
cn AS (
  SELECT a.n AS u, b.n AS v, COUNT(*) AS common_neighbors
  FROM adj a JOIN adj b ON a.w = b.w AND a.n < b.n
  GROUP BY a.n, b.n),
cand AS (
  SELECT cn.u, cn.v, cn.common_neighbors
  FROM cn LEFT JOIN edges e ON cn.u = e.u AND cn.v = e.v
  WHERE e.u IS NULL)
SELECT u, v, common_neighbors FROM cand
ORDER BY common_neighbors DESC, u, v LIMIT 20
"""


def _bfs_copartition(edges, rounds: int, n_buckets: int = 64):
    """Multi-source BFS for graphs whose node set exceeds driver RAM —
    the co-partition fallback of the g04 dense path: the visited
    (node, dist) state is a DISTRIBUTED dataset co-partitioned with
    the (bidirected) edges by node hash; each round is two bucketed
    exchanges (frontier-expand emit, min-dist reduce) and the driver
    only ever sees the scalar newly-visited count.  Seeds and level
    semantics identical to the dense path (node %% 70 == 0, hop
    distance capped at ``rounds``), so the same closed-form SQL oracle
    gates both paths (forced-path test in tests/test_round3_ops.py)."""

    def edge_tagged(batch: pd.DataFrame) -> pa.Table:
        u = batch["u"].to_numpy(np.int64)
        v = batch["v"].to_numpy(np.int64)
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        m = len(src)
        return pa.table(
            {
                "node": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "dist": pa.nulls(m, pa.int64()),
                "kind": pa.array(np.zeros(m, np.int8), pa.int8()),
                "newly": pa.array(np.zeros(m, np.int8), pa.int8()),
                "bucket": pa.array(_graph_bucket(src, n_buckets), pa.int32()),
            }
        )

    edges_t = edges.map_batches(
        edge_tagged, batch_format="pandas", batch_size=65536
    ).materialize()

    def seed_rows(batch: pd.DataFrame) -> pa.Table:
        nodes = np.unique(
            np.concatenate(
                [batch["u"].to_numpy(np.int64), batch["v"].to_numpy(np.int64)]
            )
        )
        seeds = nodes[nodes % 70 == 0]
        m = len(seeds)
        return pa.table(
            {
                "node": pa.array(seeds, pa.int64()),
                "dst": pa.nulls(m, pa.int64()),
                "dist": pa.array(np.zeros(m, np.int64), pa.int64()),
                "kind": pa.array(np.ones(m, np.int8), pa.int8()),
                "newly": pa.array(np.zeros(m, np.int8), pa.int8()),
                "bucket": pa.array(_graph_bucket(seeds, n_buckets), pa.int32()),
            }
        )

    # duplicate seed rows across batches are fine: the first min-reduce
    # collapses them (the connected_components init precedent)
    state = edges.map_batches(
        seed_rows, batch_format="pandas", batch_size=65536
    ).materialize()

    for lvl in range(1, rounds + 1):

        def expand(group: pa.Table) -> pa.Table:
            kind = group["kind"].to_numpy(zero_copy_only=False)
            node = group["node"].to_numpy(zero_copy_only=False)
            st = kind == 1
            dist = group["dist"].to_numpy(zero_copy_only=False)
            frontier = np.unique(node[st & (dist == lvl - 1)])
            e_src = node[kind == 0]
            e_dst = group["dst"].to_numpy(zero_copy_only=False)[kind == 0]
            if len(frontier) and len(e_src):
                pos = np.searchsorted(frontier, e_src)
                pos[pos >= len(frontier)] = 0
                hit = frontier[pos] == e_src
                out = np.unique(e_dst[hit].astype(np.int64))
            else:
                out = np.empty(0, np.int64)
            m = len(out)
            return pa.table(
                {
                    "node": pa.array(out, pa.int64()),
                    "dst": pa.nulls(m, pa.int64()),
                    "dist": pa.array(np.full(m, lvl, np.int64), pa.int64()),
                    "kind": pa.array(np.full(m, 2, np.int8), pa.int8()),
                    "newly": pa.array(np.zeros(m, np.int8), pa.int8()),
                    "bucket": pa.array(_graph_bucket(out, n_buckets), pa.int32()),
                }
            )

        msgs = (
            state.union(edges_t).groupby("bucket").map_groups(
                expand, batch_format="pyarrow"
            )
        )

        def reduce_min(group: pa.Table) -> pa.Table:
            node = group["node"].to_numpy(zero_copy_only=False)
            dist = group["dist"].to_numpy(zero_copy_only=False).astype(np.int64)
            kind = group["kind"].to_numpy(zero_copy_only=False)
            order = np.lexsort((dist, node))
            node, dist, kind = node[order], dist[order], kind[order]
            first = np.r_[True, node[1:] != node[:-1]]
            out_node = node[first]
            out_dist = dist[first]  # min dist per node (lexsort)
            has_state = np.zeros(len(out_node), bool)
            np.logical_or.at(
                has_state, np.searchsorted(out_node, node[kind == 1]), True
            )
            m = len(out_node)
            return pa.table(
                {
                    "node": pa.array(out_node, pa.int64()),
                    "dst": pa.nulls(m, pa.int64()),
                    "dist": pa.array(out_dist, pa.int64()),
                    "kind": pa.array(np.ones(m, np.int8), pa.int8()),
                    "newly": pa.array(
                        (~has_state).astype(np.int8), pa.int8()
                    ),
                    "bucket": pa.array(
                        _graph_bucket(out_node, n_buckets), pa.int32()
                    ),
                }
            )

        state = (
            msgs.union(state).groupby("bucket").map_groups(
                reduce_min, batch_format="pyarrow"
            )
        ).materialize()
        if not state.sum("newly"):
            break

    df = state.select_columns(["node", "dist"]).to_pandas()
    df = df.rename(columns={"node": "node_id"}).astype(
        {"node_id": "int64", "dist": "int64"}
    )
    return df.sort_values("node_id").reset_index(drop=True)


def g04_bfs_levels(sf_dir: str, rounds: int = 3, node_threshold: int = 50_000_000):
    """Multi-source BFS levels (shortest hop distance, capped at 3)
    over the shared co-purchase graph — the "how far is every entity
    from a seed set" primitive (taxonomy roots, trusted-domain seeds).

    Ray shape, SIZE-GATED like g01: below ``node_threshold`` distinct
    nodes each round broadcasts the CURRENT frontier (node-sized) via
    ``ray.put``, batches emit ``dst`` partials for edges leaving the
    frontier (vectorized ``np.isin`` over both directions), and a
    bucketed distinct reduces them; the driver only ever holds
    node-sized level sets.  Above it, :func:`_bfs_copartition` keeps
    the visited set distributed and co-partitioned with the edges.
    Fixed round count keeps the SQL oracle a closed-form 3-step
    expansion (the g01 precedent)."""
    import ray

    from .stages.agg import bucketed_sum

    edges = _copurchase_edges(sf_dir)
    # node set + seeds (node-sized below the gate)
    us_ds = bucketed_sum(edges, ["u"], [], count_col="n").materialize()
    vs_ds = bucketed_sum(edges, ["v"], [], count_col="n").materialize()
    if us_ds.count() + vs_ds.count() > node_threshold:
        return _bfs_copartition(edges, rounds)
    us, vs = us_ds.to_pandas(), vs_ds.to_pandas()
    nodes = np.union1d(
        us["u"].to_numpy(np.int64), vs["v"].to_numpy(np.int64)
    )
    seeds = nodes[nodes % 70 == 0]
    dist = {int(s): 0 for s in seeds}
    frontier = seeds
    for lvl in range(1, rounds + 1):
        if len(frontier) == 0:
            break
        f_ref = ray.put(np.sort(frontier))

        def reach(batch: pd.DataFrame) -> pd.DataFrame:
            f = ray.get(f_ref)
            u = batch["u"].to_numpy(np.int64)
            v = batch["v"].to_numpy(np.int64)
            out = np.unique(
                np.concatenate([v[np.isin(u, f)], u[np.isin(v, f)]])
            )
            return pd.DataFrame({"id": out})

        nxt = bucketed_sum(
            edges.map_batches(reach, batch_format="pandas"),
            ["id"],
            [],
            count_col="n",
        ).to_pandas()
        cand = nxt["id"].to_numpy(np.int64)
        frontier = np.array(
            [c for c in cand if int(c) not in dist], dtype=np.int64
        )
        for c in frontier:
            dist[int(c)] = lvl
    out = pd.DataFrame(
        {
            "node_id": np.fromiter(dist.keys(), np.int64, len(dist)),
            "dist": np.fromiter(dist.values(), np.int64, len(dist)),
        }
    )
    return out.sort_values("node_id").reset_index(drop=True)


G04_SQL = """
WITH li AS (
  SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
  WHERE l_partkey % 7 = 0),
e0 AS (
  SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
  FROM li a JOIN li b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
e AS (SELECT u AS src, v AS dst FROM e0
      UNION ALL SELECT v, u FROM e0),
n AS (SELECT DISTINCT src AS id FROM e),
l0 AS (SELECT id FROM n WHERE id % 70 = 0),
l1 AS (
  SELECT DISTINCT e.dst AS id FROM e JOIN l0 ON e.src = l0.id
  WHERE e.dst NOT IN (SELECT id FROM l0)),
l2 AS (
  SELECT DISTINCT e.dst AS id FROM e JOIN l1 ON e.src = l1.id
  WHERE e.dst NOT IN (SELECT id FROM l0)
    AND e.dst NOT IN (SELECT id FROM l1)),
l3 AS (
  SELECT DISTINCT e.dst AS id FROM e JOIN l2 ON e.src = l2.id
  WHERE e.dst NOT IN (SELECT id FROM l0)
    AND e.dst NOT IN (SELECT id FROM l1)
    AND e.dst NOT IN (SELECT id FROM l2))
SELECT id AS node_id, CAST(0 AS BIGINT) AS dist FROM l0
UNION ALL SELECT id, 1 FROM l1
UNION ALL SELECT id, 2 FROM l2
UNION ALL SELECT id, 3 FROM l3
"""


def m06_image_dedup(sf_dir: str):
    """Exact decoded-image dedup (stages/multimodal.image_dedup_groups):
    payloads are generated from ``doc_id % 97`` so docs sharing the
    residue carry byte-identical IMAGES; the stage really decodes every
    payload, keys groups by sha1 of (dims + pixel buffer) and keeps the
    min doc_id per group.  The residues are closed-form, so the SQL
    oracle is a plain GROUP BY doc_id % 97 — distinct residues are
    provably distinct images (channel-0 pixel 0 differs for any two
    residues < 97), so a decoder or grouping bug changes rows."""
    from .stages.multimodal import image_dedup_groups, synth_ppm_payload

    ds = _read(sf_dir, "documents", ["doc_id"])

    def to_media(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "payload": pa.array(
                    [synth_ppm_payload(i % 97) for i in ids], pa.binary()
                ),
            }
        )

    media = ds.map_batches(to_media, batch_format="pyarrow", batch_size=256)
    out = image_dedup_groups(media).to_pandas()
    out = out.astype({"keep_id": "int64", "n_dupes": "int64"})
    return out.sort_values("keep_id").reset_index(drop=True)


M06_SQL = """
SELECT CAST(MIN(doc_id) AS BIGINT) AS keep_id,
       CAST(COUNT(*) AS BIGINT) AS n_dupes
FROM documents GROUP BY doc_id % 97
"""


def m04_audio_features(sf_dir: str):
    """REAL multimodal audio decode: RIFF/WAVE mono-PCM payloads
    (deterministically generated from doc_id by closed-form arithmetic)
    flow through the actor-pool decoder, which chunk-walks the RIFF
    container and computes amplitude statistics from the sample BYTES
    alone; the SQL oracle re-derives n_samples/sum_abs/peak/mean from
    the generator arithmetic — so a decoder bug (chunk offset, fmt
    parse, endianness, word alignment) breaks the hash match.  The
    audio analogue of m01's PPM image path (a multimodal operator with
    no reference analogue)."""
    from .stages.multimodal import decode_wav_features, synth_wav_payload

    return decode_wav_features(_media_rows(sf_dir, "a", synth_wav_payload))


M04_SQL = """
WITH dims AS (
  SELECT doc_id,
         64 + (doc_id * 89) % 193 AS n,
         8000 + (doc_id % 8) * 1000 AS rate
  FROM documents),
s AS (
  SELECT doc_id, n, rate,
         abs(((doc_id * 31 + unnest(range(0, n)) * 57) % 2048) - 1024) AS a
  FROM dims)
SELECT printf('a%07d', doc_id) AS media_id,
       CAST(rate AS INTEGER) AS sample_rate,
       CAST(n AS BIGINT) AS n_samples,
       CAST(SUM(a) AS BIGINT) AS sum_abs,
       CAST(MAX(a) AS INTEGER) AS peak_abs,
       CAST(SUM(a) AS DOUBLE) / n AS mean_abs
FROM s GROUP BY doc_id, n, rate
"""


def m07_png_features(sf_dir: str):
    """REAL PNG decode (VERDICT r3 item 7): deterministic RGB PNGs
    (zlib-compressed, per-row None/Sub/Up filters) flow through the
    pure-Python chunk-walk + inflate + unfilter decoder; the SQL oracle
    re-derives width/height/mean_luma from the generator arithmetic, so
    a decode bug (CRC, filter reconstruction, channel order) breaks the
    hash match."""
    from .stages.multimodal import decode_png_features, synth_png_payload

    return decode_png_features(_media_rows(sf_dir, "p", synth_png_payload))


M07_SQL = """
WITH dims AS (
  SELECT doc_id,
         4 + (doc_id * 139) % 29 AS width,
         4 + (doc_id * 199) % 31 AS height
  FROM documents),
px AS (
  SELECT doc_id, width, height, unnest(range(0, width * height)) AS j
  FROM dims)
SELECT printf('p%07d', doc_id) AS media_id,
       CAST(width AS INTEGER) AS width,
       CAST(height AS INTEGER) AS height,
       CAST(width * height AS BIGINT) AS n_pix,
       CAST(SUM((doc_id * 5 + j * 19) % 256
              + (doc_id * 17 + j * 29) % 256
              + (doc_id * 23 + j * 31) % 256) AS DOUBLE)
         / (3.0 * width * height) AS mean_luma
FROM px GROUP BY doc_id, width, height
"""


def j02_set_similarity_join(sf_dir: str):
    """Exact prefix-filtered set-similarity JOIN
    (stages/joins.set_similarity_join — SSJoin/All-Pairs/PPJoin
    family, the operator class of the retrieved set-similarity-join
    papers): R = even-id documents, S = odd-id documents ∪ planted
    exact copies of R (doc_id + 1M), joined on DISTINCT word-trigram
    Jaccard >= 0.5.  The word-soup corpus has genuine near-dup pairs
    at this threshold, so the DuckDB oracle brute-forces the full
    trigram self-join — every emitted (id_a, id_b, jaccard) double
    must match bit-exactly, planted and genuine alike."""
    from .stages.joins import set_similarity_join

    # _read (byte-sized blocks), NOT _read_wide: every kernel in the
    # join is batch-vectorized, and the join runs THREE groupby/union
    # exchanges whose sort cost is per-BLOCK latency — 128-block inputs
    # made the 134k-row token groupby a 5s exchange (256 tiny blocks);
    # byte-sized blocking cut the whole join 24s -> ~6s at sf0.1
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def half(want_even: bool):
        def f(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            m = (ids % 2 == 0) if want_even else (ids % 2 == 1)
            return batch.filter(pa.array(m))

        return f

    r_ds = ds.map_batches(half(True), batch_format="pyarrow")

    def planted(batch: pa.Table) -> pa.Table:
        b = batch.filter(
            pa.array(batch["doc_id"].to_numpy(zero_copy_only=False) % 2 == 0)
        )
        return pa.table(
            {
                "doc_id": pc.add(b["doc_id"], pa.scalar(1_000_000, pa.int64())),
                "text": b["text"],
            }
        )

    s_ds = ds.map_batches(half(False), batch_format="pyarrow").union(
        ds.map_batches(planted, batch_format="pyarrow")
    )
    return set_similarity_join(r_ds, s_ds, threshold=0.5)


J02_SQL = """
WITH r AS (
  SELECT doc_id, text FROM documents WHERE doc_id % 2 = 0),
s AS (
  SELECT doc_id, text FROM documents WHERE doc_id % 2 = 1
  UNION ALL
  SELECT doc_id + 1000000 AS doc_id, text FROM documents WHERE doc_id % 2 = 0),
rt AS (
  SELECT DISTINCT doc_id,
         ws[CAST(i AS INT)] || ' ' || ws[CAST(i AS INT) + 1] || ' '
           || ws[CAST(i AS INT) + 2] AS g
  FROM (SELECT doc_id, string_split(text, ' ') AS ws FROM r),
       LATERAL unnest(generate_series(1, len(ws) - 2)) AS t(i)),
st AS (
  SELECT DISTINCT doc_id,
         ws[CAST(i AS INT)] || ' ' || ws[CAST(i AS INT) + 1] || ' '
           || ws[CAST(i AS INT) + 2] AS g
  FROM (SELECT doc_id, string_split(text, ' ') AS ws FROM s),
       LATERAL unnest(generate_series(1, len(ws) - 2)) AS t(i)),
rn AS (SELECT doc_id, COUNT(*) AS n FROM rt GROUP BY doc_id),
sn AS (SELECT doc_id, COUNT(*) AS n FROM st GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS i
  FROM rt a JOIN st b ON a.g = b.g
  GROUP BY a.doc_id, b.doc_id)
SELECT id_a, id_b,
       CAST(i AS DOUBLE) / (rn.n + sn.n - i) AS jaccard
FROM inter
JOIN rn ON rn.doc_id = id_a
JOIN sn ON sn.doc_id = id_b
WHERE CAST(i AS DOUBLE) / (rn.n + sn.n - i) >= 0.5
"""


def j03_setsim_incremental(sf_dir: str):
    """INCREMENTAL set-similarity join against a PERSISTED prefix-token
    index (stages/joins.save_setsim_index + probe_setsim_index — the
    streaming set-similarity-join setting): the even-id documents are
    indexed ONCE (prefix shards + texts + frozen token order); the
    delta (odd-id docs ∪ planted copies of the evens at doc_id + 1M)
    probes only the shards its prefix tokens touch.  Same relation and
    threshold as j02, so the SAME brute-force DuckDB oracle applies —
    batch and incremental must produce identical pairs bit-exactly."""
    import os as _os
    import shutil

    from .stages.joins import probe_setsim_index, save_setsim_index

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def half(want_even: bool):
        def f(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            m = (ids % 2 == 0) if want_even else (ids % 2 == 1)
            return batch.filter(pa.array(m))

        return f

    path = f"/tmp/naer_setsim_index/{_os.getpid()}-{_os.path.basename(sf_dir.rstrip('/'))}"
    shutil.rmtree(path, ignore_errors=True)
    save_setsim_index(
        ds.map_batches(half(True), batch_format="pyarrow"), path, threshold=0.5
    )

    def planted(batch: pa.Table) -> pa.Table:
        b = batch.filter(
            pa.array(batch["doc_id"].to_numpy(zero_copy_only=False) % 2 == 0)
        )
        return pa.table(
            {
                "doc_id": pc.add(b["doc_id"], pa.scalar(1_000_000, pa.int64())),
                "text": b["text"],
            }
        )

    delta = ds.map_batches(half(False), batch_format="pyarrow").union(
        ds.map_batches(planted, batch_format="pyarrow")
    )
    return probe_setsim_index(delta, path)


# j03's oracle is J02_SQL: identical relation, threshold and output
# contract — the incremental path must reproduce the batch join.


def m09_bmp_features(sf_dir: str):
    """REAL BMP decode: deterministic 24-bit BMPs (BGR byte order,
    bottom-up rows, 4-byte row padding — the format's actual traps)
    flow through the header-parse + de-pad + reorder decoder actor
    pool; the SQL oracle re-derives width/height/mean_luma from the
    generator arithmetic in logical top-down RGB space, so any
    row-order/channel-order/padding mistake breaks the hash match."""
    from .stages.multimodal import decode_bmp_features, synth_bmp_payload

    return decode_bmp_features(_media_rows(sf_dir, "b", synth_bmp_payload))


M09_SQL = """
WITH dims AS (
  SELECT doc_id,
         4 + (doc_id * 149) % 27 AS width,
         4 + (doc_id * 181) % 23 AS height
  FROM documents),
px AS (
  SELECT doc_id, width, height, unnest(range(0, width * height)) AS j
  FROM dims)
SELECT printf('b%07d', doc_id) AS media_id,
       CAST(width AS INTEGER) AS width,
       CAST(height AS INTEGER) AS height,
       CAST(width * height AS BIGINT) AS n_pix,
       CAST(SUM((doc_id * 7 + j * 13) % 256
              + (doc_id * 11 + j * 17) % 256
              + (doc_id * 13 + j * 23) % 256) AS DOUBLE)
         / (3.0 * width * height) AS mean_luma
FROM px GROUP BY doc_id, width, height
"""


def j01_asof_join(sf_dir: str, n_buckets: int = 64):
    """ROW-LEVEL as-of join, Arrow/numpy kernel: for every event, the
    latest order of the same customer with ``o_orderdate <= ts`` (ties
    broken by max orderkey; events with no qualifying order drop out —
    inner as-of).

    Complements q23 (stages/joins.asof_join): q23 merges via pandas
    ``merge_asof`` per bucket and returns an aggregated summary; this
    one emits the per-event match itself and never leaves Arrow/numpy —
    the scale path when the joined rows (not a rollup) are the output.

    Ray shape: tag both sides into one narrow (key, ts, id, side)
    relation, ONE key-hash bucket shuffle co-partitions them, and each
    bucket-run kernel does a lexsort + segmented cumulative-max pass —
    orders sort before events at equal (key, ts) so the ``<=`` bound is
    inclusive, and a per-run floor index kills cross-key carryover.
    O(n log n) per bucket, no per-key dispatch, no composite-int
    encoding (keys and timestamps stay full-width int64)."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    od = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def tag_events(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": batch["user_id"],
                "ts_us": pc.cast(
                    pc.cast(batch["ts"], pa.timestamp("us")), pa.int64()
                ),
                "id": batch["event_id"],
                "side": pa.array(
                    np.ones(batch.num_rows, np.int8), pa.int8()
                ),
            }
        )

    def tag_orders(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": batch["o_custkey"],
                "ts_us": pc.cast(
                    pc.cast(batch["o_orderdate"], pa.timestamp("us")), pa.int64()
                ),
                "id": batch["o_orderkey"],
                "side": pa.array(
                    np.zeros(batch.num_rows, np.int8), pa.int8()
                ),
            }
        )

    both = ev.map_batches(tag_events, batch_format="pyarrow").union(
        od.map_batches(tag_orders, batch_format="pyarrow")
    )

    def bucketize(batch: pa.Table) -> pa.Table:
        b = (batch["key"].to_numpy().astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
             >> np.uint64(40)).astype(np.int64) % n_buckets
        return batch.append_column("bucket", pa.array(b.astype(np.int32), pa.int32()))

    def asof_kernel(g: pa.Table) -> pa.Table:
        key = g["key"].to_numpy().astype(np.int64)
        ts = g["ts_us"].to_numpy().astype(np.int64)
        side = g["side"].to_numpy().astype(np.int8)
        ident = g["id"].to_numpy().astype(np.int64)
        order = np.lexsort((ident, side, ts, key))
        key, ts, side, ident = key[order], ts[order], side[order], ident[order]
        n = len(key)
        if n == 0:
            return pa.table(
                {"event_id": pa.array([], pa.int64()),
                 "o_orderkey": pa.array([], pa.int64())}
            )
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        run_first = np.repeat(starts, np.diff(np.append(starts, n)))
        w = np.where(side == 0, np.arange(n), -1)
        cm = np.maximum.accumulate(w)
        is_event = side == 1
        matched = is_event & (cm >= run_first)
        return pa.table(
            {
                "event_id": pa.array(ident[matched], pa.int64()),
                "o_orderkey": pa.array(ident[cm[matched]], pa.int64()),
            }
        )

    return (
        both.map_batches(bucketize, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(asof_kernel, batch_format="pyarrow")
    )


J01_SQL = """
WITH j AS (
  SELECT e.event_id, o.o_orderkey,
         ROW_NUMBER() OVER (PARTITION BY e.event_id
                            ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
  FROM events e JOIN orders o
    ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts)
SELECT event_id, o_orderkey FROM j WHERE rn = 1
"""


def m08_jpeg_features(sf_dir: str):
    """REAL baseline JPEG decode (retires StubImageDecoder for images —
    VERDICT r3 item 7): deterministic JPEGs (flat 8x8 blocks, DC
    differential Huffman coding, all-ones quant tables, a restart
    interval on every third id) flow through the pure-Python marker
    walk + canonical-Huffman entropy decode + IDCT + floor(x+0.5)
    YCbCr->RGB; the SQL oracle re-derives width/height/mean_y/mean_rgb
    from the generator arithmetic, so a decode bug (Huffman tables, DC
    prediction, RST handling, byte un-stuffing, IDCT scaling, color
    convert) breaks the hash match."""
    from .stages.multimodal import decode_jpeg_features, synth_jpeg_payload

    return decode_jpeg_features(_media_rows(sf_dir, "j", synth_jpeg_payload))


M08_SQL = """
WITH dims AS (
  SELECT doc_id,
         1 + (doc_id * 7) % 4 AS bw,
         1 + (doc_id * 11) % 4 AS bh
  FROM documents),
blk AS (
  SELECT doc_id, bw, bh, unnest(range(0, bw * bh)) AS i FROM dims),
v AS (
  SELECT doc_id, bw, bh,
         CAST((doc_id * 5 + i * 37) % 256 AS DOUBLE) AS vy,
         CAST((doc_id * 17 + i * 41) % 256 AS DOUBLE) AS vcb,
         CAST((doc_id * 23 + i * 43) % 256 AS DOUBLE) AS vcr
  FROM blk),
rgb AS (
  SELECT doc_id, bw, bh, vy,
         LEAST(255.0, GREATEST(0.0,
           FLOOR(vy + 1.402 * (vcr - 128.0) + 0.5))) AS r,
         LEAST(255.0, GREATEST(0.0,
           FLOOR(vy - 0.344136 * (vcb - 128.0) - 0.714136 * (vcr - 128.0)
                 + 0.5))) AS g,
         LEAST(255.0, GREATEST(0.0,
           FLOOR(vy + 1.772 * (vcb - 128.0) + 0.5))) AS b
  FROM v)
SELECT printf('j%07d', doc_id) AS media_id,
       CAST(8 * bw AS INTEGER) AS width,
       CAST(8 * bh AS INTEGER) AS height,
       CAST(bw * bh AS BIGINT) AS n_blocks,
       SUM(vy) / COUNT(*) AS mean_y,
       SUM(r + g + b) / (3.0 * COUNT(*)) AS mean_rgb
FROM rgb GROUP BY doc_id, bw, bh
"""


def m10_mjpeg_frames(sf_dir: str):
    """REAL MJPEG/AVI video decode (closes the last multimodal stub —
    VERDICT r4 item 7): deterministic 1-4-frame Motion-JPEG clips in a
    spec-shaped RIFF/AVI tree (hdrl/avih + strl with
    biCompression='MJPG', movi '00dc' chunks, idx1) flow through the
    container walk + per-frame baseline-JPEG decode
    (stages/multimodal.decode_mjpeg_avi, reusing decode_jpeg verbatim).
    The SQL oracle re-derives n_frames/width/height/mean_y/mean_rgb
    from the generator arithmetic with a frame unnest, so a container
    bug (chunk sizes, pad bytes, frame-count cross-check) or any JPEG
    decode bug breaks the hash match."""
    from .stages.multimodal import decode_mjpeg_features, synth_mjpeg_avi_payload

    return decode_mjpeg_features(_media_rows(sf_dir, "v", synth_mjpeg_avi_payload))


M10_SQL = """
WITH dims AS (
  SELECT doc_id,
         1 + doc_id % 4 AS nf,
         1 + (doc_id * 7) % 4 AS bw,
         1 + (doc_id * 11) % 4 AS bh
  FROM documents),
frm AS (
  SELECT doc_id, nf, bw, bh, unnest(range(0, nf)) AS f FROM dims),
blk AS (
  SELECT doc_id, nf, bw, bh, f, unnest(range(0, bw * bh)) AS i FROM frm),
v AS (
  SELECT doc_id, nf, bw, bh,
         CAST((doc_id * 5 + f * 13 + i * 37) % 256 AS DOUBLE) AS vy,
         CAST((doc_id * 17 + f * 13 + i * 41) % 256 AS DOUBLE) AS vcb,
         CAST((doc_id * 23 + f * 13 + i * 43) % 256 AS DOUBLE) AS vcr
  FROM blk),
rgb AS (
  SELECT doc_id, nf, bw, bh, vy,
         LEAST(255.0, GREATEST(0.0,
           FLOOR(vy + 1.402 * (vcr - 128.0) + 0.5))) AS r,
         LEAST(255.0, GREATEST(0.0,
           FLOOR(vy - 0.344136 * (vcb - 128.0) - 0.714136 * (vcr - 128.0)
                 + 0.5))) AS g,
         LEAST(255.0, GREATEST(0.0,
           FLOOR(vy + 1.772 * (vcb - 128.0) + 0.5))) AS b
  FROM v)
SELECT printf('v%07d', doc_id) AS media_id,
       CAST(nf AS INTEGER) AS n_frames,
       CAST(8 * bw AS INTEGER) AS width,
       CAST(8 * bh AS INTEGER) AS height,
       SUM(vy) / COUNT(*) AS mean_y,
       SUM(r + g + b) / (3.0 * COUNT(*)) AS mean_rgb
FROM rgb GROUP BY doc_id, nf, bw, bh
"""


def s05_global_sort(sf_dir: str):
    """Distributed global sort with exact ranks (TeraSort shape —
    stages/order.range_partition_sort): sampled range bounds partition
    the corpus in ONE all-to-all exchange, each part sorts locally and
    emits its exact global ROW_NUMBER from per-part count offsets.
    Ties (equal values) share a part by construction (searchsorted
    boundaries) and break on the unique event_id — so the oracle's
    ``ROW_NUMBER() OVER (ORDER BY value, event_id)`` must match
    hash-exactly, which verifies the sampling, the boundary
    assignment, the count offsets AND the within-part sort at once."""
    from .stages.order import range_partition_sort

    ds = _read(sf_dir, "events", ["event_id", "value"])
    return range_partition_sort(ds, "value", "event_id", n_parts=64)


S05_SQL = """
SELECT event_id, value,
       ROW_NUMBER() OVER (ORDER BY value, event_id) AS global_rank
FROM events
"""


def m11_image_profile_neardup(sf_dir: str):
    """Signature-based (perceptual-hash-style) image near-dup grouping:
    REAL PPM decode per payload, then an integer row-profile signature —
    bit r set iff row r's luma sum × h exceeds the image's total luma
    sum (the aHash construction with rows as cells, in exact integer
    arithmetic) — and one key-hash bucket-run keyed on (w, h, signature)
    keeps the min doc_id per group.  Byte-different images with the
    same luminance profile unify, which is precisely what exact dedup
    (m06) cannot do.  Every pixel is closed-form in doc_id, so the SQL
    oracle re-derives the row sums, the bit packing AND the grouping —
    a decode, signature or shuffle bug all break the hash."""
    from .stages.agg import bucketed_sum
    from .stages.multimodal import decode_ppm, synth_ppm_payload

    ds = _read(sf_dir, "documents", ["doc_id"]).repartition(32)

    def sig(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        ws, hs, sigs, mins, ns = [], [], [], [], []
        rows_by_key: dict = {}
        for i in ids:
            w, h, pix = decode_ppm(synth_ppm_payload(i))
            lum = pix.astype(np.int64).sum(axis=1)
            rows = lum.reshape(h, w).sum(axis=1)
            total = int(rows.sum())
            bits = (rows * h > total).astype(np.int64)
            packed = int((bits << np.arange(h, dtype=np.int64)).sum())
            key = (w, h, packed)
            cur = rows_by_key.get(key)
            if cur is None:
                rows_by_key[key] = [i, 1]
            else:
                cur[0] = min(cur[0], i)
                cur[1] += 1
        for (w, h, packed), (mn, n) in rows_by_key.items():
            ws.append(w)
            hs.append(h)
            sigs.append(packed)
            mins.append(mn)
            ns.append(n)
        return pa.table(
            {
                "w": pa.array(ws, pa.int64()),
                "h": pa.array(hs, pa.int64()),
                "sig": pa.array(sigs, pa.int64()),
                "min_id": pa.array(mins, pa.int64()),
                "n": pa.array(ns, pa.int64()),
            }
        )

    partials = ds.map_batches(sig, batch_format="pyarrow", batch_size=256)

    def bucketize(batch: pa.Table) -> pa.Table:
        s = batch["sig"].to_numpy(zero_copy_only=False).view(np.uint64)
        w = batch["w"].to_numpy(zero_copy_only=False).view(np.uint64)
        h = batch["h"].to_numpy(zero_copy_only=False).view(np.uint64)
        with np.errstate(over="ignore"):
            mix = (
                s * np.uint64(0x9E3779B97F4A7C15)
                ^ w * np.uint64(0xFF51AFD7ED558CCD)
                ^ h
            )
        return batch.append_column(
            "bucket",
            pa.array((mix % np.uint64(64)).astype(np.int32), pa.int32()),
        )

    def final(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby(["w", "h", "sig"], as_index=False).agg(
            keep_id=("min_id", "min"), n_members=("n", "sum")
        )
        return g[["keep_id", "n_members"]]

    out = (
        partials.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(final, batch_format="pandas")
        .to_pandas()
    )
    return (
        out.astype({"keep_id": "int64", "n_members": "int64"})
        .sort_values("keep_id")
        .reset_index(drop=True)
    )


M11_SQL = """
WITH dims AS (
  SELECT doc_id,
         4 + (doc_id * 131) % 29 AS w,
         4 + (doc_id * 197) % 31 AS h
  FROM documents),
px AS (
  SELECT doc_id, w, h, unnest(range(0, w * h)) AS j FROM dims),
lum AS (
  SELECT doc_id, w, h, j // w AS r,
         (doc_id * 7 + j * 13) % 256
           + (doc_id * 11 + j * 17) % 256
           + (doc_id * 13 + j * 23) % 256 AS l
  FROM px),
rws AS (
  SELECT doc_id, w, h, r, SUM(l) AS rs FROM lum GROUP BY 1, 2, 3, 4),
tot AS (
  SELECT doc_id, SUM(rs) AS ts FROM rws GROUP BY 1),
bits AS (
  SELECT rws.doc_id, w, h,
         SUM(CASE WHEN rs * h > ts THEN CAST(1 AS BIGINT) << r
             ELSE 0 END) AS sig
  FROM rws JOIN tot USING (doc_id) GROUP BY 1, 2, 3)
SELECT CAST(MIN(doc_id) AS BIGINT) AS keep_id,
       CAST(COUNT(*) AS BIGINT) AS n_members
FROM bits GROUP BY w, h, sig
"""


# --------------------------------------------------- hashed-feature models


_FEAT_NBUCKETS = 64
# same bucket in SQL: tokens are ASCII here so the first byte IS the
# code point ascii() returns
_FEAT_SQL_BUCKET = (
    "((31 * length(t) + 7 * ascii(t)"
    " + 13 * ascii(substr(t, length(t), 1))) % 64)"
)


def _token_feature_buckets(flat, mod: int = _FEAT_NBUCKETS):
    """(lens, buckets) int64 arrays for a flat Arrow token array.

    Bucket = (31*len + 7*first_byte + 13*last_byte) % mod — a feature
    hash DuckDB re-derives exactly with length()/ascii()/substr()
    (zero-copy buffer views, no per-token Python).  len==0 entries get
    bucket 0; callers must mask them out.
    """
    from naer_ray.hashing import _varlen_buffers

    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    offs, data = _varlen_buffers(flat)
    lens = offs[1:] - offs[:-1]
    nz = lens > 0
    first = np.zeros(len(lens), np.int64)
    last = np.zeros(len(lens), np.int64)
    first[nz] = data[offs[:-1][nz]]
    last[nz] = data[offs[1:][nz] - 1]
    return lens, (31 * lens + 7 * first + 13 * last) % mod


def t14_hashed_classifier(sf_dir: str):
    """fastText-shaped hashed linear classifier INFERENCE (Joulin et
    al. 2016, "Bag of Tricks for Efficient Text Classification"):
    token → feature-hash bucket → weight lookup; per-doc score = sum
    of token weights; per-language acceptance stats.  The weight
    vector is built once per actor in ``__init__`` (the batched-model-
    inference shape — at real scale this is where the trained
    coefficient matrix loads) and scoring is one vectorized bincount
    per batch.  Integer weights (|w| ≤ 1000, docs ≤ ~1k tokens, so
    float64 bincount accumulation stays exact below 2^53) make the
    DuckDB oracle bit-exact."""

    class Scorer:
        def __init__(self):
            b = np.arange(_FEAT_NBUCKETS, dtype=np.uint64)
            with np.errstate(over="ignore"):
                h = (b * np.uint64(2654435761)) % np.uint64(2**32)
            self.w = (h % np.uint64(2001)).astype(np.int64) - 1000

        def __call__(self, batch: pa.Table) -> pa.Table:
            toks = pc.split_pattern(batch["text"], " ")
            if isinstance(toks, pa.ChunkedArray):
                toks = toks.combine_chunks()
            n = batch.num_rows
            flat = pc.list_flatten(toks)
            if len(flat):
                parents = pc.list_parent_indices(toks).to_numpy(
                    zero_copy_only=False
                )
                lens, buckets = _token_feature_buckets(flat)
                wts = np.where(lens > 0, self.w[buckets], 0)
                scores = np.bincount(
                    parents, weights=wts, minlength=n
                ).astype(np.int64)
            else:
                scores = np.zeros(n, np.int64)
            # per-lang partials: <= n_langs rows leave each task
            df = pd.DataFrame(
                {
                    "lang": batch["lang"].to_pandas(),
                    "score": scores,
                    "pos": (scores > 0).astype(np.int64),
                }
            )
            g = df.groupby("lang", as_index=False).agg(
                n_docs=("score", "size"),
                n_pos=("pos", "sum"),
                sum_score=("score", "sum"),
            )
            return pa.Table.from_pandas(g, preserve_index=False)

    ds = _read(sf_dir, "documents", ["text", "lang"])
    partials = ds.map_batches(
        Scorer, concurrency=4, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    out = partials.groupby("lang", as_index=False).agg(
        n_docs=("n_docs", "sum"),
        n_pos=("n_pos", "sum"),
        sum_score=("sum_score", "sum"),
    )
    for c in ("n_docs", "n_pos", "sum_score"):
        out[c] = out[c].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


T14_SQL = f"""
WITH tok AS (
  SELECT doc_id, UNNEST(string_split(text, ' ')) AS t FROM documents),
s AS (
  SELECT doc_id,
         SUM(CAST((({_FEAT_SQL_BUCKET} * 2654435761) % 4294967296) % 2001
             - 1000 AS BIGINT)) AS score
  FROM tok WHERE t <> '' GROUP BY doc_id),
d AS (
  SELECT documents.doc_id, lang, COALESCE(s.score, 0) AS score
  FROM documents LEFT JOIN s USING (doc_id))
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(CASE WHEN score > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_pos,
       CAST(SUM(score) AS BIGINT) AS sum_score
FROM d GROUP BY lang
"""


def d16_dsir_importance(sf_dir: str):
    """DSIR-shaped data selection (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling"): estimate hashed-token
    feature distributions for the TARGET domain (lang='en') and the
    SOURCE (whole corpus) in one aggregation pass — each batch emits a
    64-bucket count partial, the driver reduces a vector of 2x64 ints
    and the likelihood-ratio table r[b] = cnt_target[b]*1_000_000 //
    (cnt_source[b]+1) is broadcast back into the scoring pass (tiny
    small side, never a shuffle).  Every doc scores as the sum of its
    tokens' ratios; top 100 by (score DESC, doc_id) survive, selected
    with per-block local top-k so only k rows per block reach the
    driver.  Integer ratios keep the oracle exact."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def bucket_counts(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        cs = np.zeros(_FEAT_NBUCKETS, np.int64)
        ct = np.zeros(_FEAT_NBUCKETS, np.int64)
        if len(flat):
            parents = pc.list_parent_indices(toks).to_numpy(
                zero_copy_only=False
            )
            lens, buckets = _token_feature_buckets(flat)
            nz = lens > 0
            cs = np.bincount(buckets[nz], minlength=_FEAT_NBUCKETS)
            is_en = pc.equal(batch["lang"], "en").to_numpy(
                zero_copy_only=False
            )
            en_tok = is_en[parents] & nz
            ct = np.bincount(
                buckets[en_tok], minlength=_FEAT_NBUCKETS
            )
        return pa.table(
            {
                "bucket": pa.array(
                    np.arange(_FEAT_NBUCKETS, dtype=np.int64)
                ),
                "cs": pa.array(cs.astype(np.int64)),
                "ct": pa.array(ct.astype(np.int64)),
            }
        )

    # batch_size=None -> one 64-row partial per BLOCK, so the driver
    # reduce is 64 x n_blocks rows (a vector, not a table) even at
    # 100-TB block counts
    partials = ds.map_batches(
        bucket_counts, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    cnt = partials.groupby("bucket").agg({"cs": "sum", "ct": "sum"})
    cnt = cnt.reindex(range(_FEAT_NBUCKETS), fill_value=0)
    ratio = (
        cnt["ct"].to_numpy() * 1_000_000 // (cnt["cs"].to_numpy() + 1)
    ).astype(np.int64)

    k = 100

    def score_topk(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        n = batch.num_rows
        flat = pc.list_flatten(toks)
        if len(flat):
            parents = pc.list_parent_indices(toks).to_numpy(
                zero_copy_only=False
            )
            lens, buckets = _token_feature_buckets(flat)
            wts = np.where(lens > 0, ratio[buckets], 0)
            scores = np.bincount(
                parents, weights=wts, minlength=n
            ).astype(np.int64)
        else:
            scores = np.zeros(n, np.int64)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -scores))[:k]
        return pa.table(
            {
                "doc_id": pa.array(ids[order], pa.int64()),
                "score": pa.array(scores[order], pa.int64()),
            }
        )

    out = ds.map_batches(
        score_topk, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    out = out.sort_values(
        ["score", "doc_id"], ascending=[False, True]
    ).head(k)
    return out.reset_index(drop=True)


D16_SQL = f"""
WITH tok AS (
  SELECT doc_id, lang, UNNEST(string_split(text, ' ')) AS t
  FROM documents),
f AS (
  SELECT doc_id, lang, {_FEAT_SQL_BUCKET} AS b FROM tok WHERE t <> ''),
cnt AS (
  SELECT b, COUNT(*) AS cs,
         SUM(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS ct
  FROM f GROUP BY b),
r AS (SELECT b, (ct * 1000000) // (cs + 1) AS r FROM cnt),
s AS (
  SELECT f.doc_id, SUM(r.r) AS score FROM f JOIN r USING (b)
  GROUP BY f.doc_id)
SELECT CAST(doc_id AS BIGINT) AS doc_id, CAST(score AS BIGINT) AS score
FROM s ORDER BY score DESC, doc_id LIMIT 100
"""


def _postings_fn(n_shards: int):
    """Per-batch (token, doc_id, tf, shard) posting rows — docs are
    row-local so term frequencies need no shuffle; shared by the x01
    batch build and the x04 incremental delta."""
    from naer_ray.hashing import _fnv64_arr

    def postings(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        if not len(flat):
            return pa.table(
                {
                    "token": pa.array([], pa.string()),
                    "doc_id": pa.array([], pa.int64()),
                    "tf": pa.array([], pa.int64()),
                    "shard": pa.array([], pa.int32()),
                }
            )
        parents = pc.list_parent_indices(toks).to_numpy(
            zero_copy_only=False
        )
        codes = pc.dictionary_encode(flat)
        if isinstance(codes, pa.ChunkedArray):
            codes = codes.combine_chunks()
        vocab = codes.dictionary
        idx = codes.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        key = parents.astype(np.int64) * np.int64(len(vocab)) + idx
        uniq, tf = np.unique(key, return_counts=True)
        tok_ids = (uniq % len(vocab)).astype(np.int64)
        doc_pos = (uniq // len(vocab)).astype(np.int64)
        tok_arr = vocab.take(pa.array(tok_ids))
        keep = pc.not_equal(tok_arr, "").to_numpy(zero_copy_only=False)
        tok_arr = tok_arr.filter(pa.array(keep))
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)[
            doc_pos[keep]
        ]
        shard = (_fnv64_arr(tok_arr) % np.uint64(n_shards)).astype(
            np.int32
        )
        return pa.table(
            {
                "token": tok_arr,
                "doc_id": pa.array(ids, pa.int64()),
                "tf": pa.array(tf[keep], pa.int64()),
                "shard": pa.array(shard, pa.int32()),
            }
        )

    return postings


def _read_index_shards(path: str, q_tokens, n_shards: int):
    """Partition-pruned posting read: only the query tokens' shards."""
    import glob as _glob

    import ray.data

    from naer_ray.hashing import _fnv64_arr

    q_arr = pa.array(list(q_tokens), pa.string())
    shards = sorted({int(s) for s in _fnv64_arr(q_arr) % np.uint64(n_shards)})
    shard_files = [
        f
        for s in shards
        for f in sorted(_glob.glob(f"{path}/shard={s}/*.parquet"))
    ]
    return ray.data.read_parquet(
        shard_files, columns=["token", "doc_id", "tf"]
    ).filter(expr=f"token in {list(q_tokens)!r}")


def _conjunctive_topk(probe, q_tokens, k: int = 10) -> pd.DataFrame:
    """Conjunctive-AND score over a posting Dataset: one doc-hash
    bucket-run keeps docs holding ALL query tokens, sums tf, top-k by
    (score DESC, doc_id)."""

    def bucketize(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        b = (
            (ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
            % np.uint64(64)
        ).astype(np.int32)
        return batch.append_column("bucket", pa.array(b, pa.int32()))

    def conj_topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("doc_id").agg(
            score=("tf", "sum"), nt=("token", "nunique")
        )
        g = g[g["nt"] == len(q_tokens)].reset_index()
        g = g.sort_values(
            ["score", "doc_id"], ascending=[False, True]
        ).head(k)
        return g[["doc_id", "score"]]

    out = (
        probe.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(conj_topk, batch_format="pandas")
        .to_pandas()
    )
    return (
        out.astype({"doc_id": "int64", "score": "int64"})
        .sort_values(["score", "doc_id"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )


def x01_inverted_index_search(sf_dir: str):
    """Inverted-index build + conjunctive probe (Zobel & Moffat 2006,
    "Inverted files for text search engines"): BUILD tokenizes the
    corpus once, derives per-(doc, token) term frequencies inside each
    batch (docs are row-local, so tf needs no shuffle), and writes
    postings as hive-partitioned Parquet sharded by fnv64(token) % 16
    — the persisted-index family (d11 / a08 / j03).  PROBE reads ONLY
    the query tokens' shards (partition-pruned + token-filtered),
    joins the posting lists on doc_id with one doc-hash bucket-run
    (conjunctive AND), scores tf('hash') + tf('vector') and returns
    the top 10 by (score DESC, doc_id)."""
    import os as _os
    import shutil

    n_shards = 16
    q_tokens = ["hash", "vector"]
    path = (
        "/tmp/naer_inverted_index/"
        f"{_os.getpid()}-{_os.path.basename(sf_dir.rstrip('/'))}"
    )
    shutil.rmtree(path, ignore_errors=True)

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    docs.map_batches(
        _postings_fn(n_shards), batch_format="pyarrow"
    ).write_parquet(path, partition_cols=["shard"])

    probe = _read_index_shards(path, q_tokens, n_shards)
    out = _conjunctive_topk(probe, q_tokens)
    shutil.rmtree(path, ignore_errors=True)
    return out


def x04_inverted_incremental(sf_dir: str):
    """INCREMENTAL inverted-index search (the x01 counterpart of
    d11/j03's incremental family): the even-id documents are indexed
    ONCE (hive-sharded postings on disk); the odd-id delta is
    tokenized on the fly and its query-token postings UNION with the
    partition-pruned persisted shards — no index rebuild — before the
    same conjunctive top-10.  Index ∪ delta covers the whole corpus,
    so x01's full-corpus SQL oracle applies unchanged: batch and
    incremental must answer identically."""
    import os as _os
    import shutil

    n_shards = 16
    q_tokens = ["hash", "vector"]
    path = (
        "/tmp/naer_inverted_index/"
        f"{_os.getpid()}-inc-{_os.path.basename(sf_dir.rstrip('/'))}"
    )
    shutil.rmtree(path, ignore_errors=True)

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def half(want_even: bool):
        def f(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            m = (ids % 2 == 0) if want_even else (ids % 2 == 1)
            return batch.filter(pa.array(m))

        return f

    docs.map_batches(half(True), batch_format="pyarrow").map_batches(
        _postings_fn(n_shards), batch_format="pyarrow"
    ).write_parquet(path, partition_cols=["shard"])

    delta = (
        docs.map_batches(half(False), batch_format="pyarrow")
        .map_batches(_postings_fn(n_shards), batch_format="pyarrow")
        .filter(expr=f"token in {q_tokens!r}")
        .select_columns(["token", "doc_id", "tf"])
    )
    probe = _read_index_shards(path, q_tokens, n_shards).union(delta)
    out = _conjunctive_topk(probe, q_tokens)
    shutil.rmtree(path, ignore_errors=True)
    return out


X01_SQL = """
WITH tok AS (
  SELECT doc_id, UNNEST(string_split(text, ' ')) AS t FROM documents),
tf AS (
  SELECT doc_id, t, COUNT(*) AS tf FROM tok
  WHERE t IN ('hash', 'vector') GROUP BY doc_id, t),
j AS (
  SELECT doc_id, SUM(tf) AS score, COUNT(*) AS nt FROM tf
  GROUP BY doc_id)
SELECT CAST(doc_id AS BIGINT) AS doc_id, CAST(score AS BIGINT) AS score
FROM j WHERE nt = 2 ORDER BY score DESC, doc_id LIMIT 10
"""


_T13_BLOCKLIST = [
    "slow",
    "hash value",
    "fast table",
    "agg row",
    "merge batch",
    "key agg",
]


class _BlocklistScanner:
    """Stateful multi-pattern literal scanner (the C4-style phrase
    blocklist pass of training-data curation): the pattern list is
    bound ONCE per actor in ``__init__`` (the brief's actor-pool rule —
    at production size the list is thousands of phrases loaded from a
    broadcast object), and each batch runs one vectorized
    ``pc.count_substring`` per pattern — Arrow kernels end to end, no
    per-row Python.  Counts are non-overlapping left-to-right, matching
    SQL's replace()-length arithmetic exactly."""

    def __init__(self, patterns=None):
        self._patterns = list(patterns or _T13_BLOCKLIST)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        ids = batch["doc_id"]
        for p in self._patterns:
            n = pc.count_substring(batch["text"], p)
            hit = pc.greater(n, 0)
            out.append(
                pa.table(
                    {
                        "doc_id": ids.filter(hit),
                        "pattern": pa.array(
                            [p] * pc.sum(pc.cast(hit, pa.int64())).as_py(),
                            pa.string(),
                        ),
                        "n": pc.cast(n.filter(hit), pa.int64()),
                    }
                )
            )
        return pa.concat_tables(out)


def t13_blocklist_hits(sf_dir: str):
    """Phrase-blocklist content filter (curation counterpart of d06's
    n-gram decontamination: C4 / Gopher pipelines drop documents
    matching a banned-phrase list).  One actor-pool map_batches —
    patterns bound per actor, Arrow count_substring per batch; emits
    (doc_id, pattern, n) for every blocklisted phrase occurrence.  The
    SQL oracle re-counts with the replace()-length trick, so substring
    (not token) semantics and the non-overlapping count rule are both
    verified."""
    ds = _read_wide(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        _BlocklistScanner,
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, 8),
        num_cpus=1,
    )


T13_SQL = """
SELECT doc_id, p AS pattern,
       CAST((length(text) - length(replace(text, p, ''))) // length(p)
            AS BIGINT) AS n
FROM documents,
     (SELECT unnest(['slow', 'hash value', 'fast table', 'agg row',
                     'merge batch', 'key agg']) AS p) pats
WHERE position(p IN text) > 0
"""


def d15_remove_duplicated_spans(sf_dir: str):
    """Substring-dedup APPLY (stages/dedup.remove_duplicated_spans —
    Lee 2021's cleaning step; d12 only reports the pair signal): every
    character covered by a corpus-wide >=2-occurrence 40-gram is
    removed and the survivors concatenate into clean_text.  The SQL
    oracle re-derives the exact same rule per character (dup gram
    starts -> a 39-PRECEDING window max marks coverage -> ordered
    string_agg of the survivors), so the hash match verifies the
    count pass, the candidate marking, the byte-exact confirm AND the
    interval-union apply at once."""
    from .stages.dedup import remove_duplicated_spans

    ds = _read_wide(sf_dir, "documents", ["doc_id", "text"])
    return remove_duplicated_spans(ds, k=40)


D15_SQL = """
WITH g AS (
  SELECT doc_id, CAST(j AS BIGINT) AS j,
         substr(text, CAST(j AS INT), 40) AS gram
  FROM documents,
       LATERAL unnest(generate_series(1, GREATEST(len(text) - 39, 0))) AS t(j)),
dup AS (SELECT gram FROM g GROUP BY gram HAVING COUNT(*) >= 2),
ds AS (SELECT g.doc_id, g.j FROM g JOIN dup USING (gram)),
chars AS (
  SELECT doc_id, CAST(i AS BIGINT) AS i, substr(text, CAST(i AS INT), 1) AS ch
  FROM documents,
       LATERAL unnest(generate_series(1, len(text))) AS t(i)),
flag AS (
  SELECT c.doc_id, c.i, c.ch, CASE WHEN s.j IS NULL THEN 0 ELSE 1 END AS st
  FROM chars c LEFT JOIN ds s ON c.doc_id = s.doc_id AND c.i = s.j),
cov AS (
  SELECT doc_id, i, ch,
         MAX(st) OVER (PARTITION BY doc_id ORDER BY i
                       ROWS BETWEEN 39 PRECEDING AND CURRENT ROW) AS covered
  FROM flag),
agg AS (
  SELECT doc_id,
         COALESCE(string_agg(ch, '' ORDER BY i) FILTER (WHERE covered = 0),
                  '') AS clean_text,
         CAST(COALESCE(SUM(covered), 0) AS BIGINT) AS n_removed
  FROM cov GROUP BY doc_id)
SELECT d.doc_id,
       COALESCE(a.clean_text, d.text) AS clean_text,
       COALESCE(a.n_removed, 0) AS n_removed
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


def _bm25_doc_stats(batch: pa.Table, q_tokens):
    """Per-doc (dl, [tf per query token]) for one batch — split/flatten
    Arrow kernels + bincount, no per-row Python.  dl counts non-empty
    tokens (split artifacts dropped, the x01/t11 rule)."""
    txt = pc.fill_null(batch["text"].combine_chunks(), "")
    toks = pc.split_pattern(txt, " ")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    n = len(txt)
    nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    dl = np.bincount(parents[nonempty], minlength=n).astype(np.int64)
    tfs = []
    for t in q_tokens:
        eq = pc.equal(flat, t).to_numpy(zero_copy_only=False)
        tfs.append(np.bincount(parents[eq], minlength=n).astype(np.int64))
    return dl, tfs


def x02_bm25_topk(sf_dir: str, k: int = 10):
    """BM25 ranked retrieval (Robertson & Zaragoza 2009; k1=1.2,
    b=0.75) — the scoring layer on top of x01's boolean inverted-index
    probe, the retrieval shape curation pipelines use to mine
    exemplars.

    Ray shape — two streaming passes, NO shuffle: pass 1 computes the
    collection statistics (N, total length, per-query-token df) as
    one-row-per-batch partials summed on the driver (4 ints); pass 2
    re-scans with the broadcast constants closed over, scores matching
    docs vectorized, and keeps a LOCAL top-k per batch, so the driver
    merge is bounded by blocks x k rows.  (A standing corpus would
    persist x01's index instead of re-scanning; two passes is the
    index-free streaming shape.)

    Exactness: the output is (rnk, doc_id) only — both sides compute
    the identical double expression (same association, single
    divisions, <=2-term sums which IEEE addition makes order-free), so
    the ranking is stable; scores themselves stay out of the hash."""
    cand = _bm25_ranked(sf_dir, ("hash", "vector"), k)
    return pd.DataFrame(
        {
            "rnk": np.arange(1, len(cand) + 1, dtype=np.int64),
            "doc_id": cand["doc_id"].to_numpy(np.int64),
        }
    )


def _bm25_ranked(sf_dir: str, q_tokens, topn: int) -> pd.DataFrame:
    """Shared BM25 scorer (k1=1.2, b=0.75): the two streaming passes
    behind x02 and the lexical arm of x10 — ONE implementation so the
    two queries can never diverge.  Returns the global top-``topn``
    (doc_id, score) ordered (score DESC, doc_id ASC); per-batch local
    top-``topn`` bounds the driver merge at blocks x topn rows."""
    import math

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def stats_partial(batch: pa.Table) -> pa.Table:
        dl, tfs = _bm25_doc_stats(batch, q_tokens)
        cols = {
            "n_docs": pa.array([int((dl > 0).sum())], pa.int64()),
            "total_len": pa.array([int(dl.sum())], pa.int64()),
        }
        for i, tf in enumerate(tfs):
            cols[f"df_{i}"] = pa.array([int((tf > 0).sum())], pa.int64())
        return pa.table(cols)

    st = (
        ds.map_batches(stats_partial, batch_format="pyarrow")
        .to_pandas()
        .sum()
    )
    n_corpus = int(st["n_docs"])
    avgdl = int(st["total_len"]) / n_corpus
    idf = [
        math.log((n_corpus - int(st[f"df_{i}"]) + 0.5) / (int(st[f"df_{i}"]) + 0.5))
        for i in range(len(q_tokens))
    ]

    def score_topk(batch: pa.Table) -> pa.Table:
        dl, tfs = _bm25_doc_stats(batch, q_tokens)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        match = np.sum(tfs, axis=0) > 0
        if not match.any():
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "score": pa.array([], pa.float64()),
                }
            )
        dlm = dl[match].astype(np.float64)
        score = np.zeros(int(match.sum()), np.float64)
        for idf_t, tf in zip(idf, tfs):
            tfm = tf[match].astype(np.float64)
            score = score + idf_t * (
                (tfm * 2.2) / (tfm + 1.2 * (0.25 + 0.75 * (dlm / avgdl)))
            )
        idsm = ids[match]
        o = np.lexsort((idsm, -score))[:topn]
        return pa.table(
            {
                "doc_id": pa.array(idsm[o], pa.int64()),
                "score": pa.array(score[o], pa.float64()),
            }
        )

    cand = ds.map_batches(score_topk, batch_format="pyarrow").to_pandas()
    return cand.sort_values(
        ["score", "doc_id"], ascending=[False, True]
    ).head(topn)


X02_SQL = """
WITH tok AS (
  SELECT doc_id, t FROM (
    SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents)
  WHERE t <> ''),
dl AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS dl FROM tok GROUP BY doc_id),
stats AS (SELECT CAST(SUM(dl) AS DOUBLE) / COUNT(*) AS avgdl,
                 CAST(COUNT(*) AS BIGINT) AS n FROM dl),
tf AS (SELECT doc_id, t, CAST(COUNT(*) AS BIGINT) AS tf FROM tok
       WHERE t IN ('hash', 'vector') GROUP BY doc_id, t),
df AS (SELECT t, CAST(COUNT(*) AS BIGINT) AS df FROM tf GROUP BY t),
sc AS (
  SELECT tf.doc_id,
         SUM( ln((CAST(stats.n AS DOUBLE) - df.df + 0.5)
                 / (CAST(df.df AS DOUBLE) + 0.5))
              * ((CAST(tf.tf AS DOUBLE) * 2.2)
                 / (CAST(tf.tf AS DOUBLE)
                    + 1.2 * (0.25
                             + 0.75 * (CAST(dl.dl AS DOUBLE)
                                       / stats.avgdl)))) ) AS score
  FROM tf JOIN df USING (t) JOIN dl USING (doc_id) CROSS JOIN stats
  GROUP BY tf.doc_id)
SELECT CAST(ROW_NUMBER() OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS rnk,
       doc_id
FROM sc ORDER BY score DESC, doc_id LIMIT 10
"""


def t15_bigram_lm(sf_dir: str):
    """Bigram-LM quality scoring (stages/text.bigram_lm_score): the
    order-aware CCNet-style LM filter — word-salad documents score low
    on adjacent-pair frequency even when each word is common.  Bigram
    histogram shuffle + broadcast-frequency scoring pass; integer-exact
    per-doc stats (the t11 discipline) so the oracle hashes
    bit-identically — no float log sums."""
    from .stages.text import bigram_lm_score

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return bigram_lm_score(ds)


T15_SQL = r"""
WITH l AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS toks
  FROM documents),
bg AS (
  SELECT doc_id,
         unnest(list_transform(range(1, len(toks)),
                               i -> toks[i] || ' ' || toks[i + 1])) AS b
  FROM l WHERE len(toks) >= 2),
vocab AS (SELECT b, CAST(COUNT(*) AS BIGINT) AS c FROM bg GROUP BY b)
SELECT bg.doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_bigrams,
       CAST(SUM(v.c) AS BIGINT) AS sum_bg_freq,
       MIN(v.c) AS min_bg_freq,
       CAST(SUM(v.c) AS DOUBLE) / COUNT(*) AS avg_bg_freq
FROM bg JOIN vocab v ON v.b = bg.b
GROUP BY bg.doc_id
"""


def d17_url_canonical_dedup(sf_dir: str, n_buckets: int = 64):
    """URL-canonical dedup (the CommonCrawl curation rule: ONE document
    per canonical URL, keep the best capture): each doc's raw URL is
    derived by u01's closed-form arithmetic, REALLY parsed/normalized
    (stages/url.parse_normalize_urls — case-fold, default-port strip,
    tracking-param removal), then canonicalized to scheme://host/path
    (query dropped entirely, the aggressive canonical form), and the
    longest document per canonical URL wins (ties -> lowest doc_id).

    Ray shape: per-batch local combiner (one candidate row per key per
    batch — thins the exchange like bucketed_sum's partials), ONE
    key-hash bucket shuffle (vectorized FNV64), per-bucket best-of
    merge.  Output: (url_key, kept_doc_id, n_docs)."""
    from naer_ray.hashing import _fnv64_arr
    from .stages.url import parse_normalize_urls

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source", "text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        ids = batch["doc_id"].combine_chunks().to_numpy()
        m211 = pa.array((ids % 211).astype("U"), type=pa.string())
        m13 = pa.array((ids % 13).astype("U"), type=pa.string())
        raw = pc.binary_join_element_wise(
            pa.scalar("HTTPS://"),
            pc.utf8_upper(batch["source"].combine_chunks()),
            pa.scalar(".Example.COM:443/"),
            batch["lang"].combine_chunks(),
            pa.scalar("/page-"),
            m211,
            pa.scalar("?utm_source=feed&id="),
            m13,
            "",
        )
        parsed = parse_normalize_urls(raw)
        key = pc.binary_join_element_wise(
            pa.scalar("https://"), parsed["host"], parsed["path"], ""
        )
        bucket = (_fnv64_arr(key) % np.uint64(n_buckets)).astype(np.int32)
        df = pd.DataFrame(
            {
                "url_key": key.to_pandas(),
                "doc_id": ids.astype(np.int64),
                "len": pc.utf8_length(batch["text"].combine_chunks())
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "bucket": bucket,
            }
        )
        df = df.sort_values(["len", "doc_id"], ascending=[False, True])
        return df.groupby(["url_key", "bucket"], as_index=False, sort=False).agg(
            doc_id=("doc_id", "first"),
            len=("len", "first"),
            n=("doc_id", "size"),
        )

    def best_of(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["len", "doc_id"], ascending=[False, True])
        out = g.groupby("url_key", as_index=False, sort=False).agg(
            kept_doc_id=("doc_id", "first"),
            n_docs=("n", "sum"),
        )
        return out[["url_key", "kept_doc_id", "n_docs"]].astype(
            {"kept_doc_id": "int64", "n_docs": "int64"}
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(best_of, batch_format="pandas")
    )


D17_SQL = """
WITH u AS (
  SELECT doc_id,
         'https://' || source || '.example.com/' || lang || '/page-'
           || CAST(doc_id % 211 AS VARCHAR) AS url_key,
         length(text) AS len
  FROM documents)
SELECT url_key, doc_id AS kept_doc_id, CAST(n_docs AS BIGINT) AS n_docs
FROM (SELECT url_key, doc_id,
             COUNT(*) OVER (PARTITION BY url_key) AS n_docs,
             ROW_NUMBER() OVER (PARTITION BY url_key
                                ORDER BY len DESC, doc_id) AS rn
      FROM u)
WHERE rn = 1
"""


def d19_soft_dedup(sf_dir: str, threshold: float = 0.6):
    """Soft deduplication — near-dups are DOWN-WEIGHTED instead of
    removed (the SoftDeDup idea, She et al. 2024: keep every document
    but train each duplicate cluster with total weight 1): every doc
    gets ``weight = 1 / n_cluster`` where the cluster is d18's
    trigram-Jaccard connected component (singletons weigh 1.0).

    Ray shape: the shared d18 derivation (setsim self-join -> CC),
    then cluster sizes reduce on the DRIVER over the dup-set-sized
    label frame (a tiny groupby — clusters are a small corpus
    fraction) and broadcast alongside the label map into one final
    corpus scan.  Exactness: n_cluster is an exact integer count;
    weight is ONE double division of exact ints on both sides."""
    import ray

    labels = _neardup_labels(sf_dir, threshold)
    sizes = labels.groupby("label")["node"].size()
    labels = labels.assign(n=labels["label"].map(sizes).astype(np.int64))
    nodes = labels["node"].to_numpy(np.int64)
    order = np.argsort(nodes)
    lbl_ref = ray.put(
        (
            nodes[order],
            labels["label"].to_numpy(np.int64)[order],
            labels["n"].to_numpy(np.int64)[order],
        )
    )

    def weight_map(batch: pa.Table) -> pa.Table:
        nodes_s, labs_s, ns_s = ray.get(lbl_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cluster = ids.copy()
        n_cluster = np.ones(len(ids), np.int64)
        if len(nodes_s):
            pos = np.searchsorted(nodes_s, ids)
            pos_c = np.clip(pos, 0, len(nodes_s) - 1)
            hit = nodes_s[pos_c] == ids
            cluster[hit] = labs_s[pos_c[hit]]
            n_cluster[hit] = ns_s[pos_c[hit]]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "cluster_id": pa.array(cluster, pa.int64()),
                "n_cluster": pa.array(n_cluster, pa.int64()),
                "weight": pa.array(
                    np.float64(1.0) / n_cluster, pa.float64()
                ),
            }
        )

    return _read(sf_dir, "documents", ["doc_id"]).map_batches(
        weight_map, batch_format="pyarrow"
    )


D19_SQL = """
WITH RECURSIVE tri AS (
  SELECT DISTINCT doc_id,
         ws[CAST(i AS INT)] || ' ' || ws[CAST(i AS INT) + 1] || ' '
           || ws[CAST(i AS INT) + 2] AS g
  FROM (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
       LATERAL unnest(generate_series(1, len(ws) - 2)) AS t(i)),
n AS (SELECT doc_id, COUNT(*) AS n FROM tri GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS i
  FROM tri a JOIN tri b ON a.g = b.g AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id),
e AS (
  SELECT id_a, id_b FROM inter
  JOIN n na ON na.doc_id = id_a JOIN n nb ON nb.doc_id = id_b
  WHERE CAST(i AS DOUBLE) / (na.n + nb.n - i) >= 0.6),
und AS (SELECT id_a AS u, id_b AS v FROM e
        UNION ALL SELECT id_b AS u, id_a AS v FROM e),
walk(node, lbl) AS (
  SELECT u AS node, u AS lbl FROM und
  UNION
  SELECT w.v AS node, walk.lbl FROM walk JOIN und w ON w.u = walk.node),
lab AS (SELECT node, MIN(lbl) AS lbl FROM walk GROUP BY node),
m AS (
  SELECT d.doc_id, CAST(COALESCE(lab.lbl, d.doc_id) AS BIGINT) AS cluster_id
  FROM documents d LEFT JOIN lab ON lab.node = d.doc_id),
c AS (SELECT cluster_id, CAST(COUNT(*) AS BIGINT) AS n_cluster
      FROM m GROUP BY cluster_id)
SELECT m.doc_id, m.cluster_id, c.n_cluster,
       CAST(1 AS DOUBLE) / c.n_cluster AS weight
FROM m JOIN c USING (cluster_id)
"""


def g05_connected_components(sf_dir: str):
    """Standalone connected-components over the shared co-purchase
    graph (stages/dedup.connected_components — the distributed
    min-label propagation d04/d10/c01 ride internally, surfaced as a
    first-class graph query with its own SQL oracle): per node, the
    component label = min node id of its component.

    Ray shape: the shared ``_copurchase_edges`` derivation, then CC's
    two-bucketed-shuffle rounds (Arrow-native; small graphs take the
    driver union-find fast path, tests force the distributed path with
    ``driver_threshold=0``).  The SQL oracle is a recursive-CTE
    reachability closure (min label over all nodes that can reach each
    node) — exact, no iteration-count assumption."""
    from naer_ray.stages.canon import connected_components

    edges = _copurchase_edges(sf_dir)

    def as_pairs(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id_a": pc.cast(batch["u"], pa.int64()),
                "id_b": pc.cast(batch["v"], pa.int64()),
            }
        )

    out = (
        connected_components(edges.map_batches(as_pairs, batch_format="pyarrow"))
        .to_pandas()
        .rename(columns={"label": "component"})
        .astype({"node": "int64", "component": "int64"})
    )
    return out.sort_values("node").reset_index(drop=True)


G05_SQL = """
WITH RECURSIVE li AS (
  SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
  WHERE l_partkey % 7 = 0),
e AS (
  SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
  FROM li a JOIN li b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
und AS (SELECT u, v FROM e UNION ALL SELECT v AS u, u AS v FROM e),
walk(node, lbl) AS (
  SELECT u AS node, u AS lbl FROM und
  UNION
  SELECT w.v AS node, walk.lbl
  FROM walk JOIN und w ON w.u = walk.node)
SELECT CAST(node AS BIGINT) AS node,
       CAST(MIN(lbl) AS BIGINT) AS component
FROM walk GROUP BY node
"""


def _neardup_labels(sf_dir: str, threshold: float) -> pd.DataFrame:
    """Shared d18/d19 cluster derivation: exact set-similarity
    SELF-join (trigram Jaccard >= threshold) -> connected components.
    Returns the (node, label) frame for every doc incident to a
    near-dup edge (dup-set-sized; singletons are absent)."""
    from naer_ray.stages.canon import connected_components
    from .stages.joins import set_similarity_self_join

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = set_similarity_self_join(ds, threshold=threshold)
    edges = pairs.select_columns(["id_a", "id_b"])  # already id_a < id_b
    return connected_components(edges).to_pandas()


def d18_neardup_dedup_apply(sf_dir: str, threshold: float = 0.6):
    """Fuzzy-dedup APPLY — the end-to-end near-duplicate removal rule
    web-scale curation pipelines actually run (Brown 2020 / Rae 2021
    shape): find all document pairs with word-trigram set Jaccard >=
    ``threshold`` (prefix-filtered exact set-similarity SELF-join),
    union them into clusters (connected components), and map EVERY doc
    to its cluster canonical (min doc_id; singletons map to
    themselves).  Downstream, keep rows where doc_id == canonical_id.

    Ray shape: stages/joins.set_similarity_self_join (ONE prefix pass,
    upper-triangle candidates — half the exchange and verify volume of
    the cross form on duplicated sides), then
    stages/dedup.connected_components, then a broadcast label map over
    one final corpus scan (near-dup clusters are a small fraction of
    the corpus; the documented co-partition fallback is the g01
    pattern).  The oracle re-derives pairs by brute-force trigram join
    AND the closure by recursive CTE, so the candidate generation,
    exact verify, CC and apply are all checked at once."""
    import ray

    labels = _neardup_labels(sf_dir, threshold)
    nodes = labels["node"].to_numpy(np.int64)
    labs = labels["label"].to_numpy(np.int64)
    order = np.argsort(nodes)
    lbl_ref = ray.put((nodes[order], labs[order]))

    def apply_map(batch: pa.Table) -> pa.Table:
        nodes_s, labs_s = ray.get(lbl_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        canon = ids.copy()
        if len(nodes_s):
            pos = np.searchsorted(nodes_s, ids)
            pos_c = np.clip(pos, 0, len(nodes_s) - 1)
            hit = nodes_s[pos_c] == ids
            canon[hit] = labs_s[pos_c[hit]]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "canonical_id": pa.array(canon, pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id"]).map_batches(
        apply_map, batch_format="pyarrow"
    )


D18_SQL = """
WITH RECURSIVE tri AS (
  SELECT DISTINCT doc_id,
         ws[CAST(i AS INT)] || ' ' || ws[CAST(i AS INT) + 1] || ' '
           || ws[CAST(i AS INT) + 2] AS g
  FROM (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
       LATERAL unnest(generate_series(1, len(ws) - 2)) AS t(i)),
n AS (SELECT doc_id, COUNT(*) AS n FROM tri GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS i
  FROM tri a JOIN tri b ON a.g = b.g AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id),
e AS (
  SELECT id_a, id_b FROM inter
  JOIN n na ON na.doc_id = id_a JOIN n nb ON nb.doc_id = id_b
  WHERE CAST(i AS DOUBLE) / (na.n + nb.n - i) >= 0.6),
und AS (SELECT id_a AS u, id_b AS v FROM e
        UNION ALL SELECT id_b AS u, id_a AS v FROM e),
walk(node, lbl) AS (
  SELECT u AS node, u AS lbl FROM und
  UNION
  SELECT w.v AS node, walk.lbl FROM walk JOIN und w ON w.u = walk.node),
lab AS (SELECT node, MIN(lbl) AS lbl FROM walk GROUP BY node)
SELECT d.doc_id,
       CAST(COALESCE(lab.lbl, d.doc_id) AS BIGINT) AS canonical_id
FROM documents d LEFT JOIN lab ON lab.node = d.doc_id
"""


def w09_windowed_dedup(
    sf_dir: str, window_us: int = 3_600_000_000, n_buckets: int = 64
):
    """Time-windowed event dedup (the crawl-recapture / telemetry
    throttle rule: drop an event when the SAME key fired within the
    last hour).  Key = (user_id, event_type); the gap is measured to
    the immediately preceding capture (raw-LAG semantics, exactly what
    SQL's LAG window expresses), deterministic order (ts, event_id).

    Ray shape: ONE user-hash bucket shuffle (keys never straddle
    buckets), in-kernel lexsort + vectorized shift/diff — no per-row
    Python, no global sort."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def bucketize(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column(
            "bucket", pa.array((u % n_buckets).astype(np.int32), pa.int32())
        )

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_type", "ts", "event_id"])
        ts = g["ts"].astype("int64").to_numpy()
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        drop = np.zeros(len(g), bool)
        if len(g) > 1:
            same = (uid[1:] == uid[:-1]) & (et[1:] == et[:-1])
            drop[1:] = same & ((ts[1:] - ts[:-1]) <= window_us)
        out = g.loc[~drop, ["event_id", "user_id", "event_type"]]
        return out.astype({"event_id": "int64", "user_id": "int64"})

    return (
        ds.map_batches(bucketize, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(kern, batch_format="pandas")
    )


W09_SQL = """
WITH o AS (
  SELECT event_id, user_id, event_type,
         ts - LAG(ts) OVER (PARTITION BY user_id, event_type
                            ORDER BY ts, event_id) AS gap
  FROM events)
SELECT event_id, user_id, event_type
FROM o WHERE gap IS NULL OR gap > INTERVAL 1 HOUR
"""


def x03_phrase_search(sf_dir: str, phrase: str = "hash vector"):
    """Exact PHRASE search (the positional-index query x01's
    bag-of-words probe cannot answer: the terms must be ADJACENT and in
    order): per-doc occurrence count of a two-word phrase, docs with
    >= 1 hit.  Ray shape: one shuffle-free streaming pass — the t15
    bigram kernel (split/flatten/shift, doc-boundary masked) +
    pc.equal + one bincount per batch; no per-row Python.  (A standing
    corpus persists positional postings; single-pass is the index-free
    shape, the x02 note.)"""
    from .stages.text import _batch_bigrams, _string_array

    def count_phrase(batch: pa.Table) -> pa.Table:
        bg, parents, n = _batch_bigrams(_string_array(batch["text"]))
        if len(bg):
            eq = pc.equal(bg, phrase).to_numpy(zero_copy_only=False)
            cnt = np.bincount(parents[eq], minlength=n).astype(np.int64)
        else:
            cnt = np.zeros(n, np.int64)
        keep = cnt > 0
        return pa.table(
            {
                "doc_id": batch["doc_id"].combine_chunks().filter(pa.array(keep)),
                "n_occurrences": pa.array(cnt[keep], pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(count_phrase, batch_format="pyarrow")


X03_SQL = r"""
WITH l AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS toks
  FROM documents),
bg AS (
  SELECT doc_id,
         unnest(list_transform(range(1, len(toks)),
                               i -> toks[i] || ' ' || toks[i + 1])) AS b
  FROM l WHERE len(toks) >= 2)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_occurrences
FROM bg WHERE b = 'hash vector' GROUP BY doc_id
"""


def m12_audio_decimate(sf_dir: str, factor: int = 2):
    """Audio sample-rate reduction by decimation (the resample stage of
    a speech pipeline, naive keep-every-``factor``-th form so the
    output is closed-form deterministic): the m04 WAV payloads decoded
    for REAL (RIFF walk + PCM), decimated, then integer energy / peak
    over the surviving samples.  Stateless map_batches (decode_wav is
    a pure function, no per-actor state to amortize); the SQL oracle
    re-derives the kept samples (j % factor = 0) from the generator
    arithmetic, so decode, decimation phase and the feature math are
    all checked."""
    from .stages.multimodal import decode_wav, synth_wav_payload

    ds = _read(sf_dir, "documents", ["doc_id"])

    def feats(batch: pa.Table) -> pa.Table:
        out = {"media_id": [], "n_samples": [], "sum_abs": [], "peak_abs": []}
        for i in batch["doc_id"].to_pylist():
            _rate, s = decode_wav(synth_wav_payload(i))
            a = np.abs(s[::factor].astype(np.int64))
            out["media_id"].append(f"a{i:07d}")
            out["n_samples"].append(len(a))
            out["sum_abs"].append(int(a.sum()))
            out["peak_abs"].append(int(a.max()))
        return pa.table(
            {
                "media_id": pa.array(out["media_id"], pa.string()),
                "n_samples": pa.array(out["n_samples"], pa.int64()),
                "sum_abs": pa.array(out["sum_abs"], pa.int64()),
                "peak_abs": pa.array(out["peak_abs"], pa.int32()),
            }
        )

    return ds.map_batches(feats, batch_format="pyarrow", batch_size=256)


M12_SQL = """
WITH dims AS (
  SELECT doc_id, 64 + (doc_id * 89) % 193 AS n FROM documents),
s AS (
  SELECT doc_id,
         unnest(range(0, n)) AS j,
         abs(((doc_id * 31 + unnest(range(0, n)) * 57) % 2048) - 1024) AS a
  FROM dims)
SELECT printf('a%07d', doc_id) AS media_id,
       CAST(COUNT(*) AS BIGINT) AS n_samples,
       CAST(SUM(a) AS BIGINT) AS sum_abs,
       CAST(MAX(a) AS INTEGER) AS peak_abs
FROM s WHERE j % 2 = 0 GROUP BY doc_id
"""


def j04_interval_join(sf_dir: str, window_us: int = 21_600_000_000, n_buckets: int = 64):
    """Stream-stream event-time INTERVAL join (Flink's interval join —
    the attribution query: every purchase by the same user within 6
    hours AFTER a click), a distinct join class from q23/j01 (as-of:
    nearest one) and q26 (value-range): ALL matches inside the time
    bound, keyed by user.

    Ray shape: one streaming pass filters both sides and buckets by
    user hash (co-partition — a user's clicks and purchases land in
    the same bucket, nothing broadcast); the per-bucket kernel is
    fully vectorized — purchases sort once by (user, ts), each side
    maps to a composite int64 key ``user * span + ts_offset`` (span
    bound asserted against int64), two ``np.searchsorted`` calls give
    every click's match range, and the ragged ranges expand with the
    repeat/cumsum trick.  No per-row or per-user Python loop."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def bucketize(batch: pa.Table) -> pa.Table:
        keep = batch.filter(
            pc.is_in(
                batch["event_type"],
                value_set=pa.array(["click", "purchase"], pa.string()),
            )
        )
        u = keep["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return keep.append_column(
            "bucket", pa.array((u % n_buckets).astype(np.int32), pa.int32())
        )

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "click_id": pd.Series([], dtype="int64"),
                "purchase_id": pd.Series([], dtype="int64"),
                "user_id": pd.Series([], dtype="int64"),
                "gap_us": pd.Series([], dtype="int64"),
            }
        )
        c = g[g["event_type"] == "click"]
        p = g[g["event_type"] == "purchase"]
        if not len(c) or not len(p):
            return empty
        ts_all = g["ts"].astype("int64")
        tmin = int(ts_all.min())
        span = int(ts_all.max()) - tmin + window_us + 2
        p = p.sort_values(["user_id", "ts", "event_id"])
        pu = p["user_id"].to_numpy(np.int64)
        pt = p["ts"].astype("int64").to_numpy() - tmin
        cu = c["user_id"].to_numpy(np.int64)
        ct = c["ts"].astype("int64").to_numpy() - tmin
        if (int(max(pu.max(), cu.max())) + 1) * span >= 2**63:
            raise ValueError(
                "interval-join composite key would overflow int64; shrink "
                "the bucket time span or key range"
            )
        key_p = pu * span + pt  # ascending: sorted by (user, ts), pt < span
        lo = np.searchsorted(key_p, cu * span + ct, side="left")
        hi = np.searchsorted(key_p, cu * span + ct + window_us, side="right")
        cnt = hi - lo
        total = int(cnt.sum())
        if not total:
            return empty
        starts = np.repeat(lo, cnt)
        offs = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(cnt) - cnt, cnt
        )
        pidx = starts + offs
        cids = np.repeat(c["event_id"].to_numpy(np.int64), cnt)
        return pd.DataFrame(
            {
                "click_id": cids,
                "purchase_id": p["event_id"].to_numpy(np.int64)[pidx],
                "user_id": np.repeat(cu, cnt),
                "gap_us": pt[pidx] - np.repeat(ct, cnt),
            }
        )

    return (
        ds.map_batches(bucketize, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(join_bucket, batch_format="pandas")
    )


J04_SQL = """
WITH c AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'click'),
p AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase')
SELECT c.event_id AS click_id, p.event_id AS purchase_id, c.user_id,
       epoch_us(p.ts) - epoch_us(c.ts) AS gap_us
FROM c JOIN p ON c.user_id = p.user_id
  AND p.ts >= c.ts AND p.ts <= c.ts + INTERVAL 6 HOUR
"""


def i03_late_events(sf_dir: str, n_buckets: int = 64):
    """Watermark / late-event classification (the out-of-order-arrival
    concern of §2.9 streaming semantics, surfaced as its own operator):
    events arrive shard-interleaved — arrival order is
    ``(event_id % 7, event_id)``, the round-robin merge of 7 source
    shards, so event time is genuinely out of order; a per-user
    watermark is the running max event-time seen so far, and an event
    is LATE when its ts is strictly below the watermark of the events
    that arrived before it.  Output: per user, total events, late count, and the
    max lateness in microseconds (0 when none).

    Ray shape: ONE user-hash bucket shuffle; the kernel sorts each
    bucket by (user_id, event_id) and computes the exclusive running
    max via a shifted ``np.maximum.accumulate`` per user run — all
    vectorized, run boundaries handled by resetting the shifted value
    at run starts."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def bucketize(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column(
            "bucket", pa.array((u % n_buckets).astype(np.int32), pa.int32())
        )

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(_shard=g["event_id"].to_numpy(np.int64) % 7)
        g = g.sort_values(["user_id", "_shard", "event_id"])
        u = g["user_id"].to_numpy(np.int64)
        ts = pd.Series(g["ts"].astype("int64").to_numpy())
        # exclusive per-user running max (the watermark): grouped shift
        # + grouped cummax, both pandas C kernels; run starts get
        # int64.min so they can never be late
        prev = (
            ts.groupby(u)
            .shift(1)
            .fillna(np.iinfo(np.int64).min)
            .astype(np.int64)
        )
        wm = prev.groupby(u).cummax().to_numpy()
        tsv = ts.to_numpy()
        late = tsv < wm
        lateness = np.where(late, wm - tsv, 0)
        out = pd.DataFrame(
            {"user_id": u, "late": late.astype(np.int64), "lateness": lateness}
        )
        agg = out.groupby("user_id", as_index=False).agg(
            n_events=("late", "size"),
            n_late=("late", "sum"),
            max_lateness_us=("lateness", "max"),
        )
        return agg.astype(
            {
                "n_events": "int64",
                "n_late": "int64",
                "max_lateness_us": "int64",
            }
        )

    return (
        ds.map_batches(bucketize, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(kern, batch_format="pandas")
    )


I03_SQL = """
WITH w AS (
  SELECT user_id, epoch_us(ts) AS t,
         MAX(epoch_us(ts)) OVER (PARTITION BY user_id
                                 ORDER BY event_id % 7, event_id
                                 ROWS BETWEEN UNBOUNDED PRECEDING
                                 AND 1 PRECEDING) AS wm
  FROM events)
SELECT user_id,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(CASE WHEN t < wm THEN 1 ELSE 0 END) AS BIGINT) AS n_late,
       CAST(COALESCE(MAX(CASE WHEN t < wm THEN wm - t END), 0) AS BIGINT)
           AS max_lateness_us
FROM w GROUP BY user_id
"""


def t16_token_drift(sf_dir: str, k: int = 25):
    """Token-distribution drift between two corpus slices (the
    data-monitoring pass a curation pipeline runs when a new crawl
    snapshot lands): token counts in slice A (even doc_id) vs slice B
    (odd doc_id), ranked by the EXACT integer cross-product divergence
    ``|c_a * n_b - c_b * n_a|`` (sign-free numerator of the rate
    difference c_a/n_a - c_b/n_b over the common denominator — no
    float ratios, so ranking and hash are bit-stable).  Top-k most
    drifted tokens with both counts.

    Ray shape: one pass emits per-batch (token, side) count partials
    (np.unique per side), ONE token-hash bucketed sum, slice totals
    ride as two scalar partial sums; the divergence and top-k run on
    the vocabulary-sized result (driver pull bounded by Heaps' law,
    the t11 assumption)."""
    from .stages.agg import bucketed_sum
    from .stages.text import _flat_nonempty, _string_array, _RE2_SPACE_CLASS

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        txt = _string_array(batch["text"])
        flat, parents, _ = _flat_nonempty(
            pc.split_pattern_regex(txt, _RE2_SPACE_CLASS), len(txt)
        )
        even = (ids[parents] % 2 == 0) if len(parents) else np.empty(0, bool)
        toks = flat.to_numpy(zero_copy_only=False)
        out_t, out_a, out_b = [], [], []
        for side, mask in ((0, even), (1, ~even)):
            u, c = np.unique(toks[mask], return_counts=True)
            out_t.append(u)
            out_a.append(c if side == 0 else np.zeros(len(u), np.int64))
            out_b.append(c if side == 1 else np.zeros(len(u), np.int64))
        return pa.table(
            {
                "token": pa.array(np.concatenate(out_t), pa.string()),
                "c_a": pa.array(
                    np.concatenate(out_a).astype(np.int64), pa.int64()
                ),
                "c_b": pa.array(
                    np.concatenate(out_b).astype(np.int64), pa.int64()
                ),
            }
        )

    vocab = bucketed_sum(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["token"],
        ["c_a", "c_b"],
    ).to_pandas()
    n_a = int(vocab["c_a"].sum())
    n_b = int(vocab["c_b"].sum())
    ca = vocab["c_a"].to_numpy(np.int64)
    cb = vocab["c_b"].to_numpy(np.int64)
    if len(vocab) and max(
        int(ca.max()) * n_b, int(cb.max()) * n_a
    ) >= 2**62:
        # int64 would wrap where DuckDB's HUGEINT stays exact: fall back
        # to Python ints on the (vocab-sized, driver-side) frame
        vocab["divergence"] = [
            abs(int(a) * n_b - int(b) * n_a) for a, b in zip(ca, cb)
        ]
    else:
        vocab["divergence"] = np.abs(ca * n_b - cb * n_a)
    out = vocab.sort_values(
        ["divergence", "token"], ascending=[False, True]
    ).head(k)
    return out[["token", "c_a", "c_b", "divergence"]].reset_index(drop=True)


T16_SQL = r"""
WITH tok AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(text, '\s+'),
                            x -> x <> '')) AS t
  FROM documents),
c AS (
  SELECT t AS token,
         CAST(SUM(CASE WHEN doc_id % 2 = 0 THEN 1 ELSE 0 END) AS BIGINT)
             AS c_a,
         CAST(SUM(CASE WHEN doc_id % 2 = 1 THEN 1 ELSE 0 END) AS BIGINT)
             AS c_b
  FROM tok GROUP BY t),
n AS (SELECT SUM(c_a) AS n_a, SUM(c_b) AS n_b FROM c)
SELECT token, c_a, c_b,
       CAST(abs(c_a * n.n_b - c_b * n.n_a) AS BIGINT) AS divergence
FROM c CROSS JOIN n
ORDER BY divergence DESC, token LIMIT 25
"""


def s06_schema_evolution(sf_dir: str):
    """Schema-evolution reader (the source-side concern of a long-lived
    corpus store: snapshot generations add and drop columns): two
    staged parquet generations — gen 1 carries (doc_id, lang), gen 2
    (ids + 1M) was written after ``lang`` was dropped — are each read
    and normalized to the superset schema with typed-null fill
    (sources/transcripts.conform_batch), unioned as ONE streaming
    Dataset, and aggregated per COALESCE'd lang.  The oracle re-derives
    the union with NULL lang for gen 2, so the fill, the union and the
    null-aware groupby are all checked."""
    import os as _os
    import shutil

    import pyarrow.parquet as _pq
    import ray.data

    from naer_ray.sources.transcripts import conform_batch

    stage = (
        "/tmp/naer_schema_evo/"
        f"{_os.getpid()}-{_os.path.basename(sf_dir.rstrip('/'))}"
    )
    shutil.rmtree(stage, ignore_errors=True)
    _os.makedirs(stage)
    src = _pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    _pq.write_table(src, f"{stage}/gen1.parquet")
    _pq.write_table(
        pa.table(
            {"doc_id": pc.add(src["doc_id"], pa.scalar(1_000_000, pa.int64()))}
        ),
        f"{stage}/gen2.parquet",
    )

    superset = pa.schema(
        [pa.field("doc_id", pa.int64()), pa.field("lang", pa.string())]
    )

    def conform(batch: pa.Table) -> pa.Table:
        return conform_batch(batch, superset)

    ds = ray.data.read_parquet(f"{stage}/gen1.parquet").map_batches(
        conform, batch_format="pyarrow"
    ).union(
        ray.data.read_parquet(f"{stage}/gen2.parquet").map_batches(
            conform, batch_format="pyarrow"
        )
    )

    def partial(batch: pa.Table) -> pa.Table:
        lang = pc.fill_null(batch["lang"], "<missing>")
        t = pa.table({"lang": lang}).group_by("lang").aggregate([("lang", "count")])
        return t.rename_columns(["lang", "n"])

    from .stages.agg import bucketed_sum

    out = bucketed_sum(
        ds.map_batches(partial, batch_format="pyarrow"), ["lang"], ["n"]
    ).to_pandas()
    shutil.rmtree(stage, ignore_errors=True)
    return out.astype({"n": "int64"}).sort_values("lang").reset_index(drop=True)


S06_SQL = """
WITH u AS (
  SELECT lang FROM documents
  UNION ALL
  SELECT NULL AS lang FROM documents)
SELECT COALESCE(lang, '<missing>') AS lang, CAST(COUNT(*) AS BIGINT) AS n
FROM u GROUP BY 1
"""


def m13_image_downsample(sf_dir: str):
    """REAL image downsampling (closes the resample step m02's plan
    left as the stubbed codec stage): each doc's P6 PPM payload is
    REALLY decoded (stages/multimodal.decode_ppm), 2x2 area-averaged
    with integer floor division (odd edge rows/cols crop, the standard
    pooling rule), and summarized as (out_w, out_h, checksum = sum of
    all downsampled channel values) — exact integers, so the SQL
    oracle re-derives every output pixel from the generator
    arithmetic and the hash verifies decode, layout (j = y*w + x),
    pooling and crop at once."""
    from .stages.multimodal import decode_ppm, synth_ppm_payload

    ds = _read(sf_dir, "documents", ["doc_id"])

    def down(batch: pa.Table) -> pa.Table:
        out = {"doc_id": [], "out_w": [], "out_h": [], "checksum": []}
        for i in batch["doc_id"].to_pylist():
            w, h, pix = decode_ppm(synth_ppm_payload(i))
            arr = pix.reshape(h, w, 3).astype(np.int64)
            oh, ow = h // 2, w // 2
            a = arr[: oh * 2, : ow * 2]
            pooled = (
                a[0::2, 0::2] + a[1::2, 0::2] + a[0::2, 1::2] + a[1::2, 1::2]
            ) // 4
            out["doc_id"].append(i)
            out["out_w"].append(ow)
            out["out_h"].append(oh)
            out["checksum"].append(int(pooled.sum()))
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "out_w": pa.array(out["out_w"], pa.int64()),
                "out_h": pa.array(out["out_h"], pa.int64()),
                "checksum": pa.array(out["checksum"], pa.int64()),
            }
        )

    return ds.map_batches(down, batch_format="pyarrow", batch_size=256)


M13_SQL = """
WITH dims AS (
  SELECT doc_id,
         4 + (doc_id * 131) % 29 AS w,
         4 + (doc_id * 197) % 31 AS h
  FROM documents),
cells AS (
  SELECT doc_id, w, h,
         unnest(range(0, w // 2)) AS ux
  FROM dims),
grid AS (
  SELECT doc_id, w, h, ux, unnest(range(0, h // 2)) AS uy FROM cells),
px AS (
  SELECT doc_id, w, h, ux, uy,
         (2 * uy) * w + 2 * ux AS j00,
         (2 * uy) * w + 2 * ux + 1 AS j01,
         (2 * uy + 1) * w + 2 * ux AS j10,
         (2 * uy + 1) * w + 2 * ux + 1 AS j11
  FROM grid),
m AS (
  SELECT doc_id, w, h,
         (((doc_id * 7 + j00 * 13) % 256) + ((doc_id * 7 + j01 * 13) % 256)
          + ((doc_id * 7 + j10 * 13) % 256)
          + ((doc_id * 7 + j11 * 13) % 256)) // 4 AS r,
         (((doc_id * 11 + j00 * 17) % 256) + ((doc_id * 11 + j01 * 17) % 256)
          + ((doc_id * 11 + j10 * 17) % 256)
          + ((doc_id * 11 + j11 * 17) % 256)) // 4 AS g,
         (((doc_id * 13 + j00 * 23) % 256) + ((doc_id * 13 + j01 * 23) % 256)
          + ((doc_id * 13 + j10 * 23) % 256)
          + ((doc_id * 13 + j11 * 23) % 256)) // 4 AS b
  FROM px)
SELECT doc_id,
       CAST(MIN(w) // 2 AS BIGINT) AS out_w,
       CAST(MIN(h) // 2 AS BIGINT) AS out_h,
       CAST(SUM(r + g + b) AS BIGINT) AS checksum
FROM m GROUP BY doc_id
"""


def r04_grouping_sets(sf_dir: str):
    """GROUP BY GROUPING SETS ((status), (priority)) — the non-rollup,
    non-cube member of the multi-granularity family (r01/r02): exactly
    the requested grouping sets, no finest level, no grand total.

    Scale shape: ONE distributed finest-level pass over
    (o_orderstatus, o_orderpriority) — per-batch combiner partials +
    one cardinality-sized bucket shuffle — then each requested set is
    derived from the (statuses x priorities)-sized finest result on
    the driver.  No second scan of orders; money through the
    integer-cents trick."""
    from .stages.agg import bucketed_sum

    ds = _read(
        sf_dir, "orders", ["o_orderstatus", "o_orderpriority", "o_totalprice"]
    )

    def to_int(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o_orderstatus": batch["o_orderstatus"],
                "o_orderpriority": batch["o_orderpriority"],
                "cents": _cents(batch["o_totalprice"].to_numpy()),
            }
        )

    fine = bucketed_sum(
        ds.map_batches(to_int, batch_format="pandas", batch_size=65536),
        ["o_orderstatus", "o_orderpriority"],
        ["cents"],
        count_col="n_rows",
    ).to_pandas()

    sets = []
    for keep in (["o_orderstatus"], ["o_orderpriority"]):
        lvl = fine.groupby(keep, as_index=False)[["cents", "n_rows"]].sum()
        for k in ("o_orderstatus", "o_orderpriority"):
            if k not in keep:
                lvl[k] = None
        sets.append(lvl[["o_orderstatus", "o_orderpriority", "cents", "n_rows"]])
    out = pd.concat(sets, ignore_index=True)
    out["sum_cents"] = out.pop("cents").astype("int64")
    out["n_rows"] = out["n_rows"].astype("int64")
    return out


R04_SQL = """
SELECT o_orderstatus, o_orderpriority,
       CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS sum_cents,
       CAST(COUNT(*) AS BIGINT) AS n_rows
FROM orders
GROUP BY GROUPING SETS ((o_orderstatus), (o_orderpriority))
"""


def r05_unpivot(sf_dir: str):
    """UNPIVOT (wide -> long): lineitem's four per-row measures melt
    into (l_returnflag, metric) long rows, aggregated in the same
    pass.  The melt happens INSIDE each batch (per-batch combiner
    emits one row per flag x metric), so the exchange carries
    O(flags x metrics x batches) partials — never the unpivoted
    row-level long table (4x the fact table at 100 TB).  Measures go
    through the integer-cents trick."""
    from .stages.agg import bucketed_sum

    METRICS = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    ds = _read(sf_dir, "lineitem", ["l_returnflag"] + METRICS)

    def melt(batch: pd.DataFrame) -> pd.DataFrame:
        parts = []
        for m in METRICS:
            g = pd.DataFrame(
                {
                    "l_returnflag": batch["l_returnflag"],
                    "cents": _cents(batch[m].to_numpy()),
                }
            ).groupby("l_returnflag", as_index=False)["cents"].agg(["sum", "size"])
            g.columns = ["l_returnflag", "s", "n"]
            g["metric"] = m
            parts.append(g)
        return pd.concat(parts, ignore_index=True)

    out = bucketed_sum(
        ds.map_batches(melt, batch_format="pandas", batch_size=65536),
        ["l_returnflag", "metric"],
        ["s", "n"],
    ).to_pandas()
    out["sum_cents"] = out.pop("s").astype("int64")
    out["n_rows"] = out.pop("n").astype("int64")
    return out.sort_values(["l_returnflag", "metric"]).reset_index(drop=True)


R05_SQL = """
WITH long AS (
  SELECT l_returnflag, 'l_quantity' AS metric,
         CAST(FLOOR(l_quantity * 100 + 0.5) AS BIGINT) AS cents FROM lineitem
  UNION ALL
  SELECT l_returnflag, 'l_extendedprice',
         CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT) FROM lineitem
  UNION ALL
  SELECT l_returnflag, 'l_discount',
         CAST(FLOOR(l_discount * 100 + 0.5) AS BIGINT) FROM lineitem
  UNION ALL
  SELECT l_returnflag, 'l_tax',
         CAST(FLOOR(l_tax * 100 + 0.5) AS BIGINT) FROM lineitem)
SELECT l_returnflag, metric,
       CAST(SUM(cents) AS BIGINT) AS sum_cents,
       CAST(COUNT(*) AS BIGINT) AS n_rows
FROM long GROUP BY l_returnflag, metric
"""


def q34_exists_filter(sf_dir: str):
    """Correlated EXISTS + NOT EXISTS in one pass: orders that have at
    least one deeply-discounted line (l_discount >= 0.08) and NO bulk
    line (l_quantity >= 45), counted per o_orderpriority.

    Scale shape: the two existence predicates reduce to per-orderkey
    indicator SUMS — one lineitem scan with per-batch combiner
    partials and ONE orderkey-hash bucket shuffle (never a correlated
    per-order probe); the surviving key set joins orders through the
    native partitioned hash join (both sides large at 100 TB), and the
    final per-priority aggregate is combiner + tiny shuffle."""
    import ray

    from .stages.agg import bucketed_sum

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_discount", "l_quantity"])

    def flags(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_orderkey": batch["l_orderkey"],
                "n_disc": (batch["l_discount"].to_numpy() >= 0.08).astype("int64"),
                "n_bulk": (batch["l_quantity"].to_numpy() >= 45).astype("int64"),
            }
        )

    per_order = bucketed_sum(
        li.map_batches(flags, batch_format="pandas", batch_size=65536),
        ["l_orderkey"],
        ["n_disc", "n_bulk"],
    )

    def keep(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater(batch["n_disc"], 0), pc.equal(batch["n_bulk"], 0)
        )
        return batch.filter(m).select(["l_orderkey"])

    keys = per_order.map_batches(keep, batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    n_parts = max(8, int(ray.cluster_resources().get("CPU", 8)) // 2)
    joined = keys.join(
        orders,
        join_type="inner",
        num_partitions=n_parts,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )
    out = (
        bucketed_sum(joined, ["o_orderpriority"], [], count_col="n_orders")
        .to_pandas()
        .astype({"n_orders": "int64"})
    )
    return out.sort_values("o_orderpriority").reset_index(drop=True)


Q34_SQL = """
SELECT o.o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_orders
FROM orders o
WHERE EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey AND l.l_discount >= 0.08)
  AND NOT EXISTS (SELECT 1 FROM lineitem l
                  WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity >= 45)
GROUP BY o.o_orderpriority
"""


def q35_salted_skew_agg(sf_dir: str):
    """Hot-key aggregation through the SALTED two-round reduce: events
    has only 5 event_type values, so every key holds ~20% of all rows
    — the pathological skew case where a plain key-hash shuffle lands
    the whole table on 5 reducers.  ``bucketed_sum(salt=8)`` spreads
    each key's partials over 8 sub-buckets in round one and re-merges
    in a tiny second round; sums are associative so the result is
    bit-identical to the unsalted plan (the oracle checks exactly
    that).  Event values go through the integer-mills trick."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def to_int(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "mils": np.floor(
                    batch["value"].to_numpy() * 1000 + 0.5
                ).astype("int64"),
            }
        )

    out = bucketed_sum(
        ds.map_batches(to_int, batch_format="pandas", batch_size=65536),
        ["event_type"],
        ["mils"],
        count_col="n_events",
        salt=8,
    ).to_pandas()
    out["sum_mils"] = out.pop("mils").astype("int64")
    out["n_events"] = out["n_events"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


Q35_SQL = """
SELECT event_type,
       CAST(SUM(CAST(FLOOR(value * 1000 + 0.5) AS BIGINT)) AS BIGINT)
         AS sum_mils,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM events GROUP BY event_type
"""


def w10_window_topn(sf_dir: str):
    """Top-N per window (the streaming-analytics staple q24's global
    grouped top-k does not cover): within each tumbling hour, the top
    2 event_types by count, ties broken by event_type ascending.

    Scale shape: per-batch (hour, type) combiner partials + ONE
    cardinality-sized bucket shuffle; the rank runs on the
    (windows x 5 types)-sized count table, never on events.  At 100 TB
    the count table grows with the time span, not the data volume."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "window_start": batch["ts"].dt.floor("h"),
                "event_type": batch["event_type"],
            }
        )

    counts = bucketed_sum(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        ["window_start", "event_type"],
        [],
        count_col="n",
    ).to_pandas()
    counts["n"] = counts["n"].astype("int64")
    top = (
        counts.sort_values(
            ["window_start", "n", "event_type"], ascending=[True, False, True]
        )
        .groupby("window_start", as_index=False, sort=False)
        .head(2)
        .reset_index(drop=True)
    )
    return top[["window_start", "event_type", "n"]]


W10_SQL = """
WITH counts AS (
  SELECT date_trunc('hour', ts) AS window_start, event_type,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2),
ranked AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY window_start
                               ORDER BY n DESC, event_type) AS rn
  FROM counts)
SELECT window_start, event_type, n FROM ranked WHERE rn <= 2
"""


def v02_fd_violations(sf_dir: str):
    """Functional-dependency audit (profiling / data-quality pass):
    for each candidate FD X -> Y over documents, the number of
    distinct determinant values and how many of them violate the
    dependency (map to more than one distinct Y).

    Scale shape: ONE distinct-pair reduce per FD — per-batch
    ``drop_duplicates`` combiner + one bucket shuffle sized by the
    distinct (X, Y) cardinality (langs x sources here), never by rows;
    the violation count runs on that tiny result."""
    from .stages.agg import bucketed_sum

    FDS = [("lang", "source"), ("source", "lang")]
    ds = _read(sf_dir, "documents", ["lang", "source"])

    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[["lang", "source"]].drop_duplicates()

    distinct = bucketed_sum(
        ds.map_batches(pairs, batch_format="pandas", batch_size=65536),
        ["lang", "source"],
        [],
        count_col="n",
    ).to_pandas()

    rows = []
    for det, dep in FDS:
        per_key = distinct.groupby(det)[dep].nunique()
        rows.append(
            {
                "fd": f"{det}->{dep}",
                "n_keys": np.int64(len(per_key)),
                "n_violating_keys": np.int64(int((per_key > 1).sum())),
            }
        )
    return pd.DataFrame(rows).astype(
        {"n_keys": "int64", "n_violating_keys": "int64"}
    )


V02_SQL = """
WITH ls AS (
  SELECT lang AS det, COUNT(DISTINCT source) AS nd FROM documents GROUP BY lang),
sl AS (
  SELECT source AS det, COUNT(DISTINCT lang) AS nd FROM documents GROUP BY source)
SELECT 'lang->source' AS fd,
       CAST(COUNT(*) AS BIGINT) AS n_keys,
       CAST(SUM(CASE WHEN nd > 1 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_violating_keys
FROM ls
UNION ALL
SELECT 'source->lang', CAST(COUNT(*) AS BIGINT),
       CAST(SUM(CASE WHEN nd > 1 THEN 1 ELSE 0 END) AS BIGINT)
FROM sl
"""


def x05_proximity_search(sf_dir: str, window: int = 3):
    """Proximity search (the positional-query family member x03's
    exact-adjacency phrase search doesn't cover): count, per document,
    the ('hash', 'vector') position pairs within ``window`` tokens of
    each other — order-free nearness, the "terms NEAR each other"
    operator of web search — and return the top 10 docs by
    (pair count DESC, doc_id).

    Scale shape: docs are row-local, so per-doc pair counts need NO
    shuffle — one streaming pass with a per-batch double
    ``np.searchsorted`` over offset-separated global positions, a
    LOCAL top-10 per batch, and a blocks x 10 driver merge (the x02
    bounded-merge pattern)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def prox(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        n_docs = len(batch)
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_pairs": pa.array([], pa.int64()),
            }
        )
        if not len(flat):
            return empty
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]]).astype(np.int64)
        pos = np.arange(len(flat), dtype=np.int64) - starts[parents]
        big = np.int64(lens.max() + 2 * window + 2)
        gpos = parents.astype(np.int64) * big + pos
        a_mask = pc.equal(flat, "hash").to_numpy(zero_copy_only=False)
        b_mask = pc.equal(flat, "vector").to_numpy(zero_copy_only=False)
        a_g, b_g = gpos[a_mask], gpos[b_mask]
        if not len(a_g) or not len(b_g):
            return empty
        per_a = np.searchsorted(b_g, a_g + window, "right") - np.searchsorted(
            b_g, a_g - window, "left"
        )
        per_doc = np.bincount(
            parents[a_mask], weights=per_a, minlength=n_docs
        ).astype(np.int64)
        keep = per_doc > 0
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)[keep]
        cnt = per_doc[keep]
        # local top-10 (n desc, doc_id asc) — bounds the driver merge
        order = np.lexsort((ids, -cnt))[:10]
        return pa.table(
            {
                "doc_id": pa.array(ids[order], pa.int64()),
                "n_pairs": pa.array(cnt[order], pa.int64()),
            }
        )

    parts = docs.map_batches(prox, batch_format="pyarrow").to_pandas()
    top = parts.sort_values(
        ["n_pairs", "doc_id"], ascending=[False, True]
    ).head(10)
    return top.reset_index(drop=True)


X05_SQL = """
WITH tok AS (SELECT doc_id, string_split(text, ' ') AS tk FROM documents),
pos AS (SELECT doc_id,
         list_filter(range(1, len(tk)+1), i -> tk[i] = 'hash') AS ph,
         list_filter(range(1, len(tk)+1), i -> tk[i] = 'vector') AS pv
        FROM tok),
cnt AS (SELECT doc_id,
         COALESCE(list_sum(list_transform(ph,
            a -> len(list_filter(pv, b -> abs(a - b) <= 3)))), 0) AS n_pairs
        FROM pos)
SELECT CAST(doc_id AS BIGINT) AS doc_id, CAST(n_pairs AS BIGINT) AS n_pairs
FROM cnt WHERE n_pairs > 0 ORDER BY n_pairs DESC, doc_id LIMIT 10
"""


def g06_friends_of_friends(sf_dir: str, n_buckets: int = 64, seed_max: int = 20):
    """Two-hop neighborhood (friends-of-friends recommendation) over
    the SPARSE co-order part graph — parts are adjacent when they
    appear in the same order (the part↔supplier graph g01-g05 use is
    near-complete, so 2-hop counts there are degenerate).  For each
    seed part (partkey <= seed_max): the number of distinct parts
    exactly two hops away — reachable through a co-ordered part but
    not co-ordered with the seed itself, and not the seed.

    Scale shape: edge derivation is ONE orderkey-hash bucket-run whose
    per-order self-merge is a single vectorized pandas join (orders
    hold <= 7 lines, so the per-order cross is bounded); the seed
    adjacency (seeds x degree, tiny) broadcasts via ``ray.put`` and
    the FoF expansion + direct-neighbor anti-join run vectorized
    inside one more pass over the edge stream; the final distinct
    (seed, part) reduce is a cardinality-sized bucket shuffle."""
    import ray

    from .stages.agg import bucketed_sum

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["bucket"] = (
            batch["l_orderkey"].to_numpy().astype(np.int64) % n_buckets
        ).astype("int32")
        return batch

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g[["l_orderkey", "l_partkey"]].drop_duplicates()
        m = g.merge(g, on="l_orderkey")
        m = m[m["l_partkey_x"] != m["l_partkey_y"]]
        return (
            m[["l_partkey_x", "l_partkey_y"]]
            .drop_duplicates()
            .rename(columns={"l_partkey_x": "pa", "l_partkey_y": "pb"})
        )

    edges = li.map_batches(
        bucketize, batch_format="pandas", batch_size=65536
    ).groupby("bucket").map_groups(pairs, batch_format="pandas")

    # seed adjacency: seeds x degree rows — driver-sized by construction
    seed_edges = (
        edges.map_batches(
            lambda b: b[b["pa"] <= seed_max],
            batch_format="pandas",
        )
        .to_pandas()
        .drop_duplicates()
    )
    seed_ref = ray.put(seed_edges)

    def fof(batch: pd.DataFrame) -> pd.DataFrame:
        d = ray.get(seed_ref)
        # expand: edge (mid, b) matched to every seed with direct mid
        out = batch.merge(
            d.rename(columns={"pa": "seed", "pb": "pa"}), on="pa"
        )[["seed", "pb"]]
        out = out[out["pb"] != out["seed"]].drop_duplicates()
        # anti-join the seed's direct neighbors
        out = out.merge(
            d.rename(columns={"pa": "seed"}),
            on=["seed", "pb"],
            how="left",
            indicator=True,
        )
        return out[out["_merge"] == "left_only"][["seed", "pb"]]

    cand = edges.map_batches(fof, batch_format="pandas", batch_size=65536)
    distinct = bucketed_sum(cand, ["seed", "pb"], [], count_col="c").to_pandas()
    out = (
        distinct.groupby("seed", as_index=False)["pb"]
        .nunique()
        .rename(columns={"seed": "p_partkey", "pb": "n_fof"})
        .astype({"p_partkey": "int64", "n_fof": "int64"})
        .sort_values("p_partkey")
        .reset_index(drop=True)
    )
    return out


G06_SQL = """
WITH pairs AS (SELECT DISTINCT a.l_partkey pa, b.l_partkey pb
               FROM lineitem a JOIN lineitem b
               ON a.l_orderkey = b.l_orderkey AND a.l_partkey <> b.l_partkey),
fof AS (SELECT p1.pa seed, p2.pb f FROM pairs p1 JOIN pairs p2 ON p1.pb = p2.pa
        WHERE p1.pa <= 20 AND p2.pb <> p1.pa),
kept AS (SELECT f.seed, f.f FROM fof f
         LEFT JOIN pairs d ON d.pa = f.seed AND d.pb = f.f WHERE d.pb IS NULL)
SELECT seed AS p_partkey, CAST(COUNT(DISTINCT f) AS BIGINT) AS n_fof
FROM kept GROUP BY 1
"""


def m14_gray_histogram(sf_dir: str):
    """Grayscale luminance histogram over REAL image decodes: each
    doc's P6 PPM payload decodes for real, every pixel maps to integer
    luma ``(r*299 + g*587 + b*114) // 1000`` and a 4-bin histogram
    (``luma // 64``) — the brightness-profile feature a curation
    pipeline uses to drop over/under-exposed images.  All-integer, so
    the SQL oracle re-derives every pixel from the generator
    arithmetic and checks decode + luma + binning at once."""
    from .stages.multimodal import decode_ppm, synth_ppm_payload

    ds = _read(sf_dir, "documents", ["doc_id"])

    def hist(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        out = {"doc_id": ids, "b0": [], "b1": [], "b2": [], "b3": []}
        for i in ids:
            _w, _h, pix = decode_ppm(synth_ppm_payload(i))
            p = pix.astype(np.int64)
            luma = (p[:, 0] * 299 + p[:, 1] * 587 + p[:, 2] * 114) // 1000
            counts = np.bincount(luma // 64, minlength=4)
            for k in range(4):
                out[f"b{k}"].append(int(counts[k]))
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                **{
                    f"b{k}": pa.array(out[f"b{k}"], pa.int64())
                    for k in range(4)
                },
            }
        )

    return ds.map_batches(hist, batch_format="pyarrow", batch_size=256)


M14_SQL = """
WITH dims AS (
  SELECT doc_id,
         4 + (doc_id * 131) % 29 AS w,
         4 + (doc_id * 197) % 31 AS h
  FROM documents),
px AS (
  SELECT doc_id, unnest(range(0, w * h)) AS j FROM dims),
luma AS (
  SELECT doc_id,
         (((doc_id * 7 + j * 13) % 256) * 299
          + ((doc_id * 11 + j * 17) % 256) * 587
          + ((doc_id * 13 + j * 23) % 256) * 114) // 1000 AS v
  FROM px)
SELECT doc_id,
       CAST(SUM(CASE WHEN v // 64 = 0 THEN 1 ELSE 0 END) AS BIGINT) AS b0,
       CAST(SUM(CASE WHEN v // 64 = 1 THEN 1 ELSE 0 END) AS BIGINT) AS b1,
       CAST(SUM(CASE WHEN v // 64 = 2 THEN 1 ELSE 0 END) AS BIGINT) AS b2,
       CAST(SUM(CASE WHEN v // 64 = 3 THEN 1 ELSE 0 END) AS BIGINT) AS b3
FROM luma GROUP BY doc_id
"""


def j05_star_join(sf_dir: str):
    """Multiway star join: orders (fact) ⋈ customer (large dim, native
    partitioned hash join — at 100 TB the customer table is itself
    sharded) ⋈ nation (tiny dim, ``ray.put`` broadcast lookup inside
    the aggregation pass — never a shuffle).  Revenue per
    (nation, market segment) through the integer-cents trick."""
    import ray

    from .stages.agg import bucketed_sum

    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    nmap_ref = ray.put(dict(zip(nation["n_nationkey"], nation["n_name"])))

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(
        sf_dir, "customer", ["c_custkey", "c_nationkey", "c_mktsegment"]
    )
    n_parts = max(8, int(ray.cluster_resources().get("CPU", 8)) // 2)
    joined = orders.join(
        cust,
        join_type="inner",
        num_partitions=n_parts,
        on=("o_custkey",),
        right_on=("c_custkey",),
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        nmap = ray.get(nmap_ref)
        return pd.DataFrame(
            {
                "n_name": batch["c_nationkey"].map(nmap),
                "c_mktsegment": batch["c_mktsegment"],
                "cents": _cents(batch["o_totalprice"].to_numpy()),
            }
        )

    out = bucketed_sum(
        joined.map_batches(partial, batch_format="pandas", batch_size=65536),
        ["n_name", "c_mktsegment"],
        ["cents"],
        count_col="n_orders",
    ).to_pandas()
    out["sum_cents"] = out.pop("cents").astype("int64")
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values(["n_name", "c_mktsegment"]).reset_index(drop=True)


J05_SQL = """
SELECT n.n_name, c.c_mktsegment,
       CAST(SUM(CAST(FLOOR(o.o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS sum_cents,
       CAST(COUNT(*) AS BIGINT) AS n_orders
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY n.n_name, c.c_mktsegment
"""


def _s07_write_pass(sf_dir: str, root: str, n_buckets: int) -> int:
    """One resumable write pass: reduce (bucket, lang) counts and write
    each bucket's parquet ATOMICALLY, skipping buckets the manifest
    already marks complete.  Returns how many buckets were written
    this pass (0 on a fully-resumed rerun)."""
    from naer_ray.state.checkpoint import (
        Manifest,
        finalize_bucket,
        make_bucket_writer,
        sweep_orphan_tmpdirs,
    )

    sweep_orphan_tmpdirs(root)
    manifest = Manifest(root)
    done = manifest.done_buckets("lang_counts")
    if len(done) >= n_buckets:
        return 0

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.assign(
            bucket=(batch["doc_id"].to_numpy() % n_buckets).astype("int32"),
            n=np.int64(1),
        )
        g = batch.groupby(["bucket", "lang"], as_index=False)["n"].sum()
        return g[~g["bucket"].isin(list(done))] if done else g

    def reduce(block: pa.Table) -> dict:
        df = block.to_pandas().groupby(["bucket", "lang"], as_index=False)["n"].sum()
        df = df.sort_values(["bucket", "lang", "n"])
        return {"lang_counts": pa.Table.from_pandas(df, preserve_index=False)}

    summary = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .sort("bucket")
        .map_batches(
            make_bucket_writer(root, "lang_counts", reduce),
            batch_format="pyarrow",
            batch_size=None,
        )
        .to_pandas()
    )
    for row in summary.itertuples():
        finalize_bucket(root, "lang_counts", int(row.bucket), row.tmp, int(row.rows))
        manifest.mark_bucket("lang_counts", int(row.bucket), int(row.rows))
    manifest.save()
    return len(summary)


def s07_resumable_write(sf_dir: str, n_buckets: int = 8):
    """Resumable partitioned sink (the north rule's "failed run skips
    finished partitions" requirement surfaced as a first-class op):
    per-bucket (doc_id % n_buckets) language counts write as one
    parquet directory per bucket with atomic temp-dir renames and a
    manifest of completed buckets; the pass runs TWICE — the second
    run reads the manifest and writes NOTHING — then the bucket files
    read back through Ray and re-aggregate to per-lang totals the
    SQL oracle checks.  Each bucket is written by the worker holding
    it (a distributed block writer), never through the driver."""
    import os as _os
    import shutil

    import ray.data

    root = (
        "/tmp/naer_resumable/"
        f"{_os.getpid()}-{_os.path.basename(sf_dir.rstrip('/'))}"
    )
    shutil.rmtree(root, ignore_errors=True)
    first = _s07_write_pass(sf_dir, root, n_buckets)
    second = _s07_write_pass(sf_dir, root, n_buckets)
    if first == 0 or second != 0:
        raise RuntimeError(
            f"resume contract violated: first pass wrote {first} buckets, "
            f"rerun wrote {second} (expected > 0 then 0)"
        )

    from .stages.agg import bucketed_sum

    back = ray.data.read_parquet(f"{root}/lang_counts/")
    out = (
        bucketed_sum(back, ["lang"], ["n"])
        .to_pandas()
        .astype({"n": "int64"})
        .sort_values("lang")
        .reset_index(drop=True)
    )
    shutil.rmtree(root, ignore_errors=True)
    return out


S07_SQL = """
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n FROM documents GROUP BY lang
"""


def _docs_with_quotes(sf_dir: str):
    """documents ∪ planted quote docs (doc_id + 1_000_000): the quote
    is the first ``max(3, ceil(0.4 * n_tokens))`` tokens of its
    original — an exact prefix excerpt, so containment(quote→orig) is
    exactly 1.0 while Jaccard(quote, orig) ≈ 0.4 stays far below any
    near-dup threshold.  The cut uses INTEGER ceil ((2n + 4) // 5) on
    both sides — float 0.4*n rounds wrong at n = 15."""
    ds = _read_wide(sf_dir, "documents", ["doc_id", "text"])

    def add_quotes(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out_ids = list(ids)
        out_texts = list(texts)
        for i, t in zip(ids, texts):
            ws = t.split(" ")
            k = max(3, (2 * len(ws) + 4) // 5)
            out_ids.append(i + 1_000_000)
            out_texts.append(" ".join(ws[:k]))
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.int64()),
                "text": pa.array(out_texts, pa.string()),
            }
        )

    return ds.map_batches(add_quotes, batch_format="pyarrow", batch_size=None)


def d20_containment_pairs(sf_dir: str):
    """Near-subset detection via the exact containment join (stages/
    joins.containment_join): over documents ∪ planted prefix-excerpt
    quotes, every ordered pair (a, b) where >= 4/5 of a's word
    trigrams appear in b — the quote/excerpt duplicates a Jaccard
    near-dup pass structurally misses.  The SQL oracle re-derives the
    full trigram-intersection join brute-force."""
    from .stages.joins import containment_join

    # materialize once: the derived corpus feeds the frequency pass,
    # the postings pass and the verify semi-join — without this the
    # quote derivation re-executes per consumer
    corpus = _docs_with_quotes(sf_dir).materialize()
    return containment_join(corpus, corpus, 4, 5)


D20_SQL = """
WITH corpus AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000,
         array_to_string(ws[1 : GREATEST(3, (2 * len(ws) + 4) // 5)], ' ')
  FROM (SELECT doc_id, string_split(text, ' ') AS ws FROM documents)),
tri AS (
  SELECT DISTINCT doc_id,
         ws[CAST(i AS INT)] || ' ' || ws[CAST(i AS INT) + 1] || ' '
           || ws[CAST(i AS INT) + 2] AS g
  FROM (SELECT doc_id, string_split(text, ' ') AS ws FROM corpus),
       LATERAL unnest(generate_series(1, len(ws) - 2)) AS t(i)),
n AS (SELECT doc_id, COUNT(*) AS n FROM tri GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS i
  FROM tri a JOIN tri b ON a.g = b.g AND a.doc_id <> b.doc_id
  GROUP BY 1, 2)
SELECT id_a, id_b FROM inter
JOIN n na ON na.doc_id = id_a
WHERE 5 * i >= 4 * na.n
"""


def a09_radius_search(sf_dir: str, num: int = 1, den: int = 4):
    """Radius (range) similarity search — the "everything within
    cosine >= τ of the query" retrieval mode top-k (a01-a08) cannot
    express.  EXACT under the integer-quantization contract: vectors
    quantize to ``floor(x*100 + 0.5)`` int64 and the predicate
    ``cos >= num/den`` becomes the pure integer comparison
    ``den² · dot² >= num² · |v|² · |q|²  (dot > 0)`` — no float
    boundary can flip between Ray and the oracle (a05's int-dot
    discipline; magnitudes bounded so int64 never overflows).

    Scale shape: the 3-query int matrix broadcasts once; each batch is
    ONE int64 matmul + vectorized predicate, emitting only matches —
    a streaming pass with no shuffle at all."""
    import ray

    from .stages.ann import _as_matrix

    q = _point_read_embeddings(sf_dir, [0, 1, 2])
    qm = np.floor(_as_matrix(q["embedding"]) * 100 + 0.5).astype(np.int64)
    qids = q["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    q2 = (qm * qm).sum(axis=1)
    q_ref = ray.put((qm, qids, q2))

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def scan(batch: pa.Table) -> pa.Table:
        qm_, qids_, q2_ = ray.get(q_ref)
        v = np.floor(_as_matrix(batch["embedding"]) * 100 + 0.5).astype(
            np.int64
        )
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        dots = v @ qm_.T  # (n, 3)
        n2 = (v * v).sum(axis=1)
        ok = (dots > 0) & (
            den * den * dots * dots >= num * num * n2[:, None] * q2_[None, :]
        )
        r, c = np.nonzero(ok)
        return pa.table(
            {
                "query_id": pa.array(qids_[c], pa.int64()),
                "vec_id": pa.array(ids[r], pa.int64()),
            }
        )

    out = ds.map_batches(scan, batch_format="pyarrow").to_pandas()
    return out.sort_values(["query_id", "vec_id"]).reset_index(drop=True)


A09_SQL = """
WITH q AS (SELECT vec_id AS qid, embedding AS qv FROM embeddings
           WHERE vec_id IN (0, 1, 2)),
u AS (SELECT qid, e.vec_id,
  list_sum(list_transform(range(1, len(e.embedding) + 1),
     i -> CAST(FLOOR(e.embedding[i] * 100 + 0.5) AS BIGINT)
          * CAST(FLOOR(qv[i] * 100 + 0.5) AS BIGINT))) AS dot,
  list_sum(list_transform(e.embedding,
     x -> CAST(FLOOR(x * 100 + 0.5) AS BIGINT)
          * CAST(FLOOR(x * 100 + 0.5) AS BIGINT))) AS n2,
  list_sum(list_transform(qv,
     x -> CAST(FLOOR(x * 100 + 0.5) AS BIGINT)
          * CAST(FLOOR(x * 100 + 0.5) AS BIGINT))) AS q2
 FROM embeddings e CROSS JOIN q)
SELECT CAST(qid AS BIGINT) AS query_id, vec_id
FROM u WHERE dot > 0 AND 16 * dot * dot >= n2 * q2
"""


def t17_ngram_novelty(sf_dir: str, ngram: int = 3, n_buckets: int = 64):
    """N-gram novelty scoring (corpus-curation signal: how much of a
    document is text the corpus has not seen in any EARLIER document):
    per doc, the count of distinct word trigrams and how many of them
    first appear in THIS doc (global min doc_id owns the gram).

    Scale shape: distinct (gram, doc) rows derive batch-locally
    (Arrow-vectorized, string grams so the result is exact in string
    space — no hash-collision caveat); ONE gram-hash bucket shuffle
    co-locates each gram's postings, the per-bucket kernel computes
    min-doc and per-doc (total, novel) counts vectorized, and a
    second doc-keyed bucketed sum merges per-bucket partials.  Gram
    strings ride the first shuffle; at corpus scale swap the key to
    the FNV64 hash and verify novel counts per collision bucket."""
    from .stages.agg import bucketed_sum
    from naer_ray.hashing import _fnv64_arr
    from .stages.dedup import _word_ngram_strings

    docs = _read_wide(sf_dir, "documents", ["doc_id", "text"])

    def gram_rows(batch: pa.Table) -> pa.Table:
        grams, parents = _word_ngram_strings(batch, "text", ngram)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(grams):
            return pa.table(
                {
                    "g": pa.array([], pa.string()),
                    "doc_id": pa.array([], pa.int64()),
                    "bucket": pa.array([], pa.int32()),
                }
            )
        df = pd.DataFrame(
            {"g": grams.to_pandas(), "doc_id": ids[parents]}
        ).drop_duplicates()
        h = _fnv64_arr(pa.array(df["g"], pa.string()))
        return pa.table(
            {
                "g": pa.array(df["g"], pa.string()),
                "doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
                "bucket": pa.array(
                    (h % np.uint64(n_buckets)).astype(np.int32), pa.int32()
                ),
            }
        )

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["g", "doc_id"])
        md = g.groupby("g")["doc_id"].transform("min")
        out = g.assign(novel=(g["doc_id"] == md).astype("int64"), n=np.int64(1))
        return out.groupby("doc_id", as_index=False)[["n", "novel"]].sum()

    parts = docs.map_batches(gram_rows, batch_format="pyarrow").groupby(
        "bucket"
    ).map_groups(per_bucket, batch_format="pandas")
    out = bucketed_sum(parts, ["doc_id"], ["n", "novel"]).to_pandas()
    out = out.rename(columns={"n": "n_grams", "novel": "n_novel"}).astype(
        {"n_grams": "int64", "n_novel": "int64"}
    )
    return out.sort_values("doc_id").reset_index(drop=True)


T17_SQL = """
WITH tri AS (
  SELECT DISTINCT doc_id,
         ws[CAST(i AS INT)] || ' ' || ws[CAST(i AS INT) + 1] || ' '
           || ws[CAST(i AS INT) + 2] AS g
  FROM (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
       LATERAL unnest(generate_series(1, len(ws) - 2)) AS t(i)),
m AS (SELECT g, MIN(doc_id) AS md FROM tri GROUP BY g)
SELECT t.doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_grams,
       CAST(SUM(CASE WHEN m.md = t.doc_id THEN 1 ELSE 0 END) AS BIGINT)
         AS n_novel
FROM tri t JOIN m ON m.g = t.g
GROUP BY t.doc_id
"""


def n03_group_percentiles(sf_dir: str):
    """EXACT grouped percentiles (p50/p90 of n_chars per lang) via the
    value-histogram reduce — the exact counterpart of q31's sketch:
    per-batch (lang, n_chars) count partials, ONE cardinality-sized
    bucket shuffle, then percentile_disc on the driver-side cumulative
    counts.  Exact whenever the VALUE CARDINALITY is bounded (doc
    lengths, scores, ages — the common case); unbounded-cardinality
    columns take q31's sketch instead.  percentile_disc rule: smallest
    value whose cumulative count >= ceil(p * n), integer arithmetic."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    counts = bucketed_sum(ds, ["lang", "n_chars"], [], count_col="c").to_pandas()

    rows = []
    for lang, g in counts.groupby("lang"):
        g = g.sort_values("n_chars")
        cum = g["c"].cumsum().to_numpy()
        n = int(cum[-1])
        vals = g["n_chars"].to_numpy()
        picks = {}
        for name, pnum, pden in (("p50", 1, 2), ("p90", 9, 10)):
            rank = -(-pnum * n // pden)  # ceil(p*n) integer-exact
            picks[name] = int(vals[np.searchsorted(cum, rank)])
        rows.append({"lang": lang, **picks})
    return pd.DataFrame(rows).astype({"p50": "int64", "p90": "int64"})


N03_SQL = """
SELECT lang,
       CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY n_chars) AS BIGINT)
         AS p50,
       CAST(percentile_disc(0.9) WITHIN GROUP (ORDER BY n_chars) AS BIGINT)
         AS p90
FROM documents GROUP BY lang
"""


def e05_window_cooccurrence(sf_dir: str, window: int = 2, n_buckets: int = 64):
    """Cross-turn entity co-occurrence (the temporal-context relation
    q16's same-turn co-occurrence cannot see): for each entity pair
    (a < b), the number of (conv, turn_a, turn_b) combinations where a
    and b are mentioned in DIFFERENT turns of the same conversation at
    most ``window`` turns apart — the "discussed in the same breath"
    signal a KG uses to weight associative edges.

    Scale shape: mention rows (conv, turn, entity) derive vectorized
    per batch; ONE conv-hash bucket shuffle co-locates conversations;
    the per-bucket window pair join is a single vectorized self-merge
    (mentions per conversation are bounded by turns x K entities);
    pair counts pre-aggregate per bucket and merge through a tiny
    K²-sized bucketed sum."""
    from .stages.agg import bucketed_sum

    ds = _derive_transcripts(sf_dir)
    ents_sorted = np.array(sorted(KG_ENTITIES))

    def mentions(batch: pa.Table) -> pa.Table:
        r, c = _entity_presence(batch["text"], ents_sorted)
        idx = pa.array(r)
        conv = batch["conv_id"].combine_chunks().take(idx)
        t = pa.table(
            {
                "conv_id": conv,
                "turn_idx": batch["turn_idx"].combine_chunks().take(idx),
                "entity": pa.array(ents_sorted[c], pa.string()),
            }
        )
        from naer_ray.hashing import _fnv64_arr

        b = (_fnv64_arr(t["conv_id"]) % np.uint64(n_buckets)).astype(np.int32)
        return t.append_column("bucket", pa.array(b, pa.int32()))

    def window_pairs(g: pd.DataFrame) -> pd.DataFrame:
        m = g[["conv_id", "turn_idx", "entity"]]
        j = m.merge(m, on="conv_id")
        d = (j["turn_idx_x"] - j["turn_idx_y"]).abs()
        j = j[(j["entity_x"] < j["entity_y"]) & (d >= 1) & (d <= window)]
        out = j.groupby(["entity_x", "entity_y"], as_index=False).size()
        return out.rename(
            columns={"entity_x": "subj", "entity_y": "obj", "size": "w"}
        )

    parts = ds.map_batches(mentions, batch_format="pyarrow").groupby(
        "bucket"
    ).map_groups(window_pairs, batch_format="pandas")
    out = bucketed_sum(parts, ["subj", "obj"], ["w"]).to_pandas()
    out["w"] = out["w"].astype("int64")
    return out.sort_values(["subj", "obj"]).reset_index(drop=True)


E05_SQL = f"""
WITH t AS ({_DERIVE_SQL}),
d(entity) AS (VALUES {", ".join(f"('{e}')" for e in KG_ENTITIES)}),
m AS (
  SELECT t.conv_id, t.turn_idx, d.entity
  FROM t JOIN d ON list_contains(string_split(t.text, ' '), d.entity))
SELECT a.entity AS subj, b.entity AS obj, CAST(COUNT(*) AS BIGINT) AS w
FROM m a JOIN m b
  ON a.conv_id = b.conv_id AND a.entity < b.entity
 AND abs(a.turn_idx - b.turn_idx) BETWEEN 1 AND 2
GROUP BY 1, 2
"""


def i04_incremental_agg(sf_dir: str):
    """Incremental AGGREGATE maintenance (the aggregation member of
    the incremental family d11/j03/x04): the even-event_id half of
    events is aggregated ONCE into a persisted per-type state table
    (the prior snapshot's materialized aggregate); when the odd-id
    delta arrives, only the DELTA is scanned — its combiner partials
    union with the persisted state and one tiny merge yields exactly
    the full-corpus aggregate (sums/counts are associative), which the
    unchanged full-scan oracle checks.  At 100 TB this is the
    difference between re-reading the corpus and reading yesterday's
    K-row state + today's delta."""
    import os as _os
    import shutil

    import ray.data

    from .stages.agg import bucketed_sum

    state_dir = (
        "/tmp/naer_agg_state/"
        f"{_os.getpid()}-{_os.path.basename(sf_dir.rstrip('/'))}"
    )
    shutil.rmtree(state_dir, ignore_errors=True)

    def to_int(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
                "mils": np.floor(
                    batch["value"].to_numpy() * 1000 + 0.5
                ).astype("int64"),
            }
        )

    def half(parity: int):
        ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

        def keep(batch: pa.Table) -> pa.Table:
            return batch.filter(
                pc.equal(pc.bit_wise_and(batch["event_id"], 1), parity)
            )

        return ds.map_batches(keep, batch_format="pyarrow").map_batches(
            to_int, batch_format="pandas", batch_size=65536
        )

    # snapshot pass (runs once, persists K-row state)
    bucketed_sum(
        half(0).drop_columns(["event_id"]),
        ["event_type"],
        ["mils"],
        count_col="n_events",
    ).write_parquet(state_dir)

    # delta pass: scans ONLY the delta, unions with the persisted state
    state = ray.data.read_parquet(state_dir)
    delta = half(1).drop_columns(["event_id"])

    def delta_partial(batch: pd.DataFrame) -> pa.Table:
        batch = batch.assign(n_events=np.int64(1))
        g = batch.groupby("event_type", as_index=False)[
            ["mils", "n_events"]
        ].sum()
        # arrow block: the union's other arm (parquet state) is arrow,
        # and one task must not see mixed block types
        return pa.Table.from_pandas(g, preserve_index=False)

    merged = bucketed_sum(
        state.union(
            delta.map_batches(
                delta_partial, batch_format="pandas", batch_size=65536
            )
        ),
        ["event_type"],
        ["mils", "n_events"],
    ).to_pandas()
    shutil.rmtree(state_dir, ignore_errors=True)
    merged["sum_mils"] = merged.pop("mils").astype("int64")
    merged["n_events"] = merged["n_events"].astype("int64")
    return merged.sort_values("event_type").reset_index(drop=True)


I04_SQL = Q35_SQL


def w11_rolling_window(sf_dir: str, n_buckets: int = 64):
    """Rolling fixed-size window aggregate (w03's cumulative running
    sum can't express "the last 3 events"): per event, the sum of the
    current + 2 preceding event values within its user's (ts,
    event_id)-ordered history.  ONE user-hash bucket shuffle; the
    roll itself is pandas' C rolling kernel per bucket — no per-row
    Python, no global sort.  Values in integer mills."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "ts": batch["ts"],
                "mils": np.floor(
                    batch["value"].to_numpy() * 1000 + 0.5
                ).astype("int64"),
                "bucket": (
                    batch["user_id"].to_numpy().astype(np.int64) % n_buckets
                ).astype("int32"),
            }
        )

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        r = (
            g.groupby("user_id")["mils"]
            .rolling(3, min_periods=1)
            .sum()
            .to_numpy()
            .astype("int64")
        )
        return pd.DataFrame({"event_id": g["event_id"], "roll3_mils": r})

    out = (
        ds.map_batches(bucketize, batch_format="pandas", batch_size=65536)
        .groupby("bucket")
        .map_groups(roll, batch_format="pandas")
    )
    return out


W11_SQL = """
SELECT event_id,
       CAST(SUM(CAST(FLOOR(value * 1000 + 0.5) AS BIGINT)) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS BIGINT) AS roll3_mils
FROM events
"""


def x06_fuzzy_search(sf_dir: str, max_candidates: int = 100_000):
    """Fuzzy-term search via the symmetric-delete (SymSpell) index:
    query terms match vocabulary terms at edit distance <= 1, then
    matching docs score by total tf of matched terms — the typo-
    tolerant retrieval x01's exact-token probe cannot answer.

    Scale shape: pass 1 reduces the corpus to its distinct-term
    vocabulary (vocabulary-sized driver pull, the t16 contract — at
    web scale this stays sharded and the deletion index persists like
    x01's postings); the deletion-neighborhood candidate test
    (D<=1(term) ∩ D<=1(query) != ∅) runs on the vocabulary, exact
    Levenshtein verifies the few candidates (symmetric-delete
    overmatches e.g. 'ab'~'ba', which share deletions at distance 2);
    the verified term set broadcasts into ONE scoring scan with a
    local top-10 per batch + bounded driver merge."""
    import ray

    queries = ["vektor", "sow"]

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def vocab_partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        u = pc.unique(flat)
        return pa.table({"term": u.filter(pc.not_equal(u, ""))})

    vocab = set(
        docs.map_batches(vocab_partial, batch_format="pyarrow")
        .to_pandas()["term"]
        .unique()
    )

    def dels(w: str) -> set[str]:
        return {w} | {w[:i] + w[i + 1 :] for i in range(len(w))}

    def lev1(a: str, b: str) -> bool:
        if abs(len(a) - len(b)) > 1:
            return False
        if a == b:
            return True
        # one pass: skip the first mismatch per the length relation
        if len(a) < len(b):
            a, b = b, a
        i = j = diff = 0
        while i < len(a) and j < len(b):
            if a[i] == b[j]:
                i += 1
                j += 1
                continue
            diff += 1
            if diff > 1:
                return False
            i += 1
            if len(a) == len(b):
                j += 1
        return diff + (len(a) - i) <= 1

    matched: dict[str, list[str]] = {}
    for q in queries:
        qd = dels(q)
        cand = [t for t in vocab if dels(t) & qd]
        matched[q] = sorted(t for t in cand if lev1(q, t))
    match_ref = ray.put(matched)

    def score(batch: pa.Table) -> pa.Table:
        mm = ray.get(match_ref)
        toks = pc.split_pattern(batch["text"], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        out_q, out_i, out_s = [], [], []
        for q, terms in mm.items():
            if not terms:
                continue
            hit = pc.is_in(
                flat, value_set=pa.array(terms, pa.string())
            ).to_numpy(zero_copy_only=False)
            per_doc = np.bincount(
                parents[hit], minlength=batch.num_rows
            ).astype(np.int64)
            keep = per_doc > 0
            kid, ks = ids[keep], per_doc[keep]
            order = np.lexsort((kid, -ks))[:10]  # local top-10
            out_q.extend([q] * len(order))
            out_i.extend(kid[order])
            out_s.extend(ks[order])
        return pa.table(
            {
                "q": pa.array(out_q, pa.string()),
                "doc_id": pa.array(np.array(out_i, np.int64), pa.int64()),
                "score": pa.array(np.array(out_s, np.int64), pa.int64()),
            }
        )

    parts = docs.map_batches(score, batch_format="pyarrow").to_pandas()
    out = (
        parts.sort_values(["q", "score", "doc_id"], ascending=[True, False, True])
        .groupby("q", as_index=False, sort=False)
        .head(10)
        .reset_index(drop=True)
    )
    return out[["q", "doc_id", "score"]]


X06_SQL = """
WITH qs(q) AS (VALUES ('vektor'), ('sow')),
v AS (SELECT DISTINCT UNNEST(string_split(text, ' ')) AS term FROM documents),
m AS (SELECT qs.q, v.term FROM qs JOIN v ON levenshtein(qs.q, v.term) <= 1),
tok AS (SELECT doc_id, UNNEST(string_split(text, ' ')) AS t FROM documents),
s AS (SELECT m.q, tok.doc_id, COUNT(*) AS score
      FROM tok JOIN m ON tok.t = m.term GROUP BY 1, 2),
r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY q
                                   ORDER BY score DESC, doc_id) AS rn FROM s)
SELECT q, doc_id, CAST(score AS BIGINT) AS score FROM r WHERE rn <= 10
"""


def m15_audio_segments(sf_dir: str, threshold: int = 512):
    """Activity-segment detection over REAL audio decodes (the
    VAD-shaped op of an audio curation pipeline): each doc's RIFF/WAVE
    payload decodes for real, samples classify active when
    ``|s| >= threshold``, and maximal runs of consecutive active
    samples become segments — per doc: active-sample count, segment
    count, and the longest segment.  All-integer; the SQL oracle
    re-derives every sample from the generator arithmetic and finds
    the runs with the gaps-and-islands window pattern."""
    from .stages.multimodal import decode_wav, synth_wav_payload

    ds = _read(sf_dir, "documents", ["doc_id"])

    def segments(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        out = {"doc_id": ids, "n_active": [], "n_segments": [], "max_seg": []}
        for i in ids:
            _rate, samples = decode_wav(synth_wav_payload(i))
            act = np.abs(samples.astype(np.int64)) >= threshold
            n_active = int(act.sum())
            # run-length encode the active mask
            if n_active:
                d = np.diff(act.astype(np.int8))
                starts = int(act[0]) + int((d == 1).sum())
                # segment lengths via boundaries
                idx = np.flatnonzero(
                    np.diff(np.concatenate(([0], act.view(np.int8), [0])))
                )
                lens = idx[1::2] - idx[0::2]
                out["n_segments"].append(starts)
                out["max_seg"].append(int(lens.max()))
            else:
                out["n_segments"].append(0)
                out["max_seg"].append(0)
            out["n_active"].append(n_active)
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "n_active": pa.array(out["n_active"], pa.int64()),
                "n_segments": pa.array(out["n_segments"], pa.int64()),
                "max_seg": pa.array(out["max_seg"], pa.int64()),
            }
        )

    return ds.map_batches(segments, batch_format="pyarrow", batch_size=256)


M15_SQL = """
WITH dims AS (
  SELECT doc_id, 64 + (doc_id * 89) % 193 AS n FROM documents),
s AS (
  SELECT doc_id, unnest(range(0, n)) AS j,
         abs(((doc_id * 31 + unnest(range(0, n)) * 57) % 2048) - 1024) AS a
  FROM dims),
act AS (SELECT doc_id, j FROM s WHERE a >= 512),
isl AS (
  SELECT doc_id,
         j - ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY j) AS island
  FROM act),
seg AS (
  SELECT doc_id, island, COUNT(*) AS seg_len
  FROM isl GROUP BY doc_id, island)
SELECT d.doc_id,
       CAST(COALESCE(SUM(seg_len), 0) AS BIGINT) AS n_active,
       CAST(COUNT(seg_len) AS BIGINT) AS n_segments,
       CAST(COALESCE(MAX(seg_len), 0) AS BIGINT) AS max_seg
FROM dims d LEFT JOIN seg ON seg.doc_id = d.doc_id
GROUP BY d.doc_id
"""


def x07_prefix_search(sf_dir: str, prefix: str = "sp"):
    """Prefix (wildcard 'sp*') search — the leading-edge range query a
    sorted term dictionary answers: per doc, the total tf of tokens
    starting with the prefix; top 10 by (tf DESC, doc_id).  Docs are
    row-local: ONE streaming pass (vectorized ``starts_with`` +
    bincount), local top-10 per batch, bounded driver merge — zero
    shuffles."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        hit = pc.starts_with(flat, prefix).to_numpy(zero_copy_only=False)
        per_doc = np.bincount(
            parents[hit], minlength=batch.num_rows
        ).astype(np.int64)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        keep = per_doc > 0
        kid, ks = ids[keep], per_doc[keep]
        order = np.lexsort((kid, -ks))[:10]
        return pa.table(
            {
                "doc_id": pa.array(kid[order], pa.int64()),
                "score": pa.array(ks[order], pa.int64()),
            }
        )

    parts = docs.map_batches(score, batch_format="pyarrow").to_pandas()
    return (
        parts.sort_values(["score", "doc_id"], ascending=[False, True])
        .head(10)
        .reset_index(drop=True)
    )


X07_SQL = """
WITH tok AS (
  SELECT doc_id, UNNEST(string_split(text, ' ')) AS t FROM documents),
s AS (SELECT doc_id, COUNT(*) AS score FROM tok
      WHERE t LIKE 'sp%' GROUP BY doc_id)
SELECT doc_id, CAST(score AS BIGINT) AS score
FROM s ORDER BY score DESC, doc_id LIMIT 10
"""


def q36_top_percent(sf_dir: str):
    """Relative top-k (top 1% of orders by price — "the head of the
    distribution", not a fixed count): pass 1 reduces the EXACT price
    histogram in integer cents (distinct-value-sized, never row-sized
    on the exchange); the 99th-percentile threshold derives from the
    cumulative counts with n03's percentile_disc rank rule; pass 2
    re-scans with the broadcast threshold and aggregates survivors per
    priority.  Ties at the threshold are all included (>=), so the
    result is deterministic with no arbitrary cut."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "orders", ["o_totalprice"])

    def to_cents(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"cents": _cents(batch["o_totalprice"].to_numpy())})

    hist = bucketed_sum(
        ds.map_batches(to_cents, batch_format="pandas", batch_size=65536),
        ["cents"],
        [],
        count_col="c",
    ).to_pandas().sort_values("cents")
    cum = hist["c"].cumsum().to_numpy()
    n = int(cum[-1])
    rank = -(-99 * n // 100)  # ceil(0.99 * n)
    thr = int(hist["cents"].to_numpy()[np.searchsorted(cum, rank)])

    full = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def survivors(batch: pd.DataFrame) -> pd.DataFrame:
        cents = _cents(batch["o_totalprice"].to_numpy())
        keep = cents >= thr
        return pd.DataFrame(
            {
                "o_orderpriority": batch["o_orderpriority"].to_numpy()[keep],
                "cents": cents[keep],
            }
        )

    out = bucketed_sum(
        full.map_batches(survivors, batch_format="pandas", batch_size=65536),
        ["o_orderpriority"],
        ["cents"],
        count_col="n_orders",
    ).to_pandas()
    out["sum_cents"] = out.pop("cents").astype("int64")
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values("o_orderpriority").reset_index(drop=True)


Q36_SQL = """
WITH c AS (
  SELECT o_orderpriority,
         CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
  FROM orders),
thr AS (
  SELECT percentile_disc(0.99) WITHIN GROUP (ORDER BY cents) AS t FROM c)
SELECT o_orderpriority,
       CAST(SUM(cents) AS BIGINT) AS sum_cents,
       CAST(COUNT(*) AS BIGINT) AS n_orders
FROM c, thr WHERE cents >= thr.t
GROUP BY o_orderpriority
"""


def w12_gap_stats(sf_dir: str, n_buckets: int = 64):
    """Time-series densification audit (the gap-fill planning pass):
    per user, the span of hourly slots between first and last event,
    how many slots are active, and how many are GAPS a densification
    join would have to fill.  Per-batch distinct (user, hour) combiner
    partials, ONE user-hash bucket shuffle, vectorized per-bucket
    min/max/distinct — the row volume on the exchange is bounded by
    active (user, hour) slots, never raw events."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": batch["user_id"],
                "hour": batch["ts"].dt.floor("h"),
            }
        ).drop_duplicates()

    slots = bucketed_sum(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        ["user_id", "hour"],
        [],
        count_col="c",
    )

    def per_user(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("user_id")["hour"].agg(["min", "max", "nunique"])
        span = (
            (g["max"] - g["min"]) // pd.Timedelta(hours=1) + 1
        ).astype("int64")
        return pd.DataFrame(
            {
                "user_id": g.index.to_numpy(),
                "slots": span.to_numpy(),
                "active": g["nunique"].astype("int64").to_numpy(),
                "gaps": (span - g["nunique"]).astype("int64").to_numpy(),
            }
        )

    # slots is already user-bucketed: one more tiny bucket-run keyed by
    # user hash finishes min/max/distinct per user
    def bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["bucket"] = (
            batch["user_id"].to_numpy().astype(np.int64) % n_buckets
        ).astype("int32")
        return batch

    out = (
        slots.map_batches(bucketize, batch_format="pandas", batch_size=65536)
        .groupby("bucket")
        .map_groups(per_user, batch_format="pandas")
    )
    return out


W12_SQL = """
WITH h AS (
  SELECT DISTINCT user_id, date_trunc('hour', ts) AS hour FROM events),
g AS (
  SELECT user_id,
         date_diff('hour', MIN(hour), MAX(hour)) + 1 AS slots,
         COUNT(*) AS active
  FROM h GROUP BY user_id)
SELECT user_id, CAST(slots AS BIGINT) AS slots,
       CAST(active AS BIGINT) AS active,
       CAST(slots - active AS BIGINT) AS gaps
FROM g
"""


def s08_csv_roundtrip(sf_dir: str):
    """CSV source plumbing end-to-end as a first-class query: documents
    (pruned to id/lang/n_chars) write as sharded CSV under /tmp via the
    distributed writer, stream back through ``ray.data.read_csv``, and
    aggregate per lang — proving the non-Parquet ingest path (type
    re-inference included) yields bit-identical aggregates.  CSV cannot
    prune columns or push filters (the JSONL trade-off, documented at
    sources/transcripts.read_transcripts_jsonl), so Parquet remains the
    scale path; this query is the FORMAT-COMPATIBILITY gate."""
    import os as _os
    import shutil

    import ray.data

    from .stages.agg import bucketed_sum

    stage = (
        "/tmp/naer_csv_roundtrip/"
        f"{_os.getpid()}-{_os.path.basename(sf_dir.rstrip('/'))}"
    )
    shutil.rmtree(stage, ignore_errors=True)
    _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"]).write_csv(stage)

    back = ray.data.read_csv(stage)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.assign(n=np.int64(1))
        return batch.groupby("lang", as_index=False)[["n_chars", "n"]].sum()

    out = bucketed_sum(
        back.map_batches(partial, batch_format="pandas", batch_size=65536),
        ["lang"],
        ["n_chars", "n"],
    ).to_pandas()
    shutil.rmtree(stage, ignore_errors=True)
    out = out.rename(columns={"n_chars": "sum_n_chars"}).astype(
        {"sum_n_chars": "int64", "n": "int64"}
    )
    return out.sort_values("lang").reset_index(drop=True)


S08_SQL = """
SELECT lang, CAST(SUM(n_chars) AS BIGINT) AS sum_n_chars,
       CAST(COUNT(*) AS BIGINT) AS n
FROM documents GROUP BY lang
"""


def g07_copurchase_topk(sf_dir: str, k: int = 20, n_buckets: int = 64):
    """"Frequently bought together": the top part pairs by the number
    of ORDERS containing both (the weighted bipartite projection g06's
    reachability query does not compute).  One orderkey-hash
    bucket-run derives each order's distinct (a < b) pairs via a
    single vectorized self-merge; pair weights reduce through one
    cardinality-sized bucketed sum; top-k with the (w DESC, pa, pb)
    deterministic tie-break."""
    from .stages.agg import bucketed_sum

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["bucket"] = (
            batch["l_orderkey"].to_numpy().astype(np.int64) % n_buckets
        ).astype("int32")
        return batch

    def order_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g[["l_orderkey", "l_partkey"]].drop_duplicates()
        m = g.merge(g, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        return m.rename(
            columns={"l_partkey_x": "pa", "l_partkey_y": "pb"}
        )[["pa", "pb"]]

    pairs = li.map_batches(
        bucketize, batch_format="pandas", batch_size=65536
    ).groupby("bucket").map_groups(order_pairs, batch_format="pandas")
    w = bucketed_sum(pairs, ["pa", "pb"], [], count_col="w").to_pandas()
    w["w"] = w["w"].astype("int64")
    top = w.sort_values(
        ["w", "pa", "pb"], ascending=[False, True, True]
    ).head(k)
    return top.reset_index(drop=True)


G07_SQL = """
WITH p AS (
  SELECT DISTINCT a.l_orderkey, a.l_partkey pa, b.l_partkey pb
  FROM lineitem a JOIN lineitem b
  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey)
SELECT pa, pb, CAST(COUNT(*) AS BIGINT) AS w
FROM p GROUP BY pa, pb
ORDER BY w DESC, pa, pb LIMIT 20
"""


def x08_more_like_this(sf_dir: str, query_doc: int = 42):
    """"More like this" document similarity search: the top 10 docs by
    word-BIGRAM Jaccard against a query document.  Output carries the
    EXACT integer (intersection, union) pair; the ranking float is one
    IEEE division of identical integers on both sides (x02's rank-only
    discipline), tie-broken by doc_id.

    Scale shape: the query doc's bigram set broadcasts once (point
    read + ``ray.put``); each batch derives its docs' distinct bigrams
    vectorized, intersects via one ``isin`` pass, keeps a LOCAL top-10
    — zero shuffles, blocks x 10 driver merge."""
    import pyarrow.dataset as pads
    import ray

    from .stages.text import _batch_bigrams, _string_array

    qt = pads.dataset(f"{sf_dir}/documents.parquet").to_table(
        columns=["doc_id", "text"], filter=pc.field("doc_id") == query_doc
    )
    qtext = qt["text"][0].as_py()
    ws = qtext.split(" ")
    qset = {f"{a} {b}" for a, b in zip(ws, ws[1:]) if a and b}
    q_ref = ray.put(qset)
    nq = len(qset)

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        qs = ray.get(q_ref)
        bg, parents, n_docs = _batch_bigrams(_string_array(batch["text"]))
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "inter": pa.array([], pa.int64()),
                "uni": pa.array([], pa.int64()),
            }
        )
        if not len(bg):
            return empty
        # distinct bigrams per doc
        df = pd.DataFrame(
            {"g": bg.to_pandas(), "p": parents}
        ).drop_duplicates()
        nd = np.bincount(df["p"].to_numpy(), minlength=n_docs).astype(np.int64)
        hit = df["g"].isin(qs).to_numpy()
        inter = np.bincount(
            df["p"].to_numpy()[hit], minlength=n_docs
        ).astype(np.int64)
        uni = nd + nq - inter
        keep = (inter > 0) & (ids != query_doc)
        kid, ki, ku = ids[keep], inter[keep], uni[keep]
        jac = ki / ku  # one IEEE division, rank key only
        order = np.lexsort((kid, -jac))[:10]
        return pa.table(
            {
                "doc_id": pa.array(kid[order], pa.int64()),
                "inter": pa.array(ki[order], pa.int64()),
                "uni": pa.array(ku[order], pa.int64()),
            }
        )

    parts = docs.map_batches(score, batch_format="pyarrow").to_pandas()
    jac = parts["inter"] / parts["uni"]
    parts = parts.assign(_j=jac)
    top = parts.sort_values(["_j", "doc_id"], ascending=[False, True]).head(10)
    return top.drop(columns=["_j"]).reset_index(drop=True)


X08_SQL = """
WITH bi AS (
  SELECT DISTINCT doc_id,
         ws[CAST(i AS INT)] || ' ' || ws[CAST(i AS INT) + 1] AS g
  FROM (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
       LATERAL unnest(generate_series(1, len(ws) - 1)) AS t(i)),
q AS (SELECT g FROM bi WHERE doc_id = 42),
nq AS (SELECT COUNT(*) AS n FROM q),
n AS (SELECT doc_id, COUNT(*) AS n FROM bi GROUP BY doc_id),
i AS (SELECT b.doc_id, COUNT(*) AS c FROM bi b JOIN q ON b.g = q.g
      WHERE b.doc_id <> 42 GROUP BY b.doc_id)
SELECT i.doc_id, CAST(i.c AS BIGINT) AS inter,
       CAST(n.n + nq.n - i.c AS BIGINT) AS uni
FROM i JOIN n ON n.doc_id = i.doc_id CROSS JOIN nq
ORDER BY CAST(i.c AS DOUBLE) / (n.n + nq.n - i.c) DESC, i.doc_id
LIMIT 10
"""


def k02_kmeans_assign_persisted(sf_dir: str):
    """Persisted-model scoring for clustering (the a08/x04 incremental
    contract applied to k-means): centroids fit ONCE and save to disk;
    a separate scoring pass reloads them — no refit — and assigns the
    corpus in one broadcast scan.  Gate: persisted-path assignments
    must equal the single-process reference exactly (k01's literal-
    gate pattern for non-SQL-expressible ops)."""
    import os as _os
    import shutil

    import pyarrow.parquet as pq_
    import ray

    from .stages.cluster import kmeans_fit, kmeans_reference

    k = 8
    path = (
        "/tmp/naer_kmeans_model/"
        f"{_os.getpid()}-{_os.path.basename(sf_dir.rstrip('/'))}"
    )
    shutil.rmtree(path, ignore_errors=True)
    _os.makedirs(path)

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    centroids, _assign_fn = kmeans_fit(ds, "vec_id", "embedding", k=k, n_iter=5)
    np.save(f"{path}/centroids.npy", centroids)

    # ---- scoring job: reload, broadcast, one assignment scan ----
    from .stages.ann import _as_matrix
    from .stages.cluster import _assign

    loaded = np.load(f"{path}/centroids.npy")
    cref = ray.put(loaded)

    def assign_batch(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        mat = _as_matrix(batch["embedding"])
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "cluster": pa.array(_assign(mat, c), pa.int64()),
            }
        )

    got = (
        _read(sf_dir, "embeddings", ["vec_id", "embedding"])
        .map_batches(assign_batch, batch_format="pyarrow")
        .to_pandas()
        .sort_values("vec_id")
    )

    ref_tbl = pq_.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    ids = ref_tbl["vec_id"].to_numpy()
    mat = np.array(ref_tbl["embedding"].to_pylist(), dtype=np.float64)
    order = np.argsort(ids)
    want = kmeans_reference(ids[order], mat[order], k=k, n_iter=5)
    match = bool((got["cluster"].to_numpy() == want).all())
    shutil.rmtree(path, ignore_errors=True)

    out = pd.DataFrame({"cluster_id": range(k)})
    out["cluster_id"] = out["cluster_id"].astype("int64")
    out["persisted_assign_match"] = match
    return out


K02_SQL = """
SELECT CAST(range AS BIGINT) AS cluster_id, TRUE AS persisted_assign_match
FROM range(8)
"""


def j06_bloom_semi_join(sf_dir: str):
    """Bloom-accelerated semi join (the filter-pushdown optimization a
    shuffle join plans at scale): orders ⋉ BUILDING-segment customers
    through ``stages/bloom.bloom_flag_membership`` — the broadcast
    Bloom resolves most non-members EXACTLY to false before the
    shuffle, so only Bloom-positive rows enter the key-hash
    co-partition for the exact verdict.  The result is bit-identical
    to the plain semi join (false positives die at the exact stage —
    the oracle checks precisely that), only the exchange volume
    changes.  Survivors aggregate per priority in integer cents."""
    from .stages.agg import bucketed_sum
    from .stages.bloom import bloom_flag_membership

    orders = _read(
        sf_dir, "orders", ["o_custkey", "o_orderpriority", "o_totalprice"]
    )
    keys = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda b: b.filter(pc.equal(b["c_mktsegment"], "BUILDING")).select(
            ["c_custkey"]
        ),
        batch_format="pyarrow",
    )
    flagged = bloom_flag_membership(
        orders,
        keys,
        left_col="o_custkey",
        key_col="c_custkey",
        n_expected=200_000,
    )

    def survivors(batch: pd.DataFrame) -> pd.DataFrame:
        keep = batch["in_right"].to_numpy()
        return pd.DataFrame(
            {
                "o_orderpriority": batch["o_orderpriority"].to_numpy()[keep],
                "cents": _cents(batch["o_totalprice"].to_numpy()[keep]),
            }
        )

    out = bucketed_sum(
        flagged.map_batches(survivors, batch_format="pandas", batch_size=65536),
        ["o_orderpriority"],
        ["cents"],
        count_col="n_orders",
    ).to_pandas()
    out["sum_cents"] = out.pop("cents").astype("int64")
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values("o_orderpriority").reset_index(drop=True)


J06_SQL = """
SELECT o.o_orderpriority,
       CAST(SUM(CAST(FLOOR(o.o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS sum_cents,
       CAST(COUNT(*) AS BIGINT) AS n_orders
FROM orders o
WHERE EXISTS (SELECT 1 FROM customer c
              WHERE c.c_custkey = o.o_custkey
                AND c.c_mktsegment = 'BUILDING')
GROUP BY o.o_orderpriority
"""


def v03_schema_drift(sf_dir: str):
    """Schema-drift monitor (the detection side of s06's conforming
    reader): two staged snapshot generations — gen 2 drops ``lang``,
    adds ``source2`` and narrows ``doc_id`` to int32 — are compared by
    their parquet FOOTERS alone (metadata-only reads: at 100 TB the
    drift report never touches data) and classified per column:
    kept / dropped / added / type_changed."""
    import os as _os
    import shutil

    import pyarrow.parquet as _pq

    stage = (
        "/tmp/naer_schema_drift/"
        f"{_os.getpid()}-{_os.path.basename(sf_dir.rstrip('/'))}"
    )
    shutil.rmtree(stage, ignore_errors=True)
    _os.makedirs(stage)
    src = _pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "source"]
    )
    _pq.write_table(src, f"{stage}/gen1.parquet")
    _pq.write_table(
        pa.table(
            {
                "doc_id": pc.cast(src["doc_id"], pa.int32()),
                "source": src["source"],
                "source2": src["source"],
            }
        ),
        f"{stage}/gen2.parquet",
    )

    s1 = _pq.read_schema(f"{stage}/gen1.parquet")
    s2 = _pq.read_schema(f"{stage}/gen2.parquet")
    d1 = {f.name: str(f.type) for f in s1}
    d2 = {f.name: str(f.type) for f in s2}
    rows = []
    for col in sorted(set(d1) | set(d2)):
        if col in d1 and col in d2:
            status = "kept" if d1[col] == d2[col] else "type_changed"
        elif col in d1:
            status = "dropped"
        else:
            status = "added"
        rows.append(
            {
                "col": col,
                "status": status,
                "old_type": d1.get(col, ""),
                "new_type": d2.get(col, ""),
            }
        )
    shutil.rmtree(stage, ignore_errors=True)
    return pd.DataFrame(rows)


V03_SQL = """
SELECT * FROM (VALUES
  ('doc_id', 'type_changed', 'int64', 'int32'),
  ('lang', 'dropped', 'string', ''),
  ('source', 'kept', 'string', 'string'),
  ('source2', 'added', '', 'string'))
AS t(col, status, old_type, new_type)
"""


def m16_frame_diff(sf_dir: str):
    """Inter-frame difference profile over REAL video decodes (the
    scene-cut signal of a video curation pipeline): each doc's
    MJPEG/AVI clip fully decodes (container walk + per-frame baseline
    JPEG), and consecutive frames diff on the luma plane — per doc:
    frame count and the total absolute Y difference across all frame
    transitions.  Exact integers (flat DC-only blocks decode to the
    closed-form Y), so the SQL oracle re-derives every per-block
    transition from the generator arithmetic."""
    from .stages.multimodal import decode_mjpeg_avi, synth_mjpeg_avi_payload

    ds = _read(sf_dir, "documents", ["doc_id"]).repartition(32)

    def diff(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        out = {"doc_id": ids, "n_frames": [], "total_ydiff": []}
        for i in ids:
            frames = decode_mjpeg_avi(synth_mjpeg_avi_payload(i))
            ys = [f[3][:, 0].astype(np.int64) for f in frames]  # luma plane
            total = 0
            for a, b in zip(ys, ys[1:]):
                total += int(np.abs(b - a).sum())
            out["n_frames"].append(len(frames))
            out["total_ydiff"].append(total)
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "n_frames": pa.array(out["n_frames"], pa.int64()),
                "total_ydiff": pa.array(out["total_ydiff"], pa.int64()),
            }
        )

    return ds.map_batches(diff, batch_format="pyarrow", batch_size=64)


M16_SQL = """
WITH dims AS (
  SELECT doc_id,
         1 + doc_id % 4 AS nf,
         1 + (doc_id * 7) % 4 AS bw,
         1 + (doc_id * 11) % 4 AS bh
  FROM documents),
tr AS (
  SELECT doc_id, nf, bw, bh, unnest(range(0, nf - 1)) AS f FROM dims),
blk AS (
  SELECT doc_id, nf, bw, bh, f, unnest(range(0, bw * bh)) AS i FROM tr),
d AS (
  SELECT doc_id, nf,
         64 * abs(((doc_id * 5 + (f + 1) * 13 + i * 37) % 256)
                  - ((doc_id * 5 + f * 13 + i * 37) % 256)) AS ydiff
  FROM blk)
SELECT dims.doc_id,
       CAST(dims.nf AS BIGINT) AS n_frames,
       CAST(COALESCE(SUM(d.ydiff), 0) AS BIGINT) AS total_ydiff
FROM dims LEFT JOIN d ON d.doc_id = dims.doc_id
GROUP BY dims.doc_id, dims.nf
"""


def a10_filtered_vector_search(sf_dir: str, num: int = 1, den: int = 5):
    """FILTERED vector search (the vector-DB staple: similarity under
    a metadata predicate — "nearest docs WHERE lang = 'en'"): radius
    search at cosine >= num/den restricted to vectors whose paired
    document is English.  The attribute filter co-partitions with the
    vectors through the native hash join (both tables corpus-sized at
    100 TB — never a broadcast of the filter side), then a09's exact
    integer-quantized predicate scans the surviving stream with zero
    further shuffles."""
    import ray

    from .stages.ann import _as_matrix

    q = _point_read_embeddings(sf_dir, [0, 1, 2])
    qm = np.floor(_as_matrix(q["embedding"]) * 100 + 0.5).astype(np.int64)
    qids = q["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    q2 = (qm * qm).sum(axis=1)
    q_ref = ray.put((qm, qids, q2))

    vecs = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def metrics(batch: pa.Table) -> pa.Table:
        # dot/norm metrics BEFORE the join: the exchange then carries
        # 5 int64 columns per vector instead of the raw embedding
        # (which acero joins also reject as a list payload)
        qm_, _qids, _q2 = ray.get(q_ref)
        v = np.floor(_as_matrix(batch["embedding"]) * 100 + 0.5).astype(
            np.int64
        )
        dots = v @ qm_.T
        n2 = (v * v).sum(axis=1)
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "d0": pa.array(dots[:, 0], pa.int64()),
                "d1": pa.array(dots[:, 1], pa.int64()),
                "d2": pa.array(dots[:, 2], pa.int64()),
                "n2": pa.array(n2, pa.int64()),
            }
        )

    en_docs = _read(sf_dir, "documents", ["doc_id", "lang"]).map_batches(
        lambda b: b.filter(pc.equal(b["lang"], "en")).select(["doc_id"]),
        batch_format="pyarrow",
    )
    n_parts = max(8, int(ray.cluster_resources().get("CPU", 8)) // 2)
    filtered = vecs.map_batches(metrics, batch_format="pyarrow").join(
        en_docs,
        join_type="inner",
        num_partitions=n_parts,
        on=("vec_id",),
        right_on=("doc_id",),
    )

    def predicate(batch: pa.Table) -> pa.Table:
        _qm, qids_, q2_ = ray.get(q_ref)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        dots = np.stack(
            [
                batch[c].to_numpy(zero_copy_only=False).astype(np.int64)
                for c in ("d0", "d1", "d2")
            ],
            axis=1,
        )
        n2 = batch["n2"].to_numpy(zero_copy_only=False).astype(np.int64)
        ok = (dots > 0) & (
            den * den * dots * dots >= num * num * n2[:, None] * q2_[None, :]
        )
        r, c = np.nonzero(ok)
        return pa.table(
            {
                "query_id": pa.array(qids_[c], pa.int64()),
                "vec_id": pa.array(ids[r], pa.int64()),
            }
        )

    out = filtered.map_batches(predicate, batch_format="pyarrow").to_pandas()
    return out.sort_values(["query_id", "vec_id"]).reset_index(drop=True)


A10_SQL = """
WITH q AS (SELECT vec_id AS qid, embedding AS qv FROM embeddings
           WHERE vec_id IN (0, 1, 2)),
en AS (SELECT doc_id FROM documents WHERE lang = 'en'),
u AS (SELECT qid, e.vec_id,
  list_sum(list_transform(range(1, len(e.embedding) + 1),
     i -> CAST(FLOOR(e.embedding[i] * 100 + 0.5) AS BIGINT)
          * CAST(FLOOR(qv[i] * 100 + 0.5) AS BIGINT))) AS dot,
  list_sum(list_transform(e.embedding,
     x -> CAST(FLOOR(x * 100 + 0.5) AS BIGINT)
          * CAST(FLOOR(x * 100 + 0.5) AS BIGINT))) AS n2,
  list_sum(list_transform(qv,
     x -> CAST(FLOOR(x * 100 + 0.5) AS BIGINT)
          * CAST(FLOOR(x * 100 + 0.5) AS BIGINT))) AS q2
 FROM embeddings e JOIN en ON en.doc_id = e.vec_id CROSS JOIN q)
SELECT CAST(qid AS BIGINT) AS query_id, vec_id
FROM u WHERE dot > 0 AND 25 * dot * dot >= n2 * q2
"""


def i05_snapshot_diff(sf_dir: str, n_buckets: int = 64):
    """Table diff between snapshot generations (the lakehouse
    reconciliation op): gen 2 drops every doc_id % 20 == 0, adds ids
    +2M for % 7 == 0, and rewrites n_chars (+1) for % 3 == 0 — the
    diff classifies every key as added / removed / changed / unchanged
    and reports the four counts.

    Scale shape: both generations stream as (id, fingerprint) rows —
    the fingerprint here is the compared column, at width W it's a
    hash — through ONE id-hash bucket-run full-outer compare; counts
    pre-aggregate per bucket and one tiny sum finishes.  Neither
    generation is ever driver-resident."""
    from .stages.agg import bucketed_sum

    base = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def gen1(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id": batch["doc_id"],
                "v": batch["n_chars"],
                "side": pa.array(np.zeros(len(batch), np.int8), pa.int8()),
            }
        )

    def gen2(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        v = batch["n_chars"].to_numpy(zero_copy_only=False).copy()
        keep = ids % 20 != 0
        ids_k, v_k = ids[keep], v[keep]
        v_k = np.where(ids_k % 3 == 0, v_k + 1, v_k)
        add = ids[ids % 7 == 0] + 2_000_000
        out_ids = np.concatenate([ids_k, add])
        out_v = np.concatenate([v_k, np.full(len(add), 1, np.int64)])
        return pa.table(
            {
                "id": pa.array(out_ids, pa.int64()),
                "v": pa.array(out_v, pa.int64()),
                "side": pa.array(np.ones(len(out_ids), np.int8), pa.int8()),
            }
        )

    both = base.map_batches(gen1, batch_format="pyarrow").union(
        base.map_batches(gen2, batch_format="pyarrow")
    )

    def bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["bucket"] = (
            batch["id"].to_numpy().astype(np.int64) % n_buckets
        ).astype("int32")
        return batch

    def classify(g: pd.DataFrame) -> pd.DataFrame:
        p = g.pivot_table(
            index="id", columns="side", values="v", aggfunc="first"
        )
        has0 = p[0].notna() if 0 in p.columns else pd.Series(False, p.index)
        has1 = p[1].notna() if 1 in p.columns else pd.Series(False, p.index)
        added = int((~has0 & has1).sum())
        removed = int((has0 & ~has1).sum())
        b = has0 & has1
        changed = int((b & (p[0] != p[1])).sum()) if b.any() else 0
        unchanged = int(b.sum()) - changed
        return pd.DataFrame(
            {
                "added": [np.int64(added)],
                "removed": [np.int64(removed)],
                "changed": [np.int64(changed)],
                "unchanged": [np.int64(unchanged)],
            }
        )

    parts = (
        both.map_batches(bucketize, batch_format="pandas", batch_size=65536)
        .groupby("bucket")
        .map_groups(classify, batch_format="pandas")
        .to_pandas()
    )
    out = pd.DataFrame([parts.sum()]).astype("int64")
    return out[["added", "removed", "changed", "unchanged"]]


I05_SQL = """
WITH g1 AS (SELECT doc_id AS id, n_chars AS v FROM documents),
g2 AS (
  SELECT doc_id AS id,
         CASE WHEN doc_id % 3 = 0 THEN n_chars + 1 ELSE n_chars END AS v
  FROM documents WHERE doc_id % 20 <> 0
  UNION ALL
  SELECT doc_id + 2000000, 1 FROM documents WHERE doc_id % 7 = 0),
j AS (SELECT g1.id AS id1, g2.id AS id2, g1.v AS v1, g2.v AS v2
      FROM g1 FULL OUTER JOIN g2 ON g1.id = g2.id)
SELECT CAST(SUM(CASE WHEN id1 IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS added,
       CAST(SUM(CASE WHEN id2 IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS removed,
       CAST(SUM(CASE WHEN id1 IS NOT NULL AND id2 IS NOT NULL
                      AND v1 <> v2 THEN 1 ELSE 0 END) AS BIGINT) AS changed,
       CAST(SUM(CASE WHEN id1 IS NOT NULL AND id2 IS NOT NULL
                      AND v1 = v2 THEN 1 ELSE 0 END) AS BIGINT) AS unchanged
FROM j
"""


def b03_vocab_coverage(sf_dir: str, top_k: int = 20):
    """Tokenizer-health audit: out-of-vocabulary rate per document
    under a FROZEN top-K vocabulary (the coverage check run before
    committing a tokenizer to a 100-TB corpus).  Pass 1 reduces the
    global term histogram (vocabulary-sized, t16 contract) and freezes
    the top-K by (count DESC, term) deterministic tie-break; pass 2
    broadcasts the K terms and counts per-doc total vs OOV tokens
    vectorized — integer-exact."""
    import ray

    from .stages.agg import bucketed_sum

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def term_counts(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = pa.table({"term": flat}).group_by("term").aggregate(
            [("term", "count")]
        )
        return vc.rename_columns(["term", "c"])

    hist = bucketed_sum(
        docs.map_batches(term_counts, batch_format="pyarrow"),
        ["term"],
        ["c"],
    ).to_pandas()
    hist = hist.sort_values(["c", "term"], ascending=[False, True])
    vocab = set(hist.head(top_k)["term"])
    v_ref = ray.put(vocab)

    docs2 = _read(sf_dir, "documents", ["doc_id", "text"])

    def coverage(batch: pa.Table) -> pa.Table:
        vs = pa.array(sorted(ray.get(v_ref)), pa.string())
        toks = pc.split_pattern(batch["text"], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        known = pc.is_in(flat, value_set=vs).to_numpy(zero_copy_only=False)
        n = np.bincount(parents[nonempty], minlength=batch.num_rows)
        oov = np.bincount(
            parents[nonempty & ~known], minlength=batch.num_rows
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n.astype(np.int64), pa.int64()),
                "n_oov": pa.array(oov.astype(np.int64), pa.int64()),
            }
        )

    return docs2.map_batches(coverage, batch_format="pyarrow")


B03_SQL = """
WITH tok AS (
  SELECT doc_id, UNNEST(string_split(text, ' ')) AS t FROM documents),
hist AS (SELECT t, COUNT(*) AS c FROM tok GROUP BY t),
vocab AS (SELECT t FROM hist ORDER BY c DESC, t LIMIT 20)
SELECT doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_tokens,
       CAST(SUM(CASE WHEN v.t IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_oov
FROM tok LEFT JOIN vocab v ON tok.t = v.t
GROUP BY doc_id
"""


def w13_running_distinct(sf_dir: str, n_buckets: int = 64):
    """Running DISTINCT count (the streaming cardinality window SQL
    engines famously refuse — COUNT(DISTINCT) OVER is unsupported in
    most dialects): per event, how many distinct event_types its user
    has produced up to and including that event, in (ts, event_id)
    order.  ONE user-hash bucket shuffle; inside each bucket the
    first-occurrence flag (pandas ``duplicated`` C kernel per
    (user, type)) cumsums per user — no per-row Python."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["bucket"] = (
            batch["user_id"].to_numpy().astype(np.int64) % n_buckets
        ).astype("int32")
        return batch

    def running(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        first = (~g.duplicated(["user_id", "event_type"])).astype("int64")
        run = first.groupby(g["user_id"].to_numpy()).cumsum()
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "n_distinct_types": run.to_numpy().astype("int64"),
            }
        )

    return (
        ds.map_batches(bucketize, batch_format="pandas", batch_size=65536)
        .groupby("bucket")
        .map_groups(running, batch_format="pandas")
    )


W13_SQL = """
WITH r AS (
  SELECT event_id, user_id, ts,
         ROW_NUMBER() OVER (PARTITION BY user_id, event_type
                            ORDER BY ts, event_id) AS rn
  FROM events)
SELECT event_id,
       CAST(SUM(CASE WHEN rn = 1 THEN 1 ELSE 0 END) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS UNBOUNDED PRECEDING) AS BIGINT) AS n_distinct_types
FROM r
"""


def u02_host_cap(sf_dir: str, cap: int = 3):
    """Per-host document cap (the CommonCrawl curation rule "at most N
    pages per host", distinct from d17's exact-URL dedup): each doc's
    URL derives by u01's closed-form construction, REALLY parses and
    normalizes (stages/url), and only the ``cap`` lowest doc_ids per
    normalized host survive.

    Scale shape: the cap is an ASSOCIATIVE bottom-k — each batch keeps
    its local bottom-``cap`` per host (combiner), so the exchange
    carries hosts x cap x batches rows and the final merge is
    host-cardinality-sized.  No global sort, no row-level shuffle."""
    from .stages.url import parse_normalize_urls

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source"])

    def local_cap(batch: pa.Table) -> pd.DataFrame:
        ids = batch["doc_id"].combine_chunks().to_numpy()
        m211 = pa.array((ids % 211).astype("U"), type=pa.string())
        m13 = pa.array((ids % 13).astype("U"), type=pa.string())
        raw = pc.binary_join_element_wise(
            pa.scalar("HTTPS://"),
            pc.utf8_upper(batch["source"].combine_chunks()),
            pa.scalar(".Example.COM:443/"),
            batch["lang"].combine_chunks(),
            pa.scalar("/page-"),
            m211,
            pa.scalar("?utm_source=feed&id="),
            m13,
            "",
        )
        parsed = parse_normalize_urls(raw)
        df = pd.DataFrame(
            {
                "host": parsed["host"].to_pandas(),
                "doc_id": ids,
            }
        )
        return (
            df.sort_values(["host", "doc_id"])
            .groupby("host", as_index=False, sort=False)
            .head(cap)
        )

    parts = ds.map_batches(local_cap, batch_format="pyarrow").to_pandas()
    out = (
        parts.sort_values(["host", "doc_id"])
        .groupby("host", as_index=False, sort=False)
        .head(cap)
        .reset_index(drop=True)
    )
    return out[["host", "doc_id"]]


U02_SQL = """
WITH d AS (
  SELECT lower(source) || '.example.com' AS host, doc_id FROM documents),
r AS (
  SELECT host, doc_id,
         ROW_NUMBER() OVER (PARTITION BY host ORDER BY doc_id) AS rn
  FROM d)
SELECT host, doc_id FROM r WHERE rn <= 3
"""


def v04_skew_report(sf_dir: str):
    """Key-skew diagnostic (the profiling pass run BEFORE choosing a
    partitioning key at 100 TB): per event_type, the row count and its
    integer parts-per-million share of the table — the numbers that
    tell an engineer whether a key needs the salted reduce (q35).
    One combiner count pass + cardinality-sized shuffle; the shares
    are exact integer floor divisions of identical operands."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "events", ["event_type"])
    counts = bucketed_sum(ds, ["event_type"], [], count_col="n").to_pandas()
    total = int(counts["n"].sum())
    counts["n"] = counts["n"].astype("int64")
    counts["share_ppm"] = (counts["n"] * 1_000_000 // total).astype("int64")
    return counts.sort_values("event_type").reset_index(drop=True)


V04_SQL = """
WITH c AS (SELECT event_type, COUNT(*) AS n FROM events GROUP BY event_type),
t AS (SELECT SUM(n) AS total FROM c)
SELECT event_type, CAST(n AS BIGINT) AS n,
       CAST(n * 1000000 // total AS BIGINT) AS share_ppm
FROM c, t
"""


def _morton16(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Interleave the low 8 bits of ``a`` (even positions) and ``b``
    (odd positions) — the Z-order key.  Pure integer arithmetic so the
    SQL oracle can re-derive it bit for bit."""
    out = np.zeros(len(a), np.int64)
    for i in range(8):
        out |= ((a >> i) & 1) << (2 * i)
        out |= ((b >> i) & 1) << (2 * i + 1)
    return out


def s09_zorder_layout(sf_dir: str):
    """Z-ORDER layout sort (the data-layout optimization a 100-TB
    table needs so range predicates on EITHER of two columns prune
    row groups): events keyed by the Morton interleave of
    (user_id % 256, hour-of-day) and globally sorted with exact ranks
    through the TeraSort-shaped range partitioner (s05's machinery —
    sampled bounds, ONE exchange, per-part rank offsets).  The key is
    pure integer bit arithmetic, re-derived bit-for-bit in SQL."""
    from .stages.order import range_partition_sort

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def key(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch["user_id"].to_numpy().astype(np.int64) % 256
        b = batch["ts"].dt.hour.to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "event_id": batch["event_id"],
                "zkey": _morton16(a, b),
            }
        )

    keyed = ds.map_batches(key, batch_format="pandas", batch_size=65536)
    return range_partition_sort(keyed, "zkey", "event_id", n_parts=64)


_S09_MORTON_SQL = " + ".join(
    f"(((user_id % 256) // {1 << i}) % 2) * {1 << (2 * i)}"
    f" + ((hour(ts) // {1 << i}) % 2) * {1 << (2 * i + 1)}"
    for i in range(8)
)

S09_SQL = f"""
WITH k AS (
  SELECT event_id, CAST({_S09_MORTON_SQL} AS BIGINT) AS zkey FROM events)
SELECT event_id, zkey,
       ROW_NUMBER() OVER (ORDER BY zkey, event_id) AS global_rank
FROM k
"""


def v05_column_profile(sf_dir: str):
    """Column profiler (the Deequ/profiling pass run before trusting a
    new 100-TB drop): per numeric lineitem column — count, distinct
    count, min, max, sum — money in integer cents so every stat is
    order-independent and hash-exact.

    Scale shape: ONE scan melts each batch to (col, value) rows with
    per-batch combiner partials for n/min/max/sum; the distinct count
    rides a (col, value)-keyed bucketed reduce whose exchange is
    bounded by per-column VALUE cardinality, never rows."""
    from .stages.agg import bucketed_sum

    COLS = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    ds = _read(sf_dir, "lineitem", COLS)

    def melt(batch: pd.DataFrame) -> pd.DataFrame:
        parts = []
        for c in COLS:
            v = _cents(batch[c].to_numpy())
            u, cnt = np.unique(v, return_counts=True)
            parts.append(
                pd.DataFrame(
                    {
                        "col": c,
                        "value": u,
                        "n": cnt.astype(np.int64),
                        "s": u * cnt,
                    }
                )
            )
        return pd.concat(parts, ignore_index=True)

    per_value = bucketed_sum(
        ds.map_batches(melt, batch_format="pandas", batch_size=65536),
        ["col", "value"],
        ["n", "s"],
    ).to_pandas()

    g = per_value.groupby("col")
    out = pd.DataFrame(
        {
            "col": sorted(COLS),
            "n": g["n"].sum().loc[sorted(COLS)].to_numpy(),
            "n_distinct": g.size().loc[sorted(COLS)].to_numpy(),
            "min_c": g["value"].min().loc[sorted(COLS)].to_numpy(),
            "max_c": g["value"].max().loc[sorted(COLS)].to_numpy(),
            "sum_c": g["s"].sum().loc[sorted(COLS)].to_numpy(),
        }
    )
    return out.astype(
        {
            "n": "int64",
            "n_distinct": "int64",
            "min_c": "int64",
            "max_c": "int64",
            "sum_c": "int64",
        }
    )


V05_SQL = """
WITH m AS (
  SELECT 'l_quantity' AS col,
         CAST(FLOOR(l_quantity * 100 + 0.5) AS BIGINT) AS v FROM lineitem
  UNION ALL
  SELECT 'l_extendedprice',
         CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT) FROM lineitem
  UNION ALL
  SELECT 'l_discount',
         CAST(FLOOR(l_discount * 100 + 0.5) AS BIGINT) FROM lineitem
  UNION ALL
  SELECT 'l_tax',
         CAST(FLOOR(l_tax * 100 + 0.5) AS BIGINT) FROM lineitem)
SELECT col,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(COUNT(DISTINCT v) AS BIGINT) AS n_distinct,
       CAST(MIN(v) AS BIGINT) AS min_c,
       CAST(MAX(v) AS BIGINT) AS max_c,
       CAST(SUM(v) AS BIGINT) AS sum_c
FROM m GROUP BY col
"""


def w14_transition_matrix(sf_dir: str, n_buckets: int = 64):
    """Clickstream transition matrix (first-order Markov counts — the
    product-analytics staple): per user, events order by (ts,
    event_id) and every consecutive (prev_type -> type) transition
    counts once; output is the K x K transition count table.

    Scale shape: ONE user-hash bucket shuffle; inside each bucket the
    lag is a vectorized shift over the (user, ts, id) lexsort
    (user-boundary masked), partial counts pre-aggregate per bucket
    and a K²-sized bucketed sum finishes."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["bucket"] = (
            batch["user_id"].to_numpy().astype(np.int64) % n_buckets
        ).astype("int32")
        return batch

    def transitions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        same_user = g["user_id"].to_numpy()[1:] == g["user_id"].to_numpy()[:-1]
        prev = g["event_type"].to_numpy()[:-1][same_user]
        cur = g["event_type"].to_numpy()[1:][same_user]
        out = pd.DataFrame({"prev_type": prev, "event_type": cur})
        return out.groupby(
            ["prev_type", "event_type"], as_index=False
        ).size().rename(columns={"size": "n"})

    parts = (
        ds.map_batches(bucketize, batch_format="pandas", batch_size=65536)
        .groupby("bucket")
        .map_groups(transitions, batch_format="pandas")
    )
    out = bucketed_sum(parts, ["prev_type", "event_type"], ["n"]).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["prev_type", "event_type"]).reset_index(drop=True)


W14_SQL = """
WITH o AS (
  SELECT user_id, event_type,
         LAG(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev_type
  FROM events)
SELECT prev_type, event_type, CAST(COUNT(*) AS BIGINT) AS n
FROM o WHERE prev_type IS NOT NULL
GROUP BY prev_type, event_type
"""


def n04_windowed_percentiles(sf_dir: str):
    """Exact PER-WINDOW percentiles (the observability query "hourly
    p50/p95 latency", exact — not q31's sketch): per tumbling hour,
    percentile_disc(0.5/0.95) of the event value in integer mills.

    Scale shape: n03's value-histogram reduce, keyed by (window,
    value) — the exchange is bounded by windows x value-cardinality;
    the rank picks run on the per-window cumulative counts, which
    grow with the time span, never with rows."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "events", ["ts", "value"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "window_start": batch["ts"].dt.floor("h"),
                "mils": np.floor(
                    batch["value"].to_numpy() * 1000 + 0.5
                ).astype("int64"),
            }
        )

    counts = bucketed_sum(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        ["window_start", "mils"],
        [],
        count_col="c",
    ).to_pandas()

    rows = []
    for w, g in counts.groupby("window_start"):
        g = g.sort_values("mils")
        cum = g["c"].cumsum().to_numpy()
        n = int(cum[-1])
        vals = g["mils"].to_numpy()
        row = {"window_start": w}
        for name, pnum, pden in (("p50_mils", 1, 2), ("p95_mils", 19, 20)):
            rank = -(-pnum * n // pden)
            row[name] = int(vals[np.searchsorted(cum, rank)])
        rows.append(row)
    out = pd.DataFrame(rows).astype({"p50_mils": "int64", "p95_mils": "int64"})
    return out.sort_values("window_start").reset_index(drop=True)


N04_SQL = """
WITH m AS (
  SELECT date_trunc('hour', ts) AS window_start,
         CAST(FLOOR(value * 1000 + 0.5) AS BIGINT) AS mils
  FROM events)
SELECT window_start,
       CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY mils) AS BIGINT)
         AS p50_mils,
       CAST(percentile_disc(0.95) WITHIN GROUP (ORDER BY mils) AS BIGINT)
         AS p95_mils
FROM m GROUP BY window_start
"""


def s10_stats_pruned_read(sf_dir: str, lo: int = 100, hi: int = 220):
    """Stats-based data skipping (the Iceberg/Delta manifest pattern —
    at 100 TB the difference between touching 2 files and 800): the
    corpus stages as range-partitioned parquet files, a manifest of
    per-file (min, max) doc_id is built from parquet FOOTERS only, and
    a range query consults the manifest to read ONLY overlapping files
    (late row-level filter inside them).  The query SELF-GATES that
    pruning actually skipped files (RuntimeError otherwise — the s07
    contract style); the SQL oracle checks the aggregate."""
    import os as _os
    import shutil

    import pyarrow.parquet as _pq
    import ray.data

    n_files = 8
    stage = (
        "/tmp/naer_stats_prune/"
        f"{_os.getpid()}-{_os.path.basename(sf_dir.rstrip('/'))}"
    )
    shutil.rmtree(stage, ignore_errors=True)
    _os.makedirs(stage)
    src = _pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    ).sort_by("doc_id")
    n = src.num_rows
    for k in range(n_files):
        part = src.slice(k * n // n_files, (k + 1) * n // n_files - k * n // n_files)
        if part.num_rows:
            _pq.write_table(part, f"{stage}/part-{k}.parquet")

    # manifest from footers only — no data read
    manifest = []
    for name in sorted(_os.listdir(stage)):
        md = _pq.read_metadata(f"{stage}/{name}")
        col = md.row_group(0).column(0).statistics
        mn, mx = col.min, col.max
        for rg in range(1, md.num_row_groups):
            st = md.row_group(rg).column(0).statistics
            mn, mx = min(mn, st.min), max(mx, st.max)
        manifest.append((name, mn, mx))

    chosen = [f"{stage}/{nm}" for nm, mn, mx in manifest if mx >= lo and mn <= hi]
    if not (0 < len(chosen) < len(manifest)):
        raise RuntimeError(
            f"stats pruning ineffective: {len(chosen)}/{len(manifest)} files "
            f"selected for [{lo}, {hi}]"
        )

    ds = ray.data.read_parquet(chosen)

    def agg(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater_equal(batch["doc_id"], lo),
            pc.less_equal(batch["doc_id"], hi),
        )
        kept = batch.filter(m)
        return pa.table(
            {
                "n_docs": pa.array([kept.num_rows], pa.int64()),
                "sum_n_chars": pa.array(
                    [pc.sum(kept["n_chars"]).as_py() or 0], pa.int64()
                ),
            }
        )

    parts = ds.map_batches(agg, batch_format="pyarrow").to_pandas()
    out = pd.DataFrame([parts.sum()]).astype("int64")
    shutil.rmtree(stage, ignore_errors=True)
    return out[["n_docs", "sum_n_chars"]]


S10_SQL = """
SELECT CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS sum_n_chars
FROM documents WHERE doc_id BETWEEN 100 AND 220
"""


def p04_full_curation(sf_dir: str, cap: int = 40):
    """FULL curation recipe (p03 + the host-quota stage — the complete
    CommonCrawl-style path) as ONE streaming DAG: canonical
    normalization (t06) → word-count gate → corpus-wide exact
    keep-first dedup of normalized content (content-hash bucket
    shuffle #1) → per-host cap of ``cap`` docs (host-hash bucket
    shuffle #2, associative bottom-k) → per-lang survivor stats.

    Every stage streams into the next; exactly TWO shuffles touch the
    corpus and the final reduce is lang-cardinality-sized.  The SQL
    oracle chains the same five relational steps, so drift in any one
    (regex, bound, tie-break, cap rule) breaks the hash."""
    from .stages.agg import bucketed_sum
    from naer_ray.hashing import _fnv64_arr
    from .stages.text import normalize_text

    ds = normalize_text(
        _read(sf_dir, "documents", ["doc_id", "text", "lang", "source"])
    )

    def gate(batch: pa.Table) -> pd.DataFrame:
        norm = batch["norm_text"].combine_chunks()
        n = pc.list_value_length(pc.split_pattern(norm, " ")).to_numpy()
        keep = (n >= 20) & (n <= 80)
        h = _fnv64_arr(norm)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "lang": batch["lang"].to_pandas(),
                "host": batch["source"].to_pandas().str.lower()
                + ".example.com",
                "norm_text": norm.to_pandas(),
                "n_words": n.astype(np.int64),
                "bucket": (h % np.uint64(64)).astype("int32"),
            }
        )[keep]

    def first_per_text(group: pd.DataFrame) -> pd.DataFrame:
        out = (
            group.sort_values("doc_id")
            .groupby("norm_text", as_index=False)
            .first()
        )
        # re-key for the host-cap shuffle
        out["bucket"] = (
            _fnv64_arr(pa.array(out["host"], pa.string())) % np.uint64(64)
        ).astype("int32")
        return out[["doc_id", "lang", "host", "n_words", "bucket"]]

    def host_cap(group: pd.DataFrame) -> pd.DataFrame:
        kept = (
            group.sort_values(["host", "doc_id"])
            .groupby("host", as_index=False, sort=False)
            .head(cap)
        )
        g = kept.assign(n_docs=np.int64(1)).groupby("lang", as_index=False)[
            ["n_docs", "n_words"]
        ].sum()
        return g

    parts = (
        ds.map_batches(gate, batch_format="pyarrow", batch_size=8192)
        .groupby("bucket")
        .map_groups(first_per_text, batch_format="pandas")
        .groupby("bucket")
        .map_groups(host_cap, batch_format="pandas")
    )
    out = bucketed_sum(parts, ["lang"], ["n_docs", "n_words"]).to_pandas()
    out = out.astype({"n_docs": "int64", "n_words": "int64"}).rename(
        columns={"n_words": "sum_words"}
    )
    return out.sort_values("lang").reset_index(drop=True)


P04_SQL = r"""
WITH n AS (
  SELECT doc_id, lang, lower(source) || '.example.com' AS host,
         trim(regexp_replace(lower(text), '\s+', ' ', 'g')) AS nt
  FROM documents),
f AS (
  SELECT *, len(string_split(nt, ' ')) AS n_words
  FROM n WHERE len(string_split(nt, ' ')) BETWEEN 20 AND 80),
d AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY nt ORDER BY doc_id) AS rn
  FROM f),
u AS (SELECT * FROM d WHERE rn = 1),
h AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY host ORDER BY doc_id) AS hr
  FROM u)
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_words) AS BIGINT) AS sum_words
FROM h WHERE hr <= 40 GROUP BY lang
"""


def j07_skew_salted_join(sf_dir: str, n_salt: int = 8):
    """SALTED partitioned hash join for a hot-key fact side: events'
    ``user_id`` domain is tiny relative to the row count (~67 rows per
    key at sf0.001, same ratio at every sf), so a plain key-hash
    repartition join lands each key's entire row mass on one reducer.
    Replicate the DIMENSION side ``n_salt``× (salt 0..S-1) and give
    each fact row the deterministic salt ``event_id % S`` — the join
    key becomes (key, salt) and every hot key spreads over S
    partitions.  Joins are key-local so the result is bit-identical
    to the unsalted plan (the oracle checks exactly that).

    Scale shape: the payload metric (integer mills) is computed
    BEFORE the join so the exchange carries (key, salt, mils) only;
    dim replication costs S× a table that is by premise much smaller
    than the fact table (when the dim fits in memory outright,
    broadcast — j06/q03 — wins; salting is for the in-between case
    where both sides must shuffle but the fact keys are hot).
    q35 is the salted AGGREGATE; this is the salted JOIN."""
    import ray

    from .stages.agg import bucketed_sum

    ev = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def fact_prep(batch: pa.Table) -> pa.Table:
        mils = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 1000 + 0.5
        ).astype(np.int64)
        salt = (
            batch["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            % n_salt
        )
        return pa.table(
            {
                "user_id": batch["user_id"],
                "salt": pa.array(salt, pa.int64()),
                "mils": pa.array(mils, pa.int64()),
            }
        )

    fact = ev.map_batches(fact_prep, batch_format="pyarrow")

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def replicate(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        idx = pa.array(np.repeat(np.arange(n), n_salt))
        salt = pa.array(np.tile(np.arange(n_salt, dtype=np.int64), n))
        return pa.table(
            {
                "c_custkey": batch["c_custkey"].combine_chunks().take(idx),
                "salt": salt,
                "c_mktsegment": batch["c_mktsegment"].combine_chunks().take(idx),
            }
        )

    dim = cust.map_batches(replicate, batch_format="pyarrow")
    n_parts = max(8, int(ray.cluster_resources().get("CPU", 8)) // 2)
    joined = fact.join(
        dim,
        join_type="inner",
        num_partitions=n_parts,
        on=("user_id", "salt"),
        right_on=("c_custkey", "salt"),
    )
    out = (
        bucketed_sum(joined, ["c_mktsegment"], ["mils"], count_col="n_events")
        .to_pandas()
        .rename(columns={"mils": "sum_mils"})
        .astype({"sum_mils": "int64", "n_events": "int64"})
    )
    return out.sort_values("c_mktsegment").reset_index(drop=True)


J07_SQL = """
SELECT c.c_mktsegment,
       CAST(SUM(CAST(FLOOR(e.value * 1000 + 0.5) AS BIGINT)) AS BIGINT)
         AS sum_mils,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM events e JOIN customer c ON e.user_id = c.c_custkey
GROUP BY c.c_mktsegment
"""


# Count-Min sketch (Cormode & Muthukrishnan 2005): d x w integer cell
# matrix; estimate = min over d rows; never underestimates, so an
# estimate-below-threshold key provably cannot be a heavy hitter.
_CM_DEPTH, _CM_WIDTH = 4, 1024
# odd 64-bit multipliers for the d row hashes (splitmix64-style mixing)
_CM_MULT = np.array(
    [0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0xD6E8FEB86659FD93],
    dtype=np.uint64,
)


def _cm_rows(h64: np.ndarray) -> np.ndarray:
    """(d, n) CM column indices from one 64-bit key hash per element."""
    h = h64.astype(np.uint64)
    out = np.empty((_CM_DEPTH, len(h)), np.int64)
    for r in range(_CM_DEPTH):
        m = h * _CM_MULT[r]
        m ^= m >> np.uint64(33)
        out[r] = (m % np.uint64(_CM_WIDTH)).astype(np.int64)
    return out


def n05_countmin_heavy_hitters(sf_dir: str, threshold: int = 20):
    """Heavy hitters over (user_id, event_type) through a mergeable
    COUNT-MIN sketch + exact confirm — the frequency analogue of the
    d14 Bloom-prefilter pattern (and the sketch counterpart of q29's
    deterministic Misra-Gries).

    Pass 1 builds the sketch: each batch scatters its key counts into
    a private d×w integer matrix and emits the NONZERO cells as
    (cell, n) rows; a bucketed sum merges them (CM matrices are
    entrywise-additive) and the driver pulls <= d*w rows — the sketch
    is O(1)-sized regardless of corpus size.  Pass 2 broadcasts the
    sketch, estimates each batch's distinct keys, and drops keys whose
    estimate < threshold — CM never underestimates, so no true heavy
    hitter is lost; only the surviving candidate keys enter the exact
    bucketed count, and a final exact filter removes the
    collision-inflated false positives.  The exchange after pass 2
    carries candidate keys only, not the full key domain.  Output is
    EXACT (SQL-oracled); the sketch is the pruning device."""
    import ray

    from .stages.agg import bucketed_sum
    from naer_ray.hashing import _fnv64_arr

    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def _key_hash64(batch: pa.Table) -> tuple[pd.DataFrame, np.ndarray]:
        """Per-batch (user_id, event_type) partial counts + FNV64 of the
        composite key 'user|type' (shared by both passes)."""
        df = (
            pd.DataFrame(
                {
                    "user_id": batch["user_id"].to_numpy(zero_copy_only=False),
                    "event_type": batch["event_type"].to_numpy(
                        zero_copy_only=False
                    ),
                }
            )
            .groupby(["user_id", "event_type"], as_index=False)
            .size()
        )
        key = pa.array(
            df["user_id"].astype(str) + "|" + df["event_type"].astype(str)
        )
        return df, _fnv64_arr(key)

    def cm_partial(batch: pa.Table) -> pd.DataFrame:
        df, h = _key_hash64(batch)
        mat = np.zeros((_CM_DEPTH, _CM_WIDTH), np.int64)
        rows = _cm_rows(h)
        n = df["size"].to_numpy(np.int64)
        for r in range(_CM_DEPTH):
            np.add.at(mat[r], rows[r], n)
        flat = mat.ravel()
        nz = np.flatnonzero(flat)
        return pd.DataFrame({"cell": nz.astype(np.int64), "n": flat[nz]})

    cells = bucketed_sum(
        ds.map_batches(cm_partial, batch_format="pyarrow", batch_size=65536),
        ["cell"],
        ["n"],
    ).to_pandas()
    sketch = np.zeros(_CM_DEPTH * _CM_WIDTH, np.int64)
    sketch[cells["cell"].to_numpy(np.int64)] = cells["n"].to_numpy(np.int64)
    sketch = sketch.reshape(_CM_DEPTH, _CM_WIDTH)
    sketch_ref = ray.put(sketch)

    def candidates(batch: pa.Table) -> pd.DataFrame:
        df, h = _key_hash64(batch)
        cm = ray.get(sketch_ref)
        rows = _cm_rows(h)
        est = cm[np.arange(_CM_DEPTH)[:, None], rows].min(axis=0)
        keep = df[est >= threshold].rename(columns={"size": "n"})
        return keep[["user_id", "event_type", "n"]]

    exact = bucketed_sum(
        ds.map_batches(candidates, batch_format="pyarrow", batch_size=65536),
        ["user_id", "event_type"],
        ["n"],
    ).to_pandas()
    out = exact[exact["n"] >= threshold].copy()
    # CM guarantee: estimate >= exact count for every survivor
    key = pa.array(
        out["user_id"].astype(str) + "|" + out["event_type"].astype(str)
    )
    rows = _cm_rows(_fnv64_arr(key))
    est = sketch[np.arange(_CM_DEPTH)[:, None], rows].min(axis=0)
    if (est < out["n"].to_numpy(np.int64)).any():
        raise RuntimeError("count-min sketch underestimated a heavy hitter")
    out = out.rename(columns={"n": "n_events"}).astype(
        {"user_id": "int64", "n_events": "int64"}
    )
    return out.sort_values(["user_id", "event_type"]).reset_index(drop=True)


N05_SQL = """
SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS n_events
FROM events
GROUP BY user_id, event_type
HAVING COUNT(*) >= 20
"""


def g08_kcore(sf_dir: str, k: int = 10, max_rounds: int = 8):
    """k-CORE of the co-purchase graph (Seidman 1983 / Matula-Beck
    peeling): repeatedly delete nodes of degree < k until a fixpoint;
    report the surviving nodes with their within-core degree.

    Ray shape: the shared ``_copurchase_edges`` Dataset stays
    distributed and is re-scanned once per peeling round (rounds are
    few — the peel converges in <= 4 rounds on every tier; each round
    is one embarrassingly-parallel degree pass + one bucketed sum).
    The shrinking alive-node set broadcasts via ``ray.put`` as a
    SORTED int64 array probed with searchsorted — node-sized, never
    edge-sized (the g01 precedent; the bucketed co-partition fallback
    there applies verbatim if nodes outgrow worker RAM).  Alive sets
    only shrink, so a same-size round IS the fixpoint — no set
    comparison needed.  The oracle unrolls the same peel to
    ``max_rounds`` in plain SQL (no recursive CTE — each round is an
    ordinary filtered self-join); the Ray side raises if convergence
    ever needs more rounds than the oracle unrolls, so the two can
    never silently diverge."""
    import ray

    from .stages.agg import bucketed_sum

    edges = _copurchase_edges(sf_dir)
    alive = None
    alive_ref = None

    def degree_partial(batch: pd.DataFrame) -> pd.DataFrame:
        u = batch["u"].to_numpy(np.int64)
        v = batch["v"].to_numpy(np.int64)
        if alive_ref is not None:
            a = ray.get(alive_ref)
            if len(a) == 0:  # peel emptied the graph: no surviving edges
                return pd.DataFrame(
                    {"node": pd.Series([], dtype="int64"),
                     "deg": pd.Series([], dtype="int64")}
                )
            pos_u = np.searchsorted(a, u)
            pos_v = np.searchsorted(a, v)
            ok = (
                (pos_u < len(a))
                & (pos_v < len(a))
                & (a[np.minimum(pos_u, len(a) - 1)] == u)
                & (a[np.minimum(pos_v, len(a) - 1)] == v)
            )
            u, v = u[ok], v[ok]
        nodes = np.concatenate([u, v])
        n, c = np.unique(nodes, return_counts=True)
        return pd.DataFrame({"node": n, "deg": c.astype(np.int64)})

    for _ in range(max_rounds):
        deg = bucketed_sum(
            edges.map_batches(degree_partial, batch_format="pandas"),
            ["node"],
            ["deg"],
        ).to_pandas()
        if "node" not in deg.columns:  # peel emptied the graph entirely
            deg = pd.DataFrame(
                {"node": pd.Series([], dtype="int64"),
                 "deg": pd.Series([], dtype="int64")}
            )
        survivors = deg[deg["deg"] >= k]
        new_alive = np.sort(survivors["node"].to_numpy(np.int64))
        if alive is not None and len(new_alive) == len(alive):
            out = survivors.rename(columns={"deg": "core_deg"}).astype(
                {"node": "int64", "core_deg": "int64"}
            )
            return out.sort_values("node").reset_index(drop=True)
        alive = new_alive
        alive_ref = ray.put(alive)
    raise RuntimeError(
        f"k-core peel did not converge within {max_rounds} rounds — "
        "raise max_rounds (and the oracle's unroll) together"
    )


def _kcore_sql(k: int = 10, max_rounds: int = 8) -> str:
    """The same peel unrolled: round r filters e{r-1} to a{r-1}-alive
    endpoints and recomputes degrees; after convergence the remaining
    rounds are no-ops, so d{R} is the fixpoint degree table."""
    sql = [
        """
WITH li AS MATERIALIZED (
  SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
  WHERE l_partkey % 7 = 0),
e0 AS MATERIALIZED (
  SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
  FROM li a JOIN li b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey)"""
    ]
    for r in range(max_rounds):
        if r > 0:
            sql.append(
                f""",
e{r} AS MATERIALIZED (
  SELECT e.u, e.v FROM e{r - 1} e
  JOIN a{r - 1} x ON e.u = x.node
  JOIN a{r - 1} y ON e.v = y.node)"""
            )
        sql.append(
            f""",
d{r} AS MATERIALIZED (
  SELECT node, CAST(COUNT(*) AS BIGINT) AS deg
  FROM (SELECT u AS node FROM e{r} UNION ALL SELECT v AS node FROM e{r})
  GROUP BY node),
a{r} AS MATERIALIZED (SELECT node FROM d{r} WHERE deg >= {k})"""
        )
    last = max_rounds - 1
    sql.append(
        f"""
SELECT node, deg AS core_deg FROM d{last} WHERE deg >= {k}"""
    )
    return "".join(sql)


G08_SQL = _kcore_sql()


def e06_entity_profile(sf_dir: str, n_buckets: int = 64):
    """KG node-feature table: per entity, the turn-level mention count,
    the number of DISTINCT conversations it appears in, and its
    first/last turn index — the node-attribute companion to the edge
    tables e03 (PMI) and e05 (window co-occurrence); a KG construction
    job attaches exactly these salience features to each node.

    Scale shape: mentions derive vectorized per batch
    (``_entity_presence``, deduped to turn level with one np.unique);
    per-batch partials pre-group to (entity, conv) rows; ONE
    (entity,conv)-hash bucket exchange merges them so each pair exists
    exactly once globally — the distinct-conversation count then falls
    out of a second, entity-keyed exchange as a plain row count (the
    w13 running-distinct trick applied per group).  Nothing
    corpus-sized ever reaches the driver; the output is K rows."""
    from .stages.agg import bucketed_sum
    from naer_ray.hashing import _fnv64_arr

    ds = _derive_transcripts(sf_dir)
    ents_sorted = np.array(sorted(KG_ENTITIES))
    kk = len(ents_sorted)

    def mention_partial(batch: pa.Table) -> pd.DataFrame:
        r, c = _entity_presence(batch["text"], ents_sorted)
        # token-level hits -> turn-level presence (one row per turn+entity)
        uniq = np.unique(r * kk + c)
        r, c = uniq // kk, uniq % kk
        idx = pa.array(r)
        df = pd.DataFrame(
            {
                "entity": ents_sorted[c],
                "conv_id": batch["conv_id"]
                .combine_chunks()
                .take(idx)
                .to_numpy(zero_copy_only=False),
                "turn_idx": batch["turn_idx"]
                .combine_chunks()
                .take(idx)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
            }
        )
        g = df.groupby(["entity", "conv_id"], as_index=False).agg(
            n=("turn_idx", "size"),
            mn=("turn_idx", "min"),
            mx=("turn_idx", "max"),
        )
        key = pa.array(g["entity"] + "|" + g["conv_id"])
        g["bucket"] = (_fnv64_arr(key) % np.uint64(n_buckets)).astype(np.int32)
        return g

    def merge_pair(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["entity", "conv_id"], as_index=False).agg(
            n=("n", "sum"), mn=("mn", "min"), mx=("mx", "max")
        )

    pairs = (
        ds.map_batches(mention_partial, batch_format="pyarrow", batch_size=8192)
        .groupby("bucket")
        .map_groups(merge_pair, batch_format="pandas")
    )

    def entity_partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("entity", as_index=False).agg(
            n_mentions=("n", "sum"),
            n_convs=("conv_id", "size"),
            mn=("mn", "min"),
            mx=("mx", "max"),
        )
        g["bucket"] = 0  # K rows total — one merge group
        return g

    def entity_merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("entity", as_index=False).agg(
            n_mentions=("n_mentions", "sum"),
            n_convs=("n_convs", "sum"),
            min_turn=("mn", "min"),
            max_turn=("mx", "max"),
        )

    out = (
        pairs.map_batches(entity_partial, batch_format="pandas")
        .groupby("bucket")
        .map_groups(entity_merge, batch_format="pandas")
        .to_pandas()
    )
    out = out.astype(
        {
            "n_mentions": "int64",
            "n_convs": "int64",
            "min_turn": "int64",
            "max_turn": "int64",
        }
    )
    return out.sort_values("entity").reset_index(drop=True)


E06_SQL = f"""
WITH t AS ({_DERIVE_SQL}),
d(entity) AS (VALUES {", ".join(f"('{e}')" for e in KG_ENTITIES)}),
m AS (
  SELECT d.entity, t.conv_id, t.turn_idx
  FROM t JOIN d ON list_contains(string_split(t.text, ' '), d.entity))
SELECT entity,
       CAST(COUNT(*) AS BIGINT) AS n_mentions,
       CAST(COUNT(DISTINCT conv_id) AS BIGINT) AS n_convs,
       CAST(MIN(turn_idx) AS BIGINT) AS min_turn,
       CAST(MAX(turn_idx) AS BIGINT) AS max_turn
FROM m GROUP BY entity
"""


def q37_multi_distinct_agg(sf_dir: str, n_buckets: int = 64):
    """Multiple COUNT(DISTINCT ...) aggregates in ONE logical pass —
    the classic distributed-SQL pain point (each distinct column
    normally forces its own shuffle): per event_type, the number of
    distinct users, distinct active days, and the plain row count.

    Scale shape: each batch emits its LOCAL distinct (type, tag,
    value) triples for both distinct columns at once (tag
    discriminates user vs day) plus a row-count partial; one
    triple-hash bucketed exchange dedupes globally (bucketed_sum with
    count_col — the q21 distinct-run pattern); the per-(type, tag)
    counts then ride a second, cardinality-sized exchange and pivot
    into columns on the driver (K×2 rows).  Two exchanges total for
    two distinct aggregates + a count — not three independent
    shuffles of the raw table."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "events", ["event_type", "user_id", "ts"])

    def triples(batch: pa.Table) -> pd.DataFrame:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        user = batch["user_id"].to_numpy(zero_copy_only=False).astype(str)
        day = (
            batch["ts"]
            .combine_chunks()
            .cast(pa.timestamp("us"))
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[D]")
            .astype(str)
        )
        df = pd.concat(
            [
                pd.DataFrame({"event_type": et, "tag": "user", "value": user}),
                pd.DataFrame({"event_type": et, "tag": "day", "value": day}),
            ],
            ignore_index=True,
        )
        return df.drop_duplicates()

    distinct_rows = bucketed_sum(
        ds.map_batches(triples, batch_format="pyarrow", batch_size=65536),
        ["event_type", "tag", "value"],
        [],
        count_col="n",
        n_buckets=n_buckets,
    )
    counts = (
        bucketed_sum(
            distinct_rows.drop_columns(["n"]),
            ["event_type", "tag"],
            [],
            count_col="n_distinct",
        )
        .to_pandas()
        .pivot(index="event_type", columns="tag", values="n_distinct")
        .reset_index()
    )
    rows = (
        bucketed_sum(
            _read(sf_dir, "events", ["event_type"]),
            ["event_type"],
            [],
            count_col="n_events",
        )
        .to_pandas()
    )
    out = counts.merge(rows, on="event_type").rename(
        columns={"user": "n_users", "day": "n_days"}
    )[["event_type", "n_users", "n_days", "n_events"]]
    out = out.astype({"n_users": "int64", "n_days": "int64", "n_events": "int64"})
    out.columns.name = None
    return out.sort_values("event_type").reset_index(drop=True)


Q37_SQL = """
SELECT event_type,
       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users,
       CAST(COUNT(DISTINCT CAST(CAST(ts AS DATE) AS VARCHAR)) AS BIGINT)
         AS n_days,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM events
GROUP BY event_type
"""


def w15_interval_coverage(sf_dir: str, span_us: int = 300_000_000,
                          n_buckets: int = 64):
    """Interval UNION per user (overlapping-session merge): each event
    opens a [ts, ts+300s) activity window; report every user's total
    COVERED microseconds and the number of merged islands — the
    dedup-over-time op (overlapping windows must not double-count)
    that w02's gap stats and w07's daily streaks cannot express.

    Scale shape: ONE user-hash bucket shuffle; inside each bucket the
    classic island sweep is fully vectorized (sort by (user, start),
    running max of interval ends via np.maximum.accumulate reset at
    user boundaries, islands = cumsum of gap starts, per-island
    coverage from one groupby min/max).  All arithmetic in integer
    epoch-microseconds — bit-exact vs the SQL window construction."""
    from .stages.agg import bucketed_sum
    from naer_ray.hashing import _fnv64_arr

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        us = batch["ts"].combine_chunks().cast(pa.timestamp("us")).cast(pa.int64())
        uid = batch["user_id"].combine_chunks()
        b = (
            _fnv64_arr(pc.cast(uid, pa.string())) % np.uint64(n_buckets)
        ).astype(np.int32)
        return pa.table(
            {
                "user_id": uid,
                "s_us": us,
                "bucket": pa.array(b, pa.int32()),
            }
        )

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "s_us"], kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        s = g["s_us"].to_numpy(np.int64)
        e = s + span_us
        new_user = np.empty(len(g), bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        # per-user running max of interval ends (pandas' C groupby
        # cummax — maxima must not leak across user boundaries)
        seg = np.cumsum(new_user)
        run = pd.Series(e).groupby(seg).cummax().to_numpy()
        prev_max = np.empty_like(run)
        prev_max[0] = -1
        prev_max[1:] = run[:-1]
        gap = new_user | (s > prev_max)
        island = np.cumsum(gap)
        d = pd.DataFrame(
            {"user_id": uid, "island": island, "s": s, "e": e}
        ).groupby(["user_id", "island"], as_index=False).agg(
            mn=("s", "min"), mx=("e", "max")
        )
        out = d.assign(cov=d["mx"] - d["mn"]).groupby(
            "user_id", as_index=False
        ).agg(covered_us=("cov", "sum"), n_islands=("cov", "size"))
        return out

    out = (
        ds.map_batches(prep, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(sweep, batch_format="pandas")
        .to_pandas()
        .astype({"user_id": "int64", "covered_us": "int64", "n_islands": "int64"})
    )
    return out.sort_values("user_id").reset_index(drop=True)


W15_SQL = """
WITH iv AS (
  SELECT user_id, epoch_us(CAST(ts AS TIMESTAMP)) AS s,
         epoch_us(CAST(ts AS TIMESTAMP)) + 300000000 AS e
  FROM events),
o AS (
  SELECT user_id, s, e,
         MAX(e) OVER (PARTITION BY user_id ORDER BY s
                      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS prev_max
  FROM iv),
g AS (
  SELECT user_id, s, e,
         SUM(CASE WHEN prev_max IS NULL OR s > prev_max THEN 1 ELSE 0 END)
           OVER (PARTITION BY user_id ORDER BY s
                 ROWS UNBOUNDED PRECEDING) AS island
  FROM o),
isl AS (
  SELECT user_id, island, MAX(e) - MIN(s) AS cov
  FROM g GROUP BY user_id, island)
SELECT user_id, CAST(SUM(cov) AS BIGINT) AS covered_us,
       CAST(COUNT(*) AS BIGINT) AS n_islands
FROM isl GROUP BY user_id
"""


def t18_kwic(sf_dir: str, term: str = "spark", width: int = 2):
    """Keyword-in-context (KWIC concordance): every token-level hit of
    ``term`` with its position and ±``width``-token context — the
    corpus-inspection op behind "show me how this word is used"
    (quality audits, blocklist tuning, annotation sampling).

    Scale shape: pure map — one Arrow split per batch, hit positions
    from one vectorized equality over the flat token values, context
    windows gathered straight from the SAME flat array by offset
    arithmetic (zero-copy, no per-row re-tokenization), one
    binary_join per side.  No shuffle; output streams at hit volume,
    not corpus volume."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def kwic(batch: pa.Table) -> pa.Table:
        split = pc.split_pattern(batch["text"].combine_chunks(), " ")
        flat = split.values
        offs = split.offsets.to_numpy()
        hits = np.flatnonzero(
            pc.equal(flat, term).to_numpy(zero_copy_only=False)
        )
        if len(hits) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "pos": pa.array([], pa.int64()),
                    "left_ctx": pa.array([], pa.string()),
                    "right_ctx": pa.array([], pa.string()),
                }
            )
        row = np.searchsorted(offs, hits, side="right") - 1
        doc_start = offs[row]
        doc_end = offs[row + 1]
        pos = hits - doc_start + 1  # 1-based token position in the doc
        ls = np.maximum(hits - width, doc_start)
        re_ = np.minimum(hits + width + 1, doc_end)

        # per-hit windows can overlap (adjacent hits), so list offsets
        # over the shared flat array would not be monotonic — gather
        # each window's token indices with one vectorized multi-range
        # expansion instead
        def windows(starts: np.ndarray, stops: np.ndarray) -> pa.Array:
            lens = stops - starts
            total = int(lens.sum())
            base = np.repeat(starts, lens)
            local = np.arange(total) - np.repeat(
                np.cumsum(lens) - lens, lens
            )
            vals = flat.take(pa.array(base + local))
            offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
            return pc.binary_join(
                pa.ListArray.from_arrays(pa.array(offsets), vals), " "
            )

        return pa.table(
            {
                "doc_id": batch["doc_id"].combine_chunks().take(pa.array(row)),
                "pos": pa.array(pos.astype(np.int64)),
                "left_ctx": windows(ls, hits),
                "right_ctx": windows(hits + 1, re_),
            }
        )

    out = (
        ds.map_batches(kwic, batch_format="pyarrow", batch_size=8192)
        .to_pandas()
        .astype({"doc_id": "int64", "pos": "int64"})
    )
    return out.sort_values(["doc_id", "pos"]).reset_index(drop=True)


T18_SQL = """
WITH tok AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS w,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS i,
         string_split(text, ' ') AS words
  FROM documents)
SELECT doc_id, CAST(i AS BIGINT) AS pos,
       COALESCE(array_to_string(list_slice(words, GREATEST(i - 2, 1), i - 1),
                                ' '), '') AS left_ctx,
       COALESCE(array_to_string(list_slice(words, i + 1, i + 2), ' '), '')
         AS right_ctx
FROM tok WHERE w = 'spark'
"""


def i06_time_travel(sf_dir: str, asof: str = "2024-01-03",
                    n_buckets: int = 64):
    """Point-in-time state reconstruction (lakehouse "AS OF" read):
    each user's LAST event at or before the cutoff — the time-travel
    counterpart of i02's forward CDC merge (i02 rolls a snapshot
    forward; this reads the log backward to any instant).
    Deterministic tie-break: (ts, event_id) both descending.

    Scale shape: the cutoff predicate applies inside the scan (rows
    after T never leave the read stage — at 100 TB this is the
    row-group pruning path, events being naturally time-ordered);
    survivors take ONE user-hash bucket shuffle; per bucket the
    latest row per user is a vectorized lexsort + keep-first (no
    per-user dispatch).  The exchange carries only pre-cutoff rows,
    and integer mills ride instead of float values."""
    from naer_ray.hashing import _fnv64_arr

    cutoff = np.datetime64(asof, "us").astype("int64")
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type", "value",
                                  "event_id"])

    def prep(batch: pa.Table) -> pa.Table:
        ts_us = (
            batch["ts"].combine_chunks().cast(pa.timestamp("us")).cast(pa.int64())
        )
        keep = pc.less_equal(ts_us, cutoff)
        t = pa.table(
            {
                "user_id": batch["user_id"],
                "ts_us": ts_us,
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
                "mils": pa.array(
                    np.floor(
                        batch["value"].to_numpy(zero_copy_only=False) * 1000
                        + 0.5
                    ).astype(np.int64)
                ),
            }
        ).filter(keep)
        b = (
            _fnv64_arr(pc.cast(t["user_id"], pa.string()))
            % np.uint64(n_buckets)
        ).astype(np.int32)
        return t.append_column("bucket", pa.array(b, pa.int32()))

    def latest(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["user_id", "ts_us", "event_id"],
            ascending=[True, False, False],
            kind="mergesort",
        )
        out = g.drop_duplicates("user_id", keep="first")
        return out[["user_id", "ts_us", "event_type", "mils"]]

    out = (
        ds.map_batches(prep, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(latest, batch_format="pandas")
        .to_pandas()
        .astype({"user_id": "int64", "ts_us": "int64", "mils": "int64"})
        .rename(columns={"ts_us": "last_ts_us", "mils": "last_mils"})
    )
    return out.sort_values("user_id").reset_index(drop=True)


I06_SQL = """
WITH r AS (
  SELECT user_id, epoch_us(CAST(ts AS TIMESTAMP)) AS last_ts_us,
         event_type,
         CAST(FLOOR(value * 1000 + 0.5) AS BIGINT) AS last_mils,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
  WHERE ts <= TIMESTAMP '2024-01-03')
SELECT user_id, last_ts_us, event_type, last_mils FROM r WHERE rn = 1
"""


def x09_boolean_search(sf_dir: str, must=("spark", "join"),
                       must_not=("window",)):
    """Boolean retrieval (AND / AND-NOT): documents containing EVERY
    ``must`` term and NONE of the ``must_not`` terms — the filter
    algebra layered on x01's inverted index (single-term), x03
    (phrase) and x05 (proximity) cannot express negation.

    Scale shape: pure map — one Arrow split per batch, one
    searchsorted dictionary-code pass over ALL query terms at once
    (the _entity_presence kernel), per-doc presence bitmask via one
    bincount; zero shuffles, output streams at match volume."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    terms = np.array(sorted(set(must) | set(must_not)))
    need = np.isin(terms, np.array(must))
    ban = np.isin(terms, np.array(must_not))

    def match(batch: pa.Table) -> pa.Table:
        r, c = _entity_presence(batch["text"], terms)
        n = batch.num_rows
        has = np.zeros((n, len(terms)), bool)
        has[r, c] = True
        ok = has[:, need].all(axis=1) & ~has[:, ban].any(axis=1)
        idx = pa.array(np.flatnonzero(ok))
        return pa.table(
            {
                "doc_id": batch["doc_id"].combine_chunks().take(idx),
                "n_chars": batch["n_chars"].combine_chunks().take(idx),
            }
        )

    out = (
        ds.map_batches(match, batch_format="pyarrow", batch_size=8192)
        .to_pandas()
        .astype({"doc_id": "int64", "n_chars": "int64"})
    )
    return out.sort_values("doc_id").reset_index(drop=True)


X09_SQL = """
SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars
FROM (SELECT doc_id, n_chars, string_split(text, ' ') AS ws FROM documents)
WHERE list_contains(ws, 'spark') AND list_contains(ws, 'join')
  AND NOT list_contains(ws, 'window')
"""


def n06_weighted_median(sf_dir: str):
    """WEIGHTED median per group (here: the byte-weighted median doc
    length per lang — the length at which half the corpus BYTES sit in
    shorter-or-equal docs).  n03's count-based percentile weights every
    row 1; weighting by a second measure needs the cumulative-weight
    order statistic instead: the smallest value v with
    cumsum(weight ordered by value) * 2 >= total_weight (pure integer
    comparison, no division).

    Scale shape: the same (group, value)-keyed histogram reduce as n03
    — the exchange is bounded by value cardinality, never rows — with
    WEIGHT sums instead of counts; the driver takes the order
    statistic on the tiny histogram."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.assign(w=batch["n_chars"].astype("int64")).groupby(
            ["lang", "n_chars"], as_index=False
        )["w"].sum()
        return g

    hist = bucketed_sum(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        ["lang", "n_chars"],
        ["w"],
    ).to_pandas()
    rows = []
    for lang, g in hist.groupby("lang"):
        g = g.sort_values("n_chars")
        cum = g["w"].cumsum().to_numpy()
        total = int(cum[-1])
        pos = int(np.searchsorted(cum * 2, total, side="left"))
        rows.append((lang, int(g["n_chars"].to_numpy()[pos]), total))
    out = pd.DataFrame(rows, columns=["lang", "weighted_median_len", "total_w"])
    out = out.astype({"weighted_median_len": "int64", "total_w": "int64"})
    return out.sort_values("lang").reset_index(drop=True)


N06_SQL = """
WITH h AS (
  SELECT lang, n_chars, SUM(CAST(n_chars AS BIGINT)) AS w
  FROM documents GROUP BY lang, n_chars),
c AS (
  SELECT lang, n_chars, w,
         SUM(w) OVER (PARTITION BY lang ORDER BY n_chars
                      ROWS UNBOUNDED PRECEDING) AS cw,
         SUM(w) OVER (PARTITION BY lang) AS tw
  FROM h)
SELECT lang,
       CAST(MIN(n_chars) FILTER (WHERE cw * 2 >= tw) AS BIGINT)
         AS weighted_median_len,
       CAST(MAX(tw) AS BIGINT) AS total_w
FROM c GROUP BY lang
"""


def w16_time_to_convert(sf_dir: str, n_buckets: int = 64):
    """Conversion-lag derivation: for every user whose FIRST 'signup'
    precedes a later 'purchase', the microseconds from that signup to
    their first subsequent purchase — the event-sequence measure
    behind activation dashboards (w05 counts funnel stages; this
    returns the latency between them).

    Scale shape: the scan keeps only signup/purchase rows (two of the
    five types); ONE user-hash bucket shuffle; per bucket a vectorized
    two-column reduce (min signup ts, min purchase ts above it) — no
    per-user dispatch, integer epoch-us."""
    from .stages.agg import bucketed_sum
    from naer_ray.hashing import _fnv64_arr

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(
            batch["event_type"],
            value_set=pa.array(["signup", "purchase"]),
        )
        t = batch.filter(keep)
        us = t["ts"].combine_chunks().cast(pa.timestamp("us")).cast(pa.int64())
        uid = t["user_id"].combine_chunks()
        b = (
            _fnv64_arr(pc.cast(uid, pa.string())) % np.uint64(n_buckets)
        ).astype(np.int32)
        return pa.table(
            {
                "user_id": uid,
                "ts_us": us,
                "event_type": t["event_type"],
                "bucket": pa.array(b, pa.int32()),
            }
        )

    def lag(g: pd.DataFrame) -> pd.DataFrame:
        s = (
            g[g["event_type"] == "signup"]
            .groupby("user_id", as_index=False)["ts_us"]
            .min()
            .rename(columns={"ts_us": "signup_us"})
        )
        p = g[g["event_type"] == "purchase"][["user_id", "ts_us"]]
        m = p.merge(s, on="user_id")
        m = m[m["ts_us"] > m["signup_us"]]
        if m.empty:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "lag_us": pd.Series([], dtype="int64"),
                }
            )
        first = m.groupby("user_id", as_index=False).agg(
            ts_us=("ts_us", "min"), signup_us=("signup_us", "first")
        )
        return pd.DataFrame(
            {
                "user_id": first["user_id"].astype("int64"),
                "lag_us": (first["ts_us"] - first["signup_us"]).astype("int64"),
            }
        )

    out = (
        ds.map_batches(prep, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(lag, batch_format="pandas")
        .to_pandas()
        .astype({"user_id": "int64", "lag_us": "int64"})
    )
    return out.sort_values("user_id").reset_index(drop=True)


W16_SQL = """
WITH s AS (
  SELECT user_id, MIN(epoch_us(CAST(ts AS TIMESTAMP))) AS signup_us
  FROM events WHERE event_type = 'signup' GROUP BY user_id),
p AS (
  SELECT e.user_id,
         MIN(epoch_us(CAST(e.ts AS TIMESTAMP))) AS purchase_us
  FROM events e JOIN s ON e.user_id = s.user_id
  WHERE e.event_type = 'purchase'
    AND epoch_us(CAST(e.ts AS TIMESTAMP)) > s.signup_us
  GROUP BY e.user_id)
SELECT p.user_id, CAST(p.purchase_us - s.signup_us AS BIGINT) AS lag_us
FROM p JOIN s ON p.user_id = s.user_id
"""


def _quantized_dot_ranked(sf_dir: str, topn: int) -> pd.DataFrame:
    """Dense arm shared by x10 (and its re-derivation test): global
    top-``topn`` (vec_id, dot) by the int64-quantized inner product
    against the vec_id=0 query, ordered (dot DESC, vec_id ASC);
    per-batch local top-``topn`` bounds the driver merge."""
    t0 = _point_read_embeddings(sf_dir, [0])
    q0 = np.asarray(t0["embedding"].to_pylist(), dtype=np.float64)[0]
    qint = np.floor(q0 * 1000.0 + 0.5).astype(np.int64)

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def vec_topk(batch: pa.Table) -> pa.Table:
        from .stages.ann import _as_matrix

        mat = _as_matrix(batch["embedding"]).astype(np.float64)
        dint = np.floor(mat * 1000.0 + 0.5).astype(np.int64)
        dots = dint @ qint
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.lexsort((ids, -dots))[:topn]
        return pa.table(
            {
                "vec_id": pa.array(ids[o], pa.int64()),
                "dot": pa.array(dots[o], pa.int64()),
            }
        )

    ve = emb.map_batches(
        vec_topk, batch_format="pyarrow", batch_size=4096
    ).to_pandas()
    return ve.sort_values(["dot", "vec_id"], ascending=[False, True]).head(topn)


def x10_rrf_hybrid(sf_dir: str, k: int = 10, pool: int = 30, rrf_k: int = 60):
    """Hybrid retrieval via Reciprocal Rank Fusion (Cormack 2009):
    fuse the BM25 lexical ranking (x02's two-term query) with a
    vector inner-product ranking against the vec_id=0 query embedding
    — the standard lexical+dense fusion modern retrieval/curation
    stacks run, and the first cross-MODALITY rank op in the registry
    (x-series ranks one signal; a-series ranks vectors alone).

    Exactness: the vector score is the QUANTIZED inner product —
    ``floor(x*1000 + 0.5)`` per component as int64, summed — so both
    sides rank on integers (64 products of ~1e3-scale ints sum far
    below 2^63 and are order-free), sidestepping the float-cosine
    associativity trap; the RRF score is the two-term double sum
    ``1/(60+r_bm25) + 1/(60+r_vec)`` evaluated in the same order on
    both sides, and only integer (rnk, doc_id) is emitted.

    Scale shape: two streaming passes (BM25 stats + score) and one
    vector pass, each keeping a LOCAL top-``pool`` per batch so the
    driver merges blocks x pool rows; the fusion itself is a
    pool-sized driver join.  Nothing shuffles."""
    # ---- lexical arm: the SHARED x02 scorer (_bm25_ranked) ----
    bm = _bm25_ranked(sf_dir, ("hash", "vector"), pool)
    bm_rank = pd.DataFrame(
        {
            "doc_id": bm["doc_id"].to_numpy(np.int64),
            "r_bm": np.arange(1, len(bm) + 1, dtype=np.int64),
        }
    )

    # ---- dense arm: quantized inner product vs vec_id=0 ----
    ve = _quantized_dot_ranked(sf_dir, pool)
    ve_rank = pd.DataFrame(
        {
            "doc_id": ve["vec_id"].to_numpy(np.int64),
            "r_vec": np.arange(1, len(ve) + 1, dtype=np.int64),
        }
    )

    # ---- fusion (pool-sized driver join) ----
    fused = bm_rank.merge(ve_rank, on="doc_id", how="outer")
    r_bm = fused["r_bm"].to_numpy(np.float64)  # NaN when absent
    r_vec = fused["r_vec"].to_numpy(np.float64)
    s_bm = np.where(np.isnan(r_bm), 0.0, 1.0 / (rrf_k + r_bm))
    s_vec = np.where(np.isnan(r_vec), 0.0, 1.0 / (rrf_k + r_vec))
    score = s_bm + s_vec
    ids = fused["doc_id"].to_numpy(np.int64)
    o = np.lexsort((ids, -score))[:k]
    return pd.DataFrame(
        {
            "rnk": np.arange(1, len(o) + 1, dtype=np.int64),
            "doc_id": ids[o],
        }
    )


X10_SQL = """
WITH tok AS (
  SELECT doc_id, t FROM (
    SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents)
  WHERE t <> ''),
dl AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS dl FROM tok GROUP BY doc_id),
stats AS (SELECT CAST(SUM(dl) AS DOUBLE) / COUNT(*) AS avgdl,
                 CAST(COUNT(*) AS BIGINT) AS n FROM dl),
tf AS (SELECT doc_id, t, CAST(COUNT(*) AS BIGINT) AS tf FROM tok
       WHERE t IN ('hash', 'vector') GROUP BY doc_id, t),
df AS (SELECT t, CAST(COUNT(*) AS BIGINT) AS df FROM tf GROUP BY t),
sc AS (
  SELECT tf.doc_id,
         SUM( ln((CAST(stats.n AS DOUBLE) - df.df + 0.5)
                 / (CAST(df.df AS DOUBLE) + 0.5))
              * ((CAST(tf.tf AS DOUBLE) * 2.2)
                 / (CAST(tf.tf AS DOUBLE)
                    + 1.2 * (0.25
                             + 0.75 * (CAST(dl.dl AS DOUBLE)
                                       / stats.avgdl)))) ) AS score
  FROM tf JOIN df USING (t) JOIN dl USING (doc_id) CROSS JOIN stats
  GROUP BY tf.doc_id),
br AS (
  SELECT doc_id, ROW_NUMBER() OVER (ORDER BY score DESC, doc_id) AS rnk
  FROM sc QUALIFY rnk <= 30),
qv AS (
  SELECT i, CAST(floor(CAST(qe AS DOUBLE) * 1000 + 0.5) AS BIGINT) AS q
  FROM (SELECT unnest(embedding) AS qe,
               generate_subscripts(embedding, 1) AS i
        FROM embeddings WHERE vec_id = 0)),
dv AS (
  SELECT vec_id, i, CAST(floor(CAST(de AS DOUBLE) * 1000 + 0.5) AS BIGINT) AS d
  FROM (SELECT vec_id, unnest(embedding) AS de,
               generate_subscripts(embedding, 1) AS i
        FROM embeddings)),
dots AS (SELECT vec_id, SUM(q * d) AS dot FROM dv JOIN qv USING (i)
         GROUP BY vec_id),
vr AS (
  SELECT vec_id AS doc_id, ROW_NUMBER() OVER (ORDER BY dot DESC, vec_id) AS rnk
  FROM dots QUALIFY rnk <= 30),
fused AS (
  SELECT COALESCE(br.doc_id, vr.doc_id) AS doc_id,
         COALESCE(1.0 / (60 + br.rnk), 0) + COALESCE(1.0 / (60 + vr.rnk), 0)
           AS score
  FROM br FULL OUTER JOIN vr ON br.doc_id = vr.doc_id)
SELECT CAST(ROW_NUMBER() OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS rnk,
       doc_id
FROM fused ORDER BY score DESC, doc_id LIMIT 10
"""


def _sssp_copartition(edges, rounds: int, n_buckets: int = 64):
    """Weighted shortest paths for graphs whose node set exceeds
    driver RAM — the co-partition fallback of g09's dense path: the
    (node, dist) state is a DISTRIBUTED dataset co-partitioned with
    the bidirected weighted edges by node hash; each Bellman-Ford
    round is two bucketed exchanges (relax emit pre-minned per dst,
    min reduce) and the driver only ever sees the improved-count
    scalar.  Seeds (node % 70 == 0), weights ((u+v) % 19 + 1) and the
    fixed round count are identical to the dense path, so the same
    unrolled SQL oracle gates both paths (forced-path test in
    tests/test_round5_ops5.py)."""

    def edge_tagged(batch: pd.DataFrame) -> pa.Table:
        u = batch["u"].to_numpy(np.int64)
        v = batch["v"].to_numpy(np.int64)
        w1 = (u + v) % 19 + 1
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        w = np.concatenate([w1, w1])
        m = len(src)
        return pa.table(
            {
                "node": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "w": pa.array(w, pa.int64()),
                "dist": pa.nulls(m, pa.int64()),
                "kind": pa.array(np.zeros(m, np.int8), pa.int8()),
                "newly": pa.array(np.zeros(m, np.int8), pa.int8()),
                "bucket": pa.array(_graph_bucket(src, n_buckets), pa.int32()),
            }
        )

    edges_t = edges.map_batches(
        edge_tagged, batch_format="pandas", batch_size=65536
    ).materialize()

    def seed_rows(batch: pd.DataFrame) -> pa.Table:
        nodes = np.unique(
            np.concatenate(
                [batch["u"].to_numpy(np.int64), batch["v"].to_numpy(np.int64)]
            )
        )
        seeds = nodes[nodes % 70 == 0]
        m = len(seeds)
        return pa.table(
            {
                "node": pa.array(seeds, pa.int64()),
                "dst": pa.nulls(m, pa.int64()),
                "w": pa.nulls(m, pa.int64()),
                "dist": pa.array(np.zeros(m, np.int64), pa.int64()),
                "kind": pa.array(np.ones(m, np.int8), pa.int8()),
                "newly": pa.array(np.zeros(m, np.int8), pa.int8()),
                "bucket": pa.array(_graph_bucket(seeds, n_buckets), pa.int32()),
            }
        )

    state = edges.map_batches(
        seed_rows, batch_format="pandas", batch_size=65536
    ).materialize()

    for _ in range(rounds):

        def relax(group: pa.Table) -> pa.Table:
            kind = group["kind"].to_numpy(zero_copy_only=False)
            node = group["node"].to_numpy(zero_copy_only=False)
            st = kind == 1
            s_nodes = node[st]
            s_dist = group["dist"].to_numpy(zero_copy_only=False)[st].astype(
                np.int64
            )
            o = np.argsort(s_nodes, kind="stable")
            s_nodes, s_dist = s_nodes[o], s_dist[o]
            e = kind == 0
            e_src = node[e]
            e_dst = group["dst"].to_numpy(zero_copy_only=False)[e].astype(
                np.int64
            )
            e_w = group["w"].to_numpy(zero_copy_only=False)[e].astype(np.int64)
            if len(s_nodes) and len(e_src):
                pos = np.searchsorted(s_nodes, e_src)
                pos[pos >= len(s_nodes)] = 0
                hit = s_nodes[pos] == e_src
                out_dst = e_dst[hit]
                out_d = s_dist[pos[hit]] + e_w[hit]
                # pre-min per dst before the exchange
                oo = np.lexsort((out_d, out_dst))
                out_dst, out_d = out_dst[oo], out_d[oo]
                first = np.r_[True, out_dst[1:] != out_dst[:-1]]
                out_dst, out_d = out_dst[first], out_d[first]
            else:
                out_dst = np.empty(0, np.int64)
                out_d = np.empty(0, np.int64)
            m = len(out_dst)
            return pa.table(
                {
                    "node": pa.array(out_dst, pa.int64()),
                    "dst": pa.nulls(m, pa.int64()),
                    "w": pa.nulls(m, pa.int64()),
                    "dist": pa.array(out_d, pa.int64()),
                    "kind": pa.array(np.full(m, 2, np.int8), pa.int8()),
                    "newly": pa.array(np.zeros(m, np.int8), pa.int8()),
                    "bucket": pa.array(
                        _graph_bucket(out_dst, n_buckets), pa.int32()
                    ),
                }
            )

        msgs = (
            state.union(edges_t).groupby("bucket").map_groups(
                relax, batch_format="pyarrow"
            )
        )

        def reduce_min(group: pa.Table) -> pa.Table:
            node = group["node"].to_numpy(zero_copy_only=False)
            dist = group["dist"].to_numpy(zero_copy_only=False).astype(np.int64)
            kind = group["kind"].to_numpy(zero_copy_only=False)
            order = np.lexsort((dist, node))
            node, dist, kind = node[order], dist[order], kind[order]
            first = np.r_[True, node[1:] != node[:-1]]
            out_node = node[first]
            out_dist = dist[first]  # min dist per node (lexsort)
            # improved = node had no prior state, or min beats prior state
            old = np.full(len(out_node), np.iinfo(np.int64).max, np.int64)
            st = kind == 1
            if st.any():
                pos = np.searchsorted(out_node, node[st])
                np.minimum.at(old, pos, dist[st])
            m = len(out_node)
            return pa.table(
                {
                    "node": pa.array(out_node, pa.int64()),
                    "dst": pa.nulls(m, pa.int64()),
                    "w": pa.nulls(m, pa.int64()),
                    "dist": pa.array(out_dist, pa.int64()),
                    "kind": pa.array(np.ones(m, np.int8), pa.int8()),
                    "newly": pa.array(
                        (out_dist < old).astype(np.int8), pa.int8()
                    ),
                    "bucket": pa.array(
                        _graph_bucket(out_node, n_buckets), pa.int32()
                    ),
                }
            )

        state = (
            msgs.union(state).groupby("bucket").map_groups(
                reduce_min, batch_format="pyarrow"
            )
        ).materialize()
        if not state.sum("newly"):
            break

    df = state.select_columns(["node", "dist"]).to_pandas()
    df = df.rename(columns={"node": "node_id"}).astype(
        {"node_id": "int64", "dist": "int64"}
    )
    return df.sort_values("node_id").reset_index(drop=True)


def g09_shortest_paths(sf_dir: str, rounds: int = 3,
                       node_threshold: int = 50_000_000):
    """Bounded-hop WEIGHTED shortest paths (Bellman-Ford, ``rounds``
    relaxation rounds) from the g04 seed set over the shared
    co-purchase graph, with deterministic integer edge weights
    ``(u + v) % 19 + 1`` — g04 measures hops; this measures cost, the
    primitive behind weighted-proximity ranking (trust propagation,
    citation distance).  Result: min total weight over paths of <=
    ``rounds`` edges, for every node reached.

    Ray shape (the g01/g04 driver-reduce discipline): the dist map is
    node-sized driver state broadcast via ``ray.put`` each round; each
    batch relaxes its edges vectorized (searchsorted into the sorted
    dist arrays, both directions) and emits per-batch PARTIAL MINS, so
    the driver pull is bounded by blocks x distinct-dst-per-block; no
    shuffle per round.  The node set itself arrives through a
    bucketed DISTINCT (never raw endpoint concatenation), and a
    ``node_threshold`` gate guards the node-sized driver state: above
    it :func:`_sssp_copartition` keeps the dist state distributed and
    co-partitioned with the edges (the g04 ``_bfs_copartition`` shape
    with a min-combine; forced-path equivalence test pins both paths
    to the same oracle).

    Oracle: fixed-round unrolled MATERIALIZED CTEs (the g08 lesson —
    plain CTEs inline exponentially)."""
    import ray

    from .stages.agg import bucketed_sum

    edges = _copurchase_edges(sf_dir)

    us_ds = bucketed_sum(edges, ["u"], [], count_col="n").materialize()
    vs_ds = bucketed_sum(edges, ["v"], [], count_col="n").materialize()
    if us_ds.count() + vs_ds.count() > node_threshold:
        return _sssp_copartition(edges, rounds)
    nodes = np.union1d(
        us_ds.to_pandas()["u"].to_numpy(np.int64),
        vs_ds.to_pandas()["v"].to_numpy(np.int64),
    )
    seeds = nodes[nodes % 70 == 0]
    dist_ids = seeds.copy()
    dist_vals = np.zeros(len(seeds), np.int64)

    for _ in range(rounds):
        if len(dist_ids) == 0:
            break
        ref = ray.put((dist_ids, dist_vals))

        def relax(batch: pd.DataFrame) -> pd.DataFrame:
            ids_s, vals_s = ray.get(ref)
            u = batch["u"].to_numpy(np.int64)
            v = batch["v"].to_numpy(np.int64)
            w = (u + v) % 19 + 1
            outs = []
            for s, d in ((u, v), (v, u)):
                pos = np.searchsorted(ids_s, s)
                pos = np.minimum(pos, len(ids_s) - 1)
                hit = ids_s[pos] == s
                if hit.any():
                    outs.append(
                        pd.DataFrame(
                            {
                                "id": d[hit],
                                "dist": vals_s[pos[hit]] + w[hit],
                            }
                        )
                    )
            if not outs:
                return pd.DataFrame(
                    {
                        "id": pd.Series([], dtype="int64"),
                        "dist": pd.Series([], dtype="int64"),
                    }
                )
            cat = pd.concat(outs)
            return cat.groupby("id", as_index=False)["dist"].min()

        cand = edges.map_batches(relax, batch_format="pandas").to_pandas()
        merged = pd.concat(
            [pd.DataFrame({"id": dist_ids, "dist": dist_vals}), cand]
        )
        best = merged.groupby("id", as_index=False)["dist"].min().sort_values("id")
        dist_ids = best["id"].to_numpy(np.int64)
        dist_vals = best["dist"].to_numpy(np.int64)

    out = pd.DataFrame({"node_id": dist_ids, "dist": dist_vals})
    return out.sort_values("node_id").reset_index(drop=True)


G09_SQL = """
WITH li AS MATERIALIZED (
  SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
  WHERE l_partkey % 7 = 0),
e0 AS MATERIALIZED (
  SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
  FROM li a JOIN li b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
e AS MATERIALIZED (
  SELECT u AS src, v AS dst, (u + v) % 19 + 1 AS w FROM e0
  UNION ALL SELECT v, u, (u + v) % 19 + 1 FROM e0),
d0 AS MATERIALIZED (
  SELECT DISTINCT src AS id, CAST(0 AS BIGINT) AS dist FROM e
  WHERE src % 70 = 0),
d1 AS MATERIALIZED (
  SELECT id, MIN(dist) AS dist FROM (
    SELECT id, dist FROM d0
    UNION ALL
    SELECT e.dst AS id, d0.dist + e.w AS dist
    FROM e JOIN d0 ON e.src = d0.id) GROUP BY id),
d2 AS MATERIALIZED (
  SELECT id, MIN(dist) AS dist FROM (
    SELECT id, dist FROM d1
    UNION ALL
    SELECT e.dst AS id, d1.dist + e.w AS dist
    FROM e JOIN d1 ON e.src = d1.id) GROUP BY id),
d3 AS MATERIALIZED (
  SELECT id, MIN(dist) AS dist FROM (
    SELECT id, dist FROM d2
    UNION ALL
    SELECT e.dst AS id, d2.dist + e.w AS dist
    FROM e JOIN d2 ON e.src = d2.id) GROUP BY id)
SELECT id AS node_id, CAST(dist AS BIGINT) AS dist FROM d3
"""


def n07_group_regression(sf_dir: str):
    """Per-group simple-linear-regression SUFFICIENT STATISTICS (per
    lang: x = n_chars, y = non-empty token count): n, sum_x, sum_y and
    the centered second moments sxx = n*sum(x^2) - sum(x)^2,
    sxy = n*sum(xy) - sum(x)*sum(y) — slope = sxy/sxx and r^2 follow by
    single divisions, but the emitted stats are INTEGERS so the oracle
    hashes bit-exactly regardless of aggregation order (the
    integer-cents discipline applied to regression; float regr_slope
    partial sums would be association-dependent).

    Scale shape: one streaming pass computes per-(batch, lang) integer
    partials (split + bincount for y, no per-row Python); the exchange
    through bucketed_sum is bounded by lang cardinality x blocks; the
    driver finishes on a lang-sized table."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "documents", ["lang", "n_chars", "text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        x = batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        dl, _ = _bm25_doc_stats(batch, ())
        y = dl.astype(np.int64)
        df = pd.DataFrame(
            {
                "lang": batch["lang"].to_pandas(),
                "n": 1,
                "sx": x,
                "sy": y,
                "sxx0": x * x,
                "sxy0": x * y,
            }
        )
        return df.groupby("lang", as_index=False)[
            ["n", "sx", "sy", "sxx0", "sxy0"]
        ].sum()

    agg = bucketed_sum(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        ["lang"],
        ["n", "sx", "sy", "sxx0", "sxy0"],
    ).to_pandas()
    n = agg["n"].to_numpy(np.int64)
    sx = agg["sx"].to_numpy(np.int64)
    sy = agg["sy"].to_numpy(np.int64)
    out = pd.DataFrame(
        {
            "lang": agg["lang"],
            "n": n,
            "sum_x": sx,
            "sum_y": sy,
            "sxx": n * agg["sxx0"].to_numpy(np.int64) - sx * sx,
            "sxy": n * agg["sxy0"].to_numpy(np.int64) - sx * sy,
        }
    )
    return out.sort_values("lang").reset_index(drop=True)


N07_SQL = """
WITH d AS (
  SELECT lang, CAST(n_chars AS BIGINT) AS x,
         CAST(len(list_filter(string_split(text, ' '), w -> w <> ''))
              AS BIGINT) AS y
  FROM documents)
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(x) AS BIGINT) AS sum_x,
       CAST(SUM(y) AS BIGINT) AS sum_y,
       CAST(COUNT(*) * SUM(x * x) - SUM(x) * SUM(x) AS BIGINT) AS sxx,
       CAST(COUNT(*) * SUM(x * y) - SUM(x) * SUM(y) AS BIGINT) AS sxy
FROM d GROUP BY lang
"""


def q38_above_customer_avg(sf_dir: str):
    """Decorrelated correlated subquery: orders strictly above their
    OWN customer's average order price — the classic
    ``WHERE price > (SELECT AVG(...) WHERE same customer)`` shape,
    decorrelated into one grouped pass + one broadcast filter pass.

    Exactness: the comparison is cross-multiplied integer cents
    (``cents * count > sum_cents``) so no division or float mean ever
    happens on either side.

    Scale shape: the per-customer (sum, count) reduce is a
    bucketed_sum whose exchange is bounded by customer cardinality x
    blocks; the stats map is the DIMENSION-sized side (TPC-H
    customers), broadcast once via ``ray.put`` and probed with
    searchsorted inside the second streaming pass — zero shuffle on
    the fact table."""
    import ray

    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        cents = _cents(batch["o_totalprice"].to_numpy(zero_copy_only=False))
        df = pd.DataFrame(
            {
                "o_custkey": batch["o_custkey"].to_numpy(zero_copy_only=False),
                "sc": cents,
                "c": 1,
            }
        )
        return df.groupby("o_custkey", as_index=False)[["sc", "c"]].sum()

    stats = bucketed_sum(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        ["o_custkey"],
        ["sc", "c"],
    ).to_pandas()
    stats = stats.sort_values("o_custkey")
    ref = ray.put(
        (
            stats["o_custkey"].to_numpy(np.int64),
            stats["sc"].to_numpy(np.int64),
            stats["c"].to_numpy(np.int64),
        )
    )

    def flag(batch: pa.Table) -> pa.Table:
        keys, sc, c = ray.get(ref)
        cust = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = _cents(batch["o_totalprice"].to_numpy(zero_copy_only=False))
        pos = np.searchsorted(keys, cust)
        keep = cents * c[pos] > sc[pos]
        return pa.table(
            {
                "o_orderkey": pa.array(
                    batch["o_orderkey"].to_numpy(zero_copy_only=False)[
                        keep
                    ].astype(np.int64),
                    pa.int64(),
                )
            }
        )

    out = (
        ds.map_batches(flag, batch_format="pyarrow", batch_size=65536)
        .to_pandas()
        .astype({"o_orderkey": "int64"})
    )
    return out.sort_values("o_orderkey").reset_index(drop=True)


Q38_SQL = """
WITH s AS (
  SELECT o_custkey,
         SUM(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS sc,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM orders GROUP BY o_custkey)
SELECT o.o_orderkey
FROM orders o JOIN s ON o.o_custkey = s.o_custkey
WHERE CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT) * s.c > s.sc
"""


def u03_crawl_budget(sf_dir: str, budget: int = 1000):
    """Crawl-budget apportionment: allocate a global fetch budget
    across hosts PROPORTIONALLY to page counts with the
    largest-remainder (Hamilton) method — the integer-exact
    allocation primitive behind politeness-aware crawl planning and
    per-domain sampling quotas (u01 measures hosts; u02 caps them;
    this SPENDS a budget over them).  Hosts are derived by the u01
    closed-form arithmetic, refined with ``doc_id % 97`` so the
    allocation runs over a few hundred keys.

    Integer-exact by construction: base = (B * cnt) // total,
    remainders ranked (rem DESC, host ASC), first ``B - sum(base)``
    hosts get +1 — no floats anywhere.

    Scale shape: one bucketed count whose exchange is bounded by host
    cardinality x blocks; the apportionment itself is host-sized
    driver math (hosts are a bounded dimension)."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        src = batch["source"].to_pandas()
        host = src + "-" + pd.Series((ids % 97).astype("U"), index=src.index)
        df = pd.DataFrame({"host": host + ".example.com", "n_pages": 1})
        return df.groupby("host", as_index=False)["n_pages"].sum()

    cnt = bucketed_sum(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        ["host"],
        ["n_pages"],
    ).to_pandas()
    cnt = cnt.sort_values("host").reset_index(drop=True)
    pages = cnt["n_pages"].to_numpy(np.int64)
    total = int(pages.sum())
    base = (budget * pages) // total
    rem = (budget * pages) % total
    alloc = base.copy()
    extra = budget - int(base.sum())
    if extra > 0:
        order = np.lexsort((cnt["host"].to_numpy(), -rem))
        alloc[order[:extra]] += 1
    out = pd.DataFrame(
        {
            "host": cnt["host"].astype(object),
            "n_pages": pages,
            "budget": alloc.astype(np.int64),
        }
    )
    return out.sort_values("host").reset_index(drop=True)


U03_SQL = """
WITH h AS (
  SELECT source || '-' || CAST(doc_id % 97 AS VARCHAR) || '.example.com'
           AS host,
         CAST(COUNT(*) AS BIGINT) AS n_pages
  FROM documents GROUP BY 1),
t AS (SELECT CAST(SUM(n_pages) AS BIGINT) AS total FROM h),
b AS (
  SELECT host, n_pages,
         CAST((1000 * n_pages) // total AS BIGINT) AS base,
         CAST((1000 * n_pages) % total AS BIGINT) AS rem
  FROM h CROSS JOIN t),
x AS (SELECT CAST(1000 - SUM(base) AS BIGINT) AS extra FROM b),
r AS (
  SELECT host, n_pages, base,
         ROW_NUMBER() OVER (ORDER BY rem DESC, host) AS rk
  FROM b)
SELECT r.host, r.n_pages,
       CAST(r.base + CASE WHEN r.rk <= x.extra THEN 1 ELSE 0 END AS BIGINT)
         AS budget
FROM r CROSS JOIN x
"""


def m17_tga_features(sf_dir: str):
    """REAL TGA (type-10 RLE true-color) decode: deterministic
    RLE-compressed 24-bit TGAs (variable-length packet stream, BGR,
    bottom-up origin — the format's actual traps) flow through the
    packet-walk decoder actor pool (stages/multimodal.decode_tga); the
    SQL oracle re-derives width/height/mean_luma from the generator
    arithmetic in logical top-down RGB space, so any packet-count /
    origin / channel-order mistake breaks the hash match.  The synth
    pixels have run plateaus, so BOTH packet kinds (RLE + raw) are
    exercised on every image."""
    from .stages.multimodal import decode_tga_features, synth_tga_payload

    return decode_tga_features(_media_rows(sf_dir, "t", synth_tga_payload))


M17_SQL = """
WITH dims AS (
  SELECT doc_id,
         4 + (doc_id * 157) % 25 AS width,
         4 + (doc_id * 173) % 21 AS height
  FROM documents),
px AS (
  SELECT doc_id, width, height, unnest(range(0, width * height)) AS j
  FROM dims)
SELECT printf('t%07d', doc_id) AS media_id,
       CAST(width AS INTEGER) AS width,
       CAST(height AS INTEGER) AS height,
       CAST(width * height AS BIGINT) AS n_pix,
       CAST(SUM((doc_id * 5 + (j // 3) * 19) % 256
              + (doc_id * 7 + (j // 3) * 21) % 256
              + (doc_id * 9 + (j // 3) * 23) % 256) AS DOUBLE)
         / (3.0 * width * height) AS mean_luma
FROM px GROUP BY doc_id, width, height
"""


def w17_sliding_distinct(sf_dir: str, window_us: int = 3_600_000_000,
                         n_buckets: int = 64):
    """Per-user MAX distinct event types in any trailing 1-hour window
    — the sliding-window cardinality measure behind burst/abuse
    detection (w13 counts RUNNING distinct over all history; this
    bounds the lookback, which running state cannot express).

    Vectorized via the LAST-OCCURRENCE trick: type t is present in the
    window ending at row i iff the latest prior occurrence of t (per
    user) falls inside it — so one grouped cummax per event type (the
    vocab is a bounded enum) replaces any per-row window rescan.  Ties
    at identical timestamps are closed with a (user, ts) group-max so
    same-instant events see each other, matching the SQL's ``<=``.

    Scale shape: ONE user-hash bucket shuffle; per bucket, sort +
    #types grouped cummaxes (all C-level), per-user max; output is
    user-sized.  For an unbounded type vocabulary the offset-list
    sweep (w13's shape) applies instead."""
    from naer_ray.hashing import _fnv64_arr

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        us = batch["ts"].combine_chunks().cast(pa.timestamp("us")).cast(pa.int64())
        uid = batch["user_id"].combine_chunks()
        b = (
            _fnv64_arr(pc.cast(uid, pa.string())) % np.uint64(n_buckets)
        ).astype(np.int32)
        return pa.table(
            {
                "user_id": uid,
                "ts_us": us,
                "event_type": batch["event_type"],
                "bucket": pa.array(b, pa.int32()),
            }
        )

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "max_types": pd.Series([], dtype="int64"),
                }
            )
        g = g.sort_values(["user_id", "ts_us"], kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        us = g["ts_us"].to_numpy(np.int64)
        codes, types = pd.factorize(g["event_type"])
        lo = us - window_us  # window is (ts - W, ts]
        cnt = np.zeros(len(g), np.int64)
        NEG = np.iinfo(np.int64).min
        for t in range(len(types)):
            seen = np.where(codes == t, us, NEG)
            last = (
                pd.Series(seen)
                .groupby(uid)
                .cummax()
                .to_numpy(np.int64)
            )
            # same-instant closure: every row in a (user, ts) tie group
            # sees the group's max (SQL's b.ts <= a.ts is symmetric)
            last = (
                pd.DataFrame({"u": uid, "ts": us, "l": last})
                .groupby(["u", "ts"])["l"]
                .transform("max")
                .to_numpy(np.int64)
            )
            cnt += last > lo
        out = (
            pd.DataFrame({"user_id": uid, "c": cnt})
            .groupby("user_id", as_index=False)["c"]
            .max()
            .rename(columns={"c": "max_types"})
        )
        return out.astype({"user_id": "int64", "max_types": "int64"})

    out = (
        ds.map_batches(prep, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(sweep, batch_format="pandas")
        .to_pandas()
        .astype({"user_id": "int64", "max_types": "int64"})
    )
    return out.sort_values("user_id").reset_index(drop=True)


W17_SQL = """
WITH e AS (
  SELECT user_id, event_id, event_type,
         epoch_us(CAST(ts AS TIMESTAMP)) AS us
  FROM events),
c AS (
  SELECT a.user_id, a.event_id,
         CAST(COUNT(DISTINCT b.event_type) AS BIGINT) AS c
  FROM e a JOIN e b
    ON a.user_id = b.user_id
   AND b.us <= a.us AND b.us > a.us - 3600000000
  GROUP BY a.user_id, a.event_id)
SELECT user_id, CAST(MAX(c) AS BIGINT) AS max_types
FROM c GROUP BY user_id
"""


def n08_grouped_mode(sf_dir: str):
    """Per-group MODE with deterministic tie-break: the most frequent
    user per event type (min user_id on count ties) — the exact modal
    aggregate (n05's Count-Min sketches heavy hitters approximately;
    this is the exact argmax the sketch's confirm pass needs).

    Scale shape: the (type, user) count histogram reduces through
    bucketed_sum (exchange bounded by distinct pairs, never rows);
    the argmax then rides a LOW-cardinality groupby over the enum-sized
    type key — the one place per-group dispatch is free."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"].to_pandas(),
                "user_id": batch["user_id"].to_numpy(zero_copy_only=False),
                "n": 1,
            }
        )
        return df.groupby(["event_type", "user_id"], as_index=False)["n"].sum()

    hist = bucketed_sum(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        ["event_type", "user_id"],
        ["n"],
    )

    def argmax(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame(
                {
                    "event_type": pd.Series([], dtype=object),
                    "mode_user": pd.Series([], dtype="int64"),
                    "n_events": pd.Series([], dtype="int64"),
                }
            )
        g = g.sort_values(
            ["n", "user_id"], ascending=[False, True], kind="mergesort"
        )
        top = g.iloc[[0]]
        return pd.DataFrame(
            {
                "event_type": top["event_type"].astype(object),
                "mode_user": top["user_id"].astype("int64"),
                "n_events": top["n"].astype("int64"),
            }
        )

    out = (
        hist.groupby("event_type")
        .map_groups(argmax, batch_format="pandas")
        .to_pandas()
        .astype({"mode_user": "int64", "n_events": "int64"})
    )
    return out.sort_values("event_type").reset_index(drop=True)


N08_SQL = """
WITH c AS (
  SELECT event_type, user_id, CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2),
r AS (
  SELECT event_type, user_id, n,
         ROW_NUMBER() OVER (PARTITION BY event_type
                            ORDER BY n DESC, user_id) AS rk
  FROM c)
SELECT event_type, user_id AS mode_user, n AS n_events
FROM r WHERE rk = 1
"""


def e07_entity_density(sf_dir: str, n_buckets: int = 64):
    """Per-CONVERSATION entity density over the derived transcripts:
    n_turns, n_hits (turn x entity presence pairs) and n_entities
    (distinct dictionary entities mentioned anywhere in the conv) —
    the conversation-level KG coverage profile (e06 profiles the
    ENTITY axis; this profiles the conversation axis, the signal a
    curation pass uses to keep entity-dense transcripts).

    Scale shape: each batch emits ONE partial row per conversation it
    touches — counts plus the entity-presence BITMASK (the dictionary
    is enum-sized, so presence is an int64) — and one conv-hash bucket
    shuffle combines fragments (sums + bitwise OR).  Ray may split a
    conversation's derived turns across batch boundaries (measured: 3
    convs at sf0.1), so the partial/combine split is load-bearing, not
    defensive; the exchange is bounded by convs x batches, never
    turns."""
    from naer_ray.hashing import _fnv64_arr

    ents_sorted = np.array(sorted(KG_ENTITIES))
    ds = _derive_transcripts(sf_dir)

    def density_partial(batch: pa.Table) -> pa.Table:
        conv = batch["conv_id"].combine_chunks()
        codes, uniq = conv.to_pandas().factorize()
        n_conv = len(uniq)
        n_turns = np.bincount(codes, minlength=n_conv).astype(np.int64)
        r, c = _entity_presence(batch["text"], ents_sorted)
        conv_of_hit = codes[r]
        n_hits = np.bincount(conv_of_hit, minlength=n_conv).astype(np.int64)
        mask = np.zeros(n_conv, np.int64)
        np.bitwise_or.at(mask, conv_of_hit, np.int64(1) << c)
        uniq_arr = pa.array(uniq, pa.string())
        b = (_fnv64_arr(uniq_arr) % np.uint64(n_buckets)).astype(np.int32)
        return pa.table(
            {
                "conv_id": uniq_arr,
                "n_turns": pa.array(n_turns, pa.int64()),
                "n_hits": pa.array(n_hits, pa.int64()),
                "mask": pa.array(mask, pa.int64()),
                "bucket": pa.array(b, pa.int32()),
            }
        )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame(
                {
                    "conv_id": pd.Series([], dtype=object),
                    "n_turns": pd.Series([], dtype="int64"),
                    "n_hits": pd.Series([], dtype="int64"),
                    "n_entities": pd.Series([], dtype="int64"),
                }
            )
        agg = g.groupby("conv_id", as_index=False).agg(
            n_turns=("n_turns", "sum"),
            n_hits=("n_hits", "sum"),
            mask=("mask", lambda s: int(np.bitwise_or.reduce(s.to_numpy(np.int64)))),
        )
        n_entities = np.array(
            [bin(int(m)).count("1") for m in agg["mask"].to_numpy(np.int64)],
            np.int64,
        )
        return pd.DataFrame(
            {
                "conv_id": agg["conv_id"].astype(object),
                "n_turns": agg["n_turns"].astype("int64"),
                "n_hits": agg["n_hits"].astype("int64"),
                "n_entities": n_entities,
            }
        )

    out = (
        ds.map_batches(density_partial, batch_format="pyarrow", batch_size=8192)
        .groupby("bucket")
        .map_groups(combine, batch_format="pandas")
        .to_pandas()
        .astype({"n_turns": "int64", "n_hits": "int64", "n_entities": "int64"})
    )
    return out.sort_values("conv_id").reset_index(drop=True)


E07_SQL = f"""
WITH t AS ({_DERIVE_SQL}),
h AS (
  SELECT DISTINCT conv_id, turn_idx, e FROM (
    SELECT conv_id, turn_idx, unnest(string_split(text, ' ')) AS e
    FROM t)
  WHERE e IN ({", ".join(f"'{e}'" for e in KG_ENTITIES)})),
nt AS (SELECT conv_id, CAST(COUNT(*) AS BIGINT) AS n_turns
       FROM t GROUP BY conv_id),
ag AS (SELECT conv_id, CAST(COUNT(*) AS BIGINT) AS n_hits,
              CAST(COUNT(DISTINCT e) AS BIGINT) AS n_entities
       FROM h GROUP BY conv_id)
SELECT nt.conv_id, nt.n_turns,
       COALESCE(ag.n_hits, 0) AS n_hits,
       COALESCE(ag.n_entities, 0) AS n_entities
FROM nt LEFT JOIN ag USING (conv_id)
"""


def w18_session_paths(sf_dir: str, k: int = 10, gap_us: int = 1_800_000_000,
                      n_buckets: int = 64):
    """Clickstream sequence mining: the top-k most frequent SESSION
    PATHS (ordered event-type sequences within a 30-minute-gap
    session, q07's session rule) — the path-frequency primitive behind
    navigation analysis and funnel discovery (w14 counts pairwise
    transitions; this counts whole ordered journeys, which a
    first-order transition matrix cannot reconstruct).

    Scale shape: ONE user-hash bucket shuffle; per bucket the
    sessionize is the vectorized sort + gap-break cumsum, the path
    build is one groupby-join per session, and only the bucket-local
    (path, n) HISTOGRAM leaves the kernel; a path-hash bucketed sum
    merges histograms and per-batch local top-k bounds the driver
    merge at blocks x k (each path lives in exactly one group after
    the reduce, so the union of local top-ks provably contains the
    global top-k).  Ties break (n DESC, path ASC) on both sides."""
    from .stages.agg import bucketed_sum
    from naer_ray.hashing import _fnv64_arr

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        us = batch["ts"].combine_chunks().cast(pa.timestamp("us")).cast(pa.int64())
        uid = batch["user_id"].combine_chunks()
        b = (
            _fnv64_arr(pc.cast(uid, pa.string())) % np.uint64(n_buckets)
        ).astype(np.int32)
        return pa.table(
            {
                "user_id": uid,
                "us": us,
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
                "bucket": pa.array(b, pa.int32()),
            }
        )

    def paths(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame(
                {
                    "path": pd.Series([], dtype=object),
                    "n": pd.Series([], dtype="int64"),
                }
            )
        g = g.sort_values(["user_id", "us", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        us = g["us"].to_numpy(np.int64)
        new_user = np.empty(len(g), bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        gap = np.empty(len(g), bool)
        gap[0] = True
        gap[1:] = (us[1:] - us[:-1]) > gap_us
        sess = np.cumsum(new_user | gap)
        p = (
            g.assign(sess=sess)
            .groupby("sess", sort=False)["event_type"]
            .agg(">".join)
        )
        h = p.value_counts()
        return pd.DataFrame(
            {"path": h.index.astype(object), "n": h.to_numpy(np.int64)}
        )

    hist = bucketed_sum(
        ds.map_batches(prep, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(paths, batch_format="pandas"),
        ["path"],
        ["n"],
    )

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(
            ["n", "path"], ascending=[False, True], kind="mergesort"
        ).head(k)

    cand = hist.map_batches(local_topk, batch_format="pandas").to_pandas()
    top = cand.sort_values(
        ["n", "path"], ascending=[False, True], kind="mergesort"
    ).head(k)
    return pd.DataFrame(
        {
            "rnk": np.arange(1, len(top) + 1, dtype=np.int64),
            "path": top["path"].to_numpy(object),
            "n": top["n"].to_numpy(np.int64),
        }
    )


W18_SQL = """
WITH e AS (
  SELECT user_id, event_id, event_type,
         epoch_us(CAST(ts AS TIMESTAMP)) AS us
  FROM events),
g AS (
  SELECT *, CASE WHEN LAG(us) OVER w IS NULL
                   OR us - LAG(us) OVER w > 1800000000
                 THEN 1 ELSE 0 END AS brk
  FROM e WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)),
s AS (
  SELECT *, SUM(brk) OVER (PARTITION BY user_id ORDER BY us, event_id
                           ROWS UNBOUNDED PRECEDING) AS sess
  FROM g),
p AS (
  SELECT user_id, sess,
         string_agg(event_type, '>' ORDER BY us, event_id) AS path
  FROM s GROUP BY user_id, sess),
c AS (SELECT path, CAST(COUNT(*) AS BIGINT) AS n FROM p GROUP BY path)
SELECT CAST(ROW_NUMBER() OVER (ORDER BY n DESC, path) AS BIGINT) AS rnk,
       path, n
FROM c ORDER BY n DESC, path LIMIT 10
"""


def r06_semiadditive_last(sf_dir: str, n_buckets: int = 64):
    """Semi-additive measure rollup: per DAY, the sum over users of
    each user's LAST event value that day (ts DESC, event_id DESC
    tie-break) — the balance/inventory aggregation rule (sum across
    the dimension, LAST along time) that plain SUM/AVG rollups
    (r01-r05) cannot express.  Integer cents throughout.

    Scale shape: ONE user-hash bucket shuffle; per bucket a sort +
    run-boundary mask keeps the last row per (user, day) vectorized;
    only day-level integer partials leave the kernel, and the final
    day reduce is a day-bounded bucketed_sum."""
    from .stages.agg import bucketed_sum
    from naer_ray.hashing import _fnv64_arr

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        us = batch["ts"].combine_chunks().cast(pa.timestamp("us")).cast(pa.int64())
        uid = batch["user_id"].combine_chunks()
        cents = _cents(batch["value"].to_numpy(zero_copy_only=False))
        b = (
            _fnv64_arr(pc.cast(uid, pa.string())) % np.uint64(n_buckets)
        ).astype(np.int32)
        return pa.table(
            {
                "user_id": uid,
                "us": us,
                "event_id": batch["event_id"],
                "cents": pa.array(cents, pa.int64()),
                "bucket": pa.array(b, pa.int32()),
            }
        )

    def keep_last(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame(
                {
                    "day_idx": pd.Series([], dtype="int64"),
                    "cents": pd.Series([], dtype="int64"),
                    "n_users": pd.Series([], dtype="int64"),
                }
            )
        g = g.assign(day_idx=g["us"].to_numpy(np.int64) // 86_400_000_000)
        g = g.sort_values(
            ["user_id", "day_idx", "us", "event_id"], kind="mergesort"
        )
        uid = g["user_id"].to_numpy(np.int64)
        day = g["day_idx"].to_numpy(np.int64)
        last = np.empty(len(g), bool)
        last[-1] = True
        last[:-1] = (uid[1:] != uid[:-1]) | (day[1:] != day[:-1])
        kept = g[last]
        out = (
            kept.assign(n_users=1)
            .groupby("day_idx", as_index=False)
            .agg(cents=("cents", "sum"), n_users=("n_users", "sum"))
        )
        return out.astype(
            {"day_idx": "int64", "cents": "int64", "n_users": "int64"}
        )

    daily = bucketed_sum(
        ds.map_batches(prep, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(keep_last, batch_format="pandas"),
        ["day_idx"],
        ["cents", "n_users"],
    ).to_pandas()
    day = pd.to_datetime(
        daily["day_idx"].to_numpy(np.int64), unit="D"
    ).strftime("%Y-%m-%d")
    out = pd.DataFrame(
        {
            "day": day.astype(object),
            "eod_balance_cents": daily["cents"].astype("int64"),
            "n_users": daily["n_users"].astype("int64"),
        }
    )
    return out.sort_values("day").reset_index(drop=True)


R06_SQL = """
WITH e AS (
  SELECT user_id, event_id,
         CAST(CAST(ts AS TIMESTAMP) AS DATE) AS d,
         epoch_us(CAST(ts AS TIMESTAMP)) AS us,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events),
r AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id, d
                               ORDER BY us DESC, event_id DESC) AS rk
  FROM e)
SELECT CAST(d AS VARCHAR) AS day,
       CAST(SUM(cents) AS BIGINT) AS eod_balance_cents,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM r WHERE rk = 1 GROUP BY d
"""


def g10_degree_histogram(sf_dir: str):
    """Degree DISTRIBUTION of the co-purchase graph: (degree,
    n_nodes) — the first diagnostic any graph pipeline runs (skew,
    power-law tail, isolated-hub detection) and the size gate g01/g04
    consult conceptually before choosing broadcast vs co-partition.

    Scale shape: two histogram reduces, each exchange bounded by key
    cardinality (nodes, then distinct degrees) — never edges twice:
    per-batch endpoint counts feed a node-keyed bucketed_sum, whose
    per-node degrees feed a degree-keyed bucketed count."""
    from .stages.agg import bucketed_sum

    edges = _copurchase_edges(sf_dir)

    def endpoints(batch: pd.DataFrame) -> pd.DataFrame:
        ids = np.concatenate(
            [batch["u"].to_numpy(np.int64), batch["v"].to_numpy(np.int64)]
        )
        uniq, cnt = np.unique(ids, return_counts=True)
        return pd.DataFrame({"id": uniq, "degree": cnt.astype(np.int64)})

    deg = bucketed_sum(
        edges.map_batches(endpoints, batch_format="pandas"),
        ["id"],
        ["degree"],
    )

    def hist_partial(batch: pd.DataFrame) -> pd.DataFrame:
        uniq, cnt = np.unique(
            batch["degree"].to_numpy(np.int64), return_counts=True
        )
        return pd.DataFrame({"degree": uniq, "n_nodes": cnt.astype(np.int64)})

    out = (
        bucketed_sum(
            deg.map_batches(hist_partial, batch_format="pandas"),
            ["degree"],
            ["n_nodes"],
        )
        .to_pandas()
        .astype({"degree": "int64", "n_nodes": "int64"})
    )
    return out.sort_values("degree").reset_index(drop=True)


G10_SQL = """
WITH li AS (
  SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
  WHERE l_partkey % 7 = 0),
e0 AS (
  SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
  FROM li a JOIN li b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
d AS (
  SELECT id, CAST(COUNT(*) AS BIGINT) AS degree
  FROM (SELECT u AS id FROM e0 UNION ALL SELECT v FROM e0)
  GROUP BY id)
SELECT degree, CAST(COUNT(*) AS BIGINT) AS n_nodes
FROM d GROUP BY degree
"""


def j08_band_join(sf_dir: str, band_cents: int = 10, n_buckets: int = 64):
    """Band (inequality-theta) SELF-join: customer pairs in the same
    market segment whose account balances differ by less than $0.10 —
    the |a - b| < eps join shape (entity reconciliation, tolerance
    matching) that hash joins can't express and sort-merge can't
    co-partition directly.  j04/q26 band on TIME with one sorted
    side; this bands on a VALUE with both sides unsorted.

    Scale shape: the classic band-bucket technique — each row lands
    in its ``cents // band`` bucket once as the LEFT role and
    replicated to the three bucket neighbors {-1, 0, +1} as the RIGHT
    role (a qualifying pair spans at most adjacent buckets, so it is
    co-located exactly once — in the left row's bucket — and the
    ``id_l < id_r`` rule de-dupes the self-join mirror); ONE
    (segment, band)-hash shuffle co-partitions, and each bucket runs
    a vectorized equi-merge + exact integer-cents filter.
    Replication is a constant 3x on one role; nothing is broadcast,
    nothing driver-side."""
    from naer_ray.hashing import _fnv64_arr

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment", "c_acctbal"])

    def tag(batch: pa.Table) -> pa.Table:
        cents = _cents(batch["c_acctbal"].to_numpy(zero_copy_only=False))
        ids = batch["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        seg = batch["c_mktsegment"].to_pandas().to_numpy(object)
        band = cents // band_cents
        # left role: own band only
        l_band = band
        # right role: replicated to {-1, 0, +1}
        r_ids = np.repeat(ids, 3)
        r_seg = np.repeat(seg, 3)
        r_cents = np.repeat(cents, 3)
        r_band = np.repeat(band, 3) + np.tile(
            np.array([-1, 0, 1], np.int64), len(cents)
        )
        all_ids = np.concatenate([ids, r_ids])
        all_seg = np.concatenate([seg, r_seg])
        all_cents = np.concatenate([cents, r_cents])
        all_band = np.concatenate([l_band, r_band])
        side = np.concatenate(
            [np.zeros(len(ids), np.int8), np.ones(len(r_ids), np.int8)]
        )
        key_str = pa.array(
            np.char.add(
                np.char.add(all_seg.astype("U"), "\x1f"),
                all_band.astype("U"),
            )
        )
        bk = (_fnv64_arr(key_str) % np.uint64(n_buckets)).astype(np.int32)
        return pa.table(
            {
                "id": pa.array(all_ids, pa.int64()),
                "seg": pa.array(all_seg, pa.string()),
                "cents": pa.array(all_cents, pa.int64()),
                "band": pa.array(all_band, pa.int64()),
                "side": pa.array(side, pa.int8()),
                "bucket": pa.array(bk, pa.int32()),
            }
        )

    tagged = cust.map_batches(tag, batch_format="pyarrow", batch_size=65536)

    def match(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "cust_a": pd.Series([], dtype="int64"),
                "cust_b": pd.Series([], dtype="int64"),
            }
        )
        left = g[g["side"] == 0]
        right = g[g["side"] == 1]
        if left.empty or right.empty:
            return empty
        m = left.merge(right, on=["seg", "band"], suffixes=("_l", "_r"))
        keep = ((m["cents_l"] - m["cents_r"]).abs() < band_cents) & (
            m["id_l"] < m["id_r"]
        )
        m = m[keep]
        if m.empty:
            return empty
        return pd.DataFrame(
            {
                "cust_a": m["id_l"].astype("int64"),
                "cust_b": m["id_r"].astype("int64"),
            }
        )

    out = (
        tagged.groupby("bucket")
        .map_groups(match, batch_format="pandas")
        .to_pandas()
    )
    if out.empty and "cust_a" not in out.columns:
        # Ray drops the schema when every block is empty
        out = pd.DataFrame(
            {
                "cust_a": pd.Series([], dtype="int64"),
                "cust_b": pd.Series([], dtype="int64"),
            }
        )
    out = out.astype({"cust_a": "int64", "cust_b": "int64"})
    return out.sort_values(["cust_a", "cust_b"]).reset_index(drop=True)


J08_SQL = """
SELECT a.c_custkey AS cust_a, b.c_custkey AS cust_b
FROM customer a JOIN customer b
  ON a.c_mktsegment = b.c_mktsegment AND a.c_custkey < b.c_custkey
WHERE abs(CAST(floor(a.c_acctbal * 100 + 0.5) AS BIGINT)
        - CAST(floor(b.c_acctbal * 100 + 0.5) AS BIGINT)) < 10
"""


def a11_embedding_dim_stats(sf_dir: str):
    """Per-DIMENSION profile of the embedding column: n, sum, min,
    max of the 1e-3-quantized components — the vector-health
    diagnostic (dead dimensions, scale drift, clipping) a similarity
    pipeline runs before trusting distances; also the registry's
    nested-list aggregation witness (unnest-equivalent compute kept
    entirely inside the Arrow list representation, zero per-row
    Python, zero unnest explosion).

    Integer-exact: components quantize to int64 BEFORE any reduce, so
    aggregation order cannot change a bit.

    Scale shape: pure streaming — each batch reduces its list column
    to ONE 64-row (dim, n, sum, min, max) partial via a single matrix
    view (no unnest materialization); the driver combine is
    dimension-bounded."""
    ds = _read(sf_dir, "embeddings", ["embedding"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        from .stages.ann import _as_matrix

        mat = _as_matrix(batch["embedding"]).astype(np.float64)
        q = np.floor(mat * 1000.0 + 0.5).astype(np.int64)
        dim = q.shape[1]
        return pd.DataFrame(
            {
                "i": np.arange(1, dim + 1, dtype=np.int64),
                "n": np.full(dim, q.shape[0], np.int64),
                "sum_q": q.sum(axis=0),
                "min_q": q.min(axis=0),
                "max_q": q.max(axis=0),
            }
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=8192
    ).to_pandas()
    out = parts.groupby("i", as_index=False).agg(
        n=("n", "sum"),
        sum_q=("sum_q", "sum"),
        min_q=("min_q", "min"),
        max_q=("max_q", "max"),
    )
    out = out.astype(
        {"i": "int64", "n": "int64", "sum_q": "int64",
         "min_q": "int64", "max_q": "int64"}
    )
    return out.sort_values("i").reset_index(drop=True)


A11_SQL = """
SELECT i, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(q) AS BIGINT) AS sum_q,
       CAST(MIN(q) AS BIGINT) AS min_q,
       CAST(MAX(q) AS BIGINT) AS max_q
FROM (
  SELECT generate_subscripts(embedding, 1) AS i,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000 + 0.5)
              AS BIGINT) AS q
  FROM embeddings)
GROUP BY i
"""


def w19_decay_score(sf_dir: str, max_age_days: int = 30, n_buckets: int = 64):
    """Time-decayed activity score per user: sum of value * 2^-age_days
    relative to the corpus' max timestamp — the freshness-weighted
    engagement measure behind recency ranking and churn scoring.

    EXACT despite the decay: ages cap at ``max_age_days`` and the
    score is emitted as the INTEGER numerator
    ``sum(cents << (max_age - age))`` (i.e. score scaled by
    2^max_age), so both sides sum int64 shifts — no float powers, no
    association drift.  Worst case fits: 1e5-cent values * 2^30 * 67
    events/user ~ 7e15 << 2^63.

    Scale shape: one tiny global-max pass (one row per batch), then a
    user-bounded bucketed_sum of shifted integers."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def max_partial(batch: pa.Table) -> pa.Table:
        us = batch["ts"].combine_chunks().cast(pa.timestamp("us")).cast(pa.int64())
        return pa.table({"mx": pa.array([int(pc.max(us).as_py())], pa.int64())})

    now_us = int(
        ds.map_batches(max_partial, batch_format="pyarrow").to_pandas()["mx"].max()
    )
    now_day = now_us // 86_400_000_000

    def partial(batch: pa.Table) -> pd.DataFrame:
        us = (
            batch["ts"].combine_chunks().cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy()
        )
        age = np.minimum(now_day - us // 86_400_000_000, max_age_days)
        cents = _cents(batch["value"].to_numpy(zero_copy_only=False))
        score = cents << (max_age_days - age)
        df = pd.DataFrame(
            {
                "user_id": batch["user_id"].to_numpy(zero_copy_only=False),
                "score_num": score,
            }
        )
        return df.groupby("user_id", as_index=False)["score_num"].sum()

    out = (
        bucketed_sum(
            ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
            ["user_id"],
            ["score_num"],
            n_buckets=n_buckets,
        )
        .to_pandas()
        .astype({"user_id": "int64", "score_num": "int64"})
    )
    return out.sort_values("user_id").reset_index(drop=True)


W19_SQL = """
WITH mx AS (
  SELECT MAX(epoch_us(CAST(ts AS TIMESTAMP))) // 86400000000 AS now_day
  FROM events),
e AS (
  SELECT user_id,
         LEAST(mx.now_day - epoch_us(CAST(ts AS TIMESTAMP)) // 86400000000,
               30) AS age,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events CROSS JOIN mx)
SELECT user_id,
       CAST(SUM(cents << CAST(30 - age AS INTEGER)) AS BIGINT) AS score_num
FROM e GROUP BY user_id
"""


def n09_benford_digits(sf_dir: str):
    """Benford first-significant-digit profile of order totals — the
    forensic-accounting distribution check (fraudulent or synthetic
    value columns drift from log-uniform digit frequencies).  Emits
    the (digit, n) counts; the chi-square against Benford expectations
    is a 9-row driver decision downstream.

    Integer-exact: the first digit is derived from the CENTS integer
    by repeated /10 (no float log10, whose boundary ulps could flip a
    digit), and the output is pure counts.

    Scale shape: per-batch bincount partials over a 9-key space —
    the exchange is 9 rows x blocks through one tiny reduce."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "orders", ["o_totalprice"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        cents = _cents(batch["o_totalprice"].to_numpy(zero_copy_only=False))
        cents = cents[cents > 0]
        while (cents >= 10).any():
            big = cents >= 10
            cents[big] //= 10
        counts = np.bincount(cents, minlength=10)[1:10]
        return pd.DataFrame(
            {
                "digit": np.arange(1, 10, dtype=np.int64),
                "n": counts.astype(np.int64),
            }
        )

    out = (
        bucketed_sum(
            ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
            ["digit"],
            ["n"],
        )
        .to_pandas()
        .astype({"digit": "int64", "n": "int64"})
    )
    out = out[out["n"] > 0]
    return out.sort_values("digit").reset_index(drop=True)


N09_SQL = """
WITH c AS (
  SELECT CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
  FROM orders
  WHERE floor(o_totalprice * 100 + 0.5) > 0),
d AS (
  SELECT CAST(substr(CAST(cents AS VARCHAR), 1, 1) AS BIGINT) AS digit
  FROM c)
SELECT digit, CAST(COUNT(*) AS BIGINT) AS n
FROM d GROUP BY digit HAVING COUNT(*) > 0
"""


def p05_length_buckets(sf_dir: str, bucket_width: int = 16):
    """Sequence-length bucketing profile for training-batch packing:
    per token-length bucket (len // 16), the doc count, bucket max
    length and the PADDING WASTE a pad-to-bucket-max batcher would pay
    (n*max - sum(len)) — the measurement that decides bucket
    granularity before a packing run (p01 packs a fixed order; this
    profiles the length distribution the packer consumes).

    Scale shape: zero shuffle — per-batch integer partials over a
    ~7-key bucket space (n, sum, max per bucket) with a bucket-bounded
    driver combine."""
    ds = _read(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        dl, _ = _bm25_doc_stats(batch, ())
        ln = dl.astype(np.int64)
        df = pd.DataFrame({"bucket": ln // bucket_width, "l": ln, "n_docs": 1})
        return df.groupby("bucket", as_index=False).agg(
            n_docs=("n_docs", "sum"), sum_l=("l", "sum"), max_len=("l", "max")
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=65536
    ).to_pandas()
    agg = parts.groupby("bucket", as_index=False).agg(
        n_docs=("n_docs", "sum"), sum_l=("sum_l", "sum"), max_len=("max_len", "max")
    )
    out = pd.DataFrame(
        {
            "bucket": agg["bucket"].astype("int64"),
            "n_docs": agg["n_docs"].astype("int64"),
            "max_len": agg["max_len"].astype("int64"),
            "pad_waste": (
                agg["n_docs"].to_numpy(np.int64)
                * agg["max_len"].to_numpy(np.int64)
                - agg["sum_l"].to_numpy(np.int64)
            ),
        }
    )
    return out.sort_values("bucket").reset_index(drop=True)


P05_SQL = """
WITH d AS (
  SELECT CAST(len(list_filter(string_split(text, ' '), w -> w <> ''))
              AS BIGINT) AS l
  FROM documents)
SELECT l // 16 AS bucket, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(MAX(l) AS BIGINT) AS max_len,
       CAST(COUNT(*) * MAX(l) - SUM(l) AS BIGINT) AS pad_waste
FROM d GROUP BY 1
"""


def v06_order_audit(sf_dir: str, n_buckets: int = 64):
    """Out-of-order ingestion audit: per user, how many events arrive
    with a DECREASING event_id when replayed in timestamp order — the
    disorder-rate diagnostic that sizes watermarks and reorder buffers
    (i03 classifies late events against a fixed watermark; this
    measures the disorder itself, no watermark assumed).

    Scale shape: ONE user-hash bucket shuffle; per bucket a sort +
    shifted compare inside user runs (all vectorized), user-sized
    output."""
    from naer_ray.hashing import _fnv64_arr

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])

    def prep(batch: pa.Table) -> pa.Table:
        us = batch["ts"].combine_chunks().cast(pa.timestamp("us")).cast(pa.int64())
        uid = batch["user_id"].combine_chunks()
        b = (
            _fnv64_arr(pc.cast(uid, pa.string())) % np.uint64(n_buckets)
        ).astype(np.int32)
        return pa.table(
            {
                "user_id": uid,
                "us": us,
                "event_id": batch["event_id"],
                "bucket": pa.array(b, pa.int32()),
            }
        )

    def audit(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "n_ooo": pd.Series([], dtype="int64"),
                    "n_events": pd.Series([], dtype="int64"),
                }
            )
        g = g.sort_values(["user_id", "us", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        eid = g["event_id"].to_numpy(np.int64)
        same_user = np.zeros(len(g), bool)
        same_user[1:] = uid[1:] == uid[:-1]
        inv = np.zeros(len(g), bool)
        inv[1:] = eid[1:] < eid[:-1]
        df = pd.DataFrame(
            {"user_id": uid, "ooo": (same_user & inv).astype(np.int64), "n": 1}
        )
        out = df.groupby("user_id", as_index=False).agg(
            n_ooo=("ooo", "sum"), n_events=("n", "sum")
        )
        return out.astype(
            {"user_id": "int64", "n_ooo": "int64", "n_events": "int64"}
        )

    out = (
        ds.map_batches(prep, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(audit, batch_format="pandas")
        .to_pandas()
        .astype({"user_id": "int64", "n_ooo": "int64", "n_events": "int64"})
    )
    return out.sort_values("user_id").reset_index(drop=True)


V06_SQL = """
WITH o AS (
  SELECT user_id, event_id,
         LAG(event_id) OVER (PARTITION BY user_id
                             ORDER BY epoch_us(CAST(ts AS TIMESTAMP)),
                                      event_id) AS prev
  FROM events)
SELECT user_id,
       CAST(COUNT(*) FILTER (WHERE prev IS NOT NULL AND event_id < prev)
            AS BIGINT) AS n_ooo,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM o GROUP BY user_id
"""


def k03_cluster_profile(sf_dir: str):
    """Per-cluster vector profile over the LABELED embeddings: n_vecs,
    the quantized component sum and the quantized energy (sum of
    squared components) per label — the cluster-health diagnostic
    (collapsed clusters have tiny energy spread; mislabeled ones drift
    in mean) that complements k01/k02's assignment with per-cluster
    sufficient statistics, all INTEGER so the oracle is bit-exact.

    Scale shape: zero shuffle — per-batch label-grouped integer
    partials from one matrix view, label-bounded driver combine."""
    ds = _read(sf_dir, "embeddings", ["label", "embedding"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        from .stages.ann import _as_matrix

        mat = _as_matrix(batch["embedding"]).astype(np.float64)
        q = np.floor(mat * 1000.0 + 0.5).astype(np.int64)
        lab = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame(
            {
                "label": lab,
                "n_vecs": 1,
                "sum_q": q.sum(axis=1),
                "energy_q": (q * q).sum(axis=1),
            }
        )
        return df.groupby("label", as_index=False)[
            ["n_vecs", "sum_q", "energy_q"]
        ].sum()

    parts = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=8192
    ).to_pandas()
    out = (
        parts.groupby("label", as_index=False)[["n_vecs", "sum_q", "energy_q"]]
        .sum()
        .astype(
            {"label": "int64", "n_vecs": "int64", "sum_q": "int64",
             "energy_q": "int64"}
        )
    )
    return out.sort_values("label").reset_index(drop=True)


K03_SQL = """
WITH q AS (
  SELECT label,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000 + 0.5)
              AS BIGINT) AS qq
  FROM embeddings),
v AS (SELECT CAST(label AS BIGINT) AS label, CAST(COUNT(*) AS BIGINT) AS n_vecs
      FROM embeddings GROUP BY label),
s AS (SELECT CAST(label AS BIGINT) AS label,
             CAST(SUM(qq) AS BIGINT) AS sum_q,
             CAST(SUM(qq * qq) AS BIGINT) AS energy_q
      FROM q GROUP BY label)
SELECT v.label, v.n_vecs, s.sum_q, s.energy_q
FROM v JOIN s USING (label)
"""


def w20_calendar_profile(sf_dir: str):
    """Calendar activity heatmap: event counts per (day-of-week, hour)
    — the seasonality profile behind traffic shaping and anomaly
    baselines.  Day-of-week is the CLOSED-FORM ``(epoch_days + 4) % 7``
    (1970-01-01 was a Thursday; 0 = Sunday to match DuckDB's
    ``dayofweek``) computed identically on both sides — no library
    calendar whose week-start convention could differ.

    Scale shape: zero shuffle beyond one 168-key bucketed reduce —
    per-batch integer bincounts over dow*24+hour."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "events", ["ts"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        us = (
            batch["ts"].combine_chunks().cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy()
        )
        days = us // 86_400_000_000
        dow = (days + 4) % 7
        hour = (us // 3_600_000_000) % 24
        key = dow * 24 + hour
        counts = np.bincount(key, minlength=168)
        nz = np.flatnonzero(counts)
        return pd.DataFrame(
            {
                "dow": (nz // 24).astype(np.int64),
                "hour": (nz % 24).astype(np.int64),
                "n": counts[nz].astype(np.int64),
            }
        )

    out = (
        bucketed_sum(
            ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
            ["dow", "hour"],
            ["n"],
        )
        .to_pandas()
        .astype({"dow": "int64", "hour": "int64", "n": "int64"})
    )
    return out.sort_values(["dow", "hour"]).reset_index(drop=True)


W20_SQL = """
WITH e AS (
  SELECT epoch_us(CAST(ts AS TIMESTAMP)) AS us FROM events)
SELECT (us // 86400000000 + 4) % 7 AS dow,
       (us // 3600000000) % 24 AS hour,
       CAST(COUNT(*) AS BIGINT) AS n
FROM e GROUP BY 1, 2
"""


def v07_join_cardinality(sf_dir: str, n_buckets: int = 64):
    """EXACT join-cardinality planning stats for events JOIN orders on
    user/customer key: the join row count Σ_k cA(k)·cB(k), the
    matching-key count and each side's distinct keys — the number a
    shuffle-join planner needs BEFORE paying the join (v04 reports one
    table's skew; this prices the pairing), computed without
    materializing a single joined row.

    Scale shape: two key-bounded count reduces (one per side) meet in
    ONE co-partitioned combine keyed by the join key; the output is 1
    row.  At no point does anything event x order shaped exist."""
    from .stages.agg import bucketed_sum

    ev = _read(sf_dir, "events", ["user_id"])
    od = _read(sf_dir, "orders", ["o_custkey"])

    def cnt(col):
        def f(batch: pa.Table) -> pd.DataFrame:
            ids = batch[col].to_numpy(zero_copy_only=False).astype(np.int64)
            uniq, c = np.unique(ids, return_counts=True)
            return pd.DataFrame({"key": uniq, "c": c.astype(np.int64)})

        return f

    ca = bucketed_sum(
        ev.map_batches(cnt("user_id"), batch_format="pyarrow", batch_size=65536),
        ["key"],
        ["c"],
    )
    cb = bucketed_sum(
        od.map_batches(cnt("o_custkey"), batch_format="pyarrow", batch_size=65536),
        ["key"],
        ["c"],
    )

    def tag(side: int):
        def f(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch[["key", "c"]].copy()
            out["side"] = np.int8(side)
            out["bucket"] = (
                out["key"].to_numpy(np.int64) % n_buckets
            ).astype(np.int32)
            return out

        return f

    both = ca.map_batches(tag(0), batch_format="pandas").union(
        cb.map_batches(tag(1), batch_format="pandas")
    )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        a = g[g["side"] == 0]
        b = g[g["side"] == 1]
        m = a.merge(b, on="key", suffixes=("_a", "_b"))
        jr = int((m["c_a"].to_numpy(np.int64) * m["c_b"].to_numpy(np.int64)).sum())
        return pd.DataFrame(
            {
                "join_rows": pd.Series([jr], dtype="int64"),
                "n_match_keys": pd.Series([len(m)], dtype="int64"),
                "n_keys_a": pd.Series([len(a)], dtype="int64"),
                "n_keys_b": pd.Series([len(b)], dtype="int64"),
            }
        )

    parts = (
        both.groupby("bucket")
        .map_groups(combine, batch_format="pandas")
        .to_pandas()
    )
    return (
        parts.sum()
        .to_frame()
        .T.astype(
            {"join_rows": "int64", "n_match_keys": "int64",
             "n_keys_a": "int64", "n_keys_b": "int64"}
        )
    )


V07_SQL = """
WITH a AS (SELECT user_id AS key, CAST(COUNT(*) AS BIGINT) AS c
           FROM events GROUP BY user_id),
b AS (SELECT o_custkey AS key, CAST(COUNT(*) AS BIGINT) AS c
      FROM orders GROUP BY o_custkey),
m AS (SELECT a.c AS ca, b.c AS cb FROM a JOIN b USING (key))
SELECT CAST(COALESCE(SUM(ca * cb), 0) AS BIGINT) AS join_rows,
       CAST(COUNT(*) AS BIGINT) AS n_match_keys,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM a) AS n_keys_a,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM b) AS n_keys_b
FROM m
"""


def n10_ks_drift(sf_dir: str):
    """Two-sample Kolmogorov-Smirnov drift statistic between the
    English and non-English doc-length distributions, in PURE
    INTEGERS: the KS numerator max_v |ca(v)*nb - cb(v)*na| (the D
    statistic times na*nb) plus both sample sizes — D itself is one
    division downstream, so no float CDF ever exists on either side.
    The distribution-shift gate batch curation runs between corpus
    snapshots or language slices (t16 compares token histograms by
    total-variation; KS bounds the max CDF gap, which TV cannot).

    Scale shape: the n03/n06 value-histogram discipline — one
    (value)-keyed reduce whose exchange is bounded by distinct values
    x blocks, never rows; the driver takes the max over the tiny
    cumulative table."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        is_en = (
            pc.equal(batch["lang"], "en").to_numpy(zero_copy_only=False)
        )
        v = batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame(
            {"v": v, "a": is_en.astype(np.int64), "b": (~is_en).astype(np.int64)}
        )
        return df.groupby("v", as_index=False)[["a", "b"]].sum()

    hist = (
        bucketed_sum(
            ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
            ["v"],
            ["a", "b"],
        )
        .to_pandas()
        .sort_values("v")
    )
    ca = hist["a"].to_numpy(np.int64).cumsum()
    cb = hist["b"].to_numpy(np.int64).cumsum()
    na, nb = int(ca[-1]), int(cb[-1])
    ks_num = int(np.abs(ca * nb - cb * na).max())
    return pd.DataFrame(
        {
            "ks_num": pd.Series([ks_num], dtype="int64"),
            "n_a": pd.Series([na], dtype="int64"),
            "n_b": pd.Series([nb], dtype="int64"),
        }
    )


N10_SQL = """
WITH h AS (
  SELECT n_chars AS v,
         CAST(COUNT(*) FILTER (WHERE lang = 'en') AS BIGINT) AS a,
         CAST(COUNT(*) FILTER (WHERE lang <> 'en') AS BIGINT) AS b
  FROM documents GROUP BY n_chars),
c AS (
  SELECT SUM(a) OVER (ORDER BY v ROWS UNBOUNDED PRECEDING) AS ca,
         SUM(b) OVER (ORDER BY v ROWS UNBOUNDED PRECEDING) AS cb,
         (SELECT SUM(a) FROM h) AS na,
         (SELECT SUM(b) FROM h) AS nb
  FROM h)
SELECT CAST(MAX(abs(ca * nb - cb * na)) AS BIGINT) AS ks_num,
       CAST(MAX(na) AS BIGINT) AS n_a,
       CAST(MAX(nb) AS BIGINT) AS n_b
FROM c
"""


def v08_source_vocab_overlap(sf_dir: str, n_buckets: int = 64):
    """Pairwise VOCABULARY overlap between sources: for every source
    pair (a < b), the intersection size of their distinct-token sets
    plus each side's vocab size — the corpus-similarity matrix
    (Jaccard = inter/(n_a+n_b-inter) by one division downstream) that
    decides which sources are redundant before a mixing run.

    Scale shape: one (term)-keyed DISTINCT reduce bounds the exchange
    by vocab x sources; each term's source set then emits its k<=20
    in-order pairs (constant-bounded per term), and a pair-keyed sum
    finishes — never anything docs x docs shaped."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "documents", ["source", "text"])

    def term_partial(batch: pa.Table) -> pd.DataFrame:
        txt = pc.fill_null(batch["text"].combine_chunks(), "")
        toks = pc.split_pattern(txt, " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        src = batch["source"].to_numpy(zero_copy_only=False)[parents]
        keep = flat != ""
        df = pd.DataFrame({"term": flat[keep], "source": src[keep], "n": 1})
        return df.groupby(["term", "source"], as_index=False)["n"].sum()

    dist = bucketed_sum(
        ds.map_batches(term_partial, batch_format="pyarrow", batch_size=8192),
        ["term", "source"],
        ["n"],
        n_buckets=n_buckets,
    )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "src_a": pd.Series([], dtype=object),
                "src_b": pd.Series([], dtype=object),
                "inter": pd.Series([], dtype="int64"),
            }
        )
        if g.empty:
            return empty
        g = g.sort_values(["term", "source"], kind="mergesort")
        t = g["term"].to_numpy(object)
        s = g["source"].to_numpy(object)
        outs = []
        j = 1
        # distance-j in-order pairs inside each term run (the
        # _copurchase_edges run technique; runs are <= n_sources long)
        while True:
            same = t[j:] == t[:-j]
            if not same.any():
                break
            outs.append(
                pd.DataFrame(
                    {"src_a": s[:-j][same], "src_b": s[j:][same], "inter": 1}
                )
            )
            j += 1
        if not outs:
            return empty
        cat = pd.concat(outs)
        return cat.groupby(["src_a", "src_b"], as_index=False)["inter"].sum()

    def rebucket(batch: pd.DataFrame) -> pd.DataFrame:
        from naer_ray.hashing import _fnv64_arr

        if batch.empty:
            batch["bucket"] = pd.Series([], dtype="int32")
            return batch
        h = _fnv64_arr(pa.array(batch["term"].astype(str), from_pandas=True))
        batch = batch.copy()
        batch["bucket"] = (h % np.uint64(n_buckets)).astype(np.int32)
        return batch

    inter = bucketed_sum(
        dist.map_batches(rebucket, batch_format="pandas")
        .groupby("bucket")
        .map_groups(pairs, batch_format="pandas"),
        ["src_a", "src_b"],
        ["inter"],
    ).to_pandas()

    sizes = (
        dist.map_batches(
            lambda b: b.groupby("source", as_index=False)
            .size()
            .rename(columns={"size": "vocab"}),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby("source", as_index=False)["vocab"]
        .sum()
    )
    sz = dict(zip(sizes["source"], sizes["vocab"]))
    out = pd.DataFrame(
        {
            "src_a": inter["src_a"].astype(object),
            "src_b": inter["src_b"].astype(object),
            "inter": inter["inter"].astype("int64"),
            "n_a": inter["src_a"].map(sz).astype("int64"),
            "n_b": inter["src_b"].map(sz).astype("int64"),
        }
    )
    return out.sort_values(["src_a", "src_b"]).reset_index(drop=True)


V08_SQL = """
WITH tok AS (
  SELECT DISTINCT source, t FROM (
    SELECT source, unnest(string_split(text, ' ')) AS t FROM documents)
  WHERE t <> ''),
sz AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS vocab
       FROM tok GROUP BY source),
pr AS (
  SELECT a.source AS src_a, b.source AS src_b,
         CAST(COUNT(*) AS BIGINT) AS inter
  FROM tok a JOIN tok b ON a.t = b.t AND a.source < b.source
  GROUP BY a.source, b.source)
SELECT pr.src_a, pr.src_b, pr.inter,
       sa.vocab AS n_a, sb.vocab AS n_b
FROM pr JOIN sz sa ON pr.src_a = sa.source
        JOIN sz sb ON pr.src_b = sb.source
"""


def i07_bitemporal_asof(sf_dir: str, valid: str = "2024-01-02",
                        txn: str = "2024-01-04", n_buckets: int = 64):
    """BITEMPORAL as-of read: each user's state effective at VALID
    time V *as known at* TRANSACTION time T — the dual-clock query
    (late-arriving corrections visible only after their ingest time)
    that single-clock time travel (i06) cannot answer.  Valid time is
    derived by the closed-form ``ts - (event_id % 7) days`` (facts
    recorded up to a week after they take effect), identically on
    both sides.  Winner per user: max (valid_ts, event_id) among rows
    with txn <= T AND valid <= V.

    Scale shape: BOTH clock predicates apply inside the scan (the
    row-group pruning path at corpus scale); survivors ride ONE
    user-hash bucket shuffle and a vectorized lexsort keep-first —
    the i06 kernel with a second clock."""
    from naer_ray.hashing import _fnv64_arr

    v_cut = int(np.datetime64(valid, "us").astype("int64"))
    t_cut = int(np.datetime64(txn, "us").astype("int64"))
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        tt = (
            batch["ts"].combine_chunks().cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy()
        )
        eid = batch["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        vt = tt - (eid % 7) * 86_400_000_000
        keep = (tt <= t_cut) & (vt <= v_cut)
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)[
            keep
        ]
        cents = _cents(batch["value"].to_numpy(zero_copy_only=False))[keep]
        uid_arr = pa.array(uid, pa.int64())
        b = (
            _fnv64_arr(pc.cast(uid_arr, pa.string())) % np.uint64(n_buckets)
        ).astype(np.int32)
        return pa.table(
            {
                "user_id": uid_arr,
                "vt_us": pa.array(vt[keep], pa.int64()),
                "event_id": pa.array(eid[keep], pa.int64()),
                "cents": pa.array(cents, pa.int64()),
                "bucket": pa.array(b, pa.int32()),
            }
        )

    def keep_latest(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "vt_us": pd.Series([], dtype="int64"),
                    "event_id": pd.Series([], dtype="int64"),
                    "cents": pd.Series([], dtype="int64"),
                }
            )
        g = g.sort_values(
            ["user_id", "vt_us", "event_id"],
            ascending=[True, False, False],
            kind="mergesort",
        )
        first = ~g["user_id"].duplicated()
        out = g[first][["user_id", "vt_us", "event_id", "cents"]]
        return out.astype(
            {"user_id": "int64", "vt_us": "int64",
             "event_id": "int64", "cents": "int64"}
        )

    out = (
        ds.map_batches(prep, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(keep_latest, batch_format="pandas")
        .to_pandas()
        .astype(
            {"user_id": "int64", "vt_us": "int64",
             "event_id": "int64", "cents": "int64"}
        )
    )
    return out.sort_values("user_id").reset_index(drop=True)


I07_SQL = """
WITH e AS (
  SELECT user_id, event_id,
         epoch_us(CAST(ts AS TIMESTAMP)) AS tt,
         epoch_us(CAST(ts AS TIMESTAMP))
           - (event_id % 7) * 86400000000 AS vt,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events),
f AS (
  SELECT * FROM e
  WHERE tt <= epoch_us(TIMESTAMP '2024-01-04 00:00:00')
    AND vt <= epoch_us(TIMESTAMP '2024-01-02 00:00:00')),
r AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id
                               ORDER BY vt DESC, event_id DESC) AS rk
  FROM f)
SELECT user_id, CAST(vt AS BIGINT) AS vt_us, event_id, cents
FROM r WHERE rk = 1
"""


def q39_coverage_division(sf_dir: str, num: int = 8, den: int = 10):
    """Relational-division-with-threshold: users active on at least
    80% of ALL days present in the corpus — the "for (almost) all"
    idiom (pure division = 100%) that EXISTS/semi-join queries (q19,
    q34) cannot express; the comparison is cross-multiplied integers
    (user_days * 10 >= total_days * 8), no ratio ever computed.

    Scale shape: one (user, day)-keyed DISTINCT reduce (exchange
    bounded by active user-days), whose output feeds BOTH the global
    day count (a tiny distinct) and the per-user day counts; the
    final filter closes over the one-int threshold — nothing
    user x day shaped is ever rebuilt."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def prep(batch: pa.Table) -> pd.DataFrame:
        us = (
            batch["ts"].combine_chunks().cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy()
        )
        df = pd.DataFrame(
            {
                "user_id": batch["user_id"].to_numpy(zero_copy_only=False),
                "day": us // 86_400_000_000,
                "n": 1,
            }
        )
        return df.groupby(["user_id", "day"], as_index=False)["n"].sum()

    user_days = bucketed_sum(
        ds.map_batches(prep, batch_format="pyarrow", batch_size=65536),
        ["user_id", "day"],
        [],
        count_col="n",
    ).materialize()

    nd = int(
        bucketed_sum(user_days, ["day"], [], count_col="n").count()
    )

    per_user = (
        bucketed_sum(user_days, ["user_id"], [], count_col="n_days")
        .to_pandas()
        .astype({"user_id": "int64", "n_days": "int64"})
    )
    keep = per_user["n_days"].to_numpy(np.int64) * den >= nd * num
    out = per_user[keep]
    return out.sort_values("user_id").reset_index(drop=True)


Q39_SQL = """
WITH d AS (
  SELECT DISTINCT user_id,
         CAST(epoch_us(CAST(ts AS TIMESTAMP)) // 86400000000 AS BIGINT)
           AS day
  FROM events),
n AS (SELECT CAST(COUNT(DISTINCT day) AS BIGINT) AS nd FROM d)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_days
FROM d GROUP BY user_id
HAVING COUNT(*) * 10 >= (SELECT nd FROM n) * 8
"""


def s11_metadata_stats(sf_dir: str):
    """Metadata-ONLY scan: row count and key min/max of the orders
    table from the Parquet FOOTER statistics alone — no data page is
    ever decoded (the planning read every lakehouse engine does
    before scheduling a scan; s10 prunes row groups WITH a data read,
    this answers without one).  The oracle computes the same numbers
    the slow way, so a footer-stats mismatch (truncated stats, wrong
    row-group walk) breaks the hash.

    Scale shape: one task per FILE reading only its footer
    (kilobytes); the combine is file-count-sized.  Distributed via
    from_items over the file list, so a million-file table fans out
    across the cluster."""
    import glob as _glob

    import ray.data

    paths = sorted(_glob.glob(f"{sf_dir}/orders*.parquet")) or sorted(
        _glob.glob(f"{sf_dir}/orders.parquet")
    )

    def footer(batch: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as pq

        rows = []
        for p in batch["item"]:
            md = pq.ParquetFile(p).metadata
            idx = md.schema.to_arrow_schema().get_field_index("o_orderkey")
            mn, mx = None, None
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(idx).statistics
                mn = st.min if mn is None else min(mn, st.min)
                mx = st.max if mx is None else max(mx, st.max)
            rows.append((1, md.num_rows, int(mn), int(mx)))
        return pd.DataFrame(
            rows, columns=["n_files", "n_rows", "min_key", "max_key"]
        )

    parts = (
        ray.data.from_items(paths)
        .map_batches(footer, batch_format="pandas")
        .to_pandas()
    )
    return pd.DataFrame(
        {
            "n_files": pd.Series([int(parts["n_files"].sum())], dtype="int64"),
            "n_rows": pd.Series([int(parts["n_rows"].sum())], dtype="int64"),
            "min_key": pd.Series([int(parts["min_key"].min())], dtype="int64"),
            "max_key": pd.Series([int(parts["max_key"].max())], dtype="int64"),
        }
    )


S11_SQL = """
SELECT CAST(1 AS BIGINT) AS n_files,
       CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(MIN(o_orderkey) AS BIGINT) AS min_key,
       CAST(MAX(o_orderkey) AS BIGINT) AS max_key
FROM orders
"""


def w21_gap_filled_series(sf_dir: str):
    """Gap-filled dense time series: hourly event counts INCLUDING the
    empty hours between the corpus min and max hour (the calendar
    densification every monitoring/forecasting feed needs — a plain
    GROUP BY silently drops zero hours, which downstream models read
    as "no data" instead of "zero events").

    Scale shape: the heavy side is ONE bucketed per-hour count
    (exchange bounded by distinct hours, not rows); the dense calendar
    is generated driver-side because its size is the TIME RANGE, not
    the data volume (a decade of hours is 87k rows regardless of
    corpus size), then zero-filled with one vectorized searchsorted —
    nothing row-shaped ever leaves the reduce."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "events", ["ts"])
    hour_us = 3_600_000_000

    def prep(batch: pa.Table) -> pd.DataFrame:
        us = (
            batch["ts"].combine_chunks().cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy()
        )
        df = pd.DataFrame({"hour_us": (us // hour_us) * hour_us, "n": 1})
        return df.groupby("hour_us", as_index=False)["n"].sum()

    counts = (
        bucketed_sum(
            ds.map_batches(prep, batch_format="pyarrow", batch_size=65536),
            ["hour_us"],
            ["n"],
        )
        .to_pandas()
        .sort_values("hour_us")
    )
    hu = counts["hour_us"].to_numpy(np.int64)
    dense = np.arange(hu[0], hu[-1] + hour_us, hour_us, dtype=np.int64)
    n = np.zeros(len(dense), np.int64)
    n[np.searchsorted(dense, hu)] = counts["n"].to_numpy(np.int64)
    return pd.DataFrame(
        {
            "hour_start": pd.Series(dense, dtype="int64").astype("datetime64[us]"),
            "n_events": pd.Series(n, dtype="int64"),
        }
    )


W21_SQL = """
WITH b AS (
  SELECT date_trunc('hour', ts) AS h, CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1),
g AS (
  SELECT unnest(generate_series((SELECT MIN(h) FROM b),
                                (SELECT MAX(h) FROM b),
                                INTERVAL 1 HOUR)) AS hour_start)
SELECT g.hour_start, COALESCE(b.n, CAST(0 AS BIGINT)) AS n_events
FROM g LEFT JOIN b ON b.h = g.hour_start
"""


def n11_gini(sf_dir: str):
    """Exact per-group Gini concentration of order value, emitted as an
    INTEGER numerator/denominator pair (gini = num/den) so the oracle
    compare is hash-exact: num = sum_i (2*rank_i - n - 1) * cents_i
    over values sorted within the group (tie-order-invariant — tied
    values occupy a fixed rank block, and the block's coefficient sum
    does not depend on intra-tie order), den = n * sum(cents).

    Scale shape: a rank statistic normally forces a global per-group
    sort; instead ONE bucketed (group, value)-histogram reduce
    (exchange bounded by distinct values, not rows) feeds a
    driver-side closed form over rank BLOCKS: a run of c copies of
    value v occupying ranks (R, R+c] contributes v*c*(2R + c - n) —
    the full ranking is never materialized."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def prep(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "pri": batch["o_orderpriority"].to_pandas(),
                "cents": _cents(
                    batch["o_totalprice"].to_numpy(zero_copy_only=False)
                ),
                "n": 1,
            }
        )
        return df.groupby(["pri", "cents"], as_index=False)["n"].sum()

    hist = (
        bucketed_sum(
            ds.map_batches(prep, batch_format="pyarrow", batch_size=65536),
            ["pri", "cents"],
            ["n"],
        )
        .to_pandas()
        .sort_values(["pri", "cents"])
    )
    out = []
    for pri, g in hist.groupby("pri", sort=True):
        v = g["cents"].to_numpy(np.int64)
        c = g["n"].to_numpy(np.int64)
        n = int(c.sum())
        run_start = np.concatenate(([0], np.cumsum(c)[:-1]))
        num = int(np.sum(v * c * (2 * run_start + c - n)))
        den = n * int(np.sum(v * c))
        out.append((pri, num, den))
    return pd.DataFrame(
        out, columns=["o_orderpriority", "gini_num", "gini_den"]
    ).astype({"gini_num": "int64", "gini_den": "int64"})


N11_SQL = """
WITH t AS (
  SELECT o_orderpriority AS pri,
         CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS c
  FROM orders),
r AS (
  SELECT pri, c,
         ROW_NUMBER() OVER (PARTITION BY pri ORDER BY c) AS rk,
         COUNT(*) OVER (PARTITION BY pri) AS n,
         SUM(c) OVER (PARTITION BY pri) AS s
  FROM t)
SELECT pri AS o_orderpriority,
       CAST(SUM((2 * rk - n - 1) * c) AS BIGINT) AS gini_num,
       CAST(MAX(n * s) AS BIGINT) AS gini_den
FROM r GROUP BY pri
"""


def i08_snapshot_series(sf_dir: str):
    """Multi-snapshot time travel in ONE corpus pass: cumulative event
    count, cumulative value, and distinct-users-seen at K fixed
    snapshot instants (i06 reconstructs one snapshot; a backfill/audit
    wants the whole trajectory, and re-scanning per snapshot is K
    passes).

    Scale shape: each batch emits K-row partials (one boolean mask per
    snapshot, vectorized) so the additive metrics reduce driver-side
    over K x n_batches tiny rows; the non-additive distinct-user curve
    rides a per-user FIRST-SEEN bucket reduce (exchange bounded by
    user cardinality) followed by one searchsorted against the K
    instants — the corpus is read exactly once."""
    from .stages.agg import _key_hash

    snaps_us = np.array(
        [
            pd.Timestamp(f"2024-01-{d:02d} 00:00:00").value // 1000
            for d in (5, 10, 15, 20, 25)
        ],
        dtype=np.int64,
    )
    ds = _read(sf_dir, "events", ["ts", "user_id", "value"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        us = (
            batch["ts"].combine_chunks().cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy()
        )
        cents = _cents(batch["value"].to_numpy(zero_copy_only=False))
        order = np.argsort(us, kind="stable")
        us_s, cents_s = us[order], cents[order]
        cum = np.concatenate(([0], np.cumsum(cents_s)))
        pos = np.searchsorted(us_s, snaps_us, side="right")
        return pd.DataFrame(
            {
                "snap_us": snaps_us,
                "n_events": pos.astype(np.int64),
                "cents": cum[pos],
            }
        )

    adds = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .to_pandas()
        .groupby("snap_us", as_index=False)[["n_events", "cents"]]
        .sum()
    )

    def first_seen_partial(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "user_id": batch["user_id"].to_numpy(zero_copy_only=False),
                "first_us": batch["ts"]
                .combine_chunks()
                .cast(pa.timestamp("us"))
                .cast(pa.int64())
                .to_numpy(),
            }
        )
        g = df.groupby("user_id", as_index=False)["first_us"].min()
        g["bucket"] = (_key_hash(g, ["user_id"]) % 64).astype("int32")
        return g

    def first_seen_final(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("user_id", as_index=False)["first_us"].min()

    fs = (
        ds.map_batches(first_seen_partial, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(first_seen_final, batch_format="pandas")
        .to_pandas()
    )
    fs_sorted = np.sort(fs["first_us"].to_numpy(np.int64))
    n_users = np.searchsorted(fs_sorted, snaps_us, side="right")

    adds = adds.sort_values("snap_us").reset_index(drop=True)
    return pd.DataFrame(
        {
            "snap_ts": adds["snap_us"].astype("datetime64[us]"),
            "n_events": adds["n_events"].astype("int64"),
            "n_users": pd.Series(n_users, dtype="int64"),
            "cents": adds["cents"].astype("int64"),
        }
    )


I08_SQL = """
WITH s AS (
  SELECT unnest(generate_series(TIMESTAMP '2024-01-05 00:00:00',
                                TIMESTAMP '2024-01-25 00:00:00',
                                INTERVAL 5 DAY)) AS snap)
SELECT s.snap AS snap_ts,
       CAST(COUNT(e.event_id) AS BIGINT) AS n_events,
       CAST(COUNT(DISTINCT e.user_id) AS BIGINT) AS n_users,
       CAST(COALESCE(SUM(CAST(FLOOR(e.value * 100 + 0.5) AS BIGINT)), 0)
            AS BIGINT) AS cents
FROM s LEFT JOIN events e ON e.ts <= s.snap
GROUP BY 1
"""


def x11_regex_search(sf_dir: str, pattern: str = "hash [a-z]+ join"):
    """Distributed regex scan with LITERAL prefiltering (the trigram
    trick behind code-search engines — Cox, "Regular Expression
    Matching with a Trigram Index", 2012): the pattern's required
    literal tokens prune with a vectorized substring test so the
    (inherently sequential) regex engine only ever touches candidate
    rows; per-doc leftmost non-overlapping match counts.

    Scale shape: the prefilter is pc.match_substring per required
    literal — zero-copy Arrow over every block; regex verification is
    bounded by candidate count, not corpus size (on a standing corpus
    the same literals probe the x01/x04 inverted index instead of
    scanning).  RE2 (DuckDB) and Python `re` agree on this
    char-class/literal subset and both count leftmost non-overlapping
    matches."""
    import re

    literals = [t for t in pattern.split(" ") if re.escape(t) == t]
    rx = re.compile(pattern)

    def scan(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        mask = None
        for lit in literals:
            m = pc.match_substring(text, lit)
            mask = m if mask is None else pc.and_(mask, m)
        keep = mask.to_numpy(zero_copy_only=False)
        idx = np.flatnonzero(keep)
        if len(idx) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_matches": pa.array([], pa.int64()),
                }
            )
        cand = text.combine_chunks().take(pa.array(idx))
        counts = np.fromiter(
            (len(rx.findall(s)) for s in cand.to_pylist()),
            dtype=np.int64,
            count=len(idx),
        )
        hit = counts > 0
        return pa.table(
            {
                "doc_id": batch["doc_id"]
                .combine_chunks()
                .take(pa.array(idx[hit])),
                "n_matches": pa.array(counts[hit], pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(scan, batch_format="pyarrow")


X11_SQL = r"""
SELECT doc_id,
       CAST(len(regexp_extract_all(text, 'hash [a-z]+ join')) AS BIGINT)
         AS n_matches
FROM documents
WHERE regexp_matches(text, 'hash [a-z]+ join')
"""


def w22_attribution(sf_dir: str, window_days: int = 7):
    """First-touch marketing attribution: each purchase is credited to
    the SAME user's most recent preceding click within a 7-day window
    (tie-break: latest ts, then highest event_id) — the per-entity
    AS-OF lookup j01 does for market data, here in its many-rows-per-
    key event-stream form with a lower window bound.

    Scale shape: both roles prefilter inside the scan (only clicks and
    purchases survive), then ride ONE user-hash bucket shuffle; inside
    a bucket the attribution is a single vectorized pass — sort by
    (user, ts, role, id), running maximum.accumulate of click
    positions, and a user-identity check instead of per-user
    segmentation (a stale carry from the previous user fails the
    identity test exactly when no click precedes).  No per-user Python
    loop, no row explosion."""
    from .stages.agg import _key_hash

    window_us = window_days * 86_400_000_000
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type", "event_id"])

    def prep(batch: pa.Table) -> pd.DataFrame:
        keep = pc.is_in(
            batch["event_type"], value_set=pa.array(["click", "purchase"])
        )
        t = batch.filter(keep)
        df = pd.DataFrame(
            {
                "user_id": t["user_id"].to_numpy(zero_copy_only=False),
                "ts_us": t["ts"]
                .combine_chunks()
                .cast(pa.timestamp("us"))
                .cast(pa.int64())
                .to_numpy(),
                "event_id": t["event_id"].to_numpy(zero_copy_only=False),
                "is_p": pc.equal(t["event_type"], "purchase")
                .to_numpy(zero_copy_only=False)
                .astype(np.int8),
            }
        )
        df["bucket"] = (_key_hash(df, ["user_id"]) % 64).astype("int32")
        return df

    def attribute(g: pd.DataFrame) -> pd.DataFrame:
        cols = {
            "purchase_id": pd.Series([], dtype="int64"),
            "click_id": pd.Series([], dtype="int64"),
            "lag_us": pd.Series([], dtype="int64"),
        }
        if g.empty:
            return pd.DataFrame(cols)
        g = g.sort_values(
            ["user_id", "ts_us", "is_p", "event_id"], kind="mergesort"
        )
        user = g["user_id"].to_numpy(np.int64)
        ts = g["ts_us"].to_numpy(np.int64)
        eid = g["event_id"].to_numpy(np.int64)
        is_p = g["is_p"].to_numpy(np.int8)
        idx = np.arange(len(g), dtype=np.int64)
        carry = np.maximum.accumulate(np.where(is_p == 0, idx, -1))
        ok = (
            (is_p == 1)
            & (carry >= 0)
            & (user[np.maximum(carry, 0)] == user)
            & (ts - ts[np.maximum(carry, 0)] < window_us)
        )
        c = carry[ok]
        return pd.DataFrame(
            {
                "purchase_id": eid[ok],
                "click_id": eid[c],
                "lag_us": ts[ok] - ts[c],
            }
        )

    out = (
        ds.map_batches(prep, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(attribute, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("purchase_id").reset_index(drop=True).astype(
        {"purchase_id": "int64", "click_id": "int64", "lag_us": "int64"}
    )


W22_SQL = """
WITH p AS (
  SELECT user_id, event_id, ts FROM events WHERE event_type = 'purchase'),
c AS (
  SELECT user_id, event_id, ts FROM events WHERE event_type = 'click'),
r AS (
  SELECT p.event_id AS purchase_id, c.event_id AS click_id,
         epoch_us(CAST(p.ts AS TIMESTAMP))
           - epoch_us(CAST(c.ts AS TIMESTAMP)) AS lag_us,
         ROW_NUMBER() OVER (PARTITION BY p.event_id
                            ORDER BY c.ts DESC, c.event_id DESC) AS rk
  FROM p JOIN c ON c.user_id = p.user_id
              AND c.ts <= p.ts
              AND c.ts > p.ts - INTERVAL 7 DAY)
SELECT purchase_id, click_id, CAST(lag_us AS BIGINT) AS lag_us
FROM r WHERE rk = 1
"""


def n12_mannwhitney(sf_dir: str):
    """Two-sample Mann-Whitney rank-sum drift statistic between the
    'en' and non-'en' document-length distributions, emitted as the
    PURE INTEGER 2U (2U = 2*#{a > b} + #{a == b} over all cross
    pairs) plus tie mass — the location-shift companion to n10's KS
    (max-deviation) test, and the standard drift monitor when the
    two corpora differ in median rather than shape.

    Scale shape: same discipline as n10 — one value-histogram reduce
    (exchange bounded by DISTINCT lengths, never rows), then a
    closed-form cumulative pass over the tiny histogram:
    2U = sum_v 2*ca(v)*cb_less(v) + ca(v)*cb(v)."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])

    def prep(batch: pa.Table) -> pd.DataFrame:
        en = pc.equal(batch["lang"], "en").to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                "v": batch["n_chars"].to_numpy(zero_copy_only=False),
                "a": en.astype(np.int64),
                "b": (~en).astype(np.int64),
            }
        )
        return df.groupby("v", as_index=False)[["a", "b"]].sum()

    h = (
        bucketed_sum(
            ds.map_batches(prep, batch_format="pyarrow", batch_size=65536),
            ["v"],
            ["a", "b"],
        )
        .to_pandas()
        .sort_values("v")
    )
    a = h["a"].to_numpy(np.int64)
    b = h["b"].to_numpy(np.int64)
    cb_less = np.concatenate(([0], np.cumsum(b)[:-1]))
    return pd.DataFrame(
        {
            "two_u": pd.Series([int(np.sum(2 * a * cb_less + a * b))], dtype="int64"),
            "n_a": pd.Series([int(a.sum())], dtype="int64"),
            "n_b": pd.Series([int(b.sum())], dtype="int64"),
            "tie_pairs": pd.Series([int(np.sum(a * b))], dtype="int64"),
        }
    )


N12_SQL = """
WITH h AS (
  SELECT n_chars AS v,
         CAST(COUNT(*) FILTER (WHERE lang = 'en') AS BIGINT) AS a,
         CAST(COUNT(*) FILTER (WHERE lang <> 'en') AS BIGINT) AS b
  FROM documents GROUP BY n_chars),
c AS (
  SELECT a, b,
         COALESCE(SUM(b) OVER (ORDER BY v
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cb_less
  FROM h)
SELECT CAST(SUM(2 * a * cb_less + a * b) AS BIGINT) AS two_u,
       CAST(SUM(a) AS BIGINT) AS n_a,
       CAST(SUM(b) AS BIGINT) AS n_b,
       CAST(SUM(a * b) AS BIGINT) AS tie_pairs
FROM c
"""


def s12_compaction_plan(sf_dir: str, target_rows: int = 250):
    """Small-partition compaction planner: assign each hourly partition
    to an output file so files hold ~``target_rows`` rows, with the
    deterministic FIXED-BOUNDARY rule bin = cum_rows_before //
    target (every partition lands whole in one bin; bins absorb the
    overshoot) — the maintenance pass that keeps a streaming sink's
    thousands of tiny files from drowning the name-node/footer reads
    (the s11 planning cost).

    Scale shape: ONE hour-bounded bucketed count (never row-shaped),
    then a cumulative pass over the calendar-sized histogram on the
    driver; the plan output is file-count-sized."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "events", ["ts"])
    hour_us = 3_600_000_000

    def prep(batch: pa.Table) -> pd.DataFrame:
        us = (
            batch["ts"].combine_chunks().cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy()
        )
        df = pd.DataFrame({"hour_us": (us // hour_us) * hour_us, "n": 1})
        return df.groupby("hour_us", as_index=False)["n"].sum()

    h = (
        bucketed_sum(
            ds.map_batches(prep, batch_format="pyarrow", batch_size=65536),
            ["hour_us"],
            ["n"],
        )
        .to_pandas()
        .sort_values("hour_us")
    )
    n = h["n"].to_numpy(np.int64)
    hu = h["hour_us"].to_numpy(np.int64)
    cum_before = np.concatenate(([0], np.cumsum(n)[:-1]))
    bin_id = cum_before // target_rows
    out = pd.DataFrame(
        {"bin_id": bin_id, "n": n, "hour_us": hu}
    ).groupby("bin_id", as_index=False).agg(
        n_parts=("n", "size"),
        n_rows=("n", "sum"),
        first_us=("hour_us", "min"),
        last_us=("hour_us", "max"),
    )
    return pd.DataFrame(
        {
            "bin_id": out["bin_id"].astype("int64"),
            "n_parts": out["n_parts"].astype("int64"),
            "n_rows": out["n_rows"].astype("int64"),
            "first_hour": out["first_us"].astype("datetime64[us]"),
            "last_hour": out["last_us"].astype("datetime64[us]"),
        }
    )


S12_SQL = """
WITH h AS (
  SELECT date_trunc('hour', ts) AS hr, CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1),
c AS (
  SELECT hr, n,
         COALESCE(SUM(n) OVER (ORDER BY hr
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cb
  FROM h)
SELECT CAST(cb // 250 AS BIGINT) AS bin_id,
       CAST(COUNT(*) AS BIGINT) AS n_parts,
       CAST(SUM(n) AS BIGINT) AS n_rows,
       MIN(hr) AS first_hour,
       MAX(hr) AS last_hour
FROM c GROUP BY 1
"""


def a12_prefix_rerank(sf_dir: str, prefix_dims: int = 8, c_pool: int = 50,
                      k: int = 5):
    """Two-stage retrieval with PREFIX pruning (the Matryoshka /
    coarse-to-fine pattern): stage 1 scores every vector by the dot
    product of only its FIRST 8 dimensions (an 8x cheaper scan that at
    100 TB also reads 8x fewer bytes if embeddings are stored
    dimension-sliced), keeps a top-C pool per query; stage 2 reranks
    only the pool with the full-dimension exact cosine.

    Scale shape: stage 1 is the a03 broadcast-scan shape with a
    per-batch local top-C pool (driver merge is pool-sized, not
    corpus-sized); stage 2 touches C*queries vectors — driver math.
    The pool rows CARRY their full vectors so stage 2 needs no second
    corpus read.  Ties at both stages break by vec_id ascending."""
    import ray

    from .stages.ann import _as_matrix

    q = _query_vectors(sf_dir).astype(np.float64)
    q_ref = ray.put(q)

    def local_pool(batch: pa.Table) -> pd.DataFrame:
        qm = ray.get(q_ref)
        mat = _as_matrix(batch["embedding"])
        ids = np.asarray(batch["vec_id"])
        sims = mat[:, :prefix_dims] @ qm[:, :prefix_dims].T
        frames = []
        for qi in range(qm.shape[0]):
            order = np.lexsort((ids, -sims[:, qi]))[:c_pool]
            frames.append(
                pd.DataFrame(
                    {
                        "query_id": np.int64(qi),
                        "vec_id": ids[order],
                        "ps": sims[order, qi],
                        "vec": list(mat[order]),
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    pool = (
        _read(sf_dir, "embeddings", ["vec_id", "embedding"])
        .map_batches(local_pool, batch_format="pyarrow", batch_size=8192)
        .to_pandas()
    )
    out = []
    for qi in range(q.shape[0]):
        g = pool[pool["query_id"] == qi]
        gg = g.sort_values(["ps", "vec_id"], ascending=[False, True],
                           kind="mergesort").head(c_pool)
        mat = np.stack(gg["vec"].to_numpy())
        norms = np.maximum(np.linalg.norm(mat, axis=1), 1e-12)
        qn = q[qi] / np.maximum(np.linalg.norm(q[qi]), 1e-12)
        cos = (mat / norms[:, None]) @ qn
        ids = gg["vec_id"].to_numpy(np.int64)
        order = np.lexsort((ids, -cos))[:k]
        out.append(pd.DataFrame({"query_id": np.int64(qi), "vec_id": ids[order]}))
    res = pd.concat(out, ignore_index=True)
    return res.astype({"query_id": "int64", "vec_id": "int64"})


A12_SQL = """
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qvec
  FROM embeddings WHERE vec_id IN (0, 1, 2)),
s1 AS (
  SELECT q.query_id, e.vec_id, e.embedding, q.qvec,
         ROW_NUMBER() OVER (
           PARTITION BY q.query_id
           ORDER BY list_dot_product(e.embedding[1:8], q.qvec[1:8]) DESC,
                    e.vec_id) AS rn
  FROM embeddings e CROSS JOIN q),
s2 AS (
  SELECT query_id, vec_id,
         ROW_NUMBER() OVER (
           PARTITION BY query_id
           ORDER BY list_cosine_similarity(embedding, qvec) DESC,
                    vec_id) AS rn2
  FROM s1 WHERE rn <= 50)
SELECT CAST(query_id AS BIGINT) AS query_id, vec_id
FROM s2 WHERE rn2 <= 5
"""


def e08_entity_gap_stats(sf_dir: str, n_buckets: int = 64):
    """Entity PERSISTENCE profile over the derived transcripts: for
    each dictionary entity, the count / sum / max of turn-index gaps
    between its consecutive mentions within a conversation — the
    "how long does an entity stay out of the discourse" signal that
    sizes coreference windows (the reference resolves anaphora only
    against the PREVIOUS turn, SURVEY M9; this measures how much a
    wider window would buy).

    Scale shape: hits (conv, turn, entity-code) come from the
    vectorized `_entity_presence` kernel; gaps need a conversation's
    hits co-located, so they ride ONE conv-hash bucket shuffle
    (exchange bounded by hit volume); per bucket the gap pass is a
    sort + boundary-masked diff, and only 7-entity partials
    (n/sum/max — all associative) reach the driver."""
    from naer_ray.hashing import _fnv64_arr

    ents_sorted = np.array(sorted(KG_ENTITIES))
    ds = _derive_transcripts(sf_dir)

    def hits(batch: pa.Table) -> pd.DataFrame:
        r, c = _entity_presence(batch["text"], ents_sorted)
        conv = batch["conv_id"].combine_chunks().take(pa.array(r))
        b = (_fnv64_arr(conv) % np.uint64(n_buckets)).astype(np.int32)
        return pd.DataFrame(
            {
                "conv_id": conv.to_pandas(),
                "turn_idx": batch["turn_idx"]
                .combine_chunks()
                .take(pa.array(r))
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "code": c,
                "bucket": b,
            }
        )

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        cols = {
            "code": pd.Series([], dtype="int64"),
            "n_gaps": pd.Series([], dtype="int64"),
            "sum_gap": pd.Series([], dtype="int64"),
            "max_gap": pd.Series([], dtype="int64"),
        }
        if g.empty:
            return pd.DataFrame(cols)
        g = g.sort_values(["code", "conv_id", "turn_idx"], kind="mergesort")
        code = g["code"].to_numpy(np.int64)
        conv = g["conv_id"].to_numpy(object)
        turn = g["turn_idx"].to_numpy(np.int64)
        same = np.zeros(len(g), bool)
        if len(g) > 1:
            same[1:] = (code[1:] == code[:-1]) & (conv[1:] == conv[:-1])
        gap = np.zeros(len(g), np.int64)
        gap[1:] = turn[1:] - turn[:-1]
        df = pd.DataFrame({"code": code, "gap": gap, "is_gap": same})
        agg = df.groupby("code", as_index=False).agg(
            n_gaps=("is_gap", "sum"),
            sum_gap=("gap", lambda s: int(s[df.loc[s.index, "is_gap"]].sum())),
            max_gap=("gap", lambda s: int(s[df.loc[s.index, "is_gap"]].max())
                     if df.loc[s.index, "is_gap"].any() else 0),
        )
        return agg.astype(
            {"code": "int64", "n_gaps": "int64", "sum_gap": "int64",
             "max_gap": "int64"}
        )

    parts = (
        ds.map_batches(hits, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(gaps, batch_format="pandas")
        .to_pandas()
    )
    agg = parts.groupby("code", as_index=False).agg(
        n_gaps=("n_gaps", "sum"), sum_gap=("sum_gap", "sum"),
        max_gap=("max_gap", "max"),
    )
    agg["entity"] = ents_sorted[agg["code"].to_numpy(np.int64)]
    return agg[["entity", "n_gaps", "sum_gap", "max_gap"]].astype(
        {"n_gaps": "int64", "sum_gap": "int64", "max_gap": "int64"}
    ).sort_values("entity").reset_index(drop=True)


E08_SQL = f"""
WITH t AS ({_DERIVE_SQL}),
h AS (
  SELECT DISTINCT conv_id, turn_idx, e FROM (
    SELECT conv_id, turn_idx, unnest(string_split(text, ' ')) AS e
    FROM t)
  WHERE e IN ({", ".join(f"'{e}'" for e in KG_ENTITIES)})),
g AS (
  SELECT e, turn_idx - LAG(turn_idx) OVER (
           PARTITION BY e, conv_id ORDER BY turn_idx) AS gap
  FROM h)
SELECT e AS entity,
       CAST(COUNT(gap) AS BIGINT) AS n_gaps,
       CAST(COALESCE(SUM(gap), 0) AS BIGINT) AS sum_gap,
       CAST(COALESCE(MAX(gap), 0) AS BIGINT) AS max_gap
FROM g GROUP BY e
"""


def q40_segment_activity(sf_dir: str, n_buckets: int = 64):
    """Per-segment customer activity with the AVG-of-COUNT trap done
    right: customers with ZERO orders still count in the denominator
    (a fact-side GROUP BY silently drops them — the classic nested-
    aggregate bug); emits n_customers / n_active / n_orders / cents
    so every per-customer mean is one division downstream.

    Scale shape: fact side pre-aggregates to per-customer partials
    (bucketed custkey reduce), dim side carries (custkey, segment);
    BOTH sides hash on custkey into the same buckets — a co-partition
    join with no broadcast assumption (the dim is customer-sized,
    too big to ship whole at 100 TB) — and only segment-sized
    partials leave each bucket."""
    from .stages.agg import _key_hash, bucketed_sum

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def oprep(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "custkey": batch["o_custkey"].to_numpy(zero_copy_only=False),
                "cents": _cents(
                    batch["o_totalprice"].to_numpy(zero_copy_only=False)
                ),
                "n": 1,
            }
        )
        return df.groupby("custkey", as_index=False)[["cents", "n"]].sum()

    per_cust = bucketed_sum(
        orders.map_batches(oprep, batch_format="pyarrow", batch_size=65536),
        ["custkey"],
        ["cents", "n"],
        n_buckets=n_buckets,
    ).map_batches(
        lambda b: b.assign(
            side=np.int8(1),
            segment="",
            bucket=(_key_hash(b, ["custkey"]) % n_buckets).astype("int32"),
        ),
        batch_format="pandas",
        batch_size=65536,
    )

    dim = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "custkey": b["c_custkey"].to_numpy(zero_copy_only=False),
                "cents": np.int64(0),
                "n": np.int64(0),
                "side": np.int8(0),
                "segment": b["c_mktsegment"].to_pandas(),
            }
        ).assign(
            bucket=lambda d: (_key_hash(d, ["custkey"]) % n_buckets).astype(
                "int32"
            )
        ),
        batch_format="pyarrow",
        batch_size=65536,
    )

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cols = {
            "segment": pd.Series([], dtype=object),
            "n_customers": pd.Series([], dtype="int64"),
            "n_active": pd.Series([], dtype="int64"),
            "n_orders": pd.Series([], dtype="int64"),
            "cents": pd.Series([], dtype="int64"),
        }
        if g.empty:
            return pd.DataFrame(cols)
        d = g[g["side"] == 0][["custkey", "segment"]]
        f = g[g["side"] == 1].groupby("custkey", as_index=False)[
            ["cents", "n"]
        ].sum()
        m = d.merge(f, on="custkey", how="left")
        m["cents"] = m["cents"].fillna(0).astype(np.int64)
        m["n"] = m["n"].fillna(0).astype(np.int64)
        out = m.groupby("segment", as_index=False).agg(
            n_customers=("custkey", "size"),
            n_active=("n", lambda s: int((s > 0).sum())),
            n_orders=("n", "sum"),
            cents=("cents", "sum"),
        )
        return out.astype(
            {"n_customers": "int64", "n_active": "int64",
             "n_orders": "int64", "cents": "int64"}
        )

    parts = (
        dim.union(per_cust)
        .groupby("bucket")
        .map_groups(join_bucket, batch_format="pandas")
        .to_pandas()
    )
    out = parts.groupby("segment", as_index=False)[
        ["n_customers", "n_active", "n_orders", "cents"]
    ].sum()
    return out.astype(
        {"n_customers": "int64", "n_active": "int64",
         "n_orders": "int64", "cents": "int64"}
    )


Q40_SQL = """
WITH o AS (
  SELECT o_custkey, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT))
              AS BIGINT) AS cents
  FROM orders GROUP BY 1)
SELECT c.c_mktsegment AS segment,
       CAST(COUNT(*) AS BIGINT) AS n_customers,
       CAST(COUNT(o.n) AS BIGINT) AS n_active,
       CAST(COALESCE(SUM(o.n), 0) AS BIGINT) AS n_orders,
       CAST(COALESCE(SUM(o.cents), 0) AS BIGINT) AS cents
FROM customer c LEFT JOIN o ON o.o_custkey = c.c_custkey
GROUP BY 1
"""


def n13_lag1_autocov(sf_dir: str):
    """Lag-1 autocovariance of the GAP-FILLED hourly event-count
    series as pure integers (n_pairs, sum of adjacent products, the
    two marginal sums — covariance = (n*sum_prod - sum_x0*sum_x1)/n²
    by one division downstream): the seasonality/burstiness signal a
    scheduler reads before picking a compaction cadence.  Composes
    w21's densification — WITHOUT the zero fill the statistic is
    silently wrong because missing hours vanish instead of
    contributing zeros.

    Scale shape: identical to w21 (hour-bounded count reduce), then a
    closed-form shifted-product pass over the calendar-sized dense
    vector on the driver."""
    s = w21_gap_filled_series(sf_dir)
    x = s["n_events"].to_numpy(np.int64)
    x0, x1 = x[:-1], x[1:]
    return pd.DataFrame(
        {
            "n_pairs": pd.Series([len(x0)], dtype="int64"),
            "sum_prod": pd.Series([int(np.sum(x0 * x1))], dtype="int64"),
            "sum_x0": pd.Series([int(x0.sum())], dtype="int64"),
            "sum_x1": pd.Series([int(x1.sum())], dtype="int64"),
        }
    )


N13_SQL = """
WITH b AS (
  SELECT date_trunc('hour', ts) AS h, CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1),
g AS (
  SELECT unnest(generate_series((SELECT MIN(h) FROM b),
                                (SELECT MAX(h) FROM b),
                                INTERVAL 1 HOUR)) AS hour_start),
d AS (
  SELECT g.hour_start, COALESCE(b.n, CAST(0 AS BIGINT)) AS x
  FROM g LEFT JOIN b ON b.h = g.hour_start),
l AS (
  SELECT x, LEAD(x) OVER (ORDER BY hour_start) AS y FROM d)
SELECT CAST(COUNT(y) AS BIGINT) AS n_pairs,
       CAST(COALESCE(SUM(x * y), 0) AS BIGINT) AS sum_prod,
       CAST(COALESCE(SUM(CASE WHEN y IS NOT NULL THEN x END), 0)
            AS BIGINT) AS sum_x0,
       CAST(COALESCE(SUM(y), 0) AS BIGINT) AS sum_x1
FROM l
"""


def i09_deletion_vectors(sf_dir: str):
    """Merge-on-read with DELETION VECTORS (the Delta/Iceberg v2 read
    path): 'error' events are tombstones that retract the write with
    event_id one below their own; the scan must drop both the
    tombstoned rows and the tombstone markers WITHOUT rewriting any
    file, then aggregate the surviving rows per type.

    Scale shape: phase 1 collects only the tombstone ids (DV side —
    error-count-sized, the premise of deletion vectors is that this
    is tiny relative to data) and broadcasts them SORTED via ray.put;
    phase 2 is one full scan applying a vectorized searchsorted
    membership test per batch — no shuffle, no join, no rewrite."""
    import ray

    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def collect_dv(batch: pa.Table) -> pd.DataFrame:
        t = batch.filter(pc.equal(batch["event_type"], "error"))
        return pd.DataFrame(
            {
                "del_id": t["event_id"].to_numpy(zero_copy_only=False) - 1
            }
        )

    dv = np.sort(
        ds.map_batches(collect_dv, batch_format="pyarrow", batch_size=65536)
        .to_pandas()["del_id"]
        .to_numpy(np.int64)
    )
    dv_ref = ray.put(dv)

    def scan(batch: pa.Table) -> pd.DataFrame:
        d = ray.get(dv_ref)
        live = batch.filter(
            pc.invert(pc.equal(batch["event_type"], "error"))
        )
        ids = live["event_id"].to_numpy(zero_copy_only=False)
        if len(d):
            pos = np.searchsorted(d, ids)
            keep = ~((pos < len(d)) & (d[np.minimum(pos, len(d) - 1)] == ids))
        else:
            keep = np.ones(len(ids), bool)
        df = pd.DataFrame(
            {
                "event_type": live["event_type"].to_pandas()[keep],
                "cents": _cents(
                    live["value"].to_numpy(zero_copy_only=False)
                )[keep],
                "n": 1,
            }
        )
        return df.groupby("event_type", as_index=False)[["cents", "n"]].sum()

    out = (
        bucketed_sum(
            ds.map_batches(scan, batch_format="pyarrow", batch_size=65536),
            ["event_type"],
            ["cents", "n"],
        )
        .to_pandas()
        .astype({"cents": "int64", "n": "int64"})
    )
    return out.sort_values("event_type").reset_index(drop=True)


I09_SQL = """
WITH dv AS (
  SELECT event_id - 1 AS del_id FROM events WHERE event_type = 'error')
SELECT event_type,
       CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS cents,
       CAST(COUNT(*) AS BIGINT) AS n
FROM events
WHERE event_type <> 'error'
  AND event_id NOT IN (SELECT del_id FROM dv)
GROUP BY 1
"""


def g12_assortativity(sf_dir: str):
    """Degree-assortativity sufficient statistics of the co-purchase
    graph as pure INTEGERS — m (edges), s1 = Σ(du+dv), s2 = Σ(du²+dv²),
    sp = Σ du·dv over edges — Newman's r = (4m·sp − s1²)/(2m·s2 − s1²)
    by one division downstream: do hubs attach to hubs (assortative)
    or to leaves (disassortative)?  The answer decides whether g08's
    k-core peel or hub-salting is the right skew defence.

    Scale shape: edges materialize ONCE and feed both passes; degrees
    ride the g10 node-keyed histogram reduce and come back node-sized
    to the driver (the g01 broadcast gate — the documented
    co-partition alternative applies verbatim when nodes outgrow a
    worker); the edge pass attaches degrees by one searchsorted per
    batch and emits 4-integer partials."""
    import ray

    from .stages.agg import bucketed_sum

    edges = _copurchase_edges(sf_dir).materialize()

    def endpoints(batch: pd.DataFrame) -> pd.DataFrame:
        ids = np.concatenate(
            [batch["u"].to_numpy(np.int64), batch["v"].to_numpy(np.int64)]
        )
        uniq, cnt = np.unique(ids, return_counts=True)
        return pd.DataFrame({"id": uniq, "degree": cnt.astype(np.int64)})

    deg = (
        bucketed_sum(
            edges.map_batches(endpoints, batch_format="pandas"),
            ["id"],
            ["degree"],
        )
        .to_pandas()
        .sort_values("id")
    )
    ids_ref = ray.put(deg["id"].to_numpy(np.int64))
    deg_ref = ray.put(deg["degree"].to_numpy(np.int64))

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        ids = ray.get(ids_ref)
        d = ray.get(deg_ref)
        du = d[np.searchsorted(ids, batch["u"].to_numpy(np.int64))]
        dv = d[np.searchsorted(ids, batch["v"].to_numpy(np.int64))]
        return pd.DataFrame(
            {
                "m": [np.int64(len(batch))],
                "s1": [int((du + dv).sum())],
                "s2": [int((du * du + dv * dv).sum())],
                "sp": [int((du * dv).sum())],
            }
        )

    parts = edges.map_batches(partial, batch_format="pandas").to_pandas()
    return pd.DataFrame([parts.sum()]).astype("int64")[["m", "s1", "s2", "sp"]]


G12_SQL = """
WITH li AS (
  SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
  WHERE l_partkey % 7 = 0),
e0 AS (
  SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
  FROM li a JOIN li b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
d AS (
  SELECT id, CAST(COUNT(*) AS BIGINT) AS degree
  FROM (SELECT u AS id FROM e0 UNION ALL SELECT v FROM e0)
  GROUP BY id)
SELECT CAST(COUNT(*) AS BIGINT) AS m,
       CAST(SUM(da.degree + db.degree) AS BIGINT) AS s1,
       CAST(SUM(da.degree * da.degree + db.degree * db.degree)
            AS BIGINT) AS s2,
       CAST(SUM(da.degree * db.degree) AS BIGINT) AS sp
FROM e0 JOIN d da ON da.id = e0.u JOIN d db ON db.id = e0.v
"""


def _ntile(order: np.ndarray, n_tiles: int) -> np.ndarray:
    """SQL NTILE: positions ``order`` (0-based ranks) -> 1-based tile,
    first (n % t) tiles get the extra row."""
    n = len(order)
    small = n // n_tiles
    big = n % n_tiles
    cut = big * (small + 1)
    tile = np.where(
        order < cut,
        order // (small + 1),
        big + (order - cut) // max(small, 1),
    )
    return (tile + 1).astype(np.int64)


def w23_rfm(sf_dir: str):
    """RFM customer scoring: each user's Recency (latest event),
    Frequency (event count) and Monetary (integer value cents) mapped
    to NTILE(5) quintile codes with the deterministic (metric,
    user_id) tie-break — the segmentation table every lifecycle-
    marketing pipeline maintains.

    Scale shape: per-user sufficient stats (max/count/sum — all
    associative) ride ONE user-hash bucket reduce; the quintile
    assignment is three argsorts over the USER-sized table on the
    driver (users are the bounded dimension; at true scale the same
    ranks come from a distributed sort + per-block offsets, the s05
    machinery)."""
    from .stages.agg import _key_hash

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def prep(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "user_id": batch["user_id"].to_numpy(zero_copy_only=False),
                "us": batch["ts"]
                .combine_chunks()
                .cast(pa.timestamp("us"))
                .cast(pa.int64())
                .to_numpy(),
                "cents": _cents(batch["value"].to_numpy(zero_copy_only=False)),
                "n": 1,
            }
        )
        g = df.groupby("user_id", as_index=False).agg(
            r=("us", "max"), f=("n", "sum"), m=("cents", "sum")
        )
        g["bucket"] = (_key_hash(g, ["user_id"]) % 64).astype("int32")
        return g

    def final(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "r": pd.Series([], dtype="int64"),
                    "f": pd.Series([], dtype="int64"),
                    "m": pd.Series([], dtype="int64"),
                }
            )
        return g.groupby("user_id", as_index=False).agg(
            r=("r", "max"), f=("f", "sum"), m=("m", "sum")
        )

    users = (
        ds.map_batches(prep, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(final, batch_format="pandas")
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    uid = users["user_id"].to_numpy(np.int64)
    out = {"user_id": uid}
    for col, name in (("r", "r_score"), ("f", "f_score"), ("m", "m_score")):
        v = users[col].to_numpy(np.int64)
        order = np.empty(len(v), np.int64)
        order[np.lexsort((uid, v))] = np.arange(len(v))
        out[name] = _ntile(order, 5)
    return pd.DataFrame(out).astype(
        {"user_id": "int64", "r_score": "int64", "f_score": "int64",
         "m_score": "int64"}
    )


W23_SQL = """
WITH u AS (
  SELECT user_id,
         MAX(epoch_us(CAST(ts AS TIMESTAMP))) AS r,
         CAST(COUNT(*) AS BIGINT) AS f,
         CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS m
  FROM events GROUP BY user_id)
SELECT user_id,
       CAST(NTILE(5) OVER (ORDER BY r, user_id) AS BIGINT) AS r_score,
       CAST(NTILE(5) OVER (ORDER BY f, user_id) AS BIGINT) AS f_score,
       CAST(NTILE(5) OVER (ORDER BY m, user_id) AS BIGINT) AS m_score
FROM u
"""


def n14_spearman(sf_dir: str):
    """Spearman rank correlation between document char length and token
    count as PURE INTEGERS: n plus Σ(2rx − 2ry)² where 2r is the
    doubled AVERAGE tie rank (2r(v) = 2·cum_before + c + 1 — always an
    integer) — the monotone-association monitor that Pearson (n02)
    misses when the relationship is nonlinear.

    Scale shape: ONE corpus pass emits the 2-D (x, y) histogram
    (exchange bounded by distinct value PAIRS, never rows); both
    marginal rank maps and the final weighted sum are closed-form
    passes over that histogram on the driver."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "documents", ["n_chars", "text"])

    def prep(batch: pa.Table) -> pd.DataFrame:
        y = (
            pc.count_substring(batch["text"], " ")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
            + 1
        )
        df = pd.DataFrame(
            {
                "x": batch["n_chars"].to_numpy(zero_copy_only=False),
                "y": y,
                "c": 1,
            }
        )
        return df.groupby(["x", "y"], as_index=False)["c"].sum()

    h = (
        bucketed_sum(
            ds.map_batches(prep, batch_format="pyarrow", batch_size=65536),
            ["x", "y"],
            ["c"],
        )
        .to_pandas()
    )

    def rank2_map(vals: np.ndarray, cnts: np.ndarray):
        order = np.argsort(vals, kind="mergesort")
        v, c = vals[order], cnts[order]
        cum_before = np.concatenate(([0], np.cumsum(c)[:-1]))
        return v, 2 * cum_before + c + 1

    hx = h.groupby("x", as_index=False)["c"].sum()
    hy = h.groupby("y", as_index=False)["c"].sum()
    xv, xr2 = rank2_map(hx["x"].to_numpy(np.int64), hx["c"].to_numpy(np.int64))
    yv, yr2 = rank2_map(hy["y"].to_numpy(np.int64), hy["c"].to_numpy(np.int64))
    r2x = xr2[np.searchsorted(xv, h["x"].to_numpy(np.int64))]
    r2y = yr2[np.searchsorted(yv, h["y"].to_numpy(np.int64))]
    c = h["c"].to_numpy(np.int64)
    d = r2x - r2y
    return pd.DataFrame(
        {
            "n": pd.Series([int(c.sum())], dtype="int64"),
            "sum_d2_x4": pd.Series([int(np.sum(c * d * d))], dtype="int64"),
        }
    )


N14_SQL = """
WITH t AS (
  SELECT n_chars AS x,
         CAST(len(string_split(text, ' ')) AS BIGINT) AS y
  FROM documents),
hx AS (SELECT x, CAST(COUNT(*) AS BIGINT) AS c FROM t GROUP BY x),
wx AS (
  SELECT x, 2 * COALESCE(SUM(c) OVER (ORDER BY x
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) + c + 1
         AS r2x
  FROM hx),
hy AS (SELECT y, CAST(COUNT(*) AS BIGINT) AS c FROM t GROUP BY y),
wy AS (
  SELECT y, 2 * COALESCE(SUM(c) OVER (ORDER BY y
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) + c + 1
         AS r2y
  FROM hy)
SELECT CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM((r2x - r2y) * (r2x - r2y)) AS BIGINT) AS sum_d2_x4
FROM t JOIN wx USING (x) JOIN wy USING (y)
"""


def s13_bloom_pruned_read(sf_dir: str, n_files: int = 8):
    """File-level BLOOM pruning for point lookups (the Parquet
    bloom-filter / Iceberg puffin pattern): the corpus stages as
    TIME-partitioned files — so min/max stats on the probe column are
    useless (every file spans the full custkey range, exactly where
    s10's range pruning gives up) — a tiny per-file Bloom over
    o_custkey is built IN PARALLEL (one task per file), and a point
    lookup consults the manifest to read only Bloom-positive files.
    Bloom negatives are exact, so the aggregate is bit-exact; the
    query SELF-GATES that at least one file was actually skipped.

    Probe key = the least-frequent custkey (tie: smallest) so the
    pruning is exercised hardest; derived identically in the SQL.

    Scale shape: build is one footer-sized task per file emitting a
    KB-scale bitmap; the probe reads only chosen files with the
    filter pushed into the scan."""
    import os as _os
    import shutil

    import pyarrow.parquet as _pq
    import ray.data

    from .stages.agg import bucketed_sum
    from .stages.bloom import BloomFilter

    stage = (
        "/tmp/naer_bloom_prune/"
        f"{_os.getpid()}-{_os.path.basename(sf_dir.rstrip('/'))}"
    )
    shutil.rmtree(stage, ignore_errors=True)
    _os.makedirs(stage)
    src = _pq.read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_totalprice", "o_orderdate"],
    ).sort_by("o_orderdate")
    n = src.num_rows
    for k in range(n_files):
        part = src.slice(
            k * n // n_files, (k + 1) * n // n_files - k * n // n_files
        )
        if part.num_rows:
            _pq.write_table(
                part.select(["o_custkey", "o_totalprice"]),
                f"{stage}/part-{k}.parquet",
            )
    paths = sorted(
        f"{stage}/{nm}" for nm in _os.listdir(stage)
    )

    # probe key: least-frequent custkey (tie: smallest) via a
    # custkey-bounded count reduce
    ds = _read(sf_dir, "orders", ["o_custkey"])

    def cnt(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {"k": batch["o_custkey"].to_numpy(zero_copy_only=False), "n": 1}
        )
        return df.groupby("k", as_index=False)["n"].sum()

    kc = (
        bucketed_sum(
            ds.map_batches(cnt, batch_format="pyarrow", batch_size=65536),
            ["k"],
            ["n"],
        )
        .to_pandas()
        .sort_values(["n", "k"])
    )
    probe = int(kc["k"].iloc[0])

    # per-file Bloom manifest, one task per file
    def build(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for p in batch["item"]:
            col = _pq.read_table(p, columns=["o_custkey"])["o_custkey"]
            bf = BloomFilter.sized(len(col), fpp=0.01)
            bf.add_many(col.combine_chunks())
            rows.append((p, bf.to_bytes(), bf.k))
        return pd.DataFrame(rows, columns=["path", "bits", "k"])

    manifest = (
        ray.data.from_items(paths)
        .map_batches(build, batch_format="pandas")
        .to_pandas()
    )
    chosen = [
        r.path
        for r in manifest.itertuples()
        if BloomFilter.from_bytes(r.bits, r.k).contains_many(
            np.array([probe], np.int64)
        )[0]
    ]
    if not (0 < len(chosen) < len(paths)):
        raise RuntimeError(
            f"bloom pruning ineffective: {len(chosen)}/{len(paths)} files "
            f"chosen for key {probe}"
        )

    def agg(batch: pa.Table) -> pa.Table:
        kept = batch.filter(pc.equal(batch["o_custkey"], probe))
        cents = _cents(kept["o_totalprice"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "n_orders": pa.array([kept.num_rows], pa.int64()),
                "cents": pa.array([int(cents.sum())], pa.int64()),
            }
        )

    parts = (
        ray.data.read_parquet(chosen)
        .map_batches(agg, batch_format="pyarrow")
        .to_pandas()
    )
    shutil.rmtree(stage, ignore_errors=True)
    out = pd.DataFrame([parts.sum()]).astype("int64")
    out.insert(0, "probe_key", np.int64(probe))
    return out[["probe_key", "n_orders", "cents"]]


S13_SQL = """
WITH k AS (
  SELECT o_custkey AS pk FROM orders
  GROUP BY o_custkey ORDER BY COUNT(*), o_custkey LIMIT 1)
SELECT CAST((SELECT pk FROM k) AS BIGINT) AS probe_key,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT))
            AS BIGINT) AS cents
FROM orders WHERE o_custkey = (SELECT pk FROM k)
"""


def m18_audio_zcr(sf_dir: str):
    """Zero-crossing rate + total variation from REALLY decoded WAV
    PCM (the speech/music discriminator and noisiness proxy every
    audio-curation pass computes before spending model inference):
    per clip, the count of strict sign changes between consecutive
    samples and Σ|s_{j+1} − s_j| — both pure integers re-derived by
    the oracle from the generator arithmetic, so any decode bug
    (chunk offset, endianness, word alignment) breaks the hash.

    Scale shape: stateless per-payload decode inside map_batches
    (decode_wav needs no model state, so a task pool suffices — the
    m04 actor pool exists to amortize nothing here); outputs are
    clip-sized rows, no shuffle."""
    from .stages.multimodal import decode_wav, synth_wav_payload

    def zcr(batch: pa.Table) -> pa.Table:
        ids, zcs, tvs, ns = [], [], [], []
        for mid, payload in zip(
            batch["media_id"].to_pylist(), batch["payload"].to_pylist()
        ):
            _rate, s = decode_wav(payload)
            a = s.astype(np.int64)
            zcs.append(int(np.sum(a[:-1] * a[1:] < 0)))
            tvs.append(int(np.abs(np.diff(a)).sum()))
            ns.append(len(a))
            ids.append(mid)
        return pa.table(
            {
                "media_id": pa.array(ids, pa.string()),
                "n_samples": pa.array(ns, pa.int64()),
                "n_zero_cross": pa.array(zcs, pa.int64()),
                "total_variation": pa.array(tvs, pa.int64()),
            }
        )

    return _media_rows(sf_dir, "a", synth_wav_payload).map_batches(
        zcr, batch_format="pyarrow", batch_size=64
    )


M18_SQL = """
WITH dims AS (
  SELECT doc_id, 64 + (doc_id * 89) % 193 AS n FROM documents),
s AS (
  SELECT doc_id, unnest(range(0, n)) AS j,
         ((doc_id * 31 + unnest(range(0, n)) * 57) % 2048) - 1024 AS a
  FROM dims),
l AS (
  SELECT doc_id, a,
         LEAD(a) OVER (PARTITION BY doc_id ORDER BY j) AS b
  FROM s)
SELECT printf('a%07d', doc_id) AS media_id,
       CAST(COUNT(*) AS BIGINT) AS n_samples,
       CAST(COALESCE(SUM(CASE WHEN a * b < 0 THEN 1 END), 0) AS BIGINT)
         AS n_zero_cross,
       CAST(COALESCE(SUM(ABS(b - a)), 0) AS BIGINT) AS total_variation
FROM l GROUP BY doc_id
"""


def g13_local_clustering(sf_dir: str, n_buckets: int = 64):
    """Per-node LOCAL clustering sufficient stats: triangles incident
    to each node plus its wedge capacity C(deg, 2) — the local
    coefficient (tri/wedges by one division downstream) that separates
    community cores from bridge hubs, which the global g02 count
    cannot see.

    Scale shape: g02's degree-orientation machinery (Latapy 2008) with
    the wedge CENTER carried through: rank-oriented edges bucket on
    the low endpoint, wedges emit (center, x, y), the close test is
    the same tagged pair-hash co-partition — and every CLOSED wedge
    emits +1 for each of its three corners into a node-keyed bucketed
    sum.  Exchange volumes: wedges (subquadratic after orientation)
    and 3x-triangles increments; degrees broadcast node-sized (the
    g01 gate)."""
    import ray

    from .stages.agg import bucketed_sum

    edges = _copurchase_edges(sf_dir, n_buckets)

    def node_partial(batch: pd.DataFrame) -> pd.DataFrame:
        nodes = np.concatenate(
            [batch["u"].to_numpy(np.int64), batch["v"].to_numpy(np.int64)]
        )
        n, c = np.unique(nodes, return_counts=True)
        return pd.DataFrame({"node": n, "deg": c.astype(np.int64)})

    deg_df = bucketed_sum(
        edges.map_batches(node_partial, batch_format="pandas"),
        ["node"],
        ["deg"],
    ).to_pandas()
    rank = pd.Series(
        (deg_df["deg"].astype("int64").to_numpy() << 32)
        | deg_df["node"].to_numpy(np.int64),
        index=deg_df["node"].to_numpy(),
    )
    rank_ref = ray.put(rank)

    def orient(batch: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(rank_ref)
        ru = r.loc[batch["u"].to_numpy(np.int64)].to_numpy()
        rv = r.loc[batch["v"].to_numpy(np.int64)].to_numpy()
        a = np.where(ru < rv, ru, rv)
        return pd.DataFrame(
            {
                "a": a,
                "b": np.where(ru < rv, rv, ru),
                "bucket": (a % n_buckets).astype(np.int32),
            }
        )

    oriented = edges.map_batches(orient, batch_format="pandas", batch_size=65536)

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        df = g[["a", "b"]].sort_values(["a", "b"])
        a = df["a"].to_numpy(np.int64)
        b = df["b"].to_numpy(np.int64)
        cs, xs, ys = [], [], []
        j = 1
        while True:
            same = a[j:] == a[:-j]
            if not same.any():
                break
            cs.append(a[:-j][same])
            xs.append(b[:-j][same])
            ys.append(b[j:][same])
            j += 1
        if not xs:
            return pd.DataFrame({"c": pd.Series([], dtype="int64"),
                                 "x": pd.Series([], dtype="int64"),
                                 "y": pd.Series([], dtype="int64")})
        return pd.DataFrame(
            {"c": np.concatenate(cs), "x": np.concatenate(xs),
             "y": np.concatenate(ys)}
        )

    wedge_ds = oriented.groupby("bucket").map_groups(
        wedges, batch_format="pandas"
    )

    def edge_tag(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "c": np.full(len(batch), -1, np.int64),  # -1 marks an edge row
                "x": batch["a"].to_numpy(np.int64),
                "y": batch["b"].to_numpy(np.int64),
            }
        )

    tagged = wedge_ds.union(
        oriented.map_batches(edge_tag, batch_format="pandas", batch_size=65536)
    )

    def close_bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        h = (
            batch["x"].to_numpy(np.int64) * np.int64(1_000_003)
            + batch["y"].to_numpy(np.int64)
        ) % n_buckets
        return batch.assign(bucket=h.astype(np.int32))

    def tri_increments(g: pd.DataFrame) -> pd.DataFrame:
        cols = {"node": pd.Series([], dtype="int64"),
                "n_triangles": pd.Series([], dtype="int64")}
        if g.empty:
            return pd.DataFrame(cols)
        c = g["c"].to_numpy(np.int64)
        is_edge = c == -1
        key = g["x"].to_numpy(np.int64) * np.int64(1 << 32) + g[
            "y"
        ].to_numpy(np.int64)
        edge_keys = np.unique(key[is_edge])
        wc, wx, wy = c[~is_edge], g["x"].to_numpy(np.int64)[~is_edge], g[
            "y"
        ].to_numpy(np.int64)[~is_edge]
        hit = np.isin(key[~is_edge], edge_keys)
        # corners of each closed wedge, ranks -> node ids (low 32 bits)
        corners = np.concatenate([wc[hit], wx[hit], wy[hit]]) & np.int64(
            0xFFFFFFFF
        )
        n, cnt = np.unique(corners, return_counts=True)
        return pd.DataFrame({"node": n, "n_triangles": cnt.astype(np.int64)})

    tri = bucketed_sum(
        tagged.map_batches(close_bucketize, batch_format="pandas",
                           batch_size=65536)
        .groupby("bucket")
        .map_groups(tri_increments, batch_format="pandas"),
        ["node"],
        ["n_triangles"],
    ).to_pandas()

    out = deg_df.rename(columns={"node": "node"}).merge(
        tri, on="node", how="left"
    )
    out["n_triangles"] = out["n_triangles"].fillna(0).astype("int64")
    d = out["deg"].to_numpy(np.int64)
    out["n_wedges"] = d * (d - 1) // 2
    return (
        out[["node", "n_triangles", "n_wedges"]]
        .astype({"node": "int64", "n_triangles": "int64", "n_wedges": "int64"})
        .sort_values("node")
        .reset_index(drop=True)
    )


G13_SQL = """
WITH li AS (
  SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
  WHERE l_partkey % 7 = 0),
e0 AS (
  SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
  FROM li a JOIN li b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
tri AS (
  SELECT a.u AS n1, a.v AS n2, b.v AS n3
  FROM e0 a JOIN e0 b ON b.u = a.v
            JOIN e0 c ON c.u = a.u AND c.v = b.v),
tn AS (
  SELECT n1 AS node FROM tri
  UNION ALL SELECT n2 FROM tri
  UNION ALL SELECT n3 FROM tri),
tc AS (SELECT node, CAST(COUNT(*) AS BIGINT) AS n_triangles
       FROM tn GROUP BY node),
d AS (
  SELECT id, CAST(COUNT(*) AS BIGINT) AS degree
  FROM (SELECT u AS id FROM e0 UNION ALL SELECT v FROM e0)
  GROUP BY id)
SELECT d.id AS node,
       COALESCE(tc.n_triangles, CAST(0 AS BIGINT)) AS n_triangles,
       CAST(d.degree * (d.degree - 1) // 2 AS BIGINT) AS n_wedges
FROM d LEFT JOIN tc ON tc.node = d.id
"""


def t19_char_histogram(sf_dir: str):
    """Corpus CHARACTER histogram — the character-coverage table a
    tokenizer trainer (SentencePiece's character_coverage) consults
    before fixing its alphabet, and the cheapest encoding-corruption
    tripwire (mojibake shows up as impossible byte frequencies).

    Scale shape: zero-copy — each batch bincounts the Arrow string
    column's raw UTF-8 DATA BUFFER directly (no split, no per-row
    anything; the offsets buffer only bounds the value range), and
    only 128-long count vectors reduce to the driver.  ASCII-pure is
    asserted so the byte==codepoint identity the oracle relies on
    holds."""
    ds = _read(sf_dir, "documents", ["text"])

    def hist(batch: pa.Table) -> pd.DataFrame:
        arr = batch["text"].combine_chunks()
        t = arr.type
        width = 8 if (pa.types.is_large_string(t)) else 4
        off_dtype = np.int64 if width == 8 else np.int32
        offs = np.frombuffer(arr.buffers()[1], off_dtype)[
            arr.offset : arr.offset + len(arr) + 1
        ]
        data = np.frombuffer(arr.buffers()[2], np.uint8)[offs[0] : offs[-1]]
        if len(data) and int(data.max()) > 127:
            raise ValueError("non-ASCII text; byte histogram invalid")
        cnt = np.bincount(data, minlength=128).astype(np.int64)
        nz = np.flatnonzero(cnt)
        return pd.DataFrame({"code": nz.astype(np.int64), "n": cnt[nz]})

    from .stages.agg import bucketed_sum

    h = (
        bucketed_sum(
            ds.map_batches(hist, batch_format="pyarrow", batch_size=65536),
            ["code"],
            ["n"],
        )
        .to_pandas()
        .sort_values("code")
        .reset_index(drop=True)
    )
    h["ch"] = [chr(c) for c in h["code"].to_numpy(np.int64)]
    return h[["ch", "n"]].astype({"n": "int64"})


T19_SQL = """
SELECT ch, CAST(COUNT(*) AS BIGINT) AS n
FROM (SELECT unnest(string_split_regex(text, '')) AS ch FROM documents)
WHERE ch <> ''
GROUP BY ch
"""


def j10_nearest_event_join(sf_dir: str):
    """NEAREST-event join (either direction): each purchase pairs with
    the same user's click MINIMIZING |Δt| — ties prefer the earlier
    click, then the smaller event id — the sensor-alignment /
    nearest-fill primitive that a backward-only AS-OF (j01, w22)
    cannot express.

    Scale shape: ONE user-hash bucket shuffle; inside a bucket one
    sorted pass finds, for every purchase, its floor click (forward
    maximum.accumulate, then snapped to the FIRST click of that
    (user, ts) run for the tie rule) and its ceiling click (backward
    minimum.accumulate — same-instant clicks sort before the purchase,
    so the right-scan lands exactly on the first strictly-later
    click); the winner is a vectorized compare.  No per-user loop, no
    composite-key overflow arithmetic."""
    from .stages.agg import _key_hash

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type", "event_id"])

    def prep(batch: pa.Table) -> pd.DataFrame:
        keep = pc.is_in(
            batch["event_type"], value_set=pa.array(["click", "purchase"])
        )
        t = batch.filter(keep)
        df = pd.DataFrame(
            {
                "user_id": t["user_id"].to_numpy(zero_copy_only=False),
                "ts_us": t["ts"]
                .combine_chunks()
                .cast(pa.timestamp("us"))
                .cast(pa.int64())
                .to_numpy(),
                "event_id": t["event_id"].to_numpy(zero_copy_only=False),
                "is_p": pc.equal(t["event_type"], "purchase")
                .to_numpy(zero_copy_only=False)
                .astype(np.int8),
            }
        )
        df["bucket"] = (_key_hash(df, ["user_id"]) % 64).astype("int32")
        return df

    def nearest(g: pd.DataFrame) -> pd.DataFrame:
        cols = {
            "purchase_id": pd.Series([], dtype="int64"),
            "click_id": pd.Series([], dtype="int64"),
            "abs_lag_us": pd.Series([], dtype="int64"),
        }
        if g.empty:
            return pd.DataFrame(cols)
        g = g.sort_values(
            ["user_id", "ts_us", "is_p", "event_id"], kind="mergesort"
        )
        user = g["user_id"].to_numpy(np.int64)
        ts = g["ts_us"].to_numpy(np.int64)
        eid = g["event_id"].to_numpy(np.int64)
        is_p = g["is_p"].to_numpy(np.int8)
        n = len(g)
        idx = np.arange(n, dtype=np.int64)
        is_c = is_p == 0
        # first index of each contiguous (user, ts) CLICK run
        run_start = is_c.copy()
        if n > 1:
            run_start[1:] = is_c[1:] & ~(
                is_c[:-1] & (user[1:] == user[:-1]) & (ts[1:] == ts[:-1])
            )
        rf = np.maximum.accumulate(np.where(run_start, idx, -1))
        # floor click: last click at ts <= mine, snapped to its run head
        floor = np.maximum.accumulate(np.where(is_c, idx, -1))
        floor = np.where(floor >= 0, rf[np.maximum(floor, 0)], -1)
        # ceiling click: first click strictly after me in sort order
        ceil = np.full(n, n, np.int64)
        nxt = n
        rev = np.where(is_c, idx, n)
        ceil[:-1] = np.minimum.accumulate(rev[::-1])[::-1][1:]
        del nxt
        p = is_p == 1
        fl, ce = floor[p], ceil[p]
        pu, pt, pe = user[p], ts[p], eid[p]
        fl_ok = (fl >= 0) & (user[np.maximum(fl, 0)] == pu)
        ce_ok = (ce < n) & (user[np.minimum(ce, n - 1)] == pu)
        d_fl = np.where(fl_ok, pt - ts[np.maximum(fl, 0)], np.int64(2**62))
        d_ce = np.where(ce_ok, ts[np.minimum(ce, n - 1)] - pt, np.int64(2**62))
        use_fl = fl_ok & (~ce_ok | (d_fl <= d_ce))
        chosen = np.where(use_fl, fl, ce)
        ok = fl_ok | ce_ok
        chosen = chosen[ok]
        return pd.DataFrame(
            {
                "purchase_id": pe[ok],
                "click_id": eid[chosen],
                "abs_lag_us": np.where(use_fl[ok], d_fl[ok], d_ce[ok]),
            }
        )

    out = (
        ds.map_batches(prep, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(nearest, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("purchase_id").reset_index(drop=True).astype(
        {"purchase_id": "int64", "click_id": "int64", "abs_lag_us": "int64"}
    )


J10_SQL = """
WITH p AS (
  SELECT user_id, event_id, ts FROM events WHERE event_type = 'purchase'),
c AS (
  SELECT user_id, event_id, ts FROM events WHERE event_type = 'click'),
r AS (
  SELECT p.event_id AS purchase_id, c.event_id AS click_id,
         abs(epoch_us(CAST(p.ts AS TIMESTAMP))
             - epoch_us(CAST(c.ts AS TIMESTAMP))) AS adist,
         ROW_NUMBER() OVER (
           PARTITION BY p.event_id
           ORDER BY abs(epoch_us(CAST(p.ts AS TIMESTAMP))
                        - epoch_us(CAST(c.ts AS TIMESTAMP))),
                    c.ts, c.event_id) AS rk
  FROM p JOIN c ON c.user_id = p.user_id)
SELECT purchase_id, click_id, CAST(adist AS BIGINT) AS abs_lag_us
FROM r WHERE rk = 1
"""


def m19_distinct_colors(sf_dir: str):
    """Color-palette cardinality from REALLY decoded PPM pixels: per
    image, n_pix and the count of DISTINCT (r,g,b) colors — the
    palette-size probe that decides indexed-color transcoding (8-bit
    palette vs truecolor) in an image-curation pass.  Integers only;
    the oracle re-derives both from the generator arithmetic, so any
    decode slip (header walk, channel order, truncation) breaks the
    hash.

    Scale shape: stateless per-payload decode; distinct colors come
    from ONE np.unique over the packed 24-bit keys per image —
    image-sized rows out, no shuffle."""
    from .stages.multimodal import decode_ppm, synth_ppm_payload

    def palette(batch: pa.Table) -> pa.Table:
        ids, npx, ncol = [], [], []
        for mid, payload in zip(
            batch["media_id"].to_pylist(), batch["payload"].to_pylist()
        ):
            w, h, pix = decode_ppm(payload)
            key = (
                pix[:, 0].astype(np.int64) * 65536
                + pix[:, 1].astype(np.int64) * 256
                + pix[:, 2].astype(np.int64)
            )
            ids.append(mid)
            npx.append(w * h)
            ncol.append(len(np.unique(key)))
        return pa.table(
            {
                "media_id": pa.array(ids, pa.string()),
                "n_pix": pa.array(npx, pa.int64()),
                "n_colors": pa.array(ncol, pa.int64()),
            }
        )

    return _media_rows(sf_dir, "m", synth_ppm_payload).map_batches(
        palette, batch_format="pyarrow", batch_size=64
    )


M19_SQL = """
WITH dims AS (
  SELECT doc_id,
         4 + (doc_id * 131) % 29 AS w,
         4 + (doc_id * 197) % 31 AS h
  FROM documents),
px AS (
  SELECT doc_id, w, h,
         ((doc_id * 7 + unnest(range(0, w * h)) * 13) % 256) * 65536
       + ((doc_id * 11 + unnest(range(0, w * h)) * 17) % 256) * 256
       + ((doc_id * 13 + unnest(range(0, w * h)) * 23) % 256) AS key
  FROM dims)
SELECT printf('m%07d', doc_id) AS media_id,
       CAST(MAX(w * h) AS BIGINT) AS n_pix,
       CAST(COUNT(DISTINCT key) AS BIGINT) AS n_colors
FROM px GROUP BY doc_id
"""


def w24_survival_table(sf_dir: str):
    """Kaplan-Meier INPUT table for signup-to-first-purchase latency:
    per whole-day duration, how many users CONVERTED at that duration
    and how many were CENSORED there (signed up, never purchased
    after — censoring time = corpus max ts) — the survival-analysis
    staging every retention model starts from, with censoring done
    right instead of silently dropping non-converters.

    Scale shape: per-user sufficient stats (min signup ts, min
    purchase-after-signup ts — both min-reduces) ride ONE user-hash
    bucket shuffle; the corpus max ts is a tiny scalar pass; the
    day-keyed histogram is user-bounded."""
    from .stages.agg import _key_hash

    day_us = 86_400_000_000
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    # exact route: ship only the filtered rows (signup+purchase, 2/5 of
    # events) through the user-hash shuffle; the per-user pass is
    # vectorized in-bucket ("first purchase AT/AFTER first signup" is
    # not decomposable into per-batch partials, so the rows themselves
    # must co-locate — the j01/w22 shape)
    def rows(batch: pa.Table) -> pd.DataFrame:
        keep = pc.is_in(
            batch["event_type"], value_set=pa.array(["signup", "purchase"])
        )
        t = batch.filter(keep)
        df = pd.DataFrame(
            {
                "user_id": t["user_id"].to_numpy(zero_copy_only=False),
                "us": t["ts"]
                .combine_chunks()
                .cast(pa.timestamp("us"))
                .cast(pa.int64())
                .to_numpy(),
                "is_s": pc.equal(t["event_type"], "signup")
                .to_numpy(zero_copy_only=False)
                .astype(np.int8),
            }
        )
        df["bucket"] = (_key_hash(df, ["user_id"]) % 64).astype("int32")
        return df

    max_us = int(
        _read(sf_dir, "events", ["ts"])
        .map_batches(
            lambda b: pd.DataFrame(
                {
                    "m": [
                        int(
                            b["ts"]
                            .combine_chunks()
                            .cast(pa.timestamp("us"))
                            .cast(pa.int64())
                            .to_numpy()
                            .max()
                        )
                    ]
                }
            ),
            batch_format="pyarrow",
            batch_size=65536,
        )
        .to_pandas()["m"]
        .max()
    )

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        cols = {
            "duration_days": pd.Series([], dtype="int64"),
            "n_converted": pd.Series([], dtype="int64"),
            "n_censored": pd.Series([], dtype="int64"),
        }
        if g.empty:
            return pd.DataFrame(cols)
        g = g.sort_values(["user_id", "us"], kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        us = g["us"].to_numpy(np.int64)
        is_s = g["is_s"].to_numpy(np.int8) == 1
        # first signup per user
        first_of_user = np.zeros(len(g), bool)
        first_of_user[0] = True
        first_of_user[1:] = u[1:] != u[:-1]
        uid_idx = np.cumsum(first_of_user) - 1
        n_users = int(uid_idx[-1]) + 1
        BIG = np.int64(2**62)
        s_min = np.full(n_users, BIG, np.int64)
        np.minimum.at(s_min, uid_idx[is_s], us[is_s])
        # first purchase at/after the user's first signup
        pm = np.full(n_users, BIG, np.int64)
        pur = ~is_s
        after = pur & (us >= s_min[uid_idx])
        np.minimum.at(pm, uid_idx[after], us[after])
        has_s = s_min < BIG
        conv = has_s & (pm < BIG)
        cens = has_s & ~(pm < BIG)
        d_conv = (pm[conv] - s_min[conv]) // day_us
        d_cens = (max_us - s_min[cens]) // day_us
        rows_ = []
        for d, flag in ((d_conv, "n_converted"), (d_cens, "n_censored")):
            if len(d):
                vals, cnts = np.unique(d, return_counts=True)
                rows_.append(
                    pd.DataFrame(
                        {
                            "duration_days": vals,
                            "n_converted": cnts if flag == "n_converted" else 0,
                            "n_censored": cnts if flag == "n_censored" else 0,
                        }
                    )
                )
        if not rows_:
            return pd.DataFrame(cols)
        out = pd.concat(rows_, ignore_index=True)
        return out.groupby("duration_days", as_index=False)[
            ["n_converted", "n_censored"]
        ].sum()

    parts = (
        ds.map_batches(rows, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(per_user, batch_format="pandas")
        .to_pandas()
    )
    out = parts.groupby("duration_days", as_index=False)[
        ["n_converted", "n_censored"]
    ].sum()
    return out.astype(
        {"duration_days": "int64", "n_converted": "int64",
         "n_censored": "int64"}
    ).sort_values("duration_days").reset_index(drop=True)


W24_SQL = """
WITH s AS (
  SELECT user_id, MIN(epoch_us(CAST(ts AS TIMESTAMP))) AS s_us
  FROM events WHERE event_type = 'signup' GROUP BY user_id),
p AS (
  SELECT s.user_id, s.s_us,
         MIN(epoch_us(CAST(e.ts AS TIMESTAMP))) AS p_us
  FROM s LEFT JOIN events e
    ON e.user_id = s.user_id AND e.event_type = 'purchase'
   AND epoch_us(CAST(e.ts AS TIMESTAMP)) >= s.s_us
  GROUP BY s.user_id, s.s_us),
m AS (SELECT MAX(epoch_us(CAST(ts AS TIMESTAMP))) AS max_us FROM events),
d AS (
  SELECT CASE WHEN p_us IS NOT NULL
              THEN (p_us - s_us) // 86400000000
              ELSE ((SELECT max_us FROM m) - s_us) // 86400000000
         END AS duration_days,
         (p_us IS NOT NULL) AS conv
  FROM p)
SELECT CAST(duration_days AS BIGINT) AS duration_days,
       CAST(COUNT(*) FILTER (WHERE conv) AS BIGINT) AS n_converted,
       CAST(COUNT(*) FILTER (WHERE NOT conv) AS BIGINT) AS n_censored
FROM d GROUP BY 1
"""


def e09_entity_burstiness(sf_dir: str, n_buckets: int = 64):
    """Entity BURSTINESS over the derived transcripts: per dictionary
    entity, total turn-hits, distinct conversations touched, and the
    maximum hits inside a single conversation — separates entities
    that saturate one conversation (a burst — candidate for conv-level
    salting, the SURVEY §4 hot-key scenario) from entities spread
    thin everywhere.

    Scale shape: per-batch (conv, entity) hit partials (the e07
    discipline — a conversation's turns can split across batches, so
    per-conv counts MUST merge before the max is taken) ride one
    conv-hash bucket shuffle; buckets emit per-entity
    (sum/count/max — all associative over complete conversations)
    and the driver folds 7 rows."""
    from naer_ray.hashing import _fnv64_arr

    ents_sorted = np.array(sorted(KG_ENTITIES))
    ds = _derive_transcripts(sf_dir)

    def hit_partial(batch: pa.Table) -> pd.DataFrame:
        r, c = _entity_presence(batch["text"], ents_sorted)
        conv = batch["conv_id"].combine_chunks().take(pa.array(r))
        df = pd.DataFrame(
            {"conv_id": conv.to_pandas(), "code": c, "n": 1}
        )
        g = df.groupby(["conv_id", "code"], as_index=False)["n"].sum()
        g["bucket"] = (
            _fnv64_arr(pa.array(g["conv_id"], pa.string()))
            % np.uint64(n_buckets)
        ).astype(np.int32)
        return g

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cols = {
            "code": pd.Series([], dtype="int64"),
            "n_hits": pd.Series([], dtype="int64"),
            "n_convs": pd.Series([], dtype="int64"),
            "max_conv_hits": pd.Series([], dtype="int64"),
        }
        if g.empty:
            return pd.DataFrame(cols)
        cv = g.groupby(["code", "conv_id"], as_index=False)["n"].sum()
        out = cv.groupby("code", as_index=False).agg(
            n_hits=("n", "sum"), n_convs=("n", "size"),
            max_conv_hits=("n", "max"),
        )
        return out.astype(
            {"code": "int64", "n_hits": "int64", "n_convs": "int64",
             "max_conv_hits": "int64"}
        )

    parts = (
        ds.map_batches(hit_partial, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    agg = parts.groupby("code", as_index=False).agg(
        n_hits=("n_hits", "sum"), n_convs=("n_convs", "sum"),
        max_conv_hits=("max_conv_hits", "max"),
    )
    agg["entity"] = ents_sorted[agg["code"].to_numpy(np.int64)]
    return agg[["entity", "n_hits", "n_convs", "max_conv_hits"]].astype(
        {"n_hits": "int64", "n_convs": "int64", "max_conv_hits": "int64"}
    ).sort_values("entity").reset_index(drop=True)


E09_SQL = f"""
WITH t AS ({_DERIVE_SQL}),
h AS (
  SELECT DISTINCT conv_id, turn_idx, e FROM (
    SELECT conv_id, turn_idx, unnest(string_split(text, ' ')) AS e
    FROM t)
  WHERE e IN ({", ".join(f"'{e}'" for e in KG_ENTITIES)})),
cv AS (
  SELECT e, conv_id, CAST(COUNT(*) AS BIGINT) AS n
  FROM h GROUP BY e, conv_id)
SELECT e AS entity,
       CAST(SUM(n) AS BIGINT) AS n_hits,
       CAST(COUNT(*) AS BIGINT) AS n_convs,
       CAST(MAX(n) AS BIGINT) AS max_conv_hits
FROM cv GROUP BY e
"""


def s14_partition_overwrite(sf_dir: str, days=(3, 7)):
    """Dynamic partition OVERWRITE (Hive/Spark INSERT OVERWRITE
    semantics, the lakehouse backfill primitive): the events table
    stages day-partitioned; a correction job rewrites ONLY the named
    day partitions (values re-stated at 2x cents — a deterministic
    "late correction"), untouched partitions keep their original
    files; the read-back union must reflect exactly the overwritten
    days and nothing else.

    Scale shape: the overwrite touches only the target partitions'
    rows (partition-pruned read + rewrite); the verify aggregate scans
    the merged layout once with day-bounded partials."""
    import os as _os
    import shutil

    import pyarrow.parquet as _pq
    import ray.data

    from .stages.agg import bucketed_sum

    day_us = 86_400_000_000
    stage = (
        "/tmp/naer_part_overwrite/"
        f"{_os.getpid()}-{_os.path.basename(sf_dir.rstrip('/'))}"
    )
    shutil.rmtree(stage, ignore_errors=True)
    src = _pq.read_table(f"{sf_dir}/events.parquet", columns=["ts", "value"])
    us = src["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
    day0 = int(us.min() // day_us)
    day = (us // day_us).astype(np.int64) - day0
    cents = np.floor(src["value"].to_numpy() * 100 + 0.5).astype(np.int64)
    for d in np.unique(day):
        part_dir = f"{stage}/day={d}"
        _os.makedirs(part_dir)
        sel = day == d
        _pq.write_table(
            pa.table({"day": day[sel], "cents": cents[sel]}),
            f"{part_dir}/part-0.parquet",
        )

    # --- overwrite job: re-state the chosen partitions at 2x cents ---
    for d in days:
        part_dir = f"{stage}/day={d}"
        if not _os.path.isdir(part_dir):
            continue
        sel = day == d
        new = pa.table({"day": day[sel], "cents": cents[sel] * 2})
        shutil.rmtree(part_dir)
        _os.makedirs(part_dir)
        _pq.write_table(new, f"{part_dir}/part-0.parquet")

    paths = sorted(
        f"{stage}/{p}/part-0.parquet" for p in _os.listdir(stage)
    )
    ds = ray.data.read_parquet(paths)

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "day": batch["day"].to_numpy(zero_copy_only=False),
                "cents": batch["cents"].to_numpy(zero_copy_only=False),
                "n": 1,
            }
        )
        return df.groupby("day", as_index=False)[["cents", "n"]].sum()

    out = (
        bucketed_sum(
            ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
            ["day"],
            ["cents", "n"],
        )
        .to_pandas()
        .astype({"day": "int64", "cents": "int64", "n": "int64"})
        .sort_values("day")
        .reset_index(drop=True)
    )
    shutil.rmtree(stage, ignore_errors=True)
    return out


S14_SQL = """
WITH e AS (
  SELECT CAST(epoch_us(CAST(ts AS TIMESTAMP)) // 86400000000 AS BIGINT)
         - (SELECT MIN(CAST(epoch_us(CAST(ts AS TIMESTAMP)) // 86400000000
                            AS BIGINT)) FROM events) AS day,
         CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events)
SELECT day,
       CAST(SUM(CASE WHEN day IN (3, 7) THEN cents * 2 ELSE cents END)
            AS BIGINT) AS cents,
       CAST(COUNT(*) AS BIGINT) AS n
FROM e GROUP BY day
"""


def a13_maxsim_multivector(sf_dir: str, group: int = 4, k: int = 5):
    """Late-interaction (ColBERT-style MaxSim) retrieval: each "doc" is
    a GROUP of 4 consecutive vectors (vec_id // 4), the query is doc
    0's 4 vectors, and score(doc) = Σ_q max_{d∈doc} ⟨q, d⟩ — the
    multi-vector ranking a single-vector ANN (a01–a12) cannot express.
    Scoring uses the x10/a05 QUANTIZED-integer discipline
    (L2-normalize, scale 127, floor(x+0.5), int accumulate) so ranks
    are bit-deterministic under any partitioning; top-k by
    (score DESC, doc ASC).

    Scale shape: the 4×64 quantized query broadcasts via ray.put; each
    batch computes one int matmul and pre-MAXES per (doc, qvec) —
    a doc's vectors can split across batches, so the per-batch max is
    a PARTIAL merged by one doc-hash bucket max-reduce (max is
    associative); the per-doc sum and top-k fold doc-bounded rows on
    the driver."""
    import ray

    from .stages.agg import _key_hash
    from .stages.ann import _as_matrix

    def quantize(mat: np.ndarray) -> np.ndarray:
        norms = np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        return np.clip(
            np.floor(mat / norms * 127.0 + 0.5), -127, 127
        ).astype(np.int64)

    import pyarrow.parquet as _pq

    emb = _pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    ids_all = emb["vec_id"].to_numpy()
    sel = np.flatnonzero(np.isin(ids_all, np.arange(group)))
    qm = np.array(
        [emb["embedding"][int(i)].as_py() for i in sel], dtype=np.float64
    )[np.argsort(ids_all[sel])]
    q8 = quantize(qm)
    q_ref = ray.put(q8)

    def partial(batch: pa.Table) -> pd.DataFrame:
        q = ray.get(q_ref)
        mat = _as_matrix(batch["embedding"])
        m8 = quantize(mat)
        dots = m8 @ q.T  # (rows, group) int64
        doc = batch["vec_id"].to_numpy(zero_copy_only=False) // group
        df = pd.DataFrame(
            {"doc": np.repeat(doc, q.shape[0]),
             "qi": np.tile(np.arange(q.shape[0]), len(doc)),
             "dot": dots.ravel()}
        )
        g = df.groupby(["doc", "qi"], as_index=False)["dot"].max()
        g["bucket"] = (_key_hash(g, ["doc"]) % 64).astype("int32")
        return g

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame(
                {"doc": pd.Series([], dtype="int64"),
                 "score": pd.Series([], dtype="int64")}
            )
        mx = g.groupby(["doc", "qi"], as_index=False)["dot"].max()
        sc = mx.groupby("doc", as_index=False)["dot"].sum()
        return sc.rename(columns={"dot": "score"}).astype(
            {"doc": "int64", "score": "int64"}
        )

    scores = (
        _read(sf_dir, "embeddings", ["vec_id", "embedding"])
        .map_batches(partial, batch_format="pyarrow", batch_size=8192)
        .groupby("bucket")
        .map_groups(combine, batch_format="pandas")
        .to_pandas()
    )
    order = np.lexsort(
        (scores["doc"].to_numpy(np.int64), -scores["score"].to_numpy(np.int64))
    )[:k]
    return scores.iloc[order][["doc", "score"]].astype(
        {"doc": "int64", "score": "int64"}
    ).reset_index(drop=True)


A13_SQL = """
WITH el AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i,
         CAST(unnest(embedding) AS DOUBLE) AS x
  FROM embeddings),
nr AS (
  SELECT vec_id, sqrt(SUM(x * x)) AS nrm FROM el GROUP BY vec_id),
q AS (
  SELECT el.vec_id, i,
         GREATEST(-127, LEAST(127,
           CAST(FLOOR(x / GREATEST(nrm, 1e-12) * 127 + 0.5) AS BIGINT)))
           AS qx
  FROM el JOIN nr USING (vec_id)),
dots AS (
  SELECT qq.vec_id AS qi, q.vec_id AS did,
         CAST(SUM(qq.qx * q.qx) AS BIGINT) AS dot
  FROM (SELECT * FROM q WHERE vec_id IN (0, 1, 2, 3)) qq
  JOIN q ON q.i = qq.i
  GROUP BY 1, 2),
mx AS (
  SELECT qi, did // 4 AS doc, MAX(dot) AS m FROM dots GROUP BY 1, 2),
sc AS (SELECT doc, CAST(SUM(m) AS BIGINT) AS score FROM mx GROUP BY doc)
SELECT CAST(doc AS BIGINT) AS doc, score
FROM sc ORDER BY score DESC, doc LIMIT 5
"""


def x12_tiered_search(sf_dir: str, phrase: str = "hash vector", k: int = 10):
    """Tiered (cascade) retrieval: documents matching the exact PHRASE
    rank in tier 1, documents merely containing BOTH terms rank in
    tier 2 — the precision-first fallback every search stack runs
    before blending scores (x03 alone drops the fallback tier; x09
    alone cannot prefer adjacency).  Top-k by (tier ASC, tf DESC,
    doc_id ASC) where tf is the summed term frequency.

    Scale shape: ONE streaming pass per batch reuses the t15 bigram
    kernel (phrase counts) and a searchsorted token-code bincount
    (term tfs); each doc lives in exactly one batch row, so per-batch
    local top-k pools make the driver merge block-bounded — zero
    shuffles."""
    from .stages.text import _batch_bigrams, _string_array

    terms = np.array(sorted(phrase.split(" ")))

    def scan(batch: pa.Table) -> pd.DataFrame:
        txt = _string_array(batch["text"])
        n = len(txt)
        # phrase occurrences (tier 1 signal)
        bg, parents, _n = _batch_bigrams(txt)
        ph = np.zeros(n, np.int64)
        if len(bg):
            eq = pc.equal(bg, phrase).to_numpy(zero_copy_only=False)
            ph = np.bincount(parents[eq], minlength=n).astype(np.int64)
        # per-term tf (tier 2 signal): token-code bincount
        split = pc.split_pattern(txt, " ")
        flat = split.flatten().to_numpy(zero_copy_only=False)
        offs = split.offsets.to_numpy()
        row_of = np.repeat(np.arange(n), np.diff(offs))
        kT = len(terms)
        tf = np.zeros((n, kT), np.int64)
        if len(flat):
            pos = np.minimum(np.searchsorted(terms, flat), kT - 1)
            hit = terms[pos] == flat
            np.add.at(tf, (row_of[hit], pos[hit]), 1)
        has_all = (tf > 0).all(axis=1)
        tier = np.where(ph > 0, 1, np.where(has_all, 2, 0))
        keep = tier > 0
        df = pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(zero_copy_only=False)[keep],
                "tier": tier[keep],
                "tf": tf.sum(axis=1)[keep],
            }
        )
        # local top-k pool bounds the driver merge
        df = df.sort_values(
            ["tier", "tf", "doc_id"], ascending=[True, False, True]
        ).head(k)
        return df

    pool = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(scan, batch_format="pyarrow", batch_size=8192)
        .to_pandas()
    )
    pool = pool.sort_values(
        ["tier", "tf", "doc_id"], ascending=[True, False, True]
    ).head(k)
    return pool.reset_index(drop=True).astype(
        {"doc_id": "int64", "tier": "int64", "tf": "int64"}
    )


X12_SQL = r"""
WITH l AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS toks
  FROM documents),
ph AS (
  SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_ph
  FROM (
    SELECT doc_id,
           unnest(list_transform(range(1, len(toks)),
                                 i -> toks[i] || ' ' || toks[i + 1])) AS b
    FROM l WHERE len(toks) >= 2)
  WHERE b = 'hash vector' GROUP BY doc_id),
tf AS (
  SELECT doc_id,
         CAST(SUM(CASE WHEN w = 'hash' THEN 1 ELSE 0 END) AS BIGINT) AS tf_a,
         CAST(SUM(CASE WHEN w = 'vector' THEN 1 ELSE 0 END) AS BIGINT) AS tf_b
  FROM (SELECT doc_id, unnest(toks) AS w FROM l)
  GROUP BY doc_id),
sc AS (
  SELECT tf.doc_id,
         CASE WHEN ph.n_ph > 0 THEN 1
              WHEN tf.tf_a > 0 AND tf.tf_b > 0 THEN 2 END AS tier,
         tf.tf_a + tf.tf_b AS tf
  FROM tf LEFT JOIN ph USING (doc_id))
SELECT doc_id, CAST(tier AS BIGINT) AS tier, CAST(tf AS BIGINT) AS tf
FROM sc WHERE tier IS NOT NULL
ORDER BY tier, tf DESC, doc_id LIMIT 10
"""


def r07_share_of_total(sf_dir: str):
    """Ratio-to-report window: monthly revenue per order priority
    ALONGSIDE its month total (share = cents/month_cents by one
    division downstream — both integers so the compare is exact);
    the contribution view every finance rollup renders.

    Scale shape: one (month, priority)-bounded bucketed sum; the
    window total is a groupby-transform over the month×priority-sized
    result on the driver."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "orders", ["o_orderdate", "o_orderpriority",
                                  "o_totalprice"])

    def prep(batch: pa.Table) -> pd.DataFrame:
        m = pc.floor_temporal(batch["o_orderdate"], unit="month")
        df = pd.DataFrame(
            {
                "month_start": m.to_pandas(),
                "pri": batch["o_orderpriority"].to_pandas(),
                "cents": _cents(
                    batch["o_totalprice"].to_numpy(zero_copy_only=False)
                ),
            }
        )
        return df.groupby(["month_start", "pri"], as_index=False)[
            "cents"
        ].sum()

    g = (
        bucketed_sum(
            ds.map_batches(prep, batch_format="pyarrow", batch_size=65536),
            ["month_start", "pri"],
            ["cents"],
        )
        .to_pandas()
    )
    g["month_cents"] = g.groupby("month_start")["cents"].transform("sum")
    out = g.rename(columns={"pri": "o_orderpriority"})
    return out[["month_start", "o_orderpriority", "cents", "month_cents"]].astype(
        {"cents": "int64", "month_cents": "int64"}
    ).sort_values(["month_start", "o_orderpriority"]).reset_index(drop=True)


R07_SQL = """
WITH t AS (
  SELECT date_trunc('month', o_orderdate) AS month_start,
         o_orderpriority,
         CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS c
  FROM orders),
g AS (
  SELECT month_start, o_orderpriority, CAST(SUM(c) AS BIGINT) AS cents
  FROM t GROUP BY 1, 2)
SELECT month_start, o_orderpriority, cents,
       CAST(SUM(cents) OVER (PARTITION BY month_start) AS BIGINT)
         AS month_cents
FROM g
"""


def n15_chi2_contingency(sf_dir: str):
    """Chi-square-of-independence INPUTS for lang x source as pure
    integers: per cell the observed count ``o``, its marginals
    ``r_tot``/``c_tot``, the grand total ``n`` and the signed
    deviation ``dev = o*n - r_tot*c_tot`` (the chi-square numerator
    before squaring; |dev| <= n^2/4 so int64 is safe to sf>=1) — the
    categorical-drift / independence monitor that the continuous
    drift tests (n10 KS, n12 Mann-Whitney) cannot express.

    Scale shape: ONE corpus pass emits per-batch (lang, source)
    partial counts (exchange bounded by distinct cell pairs, never
    rows); marginals and deviations are closed-form passes over that
    cell table on the driver."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "documents", ["lang", "source"])

    def prep(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "lang": batch["lang"].to_pandas(),
                "source": batch["source"].to_pandas(),
                "o": 1,
            }
        )
        return df.groupby(["lang", "source"], as_index=False)["o"].sum()

    cells = (
        bucketed_sum(
            ds.map_batches(prep, batch_format="pyarrow", batch_size=65536),
            ["lang", "source"],
            ["o"],
        )
        .to_pandas()
    )
    cells["r_tot"] = cells.groupby("lang")["o"].transform("sum")
    cells["c_tot"] = cells.groupby("source")["o"].transform("sum")
    n = int(cells["o"].sum())
    cells["n"] = np.int64(n)
    cells["dev"] = (
        cells["o"].to_numpy(np.int64) * n
        - cells["r_tot"].to_numpy(np.int64) * cells["c_tot"].to_numpy(np.int64)
    )
    out = cells.sort_values(["lang", "source"]).reset_index(drop=True)
    return out[["lang", "source", "o", "r_tot", "c_tot", "n", "dev"]].astype(
        {c: "int64" for c in ["o", "r_tot", "c_tot", "n", "dev"]}
    )


N15_SQL = """
WITH cell AS (
  SELECT lang, source, CAST(COUNT(*) AS BIGINT) AS o
  FROM documents GROUP BY lang, source),
m AS (
  SELECT lang, source, o,
         CAST(SUM(o) OVER (PARTITION BY lang) AS BIGINT) AS r_tot,
         CAST(SUM(o) OVER (PARTITION BY source) AS BIGINT) AS c_tot,
         CAST(SUM(o) OVER () AS BIGINT) AS n
  FROM cell)
SELECT lang, source, o, r_tot, c_tot, n,
       CAST(o * n - r_tot * c_tot AS BIGINT) AS dev
FROM m ORDER BY lang, source
"""


def s15_bitmap_index(sf_dir: str, n_files: int = 8):
    """Persisted per-file BITMAP index (the Parquet/ORC bitmap-index /
    Roaring pattern for low-cardinality predicates): lineitem stages
    as time-partitioned files; the build phase writes ONE packed
    bit-per-row bitmap per (file, column, value) to the index dir;
    the query phase answers three conjunctive predicates
    (returnflag, linestatus) by AND-ing two KB-scale bitmaps per file
    and popcounting — the staged parquet DATA is never re-read.
    Self-gates that each single-column bitmap family partitions the
    file's rows exactly (popcounts sum to the row count).

    Scale shape: build is one task per file emitting n_rows/8 bytes
    per value; query reads only bitmap files (row-count/8 bytes per
    predicate arm) and the driver sums file-level popcounts."""
    import os as _os
    import shutil

    import pyarrow.parquet as _pq
    import ray.data

    stage = (
        "/tmp/naer_bitmap_index/"
        f"{_os.getpid()}-{_os.path.basename(sf_dir.rstrip('/'))}"
    )
    shutil.rmtree(stage, ignore_errors=True)
    _os.makedirs(f"{stage}/bitmaps")
    src = _pq.read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_shipdate"],
    ).sort_by("l_shipdate")
    n = src.num_rows
    for k in range(n_files):
        part = src.slice(
            k * n // n_files, (k + 1) * n // n_files - k * n // n_files
        )
        if part.num_rows:
            _pq.write_table(
                part.select(["l_returnflag", "l_linestatus"]),
                f"{stage}/part-{k}.parquet",
            )
    paths = sorted(
        f"{stage}/{nm}" for nm in _os.listdir(stage) if nm.endswith(".parquet")
    )

    # build: one task per file, one packed bitmap per (column, value)
    def build(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for p in batch["item"]:
            t = _pq.read_table(p)
            base = _os.path.basename(p)[: -len(".parquet")]
            for col in ("l_returnflag", "l_linestatus"):
                arr = t[col].to_numpy(zero_copy_only=False)
                vals = np.unique(arr)
                pops = 0
                for v in vals:
                    bits = np.packbits(arr == v)
                    bp = f"{stage}/bitmaps/{base}.{col}.{v}.bin"
                    with open(bp, "wb") as f:
                        f.write(bits.tobytes())
                    pops += int(np.unpackbits(bits).sum())
                if pops != t.num_rows:  # bitmap family must partition rows
                    raise RuntimeError(f"bitmap popcounts {pops} != rows")
            rows.append((base, t.num_rows))
        return pd.DataFrame(rows, columns=["file", "n_rows"])

    manifest = (
        ray.data.from_items(paths)
        .map_batches(build, batch_format="pandas")
        .to_pandas()
    )

    # query: AND two bitmaps per file, popcount — no parquet re-read
    combos = [("A", "F"), ("N", "O"), ("R", "F")]

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for r in batch.itertuples():
            for flag, status in combos:
                cnt = 0
                fa = f"{stage}/bitmaps/{r.file}.l_returnflag.{flag}.bin"
                fb = f"{stage}/bitmaps/{r.file}.l_linestatus.{status}.bin"
                if _os.path.exists(fa) and _os.path.exists(fb):
                    a = np.frombuffer(open(fa, "rb").read(), np.uint8)
                    b = np.frombuffer(open(fb, "rb").read(), np.uint8)
                    cnt = int(np.unpackbits(a & b).sum())
                rows.append((flag, status, cnt))
        return pd.DataFrame(
            rows, columns=["l_returnflag", "l_linestatus", "cnt"]
        )

    per_file = (
        ray.data.from_pandas(manifest)
        .map_batches(probe, batch_format="pandas")
        .to_pandas()
    )
    shutil.rmtree(stage, ignore_errors=True)
    out = (
        per_file.groupby(["l_returnflag", "l_linestatus"], as_index=False)[
            "cnt"
        ]
        .sum()
        .sort_values(["l_returnflag", "l_linestatus"])
        .reset_index(drop=True)
    )
    return out.astype({"cnt": "int64"})


S15_SQL = """
SELECT l_returnflag, l_linestatus, CAST(COUNT(*) AS BIGINT) AS cnt
FROM lineitem
WHERE (l_returnflag, l_linestatus) IN (('A', 'F'), ('N', 'O'), ('R', 'F'))
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


def w25_peak_concurrency(sf_dir: str, window_min: int = 30):
    """Peak concurrency by sweep-line: every event opens a half-open
    interval [ts, ts+30min); the answer is the maximum number of
    simultaneously open intervals and the EARLIEST instant it is
    reached — the capacity-planning statistic (max concurrent
    sessions) that per-user interval coverage (w15) cannot see
    because overlap is global across users.

    Scale shape: each batch emits (+1 at ts, -1 at ts+window) deltas
    pre-summed per distinct timestamp; one bucketed sum bounds the
    exchange by distinct boundary instants; the driver's sort+cumsum
    folds that boundary-sized table (scale path: range-partition the
    boundaries and carry per-partition totals left-to-right)."""
    from .stages.agg import bucketed_sum

    win_us = np.int64(window_min * 60 * 1_000_000)
    ds = _read(sf_dir, "events", ["ts"])

    def deltas(batch: pa.Table) -> pd.DataFrame:
        us = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                "t_us": np.concatenate([us, us + win_us]),
                "dlt": np.concatenate(
                    [np.ones(len(us), np.int64), -np.ones(len(us), np.int64)]
                ),
            }
        )
        return df.groupby("t_us", as_index=False)["dlt"].sum()

    g = (
        bucketed_sum(
            ds.map_batches(deltas, batch_format="pyarrow", batch_size=65536),
            ["t_us"],
            ["dlt"],
        )
        .to_pandas()
        .sort_values("t_us")
    )
    conc = g["dlt"].to_numpy(np.int64).cumsum()
    peak = int(conc.max())
    at = int(g["t_us"].to_numpy(np.int64)[int(np.argmax(conc))])
    return pd.DataFrame(
        {
            "peak": pd.Series([peak], dtype="int64"),
            "peak_ts": pd.Series(
                pa.array([at], pa.timestamp("us")).to_pandas()
            ),
        }
    )


W25_SQL = """
WITH d AS (
  SELECT ts AS t, CAST(1 AS BIGINT) AS dlt FROM events
  UNION ALL
  SELECT ts + INTERVAL 30 MINUTE, CAST(-1 AS BIGINT) FROM events),
g AS (SELECT t, CAST(SUM(dlt) AS BIGINT) AS dlt FROM d GROUP BY t),
r AS (SELECT t, SUM(dlt) OVER (ORDER BY t) AS conc FROM g)
SELECT CAST((SELECT MAX(conc) FROM r) AS BIGINT) AS peak,
       (SELECT MIN(t) FROM r WHERE conc = (SELECT MAX(conc) FROM r))
         AS peak_ts
"""


def q41_temporal_anti_join(sf_dir: str, grace_days: int = 30):
    """Temporal ABSENCE detection: orders with NO lineitem shipped
    within ``grace_days`` of the order date (including orders with no
    lineitems at all) — the SLA-breach / missing-follow-up shape that
    a plain anti-join (q19) cannot express because the predicate is
    an inequality on the matched side's MINIMUM, counted per order
    priority with integer-cents revenue at stake.

    Scale shape: lineitem folds to per-order MIN-shipdate partials
    inside each batch (min is associative, so partials merge exactly);
    orders and those partials co-partition through ONE orderkey-hash
    bucket exchange; each bucket kernel merges locally and emits
    priority-sized partial counts the driver sums."""
    from .stages.agg import _key_hash, bucketed_sum

    grace_us = np.int64(grace_days) * 86_400_000_000
    n_buckets = 64

    orders = _read(
        sf_dir, "orders",
        ["o_orderkey", "o_orderdate", "o_orderpriority", "o_totalprice"],
    )
    line = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def o_rows(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "k": batch["o_orderkey"].to_numpy(zero_copy_only=False),
                "t_us": batch["o_orderdate"]
                .cast(pa.int64())
                .to_numpy(zero_copy_only=False),
                "pri": batch["o_orderpriority"].to_pandas(),
                "cents": _cents(
                    batch["o_totalprice"].to_numpy(zero_copy_only=False)
                ),
                "side": np.int8(0),
            }
        )
        df["bucket"] = (_key_hash(df, ["k"]) % n_buckets).astype("int32")
        return df

    def l_rows(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "k": batch["l_orderkey"].to_numpy(zero_copy_only=False),
                "t_us": batch["l_shipdate"]
                .cast(pa.int64())
                .to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby("k", as_index=False)["t_us"].min()  # batch partial
        g["pri"] = ""
        g["cents"] = np.int64(0)
        g["side"] = np.int8(1)
        g["bucket"] = (_key_hash(g, ["k"]) % n_buckets).astype("int32")
        return g[["k", "t_us", "pri", "cents", "side", "bucket"]]

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        o = group[group["side"] == 0]
        l = group[group["side"] == 1]
        ms = l.groupby("k")["t_us"].min()
        m = ms.reindex(o["k"]).to_numpy()
        slow = np.isnan(m) | (m > o["t_us"].to_numpy() + grace_us)
        kept = o.loc[slow]
        if kept.empty:
            return pd.DataFrame(
                {
                    "o_orderpriority": pd.Series([], dtype=object),
                    "n_slow": pd.Series([], dtype="int64"),
                    "cents": pd.Series([], dtype="int64"),
                }
            )
        out = kept.groupby("pri", as_index=False).agg(
            n_slow=("k", "size"), cents=("cents", "sum")
        )
        return out.rename(columns={"pri": "o_orderpriority"})

    both = orders.map_batches(
        o_rows, batch_format="pyarrow", batch_size=65536
    ).union(
        line.map_batches(l_rows, batch_format="pyarrow", batch_size=65536)
    )
    parts = (
        both.groupby("bucket")
        .map_groups(merge, batch_format="pandas")
        .to_pandas()
    )
    out = (
        parts.groupby("o_orderpriority", as_index=False)[["n_slow", "cents"]]
        .sum()
        .sort_values("o_orderpriority")
        .reset_index(drop=True)
    )
    return out.astype({"n_slow": "int64", "cents": "int64"})


Q41_SQL = """
WITH ms AS (
  SELECT l_orderkey, MIN(l_shipdate) AS m FROM lineitem GROUP BY l_orderkey)
SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_slow,
       CAST(SUM(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS cents
FROM orders o LEFT JOIN ms ON o.o_orderkey = ms.l_orderkey
WHERE ms.m IS NULL OR ms.m > o.o_orderdate + INTERVAL 30 DAY
GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


def x13_min_should_match(
    sf_dir: str, terms=("join", "merge", "sort", "stream"), m: int = 3,
    k: int = 10,
):
    """Minimum-should-match retrieval (the WAND / Lucene ``mm``
    operator): documents matching AT LEAST ``m`` of ``k`` query terms,
    ranked by (n matched terms DESC, summed tf DESC, doc_id ASC) —
    the graded middle ground between x09's hard boolean AND and
    x02's purely soft BM25.

    Scale shape: one streaming pass; per batch a searchsorted
    token-code bincount yields the (doc x term) tf matrix, matched =
    row-wise nonzero count; per-batch local top-k pools bound the
    driver merge — zero shuffles."""
    from .stages.text import _string_array

    tarr = np.array(sorted(terms))

    def scan(batch: pa.Table) -> pd.DataFrame:
        txt = _string_array(batch["text"])
        n = len(txt)
        split = pc.split_pattern(txt, " ")
        flat = split.flatten().to_numpy(zero_copy_only=False)
        offs = split.offsets.to_numpy()
        row_of = np.repeat(np.arange(n), np.diff(offs))
        kT = len(tarr)
        tf = np.zeros((n, kT), np.int64)
        if len(flat):
            pos = np.minimum(np.searchsorted(tarr, flat), kT - 1)
            hit = tarr[pos] == flat
            np.add.at(tf, (row_of[hit], pos[hit]), 1)
        matched = (tf > 0).sum(axis=1)
        keep = matched >= m
        df = pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(zero_copy_only=False)[keep],
                "matched": matched[keep],
                "tf": tf.sum(axis=1)[keep],
            }
        )
        return df.sort_values(
            ["matched", "tf", "doc_id"], ascending=[False, False, True]
        ).head(k)

    pool = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(scan, batch_format="pyarrow", batch_size=8192)
        .to_pandas()
    )
    pool = pool.sort_values(
        ["matched", "tf", "doc_id"], ascending=[False, False, True]
    ).head(k)
    return pool.reset_index(drop=True).astype(
        {"doc_id": "int64", "matched": "int64", "tf": "int64"}
    )


X13_SQL = r"""
WITH w AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(text, '\s+'),
                            x -> x <> '')) AS w
  FROM documents),
tf AS (
  SELECT doc_id,
         CAST(SUM(CASE WHEN w = 'join' THEN 1 ELSE 0 END) AS BIGINT) AS a,
         CAST(SUM(CASE WHEN w = 'merge' THEN 1 ELSE 0 END) AS BIGINT) AS b,
         CAST(SUM(CASE WHEN w = 'sort' THEN 1 ELSE 0 END) AS BIGINT) AS c,
         CAST(SUM(CASE WHEN w = 'stream' THEN 1 ELSE 0 END) AS BIGINT) AS d
  FROM w GROUP BY doc_id),
sc AS (
  SELECT doc_id,
         CAST((a > 0)::INT + (b > 0)::INT + (c > 0)::INT + (d > 0)::INT
              AS BIGINT) AS matched,
         a + b + c + d AS tf
  FROM tf)
SELECT doc_id, matched, tf FROM sc WHERE matched >= 3
ORDER BY matched DESC, tf DESC, doc_id LIMIT 10
"""


def i10_partition_evolution(sf_dir: str):
    """Partition-scheme EVOLUTION read (the Iceberg spec-v2 shape): a
    table whose older files are laid out ``month=YYYY-MM/`` and newer
    files ``day=YYYY-MM-DD/`` (cutoff = first event date + 14 days)
    is read as ONE logical view — the coarse layout recovers the day
    from row timestamps, the fine layout could prune on the directory
    key alone — and aggregated per day with integer-cents values.

    Scale shape: each layout is an independent pruned parquet read;
    the per-day reduce is a bucketed sum bounded by day cardinality;
    nothing reads both layouts twice or materializes raw rows."""
    import os as _os
    import shutil

    import pyarrow.parquet as _pq
    import ray.data

    from .stages.agg import bucketed_sum

    stage = (
        "/tmp/naer_part_evolution/"
        f"{_os.getpid()}-{_os.path.basename(sf_dir.rstrip('/'))}"
    )
    shutil.rmtree(stage, ignore_errors=True)
    src = _pq.read_table(f"{sf_dir}/events.parquet", columns=["ts", "value"])
    us = src["ts"].cast(pa.int64()).to_numpy()
    day_us = us // 86_400_000_000 * 86_400_000_000
    cutoff = day_us.min() + 14 * 86_400_000_000
    old = src.filter(pa.array(day_us < cutoff))
    new = src.filter(pa.array(day_us >= cutoff))
    month = pc.floor_temporal(old["ts"], unit="month")
    for mv in pc.unique(month).to_pylist():
        d = f"{stage}/old/month={mv:%Y-%m}"
        _os.makedirs(d)
        _pq.write_table(
            old.filter(pc.equal(month, mv)), f"{d}/part-0.parquet"
        )
    nday = pc.floor_temporal(new["ts"], unit="day")
    for dv in pc.unique(nday).to_pylist():
        d = f"{stage}/new/day={dv:%Y-%m-%d}"
        _os.makedirs(d)
        _pq.write_table(
            new.filter(pc.equal(nday, dv)), f"{d}/part-0.parquet"
        )

    def norm_old(batch: pa.Table) -> pd.DataFrame:
        # coarse layout: day recovered from row timestamps
        day = pc.floor_temporal(batch["ts"], unit="day")
        return pd.DataFrame(
            {
                "day_start": day.to_pandas(),
                "n_events": np.int64(1),
                "cents": _cents(
                    batch["value"].to_numpy(zero_copy_only=False)
                ),
            }
        )

    def norm_new(batch: pa.Table) -> pd.DataFrame:
        # fine layout: day comes straight from the partition key
        day = pd.to_datetime(
            batch["day"].to_pandas(), format="%Y-%m-%d"
        ).astype("datetime64[us]")
        return pd.DataFrame(
            {
                "day_start": day,
                "n_events": np.int64(1),
                "cents": _cents(
                    batch["value"].to_numpy(zero_copy_only=False)
                ),
            }
        )

    ds = ray.data.read_parquet(f"{stage}/old").map_batches(
        norm_old, batch_format="pyarrow", batch_size=65536
    ).union(
        ray.data.read_parquet(f"{stage}/new").map_batches(
            norm_new, batch_format="pyarrow", batch_size=65536
        )
    )
    out = (
        bucketed_sum(ds, ["day_start"], ["n_events", "cents"])
        .to_pandas()
        .sort_values("day_start")
        .reset_index(drop=True)
    )
    shutil.rmtree(stage, ignore_errors=True)
    return out.astype({"n_events": "int64", "cents": "int64"})


I10_SQL = """
SELECT date_trunc('day', ts) AS day_start,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS cents
FROM events GROUP BY 1 ORDER BY 1
"""


def x14_keyset_pagination(sf_dir: str, page_size: int = 10, page: int = 3):
    """Keyset (seek-cursor) pagination: page ``page`` of the listing
    ORDER BY (o_orderdate, o_orderkey) fetched WITHOUT an OFFSET scan
    — pass 1 derives the cursor (the last tuple of the previous
    pages) from a bounded local-top-k pool, pass 2 filters strictly
    beyond the cursor AT THE SCAN and pools a fresh top-``page_size``
    — the deep-pagination discipline that keeps page N as cheap as
    page 1 (OFFSET re-reads and re-sorts N*page_size rows every
    request).

    Scale shape: two streaming passes, each with per-batch local
    top-k pools bounding the driver merge to blocks x k rows — zero
    shuffles, no global sort."""
    skip = page_size * (page - 1)

    ds = _read(
        sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_totalprice"]
    )

    def pool(k: int, cursor=None):
        def f(batch: pa.Table) -> pd.DataFrame:
            df = pd.DataFrame(
                {
                    "o_orderkey": batch["o_orderkey"].to_numpy(
                        zero_copy_only=False
                    ),
                    "d_us": batch["o_orderdate"]
                    .cast(pa.int64())
                    .to_numpy(zero_copy_only=False),
                    "cents": _cents(
                        batch["o_totalprice"].to_numpy(zero_copy_only=False)
                    ),
                }
            )
            if cursor is not None:
                cd, ck = cursor
                keep = (df["d_us"] > cd) | (
                    (df["d_us"] == cd) & (df["o_orderkey"] > ck)
                )
                df = df.loc[keep]
            return df.sort_values(["d_us", "o_orderkey"]).head(k)

        return f

    head = (
        ds.map_batches(pool(skip), batch_format="pyarrow", batch_size=65536)
        .to_pandas()
        .sort_values(["d_us", "o_orderkey"])
        .head(skip)
    )
    cursor = (int(head["d_us"].iloc[-1]), int(head["o_orderkey"].iloc[-1]))
    pg = (
        ds.map_batches(
            pool(page_size, cursor), batch_format="pyarrow", batch_size=65536
        )
        .to_pandas()
        .sort_values(["d_us", "o_orderkey"])
        .head(page_size)
        .reset_index(drop=True)
    )
    pg["o_orderdate"] = pd.Series(
        pa.array(pg["d_us"].to_numpy(np.int64), pa.timestamp("us")).to_pandas()
    )
    return pg[["o_orderkey", "o_orderdate", "cents"]].astype(
        {"o_orderkey": "int64", "cents": "int64"}
    )


X14_SQL = """
SELECT o_orderkey, o_orderdate,
       CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
FROM orders ORDER BY o_orderdate, o_orderkey
LIMIT 10 OFFSET 20
"""


def i11_write_audit_publish(sf_dir: str):
    """Write-Audit-Publish (the lakehouse WAP / staging-branch
    pattern): the per-(day, event_type) aggregate is WRITTEN to an
    audit directory, AUDITED against an independently computed
    row-count invariant plus structural constraints (no null keys, no
    duplicate key pairs), then atomically PUBLISHED by directory
    rename; the returned result is read back from the published
    location — consumers can never observe unaudited data.

    Scale shape: the aggregate itself is one bucketed sum bounded by
    day x type cardinality; the audit reads only the staged
    (dimension-sized) output plus one count aggregate of the source;
    publish is a metadata-only rename."""
    import os as _os
    import shutil

    import pyarrow.parquet as _pq

    from .stages.agg import bucketed_sum

    root = (
        "/tmp/naer_wap/"
        f"{_os.getpid()}-{_os.path.basename(sf_dir.rstrip('/'))}"
    )
    shutil.rmtree(root, ignore_errors=True)
    audit_dir, pub_dir = f"{root}/audit", f"{root}/published"
    _os.makedirs(audit_dir)

    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def prep(batch: pa.Table) -> pd.DataFrame:
        day = pc.floor_temporal(batch["ts"], unit="day")
        df = pd.DataFrame(
            {
                "day_start": day.to_pandas(),
                "event_type": batch["event_type"].to_pandas(),
                "n_events": np.int64(1),
            }
        )
        return df.groupby(
            ["day_start", "event_type"], as_index=False
        )["n_events"].sum()

    agg = (
        bucketed_sum(
            ds.map_batches(prep, batch_format="pyarrow", batch_size=65536),
            ["day_start", "event_type"],
            ["n_events"],
        )
        .to_pandas()
        .sort_values(["day_start", "event_type"])
        .reset_index(drop=True)
        .astype({"n_events": "int64"})
    )
    _pq.write_table(
        pa.Table.from_pandas(agg, preserve_index=False),
        f"{audit_dir}/part-0.parquet",
    )

    # audit: independent source count + structural constraints
    staged = _pq.read_table(f"{audit_dir}/part-0.parquet").to_pandas()
    src_rows = ds.count()
    if int(staged["n_events"].sum()) != src_rows:
        raise RuntimeError("WAP audit failed: row-count conservation")
    if staged[["day_start", "event_type"]].isna().any().any():
        raise RuntimeError("WAP audit failed: null partition key")
    if staged.duplicated(["day_start", "event_type"]).any():
        raise RuntimeError("WAP audit failed: duplicate key pair")

    _os.rename(audit_dir, pub_dir)  # atomic publish
    out = _pq.read_table(f"{pub_dir}/part-0.parquet").to_pandas()
    shutil.rmtree(root, ignore_errors=True)
    return out.astype({"n_events": "int64"})


I11_SQL = """
SELECT date_trunc('day', ts) AS day_start, event_type,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM events GROUP BY 1, 2 ORDER BY 1, 2
"""


def p06_token_budget_trim(
    sf_dir: str, budget: int = 40, head: int = 25, tail: int = 15
):
    """Context-window trimming plan: documents over a ``budget``-token
    limit keep their first ``head`` and last ``tail`` tokens (the
    head+tail truncation LLM data loaders apply before tokenization);
    emits per over-budget doc the token count and the EXACT kept
    character length (token bytes + single-space separators) — the
    byte-accounting a packing planner (p01) needs downstream.

    Scale shape: one streaming pass; token lengths come from one
    vectorized utf8_length over the flattened split, per-row head/tail
    sums are two prefix-array lookups — no shuffle, rows out are only
    the over-budget docs."""
    from .stages.text import _string_array

    def scan(batch: pa.Table) -> pd.DataFrame:
        txt = _string_array(batch["text"])
        n = len(txt)
        split = pc.split_pattern(txt, " ")
        offs = split.offsets.to_numpy()
        lens = pc.utf8_length(split.flatten()).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        n_tok = np.diff(offs)
        P = np.concatenate(([0], np.cumsum(lens)))
        s, e = offs[:-1], offs[1:]
        over = n_tok > budget
        head_sum = P[s + head] - P[s]
        tail_sum = P[e] - P[e - tail]
        kept = head_sum + tail_sum + (head + tail - 1)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(zero_copy_only=False)[
                    over
                ],
                "n_tok": n_tok[over],
                "kept_chars": kept[over],
            }
        )

    out = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(scan, batch_format="pyarrow", batch_size=8192)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    return out.astype(
        {"doc_id": "int64", "n_tok": "int64", "kept_chars": "int64"}
    )


P06_SQL = """
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
s AS (
  SELECT doc_id, len(toks) AS n_tok,
         length(array_to_string(toks[1:25], ' '))
           + 1
           + length(array_to_string(toks[len(toks) - 14:len(toks)], ' '))
           AS kept_chars
  FROM t WHERE len(toks) > 40)
SELECT doc_id, CAST(n_tok AS BIGINT) AS n_tok,
       CAST(kept_chars AS BIGINT) AS kept_chars
FROM s ORDER BY doc_id
"""


def s16_sorted_run_topk(sf_dir: str, n_runs: int = 8, k: int = 20):
    """Merge-on-read top-k over INDEPENDENTLY sorted runs with
    zone-map early termination (the LSM / sorted-ingest read shape):
    orders stage as ``n_runs`` hash-split files, EACH internally
    sorted by (o_orderdate, o_orderkey) and written with small row
    groups; the reader walks row groups in ascending zone-map (min)
    order and STOPS as soon as the k-th best row in hand beats every
    unread group's min — self-gated to prove it read strictly fewer
    row groups than exist.

    Scale shape: the manifest is row-group-sized metadata (footer
    stats only); each step reads ONE row group; the candidate heap
    never exceeds k + one row group."""
    import heapq
    import os as _os
    import shutil

    import pyarrow.parquet as _pq
    import ray.data

    stage = (
        "/tmp/naer_sorted_runs/"
        f"{_os.getpid()}-{_os.path.basename(sf_dir.rstrip('/'))}"
    )
    shutil.rmtree(stage, ignore_errors=True)
    _os.makedirs(stage)
    src = _pq.read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_totalprice"],
    )
    keys = src["o_orderkey"].to_numpy()
    for r in range(n_runs):
        part = src.filter(pa.array(keys % n_runs == r)).sort_by(
            [("o_orderdate", "ascending"), ("o_orderkey", "ascending")]
        )
        if part.num_rows:
            _pq.write_table(
                part, f"{stage}/run-{r}.parquet", row_group_size=64
            )
    paths = sorted(f"{stage}/{nm}" for nm in _os.listdir(stage))

    # manifest: (path, group index, zone-map min tuple) from footers only
    def manifest_rows(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for p in batch["item"]:
            md = _pq.ParquetFile(p).metadata
            cols = {
                md.row_group(0).column(i).path_in_schema: i
                for i in range(md.num_columns)
            }
            for g in range(md.num_row_groups):
                rg = md.row_group(g)
                dmin = rg.column(cols["o_orderdate"]).statistics.min
                kmin = rg.column(cols["o_orderkey"]).statistics.min
                rows.append((p, g, int(dmin.timestamp() * 1e6), int(kmin)))
        return pd.DataFrame(rows, columns=["path", "grp", "d_min", "k_min"])

    man = (
        ray.data.from_items(paths)
        .map_batches(manifest_rows, batch_format="pandas")
        .to_pandas()
        .sort_values(["d_min", "k_min"])
        .reset_index(drop=True)
    )
    n_groups_total = len(man)

    heap: list = []  # max-heap of the best k rows via negated keys
    read = 0
    for m in man.itertuples():
        if len(heap) == k and (-heap[0][0], -heap[0][1]) <= (
            m.d_min, m.k_min
        ):
            break  # every unread group's min is beyond the current k-th
        t = _pq.ParquetFile(m.path).read_row_group(m.grp)
        read += 1
        d = t["o_orderdate"].cast(pa.int64()).to_numpy()
        kk = t["o_orderkey"].to_numpy(zero_copy_only=False)
        c = _cents(t["o_totalprice"].to_numpy(zero_copy_only=False))
        for i in range(t.num_rows):
            item = (-int(d[i]), -int(kk[i]), -int(c[i]))
            if len(heap) < k:
                heapq.heappush(heap, item)
            elif item > heap[0]:
                heapq.heapreplace(heap, item)
    if not (0 < read < n_groups_total):
        raise RuntimeError(
            f"zone-map termination ineffective: read {read}/{n_groups_total}"
        )
    shutil.rmtree(stage, ignore_errors=True)
    rows = sorted((-a, -b, -c) for a, b, c in heap)
    return pd.DataFrame(
        {
            "o_orderkey": pd.Series([r[1] for r in rows], dtype="int64"),
            "o_orderdate": pd.Series(
                pa.array([r[0] for r in rows], pa.timestamp("us")).to_pandas()
            ),
            "cents": pd.Series([r[2] for r in rows], dtype="int64"),
        }
    )


S16_SQL = """
SELECT o_orderkey, o_orderdate,
       CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
FROM orders ORDER BY o_orderdate, o_orderkey LIMIT 20
"""


def e11_relation_cardinality(sf_dir: str):
    """KG relation-cardinality audit: per subject entity of the
    ``precedes`` relation (e02's adjacency triples) — total pair
    occurrences, distinct objects, the hottest object and its count
    (tie: lexicographically smallest object) — the 1:N fan-out
    profile that decides whether a predicate is functional enough to
    canonicalize or needs hot-key salting (SURVEY §4).

    Scale shape: composes e02's vectorized bincount kernel; the fold
    from the K^2-bounded pair table to K subject rows is driver-side
    arithmetic on a dictionary-sized frame."""
    pairs = e02_adjacent_relations(sf_dir)
    top = pairs.sort_values(
        ["subj", "n", "obj"], ascending=[True, False, True]
    ).groupby("subj", as_index=False).first()
    agg = pairs.groupby("subj", as_index=False).agg(
        n_pairs=("n", "sum"), n_obj=("obj", "nunique")
    )
    out = agg.merge(
        top[["subj", "obj", "n"]].rename(
            columns={"obj": "top_obj", "n": "top_n"}
        ),
        on="subj",
    )
    return out.sort_values("subj").reset_index(drop=True).astype(
        {"n_pairs": "int64", "n_obj": "int64", "top_n": "int64"}
    )


E11_SQL = f"""
WITH w AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
p AS (
  SELECT ws[CAST(j AS INT)] AS subj, ws[CAST(j AS INT) + 1] AS obj
  FROM w, LATERAL unnest(generate_series(1, len(ws) - 1)) AS t(j)),
d(entity) AS (VALUES {", ".join(f"('{e}')" for e in KG_ENTITIES)}),
pc AS (
  SELECT subj, obj, CAST(COUNT(*) AS BIGINT) AS n
  FROM p
  WHERE subj IN (SELECT entity FROM d) AND obj IN (SELECT entity FROM d)
  GROUP BY subj, obj),
rk AS (
  SELECT subj, obj, n,
         ROW_NUMBER() OVER (PARTITION BY subj ORDER BY n DESC, obj) AS r
  FROM pc)
SELECT pc.subj, CAST(SUM(pc.n) AS BIGINT) AS n_pairs,
       CAST(COUNT(DISTINCT pc.obj) AS BIGINT) AS n_obj,
       MAX(CASE WHEN rk.r = 1 THEN rk.obj END) AS top_obj,
       CAST(MAX(CASE WHEN rk.r = 1 THEN rk.n END) AS BIGINT) AS top_n
FROM pc JOIN rk ON pc.subj = rk.subj AND pc.obj = rk.obj
GROUP BY pc.subj ORDER BY pc.subj
"""


def p07_epoch_shuffle(sf_dir: str, k: int = 10):
    """Deterministic training-EPOCH shuffle plan: each epoch orders
    the corpus by the modular bijection ``(doc_id * A_e) % M``
    (M prime > any doc_id, A_e coprime to M) — a seeded, reproducible,
    coordination-free permutation every data loader can compute
    locally, with provably different inter-epoch order; emits the
    first ``k`` docs of epochs 1 and 2.

    Scale shape: one streaming pass per epoch computes the key and
    pools a local top-k per batch — zero shuffles; the full epoch
    ordering at scale is a key-ranged write, never a global sort on
    the driver."""
    M = np.int64(1_000_000_007)
    A = {1: np.int64(2_654_435_761 % M), 2: np.int64(40_503)}

    def pool(a):
        def f(batch: pa.Table) -> pd.DataFrame:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            key = (ids * a) % M
            df = pd.DataFrame({"doc_id": ids, "key": key})
            return df.sort_values(["key", "doc_id"]).head(k)

        return f

    ds = _read(sf_dir, "documents", ["doc_id"])
    frames = []
    for epoch, a in A.items():
        top = (
            ds.map_batches(pool(a), batch_format="pyarrow", batch_size=65536)
            .to_pandas()
            .sort_values(["key", "doc_id"])
            .head(k)
            .reset_index(drop=True)
        )
        top.insert(0, "epoch", np.int64(epoch))
        top.insert(1, "rank", np.arange(1, len(top) + 1, dtype=np.int64))
        frames.append(top)
    out = pd.concat(frames, ignore_index=True)
    return out[["epoch", "rank", "doc_id", "key"]].astype(
        {c: "int64" for c in ["epoch", "rank", "doc_id", "key"]}
    )


P07_SQL = """
WITH e1 AS (
  SELECT 1 AS epoch,
         CAST(ROW_NUMBER() OVER (
           ORDER BY (doc_id * (2654435761 % 1000000007)) % 1000000007,
                    doc_id) AS BIGINT) AS rank,
         doc_id,
         CAST((doc_id * (2654435761 % 1000000007)) % 1000000007 AS BIGINT)
           AS key
  FROM documents),
e2 AS (
  SELECT 2 AS epoch,
         CAST(ROW_NUMBER() OVER (
           ORDER BY (doc_id * 40503) % 1000000007, doc_id) AS BIGINT)
           AS rank,
         doc_id, CAST((doc_id * 40503) % 1000000007 AS BIGINT) AS key
  FROM documents)
SELECT CAST(epoch AS BIGINT) AS epoch, rank, doc_id, key
FROM (SELECT * FROM e1 WHERE rank <= 10
      UNION ALL SELECT * FROM e2 WHERE rank <= 10)
ORDER BY epoch, rank
"""


def v09_table_checksum(sf_dir: str):
    """Order-independent table CONTENT checksum (the replication /
    migration integrity probe): per row a polynomial fingerprint
    ``(o_orderkey * 2654435761 + cents) % 1000000007`` summed as plain
    int64 — commutative, so any partitioning, block order or executor
    schedule yields the SAME value, and any single-row corruption
    (dropped, duplicated, or value-flipped) changes it.

    Scale shape: one streaming pass, one vectorized modular fingerprint
    per batch, a scalar partial per block — zero shuffle."""
    M = np.int64(1_000_000_007)
    A = np.int64(2_654_435_761 % M)

    def part(batch: pa.Table) -> pa.Table:
        k = batch["o_orderkey"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        cents = _cents(batch["o_totalprice"].to_numpy(zero_copy_only=False))
        fp = ((k % M) * A + cents % M) % M
        return pa.table(
            {
                "n_rows": pa.array([len(k)], pa.int64()),
                "checksum": pa.array([int(fp.sum())], pa.int64()),
            }
        )

    parts = (
        _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
        .map_batches(part, batch_format="pyarrow", batch_size=65536)
        .to_pandas()
    )
    return pd.DataFrame([parts.sum()]).astype("int64")[
        ["n_rows", "checksum"]
    ]


V09_SQL = """
SELECT CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(SUM(((o_orderkey % 1000000007) * (2654435761 % 1000000007)
                 + CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                   % 1000000007) % 1000000007) AS BIGINT) AS checksum
FROM orders
"""


def q42_grouped_concat(sf_dir: str):
    """Deterministic ordered string aggregation (``string_agg ...
    ORDER BY``): per nation the comma-joined, alphabetically sorted
    list of DISTINCT market segments among its customers — the
    list-valued rollup (array_agg) that plain aggregates cannot
    express and that is only reproducible WITH an explicit order.

    Scale shape: the distinct (nation, segment) reduce bounds the
    exchange by dimension cardinality; the join-to-string fold runs on
    that dimension-sized table on the driver."""
    from .stages.agg import bucketed_sum

    ds = _read(sf_dir, "customer", ["c_nationkey", "c_mktsegment"])

    def prep(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "c_nationkey": batch["c_nationkey"].to_numpy(
                    zero_copy_only=False
                ),
                "seg": batch["c_mktsegment"].to_pandas(),
                "one": np.int64(1),
            }
        )
        return df.drop_duplicates(["c_nationkey", "seg"])

    pairs = (
        bucketed_sum(
            ds.map_batches(prep, batch_format="pyarrow", batch_size=65536),
            ["c_nationkey", "seg"],
            ["one"],
        )
        .to_pandas()
        .sort_values(["c_nationkey", "seg"])
    )
    out = pairs.groupby("c_nationkey", as_index=False).agg(
        segments=("seg", lambda s: ",".join(s)),
        n_segments=("seg", "size"),
    )
    return out.sort_values("c_nationkey").reset_index(drop=True).astype(
        {"c_nationkey": "int64", "n_segments": "int64"}
    )


Q42_SQL = """
SELECT c_nationkey,
       string_agg(DISTINCT c_mktsegment, ',' ORDER BY c_mktsegment)
         AS segments,
       CAST(COUNT(DISTINCT c_mktsegment) AS BIGINT) AS n_segments
FROM customer GROUP BY c_nationkey ORDER BY c_nationkey
"""


REGISTRY: dict[str, tuple] = {
    "q01_pricing_summary": (q01_pricing_summary, Q01_SQL),
    "q02_top_revenue_orders": (q02_top_revenue_orders, Q02_SQL),
    "q03_orders_by_segment": (q03_orders_by_segment, Q03_SQL),
    "q04_supplier_region": (q04_supplier_region, Q04_SQL),
    "q05_filtered_revenue": (q05_filtered_revenue, Q05_SQL),
    "q06_distinct_flags": (q06_distinct_flags, Q06_SQL),
    "q07_sessionize": (q07_sessionize, Q07_SQL),
    "q08_tumbling_hour": (q08_tumbling_hour, Q08_SQL),
    "q09_doc_token_stats": (q09_doc_token_stats, Q09_SQL),
    "q10_doc_quality": (q10_doc_quality, Q10_SQL),
    "q11_dedup_exact": (q11_dedup_exact, Q11_SQL),
    "q12_lang_source_counts": (q12_lang_source_counts, Q12_SQL),
    "q13_ann_topk": (q13_ann_topk, Q13_SQL),
    "q18_native_hash_join": (q18_native_hash_join, Q18_SQL),
    "q19_semi_anti_join": (q19_semi_anti_join, Q19_SQL),
    "q20_sliding_window": (q20_sliding_window, Q20_SQL),
    "q21_distinct_count": (q21_distinct_count, Q21_SQL),
    "q22_hll_distinct": (q22_hll_distinct, Q22_SQL),
    "q23_asof_join": (q23_asof_join, Q23_SQL),
    "q25_streaming_sessionize": (q25_streaming_sessionize, Q07_SQL),
    "q24_grouped_topk": (q24_grouped_topk, Q24_SQL),
    "q26_range_join": (q26_range_join, Q26_SQL),
    "d01_minhash_planted_pairs": (d01_minhash_planted_pairs, D01_SQL),
    "d02_simhash_pairs": (d02_simhash_pairs, D02_SQL),
    "d03_embedding_neardup": (d03_embedding_neardup, D03_SQL),
    "d04_embedding_clusters": (d04_embedding_clusters, D04_SQL),
    "d05_ngram_jaccard_pairs": (d05_ngram_jaccard_pairs, D05_SQL),
    "t01_lang_id": (t01_lang_id, T01_SQL),
    "t02_fingerprints": (t02_fingerprints, D01_SQL),
    "t03_quality": (t03_quality, T03_SQL),
    "a01_lsh_topk": (a01_lsh_topk, ANN_RECALL_SQL),
    "a02_ivf_topk": (a02_ivf_topk, ANN_RECALL_SQL),
    "a03_brute_topk_multi": (a03_brute_topk_multi, A03_SQL),
    "m01_multimodal_features": (m01_multimodal_features, M01_SQL),
    "m02_resize_plan": (m02_resize_plan, M02_SQL),
    "m03_frame_sample_plan": (m03_frame_sample_plan, M03_SQL),
    "m04_audio_features": (m04_audio_features, M04_SQL),
    "m05_audio_frames": (m05_audio_frames, M05_SQL),
    "s01_hash_sample": (s01_hash_sample, S01_SQL),
    "t04_token_quantiles": (t04_token_quantiles, T04_SQL),
    "p01_pack_plan": (p01_pack_plan, P01_SQL),
    "s02_bottomk_sample": (s02_bottomk_sample, S02_SQL),
    "w01_weighted_mixture": (w01_weighted_mixture, W01_SQL),
    "t05_tfidf_top_terms": (t05_tfidf_top_terms, T05_SQL),
    "k01_kmeans_clusters": (k01_kmeans_clusters, K01_SQL),
    "b01_bpe_merges": (b01_bpe_merges, B01_SQL),
    "s03_stratified_sample": (s03_stratified_sample, S03_SQL),
    "n01_group_zscore": (n01_group_zscore, N01_SQL),
    "t06_normalize_text": (t06_normalize_text, T06_SQL),
    "t07_pii_redact": (t07_pii_redact, T07_SQL),
    "t08_gopher_rules": (t08_gopher_rules, T08_SQL),
    "p02_chunk_plan": (p02_chunk_plan, P02_SQL),
    "d06_decontaminate": (d06_decontaminate, D06_SQL),
    "d07_priority_dedup": (d07_priority_dedup, D07_SQL),
    "w02_user_gaps": (w02_user_gaps, W02_SQL),
    "r01_rollup_agg": (r01_rollup_agg, R01_SQL),
    "t09_c4_line_rules": (t09_c4_line_rules, T09_SQL),
    "d08_line_dedup": (d08_line_dedup, D08_SQL),
    "q29_heavy_hitters": (q29_heavy_hitters, Q29_SQL),
    "w03_running_revenue": (w03_running_revenue, W03_SQL),
    "t10_rep_ngrams": (t10_rep_ngrams, T10_SQL),
    "q30_set_ops": (q30_set_ops, Q30_SQL),
    "q33_full_outer_join": (q33_full_outer_join, Q33_SQL),
    "n02_group_corr": (n02_group_corr, N02_SQL),
    "w08_dense_rank": (w08_dense_rank, W08_SQL),
    "q32_grouped_hll": (q32_grouped_hll, Q32_SQL),
    "e01_json_extract": (e01_json_extract, E01_SQL),
    "e02_adjacent_relations": (e02_adjacent_relations, E02_SQL),
    "e03_entity_pmi": (e03_entity_pmi, E03_SQL),
    "u01_url_stats": (u01_url_stats, U01_SQL),
    "g04_bfs_levels": (g04_bfs_levels, G04_SQL),
    "b02_bpe_encode": (b02_bpe_encode, B02_SQL),
    "a05_quantized_topk": (a05_quantized_topk, ANN_RECALL_SQL),
    "m06_image_dedup": (m06_image_dedup, M06_SQL),
    "e04_triple_spans": (e04_triple_spans, E04_SQL),
    "p03_curation_pipeline": (p03_curation_pipeline, P03_SQL),
    "a06_mmr_select": (a06_mmr_select, A06_SQL),
    "g01_pagerank": (g01_pagerank, G01_SQL),
    "r03_pivot": (r03_pivot, R03_SQL),
    "s04_global_shuffle": (s04_global_shuffle, S04_SQL),
    "q31_quantile_sketch": (q31_quantile_sketch, Q31_SQL),
    "r02_cube_agg": (r02_cube_agg, R02_SQL),
    "w04_order_ntile": (w04_order_ntile, W04_SQL),
    "w05_funnel": (w05_funnel, W05_SQL),
    "w06_retention_cohorts": (w06_retention_cohorts, W06_SQL),
    "w07_activity_streaks": (w07_activity_streaks, W07_SQL),
    "i01_scd2_intervals": (i01_scd2_intervals, I01_SQL),
    "i02_cdc_merge": (i02_cdc_merge, I02_SQL),
    "v01_constraint_violations": (v01_constraint_violations, V01_SQL),
    "t11_unigram_lm": (t11_unigram_lm, T11_SQL),
    "g02_triangle_count": (g02_triangle_count, G02_SQL),
    "g03_link_prediction": (g03_link_prediction, G03_SQL),
    "t12_mad_outliers": (t12_mad_outliers, T12_SQL),
    "d09_edit_distance_pairs": (d09_edit_distance_pairs, D09_SQL),
    "a04_knn_graph": (a04_knn_graph, A04_SQL),
    "d10_semantic_dedup": (d10_semantic_dedup, D10_SQL),
    "d11_incremental_dedup": (d11_incremental_dedup, D11_SQL),
    "d12_duplicated_spans": (d12_duplicated_spans, D12_SQL),
    "m07_png_features": (m07_png_features, M07_SQL),
    "j01_asof_join": (j01_asof_join, J01_SQL),
    "m08_jpeg_features": (m08_jpeg_features, M08_SQL),
    "d13_winnowed_spans": (d13_winnowed_span_pairs, D13_SQL),
    "d14_bloom_decontaminate": (d14_bloom_decontaminate, D06_SQL),
    "m09_bmp_features": (m09_bmp_features, M09_SQL),
    "a07_pq_topk": (a07_pq_topk, ANN_RECALL_SQL),
    "a08_pq_indexed": (a08_pq_indexed, ANN_RECALL_SQL),
    "j02_set_similarity_join": (j02_set_similarity_join, J02_SQL),
    "j03_setsim_incremental": (j03_setsim_incremental, J02_SQL),
    "m10_mjpeg_frames": (m10_mjpeg_frames, M10_SQL),
    "s05_global_sort": (s05_global_sort, S05_SQL),
    "d15_remove_duplicated_spans": (d15_remove_duplicated_spans, D15_SQL),
    "t13_blocklist_hits": (t13_blocklist_hits, T13_SQL),
    "m11_image_profile_neardup": (m11_image_profile_neardup, M11_SQL),
    "t14_hashed_classifier": (t14_hashed_classifier, T14_SQL),
    "d16_dsir_importance": (d16_dsir_importance, D16_SQL),
    "x01_inverted_index_search": (x01_inverted_index_search, X01_SQL),
    "x02_bm25_topk": (x02_bm25_topk, X02_SQL),
    "t15_bigram_lm": (t15_bigram_lm, T15_SQL),
    "d17_url_canonical_dedup": (d17_url_canonical_dedup, D17_SQL),
    "g05_connected_components": (g05_connected_components, G05_SQL),
    "d18_neardup_dedup_apply": (d18_neardup_dedup_apply, D18_SQL),
    "w09_windowed_dedup": (w09_windowed_dedup, W09_SQL),
    "d19_soft_dedup": (d19_soft_dedup, D19_SQL),
    "x03_phrase_search": (x03_phrase_search, X03_SQL),
    "m12_audio_decimate": (m12_audio_decimate, M12_SQL),
    "j04_interval_join": (j04_interval_join, J04_SQL),
    "i03_late_events": (i03_late_events, I03_SQL),
    "t16_token_drift": (t16_token_drift, T16_SQL),
    "s06_schema_evolution": (s06_schema_evolution, S06_SQL),
    "x04_inverted_incremental": (x04_inverted_incremental, X01_SQL),
    "m13_image_downsample": (m13_image_downsample, M13_SQL),
    "r04_grouping_sets": (r04_grouping_sets, R04_SQL),
    "r05_unpivot": (r05_unpivot, R05_SQL),
    "q34_exists_filter": (q34_exists_filter, Q34_SQL),
    "q35_salted_skew_agg": (q35_salted_skew_agg, Q35_SQL),
    "w10_window_topn": (w10_window_topn, W10_SQL),
    "v02_fd_violations": (v02_fd_violations, V02_SQL),
    "x05_proximity_search": (x05_proximity_search, X05_SQL),
    "g06_friends_of_friends": (g06_friends_of_friends, G06_SQL),
    "m14_gray_histogram": (m14_gray_histogram, M14_SQL),
    "j05_star_join": (j05_star_join, J05_SQL),
    "s07_resumable_write": (s07_resumable_write, S07_SQL),
    "d20_containment_pairs": (d20_containment_pairs, D20_SQL),
    "a09_radius_search": (a09_radius_search, A09_SQL),
    "t17_ngram_novelty": (t17_ngram_novelty, T17_SQL),
    "n03_group_percentiles": (n03_group_percentiles, N03_SQL),
    "e05_window_cooccurrence": (e05_window_cooccurrence, E05_SQL),
    "i04_incremental_agg": (i04_incremental_agg, I04_SQL),
    "w11_rolling_window": (w11_rolling_window, W11_SQL),
    "x06_fuzzy_search": (x06_fuzzy_search, X06_SQL),
    "m15_audio_segments": (m15_audio_segments, M15_SQL),
    "x07_prefix_search": (x07_prefix_search, X07_SQL),
    "q36_top_percent": (q36_top_percent, Q36_SQL),
    "w12_gap_stats": (w12_gap_stats, W12_SQL),
    "s08_csv_roundtrip": (s08_csv_roundtrip, S08_SQL),
    "g07_copurchase_topk": (g07_copurchase_topk, G07_SQL),
    "x08_more_like_this": (x08_more_like_this, X08_SQL),
    "k02_kmeans_assign_persisted": (k02_kmeans_assign_persisted, K02_SQL),
    "j06_bloom_semi_join": (j06_bloom_semi_join, J06_SQL),
    "v03_schema_drift": (v03_schema_drift, V03_SQL),
    "m16_frame_diff": (m16_frame_diff, M16_SQL),
    "a10_filtered_vector_search": (a10_filtered_vector_search, A10_SQL),
    "i05_snapshot_diff": (i05_snapshot_diff, I05_SQL),
    "b03_vocab_coverage": (b03_vocab_coverage, B03_SQL),
    "w13_running_distinct": (w13_running_distinct, W13_SQL),
    "u02_host_cap": (u02_host_cap, U02_SQL),
    "v04_skew_report": (v04_skew_report, V04_SQL),
    "s09_zorder_layout": (s09_zorder_layout, S09_SQL),
    "v05_column_profile": (v05_column_profile, V05_SQL),
    "w14_transition_matrix": (w14_transition_matrix, W14_SQL),
    "n04_windowed_percentiles": (n04_windowed_percentiles, N04_SQL),
    "s10_stats_pruned_read": (s10_stats_pruned_read, S10_SQL),
    "p04_full_curation": (p04_full_curation, P04_SQL),
    "j07_skew_salted_join": (j07_skew_salted_join, J07_SQL),
    "n05_countmin_heavy_hitters": (n05_countmin_heavy_hitters, N05_SQL),
    "g08_kcore": (g08_kcore, G08_SQL),
    "e06_entity_profile": (e06_entity_profile, E06_SQL),
    "q37_multi_distinct_agg": (q37_multi_distinct_agg, Q37_SQL),
    "w15_interval_coverage": (w15_interval_coverage, W15_SQL),
    "t18_kwic": (t18_kwic, T18_SQL),
    "i06_time_travel": (i06_time_travel, I06_SQL),
    "x09_boolean_search": (x09_boolean_search, X09_SQL),
    "n06_weighted_median": (n06_weighted_median, N06_SQL),
    "w16_time_to_convert": (w16_time_to_convert, W16_SQL),
    "x10_rrf_hybrid": (x10_rrf_hybrid, X10_SQL),
    "g09_shortest_paths": (g09_shortest_paths, G09_SQL),
    "n07_group_regression": (n07_group_regression, N07_SQL),
    "q38_above_customer_avg": (q38_above_customer_avg, Q38_SQL),
    "u03_crawl_budget": (u03_crawl_budget, U03_SQL),
    "m17_tga_features": (m17_tga_features, M17_SQL),
    "w17_sliding_distinct": (w17_sliding_distinct, W17_SQL),
    "n08_grouped_mode": (n08_grouped_mode, N08_SQL),
    "e07_entity_density": (e07_entity_density, E07_SQL),
    "w18_session_paths": (w18_session_paths, W18_SQL),
    "r06_semiadditive_last": (r06_semiadditive_last, R06_SQL),
    "g10_degree_histogram": (g10_degree_histogram, G10_SQL),
    "j08_band_join": (j08_band_join, J08_SQL),
    "a11_embedding_dim_stats": (a11_embedding_dim_stats, A11_SQL),
    "w19_decay_score": (w19_decay_score, W19_SQL),
    "n09_benford_digits": (n09_benford_digits, N09_SQL),
    "p05_length_buckets": (p05_length_buckets, P05_SQL),
    "v06_order_audit": (v06_order_audit, V06_SQL),
    "k03_cluster_profile": (k03_cluster_profile, K03_SQL),
    "w20_calendar_profile": (w20_calendar_profile, W20_SQL),
    "v07_join_cardinality": (v07_join_cardinality, V07_SQL),
    "n10_ks_drift": (n10_ks_drift, N10_SQL),
    "v08_source_vocab_overlap": (v08_source_vocab_overlap, V08_SQL),
    "i07_bitemporal_asof": (i07_bitemporal_asof, I07_SQL),
    "q39_coverage_division": (q39_coverage_division, Q39_SQL),
    "s11_metadata_stats": (s11_metadata_stats, S11_SQL),
    "w21_gap_filled_series": (w21_gap_filled_series, W21_SQL),
    "n11_gini": (n11_gini, N11_SQL),
    "i08_snapshot_series": (i08_snapshot_series, I08_SQL),
    "x11_regex_search": (x11_regex_search, X11_SQL),
    "w22_attribution": (w22_attribution, W22_SQL),
    "n12_mannwhitney": (n12_mannwhitney, N12_SQL),
    "s12_compaction_plan": (s12_compaction_plan, S12_SQL),
    "a12_prefix_rerank": (a12_prefix_rerank, A12_SQL),
    "e08_entity_gap_stats": (e08_entity_gap_stats, E08_SQL),
    "q40_segment_activity": (q40_segment_activity, Q40_SQL),
    "n13_lag1_autocov": (n13_lag1_autocov, N13_SQL),
    "i09_deletion_vectors": (i09_deletion_vectors, I09_SQL),
    "g12_assortativity": (g12_assortativity, G12_SQL),
    "w23_rfm": (w23_rfm, W23_SQL),
    "n14_spearman": (n14_spearman, N14_SQL),
    "s13_bloom_pruned_read": (s13_bloom_pruned_read, S13_SQL),
    "m18_audio_zcr": (m18_audio_zcr, M18_SQL),
    "g13_local_clustering": (g13_local_clustering, G13_SQL),
    "t19_char_histogram": (t19_char_histogram, T19_SQL),
    "j10_nearest_event_join": (j10_nearest_event_join, J10_SQL),
    "m19_distinct_colors": (m19_distinct_colors, M19_SQL),
    "w24_survival_table": (w24_survival_table, W24_SQL),
    "e09_entity_burstiness": (e09_entity_burstiness, E09_SQL),
    "s14_partition_overwrite": (s14_partition_overwrite, S14_SQL),
    "a13_maxsim_multivector": (a13_maxsim_multivector, A13_SQL),
    "x12_tiered_search": (x12_tiered_search, X12_SQL),
    "r07_share_of_total": (r07_share_of_total, R07_SQL),
    "n15_chi2_contingency": (n15_chi2_contingency, N15_SQL),
    "s15_bitmap_index": (s15_bitmap_index, S15_SQL),
    "w25_peak_concurrency": (w25_peak_concurrency, W25_SQL),
    "q41_temporal_anti_join": (q41_temporal_anti_join, Q41_SQL),
    "x13_min_should_match": (x13_min_should_match, X13_SQL),
    "i10_partition_evolution": (i10_partition_evolution, I10_SQL),
    "x14_keyset_pagination": (x14_keyset_pagination, X14_SQL),
    "i11_write_audit_publish": (i11_write_audit_publish, I11_SQL),
    "p06_token_budget_trim": (p06_token_budget_trim, P06_SQL),
    "s16_sorted_run_topk": (s16_sorted_run_topk, S16_SQL),
    "e11_relation_cardinality": (e11_relation_cardinality, E11_SQL),
    "p07_epoch_shuffle": (p07_epoch_shuffle, P07_SQL),
    "v09_table_checksum": (v09_table_checksum, V09_SQL),
    "q42_grouped_concat": (q42_grouped_concat, Q42_SQL),
}
