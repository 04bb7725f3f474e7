"""Distributed join operators Ray Data lacks natively.

* :func:`asof_join` — each left row matches the LATEST right row (by
  the ``on`` time columns) with the same ``by`` key at or before the
  left time.
* :func:`range_join` — each left row matches EVERY right row with the
  same ``by`` key whose time lies within ``[left_on - upper,
  left_on - lower]`` (an interval/band join).

The reference has neither; both are training-pipeline additions
(SURVEY.md §2 extension surface).

Shared execution shape — bucketed co-partition, NO broadcast of the
fact table and NO per-key dispatch:

1. both sides get a deterministic key-hash ``__bucket`` column and a
   ``__side`` tag, padded to one explicit union schema (typed nulls —
   ad-hoc None padding yields Arrow null-typed columns whose promotion
   across blocks is not guaranteed);
2. ``union`` + one ``groupby("__bucket")`` shuffle co-locates every
   key's left AND right rows (O(n_buckets) Ray groups, the repo's
   bucket-run rule);
3. a per-bucket vectorized pandas kernel (``merge_asof`` / ``merge`` +
   band filter).

The partitioning assumption: a single bucket's rows fit in one
worker's heap — n_buckets scales with data volume, and key-hash
bucketing keeps skew bounded unless one single key dominates (salt
that key upstream if so).  For a SMALL right side prefer a broadcast
build (``ray.put`` + lookup inside ``map_batches``); these operators
exist for the case where both sides are large.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _bucket_of(series: pd.Series, n_buckets: int) -> np.ndarray:
    if pd.api.types.is_integer_dtype(series):
        return (series.to_numpy().astype(np.int64) % n_buckets).astype(np.int32)
    from naer_ray.hashing import _bucket_series

    return _bucket_series(series, n_buckets)


def _arrow_schema(ds) -> pa.Schema:
    """Arrow schema of a Dataset; pandas-block datasets expose a
    PandasBlockSchema (name/dtype lists), which is converted."""
    s = ds.schema()
    base = getattr(s, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    fields = []
    for name, typ in zip(s.names, s.types):
        if isinstance(typ, pa.DataType):
            fields.append((name, typ))
        else:
            try:
                fields.append((name, pa.from_numpy_dtype(typ)))
            except (pa.ArrowNotImplementedError, TypeError):
                fields.append((name, pa.string()))
    return pa.schema(fields)


def _co_partitioned(left_ds, right_ds, left_by: str, right_by: str, n_buckets: int):
    """Tag + pad + union + schemas for a bucketed co-partition (see
    module docstring).  Returns (tagged_ds, left_cols, right_cols,
    restore) where ``restore`` re-casts integer columns that the padded
    union surfaced as float64."""
    left_schema: pa.Schema = _arrow_schema(left_ds)
    right_schema: pa.Schema = _arrow_schema(right_ds)
    left_cols = list(left_schema.names)
    right_cols = list(right_schema.names)
    clash = set(left_cols) & set(right_cols)
    if clash:
        raise ValueError(f"co-partitioned join requires disjoint column names, got {clash}")
    int_cols = {
        f.name
        for schema in (left_schema, right_schema)
        for f in schema
        if pa.types.is_integer(f.type)
    }
    union_fields = (
        [left_schema.field(c) for c in left_cols]
        + [right_schema.field(c) for c in right_cols]
        + [pa.field("__bucket", pa.int32()), pa.field("__side", pa.int8())]
    )
    union_schema = pa.schema(union_fields)

    def tag(side: int, by_col: str, own_schema: pa.Schema):
        def f(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            by_pd = batch[by_col].to_pandas()
            bucket = pa.array(_bucket_of(by_pd, n_buckets), pa.int32())
            cols = []
            for field in union_fields:
                if field.name == "__bucket":
                    cols.append(bucket)
                elif field.name == "__side":
                    cols.append(pa.array(np.full(n, side, np.int8()), pa.int8()))
                elif field.name in own_schema.names:
                    cols.append(batch[field.name].cast(field.type))
                else:
                    cols.append(pa.nulls(n, field.type))
            return pa.Table.from_arrays(cols, schema=union_schema)

        return f

    tagged = left_ds.map_batches(
        tag(0, left_by, left_schema), batch_format="pyarrow"
    ).union(
        right_ds.map_batches(tag(1, right_by, right_schema), batch_format="pyarrow")
    )

    def restore(df: pd.DataFrame) -> pd.DataFrame:
        # originally-integer columns surface as float64 from the padded
        # union; restore int64 where clean, nullable Int64 where the
        # input itself had nulls (astype(int64) on NaN raises and fails
        # the whole bucket kernel — ADVICE r2)
        casts = {}
        for c in df.columns:
            if c in int_cols and not pd.api.types.is_integer_dtype(df[c]):
                casts[c] = "Int64" if df[c].isna().any() else np.int64
        return df.astype(casts) if casts else df

    return tagged, left_cols, right_cols, restore


def asof_join(
    left_ds,
    right_ds,
    *,
    left_on: str,
    right_on: str,
    left_by: str,
    right_by: str,
    n_buckets: int = 64,
    direction: str = "backward",
    allow_exact_matches: bool = True,
    right_prepare=None,
):
    """Bucketed distributed as-of join; returns a Dataset of left rows
    plus the matched right columns (NaN/NaT where unmatched).

    Column names of the two sides must be disjoint.  ``right_prepare``
    (optional) runs per bucket on the right-side frame BEFORE the
    merge — because ALL rows of a key share a bucket, per-key global
    reductions (e.g. dedup order-date ties to the max price) are exact
    when computed there.
    """
    tagged, left_cols, right_cols, restore = _co_partitioned(
        left_ds, right_ds, left_by, right_by, n_buckets
    )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        ev = restore(group.loc[group["__side"] == 0, left_cols])
        od = restore(group.loc[group["__side"] == 1, right_cols])
        if right_prepare is not None:
            od = right_prepare(od)
        ev = ev.sort_values([left_on, left_by], kind="mergesort")
        od = od.sort_values([right_on, right_by], kind="mergesort")
        return pd.merge_asof(
            ev,
            od,
            left_on=left_on,
            right_on=right_on,
            left_by=left_by,
            right_by=right_by,
            direction=direction,
            allow_exact_matches=allow_exact_matches,
        )

    return tagged.groupby("__bucket").map_groups(merge, batch_format="pandas")


def range_join(
    left_ds,
    right_ds,
    *,
    left_on: str,
    right_on: str,
    left_by: str,
    right_by: str,
    lower,
    upper,
    n_buckets: int = 64,
    right_prepare=None,
):
    """Bucketed distributed range (band) join: INNER-join rows with equal
    ``by`` keys where ``lower <= left[left_on] - right[right_on] <=
    upper`` (pass pd.Timedelta bounds for timestamp columns).  Returns
    left+right columns per matching combination.

    Per-bucket cost is the per-key equi-join volume filtered by the
    band, so a key's cost is (its left rows) x (its right rows) — keep
    per-key cardinalities bounded or pre-reduce with right_prepare.
    """
    tagged, left_cols, right_cols, restore = _co_partitioned(
        left_ds, right_ds, left_by, right_by, n_buckets
    )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        ev = restore(group.loc[group["__side"] == 0, left_cols])
        od = restore(group.loc[group["__side"] == 1, right_cols])
        if right_prepare is not None:
            od = right_prepare(od)
        out = ev.merge(od, left_on=left_by, right_on=right_by)
        if not len(out):
            return out
        delta = out[left_on] - out[right_on]
        return out[(delta >= lower) & (delta <= upper)]

    return tagged.groupby("__bucket").map_groups(merge, batch_format="pandas")


def _shingle_hashes_per_row(batch: pa.Table, text_col: str, ngram: int):
    """Per-record DISTINCT word-``ngram``-shingle FNV64 hashes, flat:
    returns ``(hashes u64, row_offsets int64[num_rows+1])``.  Shared by
    the batch set-similarity join AND the persisted index build/probe —
    the index/probe pair must tokenize identically or the frozen-order
    contract breaks, so there is exactly one copy of this kernel."""
    from naer_ray.hashing import _fnv64_arr
    from .dedup import _word_ngram_strings

    grams, parents = _word_ngram_strings(batch, text_col, ngram)
    h = _fnv64_arr(grams)
    if not len(h):
        return np.empty(0, np.uint64), np.zeros(batch.num_rows + 1, np.int64)
    order = np.lexsort((h, parents))
    ph, hh = parents[order], h[order]
    keep = np.ones(len(ph), bool)
    keep[1:] = (ph[1:] != ph[:-1]) | (hh[1:] != hh[:-1])
    ph, hh = ph[keep], hh[keep]
    offs = np.zeros(batch.num_rows + 1, np.int64)
    np.add.at(offs, ph + 1, 1)
    np.cumsum(offs, out=offs)
    return hh, offs


def _token_freqs(sources, text_col: str, ngram: int):
    """Global (token u64, count) over one or more Datasets.

    The result is vocabulary-sized (it is broadcast right after), but
    the per-block PARTIALS are up to blocks x vocab rows — so they are
    coalesced through one light repartition + combine stage before the
    driver pull, bounding the driver at ~8 x vocabulary rows instead of
    blocks x vocabulary."""

    def tok_counts(batch: pa.Table) -> pa.Table:
        hh, _ = _shingle_hashes_per_row(batch, text_col, ngram)
        u, c = np.unique(hh, return_counts=True)
        return pa.table(
            {
                "tok": pa.array(u.view(np.int64), pa.int64()),
                "c": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    def combine(batch: pa.Table) -> pa.Table:
        t = batch["tok"].to_numpy(zero_copy_only=False)
        c = batch["c"].to_numpy(zero_copy_only=False)
        order = np.argsort(t, kind="stable")
        t, c = t[order], c[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(t) != 0) + 1))
        sums = np.add.reduceat(c, starts) if len(c) else c
        return pa.table(
            {
                "tok": pa.array(t[starts], pa.int64()),
                "c": pa.array(sums.astype(np.int64), pa.int64()),
            }
        )

    parts = sources[0].map_batches(tok_counts, batch_format="pyarrow")
    for s in sources[1:]:
        parts = parts.union(s.map_batches(tok_counts, batch_format="pyarrow"))
    merged = (
        parts.repartition(8)
        .map_batches(combine, batch_format="pyarrow", batch_size=None)
        .to_pandas()
        .groupby("tok", as_index=False)["c"]
        .sum()
    )
    return merged


def _freq_rank_ref(freq):
    """(sorted token keys, rarest-first ranks) broadcast handle from a
    (tok, c) frame — ONE construction shared by batch join, index save
    and probe so the total order is identical everywhere."""
    import ray

    toks = freq["tok"].to_numpy(np.int64).view(np.uint64)
    counts = freq["c"].to_numpy(np.int64)
    order = np.lexsort((toks, counts))
    rank_arr = np.empty(len(toks), np.int64)
    rank_arr[order] = np.arange(len(toks))
    key_order = np.argsort(toks)
    return ray.put((toks[key_order], rank_arr[key_order]))


# pruning stages (prefix length, length filter) relax the threshold by
# EPS so binary-float rounding of t*n can never prune a pair whose
# exact jaccard EQUALS the threshold (e.g. t=9/11, |A|=63, |B|=77:
# fl(t)*77 > 63 although 63/77 == t); the final verify applies the
# sharp float predicate, identical to the SQL oracle's
_SETSIM_EPS = 1e-9


def _prefix_len(n: int, threshold: float) -> int:
    import math

    return n - math.ceil(threshold * n - _SETSIM_EPS) + 1


def _prefix_rows_fn(rank_ref, threshold, id_col, text_col, ngram, n_shards,
                    side=None, unseen_after: bool = False):
    """Builder for the prefix-emission kernel: per record, the
    ``_prefix_len`` RAREST tokens under the broadcast order become join
    keys.  ``unseen_after=True`` (probe side of a persisted index)
    orders tokens missing from the frozen vocabulary after all indexed
    ones, by hash — a consistent total order, so the prefix lemma
    holds; only pruning power varies.

    Each emitted row also carries ``pos`` — the token's 0-based rank
    within ITS OWN record's global-order sort (the prefix is by
    construction the first ``p`` of that sort, so positions are just
    0..p-1).  The candidate kernel uses it for the PPJoin positional
    filter (Xiao et al. 2008)."""
    import ray

    def f(batch: pa.Table) -> pa.Table:
        keys, ranks = ray.get(rank_ref)
        hh, offs = _shingle_hashes_per_row(batch, text_col, ngram)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(hh) and len(keys):
            pos = np.minimum(np.searchsorted(keys, hh), len(keys) - 1)
            is_known = keys[pos] == hh
            rk = np.where(is_known, ranks[pos], 0)
            unk = (~is_known).astype(np.int64)
        else:
            rk = np.zeros(len(hh), np.int64)
            unk = np.ones(len(hh), np.int64)
        out_t, out_i, out_n, out_p = [], [], [], []
        for r in range(batch.num_rows):
            lo, hi = offs[r], offs[r + 1]
            n = hi - lo
            if n == 0:
                continue
            p = _prefix_len(n, threshold)
            if unseen_after:
                sel = np.lexsort((hh[lo:hi], rk[lo:hi], unk[lo:hi]))[:p]
            else:
                sel = np.argsort(rk[lo:hi], kind="stable")[:p]
            out_t.append(hh[lo:hi][sel])
            out_i.append(np.full(len(sel), ids[r], np.int64))
            out_n.append(np.full(len(sel), n, np.int64))
            out_p.append(np.arange(len(sel), dtype=np.int32))
        cols = {
            "tok": pa.array([], pa.int64()),
            "id": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
            "pos": pa.array([], pa.int32()),
        }
        if side is not None:
            cols["side"] = pa.array([], pa.int8())
        if n_shards is not None:
            cols["shard"] = pa.array([], pa.int32())
        if not out_t:
            return pa.table(cols)
        t = np.concatenate(out_t)
        cols = {
            "tok": pa.array(t.view(np.int64), pa.int64()),
            "id": pa.array(np.concatenate(out_i), pa.int64()),
            "n": pa.array(np.concatenate(out_n), pa.int64()),
            "pos": pa.array(np.concatenate(out_p), pa.int32()),
        }
        if side is not None:
            cols["side"] = pa.array(np.full(len(t), side, np.int8), pa.int8())
        if n_shards is not None:
            cols["shard"] = pa.array(
                (t % np.uint64(n_shards)).astype(np.int32), pa.int32()
            )
        return pa.table(cols)

    return f


def _setsim_candidates(tok, side, ids, ns, pos, threshold, max_group):
    """Length- and position-filtered cross-side candidate pairs from
    sorted prefix rows of one bucket/shard — flat arrays; each side of
    a degenerate token group is capped at ``max_group`` rows with a
    RuntimeWarning (the minhash kernels' no-silent-cap convention).

    Positional filter (PPJoin, Xiao et al. 2008): a pair reaching
    jaccard t needs overlap >= ceil(t*(|A|+|B|)/(1+t)); an emission at
    prefix positions (pa, pb) bounds the overlap by
    ``1 + min(|A|-pa-1, |B|-pb-1)``.  Emissions are OR-combined per
    pair, and the pair's FIRST shared prefix token (smallest positions
    on both sides, because both rows sort by the same global order)
    yields the loosest — and provably valid — bound, so dropping
    emissions that fail the test never drops a pair that could reach
    the threshold.  The required-overlap comparison is relaxed by EPS
    (same convention as the length filter); the exact verify applies
    the sharp predicate."""
    order = np.lexsort((ids, side, tok))
    tok, side, ids, ns, pos = (
        tok[order], side[order], ids[order], ns[order], pos[order]
    )
    change = np.flatnonzero(np.diff(tok) != 0) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [len(tok)]))
    t_lo = threshold - _SETSIM_EPS
    out_a, out_b = [], []
    capped = 0
    for gi in range(len(starts)):
        s, e = starts[gi], ends[gi]
        sd = side[s:e]
        a_idx = np.arange(s, e)[sd == 0]
        b_idx = np.arange(s, e)[sd == 1]
        if not a_idx.size or not b_idx.size:
            continue
        if len(a_idx) > max_group or len(b_idx) > max_group:
            capped += max(0, len(a_idx) - max_group) + max(
                0, len(b_idx) - max_group
            )
            a_idx = a_idx[:max_group]  # sides sorted by id within the run
            b_idx = b_idx[:max_group]
        na = ns[a_idx][:, None]
        nb = ns[b_idx][None, :]
        ok = (t_lo * na <= nb) & (t_lo * nb <= na)
        if ok.any():
            pa_ = pos[a_idx][:, None].astype(np.int64)
            pb_ = pos[b_idx][None, :].astype(np.int64)
            need = np.ceil(t_lo * (na + nb) / (1.0 + t_lo) - _SETSIM_EPS)
            ok &= (1 + np.minimum(na - pa_ - 1, nb - pb_ - 1)) >= need
        ii, jj = np.nonzero(ok)
        if ii.size:
            out_a.append(ids[a_idx[ii]])
            out_b.append(ids[b_idx[jj]])
    if capped:
        import warnings

        warnings.warn(
            f"set-similarity join: {capped} prefix rows beyond "
            f"max_group={max_group} in degenerate token groups lose "
            "candidate pairs",
            RuntimeWarning,
            stacklevel=2,
        )
    if not out_a:
        return pa.table(
            {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
        )
    return pa.table(
        {
            "id_a": pa.array(np.concatenate(out_a), pa.int64()),
            "id_b": pa.array(np.concatenate(out_b), pa.int64()),
        }
    )


def _setsim_self_candidates(tok, ids, ns, pos, threshold, max_group):
    """Upper-triangle (id_a < id_b) candidate pairs from the sorted
    prefix rows of ONE side — the SELF-join variant of
    :func:`_setsim_candidates`, same length and PPJoin positional
    filters.  Ids are distinct within a token group (shingles are
    per-record-deduped), and rows sort by id within the group, so the
    strict upper triangle IS the a < b pair set — no mirrors, no
    self-pairs."""
    order = np.lexsort((ids, tok))
    tok, ids, ns, pos = tok[order], ids[order], ns[order], pos[order]
    change = np.flatnonzero(np.diff(tok) != 0) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [len(tok)]))
    t_lo = threshold - _SETSIM_EPS
    out_a, out_b = [], []
    capped = 0
    for gi in range(len(starts)):
        s, e = starts[gi], ends[gi]
        if e - s < 2:
            continue
        idx = np.arange(s, e)
        if len(idx) > max_group:
            capped += len(idx) - max_group
            idx = idx[:max_group]  # sorted by id within the run
        na = ns[idx][:, None]
        nb = ns[idx][None, :]
        ok = (t_lo * na <= nb) & (t_lo * nb <= na)
        ok &= np.tri(len(idx), k=-1, dtype=bool).T  # strict upper triangle
        if ok.any():
            pa_ = pos[idx][:, None].astype(np.int64)
            pb_ = pos[idx][None, :].astype(np.int64)
            need = np.ceil(t_lo * (na + nb) / (1.0 + t_lo) - _SETSIM_EPS)
            ok &= (1 + np.minimum(na - pa_ - 1, nb - pb_ - 1)) >= need
        ii, jj = np.nonzero(ok)
        if ii.size:
            out_a.append(ids[idx[ii]])
            out_b.append(ids[idx[jj]])
    if capped:
        import warnings

        warnings.warn(
            f"set-similarity self-join: {capped} prefix rows beyond "
            f"max_group={max_group} in degenerate token groups lose "
            "candidate pairs",
            RuntimeWarning,
            stacklevel=2,
        )
    if not out_a:
        return pa.table(
            {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
        )
    return pa.table(
        {
            "id_a": pa.array(np.concatenate(out_a), pa.int64()),
            "id_b": pa.array(np.concatenate(out_b), pa.int64()),
        }
    )


def _setsim_gram_set(text, ngram: int) -> frozenset:
    """The sharp verify's shingle set: word ``ngram`` tuples over a
    plain ``split(" ")`` — ONE definition shared by the broadcast and
    co-partition verify kernels so the two strategies are bit-identical
    (and both match the SQL oracle's expression)."""
    ws = (text or "").split(" ")
    return frozenset(tuple(ws[j : j + ngram]) for j in range(len(ws) - ngram + 1))


def _setsim_verify_stage(pair_tbl, text_map_ref, threshold, ngram):
    """Exact string-set verify over a candidate pair table; the text
    map is keyed (side, id) so R and S ids may overlap freely.  The
    emitted jaccard is the sharp i/(|A|+|B|-i) float64 — identical to
    the SQL oracle's expression."""
    import ray
    import ray.data

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        lookup = ray.get(text_map_ref)

        cache: dict = {}
        out_a, out_b, out_j = [], [], []
        for a, b in zip(batch["id_a"], batch["id_b"]):
            ka, kb = (0, a), (1, b)
            sa = cache.get(ka)
            if sa is None:
                sa = cache[ka] = _setsim_gram_set(lookup.get(ka), ngram)
            sb = cache.get(kb)
            if sb is None:
                sb = cache[kb] = _setsim_gram_set(lookup.get(kb), ngram)
            if not sa or not sb:
                continue
            i = len(sa & sb)
            j = i / (len(sa) + len(sb) - i)
            if j >= threshold:
                out_a.append(a)
                out_b.append(b)
                out_j.append(j)
        return pd.DataFrame(
            {
                "id_a": pd.Series(out_a, dtype="int64"),
                "id_b": pd.Series(out_b, dtype="int64"),
                "jaccard": pd.Series(out_j, dtype="float64"),
            }
        )

    # parallelize the per-pair verify, but cap the block count: the
    # repartition+map latency is per block, and the verify kernel
    # amortizes its doc-set cache within a block
    n_out = max(1, min(64, pair_tbl.num_rows // 2048))
    return (
        ray.data.from_arrow(pair_tbl)
        .repartition(n_out)
        .map_batches(verify, batch_format="pandas")
    )


def _setsim_verify_copartition(distinct_ds, a_texts_ds, b_texts_ds, threshold,
                               ngram, id_col, text_col, n_buckets):
    """Large-pair verify: NOTHING is pulled to the driver.  Two bucketed
    co-partition passes (dedup._attach_text — the d05 planner's scale
    arm) attach text_a/text_b to every candidate pair, then a streaming
    kernel applies the sharp jaccard predicate.  Shuffled volume =
    pairs + |R| + |S| text rows; driver holds only the plan.  id_a is
    resolved ONLY against ``a_texts_ds`` and id_b ONLY against
    ``b_texts_ds``, so overlapping R/S id spaces stay disjoint exactly
    like the (side, id) keying of the broadcast path."""
    from .dedup import _attach_text

    base = [("id_a", pa.int64()), ("id_b", pa.int64())]
    with_a = _attach_text(
        distinct_ds, a_texts_ds, "id_a", base, "text_a", id_col, text_col,
        n_buckets,
    )
    with_b = _attach_text(
        with_a, b_texts_ds, "id_b", base + [("text_a", pa.string())],
        "text_b", id_col, text_col, n_buckets,
    )

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        cache: dict = {}
        out_a, out_b, out_j = [], [], []
        for a, b, ta, tb in zip(
            batch["id_a"], batch["id_b"], batch["text_a"], batch["text_b"]
        ):
            sa = cache.get((0, a))
            if sa is None:
                sa = cache[(0, a)] = _setsim_gram_set(ta, ngram)
            sb = cache.get((1, b))
            if sb is None:
                sb = cache[(1, b)] = _setsim_gram_set(tb, ngram)
            if not sa or not sb:
                continue
            i = len(sa & sb)
            j = i / (len(sa) + len(sb) - i)
            if j >= threshold:
                out_a.append(a)
                out_b.append(b)
                out_j.append(j)
        return pd.DataFrame(
            {
                "id_a": pd.Series(out_a, dtype="int64"),
                "id_b": pd.Series(out_b, dtype="int64"),
                "jaccard": pd.Series(out_j, dtype="float64"),
            }
        )

    return with_b.map_batches(verify, batch_format="pandas", batch_size=65536)


def _empty_setsim_result():
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "jaccard": pa.array([], pa.float64()),
            }
        )
    )


def _collect_semijoin_texts(ds, wanted_ref, id_col, text_col, side, text_map):
    """Filter ``ds`` to rows whose id is in the broadcast wanted set and
    add them to ``text_map`` under (side, id) keys.  Only called on the
    BROADCAST verify arm, where the wanted set (and therefore the
    surviving rows) is bounded by ``broadcast_max_pairs``."""
    import ray

    def keep_wanted(batch: pa.Table) -> pa.Table:
        sel = batch.filter(
            pa.compute.is_in(
                batch[id_col].cast(pa.int64()), value_set=ray.get(wanted_ref)
            )
        )
        return pa.table(
            {id_col: sel[id_col].cast(pa.int64()), text_col: sel[text_col]}
        )

    for ref in ds.map_batches(keep_wanted, batch_format="pyarrow").to_arrow_refs():
        t = ray.get(ref)
        ids = t[id_col].to_pylist()
        text_map.update(zip(zip([side] * len(ids), ids), t[text_col].to_pylist()))


def _setsim_verify_broadcast(distinct_ds, a_texts_ds, b_texts_ds, threshold,
                             ngram, id_col, text_col):
    """Small-pair verify arm: pull the (bounded) distinct pair table,
    semi-join both text sides down to the <= 2x|pairs| referenced
    documents, broadcast the (side, id) -> text map, verify per batch."""
    import ray

    pair_tbl = pa.concat_tables(
        [t for ref in distinct_ds.to_arrow_refs() if (t := ray.get(ref)).num_rows]
    )
    text_map: dict = {}
    a_ids = pa.compute.unique(pair_tbl["id_a"].combine_chunks())
    b_ids = pa.compute.unique(pair_tbl["id_b"].combine_chunks())
    _collect_semijoin_texts(
        a_texts_ds, ray.put(a_ids), id_col, text_col, 0, text_map
    )
    _collect_semijoin_texts(
        b_texts_ds, ray.put(b_ids), id_col, text_col, 1, text_map
    )
    return _setsim_verify_stage(pair_tbl, ray.put(text_map), threshold, ngram)


def _distinct_pairs(cands, n_buckets: int, raw_driver_max: int = 200_000):
    """Collapse candidate ``(id_a, id_b)`` duplicates (the same pair
    reached via several shared prefix tokens) — size-gated like the
    verify: at bench scale the raw candidate table is a few thousand
    16-byte rows, where a full bucketed exchange costs more in fixed
    per-exchange latency than one driver-side pyarrow distinct (the
    d09 lesson); above ``raw_driver_max`` RAW rows the distributed
    bucketed distinct runs instead — the 100-TB path, nothing
    corpus-sized on the driver.  Returns a materialized Dataset."""
    import ray
    import ray.data

    from .agg import bucketed_sum

    raw = cands.materialize()
    if raw.count() <= raw_driver_max:
        blocks = [
            t for ref in raw.to_arrow_refs() if (t := ray.get(ref)).num_rows
        ]
        if not blocks:
            return raw  # empty, already materialized
        tbl = pa.concat_tables(blocks).combine_chunks()
        return ray.data.from_arrow(
            tbl.group_by(["id_a", "id_b"]).aggregate([])
        )
    return (
        bucketed_sum(
            raw, ["id_a", "id_b"], [], count_col="c", n_buckets=n_buckets
        )
        .drop_columns(["c"])
        .materialize()
    )


def _setsim_verify(distinct_ds, a_texts_ds, b_texts_ds, threshold, ngram,
                   id_col, text_col, n_buckets, strategy, broadcast_max_pairs):
    """Size-gated exact-verify planner (the d05 ``strategy="auto"``
    precedent): candidate-pair tables are near-output-sized after
    prefix filtering, but a 100-TB similarity self-join can still emit
    millions — below ``broadcast_max_pairs`` the broadcast semi-join
    arm wins (one corpus filter pass, tiny driver pull); above it the
    bucketed co-partition arm keeps the driver out of the data path
    entirely.  Both arms share :func:`_setsim_gram_set`, so the output
    is bit-identical either way (forced-strategy equivalence is under
    test)."""
    if strategy == "auto":
        strategy = (
            "broadcast"
            if distinct_ds.count() <= broadcast_max_pairs
            else "copartition"
        )
    if strategy == "broadcast":
        return _setsim_verify_broadcast(
            distinct_ds, a_texts_ds, b_texts_ds, threshold, ngram, id_col,
            text_col,
        )
    if strategy != "copartition":
        raise ValueError(f"unknown setsim verify strategy {strategy!r}")
    return _setsim_verify_copartition(
        distinct_ds, a_texts_ds, b_texts_ds, threshold, ngram, id_col,
        text_col, n_buckets,
    )


def set_similarity_join(
    r_ds,
    s_ds,
    threshold: float,
    id_col: str = "doc_id",
    text_col: str = "text",
    ngram: int = 3,
    n_buckets: int = 64,
    max_group: int = 2048,
    strategy: str = "auto",
    broadcast_max_pairs: int = 50_000,
):
    """Exact set-similarity JOIN with prefix filtering: emit
    ``(id_a from R, id_b from S, jaccard)`` for every cross pair whose
    DISTINCT word ``ngram``-shingle sets reach Jaccard ``threshold``.

    Standard public construction (Chaudhuri, Ganti & Kaushik 2006
    "A Primitive Operator for Similarity Joins"; Bayardo, Ma &
    Srikant 2007 All-Pairs; Xiao et al. 2008 PPJoin prefix + positional
    filters): under any fixed
    global token order, two sets with |A∩B| >= a share a token among
    the first |A|-a+1 / |B|-a+1 of each, so each record only emits its
    ``n - ceil(t*n) + 1`` RAREST tokens as join keys — the prefix —
    and completeness follows for every pair passing the length filter
    (t*|A| <= |B| and t*|B| <= |A|; pairs failing it cannot reach t).
    Pruning comparisons are relaxed by 1e-9 so float rounding of t*n
    never drops an exactly-at-threshold pair; the sharp predicate is
    applied by the exact verify.

    Ray shape: (1) one token-frequency pass builds the rarest-first
    ranking (vocabulary-sized; partials coalesced before the driver
    pull); (2) a second streaming pass emits prefix rows; (3) one
    token-hash bucket-run generates length-filtered candidate pairs
    (degenerate token groups capped at ``max_group`` per side with a
    RuntimeWarning); (4) a bucketed distinct collapses
    same-pair-via-multiple-tokens; (5) a SIZE-GATED exact verify
    (:func:`_setsim_verify`) recomputes both STRING shingle sets per
    candidate — broadcast semi-join below ``broadcast_max_pairs``
    pairs, bucketed co-partition above, both keyed so R and S id
    spaces may overlap — and keeps jaccard >= t, so hash collisions
    can never reach the output."""
    from .agg import bucketed_sum

    freq = _token_freqs([r_ds, s_ds], text_col, ngram)
    rank_ref = _freq_rank_ref(freq)

    tagged = r_ds.map_batches(
        _prefix_rows_fn(rank_ref, threshold, id_col, text_col, ngram, None, side=0),
        batch_format="pyarrow",
    ).union(
        s_ds.map_batches(
            _prefix_rows_fn(
                rank_ref, threshold, id_col, text_col, ngram, None, side=1
            ),
            batch_format="pyarrow",
        )
    )

    def tok_bucketize(batch: pa.Table) -> pa.Table:
        h = batch["tok"].to_numpy(zero_copy_only=False).view(np.uint64)
        return batch.append_column(
            "bucket",
            pa.array((h % np.uint64(n_buckets)).astype(np.int32), pa.int32()),
        )

    def cand_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows < 2:
            return pa.table(
                {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
            )
        return _setsim_candidates(
            g["tok"].to_numpy(zero_copy_only=False),
            g["side"].to_numpy(zero_copy_only=False),
            g["id"].to_numpy(zero_copy_only=False),
            g["n"].to_numpy(zero_copy_only=False),
            g["pos"].to_numpy(zero_copy_only=False),
            threshold,
            max_group,
        )

    cands = (
        tagged.map_batches(tok_bucketize, batch_format="pyarrow", batch_size=None)
        .groupby("bucket")
        .map_groups(cand_bucket, batch_format="pyarrow")
    )
    distinct = _distinct_pairs(cands, n_buckets)
    if distinct.count() == 0:
        return _empty_setsim_result()
    return _setsim_verify(
        distinct, r_ds, s_ds, threshold, ngram, id_col, text_col, n_buckets,
        strategy, broadcast_max_pairs,
    )


def set_similarity_self_join(
    ds,
    threshold: float,
    id_col: str = "doc_id",
    text_col: str = "text",
    ngram: int = 3,
    n_buckets: int = 64,
    max_group: int = 2048,
    strategy: str = "auto",
    broadcast_max_pairs: int = 50_000,
):
    """Exact set-similarity SELF-join — the dedup shape: emit
    ``(id_a < id_b, jaccard)`` for every pair within ONE corpus whose
    distinct word ``ngram``-shingle sets reach ``threshold``.

    Equivalent to ``set_similarity_join(ds, ds, t)`` filtered to
    ``id_a < id_b``, at roughly half the cost: ONE token-frequency
    source, ONE prefix-emission pass over the corpus (the cross form
    tags it twice), and upper-triangle candidate generation inside
    each token group — no (b, a) mirrors, no self-pairs — so the
    distinct-pair exchange and the exact verify carry about half the
    rows.  The verify reuses the size-gated planner with the single
    corpus on both lookup sides."""
    from .agg import bucketed_sum

    freq = _token_freqs([ds], text_col, ngram)
    rank_ref = _freq_rank_ref(freq)

    tagged = ds.map_batches(
        _prefix_rows_fn(rank_ref, threshold, id_col, text_col, ngram, None),
        batch_format="pyarrow",
    )

    def tok_bucketize(batch: pa.Table) -> pa.Table:
        h = batch["tok"].to_numpy(zero_copy_only=False).view(np.uint64)
        return batch.append_column(
            "bucket",
            pa.array((h % np.uint64(n_buckets)).astype(np.int32), pa.int32()),
        )

    def cand_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows < 2:
            return pa.table(
                {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
            )
        return _setsim_self_candidates(
            g["tok"].to_numpy(zero_copy_only=False),
            g["id"].to_numpy(zero_copy_only=False),
            g["n"].to_numpy(zero_copy_only=False),
            g["pos"].to_numpy(zero_copy_only=False),
            threshold,
            max_group,
        )

    cands = (
        tagged.map_batches(tok_bucketize, batch_format="pyarrow", batch_size=None)
        .groupby("bucket")
        .map_groups(cand_bucket, batch_format="pyarrow")
    )
    distinct = _distinct_pairs(cands, n_buckets)
    if distinct.count() == 0:
        return _empty_setsim_result()
    return _setsim_verify(
        distinct, ds, ds, threshold, ngram, id_col, text_col, n_buckets,
        strategy, broadcast_max_pairs,
    )


def save_setsim_index(
    ds,
    path: str,
    threshold: float,
    id_col: str = "doc_id",
    text_col: str = "text",
    ngram: int = 3,
    n_shards: int = 64,
) -> None:
    """Persist a prefix-token set-similarity index for INCREMENTAL
    joins (the streaming set-similarity-join setting, e.g. ICDE 2020
    "Distributed Streaming Set Similarity Join"): at 100 TB the corpus
    is indexed ONCE and each intake batch probes it instead of
    re-joining the world.

    Layout: ``prefix/shard=<token_h & mask>/`` parquet of (tok, id, n, pos)
    prefix rows — a probe reads only the shards its own prefix tokens
    touch; ``texts/shard=<id & mask>/`` parquet of (id, text) for the
    exact verify (pruned by candidate ids); ``vocab.parquet`` freezes
    the token-frequency order (prefix filtering needs ONE total order
    shared by index and probe — it is frozen at index time, and tokens
    unseen then order after all indexed tokens by hash, which keeps
    the prefix lemma valid: any consistent total order works, only
    pruning power varies).  The tokenizer, ranking and prefix kernels
    are the SHARED module helpers, so index and probe cannot drift.

    ``path`` must be storage every node shares (probes read shards
    inside worker tasks); :func:`probe_setsim_index` fails loudly when
    a worker cannot see the tree."""
    import json
    import os

    freq = _token_freqs([ds], text_col, ngram)
    rank_ref = _freq_rank_ref(freq)

    os.makedirs(os.path.join(path, "prefix"), exist_ok=True)
    ds.map_batches(
        _prefix_rows_fn(
            rank_ref, threshold, id_col, text_col, ngram, n_shards
        ),
        batch_format="pyarrow",
    ).write_parquet(os.path.join(path, "prefix"), partition_cols=["shard"])

    def text_rows(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "id": pa.array(ids, pa.int64()),
                "text": batch[text_col],
                "shard": pa.array((ids % n_shards).astype(np.int32), pa.int32()),
            }
        )

    os.makedirs(os.path.join(path, "texts"), exist_ok=True)
    ds.map_batches(text_rows, batch_format="pyarrow").write_parquet(
        os.path.join(path, "texts"), partition_cols=["shard"]
    )
    freq.to_parquet(os.path.join(path, "vocab.parquet"), index=False)
    with open(os.path.join(path, "index_meta.json"), "w") as f:
        json.dump(
            {
                "kind": "setsim_prefix",
                "threshold": threshold,
                "ngram": ngram,
                "n_shards": n_shards,
                "id_col": id_col,
                "text_col": text_col,
            },
            f,
        )


def probe_setsim_index(new_ds, path: str, n_buckets: int = 64,
                       max_group: int = 2048, strategy: str = "auto",
                       broadcast_max_pairs: int = 50_000):
    """Probe a :func:`save_setsim_index` index with NEW documents ->
    exact ``(id_a = indexed id, id_b = new id, jaccard)`` pairs at the
    index's threshold.  Only the delta's prefix rows are exchanged
    (one groupby on the token shard); each shard group's kernel reads
    its matching prefix shard in-task (path-pruned), and the exact
    verify (size-gated, :func:`_setsim_verify`) reads the texts/
    shards through Ray tasks — pruned to the shards candidate OLD ids
    hash to on the broadcast arm, a full but streaming+co-partitioned
    read on the large-pair arm — nothing is ever scanned serially on
    the driver.  Verify texts are keyed (side, id), so indexed and
    delta id spaces may overlap.

    ``path`` must be a filesystem visible to EVERY node (shared FS /
    fuse mount / NFS) — shard reads happen inside worker tasks.  A
    node that can see ``index_meta.json`` but not the ``prefix/`` tree
    fails loudly instead of silently matching nothing."""
    import glob as _glob
    import json
    import os

    import ray
    import ray.data

    from .agg import bucketed_sum

    with open(os.path.join(path, "index_meta.json")) as f:
        meta = json.load(f)
    threshold = meta["threshold"]
    ngram = meta["ngram"]
    n_shards = meta["n_shards"]
    id_col = meta["id_col"]
    text_col = meta["text_col"]

    vocab = pd.read_parquet(os.path.join(path, "vocab.parquet"))
    rank_ref = _freq_rank_ref(vocab)

    empty_pairs = pa.table(
        {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
    )

    def probe_shard(g: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        if g.num_rows == 0:
            return empty_pairs
        if not os.path.isdir(os.path.join(path, "prefix")):
            # the save always creates prefix/ — its absence on THIS node
            # means the index lives on a filesystem the worker cannot
            # see; silently returning no matches would be wrong output
            raise RuntimeError(
                f"set-similarity index {path!r}: prefix/ tree not visible "
                "on this worker — the index must live on storage shared "
                "by every node"
            )
        shard = g["shard"][0].as_py()
        files = sorted(
            _glob.glob(os.path.join(path, "prefix", f"shard={shard}", "*.parquet"))
        )
        if not files:
            # a shard dir may legitimately be absent (no token hashed
            # there at index time) — that is a true no-match
            return empty_pairs
        old = pa.concat_tables(
            [pq.read_table(f, columns=["tok", "id", "n", "pos"]) for f in files]
        )
        if old.num_rows == 0:
            return empty_pairs
        tok = np.concatenate(
            [
                old["tok"].to_numpy(zero_copy_only=False),
                g["tok"].to_numpy(zero_copy_only=False),
            ]
        )
        side = np.concatenate(
            [np.zeros(old.num_rows, np.int8), np.ones(g.num_rows, np.int8)]
        )
        ids = np.concatenate(
            [
                old["id"].to_numpy(zero_copy_only=False),
                g["id"].to_numpy(zero_copy_only=False),
            ]
        )
        ns = np.concatenate(
            [
                old["n"].to_numpy(zero_copy_only=False),
                g["n"].to_numpy(zero_copy_only=False),
            ]
        )
        pos = np.concatenate(
            [
                old["pos"].to_numpy(zero_copy_only=False),
                g["pos"].to_numpy(zero_copy_only=False),
            ]
        )
        return _setsim_candidates(tok, side, ids, ns, pos, threshold, max_group)

    cands = (
        new_ds.map_batches(
            _prefix_rows_fn(
                rank_ref, threshold, id_col, text_col, ngram, n_shards,
                unseen_after=True,
            ),
            batch_format="pyarrow",
        )
        .groupby("shard")
        .map_groups(probe_shard, batch_format="pyarrow")
    )
    distinct = _distinct_pairs(cands, n_buckets)
    n_pairs = distinct.count()
    if n_pairs == 0:
        return _empty_setsim_result()
    if strategy == "auto":
        strategy = (
            "broadcast" if n_pairs <= broadcast_max_pairs else "copartition"
        )

    if strategy == "broadcast":
        # old-side texts: the candidate OLD ids fit on the driver here
        # (bounded by broadcast_max_pairs), so prune the read to only
        # the id shards they hash to — still a Ray read, not a driver
        # file loop
        old_id_blocks = [
            pa.compute.unique(t["id_a"].combine_chunks())
            for ref in distinct.to_arrow_refs()
            if (t := ray.get(ref)).num_rows
        ]
        old_ids = np.unique(
            np.concatenate(
                [b.to_numpy(zero_copy_only=False) for b in old_id_blocks]
            )
        )
        shard_files = [
            f
            for s in np.unique(old_ids % n_shards)
            for f in sorted(
                _glob.glob(
                    os.path.join(path, "texts", f"shard={int(s)}", "*.parquet")
                )
            )
        ]
        if shard_files:
            old_texts = ray.data.read_parquet(shard_files, columns=["id", "text"])
        else:
            old_texts = ray.data.from_arrow(
                pa.table({"id": pa.array([], pa.int64()),
                          "text": pa.array([], pa.string())})
            )
    elif strategy == "copartition":
        # large-pair arm: the whole texts/ tree streams through the
        # co-partition (two pruned columns of the (id, text, shard)
        # layout; nothing touches the driver)
        old_texts = ray.data.read_parquet(
            os.path.join(path, "texts"), columns=["id", "text"]
        )
    else:
        raise ValueError(f"unknown setsim verify strategy {strategy!r}")

    old_texts = old_texts.map_batches(
        lambda b: pa.table({id_col: b["id"], text_col: b["text"]}),
        batch_format="pyarrow",
    )
    return _setsim_verify(
        distinct, old_texts, new_ds, threshold, ngram, id_col, text_col,
        n_buckets, strategy, broadcast_max_pairs,
    )


def containment_join(
    a_ds,
    b_ds,
    num: int,
    den: int,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    ngram: int = 3,
    n_shards: int = 32,
):
    """Exact SET-CONTAINMENT join: ordered pairs ``(id_a, id_b)``,
    ``a != b``, with ``den * |G(a) ∩ G(b)| >= num * |G(a)|`` over word
    ``ngram`` shingle sets — the near-SUBSET detector (quotes,
    excerpts, doc-inside-doc) that a Jaccard join structurally cannot
    express (a small doc inside a big one has high containment but
    arbitrarily low Jaccard).  Threshold is the RATIONAL ``num/den``
    so the verify predicate is a pure integer comparison — bit-stable
    and identical to the SQL oracle's.

    Candidate generation (prefix lemma for containment, Chaudhuri
    2006 §4 adapted): if B contains >= ceil(t*n) of A's n grams, B
    misses at most n - ceil(t*n) of them, so B shares at least one of
    ANY n - ceil(t*n) + 1 grams of A.  A-side therefore emits its
    k = n - ceil(num*n/den) + 1 RAREST gram hashes (global rarity
    order from one corpus frequency pass); B-side emits ALL gram
    hashes — containment puts no bound on |B|, so the B index is the
    full postings list (the x01 inverted-index shape, hive-sharded by
    gram hash).  One gram-hash shard exchange + per-shard vectorized
    pair merge; FNV64 collisions only ADD candidates (they merge
    grams), never drop a true pair — false candidates die at the
    string-space verify.

    Verify: exact string gram sets (``_setsim_gram_set``) for the
    deduped candidate pairs, texts fetched by semi-join on the pair
    ids and broadcast (pair volume here is bounded by the prefix
    filter; at corpus scale swap in the co-partition verify exactly as
    ``set_similarity_join`` does).
    """
    import ray

    from .agg import bucketed_sum

    self_join = a_ds is b_ds
    # self-join: ONE frequency source (doubling every count preserves
    # the (count, token) rarity order exactly, so ranks are identical)
    freq = _token_freqs([a_ds] if self_join else [a_ds, b_ds], text_col, ngram)
    rank_ref = _freq_rank_ref(freq)

    def rows_fn(emit_prefix: bool, emit_all: bool):
        """One shingling pass per side: every gram row is emitted once,
        flagged ``pref`` when it belongs to the record's containment
        prefix — the self-join derives BOTH sides from a single pass
        over one materialized postings dataset (was: two independent
        shingle passes)."""

        def f(batch: pa.Table) -> pa.Table:
            keys, ranks = ray.get(rank_ref)
            hh, offs = _shingle_hashes_per_row(batch, text_col, ngram)
            ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            empty = pa.table(
                {
                    "tok": pa.array([], pa.int64()),
                    "id": pa.array([], pa.int64()),
                    "na": pa.array([], pa.int64()),
                    "pref": pa.array([], pa.bool_()),
                    "shard": pa.array([], pa.int32()),
                }
            )
            if not len(hh):
                return empty
            if len(keys):
                pos = np.minimum(np.searchsorted(keys, hh), len(keys) - 1)
                rk = np.where(keys[pos] == hh, ranks[pos], 0)
            else:
                rk = np.zeros(len(hh), np.int64)
            parents = np.repeat(
                np.arange(batch.num_rows), np.diff(offs)
            )
            ns = (offs[1:] - offs[:-1]).astype(np.int64)
            pref = np.zeros(len(hh), bool)
            if emit_prefix:
                for r in range(batch.num_rows):
                    lo, hi = offs[r], offs[r + 1]
                    n = int(hi - lo)
                    if n == 0:
                        continue
                    k = n - (-(-num * n // den)) + 1  # n - ceil(t*n) + 1
                    if k <= 0:
                        k = 1
                    pref[lo + np.argsort(rk[lo:hi], kind="stable")[:k]] = True
            keep = pref if not emit_all else np.ones(len(hh), bool)
            hh_k, par_k, pref_k = hh[keep], parents[keep], pref[keep]
            return pa.table(
                {
                    "tok": pa.array(hh_k.view(np.int64), pa.int64()),
                    "id": pa.array(ids[par_k], pa.int64()),
                    "na": pa.array(ns[par_k], pa.int64()),
                    "pref": pa.array(pref_k, pa.bool_()),
                    "shard": pa.array(
                        (hh_k % np.uint64(n_shards)).astype(np.int32),
                        pa.int32(),
                    ),
                }
            )

        return f

    if self_join:
        # one pass emits all rows with the prefix flag; side-0 = the
        # pref slice, side-1 = everything
        # no materialize: the rows stream has exactly one consumer (the
        # shard shuffle), so staging it in the object store is a whole
        # wasted pipeline execution
        rows = a_ds.map_batches(rows_fn(True, True), batch_format="pyarrow")

        def tag_both(batch: pa.Table) -> pa.Table:
            a_part = batch.filter(batch["pref"])
            sides = np.concatenate(
                [
                    np.zeros(a_part.num_rows, np.int8),
                    np.ones(batch.num_rows, np.int8),
                ]
            )
            merged = pa.concat_tables([a_part, batch])
            return pa.table(
                {
                    "tok": merged["tok"],
                    "id": merged["id"],
                    "na": merged["na"],
                    "side": pa.array(sides, pa.int8()),
                    "shard": merged["shard"],
                }
            )

        both = rows.map_batches(tag_both, batch_format="pyarrow")
    else:
        a_rows = a_ds.map_batches(rows_fn(True, False), batch_format="pyarrow")
        b_rows = b_ds.map_batches(rows_fn(False, True), batch_format="pyarrow")

        def tag(side):
            def f(batch: pa.Table) -> pa.Table:
                return pa.table(
                    {
                        "tok": batch["tok"],
                        "id": batch["id"],
                        "na": batch["na"],
                        "side": pa.array(
                            np.full(len(batch), side, np.int8), pa.int8()
                        ),
                        "shard": batch["shard"],
                    }
                )

            return f

        both = a_rows.map_batches(tag(0), batch_format="pyarrow").union(
            b_rows.map_batches(tag(1), batch_format="pyarrow")
        )

    def shard_pairs(group: pd.DataFrame) -> pd.DataFrame:
        a = group[group["side"] == 0][["tok", "id", "na"]].rename(
            columns={"id": "id_a"}
        )
        b = group[group["side"] == 1][["tok", "id"]].rename(
            columns={"id": "id_b"}
        )
        if a.empty or b.empty:
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype="int64"),
                    "id_b": pd.Series([], dtype="int64"),
                    "na": pd.Series([], dtype="int64"),
                }
            )
        m = a.merge(b, on="tok")
        m = m[m["id_a"] != m["id_b"]]
        return m[["id_a", "id_b", "na"]].drop_duplicates(["id_a", "id_b"])

    cand = both.groupby("shard").map_groups(shard_pairs, batch_format="pandas")

    # ---- exact string-space verify (broadcast texts for pair ids) ----
    # candidates are per-shard distinct already; cross-shard duplicates
    # (a pair found via prefix grams in different shards) dedupe at the
    # driver, which receives the pair list anyway for the verify — a
    # separate distinct shuffle here was pure overhead (prefix pruning
    # bounds the candidate volume at driver scale; a verify-at-scale
    # deployment co-partitions instead, see set_similarity_join)
    pairs_df = cand.to_pandas().drop_duplicates(["id_a", "id_b"])
    if pairs_df.empty:
        return pd.DataFrame(
            {
                "id_a": pd.Series([], dtype="int64"),
                "id_b": pd.Series([], dtype="int64"),
            }
        )
    wanted = set(pairs_df["id_a"]) | set(pairs_df["id_b"])
    wanted_ref = ray.put(wanted)
    text_map: dict = {}
    for side_ds in ((a_ds,) if self_join else (a_ds, b_ds)):
        got = side_ds.map_batches(
            lambda b: b.filter(
                pa.array(
                    np.isin(
                        b[id_col].to_numpy(zero_copy_only=False),
                        np.fromiter(ray.get(wanted_ref), np.int64),
                    )
                )
            ).select([id_col, text_col]),
            batch_format="pyarrow",
        ).to_pandas()
        text_map.update(dict(zip(got[id_col], got[text_col])))

    keep_a, keep_b = [], []
    gram_cache: dict = {}

    def gset(i):
        if i not in gram_cache:
            gram_cache[i] = _setsim_gram_set(text_map.get(i, ""), ngram)
        return gram_cache[i]

    for row in pairs_df.itertuples():
        ga, gb = gset(row.id_a), gset(row.id_b)
        if ga and den * len(ga & gb) >= num * len(ga):
            keep_a.append(row.id_a)
            keep_b.append(row.id_b)
    out = pd.DataFrame(
        {
            "id_a": pd.Series(keep_a, dtype="int64"),
            "id_b": pd.Series(keep_b, dtype="int64"),
        }
    )
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)
