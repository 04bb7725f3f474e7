"""Deterministic sampling operators for training-data pipelines.

Repeatable subsampling is a core corpus-curation primitive (ablation
subsets, eval holdouts, mixture downsampling).  Random sampling
(``Dataset.random_sample``) is neither repeatable across runs nor
stable under repartitioning; these operators key the decision on a
multiplicative hash of a row id, so the SAME rows are kept on any
cluster size, block layout, or resume — and the rule is expressible in
ANSI SQL for the oracle (s01).

No reference analogue (the reference evaluates full corpora); builder
brief operator.  Scale: a pure ``map_batches`` filter — no shuffle, no
state, no driver data.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

#: Knuth's multiplicative constant (2^32 / phi); the hash is
#: (id * K) mod 2^32 — trivially re-expressed in SQL as
#: (id * 2654435761) % 4294967296 for non-negative ids.
KNUTH_K = 2654435761


def hash_bucket_of(ids: np.ndarray, mod: int, salt: int = 0) -> np.ndarray:
    """((id + salt) * K) mod 2^32 mod `mod` for non-negative int ids."""
    h = (ids.astype(np.uint64) + np.uint64(salt)) * np.uint64(KNUTH_K)
    return ((h & np.uint64(0xFFFFFFFF)) % np.uint64(mod)).astype(np.int64)


def hash_sample(ds, id_col: str, rate_pct: int, salt: int = 0):
    """Keep rows whose id hashes into the first ``rate_pct`` of 100
    buckets — a deterministic ~rate_pct% sample.

    ``salt`` shifts the kept set so independent samples (train vs
    holdout) can be drawn from the same ids without overlap control
    logic downstream.
    """
    if not 0 <= rate_pct <= 100:
        raise ValueError("rate_pct must be in [0, 100]")

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        b = hash_bucket_of(ids.astype(np.int64, copy=False), 100, salt)
        return batch.filter(pa.array(b < rate_pct))

    return ds.map_batches(keep, batch_format="pyarrow")


def sample_sql_predicate(id_col: str, rate_pct: int, salt: int = 0) -> str:
    """The equivalent ANSI-SQL WHERE predicate (non-negative ids)."""
    return (
        f"((({id_col} + {salt}) * {KNUTH_K}) % 4294967296) % 100 < {rate_pct}"
    )


def hash_rank_of(ids: np.ndarray, salt: int = 0) -> np.ndarray:
    """((id + salt) * K) mod 2^32 — a bijection over [0, 2^32) for
    distinct ids below 2^32 (K is odd), so ranks are collision-free."""
    h = (ids.astype(np.uint64) + np.uint64(salt)) * np.uint64(KNUTH_K)
    return (h & np.uint64(0xFFFFFFFF)).astype(np.int64)


def bottom_k_sample(ds, id_col: str, k: int, salt: int = 0):
    """Fixed-SIZE deterministic uniform sample: the ``k`` rows with the
    smallest hash rank (tie-break id) — a distributed bottom-k sketch.

    Where :func:`hash_sample` fixes the RATE, this fixes the COUNT
    (eval sets, debugging subsets).  Each batch keeps only its local
    k smallest (argpartition, no full sort), so the final exact
    sort+limit runs over at most k x n_blocks rows — never the
    dataset.  Deterministic under any partitioning; SQL-expressible as
    ``ORDER BY hash_rank, id LIMIT k``.
    """
    if k <= 0:
        raise ValueError("k must be positive")

    def local_bottom_k(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        rank = hash_rank_of(ids.astype(np.int64, copy=False), salt)
        if len(rank) > k:
            keep = np.argpartition(rank, k)[:k]
            batch = batch.take(pa.array(keep))
            rank = rank[keep]
        return batch.append_column("__rank", pa.array(rank, pa.int64()))

    return (
        ds.map_batches(local_bottom_k, batch_format="pyarrow")
        .sort(["__rank", id_col])
        .limit(k)
        .drop_columns(["__rank"])
    )


def stratified_bottom_k(ds, id_col: str, group_col: str, k: int, salt: int = 0):
    """Per-group fixed-size deterministic sample: the ``k`` rows with
    the smallest hash rank WITHIN each group (stratified eval sets,
    per-domain debugging subsets).

    Grouped analogue of :func:`bottom_k_sample`: each batch keeps its
    local per-group bottom-k (one lexsort + grouped head), so the final
    merge sees at most k x n_groups x n_blocks rows — reduced on the
    driver like the grouped-top-k pattern (opzoo/queries.q24); swap
    for a ``groupby(group)`` merge when k x n_groups outgrows driver
    memory.
    """
    import pandas as pd

    if k <= 0:
        raise ValueError("k must be positive")

    def local(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        rank = hash_rank_of(ids.astype(np.int64, copy=False), salt)
        t = batch.append_column("__rank", pa.array(rank, pa.int64()))
        df = t.to_pandas()
        keep = (
            df.sort_values(["__rank", id_col])
            .groupby(group_col, sort=False)
            .head(k)
        )
        return pa.Table.from_pandas(keep, preserve_index=False)

    parts = ds.map_batches(local, batch_format="pyarrow").to_pandas()
    out = (
        parts.sort_values(["__rank", id_col])
        .groupby(group_col, sort=False)
        .head(k)
        .drop(columns="__rank")
        .reset_index(drop=True)
    )
    return out


def weighted_mixture_sample(
    ds, id_col: str, group_col: str, rates_pct: dict[str, int],
    default_pct: int = 0, salt: int = 0,
):
    """Per-group sampling rates — the mixture / curriculum reweighting
    primitive (e.g. keep 80% of books, 30% of web, 5% of crawl).

    Same deterministic hash-bucket rule as :func:`hash_sample`, but the
    keep threshold comes from the row's ``group_col`` value.  The rate
    table is a tiny broadcast (a dict captured in the task closure);
    no shuffle, no state.
    """
    for g, r in rates_pct.items():
        if not 0 <= r <= 100:
            raise ValueError(f"rate for {g!r} must be in [0, 100]")

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        b = hash_bucket_of(ids.astype(np.int64, copy=False), 100, salt)
        # dictionary-encode so the rate lookup touches UNIQUE values only
        enc = pc.dictionary_encode(
            batch[group_col].combine_chunks()
        )
        lut = np.fromiter(
            (rates_pct.get(v, default_pct) for v in enc.dictionary.to_pylist()),
            dtype=np.int64,
            count=len(enc.dictionary),
        )
        thresh = lut[enc.indices.to_numpy(zero_copy_only=False)]
        return batch.filter(pa.array(b < thresh))

    return ds.map_batches(keep, batch_format="pyarrow")
