"""Output must be invariant to the partitioning configuration.

The two-cluster-size rule requires identical triples at any
parallelism; here the analogous knob is the conv-hash bucket count —
the shuffle layout changes completely between 8 and 64 buckets, the
emitted triple set must not.
"""

import os

import pandas as pd


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    df = df.fillna({"turn_idx": -1, "ref_type": ""})
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_triples_invariant_to_bucket_count(ray_session, ref_corpus):
    from naer_ray.pipelines.kg import build_triples

    frames = []
    for n_buckets in (8, 64):
        ds = build_triples(
            os.path.join(ref_corpus, "transcripts"),
            dictionary_path=os.path.join(ref_corpus, "entity_dictionary.parquet"),
            n_buckets=n_buckets,
        )
        frames.append(_sorted(ds.to_pandas()))
    pd.testing.assert_frame_equal(frames[0], frames[1])


def test_answers_path_invariant_to_bucket_count(ray_session, ref_corpus):
    from naer_ray.pipelines.kg import build_triples

    frames = []
    for n_buckets in (4, 32):
        ds = build_triples(
            os.path.join(ref_corpus, "transcripts"),
            extractor="answers",
            answers_path=os.path.join(ref_corpus, "llm_answers.parquet"),
            n_buckets=n_buckets,
        )
        frames.append(_sorted(ds.to_pandas()))
    pd.testing.assert_frame_equal(frames[0], frames[1])


SF = "/root/testdata/sf0.001"


def test_asof_join_invariant_to_bucket_count(ray_session):
    import ray.data

    from opzoo.stages.joins import asof_join

    frames = []
    for n_buckets in (4, 64):
        out = asof_join(
            ray.data.read_parquet(f"{SF}/events.parquet", columns=["user_id", "ts", "event_type"]),
            ray.data.read_parquet(f"{SF}/orders.parquet", columns=["o_custkey", "o_orderdate", "o_totalprice"]),
            left_on="ts",
            right_on="o_orderdate",
            left_by="user_id",
            right_by="o_custkey",
            n_buckets=n_buckets,
        ).to_pandas()
        out = out.fillna({"o_custkey": -1, "o_totalprice": -1.0})
        out["o_orderdate"] = out["o_orderdate"].astype(str)
        frames.append(out.sort_values(list(out.columns)).reset_index(drop=True))
    pd.testing.assert_frame_equal(frames[0], frames[1], check_dtype=False)


def test_range_join_invariant_to_bucket_count(ray_session):
    import ray.data

    from opzoo.stages.joins import range_join

    frames = []
    for n_buckets in (4, 64):
        orders = lambda cols: ray.data.read_parquet(f"{SF}/orders.parquet", columns=cols)
        import pyarrow as pa

        def rename(batch):
            return pa.table(
                {
                    "p_custkey": batch["o_custkey"],
                    "p_orderdate": batch["o_orderdate"],
                }
            )

        out = range_join(
            orders(["o_orderkey", "o_custkey", "o_orderdate"]),
            orders(["o_custkey", "o_orderdate"]).map_batches(rename, batch_format="pyarrow"),
            left_on="o_orderdate",
            right_on="p_orderdate",
            left_by="o_custkey",
            right_by="p_custkey",
            lower=pd.Timedelta(0),
            upper=pd.Timedelta(days=90),
            n_buckets=n_buckets,
        ).to_pandas()
        out["o_orderdate"] = out["o_orderdate"].astype(str)
        out["p_orderdate"] = out["p_orderdate"].astype(str)
        frames.append(out.sort_values(list(out.columns)).reset_index(drop=True))
    assert len(frames[0]) > 0
    pd.testing.assert_frame_equal(frames[0], frames[1], check_dtype=False)


def test_winnowed_span_pairs_invariant_to_buckets_and_blocks(ray_session):
    import ray.data

    from opzoo.stages.dedup import winnowed_span_pairs

    frames = []
    for n_buckets, n_blocks in ((8, 3), (64, 17)):
        ds = ray.data.read_parquet(
            f"{SF}/documents.parquet", columns=["doc_id", "text"]
        ).repartition(n_blocks)
        out = winnowed_span_pairs(ds, k=32, window=8, n_buckets=n_buckets)
        df = out.to_pandas() if out.count() else pd.DataFrame(
            {"id_a": [], "id_b": []}
        )
        frames.append(df.sort_values(list(df.columns)).reset_index(drop=True))
    pd.testing.assert_frame_equal(frames[0], frames[1], check_dtype=False)


def test_bloom_decontaminate_invariant_to_buckets_and_blocks(ray_session):
    import ray.data

    from opzoo.stages.dedup import bloom_decontaminate

    frames = []
    for n_buckets, n_blocks in ((4, 2), (64, 13)):
        docs = ray.data.read_parquet(
            f"{SF}/documents.parquet", columns=["doc_id", "text"]
        ).repartition(n_blocks)
        test = docs.filter(lambda r: r["doc_id"] % 50 == 0)
        out = bloom_decontaminate(docs, test, n=8, n_buckets=n_buckets).to_pandas()
        frames.append(out.sort_values(list(out.columns)).reset_index(drop=True))
    assert frames[0]["contaminated"].sum() >= 10  # the test docs themselves
    pd.testing.assert_frame_equal(frames[0], frames[1])


def test_range_partition_sort_invariant_and_exact(ray_session):
    import numpy as np
    import ray.data

    from opzoo.stages.order import range_partition_sort

    frames = []
    for n_parts, n_blocks, mod in ((4, 2, 17), (64, 13, 101)):
        ds = ray.data.read_parquet(
            f"{SF}/events.parquet", columns=["event_id", "value"]
        ).repartition(n_blocks)
        out = range_partition_sort(
            ds, "value", "event_id", n_parts=n_parts, sample_mod=mod
        ).to_pandas()
        frames.append(
            out.sort_values("global_rank").reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(frames[0], frames[1])
    # ranks are exactly 1..n and the (value, id) order is correct
    df = frames[0]
    assert list(df["global_rank"]) == list(range(1, len(df) + 1))
    key = list(zip(df["value"], df["event_id"]))
    assert key == sorted(key)


def test_range_partition_sort_descending(ray_session):
    import ray.data

    from opzoo.stages.order import range_partition_sort

    ds = ray.data.read_parquet(
        f"{SF}/events.parquet", columns=["event_id", "value"]
    ).repartition(5)
    df = (
        range_partition_sort(
            ds, "value", "event_id", n_parts=8, descending=True
        )
        .to_pandas()
        .sort_values("global_rank")
        .reset_index(drop=True)
    )
    key = list(zip(-df["value"], df["event_id"]))
    assert key == sorted(key)
    assert list(df["global_rank"]) == list(range(1, len(df) + 1))


def test_remove_duplicated_spans_strategy_equivalence(ray_session):
    import ray.data

    from opzoo.stages.dedup import remove_duplicated_spans

    frames = []
    for strategy, n_blocks in (("broadcast", 3), ("copartition", 11)):
        ds = ray.data.read_parquet(
            f"{SF}/documents.parquet", columns=["doc_id", "text"]
        ).repartition(n_blocks)
        out = (
            remove_duplicated_spans(ds, k=40, strategy=strategy)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        frames.append(out)
    assert frames[0]["n_removed"].sum() > 0  # the corpus has real dups
    pd.testing.assert_frame_equal(frames[0], frames[1])


def test_session_ops_invariant_to_bucket_count(ray_session):
    """The new bucketed session/audit ops must emit identical results
    at any bucket count (the two-cluster-size rule's analogue)."""
    from opzoo.queries import (
        e07_entity_density,
        j08_band_join,
        r06_semiadditive_last,
        v06_order_audit,
        v07_join_cardinality,
        w17_sliding_distinct,
        w18_session_paths,
        w19_decay_score,
    )

    for fn, kwargs in (
        (w17_sliding_distinct, {}),
        (w18_session_paths, {}),
        (r06_semiadditive_last, {}),
        (j08_band_join, {}),
        (v06_order_audit, {}),
        (w19_decay_score, {}),
        (e07_entity_density, {}),
        (v07_join_cardinality, {}),
    ):
        a = fn(SF, n_buckets=8, **kwargs)
        b = fn(SF, n_buckets=61, **kwargs)
        pd.testing.assert_frame_equal(
            a.reset_index(drop=True), b.reset_index(drop=True)
        )
