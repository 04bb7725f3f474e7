"""Round-5 batch-3 operator unit tests: grouping sets, unpivot,
EXISTS/NOT-EXISTS pushdown, salted skew agg, per-window top-N, FD
audit (the parametrized oracle sweep in test_queries_oracle covers
end-to-end exactness; these pin the semantics the hash alone could
mask)."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def test_grouping_sets_levels_and_sentinels(ray_session):
    """r04 must emit EXACTLY the two requested sets — no finest level,
    no grand total — with None in the grouped-out key."""
    from opzoo.queries import r04_grouping_sets

    out = r04_grouping_sets(SF)
    by_status = out[out["o_orderpriority"].isna()]
    by_prio = out[out["o_orderstatus"].isna()]
    # every row belongs to exactly one set
    assert len(by_status) + len(by_prio) == len(out)
    assert (~out["o_orderstatus"].isna() | ~out["o_orderpriority"].isna()).all()
    # both sets total the same row count (each partitions all orders)
    assert by_status["n_rows"].sum() == by_prio["n_rows"].sum()
    assert by_status["sum_cents"].sum() == by_prio["sum_cents"].sum()


def test_unpivot_metric_coverage(ray_session):
    from opzoo.queries import r05_unpivot

    out = r05_unpivot(SF)
    metrics = set(out["metric"])
    assert metrics == {
        "l_quantity",
        "l_extendedprice",
        "l_discount",
        "l_tax",
    }
    # every metric's long slice covers the whole fact table
    per_metric = out.groupby("metric")["n_rows"].sum()
    assert per_metric.nunique() == 1


def test_salted_equals_unsalted(ray_session):
    """The salt only changes shuffle distribution, never the result."""
    from opzoo.stages.agg import bucketed_sum
    from opzoo.queries import _read

    ds = _read(SF, "events", ["event_type"])
    a = (
        bucketed_sum(ds, ["event_type"], [], count_col="n")
        .to_pandas()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    ds2 = _read(SF, "events", ["event_type"])
    b = (
        bucketed_sum(ds2, ["event_type"], [], count_col="n", salt=8)
        .to_pandas()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b, check_exact=True)


def test_window_topn_rank_and_tiebreak(ray_session):
    from opzoo.queries import w10_window_topn

    out = w10_window_topn(SF)
    # at most 2 rows per window, ordered (n desc, event_type asc)
    for _, g in out.groupby("window_start"):
        assert len(g) <= 2
        rows = list(zip(-g["n"].to_numpy(), g["event_type"]))
        assert rows == sorted(rows)


def test_exists_filter_matches_pandas_reference(ray_session):
    """q34 vs a direct single-process re-derivation of the two
    existence predicates (independent of the SQL oracle)."""
    import pyarrow.parquet as pq

    from opzoo.queries import q34_exists_filter

    li = pq.read_table(
        f"{SF}/lineitem.parquet",
        columns=["l_orderkey", "l_discount", "l_quantity"],
    ).to_pandas()
    orders = pq.read_table(
        f"{SF}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    ).to_pandas()
    g = li.groupby("l_orderkey").agg(
        disc=("l_discount", lambda s: (s >= 0.08).any()),
        bulk=("l_quantity", lambda s: (s >= 45).any()),
    )
    keys = g[g["disc"] & ~g["bulk"]].index
    ref = (
        orders[orders["o_orderkey"].isin(keys)]
        .groupby("o_orderpriority", as_index=False)
        .size()
        .rename(columns={"size": "n_orders"})
        .astype({"n_orders": "int64"})
        .sort_values("o_orderpriority")
        .reset_index(drop=True)
    )
    out = q34_exists_filter(SF)
    pd.testing.assert_frame_equal(out, ref, check_exact=True)


def test_fd_violations_planted(ray_session, tmp_path):
    """A hand-built table with one violating determinant."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opzoo.queries import v02_fd_violations

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "lang": pa.array(["en", "en", "de", "fr"]),
            "source": pa.array(["web", "book", "web", "web"]),
            "text": pa.array(["x", "x", "x", "x"]),
            "n_chars": pa.array([1, 1, 1, 1], pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    out = v02_fd_violations(str(tmp_path)).set_index("fd")
    # lang 'en' maps to {web, book} -> 1 violation of 3 langs
    assert out.loc["lang->source", "n_keys"] == 3
    assert out.loc["lang->source", "n_violating_keys"] == 1
    # source 'web' maps to {en, de, fr} -> 1 violation of 2 sources
    assert out.loc["source->lang", "n_keys"] == 2
    assert out.loc["source->lang", "n_violating_keys"] == 1


def test_proximity_window_semantics(ray_session, tmp_path):
    """Hand-built docs: pair counting, window edge, order-free."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opzoo.queries import x05_proximity_search

    docs = [
        (1, "hash a b vector"),          # dist 3 -> 1 pair
        (2, "hash a b c vector"),        # dist 4 -> 0
        (3, "vector hash"),              # order-free, dist 1 -> 1
        (4, "hash vector hash"),         # 2 pairs
        (5, "hash hash"),                # no vector -> 0
    ]
    t = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([s for _, s in docs]),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    out = x05_proximity_search(str(tmp_path)).set_index("doc_id")
    assert out["n_pairs"].to_dict() == {4: 2, 1: 1, 3: 1}


def test_fof_bucket_invariance(ray_session):
    from opzoo.queries import g06_friends_of_friends

    a = g06_friends_of_friends(SF)
    b = g06_friends_of_friends(SF, n_buckets=7)
    pd.testing.assert_frame_equal(a, b, check_exact=True)


def test_gray_histogram_bins_cover_all_pixels(ray_session):
    from opzoo.queries import m14_gray_histogram

    out = m14_gray_histogram(SF).to_pandas()
    w = 4 + (out["doc_id"] * 131) % 29
    h = 4 + (out["doc_id"] * 197) % 31
    assert (
        out[["b0", "b1", "b2", "b3"]].sum(axis=1).to_numpy() == (w * h).to_numpy()
    ).all()


def test_resumable_write_second_pass_skips(ray_session, tmp_path):
    """The manifest makes the rerun a no-op: pass 1 writes all buckets,
    pass 2 writes none; a partially-complete manifest resumes only the
    missing buckets."""
    from opzoo.queries import _s07_write_pass
    from naer_ray.state.checkpoint import Manifest

    root = str(tmp_path / "ckpt")
    assert _s07_write_pass(SF, root, 4) == 4
    assert _s07_write_pass(SF, root, 4) == 0

    # simulate a crash that lost bucket 2: unmark it, rerun resumes it
    m = Manifest(root)
    del m.stage("lang_counts")["buckets"]["2"]
    m._flush()
    assert _s07_write_pass(SF, root, 4) == 1


def test_containment_join_hand_built(ray_session, tmp_path):
    """Quote-in-document detection: subset passes in its direction
    only; unrelated docs never pair."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from opzoo.stages.joins import containment_join

    docs = [
        (1, "a b c d e f g h i j"),   # 8 trigrams
        (2, "a b c d e"),             # 3 trigrams, all in doc 1
        (3, "x y z w v u"),           # unrelated
    ]
    t = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([s for _, s in docs]),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    ds = ray.data.read_parquet(str(tmp_path / "documents.parquet"))
    out = containment_join(ds, ds, 4, 5)
    assert list(map(tuple, out.to_numpy())) == [(2, 1)]


def test_d20_planted_quotes_all_found(ray_session):
    from opzoo.queries import d20_containment_pairs

    out = d20_containment_pairs(SF)
    pairs = set(map(tuple, out[["id_a", "id_b"]].to_numpy()))
    # every planted quote is contained in its original...
    import pyarrow.parquet as pq

    ids = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id"]
    )["doc_id"].to_pylist()
    missing = [i for i in ids if (i + 1_000_000, i) not in pairs]
    assert not missing
    # ...and no original is contained in its (shorter) quote
    assert not any((i, i + 1_000_000) in pairs for i in ids)


def test_radius_search_integer_boundary(ray_session, tmp_path):
    """cos = 0.5 exactly at the boundary must be INCLUDED (>=), and a
    negative-dot vector excluded even with large magnitude."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opzoo.queries import a09_radius_search

    # query ids 0,1,2 are required by the op; make 0 the probe axis
    vecs = {
        0: [1.0, 0.0, 0.0, 0.0],
        1: [0.0, 1.0, 0.0, 0.0],
        2: [0.0, 0.0, 1.0, 0.0],
        10: [1.0, 1.0, 1.0, 1.0],   # cos to q0 = 0.5 exactly -> in (num/den=1/2)
        11: [-1.0, 5.0, 5.0, 5.0],  # dot < 0 -> out
        12: [1.0, 9.0, 0.0, 0.0],   # cos to q0 ~ 0.11 -> out at 1/2
    }
    t = pa.table(
        {
            "vec_id": pa.array(list(vecs), pa.int64()),
            "embedding": pa.array(list(vecs.values()), pa.list_(pa.float64())),
        }
    )
    pq.write_table(t, tmp_path / "embeddings.parquet")
    out = a09_radius_search(str(tmp_path), num=1, den=2)
    got = set(map(tuple, out.to_numpy()))
    assert (0, 10) in got and (0, 0) in got
    # vs q0: vec 11 has dot < 0, vec 12 has cos ~ 0.11 — both out
    q0 = {v for q, v in got if q == 0}
    assert 11 not in q0 and 12 not in q0


def test_ngram_novelty_hand_built(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opzoo.queries import t17_ngram_novelty

    docs = [
        (1, "a b c d"),       # grams: abc, bcd -> both novel
        (2, "a b c x"),       # abc (seen in 1), bcx (novel)
        (3, "a b c d"),       # both seen
        (4, "q r"),           # too short -> absent
    ]
    t = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([s for _, s in docs]),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    out = t17_ngram_novelty(str(tmp_path)).set_index("doc_id")
    assert out["n_grams"].to_dict() == {1: 2, 2: 2, 3: 2}
    assert out["n_novel"].to_dict() == {1: 2, 2: 1, 3: 0}


def test_group_percentiles_rank_rule(ray_session, tmp_path):
    """percentile_disc = smallest value with cum count >= ceil(p*n)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opzoo.queries import n03_group_percentiles

    vals = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10, 10]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(vals)), pa.int64()),
            "lang": pa.array(["en"] * len(vals)),
            "n_chars": pa.array(vals, pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    out = n03_group_percentiles(str(tmp_path))
    ref = duckdb.sql(
        "SELECT percentile_disc(0.5) WITHIN GROUP (ORDER BY n_chars) p50,"
        "       percentile_disc(0.9) WITHIN GROUP (ORDER BY n_chars) p90 "
        f"FROM read_parquet('{tmp_path}/documents.parquet')"
    ).fetchone()
    assert (out.loc[0, "p50"], out.loc[0, "p90"]) == ref


def test_window_cooccurrence_excludes_same_turn(ray_session, tmp_path):
    """Entities in the SAME turn never pair (q16's territory); pairs
    within the ±2 window count once per (turn_a, turn_b) combination."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opzoo.queries import e05_window_cooccurrence

    # 10-word turns derive from documents: craft a 30-word doc =
    # 3 turns: turn0 has spark+join (same turn), turn1 has spark,
    # turn2 has join
    filler = ["a"] * 8
    words = (
        ["spark", "join"] + filler          # turn 0
        + ["spark"] + ["a"] * 9             # turn 1
        + ["join"] + ["a"] * 9              # turn 2
    )
    t = pa.table(
        {
            "doc_id": pa.array([1], pa.int64()),
            "text": pa.array([" ".join(words)]),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    out = e05_window_cooccurrence(str(tmp_path))
    # qualifying cross-turn pairs: (join@0, spark@1) d=1, (join@0, join@2)
    # same entity -> no, (spark@0, join@2) d=2, (spark@1, join@2) d=1,
    # (spark@0,spark@1) same entity -> no => w = 3
    assert out.to_dict("records") == [{"subj": "join", "obj": "spark", "w": 3}]


def test_incremental_agg_state_not_rescanned(ray_session):
    """The merged incremental result equals the full-scan aggregate."""
    from opzoo.queries import i04_incremental_agg, q35_salted_skew_agg

    inc = i04_incremental_agg(SF)
    full = q35_salted_skew_agg(SF)
    pd.testing.assert_frame_equal(
        inc[["event_type", "sum_mils", "n_events"]],
        full[["event_type", "sum_mils", "n_events"]],
        check_exact=True,
    )


def test_rolling_window_hand_built(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opzoo.queries import w11_rolling_window

    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "user_id": pa.array([7, 7, 7, 7, 8], pa.int64()),
            "ts": pa.array(
                pd.to_datetime([10, 20, 30, 40, 10], unit="us"),
                pa.timestamp("us"),
            ),
            "value": pa.array([1.0, 2.0, 3.0, 4.0, 9.0]),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    out = (
        w11_rolling_window(str(tmp_path))
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert out["roll3_mils"].tolist() == [1000, 3000, 6000, 9000, 9000]


def test_fuzzy_search_rejects_symmetric_delete_overmatch(
    ray_session, tmp_path
):
    """'ab' and 'ba' share a deletion (candidate overmatch) but sit at
    edit distance 2 — the exact verify must drop the pair, while true
    distance-1 terms (substitution / insertion / deletion) survive."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opzoo.queries import x06_fuzzy_search

    # queries are ('vektor', 'sow'); plant each match class for 'sow':
    #   'sw' (deletion), 'sol' (substitution), 'sown' (insertion),
    #   'ows' (shares deletions with 'sow' but distance 2 -> must drop),
    #   'vector' for the other query
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "text": pa.array(
                ["sw sw", "sol", "sown", "ows ows ows", "vector"]
            ),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    out = x06_fuzzy_search(str(tmp_path))
    by_q = {q: set(g["doc_id"]) for q, g in out.groupby("q")}
    assert by_q["sow"] == {1, 2, 3}  # never doc 4 ('ows')
    assert by_q["vektor"] == {5}


def test_fuzzy_search_matches_expected_terms(ray_session):
    from opzoo.queries import x06_fuzzy_search

    out = x06_fuzzy_search(SF)
    assert set(out["q"]) == {"vektor", "sow"}
    assert (out.groupby("q")["doc_id"].count() <= 10).all()


def test_audio_segments_run_length_semantics(ray_session):
    """Segment stats must be consistent: sum of segments' lengths =
    n_active, and max_seg = 0 iff no segments; re-derive one doc's
    runs directly from the decoder."""
    from opzoo.queries import m15_audio_segments
    from opzoo.stages.multimodal import decode_wav, synth_wav_payload

    out = m15_audio_segments(SF).to_pandas().set_index("doc_id")
    assert ((out["n_segments"] == 0) == (out["max_seg"] == 0)).all()
    assert (out["max_seg"] <= out["n_active"]).all()

    _r, s = decode_wav(synth_wav_payload(7))
    act = (np.abs(s.astype(np.int64)) >= 512).astype(int)
    runs, cur = [], 0
    for a in act:
        if a:
            cur += 1
        elif cur:
            runs.append(cur)
            cur = 0
    if cur:
        runs.append(cur)
    assert out.loc[7, "n_segments"] == len(runs)
    assert out.loc[7, "n_active"] == sum(runs)
    assert out.loc[7, "max_seg"] == (max(runs) if runs else 0)


def test_prefix_search_counts_all_matching_terms(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opzoo.queries import x07_prefix_search

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                ["spark spin sp other", "spark", "nothing here"]
            ),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    out = x07_prefix_search(str(tmp_path)).set_index("doc_id")
    assert out["score"].to_dict() == {1: 3, 2: 1}


def test_top_percent_threshold_includes_ties(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opzoo.queries import q36_top_percent

    # 200 orders: 197 at 1.00, three at 9.99.  ceil(0.99*200) = 198
    # lands past the 1.00 bucket (cum 197), so the threshold is 9.99
    # and ALL THREE ties are included
    prices = [1.0] * 197 + [9.99, 9.99, 9.99]
    t = pa.table(
        {
            "o_orderkey": pa.array(range(200), pa.int64()),
            "o_custkey": pa.array([1] * 200, pa.int64()),
            "o_orderstatus": pa.array(["O"] * 200),
            "o_totalprice": pa.array(prices),
            "o_orderdate": pa.array(
                pd.to_datetime([0] * 200, unit="us"), pa.timestamp("us")
            ),
            "o_orderpriority": pa.array(["1-URGENT"] * 200),
        }
    )
    pq.write_table(t, tmp_path / "orders.parquet")
    out = q36_top_percent(str(tmp_path))
    assert out["n_orders"].tolist() == [3]
    assert out["sum_cents"].tolist() == [2997]


def test_gap_stats_hand_built(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opzoo.queries import w12_gap_stats

    hours = [0, 0, 2, 5]  # user 1: hours {0,2,5} -> span 6, active 3, gaps 3
    t = pa.table(
        {
            "event_id": pa.array(range(4), pa.int64()),
            "user_id": pa.array([1] * 4, pa.int64()),
            "ts": pa.array(
                pd.to_datetime([h * 3600_000_000 for h in hours], unit="us"),
                pa.timestamp("us"),
            ),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    out = w12_gap_stats(str(tmp_path)).to_pandas()
    assert out.to_dict("records") == [
        {"user_id": 1, "slots": 6, "active": 3, "gaps": 3}
    ]


def test_copurchase_pair_weight_counts_orders_once(ray_session, tmp_path):
    """A pair appearing twice in ONE order counts once; across two
    orders counts twice."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opzoo.queries import g07_copurchase_topk

    rows = [
        (100, 1), (100, 2), (100, 2),   # order 100: pair (1,2) once
        (200, 1), (200, 2),             # order 200: pair (1,2) again
        (300, 3), (300, 4),             # order 300: pair (3,4)
    ]
    t = pa.table(
        {
            "l_orderkey": pa.array([o for o, _ in rows], pa.int64()),
            "l_partkey": pa.array([p for _, p in rows], pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "lineitem.parquet")
    out = g07_copurchase_topk(str(tmp_path))
    assert out.to_dict("records") == [
        {"pa": 1, "pb": 2, "w": 2},
        {"pa": 3, "pb": 4, "w": 1},
    ]


def test_more_like_this_excludes_query_doc(ray_session):
    from opzoo.queries import x08_more_like_this

    out = x08_more_like_this(SF)
    assert 42 not in set(out["doc_id"])
    assert len(out) == 10
    # ranking is by jaccard desc
    jac = (out["inter"] / out["uni"]).to_numpy()
    assert (np.diff(jac) <= 1e-15).all()


def test_kmeans_persisted_assign_gate(ray_session):
    from opzoo.queries import k02_kmeans_assign_persisted

    out = k02_kmeans_assign_persisted(SF)
    assert out["persisted_assign_match"].all()
    assert len(out) == 8


def test_bloom_semi_join_equals_plain_semi(ray_session):
    """Bloom acceleration must never change the result — compare to a
    direct pandas semi join."""
    import pyarrow.parquet as pq

    from opzoo.queries import j06_bloom_semi_join, _cents

    out = j06_bloom_semi_join(SF)
    orders = pq.read_table(
        f"{SF}/orders.parquet",
        columns=["o_custkey", "o_orderpriority", "o_totalprice"],
    ).to_pandas()
    cust = pq.read_table(
        f"{SF}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).to_pandas()
    keys = set(cust[cust["c_mktsegment"] == "BUILDING"]["c_custkey"])
    kept = orders[orders["o_custkey"].isin(keys)].copy()
    kept["cents"] = _cents(kept["o_totalprice"].to_numpy())
    ref = (
        kept.groupby("o_orderpriority", as_index=False)
        .agg(sum_cents=("cents", "sum"), n_orders=("cents", "size"))
        .astype({"sum_cents": "int64", "n_orders": "int64"})
        .sort_values("o_orderpriority")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        out[["o_orderpriority", "sum_cents", "n_orders"]], ref,
        check_exact=True,
    )


def test_schema_drift_classes(ray_session):
    from opzoo.queries import v03_schema_drift

    out = v03_schema_drift(SF).set_index("col")
    assert out.loc["doc_id", "status"] == "type_changed"
    assert out.loc["lang", "status"] == "dropped"
    assert out.loc["source", "status"] == "kept"
    assert out.loc["source2", "status"] == "added"


def test_frame_diff_single_frame_is_zero(ray_session):
    """Docs whose clip has one frame have no transitions."""
    from opzoo.queries import m16_frame_diff

    out = m16_frame_diff(SF).to_pandas()
    single = out[out["n_frames"] == 1]
    assert len(single) > 0
    assert (single["total_ydiff"] == 0).all()
    multi = out[out["n_frames"] > 1]
    assert (multi["total_ydiff"] > 0).all()


def test_filtered_search_subset_of_unfiltered(ray_session):
    """The filtered result must be exactly the unfiltered radius
    result (at the same threshold) intersected with the en-doc ids."""
    import pyarrow.parquet as pq

    from opzoo.queries import (
        a09_radius_search,
        a10_filtered_vector_search,
    )

    filt = a10_filtered_vector_search(SF)  # tau = 1/5
    unfilt = a09_radius_search(SF, num=1, den=5)
    docs = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "lang"]
    ).to_pandas()
    en = set(docs[docs["lang"] == "en"]["doc_id"])
    want = unfilt[unfilt["vec_id"].isin(en)].reset_index(drop=True)
    pd.testing.assert_frame_equal(filt, want, check_exact=True)


def test_snapshot_diff_hand_built_counts(ray_session):
    """Re-derive the planted diff classes directly."""
    import pyarrow.parquet as pq

    from opzoo.queries import i05_snapshot_diff

    ids = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id"]
    )["doc_id"].to_numpy()
    removed = int((ids % 20 == 0).sum())
    added = int((ids % 7 == 0).sum())
    kept = ids[ids % 20 != 0]
    changed = int((kept % 3 == 0).sum())
    unchanged = len(kept) - changed
    out = i05_snapshot_diff(SF).iloc[0]
    assert (out["added"], out["removed"], out["changed"], out["unchanged"]) == (
        added,
        removed,
        changed,
        unchanged,
    )


def test_vocab_coverage_all_tokens_in_corpus_vocab(ray_session):
    """The corpus vocabulary has ~31 terms; with top_k=40 every token
    is in-vocab, with top_k=1 only the most frequent term is."""
    from opzoo.queries import b03_vocab_coverage

    full = b03_vocab_coverage(SF, top_k=40).to_pandas()
    assert (full["n_oov"] == 0).all()
    tiny = b03_vocab_coverage(SF, top_k=1).to_pandas()
    assert (tiny["n_oov"] > 0).any()
    assert (tiny["n_oov"] <= tiny["n_tokens"]).all()


def test_running_distinct_hand_built(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opzoo.queries import w13_running_distinct

    # user 1: view, view, click, view, click -> 1,1,2,2,2
    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "user_id": pa.array([1] * 5, pa.int64()),
            "ts": pa.array(
                pd.to_datetime([10, 20, 30, 40, 50], unit="us"),
                pa.timestamp("us"),
            ),
            "event_type": pa.array(
                ["view", "view", "click", "view", "click"]
            ),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    out = (
        w13_running_distinct(str(tmp_path))
        .to_pandas()
        .sort_values("event_id")
    )
    assert out["n_distinct_types"].tolist() == [1, 1, 2, 2, 2]


def test_new_bucketed_ops_partitioning_invariance(ray_session):
    """Every bucketed kernel added this session must be invariant to
    the bucket count (the repo's partitioning-invariance gate)."""
    from opzoo import queries as q

    for fn, kwargs, sort_cols in (
        (q.e05_window_cooccurrence, {"n_buckets": 5}, ["subj", "obj"]),
        (q.g07_copurchase_topk, {"n_buckets": 5}, ["pa", "pb"]),
        (q.w11_rolling_window, {"n_buckets": 5}, ["event_id"]),
        (q.w12_gap_stats, {"n_buckets": 5}, ["user_id"]),
        (q.w13_running_distinct, {"n_buckets": 5}, ["event_id"]),
        (q.i05_snapshot_diff, {"n_buckets": 5}, ["added"]),
        (q.t17_ngram_novelty, {"n_buckets": 5}, ["doc_id"]),
    ):
        a = fn(SF)
        b = fn(SF, **kwargs)
        if hasattr(a, "to_pandas"):
            a = a.to_pandas()
        if hasattr(b, "to_pandas"):
            b = b.to_pandas()
        a = a.sort_values(sort_cols).reset_index(drop=True)
        b = b.sort_values(sort_cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_exact=True)


def test_host_cap_keeps_lowest_ids(ray_session):
    from opzoo.queries import u02_host_cap

    out = u02_host_cap(SF)
    for _, g in out.groupby("host"):
        assert len(g) <= 3
    # cap=1 keeps exactly the minimum id per host
    one = u02_host_cap(SF, cap=1)
    full = u02_host_cap(SF, cap=10_000)
    want = full.groupby("host", as_index=False)["doc_id"].min()
    pd.testing.assert_frame_equal(
        one.sort_values("host").reset_index(drop=True),
        want.sort_values("host").reset_index(drop=True),
        check_exact=True,
    )


def test_skew_report_shares_sum_bound(ray_session):
    from opzoo.queries import v04_skew_report

    out = v04_skew_report(SF)
    # floor division: shares sum to <= 1e6 and > 1e6 - n_keys
    s = int(out["share_ppm"].sum())
    assert 1_000_000 - len(out) < s <= 1_000_000


def test_morton_key_interleaves_bits():
    from opzoo.queries import _morton16

    a = np.array([0b10101010], np.int64)
    b = np.array([0b11110000], np.int64)
    # even positions from a, odd from b
    want = sum(
        ((0b10101010 >> i) & 1) << (2 * i)
        | ((0b11110000 >> i) & 1) << (2 * i + 1)
        for i in range(8)
    )
    assert _morton16(a, b)[0] == want


def test_zorder_rank_is_total_order(ray_session):
    from opzoo.queries import s09_zorder_layout

    out = s09_zorder_layout(SF).to_pandas().sort_values("global_rank")
    assert out["global_rank"].tolist() == list(range(1, len(out) + 1))
    z = out["zkey"].to_numpy()
    assert (np.diff(z) >= 0).all()


def test_column_profile_invariants(ray_session):
    """Profiler internal consistency: n equal across columns (same
    table), min <= max, discount distinct count small (11 values)."""
    from opzoo.queries import v05_column_profile

    out = v05_column_profile(SF).set_index("col")
    assert out["n"].nunique() == 1
    assert (out["min_c"] <= out["max_c"]).all()
    assert out.loc["l_discount", "n_distinct"] <= 11


def test_transition_matrix_hand_built(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opzoo.queries import w14_transition_matrix

    # user 1: a->b->b ; user 2: b->a (no cross-user transition)
    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "user_id": pa.array([1, 1, 1, 2, 2], pa.int64()),
            "ts": pa.array(
                pd.to_datetime([10, 20, 30, 10, 20], unit="us"),
                pa.timestamp("us"),
            ),
            "event_type": pa.array(["a", "b", "b", "b", "a"]),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    out = w14_transition_matrix(str(tmp_path))
    got = {
        (r.prev_type, r.event_type): r.n for r in out.itertuples()
    }
    assert got == {("a", "b"): 1, ("b", "b"): 1, ("b", "a"): 1}


def test_windowed_percentiles_bucket_invariance_and_bounds(ray_session):
    from opzoo.queries import n04_windowed_percentiles

    out = n04_windowed_percentiles(SF)
    assert (out["p50_mils"] <= out["p95_mils"]).all()


def test_stats_pruning_selects_subset_and_is_range_exact(ray_session):
    """The self-gate inside the query proves files were skipped; check
    the aggregate against a direct read."""
    import pyarrow.parquet as pq

    from opzoo.queries import s10_stats_pruned_read

    out = s10_stats_pruned_read(SF).iloc[0]
    df = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "n_chars"]
    ).to_pandas()
    kept = df[(df["doc_id"] >= 100) & (df["doc_id"] <= 220)]
    assert out["n_docs"] == len(kept)
    assert out["sum_n_chars"] == kept["n_chars"].sum()


def test_full_curation_cap_binds(ray_session):
    """With an infinite cap, p04 must reduce to p03's survivor set
    aggregated per lang; with cap=1 the counts shrink to <= hosts."""
    import duckdb

    from opzoo.queries import p04_full_curation

    uncapped = p04_full_curation(SF, cap=10_000)
    ref = duckdb.sql(
        r"""
        WITH n AS (SELECT doc_id, lang,
                 trim(regexp_replace(lower(text), '\s+', ' ', 'g')) AS nt
          FROM read_parquet('/root/testdata/sf0.001/documents.parquet')),
        f AS (SELECT *, len(string_split(nt,' ')) AS w FROM n
              WHERE len(string_split(nt,' ')) BETWEEN 20 AND 80),
        d AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY nt ORDER BY doc_id) rn FROM f)
        SELECT lang, CAST(COUNT(*) AS BIGINT) n_docs,
               CAST(SUM(w) AS BIGINT) sum_words
        FROM d WHERE rn = 1 GROUP BY lang ORDER BY lang
        """
    ).df()
    import pandas as pd

    pd.testing.assert_frame_equal(
        uncapped.reset_index(drop=True), ref, check_exact=True
    )
    one = p04_full_curation(SF, cap=1)
    assert int(one["n_docs"].sum()) <= 20  # at most one doc per host
