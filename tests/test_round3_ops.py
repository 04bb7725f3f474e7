"""Edge cases for the round-3 continuation operators:

pii_redact / gopher_rules / chunk_plan (stages/text.py),
decontaminate / keep_best_dedup (stages/dedup.py),
rollup_sum (stages/agg.py).

The happy paths over the real corpus are covered by the oracle suite
(t07/t08/p02/d06/d07/r01 in opzoo/queries.py); these tests hit the
inputs the corpus never produces.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _docs(texts, ids=None):
    import ray.data

    ids = list(range(len(texts))) if ids is None else ids
    return ray.data.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})
    )


class TestPiiRedact:
    def test_email_then_phone_no_double_fire(self, ray_session):
        from opzoo.stages.text import pii_redact

        out = (
            pii_redact(
                _docs(
                    [
                        "mail me at a.b+c@ex-1.co.uk now",
                        "call +1-555-0100 or (555)0199 ok",
                        "digits 12345678@digits.example end",
                        "nothing sensitive here",
                        "",
                    ]
                )
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert out.loc[0, "red_text"] == "mail me at <EMAIL> now"
        assert (out.loc[0, "n_emails"], out.loc[0, "n_phones"]) == (1, 0)
        assert out.loc[1, "red_text"] == "call <PHONE> or (<PHONE> ok"
        assert out.loc[1, "n_phones"] == 2
        # the digit run sits inside an email: email redaction wins,
        # no phone match remains
        assert out.loc[2, "n_emails"] == 1 and out.loc[2, "n_phones"] == 0
        assert out.loc[3, "red_text"] == "nothing sensitive here"
        assert out.loc[4, "red_text"] == ""
        assert out[["n_emails", "n_phones"]].dtypes.tolist() == [
            np.dtype("int64")
        ] * 2


class TestGopherRules:
    def test_empty_and_short_docs(self, ray_session):
        from opzoo.stages.text import gopher_rules

        good = " ".join(["the cat sat on a mat for fun"] * 10)  # 80 words
        out = (
            gopher_rules(_docs(["", "   ", "tiny doc here", good]))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        # empty / whitespace-only: n_words 0, NULL stats, keep False
        for i in (0, 1):
            assert out.loc[i, "n_words"] == 0
            assert pd.isna(out.loc[i, "mean_word_len"])
            assert pd.isna(out.loc[i, "stop_frac"])
            assert not out.loc[i, "keep"]
        # short doc fails the min-words bound
        assert out.loc[2, "n_words"] == 3 and not out.loc[2, "keep"]
        # the good doc passes every rule
        assert out.loc[3, "n_words"] == 80
        assert bool(out.loc[3, "keep"])
        # "the", "a", "for" hit the stopword set: 3 per 8 words
        assert out.loc[3, "stop_frac"] == pytest.approx(30 / 80)

    def test_mean_word_len_band(self, ray_session):
        from opzoo.stages.text import gopher_rules

        # 60 long tokens: word count OK, mean length 24 > 10 -> reject
        long_doc = " ".join(["antidisestablishmentarian"] * 60)
        out = gopher_rules(_docs([long_doc])).to_pandas()
        assert out.loc[0, "mean_word_len"] > 10 and not out.loc[0, "keep"]


class TestChunkPlan:
    def test_boundaries(self, ray_session):
        from opzoo.stages.text import chunk_plan

        def doc(n):
            return " ".join(["w"] * n)

        # n=1 (empty string splits to one token), n<budget, n==budget,
        # n==budget+1 (first extra token forces a second chunk)
        out = (
            chunk_plan(
                _docs(["", doc(100), doc(128), doc(129)]),
                budget=128,
                stride=112,
            )
            .to_pandas()
            .sort_values(["doc_id", "chunk_id"])
            .reset_index(drop=True)
        )
        per = out.groupby("doc_id")["chunk_id"].count()
        assert per.tolist() == [1, 1, 1, 2]
        row = out[(out.doc_id == 3) & (out.chunk_id == 1)].iloc[0]
        assert (row.start_tok, row.end_tok) == (112, 129)
        # every chunk covers [i*stride, min(i*stride+budget, n)]
        assert (out.start_tok == out.chunk_id * 112).all()
        assert (out.end_tok - out.start_tok <= 128).all()
        # consecutive chunks overlap by budget-stride on the long doc
        assert (
            out[out.doc_id == 3].iloc[0].end_tok
            - out[out.doc_id == 3].iloc[1].start_tok
            == 16
        )

    def test_bad_stride_raises(self, ray_session):
        from opzoo.stages.text import chunk_plan

        with pytest.raises(ValueError):
            chunk_plan(_docs(["x"]), budget=128, stride=129)
        with pytest.raises(ValueError):
            chunk_plan(_docs(["x"]), budget=128, stride=0)


class TestDecontaminate:
    def test_flags_only_overlapping_docs(self, ray_session):
        from opzoo.stages.dedup import decontaminate

        shared = "alpha bravo charlie delta echo foxtrot golf hotel"  # 8 words
        test = _docs([f"prefix words {shared} suffix words"], ids=[100])
        train = _docs(
            [
                f"leading text {shared} trailing text",  # contaminated
                "totally unrelated content with eight or more words here",
                "short doc",  # < n tokens: never contaminated
                shared,  # exactly the 8-gram
            ],
            ids=[0, 1, 2, 3],
        )
        out = (
            decontaminate(train, test, n=8)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert out["contaminated"].tolist() == [True, False, False, True]

    def test_shingle_cap_raises(self, ray_session):
        from opzoo.stages.dedup import decontaminate

        test = _docs(["one two three four five six seven eight nine ten"])
        with pytest.raises(ValueError, match="max_test_shingles"):
            decontaminate(_docs(["x"]), test, n=8, max_test_shingles=1)


class TestKeepBestDedup:
    def test_priority_then_id_tiebreak(self, ray_session):
        import ray.data

        from opzoo.stages.dedup import keep_best_dedup

        df = pd.DataFrame(
            {
                "doc_id": [1, 2, 3, 4, 5, 6],
                "text": ["same", "same", "same", "other", "other", "solo"],
                "priority": [2, 0, 0, 1, 1, 9],
            }
        )
        out = (
            keep_best_dedup(
                ray.data.from_pandas(df), "doc_id", "text", "priority"
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        # 'same': priority 0 wins, tie between ids 2 and 3 -> 2
        # 'other': tie at priority 1 -> id 4; 'solo' survives untouched
        assert out["doc_id"].tolist() == [2, 4, 6]
        assert out["priority"].tolist() == [0, 1, 9]


class TestRollupSum:
    def test_levels_match_manual_totals(self, ray_session):
        import ray.data

        from opzoo.stages.agg import rollup_sum

        df = pd.DataFrame(
            {
                "a": ["x", "x", "y", "y", "y"],
                "b": ["p", "q", "p", "p", "q"],
                "v": [1, 2, 4, 8, 16],
            }
        )
        out = rollup_sum(ray.data.from_pandas(df), ["a", "b"], "v")
        fine = out[out.a.notna() & out.b.notna()]
        mid = out[out.a.notna() & out.b.isna()]
        grand = out[out.a.isna()]
        assert len(fine) == 4 and len(mid) == 2 and len(grand) == 1
        assert grand["sum_v"].iloc[0] == 31 and grand["n_rows"].iloc[0] == 5
        assert (
            mid.set_index("a")["sum_v"].to_dict() == {"x": 3, "y": 28}
        )
        key = fine.set_index(["a", "b"])["sum_v"].to_dict()
        assert key == {("x", "p"): 1, ("x", "q"): 2, ("y", "p"): 12, ("y", "q"): 16}


class TestC4LineRules:
    def test_each_rule_fires(self, ray_session):
        from opzoo.stages.text import c4_line_rules

        doc = "\n".join(
            [
                "this line has enough words here.",  # kept
                "short line.",  # < 5 words
                "no terminal punctuation on this line",  # no punct
                "this { braced } line has enough words.",  # brace
                "this JavaScript line has enough words too.",  # js marker
                'a quoted line with plenty of words"',  # quote counts
                "ends with a question and enough words?",  # kept
            ]
        )
        out = c4_line_rules(_docs([doc, "Lorem Ipsum filler."]), min_lines=2)
        df = out.to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert df.loc[0, "n_lines"] == 7 and df.loc[0, "n_kept"] == 3
        assert df.loc[0, "clean_text"].count("\n") == 2
        assert bool(df.loc[0, "keep"])
        # lorem-ipsum doc is rejected regardless of its lines
        assert not df.loc[1, "keep"]

    def test_empty_doc(self, ray_session):
        from opzoo.stages.text import c4_line_rules

        df = c4_line_rules(_docs([""])).to_pandas()
        assert df.loc[0, "clean_text"] == ""
        assert df.loc[0, "n_lines"] == 1 and df.loc[0, "n_kept"] == 0
        assert not df.loc[0, "keep"]


class TestLineDedup:
    def test_first_doc_wins_shared_lines(self, ray_session):
        from opzoo.stages.dedup import line_dedup

        footer = "shared footer"
        docs = _docs(
            [
                f"a one\nb one\n{footer}",
                f"c two\nd two\n{footer}",
                footer,  # loses its only line -> drops out
                f"{footer}\ne three",
            ]
        )
        out = (
            line_dedup(docs)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert out["doc_id"].tolist() == [0, 1, 3]
        assert out.loc[0, "clean_text"] == f"a one\nb one\n{footer}"
        assert out.loc[0, "n_kept"] == 3 and out.loc[0, "n_lines"] == 3
        assert out.loc[1, "clean_text"] == "c two\nd two"
        assert out.loc[1, "n_kept"] == 2 and out.loc[1, "n_lines"] == 3
        # doc 3 keeps only its unique line, in original order
        assert out.loc[2, "clean_text"] == "e three"

    def test_within_doc_duplicates_collapse(self, ray_session):
        from opzoo.stages.dedup import line_dedup

        out = line_dedup(_docs(["x y\nx y\nz w"])).to_pandas()
        assert out.loc[0, "clean_text"] == "x y\nz w"
        assert out.loc[0, "n_kept"] == 2 and out.loc[0, "n_lines"] == 3


class TestMisraGries:
    def test_summary_guarantee(self):
        from opzoo.stages.sketch import MisraGries

        rng = np.random.RandomState(3)
        items = [f"t{i}" for i in np.repeat(np.arange(200), rng.randint(1, 40, 200))]
        rng.shuffle(items)
        true = pd.Series(items).value_counts()
        n = len(items)
        m = 32
        mg = MisraGries(m)
        for lo in range(0, n, 97):  # uneven bulk adds
            chunk = pd.Series(items[lo : lo + 97]).value_counts()
            mg.add_counts(chunk.index, chunk.to_numpy())
        assert len(mg.counts) <= m
        for t, c in mg.counts.items():
            assert true[t] - n / (m + 1) <= c <= true[t]
        # every item above the error bound is present
        for t, c in true.items():
            if c > n / (m + 1):
                assert t in mg.counts

    def test_topk_exact_under_capacity_pressure(self, ray_session):
        from opzoo.stages.sketch import frequent_tokens_topk

        # 300 distinct tokens, zipf-ish; capacity 64 << vocab
        texts = []
        for i in range(300):
            texts.extend([f"tok{i:03d}"] * (1 + 3000 // (i + 1)))
        docs = _docs([" ".join(texts[i::7]) for i in range(7)])
        out = frequent_tokens_topk(docs, k=5, capacity=64)
        exact = (
            pd.Series(texts)
            .value_counts()
            .rename_axis("token")
            .reset_index(name="cnt")
            .sort_values(["cnt", "token"], ascending=[False, True])
            .head(5)
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            out.reset_index(drop=True), exact, check_dtype=False
        )

    def test_guard_raises_when_not_provable(self, ray_session):
        from opzoo.stages.sketch import frequent_tokens_topk

        # uniform counts: nothing exceeds N/(m+1) at tiny capacity
        docs = _docs([" ".join(f"u{i:04d}" for i in range(500))] * 2)
        with pytest.raises(ValueError, match="capacity"):
            frequent_tokens_topk(docs, k=3, capacity=4)


class TestRepNgrams:
    def test_edge_and_repeat_docs(self, ray_session):
        from opzoo.stages.text import rep_ngrams

        out = (
            rep_ngrams(_docs([
                "",                      # empty
                "one",                   # 1 word: no grams at all
                "a b c d",               # 4 words: 2-grams, no 5-grams
                "x y " * 30,             # pure repetition: both rules fire
                "a b c d e f g h i j",   # 10 distinct: 5-grams, no dups
            ]))
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert out.loc[0, "n_words"] == 0 and not out.loc[0, "keep"]
        assert pd.isna(out.loc[0, "top2_frac"]) and pd.isna(out.loc[0, "dup5_frac"])
        assert pd.isna(out.loc[1, "top2_frac"]) and bool(out.loc[1, "keep"])
        # 4 words -> top2 defined, dup5 NULL
        assert not pd.isna(out.loc[2, "top2_frac"])
        assert pd.isna(out.loc[2, "dup5_frac"])
        # "x y" repeated: top 2-gram ('x y', count 30 of 59 grams,
        # 2 chars each over 60 chars) -> 30*2/60 = 1.0; all 5-grams dup
        assert out.loc[3, "top2_frac"] == pytest.approx(1.0)
        assert out.loc[3, "dup5_frac"] > 0.15 and not out.loc[3, "keep"]
        # distinct 5-grams: dup5 exactly 0.0 (not NULL)
        assert out.loc[4, "dup5_frac"] == 0.0

    def test_tiebreak_is_lexicographic(self, ray_session):
        from opzoo.stages.text import rep_ngrams

        # grams 'b a' and 'a b' both occur twice ("a b a b a"):
        # a-b (x2), b-a (x2) -> top is 'a b' (lex smaller), frac 2*2/5
        out = rep_ngrams(_docs(["a b a b a"])).to_pandas()
        assert out.loc[0, "top2_frac"] == pytest.approx(4 / 5)


class TestCubeSum:
    def test_levels_match_manual_totals(self, ray_session):
        import ray.data
        from opzoo.stages.agg import cube_sum

        t = pa.table(
            {
                "a": ["x", "x", "y", "y"],
                "b": ["p", "q", "p", "p"],
                "v": pa.array([1, 2, 4, 8], pa.int64()),
            }
        )
        out = cube_sum(ray.data.from_arrow(t), ["a", "b"], "v")
        # 2^2 levels: fine(3) + by-a(2) + by-b(2) + grand(1) = 8 rows
        assert len(out) == 8
        grand = out[out["a"].isna() & out["b"].isna()]
        assert grand["sum_v"].iloc[0] == 15 and grand["n_rows"].iloc[0] == 4
        by_b = out[out["a"].isna() & (out["b"] == "p")]
        assert by_b["sum_v"].iloc[0] == 13  # 1 + 4 + 8
        by_a = out[(out["a"] == "x") & out["b"].isna()]
        assert by_a["sum_v"].iloc[0] == 3


class TestNtile:
    def test_small_groups_and_remainder(self, ray_session):
        import ray.data
        from opzoo.queries import w04_order_ntile
        import opzoo.queries as Q

        # custkey 1 has 6 orders -> NTILE(4) sizes 2,2,1,1;
        # custkey 2 has 2 orders (< k) -> tiles 1,2
        t = pa.table(
            {
                "o_orderkey": pa.array(list(range(8)), pa.int64()),
                "o_custkey": pa.array([1] * 6 + [2] * 2, pa.int64()),
                "o_orderdate": pa.array(
                    pd.to_datetime(
                        [f"2024-01-0{i+1}" for i in range(6)]
                        + ["2024-02-01", "2024-02-02"]
                    ).astype("datetime64[us]")
                ),
            }
        )
        import tempfile, os

        with tempfile.TemporaryDirectory() as d:
            import pyarrow.parquet as pq

            pq.write_table(t, os.path.join(d, "orders.parquet"))
            out = (
                w04_order_ntile(d)
                .to_pandas()
                .sort_values(["o_custkey", "o_orderkey"])
                .reset_index(drop=True)
            )
        assert list(out[out.o_custkey == 1]["tile"]) == [1, 1, 2, 2, 3, 4]
        assert list(out[out.o_custkey == 2]["tile"]) == [1, 2]


class TestFunnel:
    def test_adjacency_and_gap_boundary(self, ray_session):
        import tempfile, os
        import pyarrow.parquet as pq
        from opzoo.queries import w05_funnel

        base = pd.Timestamp("2024-01-01")
        rows = [
            # user 1: view -> click 10 min exactly (counts, <=),
            # then click -> purchase 10 min + 1 us (does not count)
            (0, 1, "view", base),
            (1, 1, "click", base + pd.Timedelta(minutes=10)),
            (2, 1, "purchase",
             base + pd.Timedelta(minutes=20, microseconds=1)),
            # user 2: view then error then click -> not adjacent
            (3, 2, "view", base),
            (4, 2, "error", base + pd.Timedelta(seconds=1)),
            (5, 2, "click", base + pd.Timedelta(seconds=2)),
        ]
        t = pa.table(
            {
                "event_id": pa.array([r[0] for r in rows], pa.int64()),
                "user_id": pa.array([r[1] for r in rows], pa.int64()),
                "event_type": pa.array([r[2] for r in rows]),
                "ts": pa.array(
                    pd.Series([r[3] for r in rows]).astype("datetime64[us]")
                ),
            }
        )
        with tempfile.TemporaryDirectory() as d:
            pq.write_table(t, os.path.join(d, "events.parquet"))
            out = (
                w05_funnel(d)
                .to_pandas()
                .sort_values("user_id")
                .reset_index(drop=True)
            )
        assert list(out["n_view_click"]) == [1, 0]
        assert list(out["n_click_purchase"]) == [0, 0]


class TestGlobalShuffle:
    def test_deterministic_and_mixed(self, ray_session):
        from opzoo.queries import s04_global_shuffle

        sf = "/root/testdata/sf0.001"
        a = s04_global_shuffle(sf).to_pandas()
        b = s04_global_shuffle(sf).to_pandas()
        # identical permutation across runs
        pd.testing.assert_frame_equal(a, b)
        ids = a["doc_id"].to_numpy()
        # a real permutation of the input, not the input order
        assert sorted(ids) == list(range(len(ids)))
        assert not np.array_equal(ids, np.arange(len(ids)))
        # well-mixed: adjacent doc_ids are far apart on average
        assert np.abs(np.diff(ids.astype(np.int64))).mean() > len(ids) / 10


class TestGroupedHll:
    def test_small_groups_exactish(self, ray_session):
        import ray.data
        from opzoo.stages.sketch import grouped_approx_distinct

        t = pa.table(
            {
                "g": (["a"] * 600 + ["b"] * 400),
                "v": [i % 97 for i in range(600)] + [i % 13 for i in range(400)],
            }
        )
        est = grouped_approx_distinct(
            ray.data.from_arrow(t).repartition(4), "g", "v"
        )
        assert abs(est["a"] - 97) <= 3 and abs(est["b"] - 13) <= 1


class TestPagerank:
    def test_small_graph_hand_computed(self, ray_session):
        import tempfile, os
        import pyarrow.parquet as pq
        from opzoo.queries import g01_pagerank

        # parts {1,2} both link supplier 7; bidirected:
        # nodes: 2, 4 (parts), 15 (supp); edges 2->15, 4->15, 15->2, 15->4
        t = pa.table(
            {
                "l_partkey": pa.array([1, 2, 1], pa.int64()),  # dup edge
                "l_suppkey": pa.array([7, 7, 7], pa.int64()),
            }
        )
        with tempfile.TemporaryDirectory() as d:
            pq.write_table(t, os.path.join(d, "lineitem.parquet"))
            out = g01_pagerank(d, iters=1).set_index("node_id")["rank"]
        S, n = 1_000_000_000, 3
        r0, base = S // n, (15 * (S // n)) // 100
        # supp 15 receives r0//1 from each part; parts receive r0//2
        assert out[15] == base + (85 * (2 * r0)) // 100
        assert out[2] == base + (85 * (r0 // 2)) // 100
        assert out[4] == out[2]


class TestJsonExtract:
    def test_negative_and_spacing(self, ray_session):
        import tempfile, os
        import pyarrow.parquet as pq
        from opzoo.queries import e01_json_extract

        t = pa.table(
            {
                "event_type": ["a", "a", "b"],
                "props": ['{"k": -5}', '{"k":7}', '{ "k":  42 }'],
            }
        )
        with tempfile.TemporaryDirectory() as d:
            pq.write_table(t, os.path.join(d, "events.parquet"))
            out = e01_json_extract(d).set_index("event_type")
        assert out.loc["a", "sum_k"] == 2 and out.loc["b", "sum_k"] == 42


def _events_table(user_ids, ts_us, event_types=None, tmpdir=None):
    import os
    import pyarrow.parquet as pq

    n = len(user_ids)
    t = pa.table(
        {
            "event_id": pa.array(range(1, n + 1), pa.int64()),
            "user_id": pa.array(user_ids, pa.int64()),
            "ts": pa.array(ts_us, pa.timestamp("us")),
            "event_type": pa.array(event_types or ["x"] * n),
        }
    )
    pq.write_table(t, os.path.join(tmpdir, "events.parquet"))
    return tmpdir


class TestRetentionCohorts:
    def test_hand_computed_offsets(self, ray_session):
        import tempfile

        from opzoo.queries import w06_retention_cohorts

        WEEK = 7 * 86_400 * 1_000_000
        # user 1: weeks 0, 0, 2 -> cohort 0, offsets {0, 2}
        # user 2: weeks 1, 3    -> cohort 1, offsets {0, 2}
        # user 3: week 0        -> cohort 0, offset {0}
        with tempfile.TemporaryDirectory() as d:
            _events_table(
                [1, 1, 1, 2, 2, 3],
                [10, 20, 2 * WEEK, WEEK, 3 * WEEK + 5, 30],
                tmpdir=d,
            )
            out = w06_retention_cohorts(d)
        got = {
            (r.cohort_week, r.week_offset): r.n_users
            for r in out.itertuples()
        }
        assert got == {(0, 0): 2, (0, 2): 1, (1, 0): 1, (1, 2): 1}

    def test_duplicate_weeks_counted_once(self, ray_session):
        import tempfile

        from opzoo.queries import w06_retention_cohorts

        with tempfile.TemporaryDirectory() as d:
            _events_table([5, 5, 5], [1, 2, 3], tmpdir=d)
            out = w06_retention_cohorts(d)
        assert out.to_dict("records") == [
            {"cohort_week": 0, "week_offset": 0, "n_users": 1}
        ]


class TestActivityStreaks:
    def test_islands_split_on_gap(self, ray_session):
        import tempfile

        from opzoo.queries import w07_activity_streaks

        DAY = 86_400 * 1_000_000
        # user 1: days 0,1,2 then 5 -> streaks [3, 1]
        # user 2: days 0 and 0 (dup) -> one streak of 1
        with tempfile.TemporaryDirectory() as d:
            _events_table(
                [1, 1, 1, 1, 2, 2],
                [0, DAY, 2 * DAY, 5 * DAY, 10, 20],
                tmpdir=d,
            )
            out = (
                w07_activity_streaks(d)
                .to_pandas()
                .set_index("user_id")
                .sort_index()
            )
        assert out.loc[1, "n_streaks"] == 2
        assert out.loc[1, "max_streak_days"] == 3
        assert out.loc[2, "n_streaks"] == 1
        assert out.loc[2, "max_streak_days"] == 1

    def test_streak_never_crosses_users(self, ray_session):
        import tempfile

        from opzoo.queries import w07_activity_streaks

        DAY = 86_400 * 1_000_000
        # user 1 ends on day 3, user 65 (same bucket mod 64) starts day 4:
        # consecutive days across a user boundary must NOT merge.
        with tempfile.TemporaryDirectory() as d:
            _events_table([1, 65], [3 * DAY, 4 * DAY], tmpdir=d)
            out = w07_activity_streaks(d).to_pandas().set_index("user_id")
        assert out.loc[1, "max_streak_days"] == 1
        assert out.loc[65, "max_streak_days"] == 1


class TestScd2Intervals:
    def test_runs_collapse_and_close(self, ray_session):
        import tempfile

        from opzoo.queries import i01_scd2_intervals

        OPEN = np.iinfo(np.int64).max
        # user 1: a@10, a@20, b@30, a@40 -> [a,10,30) [b,30,40) [a,40,open)
        with tempfile.TemporaryDirectory() as d:
            _events_table(
                [1, 1, 1, 1],
                [10, 20, 30, 40],
                event_types=["a", "a", "b", "a"],
                tmpdir=d,
            )
            out = (
                i01_scd2_intervals(d)
                .to_pandas()
                .sort_values("valid_from_us")
                .reset_index(drop=True)
            )
        assert list(out["event_type"]) == ["a", "b", "a"]
        assert list(out["valid_from_us"]) == [10, 30, 40]
        assert list(out["valid_to_us"]) == [30, 40, OPEN]

    def test_last_interval_open_per_user(self, ray_session):
        import tempfile

        from opzoo.queries import i01_scd2_intervals

        OPEN = np.iinfo(np.int64).max
        with tempfile.TemporaryDirectory() as d:
            _events_table(
                [1, 2], [10, 20], event_types=["a", "a"], tmpdir=d
            )
            out = i01_scd2_intervals(d).to_pandas()
        assert set(out["valid_to_us"]) == {OPEN}


class TestUnigramLm:
    def test_hand_corpus_freqs(self, ray_session):
        import tempfile, os
        import pyarrow.parquet as pq

        from opzoo.queries import t11_unigram_lm

        t = pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                # corpus freqs: the=3, cat=2, dog=1
                "text": ["the cat", "the cat dog", "the"],
            }
        )
        with tempfile.TemporaryDirectory() as d:
            pq.write_table(t, os.path.join(d, "documents.parquet"))
            out = t11_unigram_lm(d).to_pandas().set_index("doc_id")
        assert out.loc[1, "sum_tok_freq"] == 5  # the(3)+cat(2)
        assert out.loc[1, "min_tok_freq"] == 2
        assert out.loc[2, "sum_tok_freq"] == 6  # 3+2+1
        assert out.loc[2, "min_tok_freq"] == 1
        assert out.loc[3, "avg_tok_freq"] == 3.0

    def test_empty_doc_dropped(self, ray_session):
        import tempfile, os
        import pyarrow.parquet as pq

        from opzoo.queries import t11_unigram_lm

        t = pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": ["a a", "   "],
            }
        )
        with tempfile.TemporaryDirectory() as d:
            pq.write_table(t, os.path.join(d, "documents.parquet"))
            out = t11_unigram_lm(d).to_pandas()
        assert list(out["doc_id"]) == [1]


class TestTriangleCount:
    def _li(self, orders_parts, tmpdir):
        import os
        import pyarrow.parquet as pq

        ok, pk = zip(*orders_parts)
        t = pa.table(
            {
                "l_orderkey": pa.array(ok, pa.int64()),
                "l_partkey": pa.array(pk, pa.int64()),
            }
        )
        pq.write_table(t, os.path.join(tmpdir, "lineitem.parquet"))

    def test_hand_graph(self, ray_session):
        import tempfile

        from opzoo.queries import g02_triangle_count

        # parts 7,14,21 all share order 1 -> K3 = 1 triangle;
        # part 28 shares order 2 with 7 only -> adds edge, no triangle;
        # part 5 (not % 7 == 0) must be ignored even though it would
        # close a second triangle via orders 3 and 4.
        rows = [
            (1, 7), (1, 14), (1, 21),
            (2, 7), (2, 28),
            (3, 5), (3, 7), (4, 5), (4, 14),
        ]
        with tempfile.TemporaryDirectory() as d:
            self._li(rows, d)
            out = g02_triangle_count(d)
        assert out["n_triangles"].tolist() == [1]

    def test_k4_counts_each_triangle_once(self, ray_session):
        import tempfile

        from opzoo.queries import g02_triangle_count

        # K4 on {7,14,21,28} via one order -> C(4,3) = 4 triangles,
        # plus a duplicate order that must not double-count.
        rows = [(1, 7), (1, 14), (1, 21), (1, 28),
                (2, 7), (2, 14), (2, 21), (2, 28)]
        with tempfile.TemporaryDirectory() as d:
            self._li(rows, d)
            out = g02_triangle_count(d)
        assert out["n_triangles"].tolist() == [4]


class TestMadOutliers:
    def test_lower_median_rule_and_flag(self, ray_session):
        import tempfile, os
        import pyarrow.parquet as pq

        from opzoo.queries import t12_mad_outliers

        # source A lengths: [10, 10, 12, 100]; lower median (k=2) = 10;
        # deviations [0, 0, 2, 90] -> MAD (k=2) = 0; outlier iff dev > 0.
        t = pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "source": ["A"] * 4,
                "n_chars": pa.array([10, 10, 12, 100], pa.int64()),
            }
        )
        with tempfile.TemporaryDirectory() as d:
            pq.write_table(t, os.path.join(d, "documents.parquet"))
            out = (
                t12_mad_outliers(d).to_pandas().set_index("doc_id")
            )
        assert out["is_outlier"].tolist() == [False, False, True, True]


class TestEditDistancePairs:
    def _pairs(self, strings, ray_session):
        import ray.data

        from opzoo.stages.dedup import edit_distance_pairs

        ds = ray.data.from_arrow(
            pa.table({"s": pa.array(strings, pa.string())})
        )
        out = edit_distance_pairs(ds).to_pandas()
        if out.empty:
            return set()
        return set(zip(out["a"], out["b"]))

    def test_sub_ins_del_found(self, ray_session):
        got = self._pairs(
            ["spark", "spork", "sparks", "park", "merge"], None
        )
        assert ("spark", "spork") in got  # substitution
        assert ("spark", "sparks") in got  # insertion
        assert ("park", "spark") in got  # deletion
        assert not any("merge" in p for p in got)

    def test_shared_deletion_not_lev1_rejected(self, ray_session):
        # "abc" and "cab" share deletion "ab" but lev = 2: the verify
        # pass must reject the FastSS candidate.
        got = self._pairs(["abc", "cab"], None)
        assert got == set()

    def test_lev2_excluded(self, ray_session):
        got = self._pairs(["abcd", "abxy"], None)
        assert got == set()


class TestKnnGraph:
    def test_hand_vectors_rank_and_self_exclusion(self, ray_session):
        import tempfile, os
        import pyarrow.parquet as pq

        from opzoo.queries import a04_knn_graph

        # ids 0,4,8,12 pass the %4 filter; id 5 must be ignored.
        # Quantized dots from unit-ish vectors: 0~4 closest, then 8.
        vecs = {
            0: [1.0, 0.0],
            4: [0.9, 0.1],
            8: [0.5, 0.5],
            12: [0.0, 1.0],
            5: [1.0, 0.0],  # filtered out
        }
        ids = sorted(vecs)
        t = pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(
                    [vecs[i] for i in ids], pa.list_(pa.float32())
                ),
            }
        )
        with tempfile.TemporaryDirectory() as d:
            pq.write_table(t, os.path.join(d, "embeddings.parquet"))
            out = a04_knn_graph(d, k=2).to_pandas()
        assert set(out["src"]) == {0, 4, 8, 12}
        assert 5 not in set(out["nbr"])
        assert (out["src"] != out["nbr"]).all()
        g0 = out[out["src"] == 0].sort_values("rank")
        assert list(g0["nbr"]) == [4, 8]
        # exact quantized dots: 0.9*1000=900 -> 900*1000 = 900000
        assert list(g0["dot"]) == [900_000, 500_000]


class TestSemanticDedup:
    def test_multi_hop_chain_one_label(self, ray_session):
        import tempfile, os
        import pyarrow.parquet as pq

        from opzoo.queries import d10_semantic_dedup

        # Chain: 0~4 (dot 1e6*0.9), 4~8 (0.9) but 0!~8 (0.62 < thr):
        # transitive closure must still put all three in one cluster.
        # 12 is isolated and must keep itself.
        vecs = {
            0: [1.0, 0.0],
            4: [0.9, 0.43589],  # ~unit, dot with 0 = 0.9
            8: [0.62, 0.78],    # dot with 4 ~ 0.898, with 0 = 0.62
            12: [-1.0, 0.0],
        }
        ids = sorted(vecs)
        t = pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(
                    [vecs[i] for i in ids], pa.list_(pa.float32())
                ),
            }
        )
        with tempfile.TemporaryDirectory() as d:
            pq.write_table(t, os.path.join(d, "embeddings.parquet"))
            out = (
                d10_semantic_dedup(d, threshold=850_000)
                .set_index("vec_id")
                .sort_index()
            )
        assert list(out["label"]) == [0, 0, 0, 12]
        assert list(out["keep"]) == [True, False, False, True]


class TestIncrementalDedupIndex:
    """save_minhash_index / minhash_probe_index (stages/dedup.py)."""

    def test_probe_finds_near_dup_and_skips_novel(self, ray_session, tmp_path):
        from opzoo.stages.dedup import minhash_probe_index, save_minhash_index

        base = [
            "the quick brown fox jumps over the lazy dog again and again",
            "pack my box with five dozen liquor jugs before the party",
            "sphinx of black quartz judge my vow tonight under the moon",
        ]
        save_minhash_index(_docs(base), str(tmp_path / "idx"))
        probe = _docs(
            [
                # near-copy of base[1] (case change only -> jaccard 1.0)
                "PACK MY BOX WITH FIVE DOZEN LIQUOR JUGS BEFORE THE PARTY",
                # novel text sharing no 5-gram shingles
                "zzzz yyyy xxxx wwww vvvv uuuu tttt ssss rrrr qqqq pppp",
            ],
            ids=[100, 101],
        )
        out = minhash_probe_index(probe, str(tmp_path / "idx"), min_est=0.9).to_pandas()
        assert len(out) == 1
        row = out.iloc[0]
        assert (row["new_id"], row["old_id"]) == (100, 1)
        assert row["est_jaccard"] == 1.0

    def test_meta_roundtrip_and_empty_probe(self, ray_session, tmp_path):
        import json

        from opzoo.stages.dedup import minhash_probe_index, save_minhash_index

        save_minhash_index(
            _docs(["some indexed document text here"]), str(tmp_path / "idx"),
            num_perm=32, bands=8, n_shards=16,
        )
        meta = json.load(open(tmp_path / "idx" / "index_meta.json"))
        assert (meta["num_perm"], meta["bands"], meta["n_shards"]) == (32, 8, 16)
        # novel probe: no shared band -> empty result with typed schema
        out = minhash_probe_index(
            _docs(["completely different words entirely"], ids=[7]),
            str(tmp_path / "idx"),
            min_est=0.9,
        ).to_pandas()
        assert len(out) == 0

    def test_probe_old_vs_old_never_pairs(self, ray_session, tmp_path):
        """Two identical indexed docs must NOT pair with each other —
        only new-vs-old pairs come back."""
        from opzoo.stages.dedup import minhash_probe_index, save_minhash_index

        txt = "identical corpus document text repeated in the index twice over"
        save_minhash_index(_docs([txt, txt], ids=[1, 2]), str(tmp_path / "idx"))
        out = minhash_probe_index(
            _docs([txt], ids=[50]), str(tmp_path / "idx"), min_est=0.9
        ).to_pandas()
        assert set(out["new_id"]) == {50}
        assert set(out["old_id"]) == {1, 2}
        assert len(out) == 2


class TestUrlNormalize:
    def test_components_and_canonical_form(self):
        from opzoo.stages.url import parse_normalize_urls

        t = parse_normalize_urls(
            pa.array(
                [
                    "HTTPS://WWW.Example.COM:443/a/b?utm_source=x&id=3&utm_medium=y",
                    "http://sub.host.org:8080/?q=1",
                    "https://plain.net",
                    "ftp://files.example.net:21/pub",
                    "http://h.io:80/p?utm_only=1",
                ]
            )
        ).to_pandas()
        assert list(t["url_norm"]) == [
            "https://www.example.com/a/b?id=3",  # casefold, :443 strip, utm strip
            "http://sub.host.org:8080/?q=1",  # non-default port kept
            "https://plain.net/",  # missing path -> /
            "ftp://files.example.net:21/pub",  # unknown scheme: port kept
            "http://h.io/p",  # :80 strip, all-utm query -> empty
        ]
        assert list(t["domain"]) == [
            "example.com",
            "host.org",
            "plain.net",
            "example.net",
            "h.io",
        ]

    def test_malformed_yields_null(self):
        from opzoo.stages.url import parse_normalize_urls

        t = parse_normalize_urls(pa.array(["not a url", "://nohost"]))
        assert t["url_norm"].null_count == 2

    def test_single_label_host_domain_is_host(self):
        from opzoo.stages.url import parse_normalize_urls

        t = parse_normalize_urls(pa.array(["https://localhost:8443/x"]))
        assert t["domain"][0].as_py() == "localhost"
        assert t["url_norm"][0].as_py() == "https://localhost:8443/x"


class TestGraphCopartitionFallback:
    """g01/g04's distributed fallbacks (node set beyond worker/driver
    RAM) forced via node_threshold=0 must match the SAME DuckDB
    oracles that gate the dense paths — hash-exact."""

    SF = "/root/testdata/sf0.001"

    def _oracle(self, sql):
        import duckdb

        con = duckdb.connect()
        for t in ("lineitem",):
            con.sql(
                f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{self.SF}/{t}.parquet')"
            )
        return con.sql(sql).df()

    def test_g01_forced_copartition_vs_oracle(self, ray_session):
        from opzoo.queries import G01_SQL, g01_pagerank

        got = g01_pagerank(self.SF, node_threshold=0).reset_index(drop=True)
        want = (
            self._oracle(G01_SQL)
            .sort_values("node_id")
            .reset_index(drop=True)
            .astype({"node_id": "int64", "rank": "int64"})
        )
        pd.testing.assert_frame_equal(got, want)

    def test_g04_forced_copartition_vs_oracle(self, ray_session):
        from opzoo.queries import G04_SQL, g04_bfs_levels

        got = g04_bfs_levels(self.SF, node_threshold=0).reset_index(drop=True)
        want = (
            self._oracle(G04_SQL)
            .sort_values("node_id")
            .reset_index(drop=True)
            .astype({"node_id": "int64", "dist": "int64"})
        )
        pd.testing.assert_frame_equal(got, want)
