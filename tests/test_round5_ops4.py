"""Round-5 batch-4 operator unit tests: salted skew join, Count-Min
heavy hitters, k-core peel, KG entity profile (the parametrized oracle
sweep in test_queries_oracle covers end-to-end exactness; these pin
the semantics the hash alone could mask)."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def test_salted_join_equals_plain_join(ray_session):
    """Salting only changes shuffle distribution — the (key, salt)
    join must be row-identical to the plain pandas key join."""
    from opzoo.queries import j07_skew_salted_join

    out = j07_skew_salted_join(SF)
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    cu = pq.read_table(f"{SF}/customer.parquet").to_pandas()
    ev["mils"] = np.floor(ev["value"].to_numpy() * 1000 + 0.5).astype("int64")
    j = ev.merge(cu, left_on="user_id", right_on="c_custkey")
    ref = (
        j.groupby("c_mktsegment", as_index=False)
        .agg(sum_mils=("mils", "sum"), n_events=("mils", "size"))
        .sort_values("c_mktsegment")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        out, ref.astype({"sum_mils": "int64", "n_events": "int64"})
    )


def test_countmin_never_underestimates(ray_session):
    """CM property the prefilter relies on: for EVERY true key count,
    the sketch's min-row estimate >= the exact count — so no true
    heavy hitter can be pruned."""
    from opzoo.queries import _CM_DEPTH, _cm_rows
    from naer_ray.hashing import _fnv64_arr
    import pyarrow as pa

    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    true = (
        ev.groupby(["user_id", "event_type"], as_index=False)
        .size()
        .rename(columns={"size": "n"})
    )
    key = pa.array(true["user_id"].astype(str) + "|" + true["event_type"])
    rows = _cm_rows(_fnv64_arr(key))
    # build the sketch exactly as the operator does, single-process
    from opzoo.queries import _CM_WIDTH

    mat = np.zeros((_CM_DEPTH, _CM_WIDTH), np.int64)
    n = true["n"].to_numpy(np.int64)
    for r in range(_CM_DEPTH):
        np.add.at(mat[r], rows[r], n)
    est = mat[np.arange(_CM_DEPTH)[:, None], rows].min(axis=0)
    assert (est >= n).all()


def test_countmin_output_is_exact_threshold_set(ray_session):
    from opzoo.queries import n05_countmin_heavy_hitters

    out = n05_countmin_heavy_hitters(SF, threshold=15)
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    true = ev.groupby(["user_id", "event_type"], as_index=False).size()
    ref = true[true["size"] >= 15]
    assert len(out) == len(ref)
    assert (out["n_events"] >= 15).all()


def test_kcore_matches_sequential_peel(ray_session):
    """Distributed peel == single-process reference peel (nodes AND
    within-core degrees)."""
    from opzoo.queries import g08_kcore

    out = g08_kcore(SF, k=10)
    li = pq.read_table(
        f"{SF}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    ).to_pandas()
    li = li[li["l_partkey"] % 7 == 0].drop_duplicates()
    j = li.merge(li, on="l_orderkey")
    e = (
        j[j["l_partkey_x"] < j["l_partkey_y"]][["l_partkey_x", "l_partkey_y"]]
        .drop_duplicates()
        .to_numpy()
    )
    import collections

    adj = collections.defaultdict(set)
    for u, v in e:
        adj[u].add(v)
        adj[v].add(u)
    alive = set(adj)
    while True:
        drop = {n for n in alive if len(adj[n] & alive) < 10}
        if not drop:
            break
        alive -= drop
    ref = pd.DataFrame(
        sorted((n, len(adj[n] & alive)) for n in alive),
        columns=["node", "core_deg"],
    ).astype({"node": "int64", "core_deg": "int64"})
    pd.testing.assert_frame_equal(out, ref)


def test_kcore_raises_when_oracle_unroll_too_short(ray_session):
    """The Ray side must refuse to return a result the unrolled SQL
    could disagree with: max_rounds=1 cannot even observe convergence."""
    from opzoo.queries import g08_kcore

    with pytest.raises(RuntimeError, match="did not converge"):
        g08_kcore(SF, k=10, max_rounds=1)


def test_entity_profile_counts_turns_not_tokens(ray_session):
    """A repeated entity token inside one turn counts ONE mention
    (turn-level presence, mirroring the oracle's list_contains join)."""
    from opzoo.queries import e06_entity_profile, KG_ENTITIES
    from naer_ray.pipelines.queries import _CHUNK

    out = e06_entity_profile(SF)
    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    rows = {}
    for doc_id, text in zip(docs["doc_id"], docs["text"]):
        words = text.split(" ")
        for i in range(0, len(words), _CHUNK):
            turn = i // _CHUNK + 1
            present = set(words[i : i + _CHUNK]) & set(KG_ENTITIES)
            for ent in present:
                n, convs, mn, mx = rows.get(ent, (0, set(), 1 << 60, -1))
                convs.add(doc_id)
                rows[ent] = (n + 1, convs, min(mn, turn), max(mx, turn))
    ref = pd.DataFrame(
        sorted(
            (e, n, len(c), mn, mx) for e, (n, c, mn, mx) in rows.items()
        ),
        columns=["entity", "n_mentions", "n_convs", "min_turn", "max_turn"],
    ).astype(
        {
            "n_mentions": "int64",
            "n_convs": "int64",
            "min_turn": "int64",
            "max_turn": "int64",
        }
    )
    pd.testing.assert_frame_equal(out, ref)


def test_multi_distinct_one_dedup_exchange(ray_session):
    """q37's distinct counts must equal independent pandas distincts."""
    from opzoo.queries import q37_multi_distinct_agg

    out = q37_multi_distinct_agg(SF)
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    ev["day"] = ev["ts"].dt.date.astype(str)
    ref = ev.groupby("event_type").agg(
        n_users=("user_id", "nunique"),
        n_days=("day", "nunique"),
        n_events=("user_id", "size"),
    )
    for _, r in out.iterrows():
        e = ref.loc[r["event_type"]]
        assert (r["n_users"], r["n_days"], r["n_events"]) == (
            e["n_users"],
            e["n_days"],
            e["n_events"],
        )


def test_interval_coverage_merges_overlaps(ray_session):
    """Covered time must never exceed span x n_islands... and must
    equal a brute-force per-user interval union."""
    from opzoo.queries import w15_interval_coverage

    span = 300_000_000
    out = w15_interval_coverage(SF, span_us=span)
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    ev["s"] = ev["ts"].astype("datetime64[us]").astype("int64")
    for uid, g in ev.groupby("user_id"):
        starts = np.sort(g["s"].to_numpy())
        covered, islands = 0, 0
        cur_s, cur_e = None, None
        for s in starts:
            e = s + span
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
                islands += 1
            else:
                cur_e = max(cur_e, e)
        covered += cur_e - cur_s
        row = out[out["user_id"] == uid].iloc[0]
        assert row["covered_us"] == covered and row["n_islands"] == islands


def test_kwic_contexts_clip_at_doc_boundaries(ray_session):
    """Windows at the first/last token clip to the document (never
    leak tokens from the neighboring doc in the flat token array),
    and overlapping windows of adjacent hits are gathered
    independently."""
    from opzoo.queries import t18_kwic

    out = t18_kwic(SF, term="spark", width=2)
    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    words_by_doc = {d: t.split(" ") for d, t in zip(docs["doc_id"], docs["text"])}
    assert len(out) > 0
    for _, r in out.head(200).iterrows():
        w = words_by_doc[r["doc_id"]]
        i = r["pos"] - 1
        assert w[i] == "spark"
        assert r["left_ctx"] == " ".join(w[max(i - 2, 0) : i])
        assert r["right_ctx"] == " ".join(w[i + 1 : i + 3])


def test_time_travel_tie_break_and_cutoff(ray_session):
    """AS-OF read: rows after the cutoff must be invisible, and equal
    timestamps break by event_id descending."""
    from opzoo.queries import i06_time_travel

    out = i06_time_travel(SF, asof="2024-01-03")
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    ev = ev[ev["ts"] <= pd.Timestamp("2024-01-03")]
    ref = (
        ev.sort_values(["ts", "event_id"], ascending=False)
        .drop_duplicates("user_id", keep="first")
        .sort_values("user_id")
    )
    assert len(out) == len(ref)
    m = out.merge(ref, on="user_id", suffixes=("", "_ref"))
    assert (
        m["last_ts_us"]
        == m["ts"].astype("datetime64[us]").astype("int64")
    ).all()
    assert (m["event_type"] == m["event_type_ref"]).all()


def test_distinct_pairs_driver_and_distributed_arms_agree(ray_session):
    """The size-gated candidate dedup must produce the same distinct
    pair set through the small (driver pyarrow distinct) and large
    (bucketed exchange) arms."""
    import pyarrow as pa
    import ray.data

    from opzoo.stages.joins import _distinct_pairs

    rng = np.random.RandomState(7)
    a = rng.randint(0, 50, 5000).astype("int64")
    b = rng.randint(0, 50, 5000).astype("int64")
    cands = ray.data.from_arrow(
        pa.table({"id_a": a, "id_b": b})
    ).repartition(8)
    small = _distinct_pairs(cands, n_buckets=8).to_pandas()
    cands2 = ray.data.from_arrow(
        pa.table({"id_a": a, "id_b": b})
    ).repartition(8)
    large = _distinct_pairs(cands2, n_buckets=8, raw_driver_max=0).to_pandas()
    key = ["id_a", "id_b"]
    s = small.sort_values(key).reset_index(drop=True)
    l = large.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(s, l.astype(s.dtypes.to_dict()))
    assert len(s) == len(pd.DataFrame({"id_a": a, "id_b": b}).drop_duplicates())


def test_remove_spans_driver_and_distributed_confirm_agree(ray_session):
    """d15's size-gated confirm/apply: the driver-confirm broadcast arm
    and the distributed gram-bucket confirm + doc co-partition apply
    must produce identical cleaned text."""
    import ray.data

    from opzoo.stages.dedup import remove_duplicated_spans

    docs = pd.DataFrame(
        {
            "doc_id": np.arange(6, dtype="int64"),
            "text": [
                "A" * 50 + "x" * 10,
                "y" * 5 + "A" * 50,          # shares the 50-A run -> dup 40-grams
                " ".join(f"w{i}" for i in range(30)),  # no repeated 40-gram
                "B" * 45,
                "z" * 3 + "B" * 45 + "w",    # shares the 45-B run
                "",
            ],
        }
    )
    a = (
        remove_duplicated_spans(ray.data.from_pandas(docs), k=40)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    b = (
        remove_duplicated_spans(
            ray.data.from_pandas(docs), k=40, broadcast_max_positions=0
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    # the duplicated runs must actually be removed on both arms
    assert a.loc[0, "n_removed"] > 0 and a.loc[1, "n_removed"] > 0
    assert a.loc[2, "n_removed"] == 0


def test_kcore_empty_core_terminates(ray_session):
    """A k that empties the graph must converge to an empty core, not
    crash the degree pass on an empty alive set."""
    from opzoo.queries import g08_kcore

    out = g08_kcore(SF, k=1000, max_rounds=8)
    assert len(out) == 0
    assert list(out.columns) == ["node", "core_deg"]


def test_boolean_search_negation(ray_session):
    """Matches must contain every must-term and NO banned term."""
    from opzoo.queries import x09_boolean_search

    out = x09_boolean_search(SF)
    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    by_id = dict(zip(docs["doc_id"], docs["text"]))
    assert len(out) > 0
    for d in out["doc_id"]:
        toks = set(by_id[d].split(" "))
        assert "spark" in toks and "join" in toks and "window" not in toks
    # completeness: no qualifying doc missed
    n_true = sum(
        1
        for t in docs["text"]
        if {"spark", "join"} <= set(t.split(" ")) and "window" not in t.split(" ")
    )
    assert len(out) == n_true


def test_weighted_median_rule(ray_session):
    """The reported value must be the smallest v with 2*cumw >= total
    (weight = the value itself here)."""
    from opzoo.queries import n06_weighted_median

    out = n06_weighted_median(SF)
    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    for _, r in out.iterrows():
        vals = np.sort(docs[docs["lang"] == r["lang"]]["n_chars"].to_numpy())
        w = vals.astype("int64")
        cum = np.cumsum(w)
        total = cum[-1]
        v = vals[np.searchsorted(cum * 2, total, side="left")]
        assert r["weighted_median_len"] == v and r["total_w"] == total


def test_time_to_convert_first_purchase_after_first_signup(ray_session):
    from opzoo.queries import w16_time_to_convert

    out = w16_time_to_convert(SF)
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    ev["us"] = ev["ts"].astype("datetime64[us]").astype("int64")
    for uid, g in ev.groupby("user_id"):
        s = g[g["event_type"] == "signup"]["us"]
        if s.empty:
            assert uid not in set(out["user_id"])
            continue
        s0 = s.min()
        p = g[(g["event_type"] == "purchase") & (g["us"] > s0)]["us"]
        row = out[out["user_id"] == uid]
        if p.empty:
            assert row.empty
        else:
            assert row.iloc[0]["lag_us"] == p.min() - s0
