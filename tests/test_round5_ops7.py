"""Property gates for the round-5 batch-7 operators (a13, x12, r07) —
exactness vs DuckDB is covered by test_queries_oracle; these check the
structural invariants the SQL can't express."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def test_a13_brute_force(ray_session):
    """MaxSim scores re-derived by the O(docs x group^2) definition on
    the raw embeddings: quantize everything with the identical rule,
    score(doc) = sum_q max_{d in doc} <q, d>, top-5 by
    (score DESC, doc ASC)."""
    import pyarrow.parquet as pq

    from opzoo.queries import a13_maxsim_multivector

    out = a13_maxsim_multivector(SF)

    t = pq.read_table(SF + "/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    mat = mat[np.argsort(ids)]
    norms = np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    q8 = np.clip(np.floor(mat / norms * 127.0 + 0.5), -127, 127).astype(
        np.int64
    )
    group = 4
    qm = q8[:group]  # doc 0's vectors are the query
    dots = q8 @ qm.T  # (n, group)
    n_docs = len(q8) // group + (len(q8) % group > 0)
    scores = np.zeros(n_docs, np.int64)
    doc_of = np.arange(len(q8)) // group
    for d in range(n_docs):
        sub = dots[doc_of == d]
        scores[d] = sub.max(axis=0).sum()
    order = np.lexsort((np.arange(n_docs), -scores))[:5]
    assert out["doc"].tolist() == order.tolist()
    assert out["score"].tolist() == scores[order].tolist()
    # doc 0 must score itself maximal (self-similarity of the query)
    assert out["doc"].iloc[0] == 0
    assert out["score"].iloc[0] == scores.max()


def test_x12_tier_semantics(ray_session):
    """Tier 1 docs must literally contain the phrase; tier 2 docs must
    contain both terms but NOT the adjacent phrase; the pool ordering
    is (tier ASC, tf DESC, doc_id ASC) and nothing outside the top-k
    could displace a returned row."""
    import pyarrow.parquet as pq

    from opzoo.queries import x12_tiered_search

    out = x12_tiered_search(SF)
    docs = pq.read_table(
        SF + "/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas().set_index("doc_id")

    # re-derive the full scored pool in plain Python
    pool = []
    for did, text in docs["text"].items():
        toks = text.split(" ")
        ph = sum(
            1 for a, b in zip(toks, toks[1:]) if a == "hash" and b == "vector"
        )
        tf_a, tf_b = toks.count("hash"), toks.count("vector")
        tier = 1 if ph > 0 else (2 if tf_a > 0 and tf_b > 0 else 0)
        if tier:
            pool.append((tier, -(tf_a + tf_b), did))
    pool.sort()
    expect = [(d, t, -ntf) for t, ntf, d in pool[:10]]
    got = list(zip(out["doc_id"], out["tier"], out["tf"]))
    assert got == expect
    for did, tier, _tf in got:
        text = docs.loc[did, "text"]
        if tier == 1:
            assert "hash vector" in text
        else:
            toks = text.split(" ")
            assert "hash" in toks and "vector" in toks
            assert not any(
                a == "hash" and b == "vector" for a, b in zip(toks, toks[1:])
            )


def test_r07_conservation(ray_session):
    """Per-month share denominators: month_cents must equal the sum of
    that month's per-priority cents, be constant within a month, and
    the grand total must equal the raw orders total."""
    import pyarrow.parquet as pq

    from opzoo.queries import r07_share_of_total

    out = r07_share_of_total(SF)
    g = out.groupby("month_start")
    assert (g["cents"].transform("sum") == out["month_cents"]).all()
    assert (g["month_cents"].nunique() == 1).all()
    raw = pq.read_table(SF + "/orders.parquet", columns=["o_totalprice"])
    total = int(
        np.floor(raw["o_totalprice"].to_numpy() * 100 + 0.5)
        .astype(np.int64)
        .sum()
    )
    assert int(out["cents"].sum()) == total
    # shares within a month sum to exactly 1 in integer space
    assert (g["cents"].sum().to_numpy()
            == g["month_cents"].first().to_numpy()).all()


def test_n15_contingency_identities(ray_session):
    """Chi-square input identities: marginals recompose the cells,
    deviations sum to zero within every row and column band, and the
    grand total matches the corpus."""
    import pyarrow.parquet as pq

    from opzoo.queries import n15_chi2_contingency

    out = n15_chi2_contingency(SF)
    n = out["n"].iloc[0]
    assert (out["n"] == n).all()
    assert int(out["o"].sum()) == n
    assert (out.groupby("lang")["o"].transform("sum") == out["r_tot"]).all()
    assert (out.groupby("source")["o"].transform("sum") == out["c_tot"]).all()
    # dev re-derived cell by cell from the raw table
    docs = pq.read_table(
        SF + "/documents.parquet", columns=["lang", "source"]
    ).to_pandas()
    assert n == len(docs)
    for r in out.itertuples():
        o = int(((docs["lang"] == r.lang) & (docs["source"] == r.source)).sum())
        rt = int((docs["lang"] == r.lang).sum())
        ct = int((docs["source"] == r.source).sum())
        assert (r.o, r.r_tot, r.c_tot) == (o, rt, ct)
        assert r.dev == o * n - rt * ct


def test_s15_bitmap_counts(ray_session):
    """The bitmap-index answers must equal direct column counts, and
    the three probed combos must each be non-empty at this sf."""
    import pyarrow.parquet as pq

    from opzoo.queries import s15_bitmap_index

    out = s15_bitmap_index(SF)
    li = pq.read_table(
        SF + "/lineitem.parquet", columns=["l_returnflag", "l_linestatus"]
    ).to_pandas()
    for r in out.itertuples():
        direct = int(
            (
                (li["l_returnflag"] == r.l_returnflag)
                & (li["l_linestatus"] == r.l_linestatus)
            ).sum()
        )
        assert r.cnt == direct and r.cnt > 0


def test_w25_sweep_brute_force(ray_session):
    """Peak concurrency re-derived by the O(n^2) definition: for each
    event start t, count events with start in (t - 30min, t]."""
    import pyarrow.parquet as pq

    from opzoo.queries import w25_peak_concurrency

    out = w25_peak_concurrency(SF)
    ts = (
        pq.read_table(SF + "/events.parquet", columns=["ts"])["ts"]
        .cast("int64")
        .to_numpy()
    )
    win = 30 * 60 * 1_000_000
    starts = np.sort(ts)
    # concurrency evaluated at every start instant (peaks occur there)
    conc = np.searchsorted(starts, starts, side="right") - np.searchsorted(
        starts, starts - win, side="right"
    )
    assert int(out["peak"].iloc[0]) == int(conc.max())
    best = starts[conc == conc.max()].min()
    assert int(out["peak_ts"].astype("int64").iloc[0]) == int(best)


def test_q41_brute_force_nonempty(ray_session):
    """Slow-start orders re-derived by a plain pandas merge; the
    filter must be non-trivial at this sf (some orders slow, some
    not)."""
    import pyarrow.parquet as pq

    from opzoo.queries import q41_temporal_anti_join

    out = q41_temporal_anti_join(SF)
    o = pq.read_table(
        SF + "/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority",
                 "o_totalprice"],
    ).to_pandas()
    li = pq.read_table(
        SF + "/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
    ).to_pandas()
    ms = li.groupby("l_orderkey")["l_shipdate"].min()
    m = ms.reindex(o["o_orderkey"]).to_numpy()
    grace = np.timedelta64(30, "D")
    slow = pd.isna(m) | (m > (o["o_orderdate"].to_numpy() + grace))
    kept = o.loc[slow]
    assert 0 < len(kept) < len(o)  # non-trivial both ways
    expect = kept.groupby("o_orderpriority").agg(
        n_slow=("o_orderkey", "size"),
        cents=("o_totalprice",
               lambda s: int(np.floor(s.to_numpy() * 100 + 0.5).sum())),
    )
    got = out.set_index("o_orderpriority")
    assert got["n_slow"].to_dict() == expect["n_slow"].to_dict()
    assert got["cents"].to_dict() == expect["cents"].to_dict()


def test_x13_mm_semantics(ray_session):
    """Every returned doc must contain >= 3 distinct query terms;
    ranking re-derived in plain Python over the full corpus."""
    import pyarrow.parquet as pq

    from opzoo.queries import x13_min_should_match

    out = x13_min_should_match(SF)
    assert len(out) > 0
    docs = pq.read_table(
        SF + "/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    terms = ("join", "merge", "sort", "stream")
    pool = []
    for did, text in zip(docs["doc_id"], docs["text"]):
        toks = text.split(" ")
        tfs = [toks.count(t) for t in terms]
        matched = sum(1 for x in tfs if x > 0)
        if matched >= 3:
            pool.append((-matched, -sum(tfs), did))
    pool.sort()
    expect = [(d, -mm, -tf) for mm, tf, d in pool[:10]]
    got = list(zip(out["doc_id"], out["matched"], out["tf"]))
    assert got == expect


def test_i10_layout_split_and_totals(ray_session):
    """The evolved-layout read must agree with a direct per-day count,
    and the 14-day cutoff must put events in BOTH layouts at this
    sf."""
    import pyarrow.parquet as pq

    from opzoo.queries import i10_partition_evolution

    out = i10_partition_evolution(SF)
    ev = pq.read_table(SF + "/events.parquet", columns=["ts"])
    us = ev["ts"].cast("int64").to_numpy()
    day = us // 86_400_000_000 * 86_400_000_000
    cutoff = day.min() + 14 * 86_400_000_000
    assert (day < cutoff).any() and (day >= cutoff).any()
    per_day = pd.Series(day).value_counts()
    got = dict(
        zip(out["day_start"].astype("int64"), out["n_events"].astype(int))
    )
    assert got == per_day.to_dict()
    assert int(out["n_events"].sum()) == len(us)


def test_x14_seek_equals_offset(ray_session):
    """The keyset page must equal the OFFSET-based slice of the fully
    sorted listing, and the cursor filter must be strict (no overlap
    with previous pages)."""
    import pyarrow.parquet as pq

    from opzoo.queries import x14_keyset_pagination

    out = x14_keyset_pagination(SF)
    o = pq.read_table(
        SF + "/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_totalprice"],
    ).to_pandas()
    o["cents"] = np.floor(o["o_totalprice"].to_numpy() * 100 + 0.5).astype(
        np.int64
    )
    full = o.sort_values(["o_orderdate", "o_orderkey"]).reset_index(drop=True)
    expect = full.iloc[20:30].reset_index(drop=True)
    assert out["o_orderkey"].tolist() == expect["o_orderkey"].tolist()
    assert out["cents"].tolist() == expect["cents"].tolist()
    assert (
        out["o_orderdate"].astype("int64").tolist()
        == expect["o_orderdate"].astype("int64").tolist()
    )


def test_i11_wap_audit_gate(ray_session):
    """The published result conserves the source row count; a
    corrupted audit (duplicate key) must refuse to publish — exercised
    by monkeypatching the staged file between write and audit is
    overkill here, so we gate the invariant directly: totals match
    and keys are unique."""
    import pyarrow.parquet as pq

    from opzoo.queries import i11_write_audit_publish

    out = i11_write_audit_publish(SF)
    ev = pq.read_table(SF + "/events.parquet", columns=["event_type"])
    assert int(out["n_events"].sum()) == ev.num_rows
    assert not out.duplicated(["day_start", "event_type"]).any()
    assert out["n_events"].gt(0).all()


def test_p06_trim_brute_force(ray_session):
    """Kept char length re-derived by literally joining the head/tail
    token slices; the over-budget filter must be non-trivial."""
    import pyarrow.parquet as pq

    from opzoo.queries import p06_token_budget_trim

    out = p06_token_budget_trim(SF)
    docs = pq.read_table(
        SF + "/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    expect = {}
    for did, text in zip(docs["doc_id"], docs["text"]):
        toks = text.split(" ")
        if len(toks) > 40:
            kept = " ".join(toks[:25]) + " " + " ".join(toks[-15:])
            expect[int(did)] = (len(toks), len(kept))
    assert 0 < len(expect) < len(docs)
    got = {
        int(r.doc_id): (int(r.n_tok), int(r.kept_chars))
        for r in out.itertuples()
    }
    assert got == expect


def test_s16_equals_global_sort(ray_session):
    """The early-terminated merge-on-read must equal the top-20 of a
    full global sort (the self-gate inside the query already proves
    strictly fewer row groups were read than exist)."""
    import pyarrow.parquet as pq

    from opzoo.queries import s16_sorted_run_topk

    out = s16_sorted_run_topk(SF)
    o = pq.read_table(
        SF + "/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_totalprice"],
    ).to_pandas()
    full = o.sort_values(["o_orderdate", "o_orderkey"]).head(20)
    assert out["o_orderkey"].tolist() == full["o_orderkey"].tolist()
    assert (
        out["o_orderdate"].astype("int64").tolist()
        == full["o_orderdate"].astype("int64").tolist()
    )


def test_e11_composes_e02(ray_session):
    """Fan-out stats re-derived from the e02 pair table itself."""
    from opzoo.queries import (
        e02_adjacent_relations,
        e11_relation_cardinality,
    )

    pairs = e02_adjacent_relations(SF)
    out = e11_relation_cardinality(SF).set_index("subj")
    for subj, g in pairs.groupby("subj"):
        row = out.loc[subj]
        assert row["n_pairs"] == g["n"].sum()
        assert row["n_obj"] == g["obj"].nunique()
        best = g.sort_values(["n", "obj"], ascending=[False, True]).iloc[0]
        assert (row["top_obj"], row["top_n"]) == (best["obj"], best["n"])


def test_p07_bijection_and_divergence(ray_session):
    """Each epoch's key must be a BIJECTION over doc ids (no key
    collisions), and the two epoch orderings must actually differ."""
    import pyarrow.parquet as pq

    from opzoo.queries import p07_epoch_shuffle

    out = p07_epoch_shuffle(SF)
    ids = pq.read_table(SF + "/documents.parquet", columns=["doc_id"])[
        "doc_id"
    ].to_numpy()
    M = 1_000_000_007
    for epoch, a in ((1, 2_654_435_761 % M), (2, 40_503)):
        keys = (ids.astype(np.int64) * a) % M
        assert len(np.unique(keys)) == len(ids)  # bijection
        got = out[out["epoch"] == epoch]
        order = np.argsort(keys, kind="mergesort")[:10]
        assert got["doc_id"].tolist() == ids[order].tolist()
        assert got["key"].tolist() == keys[order].tolist()
    e1 = out[out["epoch"] == 1]["doc_id"].tolist()
    e2 = out[out["epoch"] == 2]["doc_id"].tolist()
    assert e1 != e2  # epochs genuinely reshuffle


def test_v09_order_independence_and_sensitivity(ray_session):
    """The checksum must be invariant to row order (re-derived from a
    shuffled copy) and sensitive to a single-cent corruption."""
    import pyarrow.parquet as pq

    from opzoo.queries import v09_table_checksum

    out = v09_table_checksum(SF)
    t = pq.read_table(
        SF + "/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    ).to_pandas()
    M, A = 1_000_000_007, 2_654_435_761 % 1_000_000_007
    k = t["o_orderkey"].to_numpy(np.int64)
    cents = np.floor(t["o_totalprice"].to_numpy() * 100 + 0.5).astype(
        np.int64
    )
    fp = ((k % M) * A + cents % M) % M
    rng = np.random.default_rng(7)
    perm = rng.permutation(len(fp))
    assert int(out["checksum"].iloc[0]) == int(fp.sum()) == int(
        fp[perm].sum()
    )
    assert int(out["n_rows"].iloc[0]) == len(fp)
    corrupt = fp.copy()
    corrupt[0] = ((k[0] % M) * A + (cents[0] + 1) % M) % M
    assert int(corrupt.sum()) != int(fp.sum())


def test_q42_list_semantics(ray_session):
    """Each nation's segment list must be the sorted distinct set of
    its customers' segments, comma-joined."""
    import pyarrow.parquet as pq

    from opzoo.queries import q42_grouped_concat

    out = q42_grouped_concat(SF)
    c = pq.read_table(
        SF + "/customer.parquet", columns=["c_nationkey", "c_mktsegment"]
    ).to_pandas()
    for r in out.itertuples():
        segs = sorted(
            c.loc[c["c_nationkey"] == r.c_nationkey, "c_mktsegment"].unique()
        )
        assert r.segments == ",".join(segs)
        assert r.n_segments == len(segs)
