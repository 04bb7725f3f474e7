"""Property gates for the round-5 batch-6 operators (w21, n11, i08,
x11) — exactness vs DuckDB is covered by test_queries_oracle; these
check the structural invariants the SQL can't express."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def test_w21_dense_and_gapped(ray_session):
    """The series must be a DENSE hourly calendar (consecutive hours,
    no holes) whose zero rows are exactly the corpus's missing hours,
    and whose nonzero total is the corpus row count."""
    import pyarrow.parquet as pq

    from opzoo.queries import w21_gap_filled_series

    out = w21_gap_filled_series(SF)
    us = out["hour_start"].astype("int64").to_numpy()
    assert (np.diff(us) == 3_600_000_000).all()
    ts = pq.read_table(SF + "/events.parquet", columns=["ts"])["ts"]
    raw = ts.cast("int64").to_numpy() // 3_600_000_000 * 3_600_000_000
    present = set(raw.tolist())
    zero_hours = set(us[out["n_events"].to_numpy() == 0].tolist())
    assert zero_hours.isdisjoint(present)
    assert len(zero_hours) > 0  # sf0.001 really has gaps (531/720)
    assert int(out["n_events"].sum()) == len(raw)


def test_n11_gini_closed_form(ray_session):
    """Gini num/den re-derived by the O(n^2) definition (sum of all
    pairwise |xi - xj| = num) on the raw table."""
    import pyarrow.parquet as pq

    from opzoo.queries import n11_gini

    out = n11_gini(SF).set_index("o_orderpriority")
    t = pq.read_table(
        SF + "/orders.parquet", columns=["o_orderpriority", "o_totalprice"]
    ).to_pandas()
    t["cents"] = np.floor(t["o_totalprice"].to_numpy() * 100 + 0.5).astype(
        np.int64
    )
    for pri, g in t.groupby("o_orderpriority"):
        x = g["cents"].to_numpy(np.int64)
        pair_sum = int(np.abs(x[:, None] - x[None, :]).sum()) // 2
        row = out.loc[pri]
        # identity: sum_i (2*rank_i - n - 1) * x_(i) == sum_{i<j} |xi - xj|
        assert int(row["gini_num"]) == pair_sum
        assert int(row["gini_den"]) == len(x) * int(x.sum())
        # a valid Gini lies in [0, 1)
        assert 0 <= row["gini_num"] < row["gini_den"]


def test_i08_monotone_and_final_totals(ray_session):
    """Snapshot curves must be monotone non-decreasing and the last
    snapshot (past max ts? no — 01-25 is inside the range) must agree
    with a direct filter count."""
    import pyarrow.parquet as pq

    from opzoo.queries import i08_snapshot_series

    out = i08_snapshot_series(SF)
    for c in ["n_events", "n_users", "cents"]:
        assert (np.diff(out[c].to_numpy()) >= 0).all(), c
    ev = pq.read_table(
        SF + "/events.parquet", columns=["ts", "user_id"]
    ).to_pandas()
    us = ev["ts"].astype("int64")
    cut = out["snap_ts"].astype("int64").iloc[-1]
    assert int(out["n_events"].iloc[-1]) == int((us <= cut).sum())
    assert int(out["n_users"].iloc[-1]) == ev.loc[
        (us <= cut).to_numpy(), "user_id"
    ].nunique()


def test_x11_prefilter_lossless(ray_session):
    """The literal prefilter must be LOSSLESS: a full unfiltered regex
    scan of every document yields exactly the same hit set."""
    import re

    import pyarrow.parquet as pq

    from opzoo.queries import x11_regex_search

    out = x11_regex_search(SF).to_pandas()
    rx = re.compile("hash [a-z]+ join")
    docs = pq.read_table(
        SF + "/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    expect = {
        int(d): len(rx.findall(t))
        for d, t in zip(docs["doc_id"], docs["text"])
        if rx.search(t)
    }
    got = dict(zip(out["doc_id"].astype(int), out["n_matches"].astype(int)))
    assert got == expect and len(expect) > 0


def test_w22_brute_force(ray_session):
    """Re-derive attribution per purchase by a direct scan."""
    import pyarrow.parquet as pq

    from opzoo.queries import w22_attribution

    out = w22_attribution(SF)
    ev = pq.read_table(
        SF + "/events.parquet",
        columns=["user_id", "ts", "event_type", "event_id"],
    ).to_pandas()
    ev["us"] = ev["ts"].astype("int64")
    W = 7 * 86_400_000_000
    expect = {}
    for _, p in ev[ev["event_type"] == "purchase"].iterrows():
        c = ev[
            (ev["event_type"] == "click")
            & (ev["user_id"] == p["user_id"])
            & (ev["us"] <= p["us"])
            & (ev["us"] > p["us"] - W)
        ]
        if len(c):
            c = c.sort_values(["us", "event_id"], ascending=False).iloc[0]
            expect[int(p["event_id"])] = (
                int(c["event_id"]),
                int(p["us"] - c["us"]),
            )
    got = {
        int(r.purchase_id): (int(r.click_id), int(r.lag_us))
        for r in out.itertuples()
    }
    assert got == expect and len(expect) > 0


def test_n12_brute_force(ray_session):
    """2U re-derived by the O(na*nb) pairwise definition."""
    import pyarrow.parquet as pq

    from opzoo.queries import n12_mannwhitney

    out = n12_mannwhitney(SF).iloc[0]
    d = pq.read_table(
        SF + "/documents.parquet", columns=["lang", "n_chars"]
    ).to_pandas()
    a = d.loc[d["lang"] == "en", "n_chars"].to_numpy(np.int64)
    b = d.loc[d["lang"] != "en", "n_chars"].to_numpy(np.int64)
    gt = (a[:, None] > b[None, :]).sum()
    eq = (a[:, None] == b[None, :]).sum()
    assert int(out["two_u"]) == int(2 * gt + eq)
    assert int(out["n_a"]) == len(a) and int(out["n_b"]) == len(b)
    assert int(out["tie_pairs"]) == int(eq)


def test_s12_partition_conservation(ray_session):
    """Every hourly partition lands in exactly one bin; totals conserve;
    bin ids follow the fixed-boundary rule."""
    import pyarrow.parquet as pq

    from opzoo.queries import s12_compaction_plan

    out = s12_compaction_plan(SF)
    ts = pq.read_table(SF + "/events.parquet", columns=["ts"])["ts"]
    n_rows = len(ts)
    hours = set(
        (ts.cast("int64").to_numpy() // 3_600_000_000).tolist()
    )
    assert int(out["n_rows"].sum()) == n_rows
    assert int(out["n_parts"].sum()) == len(hours)
    # bins are contiguous ranges: sorted by bin_id, first_hour of bin
    # k+1 is strictly after last_hour of bin k
    o = out.sort_values("bin_id")
    assert (
        o["first_hour"].astype("int64").to_numpy()[1:]
        > o["last_hour"].astype("int64").to_numpy()[:-1]
    ).all()
    # fixed-boundary rule: cum rows before each bin // target == bin_id
    cum_before = np.concatenate(([0], np.cumsum(o["n_rows"].to_numpy())[:-1]))
    assert (cum_before // 250 == o["bin_id"].to_numpy()).all()


def test_a12_full_rederivation(ray_session):
    """Re-derive the two-stage result with plain numpy over the whole
    table: stage-1 top-50 by 8-dim prefix dot, stage-2 top-5 by full
    cosine within the pool."""
    import pyarrow.parquet as pq

    from opzoo.queries import a12_prefix_rerank

    out = a12_prefix_rerank(SF)
    t = pq.read_table(SF + "/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    order_ids = np.argsort(ids)
    ids, mat = ids[order_ids], mat[order_ids]
    for qi in range(3):
        qv = mat[ids == qi][0]
        ps = mat[:, :8] @ qv[:8]
        pool = np.lexsort((ids, -ps))[:50]
        qn = qv / np.linalg.norm(qv)
        m = mat[pool]
        cos = (m / np.linalg.norm(m, axis=1, keepdims=True)) @ qn
        top = np.lexsort((ids[pool], -cos))[:5]
        want = ids[pool][top].tolist()
        got = out.loc[out["query_id"] == qi, "vec_id"].tolist()
        assert got == want, (qi, got, want)


def test_e08_brute_force(ray_session):
    """Re-derive per-entity gap stats from the derived transcripts."""
    from collections import defaultdict

    from naer_ray.pipelines.queries import KG_ENTITIES, q14_kg_transcripts
    from opzoo.queries import e08_entity_gap_stats

    out = e08_entity_gap_stats(SF).set_index("entity")
    t = q14_kg_transcripts(SF)
    if hasattr(t, "to_pandas"):
        t = t.to_pandas()
    ents = set(KG_ENTITIES)
    turns = defaultdict(set)  # (entity, conv) -> turn set
    for r in t.itertuples():
        for w in set(r.text.split(" ")):
            if w in ents:
                turns[(w, r.conv_id)].add(int(r.turn_idx))
    stats = defaultdict(lambda: [0, 0, 0])  # n, sum, max
    for (e, _conv), ts in turns.items():
        s = sorted(ts)
        for a, b in zip(s, s[1:]):
            st = stats[e]
            st[0] += 1
            st[1] += b - a
            st[2] = max(st[2], b - a)
        stats[e]  # ensure entity appears even with no gaps
    for e, (n, sm, mx) in stats.items():
        row = out.loc[e]
        assert (int(row["n_gaps"]), int(row["sum_gap"]), int(row["max_gap"])) == (
            n,
            sm,
            mx,
        ), e
    assert set(out.index) == {e for (e, _c) in turns}


def test_q40_zero_customers_counted(ray_session):
    """The denominator must include customers with no orders."""
    import pyarrow.parquet as pq

    from opzoo.queries import q40_segment_activity

    out = q40_segment_activity(SF)
    cust = pq.read_table(
        SF + "/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).to_pandas()
    want = cust.groupby("c_mktsegment").size()
    got = out.set_index("segment")["n_customers"]
    assert dict(got) == dict(want)
    assert (out["n_active"] <= out["n_customers"]).all()
    orders = pq.read_table(SF + "/orders.parquet", columns=["o_custkey"])
    assert int(out["n_orders"].sum()) == len(orders)


def test_n13_brute_force(ray_session):
    """Re-derive the lag-1 sums from a dense hourly bincount."""
    import pyarrow.parquet as pq

    from opzoo.queries import n13_lag1_autocov

    out = n13_lag1_autocov(SF).iloc[0]
    ts = pq.read_table(SF + "/events.parquet", columns=["ts"])["ts"]
    h = ts.cast("int64").to_numpy() // 3_600_000_000
    x = np.bincount(h - h.min()).astype(np.int64)
    # dense calendar: bincount over the offset hour index IS gap-filled
    assert int(out["n_pairs"]) == len(x) - 1
    assert int(out["sum_prod"]) == int(np.sum(x[:-1] * x[1:]))
    assert int(out["sum_x0"]) == int(x[:-1].sum())
    assert int(out["sum_x1"]) == int(x[1:].sum())


def test_i09_tombstone_semantics(ray_session):
    """Survivor count = non-error rows minus tombstoned ids; a
    tombstoned id never survives."""
    import pyarrow.parquet as pq

    from opzoo.queries import i09_deletion_vectors

    out = i09_deletion_vectors(SF)
    ev = pq.read_table(
        SF + "/events.parquet", columns=["event_id", "event_type"]
    ).to_pandas()
    err = ev[ev["event_type"] == "error"]
    dv = set((err["event_id"] - 1).tolist())
    live = ev[ev["event_type"] != "error"]
    survivors = live[~live["event_id"].isin(dv)]
    assert int(out["n"].sum()) == len(survivors)
    assert set(out["event_type"]) == set(survivors["event_type"])
    assert len(dv) > 0  # the DV path is actually exercised


def test_g12_brute_force(ray_session):
    """Re-derive assortativity sums from a brute-force edge build."""
    from collections import defaultdict

    import pyarrow.parquet as pq

    from opzoo.queries import g12_assortativity

    out = g12_assortativity(SF).iloc[0]
    li = pq.read_table(
        SF + "/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    ).to_pandas()
    li = li[li["l_partkey"] % 7 == 0].drop_duplicates()
    edges = set()
    for _, g in li.groupby("l_orderkey"):
        ps = sorted(set(g["l_partkey"]))
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                edges.add((ps[i], ps[j]))
    deg = defaultdict(int)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    m = len(edges)
    s1 = sum(deg[u] + deg[v] for u, v in edges)
    s2 = sum(deg[u] ** 2 + deg[v] ** 2 for u, v in edges)
    sp = sum(deg[u] * deg[v] for u, v in edges)
    assert (int(out["m"]), int(out["s1"]), int(out["s2"]), int(out["sp"])) == (
        m, s1, s2, sp,
    )
    assert m > 0


def test_w23_quintile_invariants(ray_session):
    """Each score column splits users into 5 near-equal tiles and is
    monotone in its metric."""
    import pyarrow.parquet as pq

    from opzoo.queries import w23_rfm

    out = w23_rfm(SF)
    ev = pq.read_table(
        SF + "/events.parquet", columns=["user_id", "ts", "value"]
    ).to_pandas()
    ev["us"] = ev["ts"].astype("int64")
    ev["cents"] = np.floor(ev["value"].to_numpy() * 100 + 0.5).astype(np.int64)
    u = ev.groupby("user_id").agg(
        r=("us", "max"), f=("us", "size"), m=("cents", "sum")
    )
    n = len(u)
    assert len(out) == n
    for col, metric in (("r_score", "r"), ("f_score", "f"), ("m_score", "m")):
        sizes = out[col].value_counts()
        assert set(sizes.index) <= {1, 2, 3, 4, 5}
        assert sizes.max() - sizes.min() <= 1
        merged = out.merge(u, left_on="user_id", right_index=True)
        s = merged.sort_values([metric, "user_id"])
        assert (np.diff(s[col].to_numpy()) >= 0).all()


def test_n14_scipy_free_brute_force(ray_session):
    """Re-derive Σ(2rx−2ry)² with average ranks computed directly."""
    import pyarrow.parquet as pq

    from opzoo.queries import n14_spearman

    out = n14_spearman(SF).iloc[0]
    d = pq.read_table(
        SF + "/documents.parquet", columns=["n_chars", "text"]
    ).to_pandas()
    x = d["n_chars"].to_numpy(np.int64)
    y = np.array([len(t.split(" ")) for t in d["text"]], np.int64)

    def avg_rank2(v):
        # doubled average rank per element (integer)
        order = np.argsort(v, kind="mergesort")
        r2 = np.empty(len(v), np.int64)
        sv = v[order]
        i = 0
        while i < len(sv):
            j = i
            while j < len(sv) and sv[j] == sv[i]:
                j += 1
            r2[order[i:j]] = (i + 1) + j  # 2*avg of ranks i+1..j
            i = j
        return r2

    dd = avg_rank2(x) - avg_rank2(y)
    assert int(out["n"]) == len(x)
    assert int(out["sum_d2_x4"]) == int(np.sum(dd * dd))


def test_s13_probe_key_and_pruning(ray_session):
    """The probe key is the least-frequent custkey and the result is
    an exact filter aggregate (Bloom negatives cannot drop rows)."""
    import pyarrow.parquet as pq

    from opzoo.queries import s13_bloom_pruned_read

    out = s13_bloom_pruned_read(SF).iloc[0]
    o = pq.read_table(
        SF + "/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).to_pandas()
    cnt = o.groupby("o_custkey").size().reset_index(name="n")
    cnt = cnt.sort_values(["n", "o_custkey"])
    probe = int(cnt["o_custkey"].iloc[0])
    assert int(out["probe_key"]) == probe
    sel = o[o["o_custkey"] == probe]
    assert int(out["n_orders"]) == len(sel)
    assert int(out["cents"]) == int(
        np.floor(sel["o_totalprice"].to_numpy() * 100 + 0.5).astype(np.int64).sum()
    )


def test_m18_generator_rederivation(ray_session):
    """ZCR/TV re-derived from the closed-form generator (independent
    of the decoder)."""
    from opzoo.queries import m18_audio_zcr

    out = m18_audio_zcr(SF)
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    out = out.set_index("media_id")
    import pyarrow.parquet as pq

    ids = pq.read_table(SF + "/documents.parquet", columns=["doc_id"])[
        "doc_id"
    ].to_numpy()
    for doc_id in ids[:50]:
        n = 64 + (doc_id * 89) % 193
        j = np.arange(n, dtype=np.int64)
        a = ((doc_id * 31 + j * 57) % 2048) - 1024
        row = out.loc[f"a{doc_id:07d}"]
        assert int(row["n_samples"]) == n
        assert int(row["n_zero_cross"]) == int(np.sum(a[:-1] * a[1:] < 0))
        assert int(row["total_variation"]) == int(np.abs(np.diff(a)).sum())


def test_g13_brute_force_and_identity(ray_session):
    """Per-node triangles re-derived by brute force; the 3T identity
    and wedge formula hold."""
    from collections import defaultdict
    from itertools import combinations

    import pyarrow.parquet as pq

    from opzoo.queries import g13_local_clustering

    out = g13_local_clustering(SF).set_index("node")
    li = pq.read_table(
        SF + "/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    ).to_pandas()
    li = li[li["l_partkey"] % 7 == 0].drop_duplicates()
    edges = set()
    for _, g in li.groupby("l_orderkey"):
        for a, b in combinations(sorted(set(g["l_partkey"])), 2):
            edges.add((a, b))
    adj = defaultdict(set)
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    tri = defaultdict(int)
    n_tri = 0
    for u, v in edges:
        for w in adj[u] & adj[v]:
            if w > v:  # u < v < w since edges store u < v
                tri[u] += 1
                tri[v] += 1
                tri[w] += 1
                n_tri += 1
    assert n_tri > 0
    assert int(out["n_triangles"].sum()) == 3 * n_tri
    for node in out.index:
        assert int(out.loc[node, "n_triangles"]) == tri.get(node, 0), node
        d = len(adj[node])
        assert int(out.loc[node, "n_wedges"]) == d * (d - 1) // 2


def test_t19_counter_rederivation(ray_session):
    """Char histogram equals collections.Counter over all texts."""
    from collections import Counter

    import pyarrow.parquet as pq

    from opzoo.queries import t19_char_histogram

    out = t19_char_histogram(SF)
    texts = pq.read_table(SF + "/documents.parquet", columns=["text"])[
        "text"
    ].to_pylist()
    want = Counter()
    for t in texts:
        want.update(t)
    got = dict(zip(out["ch"], out["n"].astype(int)))
    assert got == dict(want)
    assert int(out["n"].sum()) == sum(len(t) for t in texts)


def test_j10_brute_force(ray_session):
    """Nearest-click join re-derived per purchase."""
    import pyarrow.parquet as pq

    from opzoo.queries import j10_nearest_event_join

    out = j10_nearest_event_join(SF)
    ev = pq.read_table(
        SF + "/events.parquet",
        columns=["user_id", "ts", "event_type", "event_id"],
    ).to_pandas()
    ev["us"] = ev["ts"].astype("int64")
    expect = {}
    clicks = ev[ev["event_type"] == "click"]
    for _, p in ev[ev["event_type"] == "purchase"].iterrows():
        c = clicks[clicks["user_id"] == p["user_id"]].copy()
        if not len(c):
            continue
        c["adist"] = (c["us"] - p["us"]).abs()
        c = c.sort_values(["adist", "us", "event_id"]).iloc[0]
        expect[int(p["event_id"])] = (int(c["event_id"]), int(c["adist"]))
    got = {
        int(r.purchase_id): (int(r.click_id), int(r.abs_lag_us))
        for r in out.itertuples()
    }
    assert got == expect and len(expect) > 0


def test_m19_generator_rederivation(ray_session):
    """Distinct colors re-derived from the generator arithmetic."""
    import pyarrow.parquet as pq

    from opzoo.queries import m19_distinct_colors

    out = m19_distinct_colors(SF)
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    out = out.set_index("media_id")
    ids = pq.read_table(SF + "/documents.parquet", columns=["doc_id"])[
        "doc_id"
    ].to_numpy()
    for doc_id in ids[:40]:
        w = 4 + (doc_id * 131) % 29
        h = 4 + (doc_id * 197) % 31
        j = np.arange(w * h, dtype=np.int64)
        key = (
            ((doc_id * 7 + j * 13) % 256) * 65536
            + ((doc_id * 11 + j * 17) % 256) * 256
            + ((doc_id * 13 + j * 23) % 256)
        )
        row = out.loc[f"m{doc_id:07d}"]
        assert int(row["n_pix"]) == w * h
        assert int(row["n_colors"]) == len(np.unique(key))


def test_w24_conservation_and_brute_force(ray_session):
    """Every signed-up user appears exactly once (converted XOR
    censored); durations re-derived per user."""
    import pyarrow.parquet as pq

    from opzoo.queries import w24_survival_table

    out = w24_survival_table(SF)
    ev = pq.read_table(
        SF + "/events.parquet", columns=["user_id", "ts", "event_type"]
    ).to_pandas()
    ev["us"] = ev["ts"].astype("int64")
    max_us = int(ev["us"].max())
    D = 86_400_000_000
    conv, cens = {}, {}
    for uid, g in ev.groupby("user_id"):
        s = g.loc[g["event_type"] == "signup", "us"]
        if not len(s):
            continue
        s0 = int(s.min())
        p = g.loc[(g["event_type"] == "purchase") & (g["us"] >= s0), "us"]
        if len(p):
            d = (int(p.min()) - s0) // D
            conv[d] = conv.get(d, 0) + 1
        else:
            d = (max_us - s0) // D
            cens[d] = cens.get(d, 0) + 1
    n_signed = ev[ev["event_type"] == "signup"]["user_id"].nunique()
    assert int(out["n_converted"].sum() + out["n_censored"].sum()) == n_signed
    got_conv = dict(
        zip(out["duration_days"].astype(int), out["n_converted"].astype(int))
    )
    got_cens = dict(
        zip(out["duration_days"].astype(int), out["n_censored"].astype(int))
    )
    assert {k: v for k, v in got_conv.items() if v} == conv
    assert {k: v for k, v in got_cens.items() if v} == cens


def test_e09_burstiness_invariants(ray_session):
    """max_conv_hits <= n_hits; sum over convs equals n_hits (checked
    by brute force); burstiness agrees with e07's hits total."""
    from collections import defaultdict

    from naer_ray.pipelines.queries import KG_ENTITIES, q14_kg_transcripts
    from opzoo.queries import e09_entity_burstiness

    out = e09_entity_burstiness(SF).set_index("entity")
    t = q14_kg_transcripts(SF)
    if hasattr(t, "to_pandas"):
        t = t.to_pandas()
    ents = set(KG_ENTITIES)
    per = defaultdict(lambda: defaultdict(int))
    for r in t.itertuples():
        for w in set(r.text.split(" ")):
            if w in ents:
                per[w][r.conv_id] += 1
    for e, convs in per.items():
        row = out.loc[e]
        assert int(row["n_hits"]) == sum(convs.values())
        assert int(row["n_convs"]) == len(convs)
        assert int(row["max_conv_hits"]) == max(convs.values())
    assert set(out.index) == set(per)


def test_s14_only_target_days_doubled(ray_session):
    """Overwritten partitions read back at exactly 2x; all others
    byte-identical to the source aggregation."""
    import pyarrow.parquet as pq

    from opzoo.queries import s14_partition_overwrite

    out = s14_partition_overwrite(SF).set_index("day")
    ev = pq.read_table(SF + "/events.parquet", columns=["ts", "value"]).to_pandas()
    us = ev["ts"].astype("int64")
    day = (us // 86_400_000_000) - (us.min() // 86_400_000_000)
    cents = np.floor(ev["value"].to_numpy() * 100 + 0.5).astype(np.int64)
    base = (
        pd.DataFrame({"day": day, "cents": cents})
        .groupby("day")["cents"]
        .sum()
    )
    for d, v in base.items():
        mult = 2 if d in (3, 7) else 1
        assert int(out.loc[d, "cents"]) == int(v) * mult, d
