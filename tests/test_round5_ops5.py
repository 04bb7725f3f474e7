"""Property gates for the round-5 batch-5 operators (x10, g09, n07,
q38, u03) — exactness vs DuckDB is covered by test_queries_oracle;
these check the structural invariants the SQL can't express."""

import numpy as np

SF = "/root/testdata/sf0.001"


def test_u03_budget_sums_exactly(ray_session):
    from opzoo.queries import u03_crawl_budget

    out = u03_crawl_budget(SF, budget=1000)
    assert int(out["budget"].sum()) == 1000
    # proportionality: allocation never off by more than 1 from the
    # exact quota (the Hamilton-method guarantee)
    total = int(out["n_pages"].sum())
    quota = 1000 * out["n_pages"].to_numpy(np.float64) / total
    diff = out["budget"].to_numpy(np.int64) - quota
    assert (np.abs(diff) < 1.0 + 1e-9).all()


def test_g09_dominated_by_hops(ray_session):
    """Weighted dist is >= hop count (min weight 1) and <= 18*hops
    (max weight 18... actually 19? weights are (u+v)%19+1 in [1,19]);
    seeds have dist 0."""
    from opzoo.queries import g04_bfs_levels, g09_shortest_paths

    g9 = g09_shortest_paths(SF).set_index("node_id")["dist"]
    g4 = g04_bfs_levels(SF).set_index("node_id")["dist"]
    # identical reachable sets (same graph, same seeds, same rounds)
    assert set(g9.index) == set(g4.index)
    hops = g4.reindex(g9.index).to_numpy(np.int64)
    w = g9.to_numpy(np.int64)
    assert (w >= hops).all()
    assert (w <= hops * 19).all()
    assert (w[hops == 0] == 0).all()


def test_x10_rederives_from_arms(ray_session):
    """Re-derive the RRF fusion independently from the two shared arm
    helpers and compare to x10's output exactly: the fused top-10 must
    equal rank-merging the BM25 top-30 and the quantized-dot top-30
    with score = 1/(60+r_bm) + 1/(60+r_vec), ties (score DESC, doc_id
    ASC)."""
    import numpy as np

    from opzoo.queries import (
        _bm25_ranked,
        _quantized_dot_ranked,
        x10_rrf_hybrid,
    )

    out = x10_rrf_hybrid(SF)
    bm = _bm25_ranked(SF, ("hash", "vector"), 30)
    ve = _quantized_dot_ranked(SF, 30)
    score = {}
    for r, d in enumerate(bm["doc_id"], start=1):
        score[int(d)] = score.get(int(d), 0.0) + 1.0 / (60 + r)
    for r, d in enumerate(ve["vec_id"], start=1):
        score[int(d)] = score.get(int(d), 0.0) + 1.0 / (60 + r)
    expect = sorted(score.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert list(out["doc_id"]) == [d for d, _ in expect]
    assert list(out["rnk"]) == list(range(1, len(out) + 1))
    # both arms must actually contribute to the fused pool
    fused_ids = set(out["doc_id"])
    assert fused_ids & set(int(d) for d in bm["doc_id"])
    assert fused_ids & set(int(d) for d in ve["vec_id"])


def test_tga_codec_roundtrip_and_packets():
    """decode(synth(id)) reproduces the closed-form pixels; the stream
    contains BOTH packet kinds; type-2 uncompressed also decodes."""
    import numpy as np

    from opzoo.stages.multimodal import decode_tga, synth_tga_payload

    for doc_id in (0, 1, 7, 96, 499):
        p = synth_tga_payload(doc_id)
        w, h, pix = decode_tga(p)
        ew, eh = 4 + (doc_id * 157) % 25, 4 + (doc_id * 173) % 21
        j = np.arange(ew * eh, dtype=np.int64)
        exp = np.stack(
            [
                (doc_id * 5 + (j // 3) * 19) % 256,
                (doc_id * 7 + (j // 3) * 21) % 256,
                (doc_id * 9 + (j // 3) * 23) % 256,
            ],
            axis=1,
        ).astype(np.uint8)
        assert (w, h) == (ew, eh)
        assert (pix == exp).all()
        # walk the packet stream: both kinds present, RLE smaller than raw
        pos, rle, raw = 18, 0, 0
        got = 0
        while got < w * h:
            hdr = p[pos]
            pos += 1
            cnt = (hdr & 0x7F) + 1
            if hdr & 0x80:
                rle += 1
                pos += 3
            else:
                raw += 1
                pos += cnt * 3
            got += cnt
        assert rle > 0 and raw > 0, (doc_id, rle, raw)
        assert len(p) - 18 < w * h * 3
    # type-2 uncompressed path
    import struct

    w, h = 3, 2
    bgr = np.arange(w * h * 3, dtype=np.uint8).reshape(w * h, 3)
    hdr = struct.pack("<BBBHHBHHHHBB", 0, 0, 2, 0, 0, 0, 0, 0, w, h, 24, 0x20)
    w2, h2, pix2 = decode_tga(hdr + bgr.tobytes())
    assert (w2, h2) == (w, h)
    assert (pix2 == bgr[:, ::-1]).all()  # top-origin set, BGR->RGB only


def test_w17_brute_force(ray_session):
    """Re-derive max sliding-window distinct per user by brute force."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from opzoo.queries import w17_sliding_distinct

    out = w17_sliding_distinct(SF).set_index("user_id")["max_types"]
    ev = pq.read_table(
        SF + "/events.parquet", columns=["user_id", "ts", "event_type"]
    ).to_pandas()
    ev["us"] = ev["ts"].astype("int64")
    W = 3_600_000_000
    for uid, g in ev.groupby("user_id"):
        best = 0
        us = g["us"].to_numpy()
        ty = g["event_type"].to_numpy()
        for i in range(len(g)):
            in_w = (us <= us[i]) & (us > us[i] - W)
            best = max(best, len(set(ty[in_w])))
        assert out[uid] == best, uid


def test_j08_brute_force_and_no_dupes(ray_session):
    """Band self-join re-derived by brute force; mirror/self pairs and
    replication duplicates must not appear."""
    import numpy as np
    import pyarrow.parquet as pq

    from opzoo.queries import j08_band_join

    out = j08_band_join(SF)
    assert not out.duplicated(["cust_a", "cust_b"]).any()
    assert (out["cust_a"] < out["cust_b"]).all()
    c = pq.read_table(
        SF + "/customer.parquet",
        columns=["c_custkey", "c_mktsegment", "c_acctbal"],
    ).to_pandas()
    cents = np.floor(c["c_acctbal"].to_numpy() * 100 + 0.5).astype(np.int64)
    expect = set()
    ids = c["c_custkey"].to_numpy(np.int64)
    seg = c["c_mktsegment"].to_numpy(object)
    for i in range(len(c)):
        for j in range(i + 1, len(c)):
            if seg[i] == seg[j] and abs(int(cents[i]) - int(cents[j])) < 10:
                expect.add((min(ids[i], ids[j]), max(ids[i], ids[j])))
    got = set(zip(out["cust_a"], out["cust_b"]))
    assert got == expect


def test_g09_forced_copartition_equivalence(ray_session):
    """node_threshold=0 forces the distributed min-plus path; it must
    emit exactly the dense driver-reduce result."""
    import pandas as pd

    from opzoo.queries import g09_shortest_paths

    dense = g09_shortest_paths(SF)
    dist = g09_shortest_paths(SF, node_threshold=0)
    pd.testing.assert_frame_equal(
        dense.reset_index(drop=True), dist.reset_index(drop=True)
    )
