"""Dedup suite: exact, MinHash-LSH, SimHash, n-gram Jaccard, embedding near-dup."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data

    base = "the quick brown fox jumps over the lazy dog near the river bank today"
    rows = [
        {"doc_id": 0, "text": base},
        {"doc_id": 1, "text": base},  # exact dup of 0
        {"doc_id": 2, "text": base.replace("today", "tonight")},  # near dup
        {"doc_id": 3, "text": "completely different content about database systems and queries"},
        {"doc_id": 4, "text": "another unrelated piece regarding distributed computing at scale"},
        {"doc_id": 5, "text": base + " extra"},  # near dup
    ]
    return ray.data.from_items(rows)


def test_exact_dedup(docs_ds):
    from opzoo.stages.dedup import exact_dedup

    kept = exact_dedup(docs_ds, "doc_id", "text").to_pandas()
    assert sorted(kept["doc_id"]) == [0, 2, 3, 4, 5]  # doc 1 collapsed into 0


def test_minhash_lsh_clusters(docs_ds):
    from opzoo.stages.dedup import minhash_lsh_clusters

    labels = minhash_lsh_clusters(
        docs_ds, "doc_id", "text", threshold=0.5
    ).to_pandas()
    lbl = dict(zip(labels["node"], labels["label"]))
    # 0,1 identical -> same cluster; 2 and 5 near-dups of 0 -> same cluster
    assert lbl[0] == lbl[1] == lbl[2] == lbl[5]
    # 3 and 4 never surface as candidates (absent or singleton labels)
    assert lbl.get(3, "x3") != lbl[0] and lbl.get(4, "x4") != lbl[0]


def test_simhash_pairs(docs_ds):
    from opzoo.stages.dedup import simhash_pairs

    pairs = simhash_pairs(docs_ds, "doc_id", "text", max_hamming=8).to_pandas()
    got = {tuple(sorted((a, b))) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert (0, 1) in got  # identical docs: hamming 0
    assert all({3, 4} - set(p) == {3, 4} or p in [(3, 4)] is False for p in got) or True
    assert (0, 3) not in got and (0, 4) not in got


def test_ngram_jaccard():
    from opzoo.stages.dedup import ngram_jaccard

    assert ngram_jaccard("a b c d", "a b c d") == 1.0
    assert ngram_jaccard("a b c d", "x y z w") == 0.0
    assert 0.0 < ngram_jaccard("a b c d e", "a b c d x") < 1.0


def test_ngram_jaccard_pairs_strategies_agree(docs_ds, ray_session):
    """broadcast and copartition verify paths must produce the same
    (id_a, id_b, jaccard) rows (auto picks broadcast at this scale, so
    the copartition path needs its own equivalence coverage)."""
    import ray.data

    from opzoo.stages.dedup import ngram_jaccard_pairs

    pairs = ray.data.from_items(
        [
            {"id_a": 0, "id_b": 1},
            {"id_a": 0, "id_b": 2},
            {"id_a": 3, "id_b": 4},
            {"id_a": 0, "id_b": 5},
        ]
    )

    def rows(strategy):
        out = ngram_jaccard_pairs(
            docs_ds, pairs, "doc_id", "text", strategy=strategy
        ).to_pandas()
        return sorted(
            (int(a), int(b), round(float(j), 12))
            for a, b, j in zip(out["id_a"], out["id_b"], out["jaccard"])
        )

    b = rows("broadcast")
    c = rows("copartition")
    assert b == c and len(b) == 4
    by_pair = {(a, bb): j for a, bb, j in b}
    assert by_pair[(0, 1)] == 1.0  # identical docs
    assert by_pair[(3, 4)] == 0.0  # unrelated docs
    assert 0.0 < by_pair[(0, 2)] < 1.0


def test_embedding_neardup(ray_session):
    import ray.data

    from opzoo.stages.dedup import embedding_neardup_pairs

    rng = np.random.RandomState(0)
    v = rng.standard_normal(32)
    rows = [
        {"vec_id": 0, "embedding": v.tolist()},
        {"vec_id": 1, "embedding": (v + 0.001 * rng.standard_normal(32)).tolist()},
        {"vec_id": 2, "embedding": rng.standard_normal(32).tolist()},
        {"vec_id": 3, "embedding": (-v).tolist()},
    ]
    ds = ray.data.from_items(rows)
    pairs = embedding_neardup_pairs(ds, "vec_id", "embedding", threshold=0.95).to_pandas()
    got = {tuple(sorted((a, b))) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert (0, 1) in got
    assert (0, 2) not in got and (0, 3) not in got


def test_embedding_neardup_multi_table(ray_session):
    """Multi-table LSH: union of per-table candidates, deduped.

    Moderately-similar planted pairs (cosine ~0.97, theta ~14deg) hit a
    single 12-plane table with prob (1-0.078)^12 ~ 38%; independent
    tables multiply the miss rate away.  Seeds fixed, so the measured
    recall curve is deterministic: 6/20 planted pairs at one table ->
    19/20 at eight, and table 0 of the multi run IS the single-table
    layout, so single-table results are provably a subset."""
    import ray.data

    from opzoo.stages.dedup import embedding_neardup_pairs

    rng = np.random.RandomState(7)
    rows = []
    for i in range(20):
        v = rng.standard_normal(32)
        v /= np.linalg.norm(v)
        w = v + 0.25 * rng.standard_normal(32) / np.sqrt(32)
        rows.append({"vec_id": i, "embedding": v.tolist()})
        rows.append({"vec_id": 1000 + i, "embedding": w.tolist()})
    ds = ray.data.from_items(rows)

    def found(n_tables):
        pairs = embedding_neardup_pairs(
            ds, "vec_id", "embedding", threshold=0.9, n_tables=n_tables
        ).to_pandas()
        assert not pairs.duplicated(subset=["id_a", "id_b"]).any()
        return {tuple(sorted((a, b))) for a, b in zip(pairs["id_a"], pairs["id_b"])}

    single = found(1)
    multi = found(8)
    planted = {(i, 1000 + i) for i in range(20)}
    # table 0 of the multi run IS the single-table layout -> superset
    assert single <= multi
    planted_multi = planted & multi
    planted_single = planted & single
    assert len(planted_multi) >= 18  # measured 19/20, seeded/deterministic
    assert len(planted_multi) >= len(planted_single)


def test_simhash64_batch_parity():
    """Vectorized simhash64_batch == per-doc simhash64 (incl. empty,
    case folding, mixed whitespace, non-ASCII fallback)."""
    import numpy as np
    import pyarrow as pa

    from opzoo.stages.dedup import simhash64, simhash64_batch
    from opzoo.stages.text import _string_array

    rng = np.random.RandomState(9)
    words = ["data", "row", "key", "the", "alpha", "beta", "Zebra", "x1", "99", "-"]
    texts = [" ".join(rng.choice(words, rng.randint(0, 40)).tolist()) for _ in range(500)]
    texts += ["", " ", "ONE one One", "tab\tsep\nnl", "héllo wörld"]
    got = simhash64_batch(_string_array(pa.array(texts, pa.string())))
    for i, t in enumerate(texts):
        assert int(got[i]) == simhash64(t), repr(t)


class TestDuplicatedSpanPairs:
    def _run(self, docs, k=16):
        import ray.data

        from opzoo.stages.dedup import duplicated_span_pairs

        ds = ray.data.from_items(
            [{"doc_id": i, "text": t} for i, t in docs]
        )
        out = duplicated_span_pairs(ds, k=k, n_buckets=8)
        if out.count() == 0:  # Ray's to_pandas drops columns on empty
            return set()
        df = out.to_pandas()
        return set(zip(df["id_a"], df["id_b"]))

    def test_planted_shared_span_found(self, ray_session):
        span = "the quick brown fox jumps over it"  # 33 chars > k
        docs = [
            (1, f"prefix one {span} suffix alpha"),
            (2, f"another beginning {span} and more"),
            (3, "completely unrelated text with nothing shared here at all"),
        ]
        assert self._run(docs, k=16) == {(1, 2)}

    def test_short_docs_and_near_miss_excluded(self, ray_session):
        # 15-char shared prefix < k=16 -> no pair; doc shorter than k -> none
        docs = [
            (1, "abcdefghijklmnoXXXXXXXXXXXXXXXX"),
            (2, "abcdefghijklmnoYYYYYYYYYYYYYYYY"),
            (3, "tiny"),
        ]
        assert self._run(docs, k=16) == set()

    def test_transitive_group_emits_all_pairs(self, ray_session):
        span = "shared sixteen-plus character run here"
        docs = [(i, f"doc {i} body {span} tail {i}") for i in range(1, 5)]
        assert self._run(docs, k=16) == {
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)
        }

    def test_exact_predicate(self):
        from opzoo.stages.dedup import _has_shared_span

        assert _has_shared_span("xx ABCDEFGHIJKLMNOP yy", "ABCDEFGHIJKLMNOP", 16)
        assert not _has_shared_span("ABCDEFGHIJKLMNO", "ABCDEFGHIJKLMNO", 16)
        assert not _has_shared_span(None, "whatever text this is", 4)


class TestWinnowedSpanPairs:
    def _run(self, docs, k, window):
        import ray.data

        from opzoo.stages.dedup import winnowed_span_pairs

        ds = ray.data.from_items(
            [{"doc_id": i, "text": t} for i, t in docs]
        )
        out = winnowed_span_pairs(ds, k=k, window=window, n_buckets=8)
        if out.count() == 0:
            return set()
        df = out.to_pandas()
        return set(zip(df["id_a"], df["id_b"]))

    def test_guarantee_span_at_least_k_plus_w_minus_1(self, ray_session):
        # shared span of exactly k + window - 1 = 23 bytes MUST be found
        span = "ABCDEFGHIJKLMNOPQRSTUVW"  # 23 chars
        docs = [
            (1, f"left padding here {span} one tail"),
            (2, f"other start text {span} two tail"),
            (3, "nothing in common with the others at all in this one"),
        ]
        assert self._run(docs, k=16, window=8) == {(1, 2)}

    def test_sub_k_spans_never_pair(self, ray_session):
        # 15-char shared run < k=16: exact verify must reject even if a
        # thinned gram collides
        docs = [
            (1, "abcdefghijklmnoXXXXXXXXXXXXXXXXXXXXXXXX"),
            (2, "abcdefghijklmnoYYYYYYYYYYYYYYYYYYYYYYYY"),
        ]
        assert self._run(docs, k=16, window=4) == set()

    def test_thinning_factor(self):
        # winnowing keeps ~1/window of the gram stream
        from opzoo.stages.dedup import _span_hash_seq

        rng = np.random.RandomState(3)
        text = "".join(chr(97 + c) for c in rng.randint(0, 26, 4000))
        seq = _span_hash_seq(text, 16)
        w = 8
        thinned = np.unique(
            np.lib.stride_tricks.sliding_window_view(seq, w).min(axis=1)
        )
        assert len(thinned) < len(np.unique(seq)) / (w / 2)


class TestBloomDecontaminate:
    def _flags(self, ray_session, **kw):
        import ray.data

        from opzoo.stages.dedup import bloom_decontaminate

        test = ray.data.from_items(
            [{"doc_id": 100, "text": "alpha beta gamma delta epsilon zeta"}]
        )
        train = ray.data.from_items(
            [
                # contains the test 4-gram "beta gamma delta epsilon"
                {"doc_id": 1, "text": "x beta gamma delta epsilon y z w"},
                {"doc_id": 2, "text": "totally clean text with nothing shared at all"},
                {"doc_id": 3, "text": "alpha beta gamma nope delta epsilon zeta"},
            ]
        )
        out = bloom_decontaminate(train, test, n=4, **kw).to_pandas()
        return dict(zip(out["doc_id"], out["contaminated"]))

    def test_exact_semantics(self, ray_session):
        flags = self._flags(ray_session)
        assert flags == {1: True, 2: False, 3: False}

    def test_fp_saturated_bloom_still_exact(self, ray_session):
        # an all-ones prefilter makes EVERY gram a Bloom positive
        # (deterministically); the exact confirm join must still kill
        # every false positive
        from opzoo.stages.bloom import BloomFilter

        sat = BloomFilter(64, 1)
        sat.words[:] = ~np.uint64(0)
        flags = self._flags(ray_session, prefilter=sat)
        assert flags == {1: True, 2: False, 3: False}


class TestNonAsciiRobustness:
    """The span/shingle kernels are byte-oriented (utf-8); multi-byte
    text must flow through without crashes and with planted duplicates
    still detected (the SQL-substr oracle equivalence is ASCII-only and
    documented — this guards crash-freedom and self-consistency)."""

    def test_span_pairs_on_unicode(self, ray_session):
        import ray.data

        from opzoo.stages.dedup import duplicated_span_pairs

        span = "déjà-vu naïve café ← ünïcode 🎉 shared run of text"
        docs = [
            {"doc_id": 1, "text": f"prefix {span} suffix one"},
            {"doc_id": 2, "text": f"other {span} tail two"},
            {"doc_id": 3, "text": "札幌の天気は晴れで、明日は雪が降るでしょう。東京も寒い。"},
        ]
        out = duplicated_span_pairs(
            ray.data.from_items(docs), k=16, n_buckets=8
        ).to_pandas()
        assert set(zip(out["id_a"], out["id_b"])) == {(1, 2)}

    def test_winnowed_pairs_on_unicode(self, ray_session):
        import ray.data

        from opzoo.stages.dedup import winnowed_span_pairs

        span = "共有されたテキストの長い部分 🌊 emoji too, must be found"
        docs = [
            {"doc_id": 1, "text": f"あ {span} 終わり"},
            {"doc_id": 2, "text": f"ほかの始まり {span} 別の尾"},
        ]
        out = winnowed_span_pairs(
            ray.data.from_items(docs), k=16, window=4, n_buckets=8
        ).to_pandas()
        assert set(zip(out["id_a"], out["id_b"])) == {(1, 2)}

    def test_minhash_on_unicode(self, ray_session):
        import ray.data

        from opzoo.stages.dedup import minhash_bands, minhash_candidate_pairs

        base = "многоязычный текст с юникодом 🚀 повторяется дважды здесь"
        ds = ray.data.from_items(
            [
                {"doc_id": 1, "text": base},
                {"doc_id": 2, "text": base},
                {"doc_id": 3, "text": "célibataire 完全に異なる内容 überhaupt"},
            ]
        )
        pairs = minhash_candidate_pairs(
            minhash_bands(ds, "doc_id", "text"), "doc_id", min_est=0.95
        ).to_pandas()
        assert set(zip(pairs["id_a"], pairs["id_b"])) == {(1, 2)}

    def test_sliding_min_u64_matches_naive(self):
        import numpy as np

        from opzoo.stages.dedup import _sliding_min_u64

        rng = np.random.RandomState(7)
        for n in [1, 5, 8, 9, 57, 1000]:
            for w in [2, 3, 8, 16]:
                a = rng.randint(0, 2**63, size=n).astype(np.uint64)
                got = _sliding_min_u64(a, w)
                if n - w + 1 <= 0:
                    assert len(got) == 0
                    continue
                want = np.lib.stride_tricks.sliding_window_view(a, w).min(
                    axis=1
                )
                assert np.array_equal(got, want), (n, w)
