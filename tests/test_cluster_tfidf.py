"""Unit tests for distributed k-means and TF-IDF top terms.

The k01/t05 oracle rows cover SQL/reference parity end-to-end; these
pin stage semantics: distributed-vs-single-process assignment equality
on adversarial layouts, empty-cluster survival, deterministic init,
and tf-idf tie-breaks.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _emb_ds(ray, ids, mat, blocks=4):
    import ray.data

    tbl = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                [row.tolist() for row in mat], pa.list_(pa.float32())
            ),
        }
    )
    return ray.data.from_arrow(tbl).repartition(blocks)


def test_kmeans_matches_reference_across_layouts(ray_session):
    import ray

    from opzoo.stages.cluster import kmeans_fit, kmeans_reference

    rng = np.random.default_rng(7)
    centers = rng.normal(size=(4, 16)) * 10
    mat = np.vstack([c + rng.normal(size=(50, 16)) for c in centers]).astype(
        np.float32
    )
    ids = np.arange(len(mat), dtype=np.int64)
    want = kmeans_reference(ids, mat.astype(np.float64), k=4, n_iter=4)

    for blocks in (1, 7):
        ds = _emb_ds(ray, ids, mat, blocks)
        _c, assign = kmeans_fit(ds, "vec_id", "embedding", k=4, n_iter=4)
        got = assign(ds).to_pandas().sort_values("vec_id")
        assert (got["cluster"].to_numpy() == want).all()


def test_kmeans_empty_cluster_keeps_centroid(ray_session):
    import ray

    from opzoo.stages.cluster import kmeans_fit

    # 3 tight points, k=2: one seed may win everything; fit must not
    # divide by zero and must still label every point
    mat = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]], dtype=np.float32)
    ids = np.array([5, 6, 7], dtype=np.int64)
    ds = _emb_ds(ray, ids, mat, 1)
    _c, assign = kmeans_fit(ds, "vec_id", "embedding", k=2, n_iter=3)
    out = assign(ds).to_pandas()
    assert len(out) == 3
    assert set(out["cluster"]) <= {0, 1}


def test_kmeans_validates_args(ray_session):
    import ray

    from opzoo.stages.cluster import kmeans_fit

    ds = _emb_ds(ray, np.array([1]), np.zeros((1, 4), np.float32), 1)
    with pytest.raises(ValueError):
        kmeans_fit(ds, "vec_id", "embedding", k=0)
    with pytest.raises(ValueError):
        kmeans_fit(ds, "vec_id", "embedding", k=5, n_iter=2)  # < k rows


def test_tfidf_top_terms_hand_corpus(ray_session):
    import ray.data

    from opzoo.stages.text import tfidf_top_terms

    docs = [
        {"doc_id": 0, "text": "apple banana apple"},
        {"doc_id": 1, "text": "banana cherry"},
        {"doc_id": 2, "text": "cherry cherry durian"},
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(docs)).repartition(2)
    out = (
        tfidf_top_terms(ds, n_docs=3, top_n=2)
        .to_pandas()
        .sort_values(["doc_id", "rnk"])
        .reset_index(drop=True)
    )
    # doc 0: apple tf=2 df=1 -> 2*ln(3); banana tf=1 df=2 -> ln(1.5)
    d0 = out[out["doc_id"] == 0]
    assert list(d0["term"]) == ["apple", "banana"]
    assert d0.iloc[0]["score"] == pytest.approx(2 * np.log(3.0))
    # doc 2: cherry tf=2 df=2 beats durian tf=1 df=1 (2ln1.5 < ln3)
    d2 = out[out["doc_id"] == 2]
    assert list(d2["term"]) == ["durian", "cherry"]
    # ranks are 1..top_n per doc
    assert set(out["rnk"]) == {1, 2}


def test_tfidf_tie_break_term_asc(ray_session):
    import ray.data

    from opzoo.stages.text import tfidf_top_terms

    # both terms identical tf/df -> identical score; term ASC wins
    docs = [
        {"doc_id": 0, "text": "zeta alpha"},
        {"doc_id": 1, "text": "zeta alpha"},
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(docs))
    out = (
        tfidf_top_terms(ds, n_docs=2, top_n=1)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert list(out["term"]) == ["alpha", "alpha"]


def test_normalize_text_kernels(ray_session):
    import ray.data

    from opzoo.stages.text import normalize_text

    docs = [
        {"doc_id": 0, "text": "  Hello   WORLD  "},
        {"doc_id": 1, "text": "tabs\tand\nnewlines"},
        {"doc_id": 2, "text": ""},
        {"doc_id": 3, "text": "already clean"},
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(docs))
    out = normalize_text(ds).to_pandas().sort_values("doc_id")
    assert list(out["norm_text"]) == [
        "hello world",
        "tabs and newlines",
        "",
        "already clean",
    ]


class TestBpeLearn:
    def test_reference_sennrich_example(self):
        from opzoo.stages.text import bpe_reference

        merges = bpe_reference(
            {"low": 5, "lower": 2, "newest": 6, "widest": 3}, 4
        )
        assert merges == [("e", "s"), ("es", "t"), ("l", "o"), ("lo", "w")]

    def test_tie_break_lexicographic(self):
        from opzoo.stages.text import bpe_reference

        # 'ab' and 'cd' both appear twice: lexicographically smaller wins
        merges = bpe_reference({"ab": 2, "cd": 2}, 1)
        assert merges == [("a", "b")]

    def test_overlap_merge_left_to_right(self):
        from opzoo.stages.text import _bpe_apply_merge, bpe_reference

        assert _bpe_apply_merge(("a", "a", "a", "a", "a"), "a", "a") == (
            "aa", "aa", "a",
        )
        # 'aaa'x1: pair (a,a) counted twice (overlaps included)
        merges = bpe_reference({"aaa": 1, "bc": 1}, 1)
        assert merges == [("a", "a")]

    def test_distributed_matches_reference(self, ray_session):
        import ray.data

        from opzoo.stages.text import bpe_learn, bpe_reference

        texts = [
            "the cat sat on the mat",
            "the dog sat on the log",
            "a cat and a dog and a rat",
            "mat rat log dog cat the the",
        ] * 7
        ds = ray.data.from_items([{"text": t} for t in texts])
        # local_threshold=0 forces the distributed merge rounds — the
        # default size-adaptive path would answer from the driver here
        got = bpe_learn(ds, "text", n_merges=8, n_buckets=8, local_threshold=0)
        counts: dict = {}
        for t in texts:
            for w in t.split():
                counts[w] = counts.get(w, 0) + 1
        assert got == bpe_reference(counts, 8)
        # size-adaptive local path: identical merges
        assert bpe_learn(ds, "text", n_merges=8, n_buckets=8) == got

    def test_exhausts_pairs_early(self, ray_session):
        import ray.data

        from opzoo.stages.text import bpe_learn

        # single two-char word: only 1 merge possible even if 5 asked
        ds = ray.data.from_items([{"text": "ab ab ab"}])
        for thresh in (0, 500_000):  # distributed and local paths
            got = bpe_learn(
                ds, "text", n_merges=5, n_buckets=4, local_threshold=thresh
            )
            assert got == [("a", "b")]


class TestBpeEncode:
    def test_counts_match_reference_walk(self, ray_session):
        import ray.data

        from opzoo.stages.text import _bpe_apply_merge, bpe_encode_counts

        merges = [("t", "h"), ("th", "e"), ("a", "t")]
        texts = ["the cat  sat", "", "   ", "at the theatre", "zzz"]
        ds = ray.data.from_items(
            [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
        )
        got = (
            bpe_encode_counts(ds, merges)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )

        def ref(t):
            n = 0
            for w in t.split():
                sym = tuple(w)
                for left, right in merges:
                    sym = _bpe_apply_merge(sym, left, right)
                n += len(sym)
            return n

        assert list(got["n_tokens"]) == [ref(t) for t in texts]
        assert list(got["n_words"]) == [len(t.split()) for t in texts]
        # empty / whitespace-only docs encode to zero tokens
        assert got.loc[1, "n_tokens"] == 0 and got.loc[2, "n_tokens"] == 0

    def test_empty_merge_list_counts_chars(self, ray_session):
        import ray.data

        from opzoo.stages.text import bpe_encode_counts

        ds = ray.data.from_items([{"doc_id": 0, "text": "ab cde"}])
        got = bpe_encode_counts(ds, []).to_pandas()
        assert got.loc[0, "n_tokens"] == 5  # chars, no merges applied
        assert got.loc[0, "n_words"] == 2
