"""Round-5 operator unit tests: hashed-feature bucket helper, the
fastText/DSIR scoring paths, and the inverted index's partition-pruned
probe property (the oracle sweep in test_queries_oracle covers
end-to-end exactness; these pin the internals)."""

import glob
import os

import numpy as np
import pyarrow as pa

SF = "/root/testdata/sf0.001"


def _py_bucket(tok: str, mod: int = 64) -> int:
    return (31 * len(tok) + 7 * ord(tok[0]) + 13 * ord(tok[-1])) % mod


def test_token_feature_buckets_match_python_reference():
    from opzoo.queries import _token_feature_buckets

    toks = ["hash", "a", "window", "zz", "scan", "merge", "x" * 40]
    lens, buckets = _token_feature_buckets(pa.array(toks, pa.string()))
    assert lens.tolist() == [len(t) for t in toks]
    assert buckets.tolist() == [_py_bucket(t) for t in toks]


def test_token_feature_buckets_empty_and_large_string():
    from opzoo.queries import _token_feature_buckets

    # empty tokens get bucket 0 and len 0 (callers mask on len)
    lens, buckets = _token_feature_buckets(pa.array(["", "ab"], pa.string()))
    assert lens.tolist() == [0, 2]
    assert buckets[0] == 0
    # large_string offsets parse via _varlen_buffers' int64 branch
    lens2, buckets2 = _token_feature_buckets(
        pa.array(["ab", "cde"], pa.large_string())
    )
    assert lens2.tolist() == [2, 3]
    assert buckets2.tolist() == [_py_bucket("ab"), _py_bucket("cde")]


def test_token_feature_buckets_sliced_array_offset():
    from opzoo.queries import _token_feature_buckets

    arr = pa.array(["skip", "hash", "vector"], pa.string()).slice(1)
    lens, buckets = _token_feature_buckets(arr)
    assert lens.tolist() == [4, 6]
    assert buckets.tolist() == [_py_bucket("hash"), _py_bucket("vector")]


def test_t14_weights_deterministic_and_bounded(ray_session):
    from opzoo.queries import t14_hashed_classifier

    out = t14_hashed_classifier(SF)
    # one row per language, counts partition the corpus
    assert out["lang"].is_unique
    assert int(out["n_docs"].sum()) == 500
    assert (out["n_pos"] <= out["n_docs"]).all()
    # re-run identical (weights are closed-form, no RNG anywhere)
    out2 = t14_hashed_classifier(SF)
    assert out.equals(out2)


def test_d16_scores_nonincreasing_and_deterministic(ray_session):
    from opzoo.queries import d16_dsir_importance

    out = d16_dsir_importance(SF)
    assert len(out) == 100
    s = out["score"].to_numpy()
    assert (np.diff(s) <= 0).all()
    # ties broken by doc_id ascending
    for i in range(1, len(out)):
        if s[i] == s[i - 1]:
            assert out["doc_id"].iloc[i] > out["doc_id"].iloc[i - 1]
    assert out.equals(d16_dsir_importance(SF))


def test_x01_probe_reads_only_query_token_shards(ray_session, monkeypatch):
    """The probe must open ONLY the shards the query tokens hash to —
    the partition-pruning property that makes the index pay at scale."""
    import ray.data as rd

    from opzoo import queries as q
    from naer_ray.hashing import _fnv64_arr

    seen: list[str] = []
    orig = rd.read_parquet

    def spy(paths, **kw):
        if isinstance(paths, list) and any(
            "naer_inverted_index" in p for p in paths
        ):
            seen.extend(paths)
        return orig(paths, **kw)

    monkeypatch.setattr(rd, "read_parquet", spy)
    out = q.x01_inverted_index_search(SF)
    assert len(out) == 10

    want = {
        int(s)
        for s in _fnv64_arr(pa.array(["hash", "vector"], pa.string()))
        % np.uint64(16)
    }
    got = {
        int(os.path.basename(os.path.dirname(p)).split("=")[1]) for p in seen
    }
    assert seen and got == want


def test_x01_index_is_cleaned_up(ray_session):
    from opzoo import queries as q

    q.x01_inverted_index_search(SF)
    leftovers = glob.glob(f"/tmp/naer_inverted_index/{os.getpid()}-*")
    assert leftovers == []
