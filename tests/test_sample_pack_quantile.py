"""Unit tests for the sampling / packing / quantile stages.

The s01/t04/p01 oracle rows cover end-to-end SQL parity; these tests
pin the stage semantics that the SQL cannot see: partition-layout
invariance, salt disjointness, bucket-boundary-spanning sequences,
over-budget documents, and the explicit quantile order statistic.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _docs_ds(ray, rows, blocks=1):
    import ray.data

    return ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(blocks)


def test_hash_sample_partition_invariant(ray_session):
    import ray

    from opzoo.stages.sample import hash_sample

    rows = [{"doc_id": i, "x": i * 2} for i in range(1000)]
    a = hash_sample(_docs_ds(ray, rows, 1), "doc_id", 10).to_pandas()
    b = hash_sample(_docs_ds(ray, rows, 7), "doc_id", 10).to_pandas()
    a = a.sort_values("doc_id").reset_index(drop=True)
    b = b.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    # ~10% with hash spread; exact count is a fixed function of the ids
    assert 50 < len(a) < 200


def test_hash_sample_salt_shifts_selection(ray_session):
    import ray

    from opzoo.stages.sample import hash_sample

    rows = [{"doc_id": i} for i in range(2000)]
    base = set(hash_sample(_docs_ds(ray, rows), "doc_id", 5).to_pandas()["doc_id"])
    salted = set(
        hash_sample(_docs_ds(ray, rows), "doc_id", 5, salt=17).to_pandas()["doc_id"]
    )
    assert base and salted
    assert base != salted


def test_hash_sample_rate_bounds(ray_session):
    import ray

    from opzoo.stages.sample import hash_sample

    rows = [{"doc_id": i} for i in range(100)]
    assert hash_sample(_docs_ds(ray, rows), "doc_id", 0).count() == 0
    assert hash_sample(_docs_ds(ray, rows), "doc_id", 100).count() == 100
    with pytest.raises(ValueError):
        hash_sample(_docs_ds(ray, rows), "doc_id", 101)


def _pack_reference(ids, weights, budget):
    order = np.argsort(ids)
    w = np.asarray(weights)[order]
    cum_before = np.cumsum(w) - w
    seq = cum_before // budget
    out = {}
    for s, wi in zip(seq, w):
        d = out.setdefault(int(s), [0, 0])
        d[0] += 1
        d[1] += int(wi)
    return {k: tuple(v) for k, v in out.items()}


@pytest.mark.parametrize("bucket_width", [3, 16, 1000])
def test_pack_plan_matches_reference(ray_session, bucket_width):
    import ray

    from opzoo.stages.pack import pack_plan

    rng = np.random.default_rng(7)
    ids = rng.permutation(500)  # rows arrive unsorted across blocks
    weights = rng.integers(1, 40, size=500)
    rows = [{"doc_id": int(i), "w": int(w)} for i, w in zip(ids, weights)]
    plan = pack_plan(
        _docs_ds(ray, rows, blocks=5), "doc_id", "w", budget=64,
        bucket_width=bucket_width,
    ).to_pandas()
    got = {
        int(r.seq_id): (int(r.n_docs), int(r.total_weight))
        for r in plan.itertuples()
    }
    assert got == _pack_reference(ids, weights, 64)


def test_pack_plan_doc_larger_than_budget(ray_session):
    import ray

    from opzoo.stages.pack import pack_plan

    rows = [
        {"doc_id": 0, "w": 10},
        {"doc_id": 1, "w": 300},  # 3x the budget: assigned where it starts
        {"doc_id": 2, "w": 10},
    ]
    plan = pack_plan(_docs_ds(ray, rows), "doc_id", "w", budget=100).to_pandas()
    got = {int(r.seq_id): (int(r.n_docs), int(r.total_weight)) for r in plan.itertuples()}
    # doc 1 starts in seq 0 (cum_before=10); doc 2 starts at cum 310 -> seq 3
    assert got == {0: (2, 310), 3: (1, 10)}


def test_grouped_quantiles_order_statistic(ray_session):
    import ray

    from opzoo.stages.quantile import grouped_discrete_quantiles

    # group "a": values 1..10 -> p25 = smallest v with cum >= ceil(2.5)=3
    rows = [{"g": "a", "v": v} for v in range(1, 11)] + [
        {"g": "b", "v": 5} for _ in range(4)
    ]
    df = grouped_discrete_quantiles(
        _docs_ds(ray, rows, blocks=3), "g", "v"
    ).set_index("g")
    assert tuple(df.loc["a", ["p25", "p50", "p75", "p95"]]) == (3, 5, 8, 10)
    assert tuple(df.loc["b", ["p25", "p50", "p75", "p95"]]) == (5, 5, 5, 5)


def test_bottom_k_partition_invariant_and_exact(ray_session):
    import ray

    from opzoo.stages.sample import bottom_k_sample, hash_rank_of

    rows = [{"doc_id": i, "x": i * 3} for i in range(2000)]
    a = bottom_k_sample(_docs_ds(ray, rows, 1), "doc_id", 50).to_pandas()
    b = bottom_k_sample(_docs_ds(ray, rows, 9), "doc_id", 50).to_pandas()
    assert len(a) == len(b) == 50
    assert set(a["doc_id"]) == set(b["doc_id"])
    # matches the explicit rank order computed directly
    ids = np.arange(2000, dtype=np.int64)
    want = set(ids[np.argsort(hash_rank_of(ids), kind="stable")[:50]].tolist())
    assert set(a["doc_id"]) == want


def test_bottom_k_smaller_than_k(ray_session):
    import ray

    from opzoo.stages.sample import bottom_k_sample

    rows = [{"doc_id": i} for i in range(7)]
    out = bottom_k_sample(_docs_ds(ray, rows), "doc_id", 100).to_pandas()
    assert sorted(out["doc_id"]) == list(range(7))


def test_weighted_mixture_rates(ray_session):
    import ray

    from opzoo.stages.sample import hash_bucket_of, weighted_mixture_sample

    rows = [
        {"doc_id": i, "src": ["a", "b", "c"][i % 3]} for i in range(3000)
    ]
    rates = {"a": 90, "b": 10}
    out = weighted_mixture_sample(
        _docs_ds(ray, rows, 5), "doc_id", "src", rates, default_pct=0
    ).to_pandas()
    ids = np.arange(3000, dtype=np.int64)
    buckets = hash_bucket_of(ids, 100)
    want = {
        int(i)
        for i in ids
        if buckets[i] < rates.get(["a", "b", "c"][i % 3], 0)
    }
    assert set(out["doc_id"]) == want
    assert (out["src"] != "c").all()  # default 0: group c fully dropped


def test_weighted_mixture_bad_rate(ray_session):
    import ray

    from opzoo.stages.sample import weighted_mixture_sample

    with pytest.raises(ValueError):
        weighted_mixture_sample(
            _docs_ds(ray, [{"doc_id": 1, "s": "x"}]), "doc_id", "s", {"x": 101}
        )


def test_stratified_bottom_k_partition_invariant(ray_session):
    import ray

    from opzoo.stages.sample import hash_rank_of, stratified_bottom_k

    rows = [
        {"doc_id": i, "grp": ["x", "y", "z"][i % 3]} for i in range(900)
    ]
    a = stratified_bottom_k(_docs_ds(ray, rows, 1), "doc_id", "grp", 10)
    b = stratified_bottom_k(_docs_ds(ray, rows, 8), "doc_id", "grp", 10)
    a = a.sort_values("doc_id").reset_index(drop=True)
    b = b.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert (a.groupby("grp").size() == 10).all()
    # per-group winners match the explicit rank rule
    ids = np.arange(900, dtype=np.int64)
    ranks = hash_rank_of(ids)
    for gi, g in enumerate(["x", "y", "z"]):
        gids = ids[ids % 3 == gi]
        want = set(gids[np.argsort(ranks[gids], kind="stable")[:10]].tolist())
        assert set(a[a["grp"] == g]["doc_id"]) == want


def test_group_zscore_constant_group_null(ray_session):
    import ray

    from opzoo.stages.agg import group_zscore

    rows = [{"doc_id": i, "g": "c", "v": 7} for i in range(5)] + [
        {"doc_id": 10 + i, "g": "d", "v": i} for i in range(5)
    ]
    out = group_zscore(_docs_ds(ray, rows, 3), "g", "v").to_pandas()
    assert out[out["g"] == "c"]["z"].isna().all()
    zd = out[out["g"] == "d"].sort_values("doc_id")["z"].to_numpy()
    v = np.arange(5, dtype=np.float64)
    want = (v - v.mean()) / v.std()
    assert np.allclose(zd, want)
    # z-scores of a group sum to ~0
    assert abs(zd.sum()) < 1e-12
