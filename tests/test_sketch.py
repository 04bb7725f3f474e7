"""HyperLogLog sketch: accuracy, mergeability, distributed estimate."""

import numpy as np
import pytest


def test_hll_accuracy_and_merge():
    from opzoo.stages.sketch import HyperLogLog

    a = HyperLogLog(12).add_many([f"u{i}" for i in range(10_000)])
    assert abs(a.estimate() - 10_000) / 10_000 < 0.08
    b = HyperLogLog(12).add_many([f"u{i}" for i in range(5_000, 15_000)])
    a.merge(b)
    assert abs(a.estimate() - 15_000) / 15_000 < 0.08


def test_hll_small_range_exactish():
    from opzoo.stages.sketch import HyperLogLog

    h = HyperLogLog(12).add_many(["a", "b", "c", "a", "b"])
    assert round(h.estimate()) == 3


def test_distributed_approx_distinct(ray_session):
    import ray.data

    from opzoo.stages.sketch import approx_distinct

    ds = ray.data.from_items([{"k": f"key{i % 2000}"} for i in range(20_000)])
    est = approx_distinct(ds, "k")
    assert abs(est - 2000) / 2000 < 0.08


def test_quantile_sketch_merge_matches_whole():
    import numpy as np
    from opzoo.stages.sketch import QuantileSketch

    rng = np.random.RandomState(7)
    v = rng.lognormal(3.0, 1.0, 200_000)
    # split into 13 uneven chunks, sketch each, merge
    chunks = np.array_split(v, 13)
    merged = QuantileSketch(512)
    for c in chunks:
        merged = merged.merge(QuantileSketch.from_array(c, 512))
    sv = np.sort(v)
    for q in (0.1, 0.5, 0.9, 0.99):
        est = merged.query(q)
        rank = np.searchsorted(sv, est, side="right") / len(v)
        assert abs(rank - q) < 0.01, (q, rank)


def test_quantile_sketch_roundtrip_and_empty():
    import numpy as np
    from opzoo.stages.sketch import QuantileSketch

    sk = QuantileSketch.from_array(np.arange(100.0), 16)
    rt = QuantileSketch.from_bytes(sk.to_bytes(), 16)
    assert np.array_equal(rt.values, sk.values)
    assert np.isnan(QuantileSketch(16).query(0.5))


def test_quantile_gate_distributed(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data
    from opzoo.stages.sketch import quantile_sketch_gate

    rng = np.random.RandomState(11)
    ds = ray.data.from_arrow(
        pa.table({"x": rng.normal(0, 5, 50_000)})
    ).repartition(8)
    out = quantile_sketch_gate(ds, "x", quantiles=(0.25, 0.75), eps=0.01)
    assert out["within_eps"].all()
