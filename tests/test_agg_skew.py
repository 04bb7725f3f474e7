"""Bucketed aggregation: correctness, and salted two-round reduce under skew."""

import numpy as np
import pandas as pd


def _skewed_ds(ray_session, n=50_000):
    import ray.data

    rng = np.random.RandomState(0)
    # 90% of rows share ONE hot key; the rest spread over 1000 keys
    keys = np.where(rng.random_sample(n) < 0.9, "HOT", None)
    cold = rng.randint(0, 1000, size=n)
    keys = [k if k is not None else f"cold{c}" for k, c in zip(keys, cold)]
    vals = rng.randint(0, 100, size=n)
    return (
        ray.data.from_pandas(pd.DataFrame({"k": keys, "v": vals})),
        pd.DataFrame({"k": keys, "v": vals}).groupby("k", as_index=False)["v"].sum(),
    )


def test_bucketed_sum_matches_pandas(ray_session):
    from opzoo.stages.agg import bucketed_sum

    ds, expected = _skewed_ds(ray_session)
    got = (
        bucketed_sum(ds, ["k"], ["v"]).to_pandas().sort_values("k").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got, expected.sort_values("k").reset_index(drop=True), check_dtype=False
    )


def test_salted_sum_identical_result(ray_session):
    """Salting changes only the shuffle distribution, never the result."""
    from opzoo.stages.agg import bucketed_sum

    ds, expected = _skewed_ds(ray_session)
    got = (
        bucketed_sum(ds, ["k"], ["v"], salt=8)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got, expected.sort_values("k").reset_index(drop=True), check_dtype=False
    )
