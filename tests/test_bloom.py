"""Bloom filter + Bloom-accelerated exact semi/anti membership."""

import numpy as np
import pandas as pd
import pytest


class TestBloomFilter:
    def test_no_false_negatives(self):
        from opzoo.stages.bloom import BloomFilter

        rng = np.random.RandomState(3)
        keys = rng.randint(0, 1 << 40, 20_000).astype(np.int64)
        bf = BloomFilter.sized(len(keys), fpp=0.01).add_many(keys)
        assert bf.contains_many(keys).all()

    def test_fpp_within_bound(self):
        """Observed false-positive rate stays within 2x the target."""
        from opzoo.stages.bloom import BloomFilter

        rng = np.random.RandomState(4)
        keys = rng.randint(0, 1 << 40, 50_000).astype(np.int64)
        bf = BloomFilter.sized(len(keys), fpp=0.01).add_many(keys)
        probes = rng.randint(1 << 41, 1 << 42, 100_000).astype(np.int64)
        fpp = bf.contains_many(probes).mean()
        assert fpp <= 0.02, fpp

    def test_merge_equals_single_build(self):
        from opzoo.stages.bloom import BloomFilter

        rng = np.random.RandomState(5)
        a_keys = rng.randint(0, 1 << 30, 5_000).astype(np.int64)
        b_keys = rng.randint(0, 1 << 30, 5_000).astype(np.int64)
        whole = BloomFilter.sized(10_000).add_many(np.r_[a_keys, b_keys])
        merged = (
            BloomFilter(whole.n_bits, whole.k)
            .add_many(a_keys)
            .merge(BloomFilter(whole.n_bits, whole.k).add_many(b_keys))
        )
        assert (whole.words == merged.words).all()

    def test_bytes_roundtrip_and_string_keys(self):
        from opzoo.stages.bloom import BloomFilter

        bf = BloomFilter.sized(100).add_many(["alpha", "beta", "gamma"])
        rt = BloomFilter.from_bytes(bf.to_bytes(), bf.k)
        assert rt.contains_many(["alpha", "beta", "gamma"]).all()
        assert not rt.contains_many(["delta", "epsilon"]).any()


def test_bloom_flag_membership_exact(ray_session):
    """The Bloom-accelerated membership flags must equal a plain isin —
    exact despite Bloom false positives (the verify stage resolves
    them). Uses a tiny filter to force a high fpp on purpose."""
    import ray.data

    from opzoo.stages.bloom import bloom_flag_membership

    rng = np.random.RandomState(11)
    left = pd.DataFrame(
        {
            "k": rng.randint(0, 3000, 4000).astype(np.int64),
            "grp": rng.choice(list("abc"), 4000),
        }
    )
    keys = pd.DataFrame({"rk": rng.randint(0, 1500, 2500).astype(np.int64)})
    got = (
        bloom_flag_membership(
            ray.data.from_pandas(left),
            ray.data.from_pandas(keys),
            left_col="k",
            key_col="rk",
            n_expected=64,  # deliberately undersized -> many false positives
            n_buckets=8,
        )
        .to_pandas()
        .sort_values(["k", "grp"])
        .reset_index(drop=True)
    )
    exp = left.assign(in_right=left["k"].isin(set(keys["rk"]))).sort_values(
        ["k", "grp"]
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["k", "grp", "in_right"]], exp[["k", "grp", "in_right"]],
        check_dtype=False,
    )


def test_bloom_prunes_negatives_before_shuffle(ray_session):
    """A properly-sized Bloom must resolve (almost) all true negatives
    without sending them through the verify shuffle."""
    import ray.data

    from opzoo.stages.bloom import BloomFilter, build_bloom

    keys = pd.DataFrame({"rk": np.arange(10_000, dtype=np.int64)})
    bf = build_bloom(ray.data.from_pandas(keys), "rk", n_expected=10_000, fpp=0.01)
    assert isinstance(bf, BloomFilter)
    probes = np.arange(50_000, 120_000, dtype=np.int64)
    surviving = bf.contains_many(probes).mean()
    assert surviving <= 0.02, surviving
