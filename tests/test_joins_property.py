"""Property tests: distributed join operators == single-process pandas.

Random small inputs; the distributed bucketed co-partition result must
equal one local pandas merge on the same data (any mismatch means the
partitioning broke join semantics)."""

import numpy as np
import pandas as pd
import pytest


def _random_frames(seed: int):
    rng = np.random.RandomState(seed)
    n_left, n_right, n_keys = rng.randint(5, 60), rng.randint(5, 60), rng.randint(2, 9)
    left = pd.DataFrame(
        {
            "k": rng.randint(0, n_keys, n_left).astype(np.int64),
            "lt": pd.to_datetime(rng.randint(0, 10_000, n_left), unit="s"),
            "lv": rng.randint(0, 1000, n_left).astype(np.int64),
        }
    )
    right = pd.DataFrame(
        {
            "rk": rng.randint(0, n_keys, n_right).astype(np.int64),
            "rt": pd.to_datetime(rng.randint(0, 10_000, n_right), unit="s"),
            "rv": rng.randint(0, 1000, n_right).astype(np.int64),
        }
    )
    # merge_asof requires unique (by, on) on the right for determinism
    right = right.drop_duplicates(subset=["rk", "rt"]).reset_index(drop=True)
    return left, right


@pytest.mark.parametrize("seed", [1, 7, 23, 99])
def test_asof_join_matches_local_pandas(ray_session, seed):
    import ray.data

    from opzoo.stages.joins import asof_join

    left, right = _random_frames(seed)
    got = (
        asof_join(
            ray.data.from_pandas(left),
            ray.data.from_pandas(right),
            left_on="lt",
            right_on="rt",
            left_by="k",
            right_by="rk",
            n_buckets=4,
        )
        .to_pandas()
        .fillna({"rk": -1, "rv": -1})
    )
    exp = pd.merge_asof(
        left.sort_values(["lt", "k"], kind="mergesort"),
        right.sort_values(["rt", "rk"], kind="mergesort"),
        left_on="lt",
        right_on="rt",
        left_by="k",
        right_by="rk",
        direction="backward",
    ).fillna({"rk": -1, "rv": -1})
    cols = ["k", "lt", "lv", "rk", "rv"]
    got = got[cols].sort_values(cols).reset_index(drop=True)
    exp = exp[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


@pytest.mark.parametrize("seed", [3, 17, 41])
def test_range_join_matches_local_pandas(ray_session, seed):
    import ray.data

    from opzoo.stages.joins import range_join

    left, right = _random_frames(seed)
    lo, hi = pd.Timedelta(0), pd.Timedelta(seconds=2000)
    got = range_join(
        ray.data.from_pandas(left),
        ray.data.from_pandas(right),
        left_on="lt",
        right_on="rt",
        left_by="k",
        right_by="rk",
        lower=lo,
        upper=hi,
        n_buckets=4,
    ).to_pandas()
    exp = left.merge(right, left_on="k", right_on="rk")
    delta = exp["lt"] - exp["rt"]
    exp = exp[(delta >= lo) & (delta <= hi)]
    cols = ["k", "lt", "lv", "rk", "rt", "rv"]
    got = got[cols].sort_values(cols).reset_index(drop=True)
    exp = exp[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_ngram_jaccard_pairs_matches_driver_path(ray_session):
    import pyarrow as pa
    import ray.data

    from opzoo.stages.dedup import ngram_jaccard_pairs, verify_pairs_exact

    texts = {
        i: " ".join(
            np.random.RandomState(i).choice(list("abcdefgh"), 12).tolist()
        )
        for i in range(20)
    }
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(texts), pa.int64()),
                "text": pa.array([texts[i] for i in texts], pa.string()),
            }
        )
    )
    pairs = pd.DataFrame(
        {"id_a": [0, 1, 2, 5, 7], "id_b": [3, 4, 9, 6, 19]}
    ).astype("int64")
    got = (
        ngram_jaccard_pairs(docs, ray.data.from_pandas(pairs))
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    exp = (
        verify_pairs_exact(pairs, texts)
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp[["id_a", "id_b", "jaccard"]], check_dtype=False)


def test_asof_join_with_null_int_column(ray_session):
    """ADVICE r2: a nullable integer column on either side must not crash
    restore() (float64+NaN -> astype(int64) raised inside the bucket
    kernel); nulls round-trip as pandas nullable Int64."""
    import ray.data

    from opzoo.stages.joins import asof_join

    left = pd.DataFrame(
        {
            "k": pd.array([1, 1, 2, 2], dtype="int64"),
            "lt": pd.to_datetime([10, 20, 30, 40], unit="s"),
            "lv": pd.array([5, None, 7, None], dtype="Int64"),
        }
    )
    right = pd.DataFrame(
        {
            "rk": pd.array([1, 2], dtype="int64"),
            "rt": pd.to_datetime([5, 25], unit="s"),
            "rv": pd.array([None, 9], dtype="Int64"),
        }
    )
    got = (
        asof_join(
            ray.data.from_pandas(left),
            ray.data.from_pandas(right),
            left_on="lt",
            right_on="rt",
            left_by="k",
            right_by="rk",
            n_buckets=2,
        )
        .to_pandas()
        .sort_values(["k", "lt"])
        .reset_index(drop=True)
    )
    assert len(got) == 4
    # null lv values survive; matched rv for k=2 rows at/after t=25 is 9
    assert got.loc[(got["k"] == 2) & (got["lt"] >= pd.Timestamp(25, unit="s")), "rv"].tolist() == [9, 9]
    assert got["lv"].isna().sum() == 2


class TestSetSimilarityJoin:
    def test_planted_and_near_pairs(self, ray_session):
        import ray.data

        from opzoo.stages.joins import set_similarity_join

        R = ray.data.from_items(
            [
                {"doc_id": 0, "text": "alpha beta gamma delta epsilon zeta eta theta"},
                {"doc_id": 2, "text": "one two three four five six seven eight nine"},
                {"doc_id": 4, "text": "isolated words having zero overlap with anything else"},
            ]
        )
        S = ray.data.from_items(
            [
                {"doc_id": 1, "text": "alpha beta gamma delta epsilon zeta eta theta"},
                {"doc_id": 3, "text": "zero two three four five six seven eight nine"},
                {"doc_id": 5, "text": "entirely different material again nothing shared here at all"},
            ]
        )
        out = set_similarity_join(R, S, threshold=0.5).to_pandas()
        got = {(a, b): j for a, b, j in zip(out["id_a"], out["id_b"], out["jaccard"])}
        assert set(got) == {(0, 1), (2, 3)}
        assert got[(0, 1)] == 1.0
        # trigram sets of size 7; 6 shared -> 6 / (7 + 7 - 6)
        assert got[(2, 3)] == 6 / 8

    def test_partition_invariance(self, ray_session):
        import ray.data

        from opzoo.stages.joins import set_similarity_join

        rows = [
            {"doc_id": i, "text": " ".join(f"w{(i * 7 + k) % 13}" for k in range(10))}
            for i in range(40)
        ]
        R = ray.data.from_items(rows[::2])
        S = ray.data.from_items(rows[1::2])
        a = set_similarity_join(R, S, 0.4, n_buckets=8).to_pandas()
        b = set_similarity_join(
            R.repartition(7), S.repartition(3), 0.4, n_buckets=32
        ).to_pandas()
        a = a.sort_values(list(a.columns)).reset_index(drop=True)
        b = b.sort_values(list(b.columns)).reset_index(drop=True)
        import pandas as pd

        assert len(a) > 0
        pd.testing.assert_frame_equal(a, b)


class TestSetSimIncremental:
    def test_incremental_matches_batch(self, ray_session, tmp_path):
        """probe_setsim_index over a persisted index == the batch
        set_similarity_join on the same relation (incl. a probe doc
        whose trigrams were all unseen at index time)."""
        import ray.data

        from opzoo.stages.joins import (
            probe_setsim_index,
            save_setsim_index,
            set_similarity_join,
        )

        corpus = [
            {"doc_id": i, "text": " ".join(f"w{(i * 5 + k) % 17}" for k in range(12))}
            for i in range(0, 30, 2)
        ]
        delta = [
            {"doc_id": i, "text": " ".join(f"w{((i - 1) * 5 + k) % 17}" for k in range(12))}
            for i in range(1, 31, 2)
        ] + [
            {"doc_id": 999, "text": "totally fresh tokens never indexed anywhere before now ok"}
        ]
        R = ray.data.from_items(corpus)
        S = ray.data.from_items(delta)
        path = str(tmp_path / "setsim_index")
        save_setsim_index(R, path, threshold=0.5)
        inc = probe_setsim_index(S, path).to_pandas()
        batch = set_similarity_join(R, S, threshold=0.5).to_pandas()
        import pandas as pd

        a = inc.sort_values(list(inc.columns)).reset_index(drop=True)
        b = batch.sort_values(list(batch.columns)).reset_index(drop=True)
        assert len(a) > 0
        pd.testing.assert_frame_equal(a, b)


class TestSetSimVerifyStrategies:
    def _corpus(self):
        R = [
            {"doc_id": i, "text": " ".join(f"w{(i * 7 + k) % 13}" for k in range(10))}
            for i in range(0, 40, 2)
        ]
        S = [
            {"doc_id": i, "text": " ".join(f"w{((i - 1) * 7 + k) % 13}" for k in range(10))}
            for i in range(1, 41, 2)
        ]
        return R, S

    def test_forced_copartition_matches_broadcast(self, ray_session):
        """strategy='copartition' (the 100-TB arm: no driver pair table,
        no broadcast text map) must be bit-identical to the broadcast
        arm — the d05 forced-strategy precedent."""
        import pandas as pd
        import ray.data

        from opzoo.stages.joins import set_similarity_join

        R_rows, S_rows = self._corpus()
        R, S = ray.data.from_items(R_rows), ray.data.from_items(S_rows)
        bc = set_similarity_join(R, S, 0.4, strategy="broadcast").to_pandas()
        co = set_similarity_join(R, S, 0.4, strategy="copartition").to_pandas()
        bc = bc.sort_values(list(bc.columns)).reset_index(drop=True)
        co = co.sort_values(list(co.columns)).reset_index(drop=True)
        assert len(bc) > 0
        pd.testing.assert_frame_equal(bc, co)

    def test_probe_forced_copartition(self, ray_session, tmp_path):
        """Incremental probe with the co-partitioned verify (texts/
        tree streamed through Ray, nothing on the driver) == the
        broadcast-verified probe == the batch join."""
        import pandas as pd
        import ray.data

        from opzoo.stages.joins import (
            probe_setsim_index,
            save_setsim_index,
            set_similarity_join,
        )

        R_rows, S_rows = self._corpus()
        R, S = ray.data.from_items(R_rows), ray.data.from_items(S_rows)
        path = str(tmp_path / "setsim_index")
        save_setsim_index(R, path, threshold=0.4)
        co = probe_setsim_index(S, path, strategy="copartition").to_pandas()
        bc = probe_setsim_index(S, path, strategy="broadcast").to_pandas()
        batch = set_similarity_join(R, S, threshold=0.4).to_pandas()
        co = co.sort_values(list(co.columns)).reset_index(drop=True)
        bc = bc.sort_values(list(bc.columns)).reset_index(drop=True)
        batch = batch.sort_values(list(batch.columns)).reset_index(drop=True)
        assert len(co) > 0
        pd.testing.assert_frame_equal(co, bc)
        pd.testing.assert_frame_equal(co, batch)

    def test_overlapping_ids_copartition(self, ray_session):
        """The co-partition arm resolves id_a only against R and id_b
        only against S, so overlapping id spaces must not cross-shadow
        (mirror of the broadcast-arm test below)."""
        import ray.data

        from opzoo.stages.joins import set_similarity_join

        shared = "alpha beta gamma delta epsilon zeta eta theta iota"
        R = ray.data.from_items([{"doc_id": 2, "text": shared}])
        S = ray.data.from_items(
            [
                {"doc_id": 2, "text": "completely different words in this s-side record here"},
                {"doc_id": 7, "text": shared},
            ]
        )
        out = set_similarity_join(R, S, threshold=0.5, strategy="copartition").to_pandas()
        got = {(a, b): j for a, b, j in zip(out["id_a"], out["id_b"], out["jaccard"])}
        assert got == {(2, 7): 1.0}


class TestSetSimEdgeCases:
    def test_overlapping_id_spaces(self, ray_session):
        """R and S may reuse the same ids: verify texts are keyed
        (side, id), so S's id-2 text must not shadow R's id-2 text."""
        import ray.data

        from opzoo.stages.joins import set_similarity_join

        shared = "alpha beta gamma delta epsilon zeta eta theta iota"
        R = ray.data.from_items([{"doc_id": 2, "text": shared}])
        S = ray.data.from_items(
            [
                {"doc_id": 2, "text": "completely different words in this s-side record here"},
                {"doc_id": 7, "text": shared},
            ]
        )
        out = set_similarity_join(R, S, threshold=0.5).to_pandas()
        got = {(a, b): j for a, b, j in zip(out["id_a"], out["id_b"], out["jaccard"])}
        assert got == {(2, 7): 1.0}

    def test_exactly_at_threshold_not_pruned(self, ray_session):
        """threshold = 9/11 with |A|=63 trigrams subset of |B|=77:
        jaccard == threshold exactly, but fl(t)*77 > 63 — the pruning
        stages must not drop it (they relax by epsilon; the sharp
        predicate runs in the verify)."""
        import ray.data

        from opzoo.stages.joins import set_similarity_join

        words = [f"u{i:03d}" for i in range(79)]
        b_text = " ".join(words)          # 77 distinct trigrams
        a_text = " ".join(words[:65])     # 63 distinct trigrams, subset
        R = ray.data.from_items([{"doc_id": 0, "text": a_text}])
        S = ray.data.from_items([{"doc_id": 1, "text": b_text}])
        t = 9 / 11
        out = set_similarity_join(R, S, threshold=t).to_pandas()
        assert len(out) == 1
        assert out["jaccard"].iloc[0] == 63 / 77
        assert out["jaccard"].iloc[0] >= t


@pytest.mark.parametrize("seed", [3, 17, 41])
def test_containment_join_matches_brute_force(ray_session, seed, tmp_path):
    """Randomized gate for the containment prefix filter: the
    distributed join must equal the brute-force all-pairs string-set
    reference exactly — completeness (prefix lemma, hash collisions)
    and the sharp integer predicate both checked."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from opzoo.stages.joins import _setsim_gram_set, containment_join

    rng = np.random.RandomState(seed)
    vocab = [f"w{i}" for i in range(12)]  # small vocab -> real overlaps
    docs = []
    for i in range(60):
        n = rng.randint(3, 14)
        docs.append((i, " ".join(rng.choice(vocab, n))))
    # plant exact prefixes (containment 1.0) for a few docs
    for j, (i, t) in enumerate(docs[:5]):
        ws = t.split(" ")
        docs.append((100 + j, " ".join(ws[: max(3, len(ws) // 2)])))

    t = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([s for _, s in docs]),
        }
    )
    pq.write_table(t, tmp_path / "docs.parquet")
    ds = ray.data.read_parquet(str(tmp_path / "docs.parquet"))
    got = set(map(tuple, containment_join(ds, ds, 4, 5).to_numpy()))

    gsets = {i: _setsim_gram_set(s, 3) for i, s in docs}
    want = {
        (a, b)
        for a in gsets
        for b in gsets
        if a != b
        and gsets[a]
        and 5 * len(gsets[a] & gsets[b]) >= 4 * len(gsets[a])
    }
    assert got == want
