"""Text analysis, ANN, and multimodal plumbing."""

import numpy as np
import pytest


class TestTextScalars:
    def test_detect_language(self):
        from opzoo.stages.text import detect_language

        assert detect_language("the cat is in the house and it is happy")[0] == "en"
        assert detect_language("der Hund ist in dem Haus und die Katze auch")[0] == "de"
        assert detect_language("el perro es un animal y la casa es grande")[0] == "es"
        assert detect_language("")[0] == "unknown"

    def test_fingerprint_deterministic(self):
        from opzoo.stages.text import winnow_fingerprint

        a = winnow_fingerprint("some document text for fingerprinting purposes")
        b = winnow_fingerprint("some document text for fingerprinting purposes")
        c = winnow_fingerprint("entirely different body of text with other words")
        assert a == b and a != c


def test_text_stages_over_documents(ray_session):
    import ray.data

    from opzoo.stages.text import fingerprints, lang_id, quality_score, token_counts

    ds = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    li = lang_id(ds).to_pandas()
    assert set(li.columns) == {"doc_id", "pred_lang", "lang_confidence"}
    assert len(li) == 500
    q = quality_score(ds).to_pandas()
    assert q["quality"].between(0, 1).all()
    tc = token_counts(ds).to_pandas()
    assert (tc["bpe_tokens"] >= tc["ws_tokens"]).all()
    fp = fingerprints(ds).to_pandas()
    assert fp["fingerprint"].nunique() > 400  # near-unique on distinct docs


class TestAnn:
    @pytest.fixture(scope="class")
    def emb_ds(self, ray_session):
        import ray.data

        return ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet")

    @pytest.fixture(scope="class")
    def queries(self):
        import pyarrow.parquet as pq

        t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
        mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
        return mat[:3]

    def test_brute_force_matches_numpy(self, emb_ds, queries):
        import pyarrow.parquet as pq

        from opzoo.stages.ann import brute_force_topk

        got = brute_force_topk(emb_ds, queries, k=5)
        t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
        mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
        ids = t["vec_id"].to_numpy()
        unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        sims = unit @ qn.T
        for qi in range(3):
            expect = ids[np.lexsort((ids, -sims[:, qi]))[:5]].tolist()
            have = got[got["query_id"] == qi]["vec_id"].tolist()
            assert have == expect

    def test_lsh_finds_self(self, emb_ds, queries):
        from opzoo.stages.ann import lsh_topk

        got = lsh_topk(emb_ds, queries, k=3)
        for qi in range(3):
            top = got[got["query_id"] == qi].iloc[0]
            assert top["sim"] == pytest.approx(1.0, abs=1e-9)  # finds itself

    def test_ivf_finds_self(self, emb_ds, queries):
        from opzoo.stages.ann import ivf_topk

        got = ivf_topk(emb_ds, queries, k=3)
        for qi in range(3):
            assert got[got["query_id"] == qi].iloc[0]["sim"] == pytest.approx(
                1.0, abs=1e-9
            )

    def test_persisted_pq_index_matches_per_call(self, emb_ds, queries, tmp_path):
        """save_pq_index + pq_topk_indexed == per-call pq_topk: the
        persisted probe scans only the m-byte code table."""
        from opzoo.stages.ann import pq_topk, pq_topk_indexed, save_pq_index

        path = str(tmp_path / "pq_index")
        save_pq_index(emb_ds, path)
        from_index = pq_topk_indexed(path, queries, k=5)
        per_call = pq_topk(emb_ds, queries, k=5)
        assert from_index.values.tolist() == per_call.values.tolist()

    def test_pq_finds_self_and_is_partition_invariant(self, emb_ds, queries):
        """PQ codes of a query row ADC-score best against themselves,
        and the result is identical under a different block layout."""
        from opzoo.stages.ann import pq_topk

        got = pq_topk(emb_ds, queries, k=3)
        for qi in range(3):
            # the query row encodes to its own codes -> minimal ADC
            # distance; its id must appear in the top-3
            assert qi in got[got["query_id"] == qi]["vec_id"].tolist()
        reparted = pq_topk(emb_ds.repartition(7), queries, k=3)
        assert got.values.tolist() == reparted.values.tolist()

    def test_persisted_index_matches_rebuild(self, emb_ds, queries, tmp_path):
        """save_lsh_index + lsh_topk_indexed == per-call lsh_topk."""
        from opzoo.stages.ann import lsh_topk, lsh_topk_indexed, save_lsh_index

        path = str(tmp_path / "lsh_index")
        save_lsh_index(emb_ds, path)
        from_index = lsh_topk_indexed(path, queries, k=5)
        rebuilt = lsh_topk(emb_ds, queries, k=5)
        a = from_index[["query_id", "vec_id"]].reset_index(drop=True)
        b = rebuilt[["query_id", "vec_id"]].reset_index(drop=True)
        assert a.equals(b)

    def test_persisted_ivf_index_matches_rebuild(self, emb_ds, queries, tmp_path):
        """save_ivf_index + ivf_topk_indexed == per-call ivf_topk."""
        from opzoo.stages.ann import ivf_topk, ivf_topk_indexed, save_ivf_index

        path = str(tmp_path / "ivf_index")
        save_ivf_index(emb_ds, path)
        from_index = ivf_topk_indexed(path, queries, k=5)
        rebuilt = ivf_topk(emb_ds, queries, k=5)
        a = from_index[["query_id", "vec_id"]].reset_index(drop=True)
        b = rebuilt[["query_id", "vec_id"]].reset_index(drop=True)
        assert a.equals(b)


    def test_quantized_topk_matches_int_reference(self, emb_ds, queries):
        import pyarrow.parquet as pq

        from opzoo.stages.ann import quantized_topk

        got = quantized_topk(emb_ds, queries, k=5)
        t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
        mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
        ids = t["vec_id"].to_numpy()
        m8 = np.clip(
            np.rint(mat / np.linalg.norm(mat, axis=1, keepdims=True) * 127.0),
            -127, 127,
        ).astype(np.int32)
        qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        q8 = np.clip(np.rint(qn * 127.0), -127, 127).astype(np.int32)
        sims = m8 @ q8.T
        for qi in range(3):
            expect = ids[np.lexsort((ids, -sims[:, qi]))[:5]].tolist()
            have = got[got["query_id"] == qi]["vec_id"].tolist()
            assert have == expect  # int scores: exact under any layout


class TestMultimodal:
    def test_decode_features_fake(self, ray_session):
        import ray.data

        from opzoo.stages.multimodal import (
            FEATURE_SCHEMA,
            decode_features,
            synth_media_table,
        )

        ds = ray.data.from_arrow(synth_media_table(32))
        out = decode_features(ds).to_pandas()
        assert len(out) == 32
        assert list(out.columns) == FEATURE_SCHEMA.names
        assert out["feature"].map(len).eq(16).all()
        # deterministic across runs
        out2 = decode_features(ray.data.from_arrow(synth_media_table(32))).to_pandas()
        assert out.sort_values("media_id")["mean_luma"].tolist() == out2.sort_values(
            "media_id"
        )["mean_luma"].tolist()

    def test_real_decode_raises(self, ray_session):
        import ray.data

        from opzoo.stages.multimodal import decode_features, synth_media_table

        ds = ray.data.from_arrow(synth_media_table(4))
        with pytest.raises(Exception):
            decode_features(ds, fake=False).materialize()


class TestMultimodalPlans:
    def test_resize_plan(self, ray_session):
        import ray.data

        from opzoo.stages.multimodal import resize_plan, synth_media_table

        ds = ray.data.from_arrow(synth_media_table(48))
        out = resize_plan(ds, max_side=224).to_pandas()
        assert len(out) > 0
        assert (out[["target_w", "target_h"]].max(axis=1) <= 224).all()
        # aspect preserved within rounding
        ratio_in = out["width"] / out["height"]
        ratio_out = out["target_w"] / out["target_h"]
        assert ((ratio_in - ratio_out).abs() / ratio_in < 0.1).all()
        # small images are never upscaled
        small = out[(out["width"] <= 224) & (out["height"] <= 224)]
        assert (small["target_w"] == small["width"]).all()

    def test_frame_sample_plan(self, ray_session):
        import ray.data

        from opzoo.stages.multimodal import frame_sample_plan, synth_media_table

        ds = ray.data.from_arrow(synth_media_table(48))
        out = frame_sample_plan(ds, fps=1.0, max_frames=16).to_pandas()
        assert len(out) > 0
        g = out.groupby("media_id")["frame_ts_ms"]
        assert (g.min() == 0).all()  # always includes t=0
        assert (g.count() <= 16).all()
        steps = out.sort_values(["media_id", "frame_ts_ms"]).groupby("media_id")[
            "frame_ts_ms"
        ].diff().dropna()
        assert (steps == 1000).all()  # uniform 1 fps grid


class TestVectorizedTextParity:
    """The vectorized batch kernels must be bit-identical to the per-doc
    reference implementations (detect_language / quality_one /
    bpe_token_count) on adversarial inputs: contractions, quote chains,
    mixed whitespace (incl. \\x0b, \\x1c which RE2's \\s misses), control
    chars, and non-ASCII fallback rows."""

    TEXTS = None

    @classmethod
    def _texts(cls):
        if cls.TEXTS is None:
            import numpy as np

            rng = np.random.RandomState(7)
            alphabet = list("abcST 'sdmtlver.!?\"\t\n 019") + [
                "'ll", "'ve", "'re", "'s", "it's", "don't", "  ", "\x0b",
                "\x1c", "--", ",,", "the ", "und ", "la ",
            ]
            texts = [
                "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
                for _ in range(1500)
            ]
            texts += [
                "", " ", "   ", "'s", "a's'd", "it'sa", "don't", "a\n's",
                "x ' s", "3's", "'S", "ab''s", "!'s", "\n\na", " \na", "'sx",
                "'", "a'", "word" * 5, "\x1c\x1d ok", "tab\there",
                "héllo wörld", "naïve café's", "日本語 テスト",
            ]
            cls.TEXTS = texts
        return cls.TEXTS

    def _arr(self):
        import pyarrow as pa

        from opzoo.stages.text import _string_array

        return _string_array(pa.array(self._texts(), pa.string()))

    def test_token_counts_parity(self):
        from opzoo.stages.text import _token_counts_vec, bpe_token_count

        ws, bpe = _token_counts_vec(self._arr())
        for i, t in enumerate(self._texts()):
            assert ws[i] == len(t.split()), repr(t)
            assert bpe[i] == bpe_token_count(t), repr(t)

    def test_quality_parity(self):
        from opzoo.stages.text import _quality_vec, quality_one

        q = _quality_vec(self._arr())
        for i, t in enumerate(self._texts()):
            assert q[i] == quality_one(t), repr(t)

    def test_lang_id_parity(self):
        from opzoo.stages.text import _detect_language_vec, detect_language

        langs, confs = _detect_language_vec(self._arr())
        for i, t in enumerate(self._texts()):
            el, ec = detect_language(t)
            assert (langs[i], confs[i]) == (el, ec), repr(t)


class TestPpmDecode:
    def test_roundtrip_generator(self):
        """Real decode of the deterministic generator payloads recovers
        the closed-form dimensions and exact rational mean luma."""
        import numpy as np

        from opzoo.stages.multimodal import decode_ppm, synth_ppm_payload

        for d in [0, 1, 17, 123456]:
            w, h, pix = decode_ppm(synth_ppm_payload(d))
            assert (w, h) == (4 + (d * 131) % 29, 4 + (d * 197) % 31)
            j = np.arange(w * h, dtype=np.int64)
            exp = np.stack(
                [(d * 7 + j * 13) % 256, (d * 11 + j * 17) % 256, (d * 13 + j * 23) % 256],
                axis=1,
            )
            assert (pix == exp).all()

    def test_header_whitespace_variants(self):
        from opzoo.stages.multimodal import decode_ppm

        pix = bytes(range(2 * 1 * 3))
        for header in (b"P6\n2 1\n255\n", b"P6 2 1 255 ", b"P6\n2\n1\n255\t"):
            w, h, arr = decode_ppm(header + pix)
            assert (w, h) == (2, 1)
            assert arr.tobytes() == pix

    def test_rejects_non_ppm(self):
        import pytest as _pytest

        from opzoo.stages.multimodal import decode_ppm

        with _pytest.raises(ValueError):
            decode_ppm(b"\x89PNG....")
        with _pytest.raises(ValueError):
            decode_ppm(b"P6\n2 1\n65535\n" + bytes(12))


class TestMmrGreedy:
    def test_diversifies_over_near_duplicate(self):
        from opzoo.stages.ann import mmr_greedy

        # a and b are near-identical high-norm vectors; c is diverse with
        # slightly lower relevance.  Plain top-2 = [1, 2]; MMR must pick
        # the diverse c (id 3) second.  Also regression-guards the
        # -int64.min lexsort overflow that re-picked the chosen item.
        ids = np.array([1, 2, 3], dtype=np.int64)
        mat = np.array([[100, 1000], [100, 1000], [90, -50]], dtype=np.int64)
        rel = mat @ np.array([100, 0], dtype=np.int64)
        assert mmr_greedy(ids, mat, rel, 2) == [1, 3]

    def test_negative_similarity_rewards_selection(self):
        from opzoo.stages.ann import mmr_greedy

        # anti-correlated second item: max_sim < 0 must INCREASE its
        # score (zero-initialized max_sim would clamp it)
        ids = np.array([5, 6], dtype=np.int64)
        mat = np.array([[10, 0], [-10, 0]], dtype=np.int64)
        rel = np.array([100, 90], dtype=np.int64)
        assert mmr_greedy(ids, mat, rel, 2) == [5, 6]

    def test_k_larger_than_candidates(self):
        from opzoo.stages.ann import mmr_greedy

        ids = np.array([7], dtype=np.int64)
        mat = np.array([[1, 1]], dtype=np.int64)
        assert mmr_greedy(ids, mat, np.array([1], np.int64), 10) == [7]


class TestImageDedup:
    def test_header_variants_same_group(self, ray_session):
        """Same pixels under different P6 header whitespace must land in
        ONE group — raw-byte hashing would split them (the reason the
        stage hashes DECODED content)."""
        import ray.data

        from opzoo.stages.multimodal import image_dedup_groups

        pix = bytes(range(4 * 1 * 3))
        a = b"P6\n4 1\n255\n" + pix
        b = b"P6 4 1 255\n" + pix
        other = b"P6\n4 1\n255\n" + bytes(reversed(pix))
        assert a != b
        ds = ray.data.from_items(
            [
                {"doc_id": 10, "payload": a},
                {"doc_id": 3, "payload": b},
                {"doc_id": 7, "payload": other},
            ]
        )
        out = (
            image_dedup_groups(ds)
            .to_pandas()
            .sort_values("keep_id")
            .reset_index(drop=True)
        )
        assert list(out["keep_id"]) == [3, 7]
        assert list(out["n_dupes"]) == [2, 1]


class TestWavDecode:
    def test_roundtrip_matches_generator(self):
        import numpy as np

        from opzoo.stages.multimodal import decode_wav, synth_wav_payload

        for i in (0, 1, 7, 123, 4999):
            rate, s = decode_wav(synth_wav_payload(i))
            n = 64 + (i * 89) % 193
            assert rate == 8000 + (i % 8) * 1000
            j = np.arange(n, dtype=np.int64)
            exp = ((i * 31 + j * 57) % 2048) - 1024
            assert (s.astype(np.int64) == exp).all()

    def test_chunk_walk_skips_unknown_and_pads_odd(self):
        import numpy as np

        from opzoo.stages.multimodal import decode_wav

        samples = np.array([-3, 5, 0, 32767, -32768], dtype=np.int16)
        fmt = (
            b"fmt " + (16).to_bytes(4, "little")
            + (1).to_bytes(2, "little") + (1).to_bytes(2, "little")
            + (44100).to_bytes(4, "little") + (88200).to_bytes(4, "little")
            + (2).to_bytes(2, "little") + (16).to_bytes(2, "little")
        )
        # odd-sized unknown chunk before data: the walker must apply RIFF
        # word alignment or it lands mid-chunk
        junk = b"LIST" + (3).to_bytes(4, "little") + b"abc" + b"\x00"
        data = b"data" + (10).to_bytes(4, "little") + samples.tobytes()
        body = fmt + junk + data
        payload = b"RIFF" + (4 + len(body)).to_bytes(4, "little") + b"WAVE" + body
        rate, out = decode_wav(payload)
        assert rate == 44100
        assert (out == samples).all()

    def test_rejects_bad_payloads(self):
        import pytest as _pytest

        from opzoo.stages.multimodal import decode_wav, synth_wav_payload

        with _pytest.raises(ValueError):
            decode_wav(b"OggS....")
        stereo = bytearray(synth_wav_payload(1))
        stereo[22] = 2  # channels=2 in the fmt chunk
        with _pytest.raises(ValueError):
            decode_wav(bytes(stereo))


class TestBmpDecode:
    def test_roundtrip_matches_generator(self):
        import numpy as np

        from opzoo.stages.multimodal import decode_bmp, synth_bmp_payload

        for d in (0, 3, 41, 512, 12345):
            w, h, pix = decode_bmp(synth_bmp_payload(d))
            j = np.arange(w * h, dtype=np.int64)
            exp = np.stack(
                [(d * 7 + j * 13) % 256, (d * 11 + j * 17) % 256,
                 (d * 13 + j * 23) % 256], axis=1,
            )
            assert (pix == exp).all()

    def test_honest_scope(self):
        import struct

        import pytest

        from opzoo.stages.multimodal import decode_bmp, synth_bmp_payload

        with pytest.raises(ValueError):
            decode_bmp(b"NOTBMP" + b"\x00" * 64)
        # 8-bit palette BMP raises NotImplementedError, not garbage
        p = bytearray(synth_bmp_payload(7))
        struct.pack_into("<H", p, 28, 8)  # biBitCount = 8
        with pytest.raises(NotImplementedError):
            decode_bmp(bytes(p))
