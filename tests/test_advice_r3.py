"""Regression tests for the round-3 ADVICE findings."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


class TestBpeEncodeTrailingEmpty:
    def test_trailing_null_text_does_not_shift_prev_doc(self, ray_session):
        """ADVICE r3 (low): a null/empty LAST doc in a batch used to clamp
        the reduceat boundary and silently drop the previous doc's last
        word from its token count."""
        import ray.data

        from opzoo.stages.text import _bpe_apply_merge, bpe_encode_counts

        merges = [("t", "h"), ("th", "e")]
        # single batch, last entries empty/null
        tbl = pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(["the cat theory", "", None], pa.string()),
            }
        )
        ds = ray.data.from_arrow(tbl)
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

        assert got.loc[0, "n_tokens"] == ref("the cat theory")
        assert got.loc[0, "n_words"] == 3
        assert list(got["n_tokens"])[1:] == [0, 0]
        assert list(got["n_words"])[1:] == [0, 0]


class TestWavEmptyDataChunk:
    def test_zero_length_data_chunk_survives(self, ray_session):
        """ADVICE r3 (low): a structurally valid WAV with a size-0 data
        chunk used to crash WavAudioDecoder on mean_abs division."""
        import ray.data

        from opzoo.stages.multimodal import WavAudioDecoder, decode_wav

        fmt = (
            b"fmt " + (16).to_bytes(4, "little")
            + (1).to_bytes(2, "little") + (1).to_bytes(2, "little")
            + (8000).to_bytes(4, "little") + (16000).to_bytes(4, "little")
            + (2).to_bytes(2, "little") + (16).to_bytes(2, "little")
        )
        data = b"data" + (0).to_bytes(4, "little")
        body = fmt + data
        payload = b"RIFF" + (4 + len(body)).to_bytes(4, "little") + b"WAVE" + body
        rate, samples = decode_wav(payload)
        assert rate == 8000 and len(samples) == 0

        ds = ray.data.from_arrow(
            pa.table({"media_id": pa.array(["m0"], pa.string()),
                      "payload": pa.array([payload], pa.binary())})
        )
        out = ds.map_batches(
            WavAudioDecoder, batch_format="pyarrow", concurrency=1
        ).to_pandas()
        assert out.loc[0, "n_samples"] == 0
        assert out.loc[0, "mean_abs"] == 0.0
        assert out.loc[0, "peak_abs"] == 0


class TestE02NullText:
    def test_trailing_null_text_row(self, ray_session, tmp_path):
        """ADVICE r3 (low): a trailing null text row yields a list offset
        equal to len(flat); the boundary scatter used to IndexError."""
        from opzoo.queries import KG_ENTITIES, e02_adjacent_relations

        ents = sorted(KG_ENTITIES)[:2]
        tbl = pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(
                    [f"{ents[0]} {ents[1]} filler", "", None], pa.string()
                ),
            }
        )
        pq.write_table(tbl, str(tmp_path / "documents.parquet"))
        got = e02_adjacent_relations(str(tmp_path))
        row = got[(got["subj"] == ents[0]) & (got["obj"] == ents[1])]
        assert len(row) == 1 and int(row.iloc[0]["n"]) == 1


class TestJsonlAnswersPath:
    def test_build_triples_answers_honors_transcripts_ds(self, ray_session, tmp_path):
        """ADVICE r3 (medium): extractor='answers' ignored the caller's
        transcripts_ds, so input_format='jsonl' crashed in the parquet
        reader.  Now a supplied Dataset is used directly."""
        import json as _json

        import ray.data

        from naer_ray.pipelines.kg import build_triples

        # transcripts as JSONL (the non-parquet source format)
        rows = [
            {"conv_id": "c1", "turn_idx": 1, "role": "user",
             "text": "The storage service is big.", "tool": "",
             "ts": "2026-01-01T00:00:00"},
        ]
        jsonl = tmp_path / "transcripts.jsonl"
        with open(jsonl, "w") as f:
            for r in rows:
                f.write(_json.dumps(r) + "\n")

        # one recorded structured-text answer for c1
        answers = pa.table(
            {
                "conv_id": pa.array(["c1"], pa.string()),
                "answer": pa.array(
                    [
                        "COMPONENT entities recognized:\n"
                        "storage service, 'The storage service is big.'"
                    ],
                    pa.string(),
                ),
                "format": pa.array(["structured-text"], pa.string()),
            }
        )
        ans_path = tmp_path / "answers.parquet"
        pq.write_table(answers, str(ans_path))

        from naer_ray.sources.transcripts import read_transcripts_jsonl

        src = read_transcripts_jsonl(str(jsonl))
        triples = build_triples(
            str(jsonl),  # NOT a parquet path — must not be read
            None,
            extractor="answers",
            answers_path=str(ans_path),
            transcripts_ds=src,
        ).to_pandas()
        assert len(triples) > 0
        assert (triples["conv_id"] == "c1").all()


class TestQ03SizeGate:
    def test_native_join_path_matches_broadcast(self, ray_session):
        """VERDICT r3: q03 must not broadcast a fact-proportional table
        unconditionally.  Force the join path (gate=0) and check it
        matches the broadcast path exactly."""
        import pandas as pd

        from opzoo.queries import q03_orders_by_segment

        sf = "/root/testdata/sf0.001"
        bc = (
            q03_orders_by_segment(sf)
            .sort_values("c_mktsegment")
            .reset_index(drop=True)
        )
        nj = (
            q03_orders_by_segment(sf, broadcast_threshold_bytes=0)
            .sort_values("c_mktsegment")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(bc, nj)


class TestPngDecode:
    def test_roundtrip_matches_generator(self):
        from opzoo.stages.multimodal import decode_png, synth_png_payload

        for i in (0, 1, 7, 55, 123, 4999):
            w, h, pix = decode_png(synth_png_payload(i))
            assert (w, h) == (4 + (i * 139) % 29, 4 + (i * 199) % 31)
            j = np.arange(w * h, dtype=np.int64)
            exp = np.stack(
                [(i * 5 + j * 19) % 256, (i * 17 + j * 29) % 256,
                 (i * 23 + j * 31) % 256], axis=1,
            )
            assert (pix.astype(np.int64) == exp).all()

    def _encode_with_filters(self, rgb, ftypes):
        """Reference encoder applying arbitrary per-row filters
        (incl. Average/Paeth, which synth_png_payload never emits)."""
        import struct
        import zlib

        from opzoo.stages.multimodal import PNG_SIG, _paeth

        h, stride = rgb.shape
        w = stride // 3
        raw = bytearray()
        prior = np.zeros(stride, dtype=np.int32)
        for r in range(h):
            line = rgb[r].astype(np.int32)
            f = ftypes[r]
            raw.append(f)
            for i in range(stride):
                left = int(line[i - 3]) if i >= 3 else 0
                up = int(prior[i])
                ul = int(prior[i - 3]) if i >= 3 else 0
                x = int(line[i])
                if f == 0:
                    v = x
                elif f == 1:
                    v = x - left
                elif f == 2:
                    v = x - up
                elif f == 3:
                    v = x - (left + up) // 2
                else:
                    v = x - _paeth(left, up, ul)
                raw.append(v % 256)
            prior = line

        def chunk(tag, data):
            return (struct.pack(">I", len(data)) + tag + data
                    + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF))

        ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
        return (PNG_SIG + chunk(b"IHDR", ihdr)
                + chunk(b"IDAT", zlib.compress(bytes(raw)))
                + chunk(b"IEND", b""))

    def test_average_and_paeth_filters(self):
        from opzoo.stages.multimodal import decode_png

        rng = np.random.RandomState(11)
        rgb = rng.randint(0, 256, (6, 5 * 3)).astype(np.uint8)
        for ftypes in ([3] * 6, [4] * 6, [0, 1, 2, 3, 4, 3]):
            payload = self._encode_with_filters(rgb, ftypes)
            w, h, pix = decode_png(payload)
            assert (w, h) == (5, 6)
            assert (pix.reshape(6, 15) == rgb).all()

    def test_crc_and_format_rejection(self):
        from opzoo.stages.multimodal import decode_png, synth_png_payload

        with pytest.raises(ValueError, match="not a PNG"):
            decode_png(b"GIF89a....")
        p = bytearray(synth_png_payload(3))
        p[20] ^= 0xFF  # corrupt an IHDR byte: CRC must catch it
        with pytest.raises(ValueError, match="CRC"):
            decode_png(bytes(p))
        # grayscale (color type 0) is out of scope and must say so
        import struct
        import zlib

        from opzoo.stages.multimodal import PNG_SIG

        ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0)
        chunk = (struct.pack(">I", len(ihdr)) + b"IHDR" + ihdr
                 + struct.pack(">I", zlib.crc32(b"IHDR" + ihdr) & 0xFFFFFFFF))
        with pytest.raises(ValueError, match="only 8-bit RGB"):
            decode_png(PNG_SIG + chunk)


class TestJ01AsofRowLevel:
    def test_invariant_to_bucket_count_and_matches_reference(self, ray_session):
        """Row-level as-of join: bucket count must not change the match
        set, and a small slice must equal a brute-force reference."""
        import pandas as pd
        import pyarrow.parquet as pq_

        from opzoo.queries import j01_asof_join

        sf = "/root/testdata/sf0.001"
        a = (
            j01_asof_join(sf, n_buckets=4).to_pandas()
            .sort_values(["event_id"]).reset_index(drop=True)
        )
        b = (
            j01_asof_join(sf, n_buckets=64).to_pandas()
            .sort_values(["event_id"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)

        ev = pq_.read_table(f"{sf}/events.parquet",
                            columns=["event_id", "user_id", "ts"]).to_pandas()
        od = pq_.read_table(f"{sf}/orders.parquet",
                            columns=["o_orderkey", "o_custkey", "o_orderdate"]).to_pandas()
        got = dict(zip(a["event_id"], a["o_orderkey"]))
        for row in ev.head(50).itertuples():
            cand = od[(od["o_custkey"] == row.user_id)
                      & (od["o_orderdate"] <= row.ts)]
            if cand.empty:
                assert row.event_id not in got
            else:
                best = cand.sort_values(
                    ["o_orderdate", "o_orderkey"], ascending=False
                ).iloc[0]
                assert got[row.event_id] == best["o_orderkey"]
