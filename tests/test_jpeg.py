"""Baseline JPEG codec: real decode verified against the generator
arithmetic (flat blocks), an independent double-loop IDCT (AC path),
and hand-built streams for 4:2:0 / 16-bit DQT / restart / error paths.

No reference parallel — the reference (ardoco NAER) has no images;
this comes from the large-scale-pipeline brief (VERDICT r3 item 7).
"""

import numpy as np
import pytest

from opzoo.stages.multimodal import (
    _JPEG_ZZ,
    decode_jpeg,
    encode_baseline_jpeg,
    synth_jpeg_payload,
)

ONES = np.ones(64, dtype=np.int64)


def _ref_idct(coef: np.ndarray) -> np.ndarray:
    """Independent direct-form IDCT (double loop over u,v) — a different
    formulation than the decoder's separable matrix product."""
    out = np.zeros((8, 8))
    for x in range(8):
        for y in range(8):
            s = 0.0
            for u in range(8):
                for v in range(8):
                    cu = 1 / np.sqrt(2) if u == 0 else 1.0
                    cv = 1 / np.sqrt(2) if v == 0 else 1.0
                    s += (
                        cu
                        * cv
                        * coef[u, v]
                        * np.cos((2 * x + 1) * u * np.pi / 16)
                        * np.cos((2 * y + 1) * v * np.pi / 16)
                    )
            out[x, y] = s / 4.0
    return out


def test_synth_roundtrip_exact():
    """Flat DC-only blocks with q=1 decode bit-exactly back to the
    generator values — across ids with and without restart intervals."""
    for doc_id in (0, 1, 2, 3, 7, 12, 100, 255, 999):
        w, h, rgb, ycc = decode_jpeg(synth_jpeg_payload(doc_id), return_ycbcr=True)
        bw, bh = 1 + (doc_id * 7) % 4, 1 + (doc_id * 11) % 4
        assert (w, h) == (8 * bw, 8 * bh)
        idx = np.arange(bw * bh)
        vy = (doc_id * 5 + idx * 37) % 256
        vcr = (doc_id * 23 + idx * 43) % 256
        y_plane = ycc[:, 0].reshape(h, w)
        r_plane = rgb[:, 0].reshape(h, w)
        r_exp = np.clip(np.floor(vy + 1.402 * (vcr - 128.0) + 0.5), 0, 255)
        for i in range(bw * bh):
            by, bx = divmod(i, bw)
            blk = (slice(by * 8, by * 8 + 8), slice(bx * 8, bx * 8 + 8))
            assert (y_plane[blk] == vy[i]).all()
            assert (r_plane[blk] == r_exp[i]).all()


def test_byte_stuffing_occurs_and_decodes():
    """The corpus genuinely exercises 0xFF00 un-stuffing."""
    stuffed = [i for i in range(300) if b"\xff\x00" in synth_jpeg_payload(i)[20:]]
    assert stuffed, "no synth payload contains a stuffed byte"
    for i in stuffed[:3]:
        w, h, _ = decode_jpeg(synth_jpeg_payload(i))
        assert (w, h) == (8 * (1 + i * 7 % 4), 8 * (1 + i * 11 % 4))


def test_ac_path_vs_independent_idct():
    """Random AC coefficients + non-trivial quant tables (one 16-bit) +
    a planted >16 zero run (ZRL) + restart interval: decoded planes must
    equal an independent direct-form IDCT bit-for-bit."""
    rng = np.random.RandomState(7)
    bw, bh = 3, 2
    q0 = np.r_[1, rng.randint(1, 30, 63)].astype(np.int64)
    q1 = np.r_[1, rng.randint(1, 300, 63)].astype(np.int64)  # forces Pq=1
    blocks = []
    for _ in range(3):
        b = rng.randint(-40, 40, size=(bh, bw, 64)).astype(np.int64)
        b[..., 0] = rng.randint(-200, 200, size=(bh, bw))
        b[0, 0, 1:40] = 0  # long zero run -> ZRL symbols
        b[0, 0, 40] = 3
        blocks.append(b)
    payload = encode_baseline_jpeg(
        blocks, [(1, 1)] * 3, [q0, q1], [0, 1, 1], 8 * bw, 8 * bh, restart_interval=2
    )
    w, h, _, ycc = decode_jpeg(payload, return_ycbcr=True)
    for ci in range(3):
        q = q0 if ci == 0 else q1
        expect = np.zeros((h, w))
        for by in range(bh):
            for bx in range(bw):
                raster = np.zeros(64)
                raster[_JPEG_ZZ] = blocks[ci][by, bx] * q
                expect[by * 8 : by * 8 + 8, bx * 8 : bx * 8 + 8] = np.clip(
                    np.floor(_ref_idct(raster.reshape(8, 8)) + 128.0 + 0.5), 0, 255
                )
        assert np.array_equal(ycc[:, ci].reshape(h, w).astype(np.float64), expect)


def test_420_subsampling_upsample():
    vy = np.array([[10, 60], [120, 200]])
    yb = np.zeros((2, 2, 64), dtype=np.int64)
    yb[..., 0] = 8 * (vy - 128)
    cbb = np.zeros((1, 1, 64), dtype=np.int64)
    cbb[..., 0] = 8 * (90 - 128)
    crb = np.zeros((1, 1, 64), dtype=np.int64)
    crb[..., 0] = 8 * (160 - 128)
    p = encode_baseline_jpeg(
        [yb, cbb, crb], [(2, 2), (1, 1), (1, 1)], [ONES, ONES], [0, 1, 1], 16, 16
    )
    w, h, rgb, ycc = decode_jpeg(p, return_ycbcr=True)
    y_plane = ycc[:, 0].reshape(16, 16)
    assert (y_plane[:8, :8] == 10).all() and (y_plane[:8, 8:] == 60).all()
    assert (y_plane[8:, :8] == 120).all() and (y_plane[8:, 8:] == 200).all()
    assert (ycc[:, 1] == 90).all() and (ycc[:, 2] == 160).all()
    assert rgb[0, 0] == np.clip(np.floor(10 + 1.402 * (160 - 128.0) + 0.5), 0, 255)


def test_grayscale_and_crop():
    yb = np.zeros((2, 3, 64), dtype=np.int64)
    yb[..., 0] = 8 * (77 - 128)
    w, h, rgb = decode_jpeg(encode_baseline_jpeg([yb], [(1, 1)], [ONES], [0], 20, 12))
    assert (w, h) == (20, 12) and rgb.shape == (240, 3) and (rgb == 77).all()


def test_error_paths():
    with pytest.raises(ValueError, match="missing SOI"):
        decode_jpeg(b"\x89PNG\r\n")
    good = synth_jpeg_payload(5)
    prog = bytearray(good)
    i = bytes(prog).find(b"\xff\xc0")
    prog[i + 1] = 0xC2  # SOF0 -> SOF2 (progressive)
    with pytest.raises(ValueError, match="unsupported JPEG coding process"):
        decode_jpeg(bytes(prog))
    with pytest.raises(ValueError, match="missing SOF/SOS"):
        decode_jpeg(good[:20])
    # truncation INSIDE the entropy segment
    with pytest.raises(ValueError, match="truncated|marker"):
        decode_jpeg(good[:-10] )


def test_dc_prediction_and_restart_reset():
    """Two ids that differ only in restart interval must decode the same
    pixels — predictor reset at RST is exercised by construction."""
    bw = bh = 2
    idx = np.arange(4)
    comps = []
    for mul_a, mul_b in ((5, 37), (17, 41), (23, 43)):
        vals = (9 * mul_a + idx * mul_b) % 256
        blk = np.zeros((bh, bw, 64), dtype=np.int64)
        blk[:, :, 0] = (8 * (vals - 128)).reshape(bh, bw)
        comps.append(blk)
    a = encode_baseline_jpeg(comps, [(1, 1)] * 3, [ONES, ONES], [0, 1, 1], 16, 16)
    b = encode_baseline_jpeg(
        comps, [(1, 1)] * 3, [ONES, ONES], [0, 1, 1], 16, 16, restart_interval=1
    )
    assert a != b
    _, _, rgb_a = decode_jpeg(a)
    _, _, rgb_b = decode_jpeg(b)
    assert np.array_equal(rgb_a, rgb_b)


class TestMjpegAvi:
    def test_round_trip_matches_closed_form(self):
        """Container walk + per-frame decode must reproduce the
        generator arithmetic bit-exactly (the m10 oracle's claim)."""
        import numpy as np

        from opzoo.stages.multimodal import (
            decode_mjpeg_avi,
            synth_mjpeg_avi_payload,
        )

        for d in (0, 1, 2, 3, 5, 12, 33):
            frames = decode_mjpeg_avi(synth_mjpeg_avi_payload(d))
            assert len(frames) == 1 + d % 4
            bw, bh = 1 + (d * 7) % 4, 1 + (d * 11) % 4
            w, h = frames[0][0], frames[0][1]
            assert (w, h) == (8 * bw, 8 * bh)
            for f, (fw, fh, _rgb, ycc) in enumerate(frames):
                vy = np.array(
                    [(d * 5 + f * 13 + i * 37) % 256 for i in range(bw * bh)],
                    np.int64,
                )
                assert int(ycc[:, 0].astype(np.int64).sum()) == int(vy.sum()) * 64

    def test_container_validation(self):
        import struct

        import pytest

        from opzoo.stages.multimodal import (
            decode_mjpeg_avi,
            synth_mjpeg_avi_payload,
        )

        good = synth_mjpeg_avi_payload(5)  # 2 frames
        with pytest.raises(ValueError, match="RIFF"):
            decode_mjpeg_avi(b"JUNK" + good[4:])
        with pytest.raises(ValueError, match="AVI"):
            decode_mjpeg_avi(good[:8] + b"WAVE" + good[12:])
        # drop the movi list's SECOND frame chunk but keep the avih
        # count -> loud frame-count mismatch, not a silent short read
        # (search inside movi only: idx1 also contains 00dc fourccs)
        movi_at = good.index(b"movi")
        idx1_at = good.index(b"idx1")
        first = good.index(b"00dc", movi_at, idx1_at)
        idx = good.index(b"00dc", first + 4, idx1_at)
        size = struct.unpack("<I", good[idx + 4 : idx + 8])[0]
        removed = 8 + size + (size & 1)
        clipped = bytearray(good)
        del clipped[idx : idx + removed]
        # fix the movi LIST and RIFF sizes so the walk stays in bounds
        li = movi_at - 8  # the movi LIST header precedes its form type
        lsz = struct.unpack("<I", bytes(clipped[li + 4 : li + 8]))[0]
        clipped[li + 4 : li + 8] = struct.pack("<I", lsz - removed)
        rsz = struct.unpack("<I", bytes(clipped[4:8]))[0]
        clipped[4:8] = struct.pack("<I", rsz - removed)
        with pytest.raises(ValueError, match="frame count mismatch"):
            decode_mjpeg_avi(bytes(clipped))
