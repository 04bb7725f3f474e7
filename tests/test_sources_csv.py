"""CSV sources (reference S5) against the actual reference files."""

import glob
import os

import pytest

BASE = "/root/reference/src/test/resources/evaluation_resources"


def _require_reference() -> None:
    if not os.path.isdir(BASE):
        pytest.skip("reference tree not present")


def test_read_gazetteer_csv():
    _require_reference()
    from naer_ray.sources.gazetteer import GazetteerMatcher, read_gazetteer_csv

    path = glob.glob(f"{BASE}/teastore/model_*/uml/modelElementID_to_ComponentName.csv")[0]
    rows = read_gazetteer_csv(path)
    names = [r["canonical_name"] for r in rows]
    assert "WebUI" in names and "Image Provider" in names
    assert names == sorted(names)
    # builds a working matcher
    m = GazetteerMatcher(rows)
    hits = m.match_text("The WebUI service talks to the Image Provider.")
    hit_names = {rows_by_id["canonical_name"] for _pos, eid in hits
                 for rows_by_id in [m.by_id[eid]]}
    assert {"WebUI", "Image Provider"} <= hit_names


def test_transcripts_from_text_files(ray_session):
    """Raw-text ingestion (S1): reference SAD file -> transcript rows with
    per-turn text equality and 1-based line numbering."""
    _require_reference()
    import glob

    from naer_ray.sources.transcripts import transcripts_from_text_files
    from naer_ray.testdata import load_reference_projects

    path = glob.glob(f"{BASE}/teastore/text_*/*_1SentPerLine.txt")[0]
    ds = transcripts_from_text_files([path])
    df = ds.to_pandas().sort_values("turn_idx").reset_index(drop=True)
    ref = next(p for p in load_reference_projects() if p["name"] == "teastore")
    assert df["text"].tolist() == ref["lines"]
    assert df["turn_idx"].tolist() == list(range(1, len(ref["lines"]) + 1))


def test_auto_num_blocks_scales_with_input(tmp_path):
    """Block sizing: 1 block for a tiny dimension file; a medium file
    gets >1 blocks but never less than 256KB of work per task."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from naer_ray.sources.transcripts import auto_num_blocks

    tiny = str(tmp_path / "tiny.parquet")
    pq.write_table(pa.table({"x": list(range(10))}), tiny)
    assert auto_num_blocks(tiny) == 1  # < 256KB -> one task

    # ~3MB of incompressible payload
    rng = np.random.RandomState(0)
    big = str(tmp_path / "big.parquet")
    pq.write_table(
        pa.table({"x": [rng.bytes(100_000) for _ in range(30)]}), big
    )
    size = os.path.getsize(big)
    n = auto_num_blocks(big)
    assert 1 < n <= max(1, size // (256 * 1024))


class TestJsonlTranscripts:
    def test_jsonl_matches_parquet_reader_schema(self, ray_session, tmp_path):
        import json

        from naer_ray.sources.transcripts import (
            read_transcripts,
            read_transcripts_jsonl,
        )

        rows = [
            {"conv_id": "c1", "turn_idx": 0, "text": "The API calls the DB.",
             "role": "user", "tool": "", "ts": "2026-01-02T03:04:05"},
            {"conv_id": "c1", "turn_idx": 1, "text": "It uses a cache!",
             "role": "agent", "tool": "search", "ts": "2026-01-02T03:04:06"},
            {"conv_id": "c2", "turn_idx": 0, "text": "Hello?",
             "role": "user", "tool": "", "ts": "2026-01-02T03:05:00"},
        ]
        p = tmp_path / "t.jsonl"
        p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        ds = read_transcripts_jsonl(str(p))
        tbl = sorted(ds.take_all(), key=lambda r: (r["conv_id"], r["turn_idx"]))
        assert [r["conv_id"] for r in tbl] == ["c1", "c1", "c2"]
        sch = ds.schema()
        # exactly the Parquet reader's core schema
        assert sch.names == ["conv_id", "turn_idx", "text"]
        assert str(sch.types[1]) == "int32"

    def test_jsonl_full_columns_and_missing_tool(self, ray_session, tmp_path):
        import json

        from naer_ray.sources.transcripts import read_transcripts_jsonl

        rows = [
            {"conv_id": "c1", "turn_idx": 0, "text": "Hi.",
             "role": "user", "ts": "2026-01-02T03:04:05"},
        ]
        p = tmp_path / "t.jsonl"
        p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        ds = read_transcripts_jsonl(
            str(p), columns=["conv_id", "turn_idx", "role", "text", "tool", "ts"]
        )
        row = ds.take_all()[0]
        assert row["tool"] is None  # missing column -> typed null
        assert str(row["ts"]).startswith("2026-01-02 03:04:05")
