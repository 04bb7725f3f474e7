"""ray-job-submit entrypoint (naer_ray.job) driven in-process."""

import json
import os


def test_job_main_with_canonicalize(ray_session, ref_corpus, tmp_path, capsys):
    from naer_ray.job import main

    out = str(tmp_path / "kg")
    rc = main(
        [
            "--transcripts", os.path.join(ref_corpus, "transcripts"),
            "--dictionary", os.path.join(ref_corpus, "entity_dictionary.parquet"),
            "--out", out,
            "--buckets", "4",
            "--canonicalize",
        ]
    )
    assert rc == 0
    counters = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert counters["buckets_computed"] == 4
    assert counters["triples_rows"] > 0
    assert os.path.isdir(os.path.join(out, "canonical_labels"))
    assert os.path.isdir(os.path.join(out, "canon"))

    # resume: everything skipped
    rc = main(
        [
            "--transcripts", os.path.join(ref_corpus, "transcripts"),
            "--dictionary", os.path.join(ref_corpus, "entity_dictionary.parquet"),
            "--out", out,
            "--buckets", "4",
            "--canonicalize",
        ]
    )
    assert rc == 0
    counters = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert counters["buckets_skipped"] == 4 and counters["buckets_computed"] == 0


def test_job_config_file_drives_run(ray_session, ref_corpus, tmp_path, capsys):
    """S6 config surface: a JSON file supplies the job kwargs; CLI overrides."""
    from naer_ray.job import main

    cfg = {
        "transcripts": os.path.join(ref_corpus, "transcripts"),
        "dictionary": os.path.join(ref_corpus, "entity_dictionary.parquet"),
        "out": str(tmp_path / "cfg_kg"),
        "buckets": 2,
    }
    cfg_path = str(tmp_path / "job.json")
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)
    rc = main(["--config", cfg_path])
    assert rc == 0
    counters = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert counters["buckets_computed"] == 2
    assert os.path.isdir(os.path.join(cfg["out"], "triples"))

    # CLI flag overrides the config value
    rc = main(["--config", cfg_path, "--out", str(tmp_path / "cfg_kg2"), "--buckets", "3"])
    assert rc == 0
    counters = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert counters["buckets_computed"] == 3


def test_runs_matrix_with_cli_out_gets_distinct_dirs(ray_session, ref_corpus, tmp_path, capsys):
    """ADVICE r2 (medium): CLI --out combined with a multi-run config must
    still give every matrix run its own out dir — merging CLI after the
    per-run suffix made all runs share run-0's manifest and triples."""
    from naer_ray.job import main

    cfg = {
        "transcripts": os.path.join(ref_corpus, "transcripts"),
        "dictionary": os.path.join(ref_corpus, "entity_dictionary.parquet"),
        "out": str(tmp_path / "ignored_base"),
        "buckets": 2,
        "runs": [{}, {"buckets": 3}],
    }
    cfg_path = str(tmp_path / "matrix.json")
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)
    cli_out = str(tmp_path / "cli_out")
    rc = main(["--config", cfg_path, "--out", cli_out])
    assert rc == 0
    results = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert isinstance(results, list) and len(results) == 2
    # each run computed its own buckets (nothing spuriously resumed) ...
    assert results[0]["buckets_computed"] == 2
    assert results[1]["buckets_computed"] == 3
    assert results[0]["buckets_skipped"] == results[1]["buckets_skipped"] == 0
    # ... into distinct dirs under the CLI out, not the config's base out
    assert os.path.isdir(os.path.join(cli_out, "run-0", "triples"))
    assert os.path.isdir(os.path.join(cli_out, "run-1", "triples"))
    assert not os.path.exists(str(tmp_path / "ignored_base"))


def test_explicit_cli_default_value_overrides_config(tmp_path):
    """ADVICE r2 (low): an explicit '--buckets 16' (the built-in default)
    must override a config file's different value."""
    from naer_ray.job import load_config

    cfg_path = str(tmp_path / "b.json")
    with open(cfg_path, "w") as f:
        json.dump({"transcripts": "x", "out": "y", "buckets": 4}, f)
    runs = load_config(cfg_path, {"buckets": 16})
    assert runs[0]["buckets"] == 16
    # and unset CLI flags leave the config value alone
    runs = load_config(cfg_path, {})
    assert runs[0]["buckets"] == 4


def test_resume_refuses_changed_lineage(ray_session, ref_corpus, tmp_path):
    """ADVICE r2: resume=True with a different extractor/input than the
    manifest recorded must raise, not silently re-emit old triples."""
    import pytest

    from naer_ray.pipelines.kg import run_kg_job

    out = str(tmp_path / "kg")
    t = os.path.join(ref_corpus, "transcripts")
    d = os.path.join(ref_corpus, "entity_dictionary.parquet")
    run_kg_job(t, d, out, n_buckets=2)
    with pytest.raises(ValueError, match="lineage"):
        run_kg_job(t, None, out, n_buckets=2)
    # resume=False replaces the lineage instead
    counters = run_kg_job(t, d, out, n_buckets=2, resume=False)
    assert counters["buckets_computed"] == 2


def test_resume_refuses_changed_bucket_count(ray_session, ref_corpus, tmp_path):
    """A resume at a different bucket count re-plans conversations into
    buckets already marked done (at 4 -> 8 buckets the ref tier wrote 958
    triples instead of 620): it must raise instead."""
    import pytest

    from naer_ray.pipelines.kg import run_kg_job

    out = str(tmp_path / "kg")
    t = os.path.join(ref_corpus, "transcripts")
    d = os.path.join(ref_corpus, "entity_dictionary.parquet")
    run_kg_job(t, d, out, n_buckets=4)
    with pytest.raises(ValueError, match="n_buckets"):
        run_kg_job(t, d, out, n_buckets=8)


def test_resume_refuses_changed_dictionary_content(ray_session, ref_corpus, tmp_path):
    """Same dictionary path, different content: the resume must raise."""
    import pyarrow.parquet as pq
    import pytest

    from naer_ray.pipelines.kg import run_kg_job

    out = str(tmp_path / "kg")
    t = os.path.join(ref_corpus, "transcripts")
    d = str(tmp_path / "dictionary.parquet")
    table = pq.read_table(os.path.join(ref_corpus, "entity_dictionary.parquet"))
    pq.write_table(table, d)
    run_kg_job(t, d, out, n_buckets=2)
    pq.write_table(table.slice(1), d)
    with pytest.raises(ValueError, match="dictionary_sha256"):
        run_kg_job(t, d, out, n_buckets=2)


def test_resume_refuses_changed_transcript_files(ray_session, ref_corpus, tmp_path):
    """Same transcripts path, one file rewritten: the resume must raise."""
    import shutil

    import pyarrow.parquet as pq
    import pytest

    from naer_ray.pipelines.kg import run_kg_job

    out = str(tmp_path / "kg")
    t = str(tmp_path / "transcripts")
    shutil.copytree(os.path.join(ref_corpus, "transcripts"), t)
    d = os.path.join(ref_corpus, "entity_dictionary.parquet")
    run_kg_job(t, d, out, n_buckets=2)
    part = os.path.join(t, sorted(os.listdir(t))[0])
    pq.write_table(pq.read_table(part).slice(1), part)
    with pytest.raises(ValueError, match="transcripts_files"):
        run_kg_job(t, d, out, n_buckets=2)


def test_resume_refuses_changed_code(ray_session, ref_corpus, tmp_path, monkeypatch):
    """A resume under the same library source skips its done buckets; one
    under changed source (a different code hash) must raise."""
    import pytest

    from naer_ray.pipelines.kg import run_kg_job
    from naer_ray.state import checkpoint

    out = str(tmp_path / "kg")
    t = os.path.join(ref_corpus, "transcripts")
    d = os.path.join(ref_corpus, "entity_dictionary.parquet")
    run_kg_job(t, d, out, n_buckets=2)
    assert run_kg_job(t, d, out, n_buckets=2)["buckets_skipped"] == 2
    monkeypatch.setattr(checkpoint, "code_sha256", lambda: "0" * 64)
    with pytest.raises(ValueError, match="code_sha256"):
        run_kg_job(t, d, out, n_buckets=2)


def test_code_sha256_hashes_only_python_source(tmp_path):
    """The code hash covers the package's .py files; bytecode under
    __pycache__ changes from run to run and must not change it."""
    import naer_ray
    from naer_ray.state.checkpoint import code_sha256, content_sha256

    pkg = os.path.dirname(naer_ray.__file__)
    assert code_sha256() == content_sha256(pkg, suffix=".py")

    (tmp_path / "a.py").write_text("x = 1\n")
    before = content_sha256(str(tmp_path), suffix=".py")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\0")
    assert content_sha256(str(tmp_path), suffix=".py") == before
    (tmp_path / "a.py").write_text("x = 2\n")
    assert content_sha256(str(tmp_path), suffix=".py") != before


def test_no_resume_clears_earlier_state(ray_session, ref_corpus, tmp_path):
    """resume=False at fewer buckets keeps nothing of the earlier run: no
    stale higher triples buckets, and nodes and canon are recomputed."""
    import glob

    import pyarrow.parquet as pq

    from naer_ray.pipelines.kg import run_kg_job

    t = os.path.join(ref_corpus, "transcripts")
    d = os.path.join(ref_corpus, "entity_dictionary.parquet")
    out = str(tmp_path / "kg")
    fresh = str(tmp_path / "fresh")
    run_kg_job(t, d, out, n_buckets=4, canonicalize=True)
    run_kg_job(t, d, out, n_buckets=2, canonicalize=True, resume=False)
    run_kg_job(t, d, fresh, n_buckets=2, canonicalize=True)

    manifest = json.load(open(os.path.join(out, "MANIFEST.json")))
    assert sorted(manifest["stages"]["triples"]["buckets"]) == ["0", "1"]
    assert len(glob.glob(os.path.join(out, "triples", "bucket=*"))) == 2

    def rows(root, stage):
        table = pq.read_table(os.path.join(root, stage))
        return sorted(map(tuple, table.to_pandas().astype(str).values.tolist()))

    for stage in ("triples", "nodes", "canon", "canonical_labels"):
        assert rows(out, stage) == rows(fresh, stage), stage


def test_orphan_tmpdir_sweep(ray_session, ref_corpus, tmp_path):
    """ADVICE r2: stale '.bucket-*' temp dirs from a dead driver are
    swept at job start instead of accumulating forever."""
    from naer_ray.pipelines.kg import run_kg_job

    out = str(tmp_path / "kg")
    t = os.path.join(ref_corpus, "transcripts")
    d = os.path.join(ref_corpus, "entity_dictionary.parquet")
    run_kg_job(t, d, out, n_buckets=2)
    stale = os.path.join(out, "triples", ".bucket-0-deadbeef")
    os.makedirs(stale)
    with open(os.path.join(stale, "part-0.parquet"), "w") as f:
        f.write("stale")
    run_kg_job(t, d, out, n_buckets=2)  # resume; sweep runs first
    assert not os.path.exists(stale)


def test_job_config_rejects_unknown_keys(tmp_path):
    import pytest

    from naer_ray.job import load_config

    cfg_path = str(tmp_path / "bad.json")
    with open(cfg_path, "w") as f:
        json.dump({"transcripts": "x", "banana": 1}, f)
    with pytest.raises(ValueError, match="banana"):
        load_config(cfg_path)


def test_job_jsonl_input_matches_parquet(ray_session, ref_corpus, tmp_path, capsys):
    """--input-format jsonl: the same corpus landed as JSONL yields the
    exact same triple set as the Parquet path."""
    import pandas as pd
    import pyarrow.dataset as pads

    from naer_ray.job import main

    # land the parquet transcripts as JSONL
    tdf = pads.dataset(os.path.join(ref_corpus, "transcripts")).to_table().to_pandas()
    jsonl = tmp_path / "transcripts.jsonl"
    tdf[["conv_id", "turn_idx", "text"]].to_json(
        jsonl, orient="records", lines=True
    )

    outs = {}
    for fmt, src in [
        ("parquet", os.path.join(ref_corpus, "transcripts")),
        ("jsonl", str(jsonl)),
    ]:
        out = str(tmp_path / f"kg_{fmt}")
        rc = main(
            [
                "--transcripts", src,
                "--input-format", fmt,
                "--dictionary", os.path.join(ref_corpus, "entity_dictionary.parquet"),
                "--out", out,
                "--buckets", "2",
            ]
        )
        assert rc == 0
        counters = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert counters["triples_rows"] > 0
        t = (
            pads.dataset(os.path.join(out, "triples"))
            .to_table()
            .to_pandas()
            .sort_values(["conv_id", "turn_idx", "subj", "pred", "obj"])
            .reset_index(drop=True)
        )
        outs[fmt] = t
    pd.testing.assert_frame_equal(
        outs["parquet"][["conv_id", "turn_idx", "subj", "pred", "obj"]],
        outs["jsonl"][["conv_id", "turn_idx", "subj", "pred", "obj"]],
    )
