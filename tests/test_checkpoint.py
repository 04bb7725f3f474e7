"""Checkpointed KG job: per-bucket manifests, lineage counters, resume."""

import glob
import hashlib
import json
import os
import shutil

import pyarrow.parquet as pq
import pytest


def _corpus_paths(c):
    return (
        os.path.join(c, "transcripts"),
        os.path.join(c, "entity_dictionary.parquet"),
    )


def test_kg_job_writes_partitions_and_manifest(ray_session, ref_corpus, tmp_path):
    from naer_ray.pipelines.kg import run_kg_job

    transcripts, dictionary = _corpus_paths(ref_corpus)
    out = str(tmp_path / "kg")
    counters = run_kg_job(transcripts, dictionary, out, n_buckets=4)
    assert counters["buckets_computed"] == 4
    manifest = json.load(open(os.path.join(out, "MANIFEST.json")))
    buckets = manifest["stages"]["triples"]["buckets"]
    assert len(buckets) == 4 and all(v["complete"] for v in buckets.values())
    total = sum(v["rows"] for v in buckets.values())
    edges = pq.read_table(os.path.join(out, "triples"))
    assert edges.num_rows == total > 0
    # lineage recorded per bucket
    assert all(v["lineage"]["extractor"] == "gazetteer" for v in buckets.values())
    nodes = pq.read_table(os.path.join(out, "nodes"))
    assert nodes.num_rows > 0
    kinds = set(nodes.column("kind").to_pylist())
    assert kinds == {"entity", "conversation"}


def _bucket_sha256(out):
    """sha256 of every triples bucket file, keyed by bucket directory."""
    return {
        os.path.basename(os.path.dirname(f)): hashlib.sha256(open(f, "rb").read()).hexdigest()
        for f in glob.glob(os.path.join(out, "triples", "bucket=*", "*.parquet"))
    }


def _forget_buckets(out, buckets):
    """Simulate a mid-job crash: drop buckets (and the nodes stage) from
    the manifest and from disk."""
    mpath = os.path.join(out, "MANIFEST.json")
    manifest = json.load(open(mpath))
    for b in buckets:
        del manifest["stages"]["triples"]["buckets"][str(b)]
        shutil.rmtree(os.path.join(out, "triples", f"bucket={b}"))
    manifest["stages"].pop("nodes", None)
    shutil.rmtree(os.path.join(out, "nodes"))
    with open(mpath, "w") as f:
        json.dump(manifest, f)


def test_kg_job_resume_skips_done_buckets(ray_session, ref_corpus, tmp_path):
    from naer_ray.pipelines.kg import run_kg_job

    transcripts, dictionary = _corpus_paths(ref_corpus)
    out = str(tmp_path / "kg")
    run_kg_job(transcripts, dictionary, out, n_buckets=4)
    before = _bucket_sha256(out)
    assert len(before) == 4

    _forget_buckets(out, (1, 3))
    counters = run_kg_job(transcripts, dictionary, out, n_buckets=4)
    assert counters["buckets_skipped"] == 2
    assert counters["buckets_computed"] == 2
    # the rewritten bucket files are byte-identical to the first run's
    assert _bucket_sha256(out) == before


def test_answers_job_resume_skips_done_buckets(ray_session, ref_corpus, tmp_path):
    from naer_ray.pipelines.kg import run_kg_job

    transcripts, _ = _corpus_paths(ref_corpus)
    answers = os.path.join(ref_corpus, "llm_answers.parquet")
    out = str(tmp_path / "kg")

    def job():
        return run_kg_job(
            transcripts, None, out, extractor="answers", answers_path=answers, n_buckets=4
        )

    job()
    before = _bucket_sha256(out)
    assert len(before) == 4

    _forget_buckets(out, (0, 2))
    counters = job()
    assert counters["buckets_skipped"] == 2
    assert counters["buckets_computed"] == 2
    assert _bucket_sha256(out) == before


@pytest.mark.parametrize("extractor", ["gazetteer", "answers"])
def test_kg_job_triples_stage_is_one_exchange(ray_session, ref_corpus, tmp_path, monkeypatch, extractor):
    """The triples stage groups once (by job bucket); with neither
    canonicalization nor evaluation the job's only other group-by is the
    nodes stage."""
    from ray.data.grouped_data import GroupedData

    from naer_ray.pipelines.kg import run_kg_job

    calls = []
    map_groups = GroupedData.map_groups

    def counting(self, fn, *args, **kwargs):
        calls.append(fn)
        return map_groups(self, fn, *args, **kwargs)

    monkeypatch.setattr(GroupedData, "map_groups", counting)
    transcripts, dictionary = _corpus_paths(ref_corpus)
    run_kg_job(
        transcripts,
        dictionary if extractor == "gazetteer" else None,
        str(tmp_path / "kg"),
        extractor=extractor,
        answers_path=os.path.join(ref_corpus, "llm_answers.parquet"),
        n_buckets=4,
    )
    assert len(calls) == 2, [getattr(f, "__qualname__", f) for f in calls]


def test_kg_job_canon_stage_is_one_exchange(ray_session, ref_corpus, tmp_path, monkeypatch):
    """Triples, nodes and canon group once each, and canon reads its
    names from the node table: only the nodes stage reads the triples."""
    import ray.data
    from ray.data.grouped_data import GroupedData

    from naer_ray.pipelines.kg import run_kg_job

    calls, reads = [], []
    map_groups = GroupedData.map_groups
    read_parquet = ray.data.read_parquet

    def counting(self, fn, *args, **kwargs):
        calls.append(fn)
        return map_groups(self, fn, *args, **kwargs)

    def recording(paths, *args, **kwargs):
        reads.append([paths] if isinstance(paths, str) else list(paths))
        return read_parquet(paths, *args, **kwargs)

    monkeypatch.setattr(GroupedData, "map_groups", counting)
    monkeypatch.setattr(ray.data, "read_parquet", recording)
    transcripts, dictionary = _corpus_paths(ref_corpus)
    out = str(tmp_path / "kg")
    run_kg_job(transcripts, dictionary, out, n_buckets=4, canonicalize=True)
    assert len(calls) == 3, [getattr(f, "__qualname__", f) for f in calls]
    triples_dir = os.path.join(out, "triples")
    assert sum(any(p.startswith(triples_dir) for p in r) for r in reads) == 1, reads
    assert pq.read_table(os.path.join(out, "canonical_labels")).num_rows > 0


def test_kg_job_canonicalize_without_entities(ray_session, tmp_path):
    """A job whose every answer is dead-lettered has an empty node table;
    canonicalization still completes, with empty labels and sameAs edges."""
    import datetime

    import pyarrow as pa

    from naer_ray import schema
    from naer_ray.pipelines.kg import run_kg_job

    transcripts = tmp_path / "transcripts"
    transcripts.mkdir()
    turns = [
        {"conv_id": c, "turn_idx": 0, "role": "user", "text": "Hello there.",
         "tool": None, "ts": datetime.datetime(2024, 1, 1)}
        for c in ("c1", "c2")
    ]
    pq.write_table(
        pa.Table.from_pylist(turns, schema=schema.TRANSCRIPTS),
        str(transcripts / "part-0.parquet"),
    )
    answers = str(tmp_path / "answers.parquet")
    pq.write_table(
        pa.table({"conv_id": ["c1", "c2"], "format": ["structured-text"] * 2,
                  "answer": ["GARBAGE entities recognized:"] * 2}),
        answers,
    )
    out = str(tmp_path / "kg")
    counters = run_kg_job(
        str(transcripts), None, out, extractor="answers", answers_path=answers,
        n_buckets=2, canonicalize=True,
    )
    assert counters["same_as_edges"] == 0
    manifest = json.load(open(os.path.join(out, "MANIFEST.json")))
    assert manifest["stages"]["canon"]["buckets"]["0"]["complete"]
    assert not glob.glob(os.path.join(out, "canonical_labels", "bucket=0", "*.parquet"))


def test_kg_job_without_mentions(ray_session, tmp_path):
    """A dictionary that matches no turn of the gazetteer_sparse input:
    every bucket is written empty and marked, the node table is empty,
    and a resume skips every bucket."""
    import pyarrow as pa

    from naer_ray import schema
    from naer_ray.pipelines.kg import run_kg_job
    from perfbench import gen

    spec = gen.generate("gazetteer_sparse", 1, str(tmp_path / "in"))
    transcripts = os.path.join(str(tmp_path / "in"), spec["transcripts"])
    dictionary = str(tmp_path / "dictionary.parquet")
    pq.write_table(
        pa.Table.from_pylist(
            [{"entity_id": "e0", "canonical_name": "Zzqxjwv", "type": "COMPONENT",
              "aliases": []}],
            schema=schema.ENTITY_DICTIONARY,
        ),
        dictionary,
    )
    out = str(tmp_path / "kg")
    counters = run_kg_job(transcripts, dictionary, out, n_buckets=4)
    assert counters["buckets_computed"] == 4
    assert counters["triples_rows"] == 0
    manifest = json.load(open(os.path.join(out, "MANIFEST.json")))
    buckets = manifest["stages"]["triples"]["buckets"]
    assert sorted(buckets) == ["0", "1", "2", "3"]
    assert all(v["complete"] and v["rows"] == 0 for v in buckets.values())
    assert len(_bucket_sha256(out)) == 4
    assert manifest["stages"]["nodes"]["buckets"]["0"] == {
        "complete": True, "rows": 0, "lineage": {"input": "triples/*"}
    }

    counters = run_kg_job(transcripts, dictionary, out, n_buckets=4)
    assert counters["buckets_skipped"] == 4 and counters["buckets_computed"] == 0


def test_kg_job_annotations_metrics(ray_session, ref_corpus, tmp_path):
    """The job's eval_vs_annotations metrics equal the evaluator run on
    the same triples outside the job."""
    from naer_ray.pipelines.evaluate import eval_vs_annotations
    from naer_ray.pipelines.kg import build_triples, run_kg_job

    transcripts, dictionary = _corpus_paths(ref_corpus)
    annotations = os.path.join(ref_corpus, "reference_annotations.parquet")
    out = str(tmp_path / "kg")
    run_kg_job(transcripts, dictionary, out, n_buckets=4, annotations_path=annotations)
    with open(os.path.join(out, "metrics.json")) as f:
        got = json.load(f)["eval_vs_annotations"]
    want = eval_vs_annotations(
        build_triples(transcripts, dictionary_path=dictionary), annotations
    )
    assert got == want


def test_answers_path_job_and_dead_letter(ray_session, ref_corpus, tmp_path):
    """Recorded-answer job end-to-end, incl. a poisoned answer dead-lettered."""
    import pyarrow as pa

    from naer_ray.pipelines.kg import run_kg_job

    transcripts, dictionary = _corpus_paths(ref_corpus)
    answers = pq.read_table(os.path.join(ref_corpus, "llm_answers.parquet"))
    poisoned = pa.table(
        {
            "conv_id": pa.array(
                answers.column("conv_id").to_pylist() + ["syn:000000"], pa.string()
            ),
            "format": pa.array(
                answers.column("format").to_pylist() + ["structured-text"], pa.string()
            ),
            "answer": pa.array(
                answers.column("answer").to_pylist() + ["GARBAGE entities recognized:"],
                pa.string(),
            ),
        }
    )
    apath = str(tmp_path / "answers.parquet")
    pq.write_table(poisoned, apath)
    out = str(tmp_path / "kg")
    run_kg_job(
        transcripts, None, out, extractor="answers", answers_path=apath, n_buckets=2
    )
    edges = pq.read_table(os.path.join(out, "triples"))
    preds = edges.column("pred").to_pylist()
    assert "__error__" in preds  # dead-lettered, job survived
    assert preds.count("occursIn") > 100
