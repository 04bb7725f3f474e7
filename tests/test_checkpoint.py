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


def _bucket_sha256(out, stage="triples"):
    """sha256 of every bucket file of a stage, keyed by bucket directory."""
    return {
        os.path.basename(os.path.dirname(f)): hashlib.sha256(open(f, "rb").read()).hexdigest()
        for f in glob.glob(os.path.join(out, stage, "bucket=*", "*.parquet"))
    }


def _outputs_sha256(out):
    """sha256 of every triples and nodes bucket file and of metrics.json."""
    got = {s: _bucket_sha256(out, s) for s in ("triples", "nodes")}
    metrics = os.path.join(out, "metrics.json")
    if os.path.exists(metrics):
        got["metrics"] = hashlib.sha256(open(metrics, "rb").read()).hexdigest()
    return got


def _forget_buckets(out, buckets, stages=("triples", "nodes")):
    """Simulate a mid-job crash: drop buckets of ``stages`` (by default the
    triples and the per-bucket nodes) from the manifest and from disk."""
    mpath = os.path.join(out, "MANIFEST.json")
    manifest = json.load(open(mpath))
    for stage in stages:
        for b in buckets:
            del manifest["stages"][stage]["buckets"][str(b)]
            shutil.rmtree(os.path.join(out, stage, f"bucket={b}"))
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


def _count_exchanges(monkeypatch):
    """Record every ``Dataset.sort`` and ``GroupedData.map_groups`` call of
    the driver: ``{"sort": [keys], "map_groups": [fn]}``."""
    import ray.data
    from ray.data.grouped_data import GroupedData

    calls = {"sort": [], "map_groups": []}
    sort, map_groups = ray.data.Dataset.sort, GroupedData.map_groups

    def counting_sort(self, key, *args, **kwargs):
        calls["sort"].append(key)
        return sort(self, key, *args, **kwargs)

    def counting_map_groups(self, fn, *args, **kwargs):
        calls["map_groups"].append(fn)
        return map_groups(self, fn, *args, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "sort", counting_sort)
    monkeypatch.setattr(GroupedData, "map_groups", counting_map_groups)
    return calls


@pytest.mark.parametrize("extractor", ["gazetteer", "answers"])
def test_kg_job_triples_stage_is_one_exchange(ray_session, ref_corpus, tmp_path, monkeypatch, extractor):
    """The triples stage sorts once (by job bucket) and groups never, and
    without canonicalization that is the job's only exchange: its writer
    also writes the node table."""
    from naer_ray.pipelines.kg import run_kg_job

    calls = _count_exchanges(monkeypatch)
    transcripts, dictionary = _corpus_paths(ref_corpus)
    run_kg_job(
        transcripts,
        dictionary if extractor == "gazetteer" else None,
        str(tmp_path / "kg"),
        extractor=extractor,
        answers_path=os.path.join(ref_corpus, "llm_answers.parquet"),
        n_buckets=4,
    )
    assert calls == {"sort": ["bucket"], "map_groups": []}, calls


def test_kg_job_canon_stage_is_one_exchange(ray_session, ref_corpus, tmp_path, monkeypatch):
    """A canonicalizing job sorts once, by job bucket, and groups never:
    canon runs in the driver on the node table's entity names, and
    nothing reads the written triples back."""
    import ray.data

    from naer_ray.pipelines.kg import run_kg_job

    calls = _count_exchanges(monkeypatch)
    reads = []
    read_parquet = ray.data.read_parquet

    def recording(paths, *args, **kwargs):
        reads.append([paths] if isinstance(paths, str) else list(paths))
        return read_parquet(paths, *args, **kwargs)

    monkeypatch.setattr(ray.data, "read_parquet", recording)
    transcripts, dictionary = _corpus_paths(ref_corpus)
    out = str(tmp_path / "kg")
    run_kg_job(transcripts, dictionary, out, n_buckets=4, canonicalize=True)
    assert calls == {"sort": ["bucket"], "map_groups": []}, calls
    triples_dir = os.path.join(out, "triples")
    assert not any(p.startswith(triples_dir) for r in reads for p in r), reads
    assert pq.read_table(os.path.join(out, "canonical_labels")).num_rows > 0


@pytest.mark.parametrize("extractor", ["gazetteer", "answers"])
def test_kg_job_one_kernel_call_per_exchange_block(
    ray_session, ref_corpus, tmp_path, monkeypatch, extractor
):
    """The job kernel runs once per block that leaves the exchange, not
    once per bucket, and every bucket still gets its own files."""
    import ray.data

    from naer_ray.pipelines import kg

    blocks, calls_dir = [], tmp_path / "calls"
    calls_dir.mkdir()
    sort, make_job_kernel = ray.data.Dataset.sort, kg.make_job_kernel

    def materialized_sort(self, *args, **kwargs):
        ds = sort(self, *args, **kwargs).materialize()
        blocks.extend(m.num_rows for b in ds.iter_internal_ref_bundles() for _, m in b.blocks)
        return ds

    def counting_job_kernel(kernel, gates):
        job_block, calls = make_job_kernel(kernel, gates), str(calls_dir)

        def counted(block):
            import uuid

            open(os.path.join(calls, uuid.uuid4().hex), "w").close()
            return job_block(block)

        return counted

    monkeypatch.setattr(ray.data.Dataset, "sort", materialized_sort)
    monkeypatch.setattr(kg, "make_job_kernel", counting_job_kernel)
    transcripts, dictionary = _corpus_paths(ref_corpus)
    out = str(tmp_path / "kg")
    kg.run_kg_job(
        transcripts,
        dictionary if extractor == "gazetteer" else None,
        out,
        extractor=extractor,
        answers_path=os.path.join(ref_corpus, "llm_answers.parquet"),
        n_buckets=8,
    )
    calls = len(os.listdir(calls_dir))
    assert 0 < calls == sum(1 for rows in blocks if rows) < 8, (calls, blocks)
    assert len(_bucket_sha256(out)) == 8


def test_kg_job_refuses_a_bucket_split_across_blocks(ray_session, ref_corpus, tmp_path, monkeypatch):
    """An exchange that hands one bucket to two blocks would write the
    bucket twice: the job raises on the second summary row of a bucket
    instead of keeping one of them."""
    import ray.data

    from naer_ray.pipelines.kg import run_kg_job

    def unsorted(self, *args, **kwargs):
        return self.repartition(3)

    monkeypatch.setattr(ray.data.Dataset, "sort", unsorted)
    transcripts, dictionary = _corpus_paths(ref_corpus)
    out = str(tmp_path / "kg")
    with pytest.raises(RuntimeError, match="two blocks"):
        run_kg_job(transcripts, dictionary, out, n_buckets=2)
    manifest = json.load(open(os.path.join(out, "MANIFEST.json")))
    assert not manifest["stages"].get("triples", {}).get("buckets")


def test_kg_job_keeps_dictionary_between_jobs(ray_session, ref_corpus, tmp_path, monkeypatch):
    """A later job of the session over the same dictionary file reads and
    puts no dictionary rows; an edited file is read again, under a new
    digest, and its triples follow the edit."""
    from naer_ray.pipelines import kg

    transcripts, dictionary = _corpus_paths(ref_corpus)
    path = str(tmp_path / "dictionary.parquet")
    shutil.copy(dictionary, path)
    loads = []
    load = kg.load_dictionary_rows

    def counting(p):
        loads.append(p)
        return load(p)

    monkeypatch.setattr(kg, "load_dictionary_rows", counting)

    def job(name):
        kg.run_kg_job(transcripts, path, str(tmp_path / name), n_buckets=2)
        (ref,) = kg._DICTIONARY_REF.values()
        subjects = set(pq.read_table(os.path.join(tmp_path, name, "triples"))["subj"].to_pylist())
        return ref.digest, subjects

    digest, subjects = job("first")
    del loads[:]
    assert job("second") == (digest, subjects)
    assert loads == []

    table = pq.read_table(path)
    gone = table["canonical_name"][0].as_py()
    assert gone in subjects
    pq.write_table(table.slice(1), path)
    new_digest, new_subjects = job("edited")
    assert loads == [path]
    assert new_digest != digest and gone not in new_subjects


def test_kg_job_resume_canonicalizes_without_execution(ray_session, tmp_path, monkeypatch):
    """A finished job resumed with ``canonicalize=True`` starts no Ray Data
    execution, and writes the canon outputs byte-identical to a clean
    canonicalizing run (on a gazetteer_dense input plus the entities
    "WebUI" and "Web UI", whose pools intersect, mentioned in one turn)."""
    import pyarrow as pa
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from naer_ray.pipelines.kg import run_kg_job
    from perfbench import gen

    in_dir = str(tmp_path / "in")
    spec = gen.generate("gazetteer_dense", 1, in_dir, scale=0.1)
    transcripts = os.path.join(in_dir, spec["transcripts"])
    dictionary = os.path.join(in_dir, spec["dictionary"])
    entries = pq.read_table(dictionary)
    extra = [
        {"entity_id": f"web-{i}", "canonical_name": name, "type": "COMPONENT",
         "aliases": [], "interface_of": None}
        for i, name in enumerate(["WebUI", "Web UI"])
    ]
    pq.write_table(pa.concat_tables([entries, pa.Table.from_pylist(extra, entries.schema)]),
                   dictionary)
    turn = pq.read_table(os.path.join(transcripts, "part-0000.parquet")).slice(0, 1)
    turn = turn.set_column(0, "conv_id", pa.array(["web:00000"]))
    turn = turn.set_column(3, "text", pa.array(["The WebUI calls the Web UI."]))
    pq.write_table(turn, os.path.join(transcripts, "part-9999.parquet"))
    clean, resumed = str(tmp_path / "clean"), str(tmp_path / "resumed")
    run_kg_job(transcripts, dictionary, clean, n_buckets=4, canonicalize=True)
    run_kg_job(transcripts, dictionary, resumed, n_buckets=4)

    calls = []
    execute = StreamingExecutor.execute

    def counting(self, *args, **kwargs):
        calls.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    counters = run_kg_job(transcripts, dictionary, resumed, n_buckets=4, canonicalize=True)
    assert counters["buckets_computed"] == 0 and calls == []
    same_as = pq.read_table(os.path.join(clean, "canon"), columns=["subj", "pred", "obj"])
    assert same_as.to_pylist() == [{"subj": "WebUI", "pred": "sameAs", "obj": "Web UI"}]
    for stage in ("canonical_labels", "canon"):
        want = _bucket_sha256(clean, stage)
        assert want and _bucket_sha256(resumed, stage) == want, stage


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
    # four empty conversation-node buckets and an empty entity-node file
    assert manifest["stages"]["nodes"]["buckets"] == {
        **{str(b): {"complete": True, "rows": 0, "lineage": {"input": "triples/bucket=b"}}
           for b in range(4)},
        "4": {"complete": True, "rows": 0, "lineage": {"input": "triples/*/hasType"}},
    }
    assert len(_bucket_sha256(out, "nodes")) == 5
    # no turn is invalid: every bucket is marked, none writes a file
    assert [v["rows"] for v in manifest["stages"]["quarantine"]["buckets"].values()] == [0] * 4
    assert _bucket_sha256(out, "quarantine") == {}

    counters = run_kg_job(transcripts, dictionary, out, n_buckets=4)
    assert counters["buckets_skipped"] == 4 and counters["buckets_computed"] == 0


def test_kg_job_annotations_metrics(ray_session, ref_corpus, tmp_path):
    """The job's eval_vs_annotations metrics, counted per bucket in its
    writer, equal the gate's count over the whole triples and gold tables
    in this process."""
    import pyarrow.compute as pc

    from naer_ray.pipelines.evaluate import GATES, _metrics, annotation_triples
    from naer_ray.pipelines.kg import run_kg_job

    transcripts, dictionary = _corpus_paths(ref_corpus)
    annotations = os.path.join(ref_corpus, "reference_annotations.parquet")
    out = str(tmp_path / "kg")
    run_kg_job(transcripts, dictionary, out, n_buckets=4, annotations_path=annotations)
    with open(os.path.join(out, "metrics.json")) as f:
        got = json.load(f)["eval_vs_annotations"]
    triples = pq.read_table(os.path.join(out, "triples")).drop_columns(["bucket"])
    triples = triples.filter(pc.not_equal(triples["pred"], "__error__"))
    gold = annotation_triples(pq.read_table(annotations))
    want = _metrics(*GATES["eval_vs_annotations"](triples, gold))
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


@pytest.mark.parametrize("job, executions", [("answers", 1), ("gazetteer", 1), ("canon", 1)])
def test_kg_job_executions(ray_session, ref_corpus, tmp_path, monkeypatch, job, executions):
    """One Ray Data execution writes the triples, the nodes, the quarantine
    and the evaluation counts: an answers job with expected triples, a
    gazetteer job and a canonicalizing one run exactly one.  A job reads
    its transcripts once and never reads the written triples back."""
    import pyarrow.parquet as pq_mod
    import ray.data
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from naer_ray.pipelines.kg import run_kg_job

    calls, reads = [], []
    execute, read_parquet, read_table = (
        StreamingExecutor.execute, ray.data.read_parquet, pq_mod.read_table
    )

    def counting(self, *args, **kwargs):
        calls.append(1)
        return execute(self, *args, **kwargs)

    def recording(paths, *args, **kwargs):
        reads.append([paths] if isinstance(paths, str) else list(paths))
        return read_parquet(paths, *args, **kwargs)

    def recording_table(path, *args, **kwargs):
        reads.append([str(path)])
        return read_table(path, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    monkeypatch.setattr(ray.data, "read_parquet", recording)
    monkeypatch.setattr(pq_mod, "read_table", recording_table)
    transcripts, dictionary = _corpus_paths(ref_corpus)
    out = str(tmp_path / "kg")
    if job == "answers":
        run_kg_job(
            transcripts, None, out, extractor="answers",
            answers_path=os.path.join(ref_corpus, "llm_answers.parquet"),
            expected_path=os.path.join(ref_corpus, "expected_triples.parquet"),
            n_buckets=4,
        )
        assert os.path.exists(os.path.join(out, "metrics.json"))
    else:
        run_kg_job(transcripts, dictionary, out, n_buckets=4, canonicalize=job == "canon")
    assert len(calls) == executions
    assert sum(transcripts in r for r in reads) == 1, reads
    triples_dir = os.path.join(out, "triples")
    assert not any(p.startswith(triples_dir) for r in reads for p in r), reads


def _answers_job(ref_corpus, out, expected=None, **kwargs):
    from naer_ray.pipelines.kg import run_kg_job

    transcripts, _ = _corpus_paths(ref_corpus)
    return run_kg_job(
        transcripts, None, out, extractor="answers",
        answers_path=os.path.join(ref_corpus, "llm_answers.parquet"),
        expected_path=expected or os.path.join(ref_corpus, "expected_triples.parquet"),
        n_buckets=4, **kwargs,
    )


def test_answers_job_resume_with_expected_is_exact(ray_session, ref_corpus, tmp_path):
    """A resume that recomputes 2 of 4 buckets takes the other two's
    evaluation counts from their marks and their entity pairs from their
    triples: metrics.json and every triples and nodes file are
    byte-identical to the clean run."""
    out = str(tmp_path / "kg")
    _answers_job(ref_corpus, out)
    clean = _outputs_sha256(out)
    assert len(clean["triples"]) == 4 and len(clean["nodes"]) == 5
    with open(os.path.join(out, "metrics.json")) as f:
        assert json.load(f)["parity_vs_expected"]["recall"] == 1.0

    _forget_buckets(out, (1, 3))
    os.remove(os.path.join(out, "metrics.json"))
    counters = _answers_job(ref_corpus, out)
    assert (counters["buckets_skipped"], counters["buckets_computed"]) == (2, 2)
    assert _outputs_sha256(out) == clean


def test_resume_recomputes_bucket_committed_only_in_nodes(ray_session, ref_corpus, tmp_path):
    """A crash after a bucket's nodes were renamed into place and marked,
    before its triples were: the triples mark is the commit point, so the
    bucket is recomputed, to the same bytes, and its orphan temp dir is
    swept."""
    out = str(tmp_path / "kg")
    _answers_job(ref_corpus, out)
    clean = _outputs_sha256(out)

    _forget_buckets(out, (2,), stages=("triples",))
    orphan = os.path.join(out, "triples", ".bucket-2-crashed")
    os.makedirs(orphan)
    counters = _answers_job(ref_corpus, out)
    assert (counters["buckets_skipped"], counters["buckets_computed"]) == (3, 1)
    assert _outputs_sha256(out) == clean
    assert not os.path.exists(orphan)


def test_resume_refuses_changed_expected_file(ray_session, ref_corpus, tmp_path):
    """Done buckets keep their evaluation counts across a resume, so a
    changed expected-triples file must raise."""
    expected = str(tmp_path / "expected.parquet")
    table = pq.read_table(os.path.join(ref_corpus, "expected_triples.parquet"))
    pq.write_table(table, expected)
    out = str(tmp_path / "kg")
    _answers_job(ref_corpus, out, expected)
    pq.write_table(table.slice(1), expected)
    with pytest.raises(ValueError, match="expected_files"):
        _answers_job(ref_corpus, out, expected)


def _node_oracle(out):
    """The node table derived in plain Python from the job's own triples:
    a conversation node per distinct mentionedIn object and an entity node
    per distinct hasType subject, with its smallest type."""
    triples = pq.read_table(os.path.join(out, "triples")).to_pylist()
    types = {}
    for t in triples:
        if t["pred"] == "hasType":
            types[t["subj"]] = min(types.get(t["subj"], t["obj"]), t["obj"])
    convs = {t["obj"] for t in triples if t["pred"] == "mentionedIn"}
    return sorted(
        [(f"entity:{n}", "entity", n, ty) for n, ty in types.items()]
        + [(f"conv:{c}", "conversation", c, "") for c in convs]
    )


def _node_rows(out):
    t = pq.read_table(os.path.join(out, "nodes"), columns=["node_id", "kind", "name", "type"])
    return sorted(zip(*(t[c].to_pylist() for c in t.column_names)))


@pytest.mark.parametrize("extractor", ["gazetteer", "answers"])
def test_node_table_matches_triples_oracle(ray_session, ref_corpus, tmp_path, extractor):
    """The node table equals its plain-Python derivation from the job's
    triples on the ref corpus."""
    from naer_ray.pipelines.kg import run_kg_job

    transcripts, dictionary = _corpus_paths(ref_corpus)
    out = str(tmp_path / "kg")
    run_kg_job(
        transcripts,
        dictionary if extractor == "gazetteer" else None,
        out,
        extractor=extractor,
        answers_path=os.path.join(ref_corpus, "llm_answers.parquet"),
        n_buckets=4,
    )
    want = _node_oracle(out)
    assert any(k == "entity" for _, k, _, _ in want)
    assert any(k == "conversation" for _, k, _, _ in want)
    assert _node_rows(out) == want


def test_node_table_keeps_smallest_type(ray_session, ref_corpus, tmp_path):
    """A dictionary that gives one name two types: every run's node table
    has one node for the name, with the smallest type."""
    import pyarrow as pa

    from naer_ray.pipelines.kg import run_kg_job

    transcripts, dictionary = _corpus_paths(ref_corpus)
    table = pq.read_table(dictionary)
    first = table.slice(0, 1).to_pylist()[0]
    twin = {**first, "entity_id": first["entity_id"] + "-twin", "type": "CLASS",
            "aliases": [], "interface_of": None}
    both = str(tmp_path / "dictionary.parquet")
    pq.write_table(pa.concat_tables([table, pa.Table.from_pylist([twin], schema=table.schema)]), both)
    name = first["canonical_name"]
    for run in range(2):
        out = str(tmp_path / f"kg{run}")
        run_kg_job(transcripts, both, out, n_buckets=4)
        types = {
            t["obj"] for t in pq.read_table(os.path.join(out, "triples")).to_pylist()
            if t["pred"] == "hasType" and t["subj"] == name
        }
        assert types == {"CLASS", first["type"]}
        rows = _node_rows(out)
        assert [r for r in rows if r[0] == f"entity:{name}"] == [
            (f"entity:{name}", "entity", name, min(types))
        ]
        assert rows == _node_oracle(out)


def test_kg_job_counters_reconcile(ray_session, ref_corpus, tmp_path):
    """The manifest's counts add up: the per-bucket conversation-node marks
    plus the entity-file mark are the node table's rows, and the
    per-bucket evaluation counts sum to metrics.json."""
    out = str(tmp_path / "kg")
    _answers_job(
        ref_corpus, out,
        annotations_path=os.path.join(ref_corpus, "reference_annotations.parquet"),
    )
    manifest = json.load(open(os.path.join(out, "MANIFEST.json")))["stages"]
    nodes = manifest["nodes"]["buckets"]
    conv_rows = sum(nodes[str(b)]["rows"] for b in range(4))
    assert sorted(nodes, key=int) == ["0", "1", "2", "3", "4"]
    assert conv_rows + nodes["4"]["rows"] == pq.read_table(os.path.join(out, "nodes")).num_rows
    assert conv_rows == pq.read_table(
        os.path.join(out, "nodes"), filters=[("kind", "=", "conversation")]
    ).num_rows

    with open(os.path.join(out, "metrics.json")) as f:
        metrics = json.load(f)
    assert sorted(metrics) == ["eval_vs_annotations", "parity_vs_expected"]
    marks = manifest["triples"]["buckets"].values()
    for gate, got in metrics.items():
        for k in ("tp", "fp", "fn"):
            assert sum(m["counts"][gate][k] for m in marks) == got[k]
            assert manifest["eval"]["counters"][f"{gate}.{k}"] == got[k]
    assert metrics["parity_vs_expected"]["tp"] > 0


def _corpus_with_invalid_turns(ref_corpus, out, every):
    """The ref corpus transcripts with the sentence terminator cut off
    every ``every``-th turn, so that turn fails the format rule; returns
    the transcripts dir and the number of turns cut."""
    import pyarrow as pa

    t = pq.read_table(os.path.join(ref_corpus, "transcripts"))
    texts = [
        x.rstrip().rstrip(".!?") if i % every == 0 else x
        for i, x in enumerate(t["text"].to_pylist())
    ]
    t = t.set_column(t.schema.get_field_index("text"), "text", pa.array(texts, pa.string()))
    os.makedirs(out)
    pq.write_table(t, os.path.join(out, "part-0.parquet"))
    return out, len(range(0, t.num_rows, every))


def _quarantine_marks(out):
    return json.load(open(os.path.join(out, "MANIFEST.json")))["stages"]["quarantine"]


def test_kg_job_resume_rewrites_quarantine(ray_session, ref_corpus, tmp_path):
    """A gazetteer job over turns of which some are invalid, resumed after
    forgetting 2 of its 4 buckets: the quarantine, triples and nodes files
    and the manifest's quarantine marks are byte-identical to a clean run."""
    from naer_ray.pipelines.kg import run_kg_job

    transcripts, cut = _corpus_with_invalid_turns(ref_corpus, str(tmp_path / "in"), 4)
    _, dictionary = _corpus_paths(ref_corpus)
    out = str(tmp_path / "kg")
    stages = ("quarantine", "triples", "nodes")
    counters = run_kg_job(transcripts, dictionary, out, n_buckets=4)
    clean = {s: _bucket_sha256(out, s) for s in stages}
    marks = _quarantine_marks(out)
    assert len(clean["quarantine"]) == 4
    assert sum(m["rows"] for m in marks["buckets"].values()) == cut == counters["quarantined_rows"]
    assert pq.read_table(os.path.join(out, "quarantine")).num_rows == cut

    _forget_buckets(out, (1, 3), stages=stages)
    counters = run_kg_job(transcripts, dictionary, out, n_buckets=4)
    assert (counters["buckets_skipped"], counters["buckets_computed"]) == (2, 2)
    assert {s: _bucket_sha256(out, s) for s in stages} == clean
    assert _quarantine_marks(out) == marks


@pytest.mark.parametrize("extractor", ["gazetteer", "llm"])
def test_kg_job_every_turn_quarantined(ray_session, ref_corpus, tmp_path, extractor):
    """A corpus of invalid turns only: the job finishes, every triples and
    nodes bucket is typed-empty, the quarantine marks add up to the turns,
    and the llm job never builds its chat backend."""
    from naer_ray import schema
    from naer_ray.pipelines.kg import run_kg_job

    transcripts, turns = _corpus_with_invalid_turns(ref_corpus, str(tmp_path / "in"), 1)
    _, dictionary = _corpus_paths(ref_corpus)

    def chat_fn_factory():
        raise AssertionError("the chat backend was built for a quarantined turn")

    out = str(tmp_path / "kg")
    counters = run_kg_job(
        transcripts, dictionary if extractor == "gazetteer" else None, out,
        extractor=extractor, chat_fn_factory=chat_fn_factory, n_buckets=4,
    )
    assert counters["triples_rows"] == 0
    assert sum(m["rows"] for m in _quarantine_marks(out)["buckets"].values()) == turns
    assert pq.read_table(os.path.join(out, "quarantine")).num_rows == turns
    for stage, want, files in (("triples", schema.TRIPLES, 4), ("nodes", schema.NODES, 5)):
        paths = glob.glob(os.path.join(out, stage, "bucket=*", "*.parquet"))
        assert len(paths) == files
        for path in paths:
            t = pq.read_table(path)
            assert t.num_rows == 0 and t.schema.equals(want), (path, t.schema)


def test_kg_job_manifest_saves_do_not_grow_with_buckets(ray_session, ref_corpus, tmp_path, monkeypatch):
    """The manifest is written once per stage, not once per bucket: a
    gazetteer job writes it as often at 16 buckets as at 4."""
    from naer_ray.pipelines.kg import run_kg_job
    from naer_ray.state.checkpoint import Manifest

    calls = []
    flush = Manifest._flush

    def counting(self):
        calls.append(1)
        return flush(self)

    monkeypatch.setattr(Manifest, "_flush", counting)
    transcripts, dictionary = _corpus_paths(ref_corpus)
    flushes = []
    for n in (4, 16):
        calls.clear()
        run_kg_job(transcripts, dictionary, str(tmp_path / f"kg{n}"), n_buckets=n)
        flushes.append(len(calls))
    assert flushes[0] == flushes[1], flushes
