"""extractor='llm' end-to-end: chat-model-driven recognition as a Ray
stage (ST1-ST4 wired into build_triples; reference main flow
NamedEntityRecognizer.java:57-81 distributed by conv bucket)."""

import os

import pyarrow as pa
import pytest


def _make_echo_factory():
    """Deterministic fake backend: 'recognizes' the literal token
    Frontend whenever it appears in the prompt's text block.  Built as
    a closure so cloudpickle ships it by VALUE — Ray workers cannot
    import pytest test modules."""

    def chat(system, prompt):
        text = prompt.split("\nText:\n", 1)[1] if "\nText:\n" in prompt else ""
        lines = [l for l in text.splitlines() if "Frontend" in l]
        if not lines:
            return (
                "COMPONENT entities recognized:\nNone\n"
                "Alternative names:\nNone\n"
            )
        quoted = f"Frontend, '{lines[0]}'"
        return (
            "COMPONENT entities recognized:\n"
            f"{quoted}\n"
            "Alternative names:\n"
            "Frontend: None\n"
        )

    def factory():
        return chat

    return factory


@pytest.fixture()
def llm_corpus(tmp_path):
    import pyarrow.parquet as pq

    rows = []
    for c in range(6):
        conv = f"conv-{c}"
        rows += [
            {"conv_id": conv, "turn_idx": 0, "role": "user",
             "text": "The Frontend talks to the store."},
            {"conv_id": conv, "turn_idx": 1, "role": "agent",
             "text": "Understood."},
        ]
    t = pa.Table.from_pylist(rows)
    path = str(tmp_path / "transcripts")
    os.makedirs(path)
    pq.write_table(t, os.path.join(path, "part-0.parquet"))
    return path


def test_llm_extractor_pipeline(ray_session, llm_corpus):
    from naer_ray.pipelines.kg import build_triples

    triples = build_triples(
        llm_corpus,
        extractor="llm",
        chat_fn_factory=_make_echo_factory(),
        prompt_text="Find entities.",
        n_buckets=4,
    )
    out = triples.to_arrow_refs()
    import ray

    t = pa.concat_tables([ray.get(r) for r in out])
    df = t.to_pandas()
    # every conversation recognized Frontend: hasType + occursIn turn 0
    occurs = df[df["pred"] == "occursIn"]
    assert set(occurs["conv_id"]) == {f"conv-{c}" for c in range(6)}
    assert (occurs["subj"] == "Frontend").all()
    assert (occurs["turn_idx"] == 1).all()  # 1-based turn numbering
    has_type = df[df["pred"] == "hasType"]
    assert len(has_type) == 6 and (has_type["obj"] == "COMPONENT").all()


def test_llm_extractor_requires_factory(ray_session, llm_corpus):
    from naer_ray.pipelines.kg import build_triples

    with pytest.raises(ValueError, match="chat_fn_factory"):
        build_triples(llm_corpus, extractor="llm")


def test_llm_job_checkpointed(ray_session, llm_corpus, tmp_path):
    """run_kg_job with extractor='llm': bucketed atomic writes + resume."""
    from naer_ray.pipelines.kg import run_kg_job

    out = str(tmp_path / "job_out")
    counters = run_kg_job(
        llm_corpus, None, out,
        extractor="llm",
        chat_fn_factory=_make_echo_factory(),
        n_buckets=4,
    )
    assert counters["buckets_computed"] == 4
    assert counters["triples_rows"] > 0
    # resume: everything skipped
    counters2 = run_kg_job(
        llm_corpus, None, out,
        extractor="llm",
        chat_fn_factory=_make_echo_factory(),
        n_buckets=4,
    )
    assert counters2["buckets_skipped"] == 4
    assert counters2["buckets_computed"] == 0


def test_llm_job_resume_refuses_changed_prompt(ray_session, llm_corpus, tmp_path):
    """The prompt changes the llm extractor's triples, so a resume under a
    different prompt must raise; the same prompt still skips its buckets."""
    from naer_ray.pipelines.kg import run_kg_job

    out = str(tmp_path / "job_out")

    def job(prompt_text):
        return run_kg_job(
            llm_corpus, None, out,
            extractor="llm",
            chat_fn_factory=_make_echo_factory(),
            prompt_text=prompt_text,
            n_buckets=2,
        )

    job("Identify all COMPONENT entities in the text.")
    assert job("Identify all COMPONENT entities in the text.")["buckets_skipped"] == 2
    with pytest.raises(ValueError, match="prompt_text"):
        job("Identify all INTERFACE entities in the text.")


def test_llm_partial_resume_skips_done_bucket_chat_calls(ray_session, tmp_path):
    """Resume must not re-pay chat calls for completed buckets: the done
    buckets are filtered out of the transcripts BEFORE extraction."""
    import glob
    import json

    from naer_ray.pipelines.kg import run_kg_job

    out = str(tmp_path / "job_out")
    marker_dir = str(tmp_path / "chat_markers")
    os.makedirs(marker_dir)

    # per-conv DISTINCT text so each conversation leaves its own marker
    import pyarrow.parquet as pq

    rows = []
    for c in range(8):
        rows.append(
            {"conv_id": f"conv-{c}", "turn_idx": 0, "role": "user",
             "text": f"The Frontend talks to store number {c}."}
        )
    llm_corpus = str(tmp_path / "transcripts")
    os.makedirs(llm_corpus)
    pq.write_table(pa.Table.from_pylist(rows), os.path.join(llm_corpus, "p.parquet"))

    def make_marking_factory(marker_dir=marker_dir):
        def chat(system, prompt):
            text = prompt.split("\nText:\n", 1)[1] if "\nText:\n" in prompt else ""
            lines = [l for l in text.splitlines() if "Frontend" in l]
            import hashlib

            h = hashlib.sha1(text.encode()).hexdigest()[:16]
            open(os.path.join(marker_dir, h), "w").close()
            if not lines:
                return "COMPONENT entities recognized:\nNone\nAlternative names:\nNone\n"
            return (
                "COMPONENT entities recognized:\n"
                f"Frontend, '{lines[0]}'\n"
                "Alternative names:\nFrontend: None\n"
            )

        return lambda: chat

    run_kg_job(
        llm_corpus, None, out,
        extractor="llm", chat_fn_factory=make_marking_factory(), n_buckets=4,
    )
    full_calls = len(glob.glob(os.path.join(marker_dir, "*")))
    assert full_calls > 0

    # forge a partial state: forget one bucket
    m = json.load(open(os.path.join(out, "MANIFEST.json")))
    buckets = m["stages"]["triples"]["buckets"]
    victim = sorted(buckets)[0]
    del buckets[victim]
    json.dump(m, open(os.path.join(out, "MANIFEST.json"), "w"))
    import shutil

    shutil.rmtree(os.path.join(out, "triples", f"bucket={victim}"))

    for f in glob.glob(os.path.join(marker_dir, "*")):
        os.remove(f)
    counters = run_kg_job(
        llm_corpus, None, out,
        extractor="llm", chat_fn_factory=make_marking_factory(), n_buckets=4,
    )
    assert counters["buckets_skipped"] == 3
    resumed_calls = len(glob.glob(os.path.join(marker_dir, "*")))
    # only the victim bucket's conversations go through chat again
    assert 0 < resumed_calls < full_calls


def test_llm_extractor_dead_letters_bad_conversations(ray_session, llm_corpus):
    from naer_ray.pipelines.kg import build_triples

    def bad_factory():
        return lambda system, prompt: "NOT PARSEABLE AT ALL"

    triples = build_triples(
        llm_corpus,
        extractor="llm",
        chat_fn_factory=bad_factory,
        n_buckets=4,
    )
    import ray

    t = pa.concat_tables([ray.get(r) for r in triples.to_arrow_refs()])
    df = t.to_pandas()
    assert (df["pred"] == "__error__").all()
    assert len(df) == 6  # one dead-letter row per conversation


def test_llm_job_survives_worker_death(ray_session, llm_corpus, tmp_path):
    """A worker killed mid-bucket (its chat backend's factory exits the
    process on the job's first call, leaving a temp dir as an attempt
    that had written a bucket would) is retried by Ray: every triples
    and nodes bucket file is byte-identical to a clean run, and the job
    leaves no temp dir in any stage directory."""
    import glob
    import hashlib

    from naer_ray.pipelines.kg import run_kg_job

    clean, faulted = str(tmp_path / "clean"), str(tmp_path / "faulted")

    def dying_factory(marker=str(tmp_path / "died"), inner=_make_echo_factory(),
                      partial=os.path.join(faulted, "triples", ".bucket-0-killed")):
        def factory():
            if not os.path.exists(marker):
                open(marker, "w").close()
                os.makedirs(partial)
                open(os.path.join(partial, "part-0.parquet"), "w").close()
                os._exit(1)
            return inner()

        return factory

    def files(out):
        return {
            os.path.relpath(f, out): hashlib.sha256(open(f, "rb").read()).hexdigest()
            for stage in ("triples", "nodes")
            for f in glob.glob(os.path.join(out, stage, "bucket=*", "*.parquet"))
        }

    run_kg_job(llm_corpus, None, clean, extractor="llm",
               chat_fn_factory=_make_echo_factory(), n_buckets=4)
    counters = run_kg_job(llm_corpus, None, faulted, extractor="llm",
                          chat_fn_factory=dying_factory(), n_buckets=4)
    assert os.path.exists(str(tmp_path / "died"))
    assert counters["buckets_computed"] == 4 and counters["triples_rows"] > 0
    assert files(faulted) == files(clean) and len(files(clean)) == 9
    assert not glob.glob(os.path.join(faulted, "*", ".bucket-*"))


def test_llm_job_quarantines_invalid_turn(ray_session, llm_corpus, tmp_path):
    """A turn that fails the format rule never reaches the chat backend:
    it lands in the job's quarantine, and the other turns are extracted."""
    import glob

    import pyarrow.parquet as pq

    from naer_ray.pipelines.kg import run_kg_job

    invalid = "The Frontend forgot its terminator"
    corpus = pq.read_table(llm_corpus)
    extra = pa.Table.from_pylist(
        [{"conv_id": "conv-0", "turn_idx": 2, "role": "user", "text": invalid}],
        schema=corpus.schema,
    )
    transcripts = str(tmp_path / "with_invalid")
    os.makedirs(transcripts)
    pq.write_table(pa.concat_tables([corpus, extra]), os.path.join(transcripts, "part-0.parquet"))
    prompts = str(tmp_path / "prompts")
    os.makedirs(prompts)

    def recording_factory(prompts=prompts, inner=_make_echo_factory()):
        def factory():
            chat = inner()

            def record(system, prompt):
                with open(os.path.join(prompts, str(os.getpid())), "a") as f:
                    f.write(prompt)
                return chat(system, prompt)

            return record

        return factory

    out = str(tmp_path / "kg")
    counters = run_kg_job(transcripts, None, out, extractor="llm",
                          chat_fn_factory=recording_factory(), n_buckets=4)
    sent = "".join(open(f).read() for f in glob.glob(os.path.join(prompts, "*")))
    assert "The Frontend talks to the store." in sent
    assert invalid not in sent
    assert counters["quarantined_rows"] == 1 and counters["triples_rows"] > 0
    quarantine = pq.read_table(
        os.path.join(out, "quarantine"), columns=["conv_id", "turn_idx", "text"]
    )
    assert quarantine.to_pylist() == [
        {"conv_id": "conv-0", "turn_idx": 2, "text": invalid}
    ]
