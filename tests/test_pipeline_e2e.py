"""End-to-end pipeline gates (north rule):

1. PARITY: the distributed pipeline over recorded answers reproduces
   the sequential reference-semantics oracle's triples at P = R = 1.0,
   over the oracle's own set of conversations.
2. SYNTHETIC: the gazetteer extractor recovers the generator's recorded
   mention placements (incl. anaphora) at P/R = 1.0.
3. Determinism: two runs at different parallelism emit identical triples.
"""

import os

import pyarrow.compute as pc
import pytest


@pytest.fixture(scope="module")
def ref_paths(ray_session, ref_corpus):
    c = ref_corpus
    return {
        "transcripts": os.path.join(c, "transcripts"),
        "dictionary": os.path.join(c, "entity_dictionary.parquet"),
        "answers": os.path.join(c, "llm_answers.parquet"),
        "expected": os.path.join(c, "expected_triples.parquet"),
        "annotations": os.path.join(c, "reference_annotations.parquet"),
    }


def _job(ref_paths, out, dictionary=None, **options):
    """Run the checkpointed job into ``out``: (counters, its triples)."""
    import pyarrow.parquet as pq

    from naer_ray.pipelines.kg import run_kg_job

    counters = run_kg_job(ref_paths["transcripts"], dictionary, out, **options)
    return counters, pq.read_table(os.path.join(out, "triples"))


def test_parity_gate(ref_paths, tmp_path):
    """Exact parity, over exactly the conversations the oracle covers."""
    import pyarrow.parquet as pq

    counters, triples = _job(
        ref_paths,
        str(tmp_path / "kg"),
        extractor="answers",
        answers_path=ref_paths["answers"],
        expected_path=ref_paths["expected"],
    )
    assert not pc.any(pc.equal(triples["pred"], "__error__")).as_py()
    covered = set(triples["conv_id"].to_pylist())
    expected = set(pq.read_table(ref_paths["expected"], columns=["conv_id"])["conv_id"].to_pylist())
    assert covered, f"the parity gate covered {len(covered)} conversations"
    assert covered == expected, (
        f"covered {len(covered)} conversations, expected {len(expected)}: "
        f"missing {sorted(expected - covered)}, extra {sorted(covered - expected)}"
    )
    m = counters["metrics"]["parity_vs_expected"]
    assert m["precision"] == 1.0, (len(covered), m)
    assert m["recall"] == 1.0, (len(covered), m)


def test_synthetic_gazetteer_exact(ref_paths):
    """Gazetteer extractor reproduces recorded placements on synthetic convs."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from naer_ray.pipelines import evaluate as ev
    from naer_ray.pipelines.kg import build_triples

    triples = pa.concat_tables(
        ray.get(
            build_triples(
                ref_paths["transcripts"], dictionary_path=ref_paths["dictionary"]
            ).to_arrow_refs()
        )
    )
    gold = ev.annotation_triples(pq.read_table(ref_paths["annotations"]))

    def syn(t):
        return t.filter(pc.starts_with(t["conv_id"], "syn:"))

    tp, fp, fn = ev.annotation_counts(syn(triples), syn(gold))
    assert fp == 0 and fn == 0, (tp, fp, fn)
    assert tp > 100


def test_reference_gold_eval_reported(ref_paths, tmp_path):
    """Honest eval vs human gold: recorded, sanity-bounded (not the parity gate)."""
    import json

    out = str(tmp_path / "kg")
    _job(
        ref_paths,
        out,
        dictionary=ref_paths["dictionary"],
        annotations_path=ref_paths["annotations"],
    )
    with open(os.path.join(out, "metrics.json")) as f:
        m = json.load(f)["eval_vs_annotations"]
    # gazetteer extractor against human annotations (incl. anaphora the
    # dictionary can't see): recall well above the naive-substring baseline
    assert m["recall"] >= 0.70, m
    assert m["precision"] >= 0.50, m


def test_validation_quarantine(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from naer_ray import schema
    from naer_ray.pipelines.kg import bucketed_extraction
    from naer_ray.sources.transcripts import (
        QUARANTINED,
        FormatError,
        read_transcripts,
        validate_transcripts,
    )

    t = pa.table(
        {
            "conv_id": ["c", "c", "c"],
            "turn_idx": pa.array([1, 2, 3], pa.int32()),
            "text": ["Fine.", "no terminator", "Sure!"],
        }
    )
    path = str(tmp_path / "t.parquet")
    pq.write_table(t, path)
    ds = read_transcripts(path)
    with pytest.raises(ValueError, match="quarantine"):
        validate_transcripts(ds, "quarantine")
    tagged = validate_transcripts(ds, "tag").to_pandas().sort_values("turn_idx")
    assert tagged[schema.TAG].tolist() == [None, QUARANTINED, None]
    with pytest.raises(Exception):
        validate_transcripts(ds, "strict").materialize()

    # the gazetteer path splits the invalid turn off in its detection map:
    # one tagged row with the turn's text, beside the untagged mention rows
    entity = {"entity_id": "e0", "canonical_name": "Fine", "type": "COMPONENT",
              "aliases": [], "interface_of": None}
    rows, _ = bucketed_extraction(path, dict_rows=[entity], n_buckets=2)
    rows = pa.concat_tables(ray.get(rows.to_arrow_refs()))
    bad = rows.filter(pc.equal(rows[schema.TAG], QUARANTINED))
    assert bad.select(schema.QUARANTINE.names).to_pylist() == [
        {"conv_id": "c", "turn_idx": 2, "text": "no terminator"}
    ]
    mentions = rows.filter(pc.is_null(rows[schema.TAG]))
    assert mentions["turn_idx"].to_pylist() == [1]


def test_determinism_rerun(ref_paths):
    """Two executions emit identical triple sets (stable under scheduling
    nondeterminism; the cross-parallelism check runs in bench.py --scaling
    with fresh 8- vs 32-CPU sessions)."""
    import pandas as pd

    from naer_ray.pipelines.kg import build_triples

    def run():
        ds = build_triples(
            ref_paths["transcripts"], dictionary_path=ref_paths["dictionary"]
        )
        df = ds.to_pandas()
        return (
            df.fillna({"turn_idx": -1, "ref_type": ""})
            .sort_values(list(df.columns))
            .reset_index(drop=True)
        )

    a, b = run(), run()
    pd.testing.assert_frame_equal(a, b)


def test_corpus_manifest_reports_reference_projects(ref_corpus):
    """The corpus manifest says how many reference projects it holds, so
    a corpus built without the reference tree is visibly synthetic-only."""
    import json

    import pyarrow.parquet as pq

    from naer_ray.testdata import load_reference_projects

    with open(os.path.join(ref_corpus, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["n_reference_projects"] == len(load_reference_projects())
    convs = pq.read_table(os.path.join(ref_corpus, "transcripts"), columns=["conv_id"])
    ref_convs = {c for c in convs["conv_id"].to_pylist() if c.startswith("ref:")}
    assert len(ref_convs) == manifest["n_reference_projects"]
