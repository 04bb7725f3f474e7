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


def test_parity_gate(ref_paths):
    """Exact parity, over exactly the conversations the oracle covers."""
    import pyarrow.parquet as pq

    from naer_ray.pipelines.evaluate import eval_vs_expected
    from naer_ray.pipelines.kg import build_triples, split_errors

    triples = build_triples(
        ref_paths["transcripts"],
        extractor="answers",
        answers_path=ref_paths["answers"],
    ).materialize()
    ok, bad = split_errors(triples)
    assert bad.count() == 0
    covered = set(ok.unique("conv_id"))
    expected = set(pq.read_table(ref_paths["expected"], columns=["conv_id"])["conv_id"].to_pylist())
    assert covered, f"the parity gate covered {len(covered)} conversations"
    assert covered == expected, (
        f"covered {len(covered)} conversations, expected {len(expected)}: "
        f"missing {sorted(expected - covered)}, extra {sorted(covered - expected)}"
    )
    m = eval_vs_expected(ok, ref_paths["expected"])
    assert m["precision"] == 1.0, (len(covered), m)
    assert m["recall"] == 1.0, (len(covered), m)


def test_synthetic_gazetteer_exact(ref_paths):
    """Gazetteer extractor reproduces recorded placements on synthetic convs."""
    from naer_ray.pipelines import evaluate as ev
    from naer_ray.pipelines.kg import build_triples

    triples = build_triples(
        ref_paths["transcripts"], dictionary_path=ref_paths["dictionary"]
    )
    syn = triples.map_batches(
        lambda t: t.filter(pc.starts_with(t["conv_id"], "syn:")),
        batch_format="pyarrow",
    )
    both = syn.union(
        ev._annotations_as_triplerows(ref_paths["annotations"]).map_batches(
            lambda t: t.filter(pc.starts_with(t["conv_id"], "syn:")),
            batch_format="pyarrow",
        )
    )
    per_conv = both.groupby("conv_id").map_groups(
        ev._conv_eval_kernel, batch_format="pyarrow"
    )
    agg = per_conv.sum(["tp", "fp", "fn"])
    assert agg["sum(fp)"] == 0 and agg["sum(fn)"] == 0, agg
    assert agg["sum(tp)"] > 100


def test_reference_gold_eval_reported(ref_paths):
    """Honest eval vs human gold: recorded, sanity-bounded (not the parity gate)."""
    from naer_ray.pipelines.evaluate import eval_vs_annotations
    from naer_ray.pipelines.kg import build_triples

    triples = build_triples(
        ref_paths["transcripts"], dictionary_path=ref_paths["dictionary"]
    )
    m = eval_vs_annotations(triples, ref_paths["annotations"])
    # gazetteer extractor against human annotations (incl. anaphora the
    # dictionary can't see): recall well above the naive-substring baseline
    assert m["recall"] >= 0.70, m
    assert m["precision"] >= 0.50, m


def test_validation_quarantine(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from naer_ray.sources.transcripts import (
        FormatError,
        invalid_transcripts,
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
    assert validate_transcripts(ds, "quarantine").count() == 2
    assert invalid_transcripts(ds).count() == 1
    with pytest.raises(Exception):
        validate_transcripts(ds, "strict").materialize()


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
