"""Evaluation gates (reference §A3/J3/M14 semantics).

Two gates, each one per-bucket count function:

* :func:`expected_counts` — exact (subj, pred, obj, conv_id, turn_idx,
  ref_type) triple-set tp/fp/fn of a pipeline run against the
  `expected_triples` oracle (sequential reference semantics), as a
  vectorized distinct-key compare.  This is the north-rule P/R >= 0.95
  gate: distributed execution must reproduce the reference's emitted
  triples.
* :func:`annotation_counts` — the reference's own evaluation harness
  (TestProjectEvaluator.matchAndLogResults:187-199): per-conversation
  lowercase + cleanComponentName name-pool matching with rename-unify
  (J3, :209-239), flatten to (name, turn) pairs (M14,
  SimpleComponentOccurrence.java:18-28), TP/FP/FN.

Both gates decompose by conversation, so both count one conv-hash
bucket at a time: the gold rows (:func:`gold_rows`, tagged with their
gate in the ``schema.TAG`` column) carry the conversation's job bucket.
``pipelines/kg.run_kg_job`` sends them through its one triples exchange
and counts inside the bucket writer, the one place evaluation is
counted; the global reduction is a tiny ``sum`` of the per-bucket
counts, and :func:`_metrics` turns it into P/R/F1.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .. import refsem, schema
from ..sources.transcripts import auto_num_blocks, conform_batch
from ..stages.extract import conversation_runs

_KEY_COLS = ["subj", "pred", "obj", "conv_id", "turn_idx", "ref_type"]

#: every row an evaluation exchange carries: the tag (the gate's name on
#: gold rows, null on triples) plus a triple
EVAL_SCHEMA = pa.schema([pa.field(schema.TAG, pa.string()), *schema.TRIPLES])


def expected_counts(pred: pa.Table, gold: pa.Table) -> tuple[int, int, int]:
    """(tp, fp, fn) of the distinct triple keys of ``pred`` against
    ``gold``; every key value is compared as a string, null as ""."""

    def keys(t: pa.Table) -> pa.Table:
        cols = {c: pc.fill_null(pc.cast(t[c], pa.string()), "") for c in _KEY_COLS}
        return pa.table(cols).group_by(_KEY_COLS).aggregate([])

    p, g = keys(pred), keys(gold)
    tp = p.join(g, keys=_KEY_COLS, join_type="inner").num_rows
    return tp, p.num_rows - tp, g.num_rows - tp


def _metrics(tp: int, fp: int, fn: int) -> dict[str, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "tp": tp, "fp": fp, "fn": fn,
        "precision": precision, "recall": recall, "f1": f1,
    }


# ----------------------------------------------------- reference evaluation (J3)

_GOLD_PRED = "__gold_occ__"


def annotation_triples(annotations: pa.Table) -> pa.Table:
    """Reference annotation rows in triple shape: ``(component_name,
    __gold_occ__, "", conv_id, turn_idx, ref_type)``, the gold side of
    :func:`annotation_counts`."""
    n = annotations.num_rows
    return pa.table(
        {
            "subj": annotations["component_name"],
            "pred": pa.array([_GOLD_PRED] * n, pa.string()),
            "obj": pa.array([""] * n, pa.string()),
            "conv_id": annotations["conv_id"],
            "turn_idx": annotations["turn_idx"],
            "ref_type": annotations["ref_type"]
            if "ref_type" in annotations.column_names
            else pa.array(["DIRECT"] * n, pa.string()),
        }
    )


def _conv_counts(conv: pa.Table) -> tuple[int, int, int]:
    """One conversation's J3 matching + M14 flatten: its (tp, fp, fn).

    Callers must pass rows in a deterministic order:
    match_component_names' rename-unify is order-sensitive when one
    entity matches multiple candidates, so the entity maps must be
    built in a partition-layout-independent order."""
    recognized: dict[str, refsem.Entity] = {}
    gold: dict[str, refsem.Entity] = {}
    for pred, subj, obj, turn in zip(
        conv["pred"].to_pylist(),
        conv["subj"].to_pylist(),
        conv["obj"].to_pylist(),
        conv["turn_idx"].to_pylist(),
    ):
        if pred == _GOLD_PRED:
            e = gold.setdefault(subj, refsem.Entity(subj, "COMPONENT"))
            e.occurrences.add((int(turn), "DIRECT"))
        elif pred == "occursIn":
            e = recognized.setdefault(subj, refsem.Entity(subj, "COMPONENT"))
            e.occurrences.add((int(turn), "DIRECT"))
        elif pred == "hasAlternativeName":
            recognized.setdefault(subj, refsem.Entity(subj, "COMPONENT")).alternative_names.add(obj)

    gold_list = list(gold.values())
    rec_list = list(recognized.values())
    refsem.match_component_names(gold_list, rec_list)
    m = refsem.classification_metrics(
        refsem.flatten_occurrences(rec_list), refsem.flatten_occurrences(gold_list)
    )
    return m["tp"], m["fp"], m["fn"]


def annotation_counts(pred: pa.Table, gold: pa.Table) -> tuple[int, int, int]:
    """(tp, fp, fn) of the J3 harness over conversations: ``gold`` holds
    the annotation rows in triple shape (:func:`annotation_triples`).
    Each conversation's rows go through :func:`_conv_counts` in a
    deterministic (pred, subj, obj, turn_idx) order."""
    rows = pa.concat_tables([pred, gold])
    counts = [
        _conv_counts(conv)
        for _conv_id, conv in conversation_runs(rows, ("pred", "subj", "obj", "turn_idx"))
    ]
    return tuple(sum(c[k] for c in counts) for k in range(3))


#: the per-bucket count function of each gate, by its metrics.json key
GATES = {
    "parity_vs_expected": expected_counts,
    "eval_vs_annotations": annotation_counts,
}


def gold_rows(gate: str, path: str) -> ray.data.Dataset:
    """The gold side of ``gate`` as :data:`EVAL_SCHEMA` rows tagged ``gate``:
    the expected triples, or the annotations in triple shape."""

    def tag(batch: pa.Table) -> pa.Table:
        if gate == "eval_vs_annotations":
            batch = annotation_triples(batch)
        tagged = batch.append_column(schema.TAG, pa.repeat(pa.scalar(gate), batch.num_rows))
        return conform_batch(tagged, EVAL_SCHEMA)

    return ray.data.read_parquet(
        path, override_num_blocks=auto_num_blocks(path)
    ).map_batches(tag, batch_format="pyarrow")
