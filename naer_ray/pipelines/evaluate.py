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
gate in the ``gate`` column) carry the conversation's job bucket and
meet that bucket's triples in its group.  ``pipelines/kg.run_kg_job``
sends them through its one triples exchange and counts inside the
bucket writer; :func:`eval_vs_expected` and :func:`eval_vs_annotations`
do the same over any triples Dataset with an exchange of their own.
Either way the global reduction is a tiny ``sum`` of the per-bucket
counts, and :func:`_metrics` turns it into P/R/F1.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .. import refsem, schema
from ..sources.transcripts import auto_num_blocks, conform_batch

_KEY_COLS = ["subj", "pred", "obj", "conv_id", "turn_idx", "ref_type"]

_N_BUCKETS = 64

#: the tag column of gold rows: the name of their gate; null on triples
GATE = "gate"

#: every row an evaluation exchange carries: the tag plus a triple
EVAL_SCHEMA = pa.schema([pa.field(GATE, pa.string()), *schema.TRIPLES])


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


def _annotations_as_triplerows(annotations_path: str) -> ray.data.Dataset:
    def to_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "subj": batch["component_name"],
                "pred": pa.array([_GOLD_PRED] * n, pa.string()),
                "obj": pa.array([""] * n, pa.string()),
                "conv_id": batch["conv_id"],
                "turn_idx": batch["turn_idx"],
                "ref_type": batch["ref_type"]
                if "ref_type" in batch.column_names
                else pa.array(["DIRECT"] * n, pa.string()),
            }
        )

    return ray.data.read_parquet(
        annotations_path, override_num_blocks=auto_num_blocks(annotations_path)
    ).map_batches(to_rows, batch_format="pyarrow")


def _conv_eval_kernel(group: pa.Table) -> pa.Table:
    """Per-conversation J3 matching + M14 flatten + TP/FP/FN counters.

    Callers must pass rows in a deterministic order:
    match_component_names' rename-unify is order-sensitive when one
    entity matches multiple candidates, so the entity maps must be
    built in a partition-layout-independent order (the bucket kernel
    sorts before slicing conversation runs)."""
    conv_id = group["conv_id"][0].as_py()
    preds = group["pred"].to_pylist()
    subjs = group["subj"].to_pylist()
    objs = group["obj"].to_pylist()
    turns = group["turn_idx"].to_pylist()

    recognized: dict[str, refsem.Entity] = {}
    gold: dict[str, refsem.Entity] = {}
    for pred, subj, obj, turn in zip(preds, subjs, objs, turns):
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
    pred_pairs = refsem.flatten_occurrences(rec_list)
    gold_pairs = refsem.flatten_occurrences(gold_list)
    m = refsem.classification_metrics(pred_pairs, gold_pairs)
    return pa.table(
        {
            "conv_id": pa.array([conv_id], pa.string()),
            "tp": pa.array([m["tp"]], pa.int64()),
            "fp": pa.array([m["fp"]], pa.int64()),
            "fn": pa.array([m["fn"]], pa.int64()),
        }
    )


def annotation_counts(pred: pa.Table, gold: pa.Table) -> tuple[int, int, int]:
    """(tp, fp, fn) of the J3 harness over conversations: ``gold`` holds
    the annotation rows in triple shape (:func:`_annotations_as_triplerows`).
    The rows are sorted into a deterministic (conv_id, pred, subj, obj,
    turn_idx) order and each conversation run goes through
    :func:`_conv_eval_kernel` — same shape as the triple assembler."""
    rows = pa.concat_tables([pred, gold]).sort_by(
        [
            ("conv_id", "ascending"),
            ("pred", "ascending"),
            ("subj", "ascending"),
            ("obj", "ascending"),
            ("turn_idx", "ascending"),
        ]
    )
    conv = rows["conv_id"].to_pylist()
    tp = fp = fn = 0
    i, n = 0, len(conv)
    while i < n:
        j = i
        while j < n and conv[j] == conv[i]:
            j += 1
        m = _conv_eval_kernel(rows.slice(i, j - i)).to_pylist()[0]
        tp, fp, fn = tp + m["tp"], fp + m["fp"], fn + m["fn"]
        i = j
    return tp, fp, fn


#: the per-bucket count function of each gate, by its metrics.json key
GATES = {
    "parity_vs_expected": expected_counts,
    "eval_vs_annotations": annotation_counts,
}


def gold_rows(gate: str, path: str) -> ray.data.Dataset:
    """The gold side of ``gate`` as :data:`EVAL_SCHEMA` rows tagged ``gate``:
    the expected triples, or the annotations in triple shape."""
    if gate == "eval_vs_annotations":
        ds = _annotations_as_triplerows(path)
    else:
        ds = ray.data.read_parquet(path, override_num_blocks=auto_num_blocks(path))

    def tag(batch: pa.Table) -> pa.Table:
        tagged = batch.append_column(GATE, pa.repeat(pa.scalar(gate), batch.num_rows))
        return conform_batch(tagged, EVAL_SCHEMA)

    return ds.map_batches(tag, batch_format="pyarrow")


def split_gold(rows: pa.Table, gate: str) -> tuple[pa.Table, pa.Table]:
    """(triples, gold rows of ``gate``) of one bucket's tagged rows, both
    in the triple schema."""
    triples = rows.filter(pc.is_null(rows[GATE]))
    gold = rows.filter(pc.equal(rows[GATE], gate))
    return triples.select(schema.TRIPLES.names), gold.select(schema.TRIPLES.names)


def _gate_metrics(triples: ray.data.Dataset, gate: str, path: str) -> dict[str, float]:
    """P/R/F1 of ``triples`` under ``gate``: triples and gold rows grouped
    by conv-hash bucket (O(64) Ray groups, never one per key or
    conversation), one :data:`GATES` count per bucket, summed."""
    from .kg import add_bucket

    count = GATES[gate]

    def bucket_counts(group: pa.Table) -> pa.Table:
        tp, fp, fn = count(*split_gold(group, gate))
        return pa.table({"tp": [tp], "fp": [fp], "fn": [fn]})

    pred = triples.map_batches(
        lambda b: conform_batch(b, EVAL_SCHEMA), batch_format="pyarrow"
    )
    rows = add_bucket(pred.union(gold_rows(gate, path)), _N_BUCKETS)
    counts = (
        rows.groupby("bucket")
        .map_groups(bucket_counts, batch_format="pyarrow")
        .take_all()
    )
    return _metrics(*(sum(int(c[k]) for c in counts) for k in ("tp", "fp", "fn")))


def eval_vs_expected(
    triples: ray.data.Dataset, expected_path: str
) -> dict[str, float]:
    """Exact triple-set P/R/F1 of ``triples`` against the expected triples
    (:func:`expected_counts` per bucket)."""
    return _gate_metrics(triples, "parity_vs_expected", expected_path)


def eval_vs_annotations(
    triples: ray.data.Dataset, annotations_path: str
) -> dict[str, float]:
    """The reference evaluation harness over ``triples``
    (:func:`annotation_counts` per bucket)."""
    return _gate_metrics(triples, "eval_vs_annotations", annotations_path)
