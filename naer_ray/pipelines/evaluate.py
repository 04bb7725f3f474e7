"""Distributed evaluation jobs (reference §A3/J3/M14 semantics).

Two gates:

* :func:`eval_vs_expected` — exact (subj, pred, obj, conv_id, turn_idx,
  ref_type) triple-set P/R of a pipeline run against the
  `expected_triples` oracle (sequential reference semantics).  This is
  the north-rule P/R >= 0.95 gate: distributed execution must reproduce
  the reference's emitted triples.
* :func:`eval_vs_annotations` — the reference's own evaluation harness
  (TestProjectEvaluator.matchAndLogResults:187-199): per-conversation
  lowercase + cleanComponentName name-pool matching with rename-unify
  (J3, :209-239), flatten to (name, turn) pairs (M14,
  SimpleComponentOccurrence.java:18-28), global TP/FP/FN -> P/R/F1.

Both are distributed with the bucket-run pattern: keys / conversations
hash into O(n_buckets) Ray groups (never one Ray group per distinct
key — unbounded-cardinality dispatch), each kernel reduces its bucket
vectorized, and the global reduction is a tiny ``sum``.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data

from .. import refsem
from ..hashing import hash_u32

_KEY_COLS = ["subj", "pred", "obj", "conv_id", "turn_idx", "ref_type"]

_N_BUCKETS = 64


def _keyed(batch: pa.Table, src: str) -> pa.Table:
    def col(name):
        vals = batch[name].to_pylist() if name in batch.column_names else [None] * batch.num_rows
        return ["" if v is None else str(v) for v in vals]

    keys = ["\x1f".join(parts) for parts in zip(*[col(c) for c in _KEY_COLS])]
    n = batch.num_rows
    return pa.table(
        {
            "key": pa.array(keys, pa.string()),
            "bucket": pa.array(
                [hash_u32(k) % _N_BUCKETS for k in keys], pa.int32()
            ),
            "n_pred": pa.array([1 if src == "pred" else 0] * n, pa.int32()),
            "n_gold": pa.array([1 if src == "gold" else 0] * n, pa.int32()),
        }
    )


def eval_vs_expected(
    triples: ray.data.Dataset, expected_path: str
) -> dict[str, float]:
    """Exact triple-set P/R/F1 via a distributed indicator join.

    Both sides are reduced to composite keys with side indicators,
    key-hash bucketed (O(64) Ray groups), and each bucket kernel counts
    tp/fp/fn with one vectorized pandas groupby — no per-key Ray
    dispatch, no driver-side row loop.
    """
    pred = triples.map_batches(lambda b: _keyed(b, "pred"), batch_format="pyarrow")
    from ..sources.transcripts import auto_num_blocks

    gold = ray.data.read_parquet(
        expected_path, override_num_blocks=auto_num_blocks(expected_path)
    ).map_batches(
        lambda b: _keyed(b, "gold"), batch_format="pyarrow"
    )

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("key", sort=False)[["n_pred", "n_gold"]].sum()
        has_pred = agg["n_pred"] > 0
        has_gold = agg["n_gold"] > 0
        return pd.DataFrame(
            {
                "tp": [int((has_pred & has_gold).sum())],
                "fp": [int((has_pred & ~has_gold).sum())],
                "fn": [int((has_gold & ~has_pred).sum())],
            }
        )

    flags = (
        pred.union(gold)
        .groupby("bucket")
        .map_groups(reduce_bucket, batch_format="pandas")
    )
    agg = flags.sum(["tp", "fp", "fn"])
    tp, fp, fn = agg["sum(tp)"], agg["sum(fp)"], agg["sum(fn)"]
    return _metrics(tp, fp, fn)


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

    from ..sources.transcripts import auto_num_blocks

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


def eval_vs_annotations(
    triples: ray.data.Dataset, annotations_path: str
) -> dict[str, float]:
    """Reference evaluation harness, distributed by conv-hash bucket.

    O(64) Ray groups; each kernel sorts its bucket into a deterministic
    (conv_id, pred, subj, obj, turn_idx) order and walks conversation
    runs in-process — same shape as the triple assembler."""

    def bucketize(batch: pa.Table) -> pa.Table:
        b = pa.array(
            [hash_u32(c) % _N_BUCKETS for c in batch["conv_id"].to_pylist()],
            pa.int32(),
        )
        return batch.append_column("bucket", b)

    def bucket_kernel(group: pa.Table) -> pa.Table:
        group = group.sort_by(
            [
                ("conv_id", "ascending"),
                ("pred", "ascending"),
                ("subj", "ascending"),
                ("obj", "ascending"),
                ("turn_idx", "ascending"),
            ]
        )
        conv = group["conv_id"].to_pylist()
        outs = []
        i, n = 0, len(conv)
        while i < n:
            j = i
            while j < n and conv[j] == conv[i]:
                j += 1
            outs.append(_conv_eval_kernel(group.slice(i, j - i)))
            i = j
        if not outs:
            return pa.table(
                {
                    "conv_id": pa.array([], pa.string()),
                    "tp": pa.array([], pa.int64()),
                    "fp": pa.array([], pa.int64()),
                    "fn": pa.array([], pa.int64()),
                }
            )
        return pa.concat_tables(outs)

    both = triples.union(_annotations_as_triplerows(annotations_path))
    per_conv = (
        both.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_kernel, batch_format="pyarrow")
    )
    agg = per_conv.sum(["tp", "fp", "fn"])
    return _metrics(agg["sum(tp)"], agg["sum(fp)"], agg["sum(fn)"])
