"""Recorded-answer (mock-LLM) extraction path — the reference-parity stage.

The reference's pipeline is LLM-call -> answer string -> slice ->
parse -> fuzzy line resolution -> DIRECT/INDIRECT typing
(NamedEntityRecognizer.recognize:57-81).  At test time we replace the
live LLM with a *recorded answers* table (conv_id, format, answer) —
the mocked-extractor-backend pattern — and run every deterministic
downstream step distributed.

Dataflow: transcripts ∪ answer-rows (same narrow schema, answers
carried as role="__answer:<format>" rows with turn_idx=-1) -> the job
bucket (``pipelines/kg.add_bucket``, hash of conv_id) -> the job's one
exchange, ``sort("bucket")`` -> per-block kernel that walks the block's
conversations (``extract.conversation_runs``), rebuilds each one's
ordered line array, parses its answers with the exact reference
semantics (naer_ray.refsem parsers: alias-before-typing ordering,
silent drop of unresolved occurrences; >=0.90 Jaccard resolution
through one ``jaccard.LineResolver`` per conversation) and
materializes triples.  Parse failures do not kill
the job: they surface as ``pred="__error__"`` rows routed to a
dead-letter output (scaled-mode analogue of the reference's
per-project try/catch, TestProjectEvaluator.java:74-84).
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

from .. import refsem
from ..jaccard import LineResolver
from .extract import conversation_runs, error_triple, triples_table

ANSWER_ROLE_PREFIX = "__answer:"


def answers_as_rows(answers_path: str) -> ray.data.Dataset:
    """Read llm_answers.parquet into transcript-shaped rows (turn_idx=-1)."""

    def to_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": batch["conv_id"],
                "turn_idx": pa.array([-1] * batch.num_rows, pa.int32()),
                "role": pa.array(
                    [ANSWER_ROLE_PREFIX + f for f in batch["format"].to_pylist()],
                    pa.string(),
                ),
                "text": batch["answer"],
            }
        )

    from ..sources.transcripts import auto_num_blocks

    return ray.data.read_parquet(
        answers_path, override_num_blocks=auto_num_blocks(answers_path)
    ).map_batches(to_rows, batch_format="pyarrow")


def _parse_one(conv_id: str, lines: list[str], answers: list[tuple[str, str]], rows: list[dict]) -> None:
    """One conversation: ordered lines + recorded answers -> triple rows.

    Mirrors NamedEntityRecognizer.recognize minus the live chat call:
    slice (M3/M4) happens implicitly in refsem parsers; fromString /
    fromJson semantics per NamedEntityParser.java:39-204.
    """
    sad = refsem.Sad(lines, validate=False, resolver=LineResolver(lines).resolve)
    for fmt, answer in answers:
        try:
            if fmt == "json":
                entities = refsem.parse_json_answer(refsem.slice_json(answer), sad)
            else:
                entities = refsem.parse_structured_text(answer, sad)
        except Exception as exc:  # noqa: BLE001 — dead-letter, never crash the job
            rows.append(error_triple(conv_id, exc))
            continue
        rows.extend(refsem.entities_to_triples(entities, conv_id))


def parse_answer_group(group: pa.Table) -> pa.Table:
    """Block kernel walk: parses each conversation of ``group`` (one
    conversation or a block of whole job buckets) and returns its triples."""
    rows: list[dict] = []
    for conv_id, conv in conversation_runs(group):
        lines: list[str] = []
        answers: list[tuple[str, str]] = []  # (format, answer)
        for role, turn_idx, text in zip(
            conv["role"].to_pylist(), conv["turn_idx"].to_pylist(), conv["text"].to_pylist()
        ):
            if role and role.startswith(ANSWER_ROLE_PREFIX):
                answers.append((role[len(ANSWER_ROLE_PREFIX) :], text))
            elif turn_idx >= 1:
                lines.append(text)
        _parse_one(conv_id, lines, answers, rows)
    return triples_table(rows)
