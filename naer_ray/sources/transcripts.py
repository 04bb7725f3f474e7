"""Transcript table source + format validation.

Reads the Parquet transcript table mandated by BASELINE.json's
input_hint (conv_id, turn_idx, role, text, tool, ts) with column
pruning at the read, and applies the reference's one-sentence-per-line
format rule (SoftwareArchitectureDocumentation.checkTextFormat:76-100)
as a vectorized per-batch validator.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..schema import TAG

#: the reference's sentence-terminator rule, :88 (regex on the trimmed line)
_TERMINATOR_RE = r".*[.!?]$"

CORE_COLUMNS = ["conv_id", "turn_idx", "text"]

#: the tag (in :data:`naer_ray.schema.TAG`) of a turn that fails the format rule
QUARANTINED = "quarantine"


#: target on-disk bytes per read block.  Ray's default parallelism floor
#: (~200 blocks) shatters small-to-medium inputs into sub-MB blocks and
#: per-task scheduling then dominates the downstream shuffle (measured:
#: 192 x 0.6 MB blocks made the bucket groupby 9.5 s vs 2 s at 64 blocks).
_TARGET_BLOCK_BYTES = 64 * 1024 * 1024


#: below this per-block size, finer waves cost more in per-block fixed
#: overhead (scheduling, per-batch dictionary encode) than they save in
#: wave-end straggler idling — measured both ways at 32 CPUs: 4x-CPU
#: blocks of 3.5 MB cut sf0.5 wall 14% (12.3 -> 10.6 s), 4x-CPU blocks
#: of 0.43 MB DOUBLED sf0.1 wall (2.7 -> 5.7 s)
_FINE_WAVE_MIN_BYTES = 2 * 1024 * 1024

#: smallest read block worth a task of its own
_MIN_BLOCK_BYTES = 256 * 1024


def auto_num_blocks(path: str) -> int:
    """Input-size-aware read parallelism:
    ``clamp(max(wave_term, bytes/64MB), 1, bytes/256KB)``
    where ``wave_term`` is 4 x cluster CPUs when those blocks would be
    >= 2 MB each (4 finer waves smooth the wave-end stragglers before
    the sort barrier), else 2 x CPUs (don't shatter small corpora).

    Scales all three ways — a 55 MB corpus gets 2xCPU blocks (each task
    does real work), a 100 TB corpus gets bytes/64MB blocks (bounded
    per-task memory), and a 2 KB dimension table gets ONE block (a task
    on <256 KB is pure scheduling overhead).
    """
    total = 0
    if os.path.isdir(path):
        for root, _dirs, files in os.walk(path):
            for f in files:
                if f.endswith(".parquet"):
                    total += os.path.getsize(os.path.join(root, f))
    elif os.path.exists(path):
        total = os.path.getsize(path)
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    wave_term = 4 * cpus if total >= 4 * cpus * _FINE_WAVE_MIN_BYTES else 2 * cpus
    by_min_work = max(1, total // _MIN_BLOCK_BYTES)
    return int(min(max(wave_term, total // _TARGET_BLOCK_BYTES or 1), by_min_work))


def stripped_read_schema(path: str, columns: list[str] | None) -> pa.Schema | None:
    """Projected, metadata-stripped schema for ``read_parquet(schema=...)``.

    Parquet written by pandas carries a ``b'pandas'`` schema-metadata
    blob that makes ``hash(schema)`` raise "unhashable type: 'dict'" in
    this pyarrow build; Ray Data's per-bundle schema dedup then logs a
    warning for every block INSIDE the read tasks (the BENCH_r02 tail
    spam).  Supplying an explicit stripped schema removes the metadata
    at the source — a footer-only read, no data cost."""
    import pyarrow.parquet as pq

    f = path
    if os.path.isdir(path):
        f = None
        for root, _dirs, files in os.walk(path):
            for name in sorted(files):
                if name.endswith(".parquet"):
                    f = os.path.join(root, name)
                    break
            if f:
                break
        if f is None:
            return None
    full = pq.read_schema(f).remove_metadata()
    if columns:
        return pa.schema([full.field(c) for c in columns])
    return full


def read_transcripts(
    path: str,
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """read_parquet over a transcripts file/dir, pruning to ``columns``.

    ``columns`` defaults to the three columns the KG pipeline needs —
    never read role/tool/ts unless asked (prune at the read).  Read
    blocks are sized by input bytes and cluster CPUs
    (:func:`auto_num_blocks`).
    """
    if os.path.isdir(path):
        tdir = os.path.join(path, "transcripts")
        if os.path.isdir(tdir):
            path = tdir
    cols = columns or list(CORE_COLUMNS)
    return ray.data.read_parquet(
        path,
        columns=cols,
        override_num_blocks=auto_num_blocks(path),
        schema=stripped_read_schema(path, cols),
    )


def read_transcripts_jsonl(
    path: str,
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """JSONL ingest for the canonical transcript schema — the landing
    format most transcript producers emit before the corpus is
    compacted to Parquet.

    ``ray.data.read_json`` infers shapes per block; this normalizes
    every batch to :data:`naer_ray.schema.TRANSCRIPTS` (int32 turn_idx,
    us-precision ts from ISO-8601 strings or epoch micros, missing
    optional columns typed-null) so downstream stages see exactly the
    Parquet reader's schema.  Column pruning happens right after the
    parse — JSON cannot prune at the read the way Parquet does, which
    is why the 100 TB path converts to Parquet first (documented
    trade-off, not a silent one).
    """
    from ..schema import TRANSCRIPTS

    cols = columns or list(CORE_COLUMNS)
    out_schema = pa.schema([TRANSCRIPTS.field(c) for c in cols])

    def normalize(batch: pa.Table) -> pa.Table:
        if "ts" in cols and "ts" in batch.column_names and pa.types.is_string(batch["ts"].type):
            ts = pc.strptime(batch["ts"], "%Y-%m-%dT%H:%M:%S", "us")
            batch = batch.set_column(batch.column_names.index("ts"), "ts", ts)
        return conform_batch(batch, out_schema)

    return ray.data.read_json(path).map_batches(
        normalize, batch_format="pyarrow"
    )


def conform_batch(batch: pa.Table, schema: pa.Schema) -> pa.Table:
    """Normalize one batch to ``schema``: missing columns become typed
    nulls, present columns cast to the target type, extras drop — the
    schema-evolution rule for reading a corpus whose snapshots were
    written under different generations of the table schema (the JSONL
    reader's normalize step, generalized to any target schema)."""
    arrays = []
    for field in schema:
        if field.name not in batch.column_names:
            arrays.append(pa.nulls(len(batch), field.type))
        else:
            arrays.append(pc.cast(batch[field.name], field.type))
    return pa.table(dict(zip(schema.names, arrays)))


def validity_mask(batch: pa.Table) -> pa.ChunkedArray | pa.Array:
    """Boolean mask: trimmed text non-empty and ends in [.!?] (reference :76-100)."""
    trimmed = pc.utf8_trim_whitespace(batch["text"])
    nonempty = pc.not_equal(trimmed, "")
    terminated = pc.match_substring_regex(trimmed, _TERMINATOR_RE)
    return pc.and_kleene(pc.and_kleene(pc.is_valid(batch["text"]), nonempty), terminated)


class FormatError(ValueError):
    """Strict-mode analogue of the reference's IllegalArgumentException."""


def validate_transcripts(ds: ray.data.Dataset, mode: str) -> ray.data.Dataset:
    """Apply the SAD format rule per batch.

    mode="strict": raise on the first invalid row (reference behavior,
    single-document semantics).  mode="tag": keep every row and add the
    :data:`naer_ray.schema.TAG` column, :data:`QUARANTINED` on invalid rows
    and null on the rest, so the invalid turns ride a job's exchange to
    its per-bucket quarantine sink (``pipelines/kg.run_kg_job``).
    """
    if mode == "strict":

        def check(batch: pa.Table) -> pa.Table:
            mask = validity_mask(batch)
            if not pc.all(mask).as_py():
                bad = batch.filter(pc.invert(mask))
                raise FormatError(
                    "invalid SAD text format: "
                    f"{bad.num_rows} bad row(s), first: {bad.slice(0, 1).to_pylist()}"
                )
            return batch

        return ds.map_batches(check, batch_format="pyarrow")

    if mode == "tag":

        def tag(batch: pa.Table) -> pa.Table:
            tags = pc.if_else(validity_mask(batch), pa.scalar(None, pa.string()), QUARANTINED)
            return batch.append_column(TAG, tags)

        return ds.map_batches(tag, batch_format="pyarrow")

    raise ValueError(f"unknown validate mode {mode!r}")


def transcripts_from_text_files(paths, conv_id_from_path=None) -> ray.data.Dataset:
    """Raw-text ingestion parity (reference S1: one-sentence-per-line files).

    ``read_text`` yields one row per line; the conversation id derives
    from the source path (``Files.readAllLines`` analogue,
    SoftwareArchitectureDocumentation.java:32-51) and turn_idx from the
    1-based line position within the file.
    """
    import os

    import pyarrow as pa

    conv_id_from_path = conv_id_from_path or (
        lambda p: os.path.splitext(os.path.basename(p))[0]
    )
    # read_binary_files keeps each file atomic (read_text splits files
    # into byte-range blocks, destroying intra-file line order); one
    # file = one row = one conversation, split into lines in the UDF.
    # SAD-style documents are small; a 100 TB raw-text corpus would be
    # pre-chunked with explicit line indexes instead.
    ds = ray.data.read_binary_files(paths, include_paths=True)

    def to_rows(batch: pa.Table) -> pa.Table:
        conv, turn, out_text = [], [], []
        for p, raw in zip(batch["path"].to_pylist(), batch["bytes"].to_pylist()):
            cid = conv_id_from_path(p)
            lines = raw.decode("utf-8").splitlines()
            for i, line in enumerate(lines, 1):
                if not line.strip():
                    continue
                conv.append(cid)
                turn.append(i)
                out_text.append(line)
        return pa.table(
            {
                "conv_id": pa.array(conv, pa.string()),
                "turn_idx": pa.array(turn, pa.int32()),
                "text": pa.array(out_text, pa.string()),
            }
        )

    return ds.map_batches(to_rows, batch_format="pyarrow")
