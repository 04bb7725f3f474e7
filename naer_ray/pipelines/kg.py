"""The flagship KG-construction pipeline (SURVEY.md §3.4).

Every extractor has one shape: rows that carry a ``bucket`` column,
``hash_u32(conv_id) % n_buckets`` computed once by :func:`add_bucket`,
plus a block kernel that turns a block of whole buckets into their
triples, each row with its ``bucket``, in the bucket files' order
(bucket, then every triple column)::

    gazetteer  read_parquet(transcripts, columns=3)   # prune at the read
                 -> add_bucket
                 -> mention detection map_batches     # per turn, NO shuffle;
                    it also tags the invalid turns (format rule)
               kernel: anaphora + triple assembly, ordered by one sort
                       of integer codes (stages/extract)
    answers    transcripts -> add_bucket  ∪  recorded answers -> add_bucket
               kernel: parse_answer_group (reference parse/resolve/type)
    llm        transcripts -> tag invalid turns -> add_bucket
               kernel: chat + parse per conversation

    rows.sort("bucket")                               # the one exchange
        .map_batches(kernel, batch_size=None)         # one call per block

The sort's range partitioning never splits a bucket across blocks, so
each block holds whole buckets (``GroupedData.map_groups`` builds the
same plan, then splits every block into its groups).  Quarantined turns
and, in a job, gold rows ride the exchange tagged in ``schema.TAG``;
kernels see only the untagged rows.  ``build_triples`` returns the
triples Dataset.  ``run_kg_job`` is the checkpointed job: it reads the
transcripts once, and that exchange is the only execution it needs for
triples, nodes, quarantine and evaluation::

    rows ∪ gold rows of each gate (expected triples, annotations),
         each source bucketed, filtered and conformed before the union
         (so those maps fuse into its reads); finished buckets dropped
    rows.sort("bucket").map_batches(make_bucket_writer(job_kernel))
         per block: the kernel once, then per bucket: triples/bucket=b,
         nodes/bucket=b (its conversation nodes), quarantine/bucket=b
         (its invalid turns, if any), and in the bucket's summary row
         its (name, type) entity pairs and per-gate tp/fp/fn
    then, in the driver: one entity-node file nodes/bucket=<n_buckets>;
    canonical_labels and canon from that file (optional); metrics.json

Finished buckets are dropped right after ``add_bucket`` (before any
extraction); the worker that assembled a block writes each of its
buckets' outputs atomically, already in file order; ``run_kg_job``
records per-bucket lineage and counts (state/checkpoint.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .. import schema
from ..hashing import hash_u32
from ..sources.gazetteer import DictionaryRef, load_dictionary_rows
from ..sources.transcripts import (
    QUARANTINED,
    conform_batch,
    read_transcripts,
    validate_transcripts,
)
from ..stages.answers import answers_as_rows, parse_answer_group
from ..stages.extract import (
    TAGGED_MENTION_SCHEMA,
    make_conversation_assembler,
    make_mention_detector,
)

#: the columns the answers and llm extractors read
_ROLE_COLUMNS = ["conv_id", "turn_idx", "role", "text"]
_ROLE_SCHEMA = pa.schema([schema.TRANSCRIPTS.field(c) for c in _ROLE_COLUMNS])


def build_triples(
    transcripts_path: str | None, dictionary_path: str | None = None, **options
) -> ray.data.Dataset:
    """Lazy triples Dataset for any extractor backend: the untagged rows
    of :func:`bucketed_extraction` (which documents ``options``), sorted
    by bucket, each block through the extractor's kernel — one exchange."""
    rows, kernel = bucketed_extraction(transcripts_path, dictionary_path, **options)

    def triples(block: pa.Table) -> pa.Table:
        return kernel(block).drop_columns(["bucket"])

    untagged = rows.map_batches(_untagged, batch_format="pyarrow")
    return untagged.sort("bucket").map_batches(
        triples, batch_format="pyarrow", batch_size=None
    )


def _untagged(batch: pa.Table) -> pa.Table:
    """The extractor's own rows of a batch (null ``schema.TAG``)."""
    if schema.TAG not in batch.column_names:
        return batch
    return batch.filter(pc.is_null(batch[schema.TAG])).drop_columns([schema.TAG])


def file_order(table: pa.Table) -> pa.Table:
    """``table`` sorted by every column, in column order: with ``bucket``
    first, the order of the bucket files."""
    return table.sort_by([(c, "ascending") for c in table.column_names])


def conversation_kernel(walk):
    """Block kernel of a per-conversation ``walk`` (rows -> triples): the
    walk's triples of the block, each row with its conversation's bucket,
    in file order (:func:`file_order`)."""

    def block_kernel(block: pa.Table) -> pa.Table:
        triples = walk(block)
        enc = block["conv_id"].combine_chunks().dictionary_encode()
        bucket_of = np.empty(len(enc.dictionary), np.int32)
        bucket_of[enc.indices.to_numpy()] = block["bucket"].to_numpy()
        at = pc.index_in(triples["conv_id"], value_set=enc.dictionary).to_numpy()
        return file_order(triples.add_column(0, "bucket", pa.array(bucket_of[at], pa.int32())))

    return block_kernel


#: the DictionaryRef of the dictionary file a job read last, keyed by the
#: file's sha256 and the Ray session and job that put it (an object ref
#: does not outlive them)
_DICTIONARY_REF: dict = {}


def dictionary_ref(path: str) -> DictionaryRef:
    """The :class:`DictionaryRef` of a dictionary file: loaded and put once
    per file content and Ray session, so a later job of the session
    neither re-reads the rows nor re-puts them."""
    from ..state.checkpoint import content_sha256

    if not ray.is_initialized():
        # no session to key on yet; the ray.put starts one
        return DictionaryRef(load_dictionary_rows(path))
    ctx = ray.get_runtime_context()
    key = (content_sha256(path), ctx.get_node_id(), ctx.get_job_id())
    ref = _DICTIONARY_REF.get(key)
    if ref is None:
        ref = DictionaryRef(load_dictionary_rows(path))
        _DICTIONARY_REF.clear()
        _DICTIONARY_REF[key] = ref
    return ref


def bucketed_extraction(
    transcripts_path: str | None,
    dictionary_path: str | None = None,
    *,
    extractor: str = "gazetteer",
    answers_path: str | None = None,
    validate: str | None = "quarantine",
    transcripts_ds: "ray.data.Dataset | None" = None,
    dict_rows: list[dict] | None = None,
    n_buckets: int | None = None,
    chat_fn_factory=None,
    prompt_text: str | None = None,
    answer_format: str = "structured-text",
    prompt_template=None,
    skip_buckets=(),
    gold: dict | None = None,
):
    """``(rows, kernel)`` of one extractor: a lazy Dataset whose rows carry
    the job-bucket column, and the block kernel that turns a block of
    whole buckets into their triples, with ``bucket``, in file order.
    Rows of ``skip_buckets`` are dropped right after bucketing, so they
    cost no extraction.

    validate="quarantine" (default) keeps the gazetteer and llm paths'
    invalid turns as rows tagged QUARANTINED in ``schema.TAG`` (null on
    the rows the kernel takes); "strict" raises on one, None checks
    nothing.  The answers path never validates.

    ``gold`` (``{gate: path}``) adds the gold rows of each gate
    (``evaluate.gold_rows``), bucketed and filtered the same way; every
    source is then conformed to one schema (the extractor's rows plus
    ``evaluate.EVAL_SCHEMA``) before the one union, so the union never
    has to unify two and each source's maps fuse into its read.

    extractor="gazetteer": broadcast-dictionary mention detection (the
    production path; dictionary_path or dict_rows required).
    extractor="answers": recorded structured-text/JSON answers parsed
    with exact reference semantics (parity path; answers_path required).
    extractor="llm": chat-model recognition per conversation
    (chat_fn_factory required; ``prompt_template``, a pre-built
    Prompt/TwoPartPrompt, replaces the one built from ``prompt_text`` and
    ``answer_format``; see :func:`make_llm_bucket_extractor`).

    n_buckets=None sizes the exchange to the cluster (auto_n_buckets):
    with only ~2 buckets/core the largest bucket straggles its kernel
    (measured 0-477k rows across 64 buckets at 12M turns — a 5.9s tail
    vs 2.6s mean task); ~8/core smooths the tail.  ``run_kg_job``
    passes its own bucket count, so its bucket files are its buckets.
    """
    if n_buckets is None:
        n_buckets = auto_n_buckets()
    if validate not in (None, "strict", "quarantine"):
        raise ValueError(f"unknown validate mode {validate!r}")
    quarantine = validate == "quarantine"

    def bucketed(ds: ray.data.Dataset) -> ray.data.Dataset:
        return bucketed_rows(ds, n_buckets, skip_buckets)

    def exchanged(*sources: ray.data.Dataset) -> ray.data.Dataset:
        if gold:
            from .evaluate import EVAL_SCHEMA, gold_rows

            fields = row_schema(extractor)
            both = pa.schema(
                list(fields) + [f for f in EVAL_SCHEMA if f.name not in fields.names]
            )

            def conform(batch: pa.Table) -> pa.Table:
                return conform_batch(batch, both)

            sources = [
                ds.map_batches(conform, batch_format="pyarrow")
                for ds in (*sources, *(bucketed(gold_rows(g, p)) for g, p in gold.items()))
            ]
        return sources[0].union(*sources[1:]) if len(sources) > 1 else sources[0]

    def transcripts(columns=None) -> ray.data.Dataset:
        ds = transcripts_ds
        if ds is None:
            ds = read_transcripts(transcripts_path, columns=columns)
        return validate_transcripts(ds, mode="strict") if validate == "strict" else ds

    if extractor == "answers":
        if answers_path is None:
            raise ValueError("answers_path required for extractor='answers'")
        # honor a caller-supplied source Dataset (e.g. run_kg_job with
        # input_format="jsonl") — the parquet reader would crash on a
        # JSONL path with a misleading error (ADVICE r3)
        if transcripts_ds is not None:
            tds = transcripts_ds.map_batches(
                lambda t: conform_batch(t, _ROLE_SCHEMA), batch_format="pyarrow"
            )
        else:
            tds = read_transcripts(transcripts_path, columns=_ROLE_COLUMNS)
        rows = exchanged(bucketed(tds), bucketed(answers_as_rows(answers_path)))
        return rows, conversation_kernel(parse_answer_group)

    if extractor == "llm":
        if chat_fn_factory is None:
            raise ValueError("chat_fn_factory required for extractor='llm'")
        kernel = make_llm_bucket_extractor(
            chat_fn_factory,
            prompt_text=prompt_text,
            answer_format=answer_format,
            prompt_template=prompt_template,
        )
        rows = transcripts(_ROLE_COLUMNS)
        if quarantine:
            rows = validate_transcripts(rows, mode="tag")
        return exchanged(bucketed(rows)), conversation_kernel(kernel)

    if extractor != "gazetteer":
        raise ValueError(f"unknown extractor {extractor!r}")
    if dict_rows is not None:
        dict_ref = DictionaryRef(dict_rows)
    elif dictionary_path is not None:
        dict_ref = dictionary_ref(dictionary_path)
    else:
        raise ValueError("dictionary_path or dict_rows required")
    # elastic stateless tasks over whole read blocks (the read is already
    # sized by sources.transcripts.auto_num_blocks); the matcher is cached
    # per worker process by the dictionary's content, across jobs
    mentions = bucketed(transcripts()).map_batches(
        make_mention_detector(dict_ref, quarantine=quarantine),
        batch_format="pyarrow",
    )
    return exchanged(mentions), make_conversation_assembler(dict_ref)


def make_llm_bucket_extractor(
    chat_fn_factory,
    *,
    prompt_text: str | None = None,
    answer_format: str = "structured-text",
    prompt_template=None,
):
    """Per-conversation walk of the llm extractor (reference main flow:
    SAD -> chat-model recognizer -> entities,
    NamedEntityRecognizer.java:57-81); :func:`conversation_kernel` makes
    it the extractor's block kernel.

    LLM extraction needs every turn's text per conversation, so full
    rows enter the exchange — inherent to the operator, and the reason
    the gazetteer path is the default at scale.  Each block builds the
    chat backend ONCE via ``chat_fn_factory()`` (e.g. ``lambda:
    ChatModelFactory.with_provider(...).build()``) and walks its
    conversations; parse failures repair-retry once and then dead-letter
    per conversation (stages/llm.LLMExtractor.extract).
    """
    from ..stages.llm import LLMExtractor, Prompt

    base_prompt = prompt_text or "Identify all COMPONENT entities in the text."

    def extract_bucket(group: pa.Table) -> pa.Table:
        chat_fn = chat_fn_factory()
        # each Ray task deserializes its own copy of prompt_template
        prompt = prompt_template or Prompt(base_prompt, answer_format)
        ex = LLMExtractor(chat_fn, prompt)
        group = group.sort_by(
            [("conv_id", "ascending"), ("turn_idx", "ascending")]
        )
        conv = group["conv_id"].to_pylist()
        texts = group["text"].to_pylist()
        outs = []
        i, n = 0, len(conv)
        while i < n:
            j = i
            while j < n and conv[j] == conv[i]:
                j += 1
            lines = [t for t in texts[i:j] if t is not None]
            outs.append(ex.extract(conv[i], lines))
            i = j
        if not outs:
            return schema.TRIPLES.empty_table()
        return pa.concat_tables(outs)

    return extract_bucket


def split_errors(triples: ray.data.Dataset):
    """(ok, dead_letter) split on the __error__ sentinel predicate."""
    ok = triples.map_batches(
        lambda t: t.filter(pc.not_equal(t["pred"], "__error__")), batch_format="pyarrow"
    )
    bad = triples.map_batches(
        lambda t: t.filter(pc.equal(t["pred"], "__error__")), batch_format="pyarrow"
    )
    return ok, bad


def auto_n_buckets() -> int:
    """Shuffle-bucket count sized to the cluster: ~8 buckets/core
    (tail-smoothing headroom), floor 64, capped at 4096 so the
    groupby's dispatch stays O(thousands) even on a 256-node cluster."""
    cpus = 8.0
    if ray.is_initialized():
        cpus = ray.cluster_resources().get("CPU", 8.0)
    return int(min(4096, max(64, 8 * int(cpus))))


def bucketed_rows(
    ds: ray.data.Dataset, n_buckets: int, skip_buckets=()
) -> ray.data.Dataset:
    """:func:`add_bucket`, then drop the rows of ``skip_buckets``."""
    ds = add_bucket(ds, n_buckets)
    if not skip_buckets:
        return ds
    skip = pa.array(sorted(skip_buckets), pa.int32())
    return ds.map_batches(
        lambda t: t.filter(pc.invert(pc.is_in(t["bucket"], value_set=skip))),
        batch_format="pyarrow",
    )


def add_bucket(ds: ray.data.Dataset, n_buckets: int) -> ray.data.Dataset:
    """Job-bucket column ``hash_u32(conv_id) % n_buckets`` (FNV-1a, stable
    across processes) — the one place conv ids are hashed into buckets.
    Hashed per DISTINCT value via dictionary encoding — conv ids repeat
    ~100x per block, so the python hash runs on the dictionary, not the
    rows."""
    import numpy as np

    def bucketize(batch: pa.Table) -> pa.Table:
        enc = batch["conv_id"].combine_chunks().dictionary_encode()
        ub = np.array(
            [hash_u32(v) % n_buckets for v in enc.dictionary.to_pylist()],
            np.int32,
        )
        buckets = pa.array(ub[enc.indices.to_numpy()], pa.int32())
        return batch.append_column("bucket", buckets)

    return ds.map_batches(bucketize, batch_format="pyarrow")


def row_schema(extractor: str) -> pa.Schema:
    """Schema of the rows ``bucketed_extraction`` hands to the exchange
    with its default validation."""
    if extractor == "gazetteer":
        return TAGGED_MENTION_SCHEMA
    fields = [*_ROLE_SCHEMA, pa.field("bucket", pa.int32())]
    if extractor == "llm":
        fields.append(pa.field(schema.TAG, pa.string()))
    return pa.schema(fields)


def conversation_nodes(triples: pa.Table) -> pa.Table:
    """The conversation nodes of bucketed ``triples``: one per distinct
    ``mentionedIn`` object, with its bucket, in file order."""
    mentioned = triples.filter(pc.equal(triples["pred"], "mentionedIn"))
    convs = mentioned.group_by(["bucket", "obj"]).aggregate([])
    n = convs.num_rows
    nodes = pa.table(
        {
            "bucket": convs["bucket"],
            "node_id": pc.binary_join_element_wise("conv:", convs["obj"], ""),
            "kind": pa.repeat(pa.scalar("conversation"), n),
            "name": convs["obj"],
            "type": pa.repeat(pa.scalar(""), n),
        },
        schema=schema.bucketed(schema.NODES),
    )
    return file_order(nodes)


def entity_nodes(pairs: pa.Table) -> pa.Table:
    """One entity node per distinct ``name`` of the ``(name, type)`` pairs;
    a name with two types keeps the smallest, so the pick never depends
    on arrival order."""
    ent = pairs.group_by("name").aggregate([("type", "min")]).sort_by("name")
    return pa.table(
        {
            "node_id": pc.binary_join_element_wise("entity:", ent["name"], ""),
            "kind": pa.repeat(pa.scalar("entity"), ent.num_rows),
            "name": ent["name"],
            "type": ent["type_min"],
        },
        schema=schema.NODES,
    )


def _by_bucket(table: pa.Table) -> pa.Table:
    """``table``'s rows ordered by bucket (stable)."""
    return table.take(np.argsort(table["bucket"].to_numpy(), kind="stable"))


def make_job_kernel(kernel, gates):
    """Block kernel of ``run_kg_job``, run once per exchange block by the
    bucket writer.

    The tagged rows (``schema.TAG``: quarantined turns, gold rows of each
    gate) are split off once per block; ``kernel`` sees the untagged
    rows.  Returns, each with ``bucket`` and in file order, the block's
    triples, its conversation nodes and its quarantined turns (a bucket
    without any writes no file); and, one value per bucket of the block
    (``checkpoint.block_buckets``), its distinct ``hasType`` pairs as
    ``entity_names``/``entity_types`` lists and, per gate, its
    ``<gate>_tp``, ``_fp`` and ``_fn`` counted on the bucket's non-error
    triples."""
    from ..state.checkpoint import block_buckets, bucket_bounds
    from .evaluate import GATES

    quarantine_schema = schema.bucketed(schema.QUARANTINE)

    def job_block(block: pa.Table) -> dict:
        buckets = block_buckets(block)
        quarantine, gold = quarantine_schema.empty_table(), {}
        if schema.TAG in block.column_names:
            tags = block[schema.TAG]
            quarantine = block.filter(pc.equal(tags, QUARANTINED))
            quarantine = quarantine.select(quarantine_schema.names).cast(quarantine_schema)
            gold = {
                g: _by_bucket(
                    block.filter(pc.equal(tags, g)).select(schema.BUCKETED_TRIPLES.names)
                )
                for g in gates
            }
            block = block.filter(pc.is_null(tags)).drop_columns([schema.TAG])
        triples = kernel(block) if block.num_rows else schema.BUCKETED_TRIPLES.empty_table()
        errors = pc.equal(triples["pred"], "__error__")
        ok = triples.filter(pc.invert(errors)) if pc.any(errors).as_py() else triples
        types = ok.filter(pc.equal(ok["pred"], "hasType"))
        pairs = _by_bucket(types.group_by(["bucket", "subj", "obj"]).aggregate([]))
        offsets = np.append(bucket_bounds(pairs, buckets)[0], pairs.num_rows)
        offsets = pa.array(offsets, pa.int32())
        out = {
            "triples": triples,
            "nodes": conversation_nodes(ok),
            "quarantine": file_order(quarantine),
            "entity_names": pa.ListArray.from_arrays(offsets, pairs["subj"].combine_chunks()),
            "entity_types": pa.ListArray.from_arrays(offsets, pairs["obj"].combine_chunks()),
        }
        starts, ends = bucket_bounds(ok, buckets)
        ok = ok.drop_columns(["bucket"])
        for g in gates:
            g_starts, g_ends = bucket_bounds(gold[g], buckets)
            g_rows = gold[g].drop_columns(["bucket"])
            counts = np.array(
                [
                    GATES[g](ok.slice(s, e - s), g_rows.slice(gs, ge - gs))
                    for s, e, gs, ge in zip(starts, ends, g_starts, g_ends)
                ],
                np.int64,
            ).reshape(-1, 3)
            for k, col in zip(("tp", "fp", "fn"), counts.T):
                out[f"{g}_{k}"] = pa.array(col, pa.int64())
        return out

    return job_block


def run_kg_job(
    transcripts_path: str,
    dictionary_path: str | None,
    out_root: str,
    *,
    extractor: str = "gazetteer",
    answers_path: str | None = None,
    chat_fn_factory=None,
    prompt_text: str | None = None,
    answer_format: str = "structured-text",
    n_buckets: int = 16,
    resume: bool = True,
    canonicalize: bool = False,
    annotations_path: str | None = None,
    expected_path: str | None = None,
    input_format: str = "parquet",
) -> dict:
    """Checkpointed KG job: triples + nodes + quarantine + dead-letter,
    resumable per bucket, from one read of the transcripts.

    Stage "triples": one exchange, a sort by the job bucket.  The
    extraction kernel runs once per exchange block inside the writer
    (:func:`make_job_kernel`), which writes each bucket's triples, its
    conversation nodes
    (``nodes/bucket=b``) and, on the gazetteer and llm paths, its turns
    that fail the SAD format rule (``quarantine/bucket=b``, if any) to
    temp dirs, and counts its tp/fp/fn for each evaluation gate
    (``expected_path``, ``annotations_path``); quarantined turns and gold
    rows ride the exchange as tagged rows.  The job then renames the
    quarantine, nodes and triples into place, marks them with row
    counts, lineage and the gate counts, and saves MANIFEST.json once
    for the stage: the triples mark is the bucket's commit point.  It
    then writes one entity-node file (``nodes/bucket=<n_buckets>``) from
    the buckets' ``(name, type)`` pairs and sums the counts into
    metrics.json.  On resume, completed buckets are dropped right after
    bucketing, BEFORE extraction, so their compute is skipped entirely:
    their counts come from their marks and their entity pairs from their
    own triples files.  ``resume=False`` forgets every stage of an
    earlier run first.
    Canonicalization (optional) runs in this process on the entity-node
    file's names (``stages/canon.canonical_labels``), the same way on a
    fresh run and on a resume, and starts no Ray Data execution.

    At 100 TB scale the same layout holds: buckets are key ranges of
    conv hash, each an independent re-runnable unit.
    """
    import json
    import os
    import shutil

    import pyarrow.parquet as pq

    from ..state.checkpoint import (
        Manifest,
        bucket_dir,
        code_sha256,
        content_sha256,
        files_fingerprint,
        finalize_bucket,
        make_bucket_writer,
        sweep_orphan_tmpdirs,
        write_bucket_atomic,
    )
    from .evaluate import GATES, _metrics

    manifest = Manifest(out_root)
    # refuse a resume whose inputs differ from the manifest's recorded
    # lineage: a changed extractor/input/prompt/code would otherwise skip
    # every done bucket and re-emit the previous run's triples, and a
    # changed bucket count re-plans conversations into buckets already
    # marked done; the done buckets' evaluation counts are kept in their
    # marks, so a changed gold file must raise too
    manifest.record_job_lineage(
        {
            "code_sha256": code_sha256(),
            "transcripts": transcripts_path,
            "transcripts_files": files_fingerprint(transcripts_path),
            "dictionary": dictionary_path,
            "dictionary_sha256": content_sha256(dictionary_path),
            "n_buckets": n_buckets,
            "extractor": extractor,
            "answers": answers_path,
            "answers_files": files_fingerprint(answers_path),
            "answer_format": answer_format,
            "prompt_text": prompt_text,
            "input_format": input_format,
            "expected_files": files_fingerprint(expected_path),
            "annotations_files": files_fingerprint(annotations_path),
        },
        resume=resume,
    )
    if input_format not in ("parquet", "jsonl"):
        raise ValueError(f"unknown input_format: {input_format!r}")

    if not resume:
        manifest.reset()
        # outputs written beside the manifest's stages
        shutil.rmtree(os.path.join(out_root, "canonical_labels"), ignore_errors=True)
        if os.path.exists(os.path.join(out_root, "metrics.json")):
            os.remove(os.path.join(out_root, "metrics.json"))
    sweep_orphan_tmpdirs(out_root)
    done = manifest.done_buckets("triples")
    todo = [b for b in range(n_buckets) if b not in done]
    counters = {"buckets_skipped": len(done), "buckets_computed": len(todo)}
    gates = {
        g: p
        for g, p in (("parity_vs_expected", expected_path), ("eval_vs_annotations", annotations_path))
        if p
    }
    # the validating extractors keep the turns that fail the format rule
    quarantines = extractor != "answers"
    triples_lineage = {"input": transcripts_path, "extractor": extractor}
    nodes_lineage = {"input": "triples/bucket=b"}
    quarantine_lineage = {"rule": "S3 [.!?]$"}
    # (name, type) pairs of hasType triples, from every bucket
    entity_names: list[str] = []
    entity_types: list[str] = []

    if todo:
        transcripts_ds = None
        if input_format == "jsonl":
            from ..sources.transcripts import read_transcripts_jsonl

            transcripts_ds = read_transcripts_jsonl(transcripts_path)
        bucket_rows, kernel = bucketed_extraction(
            transcripts_path,
            dictionary_path,
            extractor=extractor,
            answers_path=answers_path,
            chat_fn_factory=chat_fn_factory,
            prompt_text=prompt_text,
            answer_format=answer_format,
            transcripts_ds=transcripts_ds,
            n_buckets=n_buckets,
            skip_buckets=done,
            gold=gates,
        )
        # The one exchange: each block of whole buckets is extracted,
        # counted and written to temp dirs by the worker holding it.  This
        # process only handles summary rows — renames + manifest marks,
        # never triple data (at 100 TB the edge table is TBs; the round-1
        # ray.get+concat path OOMs).
        writes = bucket_rows.sort("bucket").map_batches(
            make_bucket_writer(
                out_root, "triples", make_job_kernel(kernel, gates), sparse=("quarantine",)
            ),
            batch_format="pyarrow",
            batch_size=None,
        )
        # a job without a single exchanged row yields no summary rows
        summary = {}
        for r in writes.take_all():
            b = int(r["bucket"])
            if b in summary:
                raise RuntimeError(
                    f"bucket {b} left the exchange in two blocks; its outputs would "
                    "be written twice"
                )
            summary[b] = r
        for b in todo:
            row = summary.get(b)
            if row is None:
                # buckets with no rows never reach the writer — mark them
                # with empty partitions so resume doesn't re-plan them
                row = {"rows": 0, "errors": 0, "nodes_rows": 0, "quarantine_tmp": None,
                       "quarantine_rows": 0, "entity_names": [], "entity_types": []}
                row.update({f"{g}_{k}": 0 for g in gates for k in ("tp", "fp", "fn")})
                write_bucket_atomic(schema.NODES.empty_table(), out_root, "nodes", b)
                write_bucket_atomic(schema.TRIPLES.empty_table(), out_root, "triples", b)
            else:
                finalize_bucket(out_root, "nodes", b, row["nodes_tmp"], int(row["nodes_rows"]))
                finalize_bucket(out_root, "triples", b, row["tmp"], int(row["rows"]))
            if quarantines:
                if row["quarantine_tmp"]:
                    finalize_bucket(out_root, "quarantine", b, row["quarantine_tmp"], 0)
                else:
                    # no file: not even one left by an earlier, crashed run
                    shutil.rmtree(bucket_dir(out_root, "quarantine", b), ignore_errors=True)
                manifest.mark_bucket(
                    "quarantine", b, int(row["quarantine_rows"]), lineage=quarantine_lineage
                )
            manifest.mark_bucket("nodes", b, int(row["nodes_rows"]), lineage=nodes_lineage)
            manifest.mark_bucket(
                "triples",
                b,
                int(row["rows"]),
                lineage={**triples_lineage, "errors": int(row["errors"])},
                counts={
                    g: {k: int(row[f"{g}_{k}"]) for k in ("tp", "fp", "fn")} for g in gates
                },
            )
            entity_names += row["entity_names"]
            entity_types += row["entity_types"]
        manifest.set_counter("triples", "rows_written", sum(
            v["rows"] for v in manifest.stage("triples")["buckets"].values()
        ))
        manifest.save()
        # every write has landed; a writer task that Ray retried after its
        # worker died may have left the temp dirs of its first attempt
        sweep_orphan_tmpdirs(out_root)

    # the entity nodes: one file of distinct names over every bucket's
    # (name, type) pairs; a skipped bucket's pairs come from the
    # hasType rows of its own triples file
    if todo or n_buckets not in manifest.done_buckets("nodes"):
        for b in sorted(done):
            t = pq.read_table(
                bucket_dir(out_root, "triples", b), columns=["subj", "pred", "obj"]
            )
            t = t.filter(pc.equal(t["pred"], "hasType"))
            entity_names += t["subj"].to_pylist()
            entity_types += t["obj"].to_pylist()
        pairs = pa.table(
            {"name": pa.array(entity_names, pa.string()),
             "type": pa.array(entity_types, pa.string())}
        )
        rows = write_bucket_atomic(entity_nodes(pairs), out_root, "nodes", n_buckets)
        manifest.mark_bucket("nodes", n_buckets, rows, lineage={"input": "triples/*/hasType"})
        manifest.save()

    # stage 3 (optional): cross-corpus canonicalization of the node
    # table's entity names — union-find over name-pool similarity edges,
    # in this process, which wrote those names; it writes the labels (one
    # row per name) and the (node, sameAs, label) edges of the
    # non-identity labels
    if canonicalize and 0 not in manifest.done_buckets("canon"):
        from ..stages.canon import canonical_labels

        labels = canonical_labels(
            pq.read_table(bucket_dir(out_root, "nodes", n_buckets), columns=["name"])
        )
        same = labels.filter(pc.not_equal(labels["node"], labels["label"]))
        n = same.num_rows
        same_as = pa.table(
            {
                "subj": same["node"],
                "pred": pa.repeat("sameAs", n),
                "obj": same["label"],
                "conv_id": pa.repeat("", n),
                "turn_idx": pa.nulls(n, pa.int32()),
                "ref_type": pa.nulls(n, pa.string()),
            },
            schema=schema.TRIPLES,
        )
        # an empty table is an empty bucket dir, with no file
        for stage, table in (("canonical_labels", labels), ("canon", same_as)):
            if table.num_rows:
                write_bucket_atomic(table, out_root, stage, 0)
            else:
                os.makedirs(bucket_dir(out_root, stage, 0), exist_ok=True)
        manifest.mark_bucket("canon", 0, n, lineage={"labels_rows": labels.num_rows})
        manifest.save()
        counters["same_as_edges"] = n

    # evaluation: P/R vs reference annotations (J3 name-pool matching)
    # and/or vs expected triples (parity gate), summed from the per-bucket
    # counts of the triples marks; written beside the outputs and
    # recorded in the manifest
    if gates:
        marks = manifest.stage("triples")["buckets"].values()
        metrics = {
            g: _metrics(*(sum(m["counts"][g][k] for m in marks) for k in ("tp", "fp", "fn")))
            for g in GATES
            if g in gates
        }
        with open(os.path.join(out_root, "metrics.json"), "w") as f:
            json.dump(metrics, f, indent=2)
        for group, vals in metrics.items():
            for k, v in vals.items():
                manifest.set_counter("eval", f"{group}.{k}", float(v))
        manifest.save()
        counters["metrics"] = metrics

    counters["triples_rows"] = sum(
        v["rows"] for v in manifest.stage("triples")["buckets"].values()
    )
    if quarantines:
        counters["quarantined_rows"] = sum(
            v["rows"] for v in manifest.stage("quarantine")["buckets"].values()
        )
    return counters
