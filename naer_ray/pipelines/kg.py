"""The flagship KG-construction pipeline (SURVEY.md §3.4).

Every extractor has one shape: rows that carry a ``bucket`` column,
``hash_u32(conv_id) % n_buckets`` computed once by :func:`add_bucket`,
plus a per-bucket kernel that turns one bucket's rows into triples::

    gazetteer  read_parquet(transcripts, columns=3)   # prune at the read
                 -> add_bucket
                 -> mention detection map_batches     # per turn, NO shuffle;
                    it also tags the invalid turns (format rule)
               kernel: per-bucket anaphora + triple assembly
    answers    transcripts ∪ recorded answers -> add_bucket
               kernel: parse_answer_group (reference parse/resolve/type)
    llm        transcripts -> tag invalid turns -> add_bucket
               kernel: chat + parse per conversation

    rows.groupby("bucket").map_groups(kernel)         # the one exchange

Quarantined turns and, in a job, gold rows ride the exchange tagged in
``schema.TAG``; kernels see only the untagged rows.  ``build_triples``
returns the triples Dataset.  ``run_kg_job`` is the checkpointed job:
it reads the transcripts once, and that exchange is the only execution
it needs for triples, nodes, quarantine and evaluation::

    rows ∪ gold rows of each gate (expected triples, annotations)
         -> add_bucket -> drop finished buckets
    rows.groupby("bucket").map_groups(make_bucket_writer(job_kernel))
         per bucket: triples/bucket=b, nodes/bucket=b (its conversation
         nodes), quarantine/bucket=b (its invalid turns, if any), and in
         the summary row its (name, type) entity pairs and per-gate
         tp/fp/fn
    then, in the driver: one entity-node file nodes/bucket=<n_buckets>;
    canonical_labels and canon from that file (optional); metrics.json

Finished buckets are dropped right after ``add_bucket`` (before any
extraction), and the worker that assembled a bucket sorts and writes
its outputs atomically; ``run_kg_job`` records per-bucket lineage and
counts (state/checkpoint.py).
"""

from __future__ import annotations

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
    of :func:`bucketed_extraction` (which documents ``options``), grouped
    by bucket, each bucket through the extractor's kernel — one exchange."""
    rows, kernel = bucketed_extraction(transcripts_path, dictionary_path, **options)
    untagged = rows.map_batches(_untagged, batch_format="pyarrow")
    return untagged.groupby("bucket").map_groups(kernel, batch_format="pyarrow")


def _untagged(batch: pa.Table) -> pa.Table:
    """The extractor's own rows of a batch (null ``schema.TAG``)."""
    if schema.TAG not in batch.column_names:
        return batch
    return batch.filter(pc.is_null(batch[schema.TAG])).drop_columns([schema.TAG])


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
):
    """``(rows, kernel)`` of one extractor: a lazy Dataset whose rows carry
    the job-bucket column, and the kernel that turns one bucket's rows
    (without that column) into triples.  Rows of ``skip_buckets`` are
    dropped right after bucketing, so they cost no extraction.

    validate="quarantine" (default) keeps the gazetteer and llm paths'
    invalid turns as rows tagged QUARANTINED in ``schema.TAG`` (null on
    the rows the kernel takes); "strict" raises on one, None checks
    nothing.  The answers path never validates.

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
    passes its own bucket count, so its bucket files are its groups.
    """
    if n_buckets is None:
        n_buckets = auto_n_buckets()
    if validate not in (None, "strict", "quarantine"):
        raise ValueError(f"unknown validate mode {validate!r}")
    quarantine = validate == "quarantine"

    def bucketed(ds: ray.data.Dataset) -> ray.data.Dataset:
        return bucketed_rows(ds, n_buckets, skip_buckets)

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
        return bucketed(tds.union(answers_as_rows(answers_path))), parse_answer_group

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
        return bucketed(rows), kernel

    if extractor != "gazetteer":
        raise ValueError(f"unknown extractor {extractor!r}")
    if dict_rows is None:
        if dictionary_path is None:
            raise ValueError("dictionary_path or dict_rows required")
        dict_rows = load_dictionary_rows(dictionary_path)
    dict_ref = DictionaryRef(dict_rows)
    # elastic stateless tasks over whole read blocks (the read is already
    # sized by sources.transcripts.auto_num_blocks); the matcher is cached
    # per worker process by the dictionary's content, across jobs
    mentions = bucketed(transcripts()).map_batches(
        make_mention_detector(dict_ref, quarantine=quarantine),
        batch_format="pyarrow",
    )
    return mentions, make_conversation_assembler(dict_ref)


def make_llm_bucket_extractor(
    chat_fn_factory,
    *,
    prompt_text: str | None = None,
    answer_format: str = "structured-text",
    prompt_template=None,
):
    """Per-bucket kernel of the llm extractor (reference main flow: SAD ->
    chat-model recognizer -> entities, NamedEntityRecognizer.java:57-81).

    LLM extraction needs every turn's text per conversation, so full
    rows enter the exchange — inherent to the operator, and the reason
    the gazetteer path is the default at scale.  Each bucket builds the
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


def with_gold_rows(
    rows: ray.data.Dataset, row_fields: pa.Schema, gates: dict, n_buckets: int, skip_buckets=()
) -> ray.data.Dataset:
    """``rows`` plus the gold rows of every gate (``{gate: path}``), bucketed
    and filtered the same way.  Both sides are conformed to one schema
    (``row_fields`` + ``evaluate.EVAL_SCHEMA``), so the union never has to
    unify two."""
    from .evaluate import EVAL_SCHEMA, gold_rows

    both = pa.schema(
        list(row_fields) + [f for f in EVAL_SCHEMA if f.name not in row_fields.names]
    )

    def conform(batch: pa.Table) -> pa.Table:
        return conform_batch(batch, both)

    out = rows.map_batches(conform, batch_format="pyarrow")
    for gate, path in gates.items():
        gold = bucketed_rows(gold_rows(gate, path), n_buckets, skip_buckets)
        out = out.union(gold.map_batches(conform, batch_format="pyarrow"))
    return out


def conversation_nodes(triples: pa.Table) -> pa.Table:
    """The conversation nodes of ``triples``: one per distinct
    ``mentionedIn`` object."""
    convs = pc.unique(triples.filter(pc.equal(triples["pred"], "mentionedIn"))["obj"])
    n = len(convs)
    return pa.table(
        {
            "node_id": pc.binary_join_element_wise("conv:", convs, ""),
            "kind": pa.repeat(pa.scalar("conversation"), n),
            "name": convs,
            "type": pa.repeat(pa.scalar(""), n),
        },
        schema=schema.NODES,
    )


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


def make_job_kernel(kernel, gates):
    """Per-bucket kernel of ``run_kg_job``, run by the bucket writer.

    The tagged rows (``schema.TAG``: quarantined turns, gold rows of each
    gate) are split off first; ``kernel`` sees the untagged rows.  Returns
    the bucket's triples, its conversation nodes, its quarantined turns
    (``None``, no file, if none), its distinct ``hasType`` pairs as
    ``entity_names``/``entity_types`` and, per gate, its ``<gate>_tp``,
    ``_fp`` and ``_fn`` counted on the non-error triples."""
    from .evaluate import GATES

    def job_bucket(group: pa.Table) -> dict:
        out, gold = {}, {}
        if schema.TAG in group.column_names:
            tags = group[schema.TAG]
            quarantine = group.filter(pc.equal(tags, QUARANTINED))
            quarantine = quarantine.select(schema.QUARANTINE.names).cast(schema.QUARANTINE)
            out["quarantine"] = quarantine if quarantine.num_rows else None
            gold = {
                g: group.filter(pc.equal(tags, g)).select(schema.TRIPLES.names) for g in gates
            }
            group = group.filter(pc.is_null(tags)).drop_columns([schema.TAG])
        triples = kernel(group) if group.num_rows else schema.TRIPLES.empty_table()
        ok = triples.filter(pc.not_equal(triples["pred"], "__error__"))
        types = ok.filter(pc.equal(ok["pred"], "hasType"))
        pairs = types.group_by(["subj", "obj"]).aggregate([])
        out.update(
            triples=triples,
            nodes=conversation_nodes(ok),
            entity_names=pairs["subj"].combine_chunks(),
            entity_types=pairs["obj"].combine_chunks(),
        )
        for g in gates:
            tp, fp, fn = GATES[g](ok, gold[g])
            out.update({f"{g}_tp": tp, f"{g}_fp": fp, f"{g}_fn": fn})
        return out

    return job_bucket


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

    Stage "triples": one exchange keyed by the job bucket.  Each bucket's
    extraction kernel runs inside the writer (:func:`make_job_kernel`),
    which writes the bucket's triples, its conversation nodes
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
        )
        if gates:
            bucket_rows = with_gold_rows(
                bucket_rows, row_schema(extractor), gates, n_buckets, done
            )
        # The one exchange: each bucket group is extracted, counted and
        # written to temp dirs by the worker holding it.  This process only
        # handles summary rows — renames + manifest marks, never triple
        # data (at 100 TB the edge table is TBs; the round-1
        # ray.get+concat path OOMs).
        writes = bucket_rows.groupby("bucket").map_groups(
            make_bucket_writer(out_root, "triples", make_job_kernel(kernel, gates)),
            batch_format="pyarrow",
        )
        # a job without a single exchanged row yields no summary rows
        summary = {int(r["bucket"]): r for r in writes.take_all()}
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
