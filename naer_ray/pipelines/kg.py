"""The flagship KG-construction pipeline (SURVEY.md §3.4).

Every extractor has one shape: rows that carry a ``bucket`` column,
``hash_u32(conv_id) % n_buckets`` computed once by :func:`add_bucket`,
plus a per-bucket kernel that turns one bucket's rows into triples::

    gazetteer  read_parquet(transcripts, columns=3)   # prune at the read
                 -> validate (vectorized regex, quarantine)
                 -> add_bucket
                 -> mention detection map_batches     # per turn, NO shuffle
               kernel: per-bucket anaphora + triple assembly
    answers    transcripts ∪ recorded answers -> add_bucket
               kernel: parse_answer_group (reference parse/resolve/type)
    llm        transcripts -> validate -> add_bucket
               kernel: chat + parse per conversation

    rows.groupby("bucket").map_groups(kernel)         # the one exchange

``build_triples`` returns that triples Dataset.  ``run_kg_job`` is the
checkpointed job, and that exchange is the only Ray Data execution it
needs for triples, nodes and evaluation::

    rows ∪ gold rows of each gate (expected triples, annotations)
         -> add_bucket -> drop finished buckets
    rows.groupby("bucket").map_groups(make_bucket_writer(job_kernel))
         per bucket: triples/bucket=b, nodes/bucket=b (its conversation
         nodes), and in the summary row its (name, type) entity pairs
         and per-gate tp/fp/fn
    then: one entity-node file nodes/bucket=<n_buckets>; metrics.json

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
from ..sources.gazetteer import load_dictionary_rows
from ..sources.transcripts import conform_batch, read_transcripts, validate_transcripts
from ..stages.answers import answers_as_rows, parse_answer_group
from ..stages.extract import (
    MENTION_SCHEMA,
    _empty_triples,
    make_conversation_assembler,
    make_mention_detector,
)

#: the columns the answers and llm extractors read
_ROLE_COLUMNS = ["conv_id", "turn_idx", "role", "text"]


def build_triples(
    transcripts_path: str | None, dictionary_path: str | None = None, **options
) -> ray.data.Dataset:
    """Lazy triples Dataset for any extractor backend: the rows of
    :func:`bucketed_extraction` (which documents ``options``), grouped by
    bucket, each bucket through the extractor's kernel — one exchange."""
    rows, kernel = bucketed_extraction(transcripts_path, dictionary_path, **options)
    return rows.groupby("bucket").map_groups(kernel, batch_format="pyarrow")


def bucketed_extraction(
    transcripts_path: str | None,
    dictionary_path: str | None = None,
    *,
    extractor: str = "gazetteer",
    answers_path: str | None = None,
    validate: str | None = "quarantine",
    batch_size: int | None = None,
    dict_ref=None,
    transcripts_ds: "ray.data.Dataset | None" = None,
    dict_rows: list[dict] | None = None,
    n_buckets: int | None = None,
    chat_fn_factory=None,
    prompt_text: str | None = None,
    answer_format: str = "structured-text",
    skip_buckets=(),
):
    """``(rows, kernel)`` of one extractor: a lazy Dataset whose rows carry
    the job-bucket column, and the kernel that turns one bucket's rows
    (without that column) into triples.  Rows of ``skip_buckets`` are
    dropped right after bucketing, so they cost no extraction.

    extractor="gazetteer": broadcast-dictionary mention detection (the
    production path; dictionary_path, dict_rows or a pre-``ray.put``
    dict_ref required).  extractor="answers": recorded structured-text/
    JSON answers parsed with exact reference semantics (parity path;
    answers_path required).  extractor="llm": chat-model recognition per
    conversation (chat_fn_factory required; see
    :func:`llm_extract_triples`).

    batch_size=None (default) processes whole read blocks — the read is
    already sized to ~64 MB blocks (sources.transcripts.auto_num_blocks),
    so re-slicing into small batches only adds overhead.

    n_buckets=None sizes the exchange to the cluster (auto_n_buckets):
    with only ~2 buckets/core the largest bucket straggles its kernel
    (measured 0-477k rows across 64 buckets at 12M turns — a 5.9s tail
    vs 2.6s mean task); ~8/core smooths the tail.  ``run_kg_job``
    passes its own bucket count, so its bucket files are its groups.
    """
    if n_buckets is None:
        n_buckets = auto_n_buckets()

    def bucketed(ds: ray.data.Dataset) -> ray.data.Dataset:
        return bucketed_rows(ds, n_buckets, skip_buckets)

    def transcripts(columns=None) -> ray.data.Dataset:
        ds = transcripts_ds
        if ds is None:
            ds = read_transcripts(transcripts_path, columns=columns)
        return validate_transcripts(ds, mode=validate) if validate else ds

    if extractor == "answers":
        if answers_path is None:
            raise ValueError("answers_path required for extractor='answers'")
        # honor a caller-supplied source Dataset (e.g. run_kg_job with
        # input_format="jsonl") — the parquet reader would crash on a
        # JSONL path with a misleading error (ADVICE r3)
        if transcripts_ds is not None:

            def _with_role(t: pa.Table) -> pa.Table:
                if "role" not in t.column_names:
                    t = t.append_column("role", pa.nulls(t.num_rows, pa.string()))
                return t.select(_ROLE_COLUMNS)

            tds = transcripts_ds.map_batches(_with_role, batch_format="pyarrow")
        else:
            tds = read_transcripts(transcripts_path, columns=_ROLE_COLUMNS)
        return bucketed(tds.union(answers_as_rows(answers_path))), parse_answer_group

    if extractor == "llm":
        if chat_fn_factory is None:
            raise ValueError("chat_fn_factory required for extractor='llm'")
        kernel = make_llm_bucket_extractor(
            chat_fn_factory, prompt_text=prompt_text, answer_format=answer_format
        )
        return bucketed(transcripts(_ROLE_COLUMNS)), kernel

    if extractor != "gazetteer":
        raise ValueError(f"unknown extractor {extractor!r}")
    if dict_ref is None:
        if dict_rows is not None:
            dict_ref = ray.put(dict_rows)
        elif dictionary_path is not None:
            dict_ref = ray.put(load_dictionary_rows(dictionary_path))
        else:
            raise ValueError("dictionary_path, dict_rows or dict_ref required")
    # elastic stateless tasks; the matcher is cached per worker process
    mentions = bucketed(transcripts()).map_batches(
        make_mention_detector(dict_ref),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    return mentions, make_conversation_assembler(dict_ref)


def llm_extract_triples(
    transcripts_path: str | None,
    chat_fn_factory,
    *,
    prompt_text: str | None = None,
    answer_format: str = "structured-text",
    possible_entities: dict[str, list[str]] | None = None,
    n_buckets: int | None = None,
    transcripts_ds: "ray.data.Dataset | None" = None,
    validate: str | None = "quarantine",
    prompt_template=None,
) -> ray.data.Dataset:
    """LLM-recognizer pipeline path (reference main flow: SAD ->
    chat-model recognizer -> entities, NamedEntityRecognizer.java:57-81)
    as a Ray stage, with the prompt options ``build_triples`` does not
    take (``possible_entities``, ``prompt_template``)."""
    ds = transcripts_ds
    if ds is None:
        ds = read_transcripts(transcripts_path, columns=_ROLE_COLUMNS)
    if validate:
        ds = validate_transcripts(ds, mode=validate)
    rows = add_bucket(ds, n_buckets or auto_n_buckets())
    kernel = make_llm_bucket_extractor(
        chat_fn_factory,
        prompt_text=prompt_text,
        answer_format=answer_format,
        possible_entities=possible_entities,
        prompt_template=prompt_template,
    )
    return rows.groupby("bucket").map_groups(kernel, batch_format="pyarrow")


def make_llm_bucket_extractor(
    chat_fn_factory,
    *,
    prompt_text: str | None = None,
    answer_format: str = "structured-text",
    possible_entities: dict[str, list[str]] | None = None,
    prompt_template=None,
):
    """Per-bucket kernel of the llm extractor.

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
        # prompt_template: a pre-built Prompt/TwoPartPrompt instance
        # (each Ray task deserializes its own copy, so the one-shot
        # entity-injection state never crosses buckets)
        prompt = prompt_template or Prompt(base_prompt, answer_format)
        if possible_entities:
            prompt.add_possible_entities(possible_entities)
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
            return _empty_triples()
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
    """Schema of the rows ``bucketed_extraction`` hands to the exchange."""
    if extractor == "gazetteer":
        return MENTION_SCHEMA
    return pa.schema(
        [schema.TRANSCRIPTS.field(c) for c in _ROLE_COLUMNS] + [("bucket", pa.int32())]
    )


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


def make_job_kernel(kernel, gates, columns):
    """Per-bucket kernel of ``run_kg_job``, run by the bucket writer.

    With ``gates``, the bucket's rows carry the gold rows of each gate
    (tagged in ``evaluate.GATE``); they are split off first and the
    extraction rows cut back to ``columns``.  Returns the bucket's
    triples, its conversation nodes, its distinct ``hasType`` pairs as
    ``entity_names``/``entity_types`` and, per gate, its ``<gate>_tp``,
    ``_fp`` and ``_fn`` counted on the non-error triples."""
    from .evaluate import GATE, GATES, split_gold

    def job_bucket(group: pa.Table) -> dict:
        gold = {}
        if gates:
            gold = {g: split_gold(group, g)[1] for g in gates}
            group = group.filter(pc.is_null(group[GATE])).select(columns)
        triples = kernel(group) if group.num_rows else _empty_triples()
        ok = triples.filter(pc.not_equal(triples["pred"], "__error__"))
        types = ok.filter(pc.equal(ok["pred"], "hasType"))
        pairs = types.group_by(["subj", "obj"]).aggregate([])
        out = {
            "triples": triples,
            "nodes": conversation_nodes(ok),
            "entity_names": pairs["subj"].combine_chunks(),
            "entity_types": pairs["obj"].combine_chunks(),
        }
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
    """Checkpointed KG job: triples + nodes + dead-letter, resumable per bucket.

    Stage "triples": one exchange keyed by the job bucket.  Each bucket's
    extraction kernel runs inside the writer (:func:`make_job_kernel`),
    which writes the bucket's triples and its conversation nodes
    (``nodes/bucket=b``) atomically (temp-dir rename) and counts the
    bucket's tp/fp/fn for each evaluation gate (``expected_path``,
    ``annotations_path``), whose gold rows ride the same exchange.  The
    job then renames the nodes, then the triples, into place and marks
    them in MANIFEST.json with row counts, lineage and the counts — the
    triples mark is the bucket's commit point.  It then writes one
    entity-node file (``nodes/bucket=<n_buckets>``) from the buckets'
    ``(name, type)`` pairs and sums the counts into metrics.json.  On
    resume, completed buckets are dropped right after bucketing, BEFORE
    extraction, so their compute is skipped entirely: their counts come
    from their marks and their entity pairs from their own triples
    files.  ``resume=False`` forgets every stage of an earlier run first.
    Canonicalization (optional) reads the entity-node file.

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
        write_stage_dataset_atomic,
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

    def _read_src():
        if input_format == "jsonl":
            from ..sources.transcripts import read_transcripts_jsonl

            return read_transcripts_jsonl(transcripts_path)
        return read_transcripts(transcripts_path)

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
    triples_lineage = {"input": transcripts_path, "extractor": extractor}
    nodes_lineage = {"input": "triples/bucket=b"}
    # (name, type) pairs of hasType triples, from every bucket
    entity_names: list[str] = []
    entity_types: list[str] = []

    if todo:
        # dead-letter sink: rows failing the SAD format rule are persisted
        # (not silently dropped) with a manifest counter — stage
        # "quarantine".  Applies to every validating extractor (the llm
        # path also drops invalid rows via validate="quarantine", so it
        # gets the same persisted sink, not a silent drop).
        if extractor in ("gazetteer", "llm") and not manifest.stage_complete(
            "quarantine", 1
        ):
            from ..sources.transcripts import invalid_transcripts

            rows = write_stage_dataset_atomic(
                invalid_transcripts(_read_src()),
                out_root,
                "quarantine",
                0,
            )
            manifest.mark_bucket("quarantine", 0, rows, lineage={"rule": "S3 [.!?]$"})
            counters["quarantined_rows"] = rows

        bucket_rows, kernel = bucketed_extraction(
            transcripts_path,
            dictionary_path,
            extractor=extractor,
            answers_path=answers_path,
            chat_fn_factory=chat_fn_factory,
            prompt_text=prompt_text,
            answer_format=answer_format,
            transcripts_ds=_read_src() if input_format != "parquet" else None,
            n_buckets=n_buckets,
            skip_buckets=done,
        )
        columns = None
        if gates:
            fields = row_schema(extractor)
            columns = [n for n in fields.names if n != "bucket"]
            bucket_rows = with_gold_rows(bucket_rows, fields, gates, n_buckets, done)
        # The one exchange: each bucket group is extracted, counted and
        # written to temp dirs by the worker holding it.  This process only
        # handles summary rows — renames + manifest marks, never triple
        # data (at 100 TB the edge table is TBs; the round-1
        # ray.get+concat path OOMs).
        writes = bucket_rows.groupby("bucket").map_groups(
            make_bucket_writer(out_root, "triples", make_job_kernel(kernel, gates, columns)),
            batch_format="pyarrow",
        )
        # a job without a single exchanged row yields no summary rows
        summary = {int(r["bucket"]): r for r in writes.take_all()}
        for b in todo:
            row = summary.get(b)
            if row is None:
                # buckets with no rows never reach the writer — mark them
                # with empty partitions so resume doesn't re-plan them
                row = {"rows": 0, "errors": 0, "nodes_rows": 0,
                       "entity_names": [], "entity_types": []}
                row.update({f"{g}_{k}": 0 for g in gates for k in ("tp", "fp", "fn")})
                write_bucket_atomic(
                    pa.Table.from_pylist([], schema=schema.NODES), out_root, "nodes", b
                )
                write_bucket_atomic(
                    pa.Table.from_pylist([], schema=schema.TRIPLES), out_root, "triples", b
                )
            else:
                finalize_bucket(out_root, "nodes", b, row["nodes_tmp"], int(row["nodes_rows"]))
                finalize_bucket(out_root, "triples", b, row["tmp"], int(row["rows"]))
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

    # stage 3 (optional): cross-corpus canonicalization of the node
    # table's entity names — union-find over name-pool similarity edges;
    # materialized as a labels table plus (node, sameAs, label) edges for
    # non-identity labels
    if canonicalize and not manifest.stage_complete("canon", 1):
        from ..stages.canon import canonical_labels

        entities = manifest.stage("nodes")["buckets"][str(n_buckets)]
        names_ds = (
            ray.data.read_parquet(bucket_dir(out_root, "nodes", n_buckets), columns=["name"])
            if entities["rows"]
            else ray.data.from_arrow(pa.table({"name": pa.array([], pa.string())}))
        )
        # one execution feeds both outputs: labels parquet + sameAs edges
        labels = canonical_labels(names_ds).materialize()
        rows = write_stage_dataset_atomic(labels, out_root, "canonical_labels", 0)

        def to_same_as(batch: pa.Table) -> pa.Table:
            sel = batch.filter(pc.not_equal(batch["node"], batch["label"]))
            n = sel.num_rows
            return pa.table(
                {
                    "subj": sel["node"],
                    "pred": pa.repeat("sameAs", n),
                    "obj": sel["label"],
                    "conv_id": pa.repeat("", n),
                    "turn_idx": pa.nulls(n, pa.int32()),
                    "ref_type": pa.nulls(n, pa.string()),
                },
                schema=schema.TRIPLES,
            )

        same_as_rows = write_stage_dataset_atomic(
            labels.map_batches(to_same_as, batch_format="pyarrow"),
            out_root,
            "canon",
            0,
        )
        manifest.mark_bucket("canon", 0, same_as_rows, lineage={"labels_rows": rows})
        counters["same_as_edges"] = same_as_rows

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
        counters["metrics"] = metrics

    counters["triples_rows"] = sum(
        v["rows"] for v in manifest.stage("triples")["buckets"].values()
    )
    return counters
