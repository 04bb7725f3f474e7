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
checkpointed job: finished buckets are dropped right after
``add_bucket`` (before any extraction), and each bucket's kernel runs
inside ``make_bucket_writer``, so the worker that assembled a bucket
sorts and writes it atomically; the driver records per-bucket lineage
and counters (state/checkpoint.py).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .. import schema
from ..hashing import hash_u32
from ..sources.gazetteer import load_dictionary_rows
from ..sources.transcripts import read_transcripts, validate_transcripts
from ..stages.answers import answers_as_rows, parse_answer_group
from ..stages.extract import (
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
        ds = add_bucket(ds, n_buckets)
        if not skip_buckets:
            return ds
        skip = pa.array(sorted(skip_buckets), pa.int32())
        return ds.map_batches(
            lambda t: t.filter(pc.invert(pc.is_in(t["bucket"], value_set=skip))),
            batch_format="pyarrow",
        )

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


def nodes_from_triples(
    triples: ray.data.Dataset, n_buckets: int = 64
) -> ray.data.Dataset:
    """Distinct entity + conversation nodes from the edge set.

    Bucket-run dedup: per-batch partial dedup emits a node-id-hash
    bucket, the groupby dispatches O(n_buckets) groups, and each kernel
    dedups its bucket vectorized — never one Ray group per node_id
    (unbounded-cardinality dispatch, the repo's banned pattern)."""

    def partial(batch: pa.Table) -> pa.Table:
        ent = batch.filter(pc.equal(batch["pred"], "hasType"))
        conv = batch.filter(pc.equal(batch["pred"], "mentionedIn"))
        rows = [
            {"node_id": f"entity:{s}", "kind": "entity", "name": s, "type": t}
            for s, t in set(zip(ent["subj"].to_pylist(), ent["obj"].to_pylist()))
        ] + [
            {"node_id": f"conv:{c}", "kind": "conversation", "name": c, "type": ""}
            for c in set(conv["obj"].to_pylist())
        ]
        tbl = pa.Table.from_pylist(rows, schema=schema.NODES)
        bucket = pa.array(
            [hash_u32(n) % n_buckets for n in tbl["node_id"].to_pylist()], pa.int32()
        )
        return tbl.append_column("bucket", bucket)

    def dedup_bucket(group: pa.Table) -> pa.Table:
        group = group.sort_by([("node_id", "ascending")])
        ids = group["node_id"].to_pylist()
        keep = [i for i, n in enumerate(ids) if i == 0 or n != ids[i - 1]]
        return group.take(keep).drop_columns(["bucket"])

    parts = triples.map_batches(partial, batch_format="pyarrow")
    return parts.groupby("bucket").map_groups(dedup_bucket, batch_format="pyarrow")


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
    extraction kernel runs inside the writer, which writes the bucket
    atomically (temp-dir rename); the driver records it in MANIFEST.json
    with row counts and lineage.  On resume, completed buckets are
    dropped right after bucketing, BEFORE extraction, so their compute
    is skipped entirely; ``resume=False`` forgets every stage of an
    earlier run first.  Stage "nodes" derives the node table from the
    written edge partitions.

    At 100 TB scale the same layout holds: buckets are key ranges of
    conv hash, each an independent re-runnable unit.
    """
    import os
    import shutil

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

    manifest = Manifest(out_root)
    # refuse a resume whose inputs differ from the manifest's recorded
    # lineage: a changed extractor/input/prompt/code would otherwise skip
    # every done bucket and re-emit the previous run's triples, and a
    # changed bucket count re-plans conversations into buckets already
    # marked done
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
        # The one exchange: each bucket group is extracted and written to
        # a temp dir by the worker holding it.  The driver only handles
        # (bucket, rows, errors, tmp) summary rows — rename + manifest
        # mark, never triple data (at 100 TB the edge table is TBs; the
        # round-1 ray.get+concat path OOMs).
        writes = bucket_rows.groupby("bucket").map_groups(
            make_bucket_writer(out_root, "triples", kernel), batch_format="pyarrow"
        )
        # a job without a single extracted row yields no summary rows
        summary = sorted(writes.take_all(), key=lambda r: r["bucket"])
        for row in summary:
            b = int(row["bucket"])
            finalize_bucket(out_root, "triples", b, row["tmp"], int(row["rows"]))
            manifest.mark_bucket(
                "triples",
                b,
                int(row["rows"]),
                lineage={
                    "input": transcripts_path,
                    "extractor": extractor,
                    "errors": int(row["errors"]),
                },
            )
        # buckets with no rows never reach the writer kernel — mark them
        # with an empty partition so resume doesn't re-plan them
        for b in set(todo) - {int(r["bucket"]) for r in summary}:
            rows = write_bucket_atomic(
                pa.Table.from_pylist([], schema=schema.TRIPLES), out_root, "triples", b
            )
            manifest.mark_bucket(
                "triples", b, rows,
                lineage={"input": transcripts_path, "extractor": extractor, "errors": 0},
            )
        manifest.set_counter("triples", "rows_written", sum(
            v["rows"] for v in manifest.stage("triples")["buckets"].values()
        ))

    # stage 2: node table from the checkpointed edge partitions
    import glob as _glob

    edge_files = [
        f
        for b in sorted(manifest.done_buckets("triples"))
        if os.path.isdir(bucket_dir(out_root, "triples", b))
        for f in sorted(_glob.glob(os.path.join(bucket_dir(out_root, "triples", b), "*.parquet")))
    ]

    def _ok_edges():
        nb = max(1, sum(os.path.getsize(f) for f in edge_files) // (64 * 1024 * 1024)) \
            if edge_files else 1
        nb = max(nb, min(len(edge_files), 32))
        # explicit columns: the bucket=N directories add no partition column
        ok, _bad = split_errors(
            ray.data.read_parquet(
                edge_files, columns=schema.TRIPLES.names, override_num_blocks=nb
            )
        )
        return ok

    if edge_files and not manifest.stage_complete("nodes", 1):
        rows = write_stage_dataset_atomic(
            nodes_from_triples(_ok_edges()), out_root, "nodes", 0
        )
        manifest.mark_bucket("nodes", 0, rows, lineage={"input": "triples/*"})
    # stage 3 (optional): cross-corpus canonicalization of the node
    # table's entity names — union-find over name-pool similarity edges;
    # materialized as a labels table plus (node, sameAs, label) edges for
    # non-identity labels
    if canonicalize and edge_files and not manifest.stage_complete("canon", 1):
        from ..stages.canon import canonical_labels

        node_files = sorted(
            _glob.glob(os.path.join(bucket_dir(out_root, "nodes", 0), "*.parquet"))
        )
        names_ds = (
            ray.data.read_parquet(
                node_files, columns=["kind", "name"], filter=pc.field("kind") == "entity"
            )
            if node_files  # an empty node table is written as no file
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

    # stage 4 (optional): evaluation job — P/R vs reference annotations
    # (J3 name-pool matching) and/or vs expected triples (parity gate);
    # metrics written beside the outputs and recorded in the manifest
    if (annotations_path or expected_path) and edge_files:
        import json as _json

        from .evaluate import eval_vs_annotations, eval_vs_expected

        metrics: dict = {}
        if expected_path:
            metrics["parity_vs_expected"] = eval_vs_expected(_ok_edges(), expected_path)
        if annotations_path:
            metrics["eval_vs_annotations"] = eval_vs_annotations(
                _ok_edges(), annotations_path
            )
        with open(os.path.join(out_root, "metrics.json"), "w") as f:
            _json.dump(metrics, f, indent=2)
        for group, vals in metrics.items():
            for k, v in vals.items():
                manifest.add_counter("eval", f"{group}.{k}", float(v))
        counters["metrics"] = metrics

    counters["triples_rows"] = sum(
        v["rows"] for v in manifest.stage("triples")["buckets"].values()
    )
    return counters
