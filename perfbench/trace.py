"""Span tracing for the traced benchmark run (``--trace 1``).

The library is not instrumented: every span comes from a wrapper that
this module installs around a public entry point, at run time.

* In the driver, :func:`install_driver` intercepts ``Dataset.map_batches``
  and ``GroupedData.map_groups``; each naer_ray kernel handed to them
  (the functions the library's stage factories return) is replaced by a
  timing wrapper, which is pickled into the workers with the plan.  It
  also wraps the driver-side compute of the checkpoint and gazetteer
  modules.
* In every Ray worker, :func:`install_worker` (the session's
  ``worker_process_setup_hook``) wraps the functions those kernels call:
  ``GazetteerMatcher.match_batch``, ``matcher_from_ref``,
  ``refsem.Sad.get_line_number`` (which goes to ``jaccard.best_line``),
  Ray's parquet fragment reader and its parquet writer.

Spans ``{name, start, end, parent, pid, attrs}`` are kept in memory per
process and appended to ``<trace dir>/spans-<pid>.jsonl`` whenever the
outermost span of the process ends.  :func:`collect` reads them back and
gives every span the ``run_id`` of the job whose time window holds it
(``time.perf_counter`` is the system-wide monotonic clock on Linux).
:func:`layer_metrics` turns one job's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
import threading
import time

#: environment variable naming the directory the span files go to
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

# kernels that consume one conv-hash bucket of the triples stage's
# shuffles ("exchanges"): the group each receives is one bucket
EXCHANGE_LAYERS = ("assemble", "answers.parse", "write")

#: per-layer metric names, in report order
PER_LAYER = (
    "transcripts.read.busy_s",
    "transcripts.read.rows",
    "transcripts.read.bytes",
    "transcripts.validate.busy_s",
    "transcripts.validate.rows_out",
    "transcripts.quarantine.busy_s",
    "transcripts.quarantine.rows",
    "gazetteer.load.busy_s",
    "gazetteer.match.busy_s",
    "gazetteer.entries",
    "detect.busy_s",
    "detect.rows_in",
    "detect.rows_out",
    "detect.selectivity",
    "detect.distinct_text_ratio",
    "detect.bytes_out",
    "assemble.busy_s",
    "assemble.rows_out",
    "exchange.count",
    "exchange.rows",
    "exchange.bytes",
    "exchange.busy_s",
    "exchange.bucket_skew",
    "nodes.busy_s",
    "nodes.rows_in",
    "nodes.rows_out",
    "write.busy_s",
    "write.files",
    "write.bytes",
    "manifest.flushes",
    "canon.busy_s",
    "canon.names",
    "canon.edges",
    "answers.parse.busy_s",
    "answers.errors",
    "resolve.calls",
    "resolve.busy_s",
    "resolve.lines_scanned",
    "resolve.hit_ratio",
    "eval.busy_s",
    "eval.keys",
    "other.busy_s",
    "driver.overhead_s",
    "trace.overhead_ratio",
)

#: layers whose busy time is summed against job_s; "other" holds naer_ray
#: kernels outside the named layers and non-transcript parquet reads
BUSY_LAYERS = (
    "transcripts.read",
    "transcripts.validate",
    "transcripts.quarantine",
    "gazetteer.load",
    "gazetteer.match",
    "detect",
    "assemble",
    "nodes",
    "write",
    "canon",
    "answers.parse",
    "resolve",
    "eval",
    "other",
)

_SPANS: list[dict] = []
_LOCAL = threading.local()
_LOCK = threading.Lock()
_COUNTER = [0]
_FLAG = {"on": False, "checked": -1.0}
#: seconds a process may act on a stale view of the on/off flag file
FLAG_TTL = 0.2


def enabled() -> bool:
    """Whether tracing is on: the flag file ``<trace dir>/on`` exists.  The
    wrappers stay installed for the whole session and pass straight
    through while it is off."""
    now = time.monotonic()
    if now - _FLAG["checked"] > FLAG_TTL:
        out_dir = os.environ.get(TRACE_DIR_ENV)
        _FLAG["on"] = bool(out_dir) and os.path.exists(os.path.join(out_dir, "on"))
        _FLAG["checked"] = now
    return _FLAG["on"]


def set_enabled(on: bool) -> None:
    """Turn tracing on or off in every process of the session; returns
    once every worker sees the change."""
    flag = os.path.join(os.environ[TRACE_DIR_ENV], "on")
    if on:
        open(flag, "w").close()
    elif os.path.exists(flag):
        os.remove(flag)
    _FLAG.update(on=on, checked=time.monotonic())
    time.sleep(FLAG_TTL * 1.5)


# ---------------------------------------------------------------- spans


def _stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def begin(name: str) -> dict:
    """Open a span under the innermost open span of this thread."""
    stack = _stack()
    with _LOCK:
        _COUNTER[0] += 1
        sid = _COUNTER[0]
    span = {
        "id": sid,
        "name": name,
        "start": time.perf_counter(),
        "end": None,
        "parent": stack[-1]["id"] if stack else None,
        "pid": os.getpid(),
        "attrs": {},
    }
    stack.append(span)
    return span


def end(span: dict, at: float | None = None, **attrs) -> None:
    """Close ``span`` (at ``at``, default now); when it is the outermost
    one, write the buffer out."""
    span["end"] = time.perf_counter() if at is None else at
    span["attrs"].update(attrs)
    stack = _stack()
    if stack and stack[-1] is span:
        stack.pop()
    with _LOCK:
        _SPANS.append(span)
    if not stack:
        flush()


def flush() -> None:
    """Append the buffered spans of this process to its span file."""
    out_dir = os.environ.get(TRACE_DIR_ENV)
    with _LOCK:
        spans, _SPANS[:] = list(_SPANS), []
    if not out_dir or not spans:
        return
    with open(os.path.join(out_dir, f"spans-{os.getpid()}.jsonl"), "a") as f:
        f.write("".join(json.dumps(s, separators=(",", ":")) + "\n" for s in spans))


def collect(trace_dir: str, windows: list[tuple[int, float, float]]) -> list[dict]:
    """Every span written under ``trace_dir``, each with the ``run_id`` of
    the job window ``(run_id, start, end)`` it falls in (None outside)."""
    flush()
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path) as f:
            spans.extend(json.loads(line) for line in f if line.strip())
    for s in spans:
        s["run_id"] = next(
            (rid for rid, t0, t1 in windows if t0 <= s["start"] and s["end"] <= t1), None
        )
    return spans


# ------------------------------------------------------------- wrappers


def _rows(t) -> int:
    return int(t.num_rows) if hasattr(t, "num_rows") else len(t)


def _nbytes(t) -> int:
    if hasattr(t, "nbytes"):
        return int(t.nbytes)
    return int(t.memory_usage(index=False, deep=False).sum())


def _distinct_texts(batch) -> int:
    import pyarrow.compute as pc

    return int(pc.count_distinct(batch["text"]).as_py())


def _errors(t) -> int:
    import pyarrow.compute as pc

    return int(pc.sum(pc.equal(t["pred"], "__error__").cast("int64")).as_py() or 0)


def kernel_layer(fn) -> str | None:
    """Layer of a naer_ray kernel function, or None for anything else."""
    mod = getattr(fn, "__module__", None) or ""
    qual = getattr(fn, "__qualname__", "")
    if not mod.startswith("naer_ray.") or isinstance(fn, type):
        return None
    head = qual.split(".", 1)[0]
    by_factory = {
        "validate_transcripts": "transcripts.validate",
        "invalid_transcripts": "transcripts.quarantine",
        "make_mention_detector": "detect",
        "make_conversation_assembler": "assemble",
        "make_bucket_writer": "write",
        "nodes_from_triples": "nodes",
    }
    if head in by_factory:
        return by_factory[head]
    if mod in ("naer_ray.stages.canon", "naer_ray.stages.dedup") or qual in (
        "run_kg_job.<locals>.subj_names",
        "run_kg_job.<locals>.to_same_as",
    ):
        return "canon"
    if mod == "naer_ray.stages.answers":
        return "answers.parse"
    if mod == "naer_ray.pipelines.evaluate":
        return "eval"
    return "other"


def wrap_kernel(fn, layer: str, grouped: bool):
    """Timing wrapper for one kernel; it runs in the workers."""

    @functools.wraps(fn)
    def traced(batch, *args, **kwargs):
        span = begin(layer)
        try:
            out = fn(batch, *args, **kwargs)
        except BaseException:
            end(span, error=True)
            raise
        # attributes are computed after the timed region closes
        at = time.perf_counter()
        attrs = {"rows_in": _rows(batch), "rows_out": _rows(out), "grouped": grouped}
        if layer == "detect":
            attrs["bytes_out"] = _nbytes(out)
            attrs["distinct"] = _distinct_texts(batch)
        if layer == "answers.parse" and grouped:
            attrs["errors"] = _errors(out)
        if grouped and layer in EXCHANGE_LAYERS:
            attrs["exchange"] = layer
            attrs["bytes_in"] = _nbytes(batch)
        end(span, at, **attrs)
        return out

    return traced


def _wrap_timed(fn, name: str, attrs_fn=None):
    """Span around a plain function; ``attrs_fn(args, result)`` adds attributes."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not enabled():
            return fn(*args, **kwargs)
        span = begin(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            end(span, error=True)
            raise
        end(span, **(attrs_fn(args, out) if attrs_fn else {}))
        return out

    traced.__perfbench_orig__ = fn
    return traced


def _wrap_reader(read_fragments):
    """Ray's parquet fragment reader is a generator: time each ``next``
    and name the slice by the table it yields."""

    @functools.wraps(read_fragments)
    def traced(*args, **kwargs):
        if not enabled():
            yield from read_fragments(*args, **kwargs)
            return
        it = iter(read_fragments(*args, **kwargs))
        while True:
            span = begin("read")
            try:
                table = next(it)
            except StopIteration:
                _stack().pop()
                return
            except BaseException:
                end(span, error=True)
                raise
            names = set(table.column_names)
            span["name"] = (
                "transcripts.read"
                if {"conv_id", "turn_idx", "text"} <= names and "pred" not in names
                else "other"
            )
            end(span, rows=int(table.num_rows), bytes=int(table.nbytes))
            yield table

    traced.__perfbench_orig__ = read_fragments
    return traced


def patch_everywhere(orig, wrapper) -> None:
    """Replace ``orig`` by ``wrapper`` in every naer_ray module that holds it."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "naer_ray" or name.startswith("naer_ray.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def _patch_method(cls, name: str, span_name: str, attrs_fn=None) -> None:
    orig = getattr(cls, name)
    if not hasattr(orig, "__perfbench_orig__"):
        setattr(cls, name, _wrap_timed(orig, span_name, attrs_fn))


def _matcher_attrs(args, matcher) -> dict:
    return {"entries": len(matcher.by_id)}


def _dictionary_attrs(args, rows) -> dict:
    return {"entries": len(rows)}


def _resolve_attrs(args, result) -> dict:
    sad = args[0]
    return {"lines": len(sad.lines), "hit": result != -1}


def install_worker() -> None:
    """Wrap the worker-side entry points (``worker_process_setup_hook``)."""
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    import naer_ray.pipelines.kg  # noqa: F401  (imports every layer module)
    from naer_ray import refsem
    from naer_ray.sources import gazetteer
    from ray.data._internal.datasource import parquet_datasink, parquet_datasource

    _patch_method(gazetteer.GazetteerMatcher, "match_batch", "gazetteer.match")
    _patch_method(refsem.Sad, "get_line_number", "resolve", _resolve_attrs)
    _patch_method(parquet_datasink.ParquetDatasink, "write", "write")
    if not hasattr(gazetteer.matcher_from_ref, "__perfbench_orig__"):
        patch_everywhere(
            gazetteer.matcher_from_ref,
            _wrap_timed(gazetteer.matcher_from_ref, "gazetteer.load", _matcher_attrs),
        )
    if not hasattr(parquet_datasource.read_fragments, "__perfbench_orig__"):
        parquet_datasource.read_fragments = _wrap_reader(parquet_datasource.read_fragments)


#: Datasets that map_groups returned for an exchange consumer while tracing
#: was on; the run reads their ``Dataset.stats()`` after each job
EXCHANGE_DATASETS: list = []


def install_driver() -> None:
    """Wrap the driver-side entry points; call once, after ``ray.init``."""
    import naer_ray.pipelines.kg  # noqa: F401
    from naer_ray.sources import gazetteer
    from naer_ray.state import checkpoint
    from ray.data import Dataset
    from ray.data.grouped_data import GroupedData

    if hasattr(Dataset.map_batches, "__perfbench_orig__"):
        return
    map_batches, map_groups = Dataset.map_batches, GroupedData.map_groups

    @functools.wraps(map_batches)
    def traced_map_batches(self, fn, *args, **kwargs):
        layer = kernel_layer(fn) if enabled() else None
        if layer is not None:
            fn = wrap_kernel(fn, layer, grouped=False)
        return map_batches(self, fn, *args, **kwargs)

    @functools.wraps(map_groups)
    def traced_map_groups(self, fn, *args, **kwargs):
        layer = kernel_layer(fn) if enabled() else None
        if layer is not None:
            fn = wrap_kernel(fn, layer, grouped=True)
        ds = map_groups(self, fn, *args, **kwargs)
        if layer in EXCHANGE_LAYERS:
            EXCHANGE_DATASETS.append(ds)
        return ds

    traced_map_batches.__perfbench_orig__ = map_batches
    traced_map_groups.__perfbench_orig__ = map_groups
    Dataset.map_batches = traced_map_batches
    GroupedData.map_groups = traced_map_groups
    _patch_method(checkpoint.Manifest, "_flush", "manifest.flush")
    for orig, name, attrs_fn in (
        (checkpoint.write_bucket_atomic, "write", None),
        (gazetteer.load_dictionary_rows, "gazetteer.load", _dictionary_attrs),
    ):
        patch_everywhere(orig, _wrap_timed(orig, name, attrs_fn))


def exchange_task_seconds(datasets) -> float:
    """Summed task wall time of the shuffle operators (``Dataset.stats()``)
    in the executed plans of ``datasets``, each operator counted once."""
    seen: set = set()
    total = 0.0

    def walk(summary) -> None:
        nonlocal total
        for parent in summary.parents:
            walk(parent)
        for op in summary.operators_stats:
            key = (summary.dataset_uuid, op.operator_name, op.earliest_start_time)
            if key in seen:
                continue
            seen.add(key)
            name = op.operator_name.lower()
            if ("sort" in name or "shuffle" in name) and op.wall_time:
                total += float(op.wall_time.get("sum", 0.0))

    for ds in datasets:
        try:
            walk(ds._get_stats_summary())
        except Exception:  # noqa: BLE001 — a plan that never ran has no stats
            continue
    return total


# ------------------------------------------------------------- metrics


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = metric.rsplit(".", 1)[1]
    if last.endswith("_s"):
        return "s"
    if last == "bytes" or last.startswith("bytes"):
        return "bytes"
    if last in ("selectivity", "distinct_text_ratio", "bucket_skew", "hit_ratio",
                "overhead_ratio"):
        return "ratio"
    return "count"


def _self_times(spans: list[dict]) -> dict[tuple[int, int], float]:
    """Span duration minus its direct children's, keyed by (pid, id)."""
    own = {(s["pid"], s["id"]): s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and (s["pid"], s["parent"]) in own:
            own[(s["pid"], s["parent"])] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], job_s: float, exchange_s: float, extra: dict) -> dict:
    """Per-layer metrics of one job from its spans.

    ``busy_s`` of a layer is the self time of its spans (nested spans of
    other layers are subtracted), so the layers' busy times plus
    ``driver.overhead_s`` add up to ``job_s``.  ``extra`` carries the
    figures read from the job's output rather than from spans."""
    own = _self_times(spans)
    busy = dict.fromkeys(BUSY_LAYERS, 0.0)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        name = "write" if s["name"] == "manifest.flush" else s["name"]
        busy[name if name in busy else "other"] += own[(s["pid"], s["id"])]
        by_name.setdefault(s["name"], []).append(s["attrs"])

    def total(name: str, key: str, grouped: bool | None = None) -> float:
        return float(
            sum(
                a.get(key, 0)
                for a in by_name.get(name, [])
                if grouped is None or a.get("grouped") == grouped
            )
        )

    exchanges: dict[str, list[int]] = {}
    exchange_bytes = 0
    for attrs_list in by_name.values():
        for a in attrs_list:
            if "exchange" in a:
                exchanges.setdefault(a["exchange"], []).append(a["rows_in"])
                exchange_bytes += a["bytes_in"]
    skew = max(
        (max(r) / (sum(r) / len(r)) for r in exchanges.values() if sum(r)), default=0.0
    )
    detect_in = total("detect", "rows_in")
    resolve = by_name.get("resolve", [])
    m = {f"{layer}.busy_s": busy[layer] for layer in BUSY_LAYERS}
    m.update(
        {
            "transcripts.read.rows": total("transcripts.read", "rows"),
            "transcripts.read.bytes": total("transcripts.read", "bytes"),
            "transcripts.validate.rows_out": total("transcripts.validate", "rows_out"),
            "transcripts.quarantine.rows": total("transcripts.quarantine", "rows_out"),
            "gazetteer.entries": float(
                max((a.get("entries", 0) for a in by_name.get("gazetteer.load", [])), default=0)
            ),
            "detect.rows_in": detect_in,
            "detect.rows_out": total("detect", "rows_out"),
            "detect.selectivity": total("detect", "rows_out") / detect_in if detect_in else 0.0,
            "detect.distinct_text_ratio": total("detect", "distinct") / detect_in
            if detect_in
            else 0.0,
            "detect.bytes_out": total("detect", "bytes_out"),
            "assemble.rows_out": total("assemble", "rows_out"),
            "exchange.count": float(len(exchanges)),
            "exchange.rows": float(sum(sum(r) for r in exchanges.values())),
            "exchange.bytes": float(exchange_bytes),
            "exchange.busy_s": exchange_s,
            "exchange.bucket_skew": skew,
            "nodes.rows_in": total("nodes", "rows_in", grouped=False),
            "nodes.rows_out": total("nodes", "rows_out", grouped=True),
            "write.files": float(extra["files"]),
            "write.bytes": float(extra["bytes"]),
            "manifest.flushes": float(len(by_name.get("manifest.flush", []))),
            "canon.names": float(extra["canon_names"]),
            "canon.edges": float(extra["canon_edges"]),
            "answers.errors": total("answers.parse", "errors"),
            "resolve.calls": float(len(resolve)),
            "resolve.lines_scanned": float(sum(a.get("lines", 0) for a in resolve)),
            "resolve.hit_ratio": sum(1 for a in resolve if a.get("hit")) / len(resolve)
            if resolve
            else 0.0,
            "eval.keys": total("eval", "rows_in", grouped=True),
        }
    )
    m["driver.overhead_s"] = job_s - sum(busy.values())
    return m
