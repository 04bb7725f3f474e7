"""Stage-boundary checkpoint manifests with per-partition lineage + counters.

The reference reruns everything from scratch (no checkpointing at all —
SURVEY.md §4); the north rule requires the opposite: every stage writes
partitioned Parquet plus a manifest of completed partitions so a
re-submitted job skips finished work.

Design: output root contains one directory per stage
(``<root>/<stage>/bucket=<k>/``) and a ``<root>/MANIFEST.json``
(atomically replaced via temp-file rename) recording, per stage and
per bucket: row count, input lineage (source paths + bucket id), and
completion flag.  Resume = read manifest, process only missing
buckets; writes go to a temp dir then rename, and the manifest is
saved only after a stage's renames, so partially-written buckets are
never marked complete.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile


def content_sha256(path: str | None, suffix: str = "") -> str | None:
    """sha256 of a file's bytes, or of every file under a directory whose
    name ends in ``suffix`` (relative path + bytes, in sorted order);
    None for no path."""
    if path is None:
        return None
    h = hashlib.sha256()
    if os.path.isdir(path):
        files = sorted(
            os.path.relpath(os.path.join(d, f), path)
            for d, _dirs, names in os.walk(path)
            for f in names
            if f.endswith(suffix)
        )
        for rel in files:
            h.update(rel.encode() + b"\0")
            with open(os.path.join(path, rel), "rb") as f:
                h.update(f.read())
    else:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def code_sha256() -> str:
    """sha256 of the library's source: every ``naer_ray/**/*.py`` file
    (``__pycache__`` bytecode differs from run to run, so it is left out)."""
    return content_sha256(os.path.dirname(os.path.dirname(__file__)), suffix=".py")


def files_fingerprint(path: str | None) -> str | None:
    """sha256 of the sorted (relative path, size, mtime_ns) of every file
    under ``path`` (or of the one file); None for no path.  Only file
    metadata is read, so it stays cheap on a corpus of any size."""
    if path is None:
        return None
    files = [path]
    if os.path.isdir(path):
        files = [os.path.join(d, f) for d, _dirs, names in os.walk(path) for f in names]
    entries = sorted(
        (os.path.relpath(f, path), st.st_size, st.st_mtime_ns)
        for f in files
        for st in [os.stat(f)]
    )
    return hashlib.sha256(json.dumps(entries).encode()).hexdigest()


class Manifest:
    def __init__(self, root: str):
        self.root = root
        self.path = os.path.join(root, "MANIFEST.json")
        self.data: dict = {"stages": {}}
        if os.path.exists(self.path):
            with open(self.path) as f:
                self.data = json.load(f)

    def stage(self, name: str) -> dict:
        return self.data["stages"].setdefault(name, {"buckets": {}, "counters": {}})

    def done_buckets(self, stage: str) -> set[int]:
        return {int(k) for k, v in self.stage(stage)["buckets"].items() if v.get("complete")}

    def mark_bucket(
        self,
        stage: str,
        bucket: int,
        rows: int,
        lineage: dict | None = None,
        counts: dict | None = None,
    ) -> None:
        """Mark one bucket complete in memory (:meth:`save` writes it);
        ``counts`` (e.g. a bucket's evaluation tp/fp/fn) are kept with the
        mark, so a resume that skips the bucket still has them."""
        entry = {"complete": True, "rows": rows, "lineage": lineage or {}}
        if counts is not None:
            entry["counts"] = counts
        self.stage(stage)["buckets"][str(bucket)] = entry

    def set_counter(self, stage: str, name: str, value: float) -> None:
        """Set a counter in memory (:meth:`save` writes it); set, never
        added, so a rerun of a stage does not count twice."""
        self.stage(stage)["counters"][name] = value

    def save(self) -> None:
        """Write the marks and counters set so far; a job saves once per
        stage, after its files are in place, not once per bucket."""
        self._flush()

    def reset(self) -> None:
        """Forget every stage and delete its directory, so a run that does
        not resume keeps nothing of an earlier run's state."""
        for stage in self.data["stages"]:
            shutil.rmtree(os.path.join(self.root, stage), ignore_errors=True)
        self.data["stages"] = {}
        self._flush()

    def record_job_lineage(self, lineage: dict, *, resume: bool) -> None:
        """Record the job's input lineage (paths + extractor) at job start.

        On resume with a DIFFERENT lineage, raise — otherwise a run
        whose extractor/prompt/input changed would see a complete
        manifest and silently emit the previous run's triples as its
        own (ADVICE r2).  With resume=False the recorded lineage is
        simply replaced (everything recomputes anyway)."""
        prev = self.data.get("job_lineage")
        if resume and prev is not None and prev != lineage:
            diffs = sorted(
                k for k in set(prev) | set(lineage) if prev.get(k) != lineage.get(k)
            )
            raise ValueError(
                f"resume=True but job lineage differs from the manifest at {self.path} "
                f"(changed: {diffs}; recorded {prev!r} vs requested {lineage!r}). "
                "Use a fresh --out or pass resume=False/--no-resume."
            )
        if prev != lineage:
            self.data["job_lineage"] = lineage
            self._flush()

    def _flush(self) -> None:
        os.makedirs(self.root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".manifest-")
        with os.fdopen(fd, "w") as f:
            json.dump(self.data, f, indent=2, sort_keys=True)
        os.replace(tmp, self.path)


def bucket_dir(root: str, stage: str, bucket: int) -> str:
    return os.path.join(root, stage, f"bucket={bucket}")


def sweep_orphan_tmpdirs(root: str) -> int:
    """Remove dot-prefixed ``.bucket-*`` temp dirs (and stray
    ``.manifest-*`` temp files) left behind when a driver died between a
    worker write and ``finalize_bucket``, or a Ray task was retried
    after writing (ADVICE r2).  Called at job start BEFORE any stage
    runs, so no in-flight writes exist; without this, repeated
    crash/resume cycles accumulate full-size stale bucket copies."""
    import glob as _glob

    removed = 0
    for tmp in _glob.glob(os.path.join(root, "*", ".bucket-*")):
        if os.path.isdir(tmp):
            shutil.rmtree(tmp, ignore_errors=True)
            removed += 1
    for tmp in _glob.glob(os.path.join(root, ".manifest-*")):
        if os.path.isfile(tmp):
            os.remove(tmp)
            removed += 1
    return removed


def write_bucket_atomic(table, root: str, stage: str, bucket: int) -> int:
    """Write one bucket's Arrow table to parquet via temp-dir rename; returns rows."""
    tmp = _write_tmp(table, root, stage, bucket)
    return finalize_bucket(root, stage, bucket, tmp, table.num_rows)


def finalize_bucket(root: str, stage: str, bucket: int, tmp: str, rows: int) -> int:
    """Atomically promote a fully-written temp dir to the bucket dir."""
    final = bucket_dir(root, stage, bucket)
    if os.path.exists(final):
        shutil.rmtree(final)
    os.replace(tmp, final)
    return rows


def block_buckets(block) -> "np.ndarray":
    """The distinct job buckets of a block's rows, ascending."""
    import numpy as np

    return np.unique(block["bucket"].to_numpy())


def bucket_bounds(table, buckets) -> tuple:
    """``(starts, ends)``: the rows of each of ``buckets`` in ``table``,
    whose ``bucket`` column must be ascending (each bucket contiguous)."""
    import numpy as np

    col = table["bucket"].to_numpy()
    if len(col) > 1 and (col[1:] < col[:-1]).any():
        raise ValueError("a block kernel's table is not ordered by bucket")
    return np.searchsorted(col, buckets, "left"), np.searchsorted(col, buckets, "right")


def make_bucket_writer(root: str, stage: str, kernel, sparse=()):
    """``map_batches`` kernel factory (``batch_size=None``) for
    DISTRIBUTED per-bucket writes after ``sort("bucket")``.

    Each block holds whole buckets: the writer runs ``kernel`` once over
    the block and writes each bucket's outputs from the WORKER that
    holds them — the driver never sees triple data, only one summary row
    per bucket of the block (the round-1 driver-side
    ``ray.get(to_arrow_refs) + concat + write_table`` path OOMs the
    driver once the edge table is TBs).  Writes land in a dot-prefixed
    temp dir under the stage dir; the driver renames them into place
    (``finalize_bucket``) before marking the manifest, so a crash
    mid-write never yields a half-complete marked bucket.

    ``kernel`` returns a dict that holds the block's table of ``stage``
    under the key ``stage`` beside more outputs of the same buckets.
    Every table in the dict carries the ``bucket`` column, ascending,
    and within a bucket its rows are already in file order (sorted by
    every column), so the bucket files are deterministic under any
    parallelism and the writer never sorts: it slices each bucket's
    rows, drops the column and writes them into a temp dir under the
    table's own stage dir (the key).  A bucket's table comes back as
    ``<key>_rows`` and ``<key>_tmp`` (``rows``/``tmp`` for ``stage``);
    a bucket without rows in a table named in ``sparse`` writes no file
    (null temp dir).  Every other value is one more summary column: an
    array of one value per bucket of the block (:func:`block_buckets`).

    Assumes ``root`` is on storage reachable from every worker (true
    single-node; on a real cluster this is the shared object store /
    DFS output path).
    """

    def write_block(block):
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        buckets = block_buckets(block)
        out = kernel(block)
        summary = {"bucket": pa.array(buckets, pa.int32())}
        for key, value in out.items():
            if not isinstance(value, pa.Table):
                summary[key] = value
                continue
            starts, ends = bucket_bounds(value, buckets)
            rows = value.drop_columns(["bucket"])
            tmps = [
                None if s == e and key in sparse
                else _write_tmp(rows.slice(s, e - s), root, key, b)
                for b, s, e in zip(buckets.tolist(), starts, ends)
            ]
            if key == stage:
                errors = np.zeros(rows.num_rows + 1, np.int64)
                if "pred" in rows.column_names:
                    np.cumsum(pc.equal(rows["pred"], "__error__").to_numpy(), out=errors[1:])
                summary["errors"] = pa.array(errors[ends] - errors[starts], pa.int64())
            prefix = "" if key == stage else f"{key}_"
            summary[prefix + "rows"] = pa.array(ends - starts, pa.int64())
            summary[prefix + "tmp"] = pa.array(tmps, pa.string())
        return pa.table(summary)

    return write_block


def _write_tmp(tbl, root: str, stage: str, bucket: int) -> str:
    """Write ``tbl`` into a new temp dir under the stage dir; returns that dir."""
    import pyarrow.parquet as pq

    parent = os.path.join(root, stage)
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=parent, prefix=f".bucket-{bucket}-")
    pq.write_table(tbl, os.path.join(tmp, "part-0.parquet"))
    return tmp
