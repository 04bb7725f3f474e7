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


def make_bucket_writer(root: str, stage: str, kernel):
    """``map_groups`` kernel factory for DISTRIBUTED per-bucket writes.

    Each group is one bucket: the writer takes its id from the group's
    ``bucket`` column, runs ``kernel`` over the group's rows (without
    that column) and writes the result from the WORKER that holds it —
    the driver never sees triple data, only the (bucket, rows, errors,
    tmp_path) summary rows (the round-1 driver-side
    ``ray.get(to_arrow_refs) + concat + write_table`` path OOMs the
    driver once the edge table is TBs).  Writes land in a dot-prefixed
    temp dir under the stage dir; the driver renames them into place
    (``finalize_bucket``) before marking the manifest, so a crash
    mid-write never yields a half-complete marked bucket.  Rows are
    sorted by all non-nested columns first → bucket files are
    deterministic under any parallelism.

    ``kernel`` returns a dict that holds the bucket's table of ``stage``
    under the key ``stage`` beside more outputs of the same bucket.
    Every other table in the dict is sorted and written the same way,
    into a temp dir under its own stage dir (the key), and comes back as
    ``<key>_rows`` and ``<key>_tmp``; ``None`` is a table that writes no
    file (0 rows, null temp dir).  Every other value is one more summary
    column, a ``pa.Array`` as one list value.

    Assumes ``root`` is on storage reachable from every worker (true
    single-node; on a real cluster this is the shared object store /
    DFS output path).
    """

    def write_group(group):
        import pyarrow as pa
        import pyarrow.compute as pc

        bucket = group["bucket"][0].as_py()
        out = kernel(group.drop_columns(["bucket"]))
        tbl = out[stage]
        errors = 0
        if "pred" in tbl.column_names and tbl.num_rows:
            errors = int(
                pc.sum(pc.equal(tbl["pred"], "__error__").cast(pa.int64())).as_py() or 0
            )
        summary = {
            "bucket": pa.array([bucket], pa.int32()),
            "errors": pa.array([errors], pa.int64()),
        }
        for key, value in out.items():
            if value is None or isinstance(value, pa.Table):
                prefix = "" if key == stage else f"{key}_"
                rows, tmp = 0, None
                if value is not None:
                    rows, tmp = value.num_rows, _write_sorted_tmp(value, root, key, bucket)
                summary[prefix + "rows"] = pa.array([rows], pa.int64())
                summary[prefix + "tmp"] = pa.array([tmp], pa.string())
            elif isinstance(value, pa.Array):
                summary[key] = pa.ListArray.from_arrays(
                    pa.array([0, len(value)], pa.int32()), value
                )
            else:
                summary[key] = pa.array([value])
        return pa.table(summary)

    return write_group


def _write_sorted_tmp(tbl, root: str, stage: str, bucket: int) -> str:
    """Sort ``tbl`` by its non-nested columns and write it into a new temp
    dir under the stage dir; returns that dir."""
    import pyarrow as pa

    keys = [(f.name, "ascending") for f in tbl.schema if not pa.types.is_nested(f.type)]
    return _write_tmp(tbl.sort_by(keys) if keys else tbl, root, stage, bucket)


def _write_tmp(tbl, root: str, stage: str, bucket: int) -> str:
    """Write ``tbl`` into a new temp dir under the stage dir; returns that dir."""
    import pyarrow.parquet as pq

    parent = os.path.join(root, stage)
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=parent, prefix=f".bucket-{bucket}-")
    pq.write_table(tbl, os.path.join(tmp, "part-0.parquet"))
    return tmp
