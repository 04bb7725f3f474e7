"""Output checks for one ``run_kg_job`` output root.

* ``full_problems`` — once per benchmark invocation: for the gazetteer
  workloads the (entity, conv, turn, ref_type) set of the occursIn
  triples must equal the generator's gold at P = R = 1.0 (vectorized
  row-hash set compare); for ``answers_long`` the set of the job's
  triples must equal the generator's expected triples by the same
  compare, with zero ``__error__`` rows, and the job's own parity
  metrics must read P = R = 1.0.
* ``reconcile_problems`` — after every job: the MANIFEST's per-bucket row
  counts equal the rows in the written files, and the quarantined rows
  equal the rows the generator made invalid (turns = valid + quarantined).
* ``digest`` — order-independent digest of every output table, compared
  with the first job's digest.

Each function returns a list of problems; an empty list means the check
passed.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

#: output stages that hold parquet tables, in digest order
STAGES = ("triples", "quarantine", "nodes", "canonical_labels", "canon")

#: key of one gold occurrence
_OCC_COLS = ["subj", "conv_id", "turn_idx", "ref_type"]
#: key of one triple, as the parity evaluator compares them
_TRIPLE_COLS = ["subj", "pred", "obj", "conv_id", "turn_idx", "ref_type"]


def stage_files(out_root: str, stage: str) -> list[str]:
    return sorted(glob.glob(os.path.join(out_root, stage, "bucket=*", "*.parquet")))


def read_stage(out_root: str, stage: str) -> pa.Table | None:
    """All rows of one stage; files are read one by one, so the
    ``bucket=N`` directory names add no partition column."""
    files = stage_files(out_root, stage)
    if not files:
        return None
    return pa.concat_tables([pq.ParquetFile(f).read() for f in files], promote_options="default")


def footer_rows(files: list[str]) -> int:
    return sum(pq.ParquetFile(f).metadata.num_rows for f in files)


def row_hashes(table: pa.Table) -> np.ndarray:
    """One uint64 per row, independent of row order and file layout."""
    return pd.util.hash_pandas_object(table.to_pandas(), index=False).to_numpy()


def digest(out_root: str) -> str:
    """Order-independent digest of every output table plus metrics.json."""
    parts = []
    for stage in STAGES:
        table = read_stage(out_root, stage)
        if table is None:
            continue
        h = row_hashes(table)
        parts.append(f"{stage}:{len(h)}:{int(h.sum(dtype=np.uint64))}")
    metrics = os.path.join(out_root, "metrics.json")
    if os.path.exists(metrics):
        with open(metrics) as f:
            parts.append(json.dumps(json.load(f), sort_keys=True))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def key_hashes(table: pa.Table, cols: list[str]) -> np.ndarray:
    """Distinct row hashes of ``cols``, every value read as a string and
    null as the empty string."""
    keys = pa.table({c: pc.fill_null(pc.cast(table[c], pa.string()), "") for c in cols})
    return np.unique(row_hashes(keys))


def set_problems(got: np.ndarray, want: np.ndarray, what: str) -> list[str]:
    """Two distinct-key sets must be equal, i.e. P = R = 1.0."""
    tp = len(np.intersect1d(got, want, assume_unique=True))
    if tp == len(got) == len(want):
        return []
    p = tp / len(got) if len(got) else 0.0
    r = tp / len(want) if len(want) else 0.0
    return [f"{what}: P={p:.6f} R={r:.6f} ({len(got)} found, {len(want)} expected)"]


def gold_problems(triples: pa.Table, gold: pa.Table) -> list[str]:
    """occursIn (entity, conv, turn, ref_type) set vs the gold set."""
    occ = triples.filter(pc.equal(triples["pred"], "occursIn"))
    return set_problems(
        key_hashes(occ, _OCC_COLS), key_hashes(gold, _OCC_COLS), "occurrences vs gold"
    )


def expected_problems(triples: pa.Table, expected: pa.Table) -> list[str]:
    """Set of non-error triples vs the generator's expected triples."""
    ok = triples.filter(pc.not_equal(triples["pred"], "__error__"))
    return set_problems(
        key_hashes(ok, _TRIPLE_COLS), key_hashes(expected, _TRIPLE_COLS), "triples vs expected"
    )


def full_problems(out_root: str, spec: dict) -> list[str]:
    """The once-per-invocation correctness check of one job's output."""
    triples = read_stage(out_root, "triples")
    if triples is None:
        return ["no triples written"]
    if spec["extractor"] == "gazetteer":
        return gold_problems(triples, pq.read_table(spec["gold"]))
    problems = expected_problems(triples, pq.read_table(spec["expected"]))
    errors = int(pc.sum(pc.equal(triples["pred"], "__error__")).as_py() or 0)
    if errors:
        problems.append(f"{errors} __error__ rows")
    # the job's own parity figures must agree with the direct compare
    path = os.path.join(out_root, "metrics.json")
    if not os.path.exists(path):
        return problems + ["metrics.json missing"]
    with open(path) as f:
        parity = json.load(f).get("parity_vs_expected", {})
    if not (parity.get("precision") == 1.0 and parity.get("recall") == 1.0):
        problems.append(f"parity vs expected triples: {parity}")
    return problems


def reconcile_problems(out_root: str, spec: dict, n_buckets: int) -> list[str]:
    """MANIFEST counters against the files on disk and the generator's counts."""
    with open(os.path.join(out_root, "MANIFEST.json")) as f:
        stages = json.load(f)["stages"]
    problems = []
    buckets = stages.get("triples", {}).get("buckets", {})
    if len(buckets) != n_buckets:
        problems.append(f"{len(buckets)} triples buckets marked, expected {n_buckets}")
    for stage, entry in stages.items():
        files = stage_files(out_root, stage)
        marked = sum(b["rows"] for b in entry.get("buckets", {}).values())
        if files and footer_rows(files) != marked:
            problems.append(f"{stage}: manifest rows {marked} != file rows {footer_rows(files)}")
    if spec["extractor"] == "gazetteer":
        quarantined = sum(b["rows"] for b in stages.get("quarantine", {}).get("buckets", {}).values())
        valid = spec["turns"] - spec["invalid_rows"]
        if valid + quarantined != spec["turns"]:
            problems.append(
                f"turns {spec['turns']} != valid {valid} + quarantined {quarantined}"
            )
    return problems


def output_bytes(out_root: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(out_root):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total
