"""Bucketing hashes: bit-identity with the scalar FNV-1a definitions, and
the KG core's independence from the test-data generator."""

import os
import subprocess
import sys

import numpy as np
import pandas as pd
import pyarrow as pa

from naer_ray.hashing import _bucket_series, _fnv64_arr, hash_u32

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fnv64(s: str) -> int:
    h = 14695981039346656037
    for b in s.encode("utf-8"):
        h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h


def test_hash_u32_known_vectors():
    # published FNV-1a 32-bit vectors; bucket assignment of every
    # existing output tree depends on these exact values
    assert hash_u32("") == 0x811C9DC5
    assert hash_u32("a") == 0xE40C292C
    assert hash_u32("foobar") == 0xBF9CF968
    # conv-hash buckets of the first synthetic conversations at 16 buckets
    assert [hash_u32(f"syn:{i:06d}") % 16 for i in range(8)] == [13, 10, 7, 4, 1, 14, 11, 8]


def test_fnv64_arr_matches_scalar():
    vals = ["", "a", "alpha beta", "x" * 200, "gamma"]
    got = _fnv64_arr(pa.array(vals, pa.string()))
    assert [int(v) for v in got] == [_fnv64(s) for s in vals]


def test_fnv64_arr_multibyte_matches_scalar():
    vals = ["déjà", "日本語テキスト", "🎉🎊", "mixed ascii + ünï"]
    got = _fnv64_arr(pa.array(vals, pa.string()))
    assert [int(v) for v in got] == [_fnv64(s) for s in vals]


def test_fnv64_arr_large_string_and_slices():
    vals = ["alpha", "beta", "gamma", "delta"]
    want = [_fnv64(s) for s in vals]
    assert [int(v) for v in _fnv64_arr(pa.array(vals, pa.large_string()))] == want
    assert [int(v) for v in _fnv64_arr(pa.array(vals, pa.string()).slice(1, 2))] == want[1:3]
    assert len(_fnv64_arr(pa.array([], pa.string()))) == 0


def test_bucket_series_in_range_and_deterministic():
    s = pd.Series([f"name-{i}" for i in range(500)])
    b = _bucket_series(s, 64)
    assert b.dtype == np.int32 and b.min() >= 0 and b.max() < 64
    assert np.array_equal(b, _bucket_series(s.copy(), 64))
    ints = _bucket_series(pd.Series(np.arange(500, dtype=np.int64)), 64)
    assert ints.min() >= 0 and ints.max() < 64


def test_kg_core_does_not_import_testdata():
    """The job, the pipeline, canonicalization and the answers and llm
    extractors run without the test-data generator or the oracle query
    registry being imported: both lie outside ``checkpoint.code_sha256``."""
    code = (
        "import sys; import naer_ray.job, naer_ray.pipelines.kg, naer_ray.stages.canon, "
        "naer_ray.stages.llm, naer_ray.stages.answers; "
        "print(sorted({'naer_ray.testdata', 'naer_ray.pipelines.queries'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
