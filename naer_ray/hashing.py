"""Deterministic hash functions shared by the bucketing stages.

Every shuffle key in the KG job comes from here, so these functions must
stay bit-identical across releases: a changed hash moves conversations
between buckets and breaks resume against an existing output tree.

* :func:`hash_u32` — scalar 32-bit FNV-1a of a string; assigns
  conversations to conv-hash buckets (``pipelines/kg.add_bucket``,
  ``stages/extract.MentionDetector``) and evaluation keys to buckets.
* :func:`_fnv64_arr` — vectorized 64-bit FNV-1a over an Arrow string
  column.
* :func:`_bucket_series` — int32 bucket keys for a pandas Series.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def hash_u32(s: str) -> int:
    """Deterministic 32-bit string hash (FNV-1a); stable across processes."""
    h = 2166136261
    for ch in s.encode("utf-8"):
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return h


def _varlen_buffers(col):
    """(offsets int64[n+1], flat data uint8) of a string/binary Arrow
    array — branching on the offset width, so ``large_string`` /
    ``large_binary`` columns (Arrow promotes when a block's character
    data exceeds 2 GB) parse correctly instead of being silently misread
    as int32 offsets."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_string(t) or pa.types.is_binary(t):
        off_dt = np.int32
    elif pa.types.is_large_string(t) or pa.types.is_large_binary(t):
        off_dt = np.int64
    else:
        raise TypeError(f"expected a string/binary column, got {t}")
    n = len(col)
    offs = np.frombuffer(col.buffers()[1], off_dt)[
        col.offset : col.offset + n + 1
    ].astype(np.int64, copy=False)
    data = np.frombuffer(col.buffers()[2], np.uint8)
    return offs, data


def _fnv64_arr(arr) -> np.ndarray:
    """Vectorized 64-bit FNV-1a over an Arrow string array: byte-column
    folds over the flat data buffer with per-position masking (one numpy
    pass per byte position up to the longest string, instead of a Python
    loop per string)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.empty(0, np.uint64)
    offs, data = _varlen_buffers(arr)
    starts = offs[:-1]
    lens = offs[1:] - starts
    h = np.full(n, np.uint64(14695981039346656037), dtype=np.uint64)
    prime = np.uint64(1099511628211)
    with np.errstate(over="ignore"):
        for j in range(int(lens.max())):
            m = lens > j
            hm = h[m]
            h[m] = (hm ^ data[starts[m] + j].astype(np.uint64)) * prime
    return h


def _bucket_series(series, n_buckets: int) -> np.ndarray:
    """Vectorized int32 bucket keys for a pandas Series: a splitmix
    finalizer for integer dtypes, the FNV64 Arrow kernel over the
    stringified values otherwise.  Bucket keys only need determinism and
    co-location, so the hash family is free to differ from hash_u32."""
    if pd.api.types.is_integer_dtype(series):
        with np.errstate(over="ignore"):
            v = series.to_numpy().astype(np.uint64, copy=False)
            h = (v ^ (v >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
            h ^= h >> np.uint64(33)
        return (h % np.uint64(n_buckets)).astype(np.int32)
    arr = pa.array(series.astype(str), from_pandas=True)
    return (_fnv64_arr(arr) % np.uint64(n_buckets)).astype(np.int32)
