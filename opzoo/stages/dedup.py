"""Deduplication operators for large-scale training-data pipelines.

* :func:`exact_dedup` — content-hash -> bucketed keep-first.
* :func:`minhash_lsh_clusters` — shingle -> minhash signature -> banded
  LSH buckets -> candidate pairs -> minhash-estimated Jaccard verify ->
  connected components (distributed min-label propagation).
* :func:`simhash_clusters` — 64-bit simhash, near-dup = Hamming <= k
  found via 4x16-bit band blocking.
* :func:`ngram_jaccard_pairs` — exact token-shingle Jaccard verification
  for a candidate pair set (the exact-verify stage behind MinHash).
* :func:`embedding_neardup_pairs` — cosine >= threshold via
  random-hyperplane LSH bucketing + exact verify within buckets.

All stages are map_batches-vectorized (numpy) with shuffles only on
bucket keys; candidate generation is O(rows x bands), never O(rows^2).
Skew: a degenerate band bucket (all-identical content) is capped by
``max_bucket`` with a deterministic sample (sorted head); rows beyond
the cap lose candidate pairs, reported via a worker-side
RuntimeWarning with the dropped-row count.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from naer_ray.hashing import _bucket_series, _fnv64_arr, _varlen_buffers, hash_u32
from naer_ray.stages.canon import connected_components

_MERSENNE = (1 << 61) - 1


def _grouped_runs(ds, keys: list[str], kernel, n_buckets: int = 64,
                  min_group_size: int = 1):
    """Bucketed fine-grained groupby: hash the composite key into
    ``n_buckets`` Ray groups, run ``kernel`` per logical key-run inside
    a pandas loop — Ray dispatch stays O(n_buckets) even with millions
    of distinct keys.

    ``min_group_size=2`` vectorized-drops singleton key groups before
    the Python loop — for pair-generation kernels (LSH buckets are
    overwhelmingly singletons) this removes ~99% of the tiny-DataFrame
    creations that otherwise dominate.
    """

    def bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            batch["bucket"] = pd.Series([], dtype="int32")
            return batch
        if all(pd.api.types.is_integer_dtype(batch[k]) for k in keys):
            # vectorized splitmix-style mix for integer keys — the
            # string-concat + per-row python hash path below costs more
            # than the grouped kernel itself on wide band tables
            with np.errstate(over="ignore"):
                h = np.zeros(len(batch), np.uint64)
                for k in keys:
                    v = batch[k].to_numpy().astype(np.uint64, copy=False)
                    h ^= v + np.uint64(0x9E3779B97F4A7C15) + (h << np.uint64(6)) + (
                        h >> np.uint64(2)
                    )
                    h *= np.uint64(0xBF58476D1CE4E5B9)
                    h ^= h >> np.uint64(27)
            batch["bucket"] = (h % np.uint64(n_buckets)).astype("int32")
            return batch
        comb = batch[keys[0]].astype(str)
        for k in keys[1:]:
            comb = comb + "|" + batch[k].astype(str)
        batch["bucket"] = _bucket_series(comb, n_buckets)
        return batch

    def run(group: pd.DataFrame) -> pd.DataFrame:
        if min_group_size >= 2 and not group.empty:
            group = group[group.duplicated(subset=keys, keep=False)]
        outs = [kernel(sub) for _, sub in group.groupby(keys, sort=False)]
        outs = [o for o in outs if o is not None and len(o)]
        if not outs:
            return kernel(group.head(0))
        if isinstance(outs[0], pa.Table):
            return pa.concat_tables(outs)
        return pd.concat(outs, ignore_index=True)

    return (
        ds.map_batches(bucketize, batch_format="pandas", batch_size=65536)
        .groupby("bucket")
        .map_groups(run, batch_format="pandas")
    )


def _perm_params(num_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """Universal-hash parameters sized so (a*x + b) never overflows int64:
    a < 2^31, shingle hashes x < 2^32 -> a*x + b < 2^63 (drawing a from
    [1, p) silently wrapped mod 2^64 and broke the permutation-family
    guarantee for near-threshold est_jaccard)."""
    rng = np.random.RandomState(seed)
    a = rng.randint(1, 1 << 31, size=num_perm, dtype=np.int64)
    b = rng.randint(0, 1 << 31, size=num_perm, dtype=np.int64)
    return a, b


def _stable_shingles(text: str, k: int = 5) -> np.ndarray:
    """Deterministic hashed byte k-shingles, fully vectorized.

    FNV-1a over the utf-8 bytes of each k-gram window, computed as k
    column-folds over a sliding window view (k vector ops total instead
    of len(text) x k Python iterations)."""
    t = text.lower().encode("utf-8")
    if len(t) < k:
        return np.array([hash_u32(text.lower())], dtype=np.uint64)
    buf = np.frombuffer(t, dtype=np.uint8)
    windows = np.lib.stride_tricks.sliding_window_view(buf, k).astype(np.uint32)
    h = np.full(windows.shape[0], 2166136261, dtype=np.uint32)
    with np.errstate(over="ignore"):
        for c in range(k):
            h = (h ^ windows[:, c]) * np.uint32(16777619)
    return np.unique(h.astype(np.uint64))


def minhash_signature(sh: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """num_perm minhash values for one shingle set (vectorized)."""
    # (a * x + b) mod p, min over shingles, per permutation
    x = sh.astype(np.int64)[:, None]  # (n_shingles, 1)
    vals = (a[None, :] * x + b[None, :]) % _MERSENNE
    return vals.min(axis=0)


# per-process reusable chunk buffer: numpy munmaps >1MB temporaries on
# free, so allocating the (num_perm, chunk) matrix per chunk re-pays
# page-fault cost every time (measured: 5.9s first-touch vs 0.3s reusing
# warm memory for the same arithmetic on this host)
_SIG_BUF: dict[tuple[int, int], np.ndarray] = {}


def minhash_signatures_batch(
    shingle_lists: list[np.ndarray], a: np.ndarray, b: np.ndarray,
    chunk_shingles: int = 12_500,
) -> np.ndarray:
    """(n_docs, num_perm) signatures for a whole batch in O(num_perm)
    numpy passes — one concatenated (a*x+b) % p matrix per chunk with
    ``np.minimum.reduceat`` at document boundaries (along the contiguous
    axis), instead of one Python iteration per document.  Memory is
    bounded by chunk_shingles x num_perm x 8 bytes (~6 MB), reused
    across chunks and calls via a per-process buffer (12.5k shingles
    per chunk beat 50k ~2x end-to-end on this host: the one-time
    first-touch fault cost of the buffer scales with its size and
    dominates the arithmetic for fresh worker processes).
    """
    n_docs = len(shingle_lists)
    num_perm = len(a)
    out = np.empty((n_docs, num_perm), dtype=np.int64)
    buf = _SIG_BUF.get((num_perm, chunk_shingles))
    if buf is None:
        buf = np.empty((num_perm, chunk_shingles), dtype=np.int64)
        _SIG_BUF.clear()
        _SIG_BUF[(num_perm, chunk_shingles)] = buf
    lo = 0
    while lo < n_docs:
        # grow the doc window until the shingle budget is hit
        hi, total = lo, 0
        while hi < n_docs and (total == 0 or total + len(shingle_lists[hi]) <= chunk_shingles):
            total += len(shingle_lists[hi])
            hi += 1
        concat = np.concatenate(shingle_lists[lo:hi]).astype(np.int64)
        starts = np.zeros(hi - lo, dtype=np.int64)
        np.cumsum([len(s) for s in shingle_lists[lo : hi - 1]], out=starts[1:])
        n_sh = len(concat)
        v = buf[:, :n_sh] if n_sh <= chunk_shingles else np.empty((num_perm, n_sh), np.int64)
        np.multiply(a[:, None], concat[None, :], out=v)
        np.add(v, b[:, None], out=v)
        np.mod(v, _MERSENNE, out=v)
        out[lo:hi] = np.minimum.reduceat(v, starts, axis=1).T
        lo = hi
    return out


def _sig_matrix(col) -> np.ndarray:
    """(n_rows, num_perm) int64 signature matrix from an Arrow binary
    column WITHOUT per-row boxing: signatures are fixed-width
    (num_perm x 8 bytes), so the column's flat data buffer viewed as
    int64 IS the matrix.  The pandas route (`.tolist()` + b"".join)
    boxed every signature into a Python bytes object at each kernel
    boundary — measured as the dominant cost of the LSH bucket kernels
    on wide band tables."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, 0), np.int64)
    offs, data = _varlen_buffers(col)
    flat = data[offs[0] : offs[-1]]
    if flat.__array_interface__["data"][0] % 8:
        flat = flat.copy()  # realign for the int64 view (sliced buffer)
    return flat.view(np.int64).reshape(n, -1)


def exact_dedup(ds, id_col: str, content_col: str, n_buckets: int = 64):
    """Keep the min-id row per distinct content value (hash-partitioned).

    Content hashing is the vectorized FNV64 byte-fold (:func:`_fnv64_arr`)
    — the former per-row ``.map(hash_u32)`` was a Python loop over the
    full corpus in the stage billed as the 100-TB exact-dedup shape."""

    def keyed(batch: pa.Table) -> pd.DataFrame:
        h = _fnv64_arr(batch[content_col])
        out = pd.DataFrame(
            {
                id_col: batch[id_col].to_numpy(zero_copy_only=False),
                "content_hash": h.view(np.int64),
                content_col: batch[content_col].to_pandas(),
            }
        )
        out["bucket"] = (h % np.uint64(n_buckets)).astype("int32")
        return out

    def first(group: pd.DataFrame) -> pd.DataFrame:
        # group by full content (hash collisions resolved by value), keep min id
        out = group.sort_values(id_col).groupby(content_col, as_index=False).first()
        return out[[id_col, "content_hash"]]

    return (
        ds.map_batches(keyed, batch_format="pyarrow", batch_size=8192)
        .groupby("bucket")
        .map_groups(first, batch_format="pandas")
    )


def minhash_bands(
    ds,
    id_col: str,
    text_col: str,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
):
    """rows -> (band_id, band_hash, id, signature) — the LSH explode stage."""
    a, b = _perm_params(num_perm)
    rows_per_band = num_perm // bands

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        texts = batch[text_col].to_pylist()
        n = len(ids)
        shingle_lists = [_stable_shingles(text, shingle_k) for text in texts]
        sigs = minhash_signatures_batch(shingle_lists, a, b)
        # band hashes vectorized: fold each band's rows with a mixed sum
        out_band = np.repeat(np.arange(bands, dtype=np.int32), n)
        out_hash = np.empty(bands * n, dtype=np.int64)
        with np.errstate(over="ignore"):
            for bi in range(bands):
                chunk = sigs[:, bi * rows_per_band : (bi + 1) * rows_per_band].astype(
                    np.uint64
                )
                acc = np.full(n, 1469598103934665603, dtype=np.uint64)  # FNV-1a 64 basis
                for c in range(rows_per_band):
                    acc = (acc ^ chunk[:, c]) * np.uint64(1099511628211)
                out_hash[bi * n : (bi + 1) * n] = acc.astype(np.int64)
        # signatures travel as packed binary (one object per row through
        # pandas stages, not 64 boxed ints — the list<int64> representation
        # made every downstream pandas conversion the bottleneck)
        sig_arr = pa.array([row.tobytes() for row in sigs], pa.binary())
        idx = pa.array(np.tile(np.arange(n), bands))
        return pa.table(
            {
                "band_id": pa.array(out_band, pa.int32()),
                "band_hash": pa.array(out_hash, pa.int64()),
                id_col: pa.array(ids).take(idx),
                "signature": sig_arr.take(idx),
            }
        )

    # batch_size doubles as Ray's task-bundling unit, and a fused map
    # chain bundles by its LARGEST batch_size — so every kernel fused
    # around this stage must keep batch_size <= this one or the whole
    # chain serializes on small corpora (measured round 4: a fused
    # mutate@8192 upstream re-packed the explode into ONE 4.9s task at
    # sf0.1 despite the 128-block _read_wide repartition).  256
    # docs/task keeps ~20 concurrent tasks on a 5k-doc table while the
    # signature kernel still sees ~75k shingles per call (chunked at
    # 12.5k internally); at corpus scale read blocks exceed any of
    # these values and bundling is per-block regardless.
    return ds.map_batches(explode, batch_format="pyarrow", batch_size=256)


def minhash_candidate_pairs(
    band_rows, id_col: str, max_bucket: int = 200, min_est: float = 0.0
):
    """LSH buckets -> distinct candidate (id_a < id_b) pairs with the
    minhash-estimated Jaccard from full signatures.

    ``min_est`` pushes the downstream similarity threshold into the
    pair-generation kernel so sub-threshold pairs are never
    materialized or shuffled (the corpus can contain heavy genuine
    near-dup structure: 735k candidate pairs from 10k docs observed).
    """

    keys = ["band_id", "band_hash"]

    def pairs_bucket(group: pa.Table) -> pa.Table:
        """One hash bucket of LSH-band rows -> candidate pairs.

        Collision groups are pervasive on similar corpora (observed:
        ALL 160k band rows in 51k collision groups at sf0.1), so
        per-group function dispatch dominates.  The bucket is processed
        as flat arrays — Arrow in, numpy lexsort, zero-copy signature
        matrix (:func:`_sig_matrix`; the former pandas kernel boxed
        every 512-byte signature into Python bytes at the block
        boundary), boundaries from one diff, size-2 groups (the median
        case) paired in one vectorized comparison; only size>2 groups
        loop."""
        id_type = group.schema.field(id_col).type
        empty = pa.table(
            {
                "id_a": pa.array([], id_type),
                "id_b": pa.array([], id_type),
                "est_jaccard": pa.array([], pa.float64()),
            }
        )
        if group.num_rows < 2:
            return empty
        b0 = group[keys[0]].to_numpy(zero_copy_only=False)
        b1 = group[keys[1]].to_numpy(zero_copy_only=False)
        ids = group[id_col].to_numpy(zero_copy_only=False)
        sigs = _sig_matrix(group["signature"])
        order = np.lexsort((ids, b1, b0))
        b0, b1, ids, sigs = b0[order], b1[order], ids[order], sigs[order]
        same_key = (np.diff(b0) == 0) & (np.diff(b1) == 0)
        dup = np.zeros(len(b0), bool)
        dup[1:] = same_key & (ids[1:] == ids[:-1])  # (band, band_hash, id) dups
        if dup.any():
            keep_m = ~dup
            b0, b1, ids, sigs = b0[keep_m], b1[keep_m], ids[keep_m], sigs[keep_m]
            same_key = (np.diff(b0) == 0) & (np.diff(b1) == 0)
        if len(b0) < 2:
            return empty
        change = np.flatnonzero(~same_key) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(b0)]))
        sizes = ends - starts

        idx_a: list = []
        idx_b: list = []
        out_e: list = []
        two = np.flatnonzero(sizes == 2)
        if two.size:
            i0 = starts[two]
            i1 = i0 + 1
            est = (sigs[i0] == sigs[i1]).mean(axis=1)
            keep = est >= min_est
            idx_a.append(i0[keep])
            idx_b.append(i1[keep])
            out_e.append(est[keep])
        capped_rows = int(np.maximum(sizes - max_bucket, 0).sum())
        if capped_rows:
            import warnings

            warnings.warn(
                f"minhash LSH: {capped_rows} rows beyond max_bucket={max_bucket} "
                "in degenerate buckets lose candidate pairs",
                RuntimeWarning,
                stacklevel=2,
            )
        for gi in np.flatnonzero(sizes > 2):
            s = starts[gi]
            e = min(ends[gi], s + max_bucket)  # cap degenerate buckets
            sub = sigs[s:e]
            for i in range(e - s - 1):
                eq = (sub[i + 1 :] == sub[i]).mean(axis=1)
                keep = np.flatnonzero(eq >= min_est)
                if keep.size:
                    idx_a.append(np.full(keep.size, s + i))
                    idx_b.append(s + i + 1 + keep)
                    out_e.append(eq[keep])
        if not idx_a:
            return empty
        ia = np.concatenate(idx_a)
        ib = np.concatenate(idx_b)
        return pa.table(
            {
                "id_a": pa.array(ids[ia]).cast(id_type),
                "id_b": pa.array(ids[ib]).cast(id_type),
                "est_jaccard": pa.array(
                    np.concatenate(out_e).astype(np.float64), pa.float64()
                ),
            }
        )

    def bucketize_bands(batch: pa.Table) -> pa.Table:
        with np.errstate(over="ignore"):
            h = batch[keys[0]].to_numpy(zero_copy_only=False).astype(
                np.uint64
            ) * np.uint64(0x9E3779B1) + batch[keys[1]].to_numpy(
                zero_copy_only=False
            ).astype(np.uint64)
            h ^= h >> np.uint64(29)
            h *= np.uint64(0xBF58476D1CE4E5B9)
            h ^= h >> np.uint64(32)
        return batch.append_column(
            "bucket", pa.array((h % np.uint64(64)).astype(np.int32), pa.int32())
        )

    cands = (
        # batch_size=None: per-incoming-batch, so this cheap kernel
        # never raises the fused chain's task-bundling unit above the
        # heavy explode upstream (the bundler counts the fused chain's
        # INPUT rows against its largest batch_size — a 4096 here
        # bundled 4096 docs per task and re-serialized d01 at sf0.1)
        band_rows.map_batches(bucketize_bands, batch_format="pyarrow", batch_size=None)
        .groupby("bucket")
        .map_groups(pairs_bucket, batch_format="pyarrow")
    )

    # distinct pairs (same pair surfaces from multiple bands)
    def dedup_pairs(group: pd.DataFrame) -> pd.DataFrame:
        if group.empty:
            return group
        return group.groupby(["id_a", "id_b"], as_index=False)["est_jaccard"].max()

    def pair_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            batch["bucket"] = pd.Series([], dtype="int32")
            return batch
        if all(
            pd.api.types.is_integer_dtype(batch[c]) for c in ("id_a", "id_b")
        ):
            with np.errstate(over="ignore"):
                h = batch["id_a"].to_numpy().astype(np.uint64) * np.uint64(
                    0x9E3779B1
                ) + batch["id_b"].to_numpy().astype(np.uint64)
            batch["bucket"] = (h % np.uint64(64)).astype("int32")
            return batch
        comb = batch["id_a"].astype(str) + "|" + batch["id_b"].astype(str)
        batch["bucket"] = _bucket_series(comb, 64)
        return batch

    return (
        cands.map_batches(pair_bucket, batch_format="pandas", batch_size=65536)
        .groupby("bucket")
        .map_groups(dedup_pairs, batch_format="pandas")
    )


def minhash_lsh_clusters(
    ds,
    id_col: str,
    text_col: str,
    threshold: float = 0.8,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
):
    """Full MinHash-LSH near-dup pipeline: returns (node, label) clusters
    for all rows participating in a pair with est_jaccard >= threshold."""
    bands_ds = minhash_bands(ds, id_col, text_col, num_perm, bands, shingle_k)
    strong = minhash_candidate_pairs(bands_ds, id_col, min_est=threshold)
    return connected_components(strong)


# ------------------------------------------------------------------- simhash


def simhash64(text: str) -> int:
    """64-bit SimHash over word tokens (two 32-bit FNV halves).

    Per-doc reference implementation — :func:`simhash64_batch` is the
    vectorized exact-parity twin (tested); non-ASCII docs fall back
    here."""
    toks = text.lower().split()
    if not toks:
        return 0
    h1 = np.array([hash_u32(w) for w in toks], dtype=np.uint64)
    h2 = np.array([hash_u32(w + "\x00s") for w in toks], dtype=np.uint64)
    h = (h1 << np.uint64(32)) | h2
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(np.int64)
    v = (2 * bits - 1).sum(axis=0)
    return int(((v > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())


def simhash64_batch(texts: pa.Array) -> np.ndarray:
    """Vectorized simhash64 over a batch: the batch vocabulary is
    dictionary-encoded and each DISTINCT token hashed once (the
    kg.add_bucket trick — occurrences >> vocabulary), then per-doc
    per-bit counts run as reduceat segments, 8 bit positions at a time
    to bound the temporary (tokens x 8 int32)."""
    import pyarrow.compute as pc

    from .text import _ascii_mask, _flat_nonempty, _RE2_SPACE_CLASS

    n = len(texts)
    ascii_ok = _ascii_mask(texts)
    toks = pc.split_pattern_regex(pc.utf8_lower(texts), _RE2_SPACE_CLASS)
    flat, _parents, n_tok = _flat_nonempty(toks, n)
    out = np.zeros(n, dtype=np.uint64)
    if len(flat):
        codes = pc.dictionary_encode(flat)
        if isinstance(codes, pa.ChunkedArray):
            codes = codes.combine_chunks()
        vocab = codes.dictionary.to_pylist()
        hu = np.array(
            [(hash_u32(w) << 32) | hash_u32(w + "\x00s") for w in vocab],
            dtype=np.uint64,
        )
        h = hu[codes.indices.to_numpy()]
        starts = np.zeros(n, np.int64)
        np.cumsum(n_tok[:-1], out=starts[1:])
        sums = np.empty((n, 64), np.int64)
        shifts = np.arange(64, dtype=np.uint64)
        for c in range(8):
            bits = ((h[:, None] >> shifts[c * 8 : (c + 1) * 8]) & np.uint64(1)).astype(
                np.int32
            )
            bits = np.vstack([bits, np.zeros((1, 8), np.int32)])  # sentinel
            sums[:, c * 8 : (c + 1) * 8] = np.add.reduceat(bits, starts, axis=0)
        v = 2 * sums - n_tok[:, None]
        out = np.packbits(v > 0, axis=1, bitorder="little").view(np.uint64).ravel()
        out[n_tok == 0] = 0
    if not ascii_ok.all():
        for i in np.flatnonzero(~ascii_ok):
            out[i] = simhash64(texts[i].as_py())
    return out


def simhash_pairs(ds, id_col: str, text_col: str, max_hamming: int = 3):
    """Near-dup pairs with Hamming(simhash) <= max_hamming via 4x16-bit
    band blocking (a pair within distance 3 shares at least one band)."""

    def sh(batch: pa.Table) -> pa.Table:
        from .text import _string_array

        ids = batch[id_col].combine_chunks() if isinstance(
            batch[id_col], pa.ChunkedArray
        ) else batch[id_col]
        hashes = simhash64_batch(_string_array(batch[text_col]))
        n = len(hashes)
        rep = ids.take(pa.array(np.repeat(np.arange(n, dtype=np.int64), 4)))
        band_vals = (
            (hashes[:, None] >> (np.uint64(16) * np.arange(4, dtype=np.uint64)))
            & np.uint64(0xFFFF)
        ).astype(np.int64)
        return pa.table(
            {
                "band_id": pa.array(np.tile(np.arange(4, dtype=np.int32), n)),
                "band_val": pa.array(band_vals.ravel(), pa.int64()),
                id_col: rep,
                "simhash": pa.array(np.repeat(hashes, 4), pa.uint64()),
            }
        )

    def _popcount64(x: np.ndarray) -> np.ndarray:
        return np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)

    skeys = ["band_id", "band_val"]

    def pairs_bucket(group: pd.DataFrame) -> pd.DataFrame:
        """Flat-array bucket kernel (same structure as the MinHash pair
        kernel): size-2 band groups pair via one vectorized XOR-popcount."""
        empty = pd.DataFrame({"id_a": [], "id_b": [], "hamming": []})
        if group.empty:
            return empty
        g = (
            group.drop_duplicates(subset=[*skeys, id_col])
            .sort_values([*skeys, id_col], kind="mergesort")
            .reset_index(drop=True)
        )
        if len(g) < 2:
            return empty
        hs = g["simhash"].to_numpy().astype(np.uint64)
        codes, _ = pd.factorize(g[skeys[0]].astype(str) + "|" + g[skeys[1]].astype(str))
        change = np.flatnonzero(np.diff(codes)) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(g)]))
        sizes = ends - starts
        ids = g[id_col].to_numpy()
        out_a: list = []
        out_b: list = []
        out_h: list = []
        two = np.flatnonzero(sizes == 2)
        if two.size:
            i0 = starts[two]
            i1 = i0 + 1
            dist = _popcount64(hs[i0] ^ hs[i1])
            keep = dist <= max_hamming
            out_a.extend(ids[i0[keep]])
            out_b.extend(ids[i1[keep]])
            out_h.extend(dist[keep])
        for gi in np.flatnonzero(sizes > 2):
            s, e = starts[gi], ends[gi]
            sub, sids = hs[s:e], ids[s:e]
            for i in range(len(sids) - 1):
                dist = _popcount64(sub[i + 1 :] ^ sub[i])
                keep = np.flatnonzero(dist <= max_hamming)
                if keep.size:
                    out_a.extend([sids[i]] * keep.size)
                    out_b.extend(sids[i + 1 + keep])
                    out_h.extend(dist[keep])
        return pd.DataFrame(
            {"id_a": out_a, "id_b": out_b, "hamming": np.asarray(out_h, dtype=np.int64)}
        )

    def bucketize_bands(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            batch["bucket"] = pd.Series([], dtype="int32")
            return batch
        comb = batch[skeys[0]].astype(str) + "|" + batch[skeys[1]].astype(str)
        batch["bucket"] = _bucket_series(comb, 64)
        return batch

    band_rows = ds.map_batches(sh, batch_format="pyarrow", batch_size=512)
    cands = (
        # batch_size=None: per-incoming-batch, so this cheap kernel
        # never raises the fused chain's task-bundling unit above the
        # heavy explode upstream (the bundler counts the fused chain's
        # INPUT rows against its largest batch_size — a 4096 here
        # bundled 4096 docs per task and re-serialized d01 at sf0.1)
        band_rows.map_batches(bucketize_bands, batch_format="pandas", batch_size=None)
        .groupby("bucket")
        .map_groups(pairs_bucket, batch_format="pandas")
    )

    def dedup(group: pd.DataFrame) -> pd.DataFrame:
        if group.empty:
            return group
        return group.groupby(["id_a", "id_b"], as_index=False)["hamming"].min()

    def bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            batch["bucket"] = pd.Series([], dtype="int32")
            return batch
        comb = batch["id_a"].astype(str) + "|" + batch["id_b"].astype(str)
        batch["bucket"] = _bucket_series(comb, 64)
        return batch

    return (
        cands.map_batches(bucketize, batch_format="pandas", batch_size=65536)
        .groupby("bucket")
        .map_groups(dedup, batch_format="pandas")
    )


# ----------------------------------------------------------- exact verification


def ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    """Exact token n-gram Jaccard (the verify stage behind MinHash)."""

    def grams(s: str) -> set:
        toks = s.lower().split()
        if len(toks) < n:
            return {tuple(toks)}
        return {tuple(toks[i : i + n]) for i in range(len(toks) - n + 1)}

    ga, gb = grams(a), grams(b)
    if not ga and not gb:
        return 1.0
    return len(ga & gb) / len(ga | gb)


def verify_pairs_exact(pairs_df: pd.DataFrame, texts: dict, n: int = 3) -> pd.DataFrame:
    """Exact n-gram Jaccard for candidate pairs (texts broadcast as dict —
    the small-corpus path; :func:`ngram_jaccard_pairs` is the scale path)."""
    vals = [
        ngram_jaccard(texts[a], texts[b], n)
        for a, b in zip(pairs_df["id_a"], pairs_df["id_b"])
    ]
    out = pairs_df.copy()
    out["jaccard"] = vals
    return out


def _attach_text(pairs_ds, texts_ds, key_col: str, carry: list[tuple[str, pa.DataType]],
                 out_col: str, id_col: str, text_col: str, n_buckets: int = 64):
    """One bucketed co-partition pass: attach ``texts[key]`` to each pair
    row as ``out_col``.  Union of typed-null-padded sides + one key-hash
    bucket groupby; the kernel builds a key->text dict from ITS bucket's
    text rows only (the hash co-partition is total per key)."""
    fields = [*carry, ("__key", pa.int64()), ("__text", pa.string()),
              ("__side", pa.int8()), ("bucket", pa.int32())]
    schema = pa.schema(fields)

    def tag_pairs(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        key = batch[key_col].cast(pa.int64())
        bucket = pc.cast(
            pc.bit_wise_and(key, pa.scalar(n_buckets - 1, pa.int64())), pa.int32()
        )
        cols = []
        for name, typ in carry:
            cols.append(batch[name].cast(typ) if name in batch.column_names
                        else pa.nulls(n, typ))
        cols += [key, pa.nulls(n, pa.string()),
                 pa.array(np.zeros(n, np.int8)), bucket]
        return pa.Table.from_arrays(cols, schema=schema)

    def tag_texts(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        key = batch[id_col].cast(pa.int64())
        bucket = pc.cast(
            pc.bit_wise_and(key, pa.scalar(n_buckets - 1, pa.int64())), pa.int32()
        )
        cols = [pa.nulls(n, typ) for _name, typ in carry]
        cols += [key, batch[text_col].cast(pa.string()),
                 pa.array(np.ones(n, np.int8)), bucket]
        return pa.Table.from_arrays(cols, schema=schema)

    tagged = pairs_ds.map_batches(tag_pairs, batch_format="pyarrow").union(
        texts_ds.map_batches(tag_texts, batch_format="pyarrow")
    )

    out_fields = [*carry, (out_col, pa.string())]

    def attach(group: pa.Table) -> pa.Table:
        side = group["__side"]
        texts = group.filter(pc.equal(side, 1))
        pairs = group.filter(pc.equal(side, 0))
        lookup = dict(zip(texts["__key"].to_pylist(), texts["__text"].to_pylist()))
        keys = pairs["__key"].to_pylist()
        cols = [pairs[name] for name, _t in carry]
        cols.append(pa.array([lookup.get(k) for k in keys], pa.string()))
        return pa.Table.from_arrays(cols, schema=pa.schema(out_fields))

    return tagged.groupby("bucket").map_groups(attach, batch_format="pyarrow")


def ngram_jaccard_pairs(
    texts_ds,
    pairs_ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 3,
    n_buckets: int = 64,
    strategy: str = "auto",
    broadcast_max_pairs: int = 50_000,
):
    """Exact n-gram Jaccard verification for candidate pairs.

    Join-strategy selection, like a real engine's size-based planner:

    * ``copartition`` — BOTH sides large: two bucketed co-partition
      passes attach text_a/text_b to each pair (nothing broadcast,
      nothing on the driver).  Shuffled volume = pairs + 2 x corpus.
    * ``broadcast`` — pairs side small (the common case after the
      ``min_est`` threshold pushdown): collect the pair ids (two int64
      columns), ``ray.put`` the id set, filter the corpus down to ONLY
      texts referenced by some pair (a semi-join — at most 2x|pairs|
      rows survive regardless of corpus size), broadcast that text map
      and verify per pair batch.  Shuffle volume drops from 2 x corpus
      to one corpus filter pass.
    * ``auto`` — materialize the (tiny) pair list once and pick:
      broadcast below ``broadcast_max_pairs``, else co-partition.

    ``broadcast_max_pairs`` bounds driver/broadcast memory: the text
    map holds at most 2x that many documents (50k pairs x ~1.5 KB docs
    ~ 150 MB worst case).  Raise it only with short documents.
    """
    if strategy == "auto":
        pairs_ds = pairs_ds.materialize()
        strategy = (
            "broadcast" if pairs_ds.count() <= broadcast_max_pairs else "copartition"
        )
    if strategy == "broadcast":
        return _ngram_jaccard_pairs_broadcast(
            texts_ds, pairs_ds, id_col, text_col, n
        )
    base = [("id_a", pa.int64()), ("id_b", pa.int64())]
    with_a = _attach_text(
        pairs_ds, texts_ds, "id_a", base, "text_a", id_col, text_col, n_buckets
    )
    with_b = _attach_text(
        with_a, texts_ds, "id_b", base + [("text_a", pa.string())],
        "text_b", id_col, text_col, n_buckets,
    )

    def compute(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "id_a": batch["id_a"].astype("int64"),
                "id_b": batch["id_b"].astype("int64"),
                "jaccard": [
                    ngram_jaccard(x or "", y or "", n)
                    for x, y in zip(batch["text_a"], batch["text_b"])
                ],
            }
        )

    return with_b.map_batches(compute, batch_format="pandas", batch_size=65536)


def _empty_jaccard_pairs():
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "jaccard": pa.array([], pa.float64()),
            }
        )
    )


def _ngram_jaccard_pairs_broadcast(texts_ds, pairs_ds, id_col, text_col, n):
    """Small-pairs path: semi-join-filter the corpus, broadcast the
    surviving (id -> text) map, verify per pair batch (the same
    :func:`verify_pairs_exact` kernel as the small-corpus path, with
    missing ids treated as empty text)."""
    import ray

    blocks = [ray.get(r) for r in pairs_ds.to_arrow_refs()]
    blocks = [b for b in blocks if b.num_rows]
    if not blocks:
        # zero candidate pairs (e.g. min_est filtered everything) —
        # empty blocks may be schema-less, so short-circuit
        return _empty_jaccard_pairs()
    pair_tbl = pa.concat_tables(blocks)
    wanted = pa.compute.unique(
        pa.concat_arrays(
            [
                pair_tbl["id_a"].combine_chunks(),
                pair_tbl["id_b"].combine_chunks(),
            ]
        )
    )
    wanted_ref = ray.put(wanted)

    def keep_wanted(batch: pa.Table) -> pa.Table:
        ids = ray.get(wanted_ref)
        sel = batch.filter(pa.compute.is_in(batch[id_col], value_set=ids))
        return pa.table({id_col: sel[id_col], text_col: sel[text_col]})

    needed = texts_ds.map_batches(keep_wanted, batch_format="pyarrow")
    text_map: dict = {}
    for r in needed.to_arrow_refs():
        t = ray.get(r)
        text_map.update(zip(t[id_col].to_pylist(), t[text_col].to_pylist()))
    map_ref = ray.put(text_map)

    def compute(batch: pd.DataFrame) -> pd.DataFrame:
        import collections

        lookup = collections.defaultdict(str, ray.get(map_ref))
        out = verify_pairs_exact(
            batch[["id_a", "id_b"]].astype("int64"), lookup, n
        )
        return out

    import ray.data

    # from_arrow yields ONE block -> one task; the per-pair exact-gram
    # kernel is the expensive part of this path (~0.5 ms/pair), so
    # split the (tiny, <= broadcast_max_pairs) pair list across the
    # cluster before verifying (measured: d05 verify 2.6s serial ->
    # 0.2s at 32 CPUs on 5k pairs)
    n_out = max(1, min(128, pair_tbl.num_rows // 64))
    return (
        ray.data.from_arrow(pair_tbl)
        .repartition(n_out)
        .map_batches(compute, batch_format="pandas")
    )


# --------------------------------------------------------- embedding near-dup


def embedding_neardup_pairs(
    ds,
    id_col: str,
    vec_col: str,
    threshold: float = 0.9,
    n_planes: int = 12,
    seed: int = 11,
    n_tables: int = 1,
):
    """Cosine >= threshold pairs via random-hyperplane LSH + exact verify.

    Vectors hashing to the same n_planes-bit signature are candidates;
    exact cosine is computed inside each bucket (vectorized matmul).
    Recall: near-identical vectors collide in one table with prob
    (1 - theta/pi)^n_planes; ``n_tables`` independent tables (seeded
    ``seed + t``; table 0 == the single-table layout) drive the miss
    rate to miss^T at T-times the bucketize/shuffle volume — the
    standard LSH recall/cost dial.  Cross-table duplicate pairs are
    deduped in a final hash-bucketed pass (only when n_tables > 1).
    """
    planes_by_table: dict[int, np.ndarray] = {}

    def bucketize(batch: pa.Table) -> pa.Table:
        from .ann import _as_matrix

        mat = _as_matrix(batch[vec_col])
        n = len(mat)
        shifts = np.arange(n_planes, dtype=np.uint64)[None, :]
        keys = []
        for t in range(n_tables):
            planes = planes_by_table.get(t)
            if planes is None:
                planes = np.random.RandomState(seed + t).standard_normal(
                    (mat.shape[1], n_planes)
                )
                planes_by_table[t] = planes
            sig = (mat @ planes > 0).astype(np.uint64)
            key = (sig << shifts).sum(axis=1)
            # disjoint key spaces per table: same-signature rows of
            # DIFFERENT tables must not land in one bucket
            keys.append((np.uint64(t) << np.uint64(n_planes)) | key)
        idx = pa.array(np.tile(np.arange(n, dtype=np.int64), n_tables))
        return pa.table(
            {
                "lsh_key": pa.array(
                    np.concatenate(keys).astype(np.int64), pa.int64()
                ),
                id_col: batch[id_col].take(idx),
                vec_col: batch[vec_col].take(idx),
            }
        )

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        # typed even when empty: zero-row object columns trip Ray's
        # block size estimator into per-block error logs
        id_dtype = group[id_col].dtype
        if id_dtype == np.dtype(object):
            id_dtype = "string"
        rows = []
        if not group.empty:
            g = group.drop_duplicates(subset=[id_col]).sort_values(id_col)
            ids = g[id_col].to_numpy()
            mat = np.array(g[vec_col].to_list(), dtype=np.float64)
            norms = np.linalg.norm(mat, axis=1)
            norms[norms == 0] = 1.0
            unit = mat / norms[:, None]
            sims = unit @ unit.T
            for i in range(len(ids)):
                hits = np.flatnonzero(sims[i, i + 1 :] >= threshold)
                for off in hits:
                    rows.append(
                        (ids[i], ids[i + 1 + off], float(sims[i, i + 1 + off]))
                    )
        return pd.DataFrame(
            {
                "id_a": pd.Series([r[0] for r in rows], dtype=id_dtype),
                "id_b": pd.Series([r[1] for r in rows], dtype=id_dtype),
                "cosine": pd.Series([r[2] for r in rows], dtype="float64"),
            }
        )

    # bucket-run over the 2^n_planes signature space: O(64) Ray groups,
    # singleton signatures vectorized-dropped before the pair kernel
    raw = _grouped_runs(
        ds.map_batches(bucketize, batch_format="pyarrow", batch_size=4096),
        ["lsh_key"],
        pairs,
        min_group_size=2,
    )
    if n_tables == 1:
        return raw

    # cross-table dedup: the same pair found by several tables hashes to
    # ONE bucket, so per-bucket drop_duplicates is a global dedup
    def pair_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            batch["bucket"] = pd.Series([], dtype="int32")
            return batch
        h = (
            batch["id_a"].astype("int64") * 1_000_003 + batch["id_b"].astype("int64")
        )
        batch["bucket"] = (h % 64).astype("int32")
        return batch

    def dedupe(group: pd.DataFrame) -> pd.DataFrame:
        return group.drop_duplicates(subset=["id_a", "id_b"]).drop(
            columns=["bucket"]
        )

    return (
        raw.map_batches(pair_bucket, batch_format="pandas", batch_size=65536)
        .groupby("bucket")
        .map_groups(dedupe, batch_format="pandas")
    )


# ------------------------------------------------------- decontamination


def _word_ngram_strings(batch: pa.Table, text_col: str, n: int):
    """Word n-grams as strings per doc, fully Arrow-vectorized.

    Split on single space (the p01/t05 token convention), flatten, and
    build each n-gram via ``binary_join_element_wise`` over ``n``
    shifted takes of the flat token array — no Python per token.
    Docs with fewer than ``n`` tokens produce no n-grams.

    Returns (grams: pa.Array[string], parents: int64 np.ndarray row
    index of each gram's document).
    """
    toks = pc.split_pattern(batch[text_col].combine_chunks(), " ")
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    m = len(flat)
    if m < n:
        return pa.array([], pa.string()), np.empty(0, np.int64)
    # position i starts an n-gram iff tokens i..i+n-1 share a parent
    valid = parents[: m - n + 1] == parents[n - 1 :]
    idx = np.flatnonzero(valid)
    if len(idx) == 0:
        return pa.array([], pa.string()), np.empty(0, np.int64)
    shifted = [flat.take(pa.array(idx + j, pa.int64())) for j in range(n)]
    grams = pc.binary_join_element_wise(*shifted, " ")
    return grams, parents[idx]


def decontaminate(
    train_ds,
    test_ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 8,
    max_test_shingles: int = 5_000_000,
):
    """Test-set decontamination: flag every training doc that shares at
    least one word ``n``-gram with any test-set doc (the standard
    eval-leakage scan for LLM training corpora).

    Shape: the test side is the SMALL side by construction (held-out
    eval sets are a fixed, bounded artifact), so its distinct n-grams
    are collected once and broadcast via ``ray.put``; each training
    batch then dictionary-encodes its own n-grams and probes the set
    on unique values only.  ``max_test_shingles`` bounds the driver /
    broadcast memory explicitly — beyond it, swap the broadcast for a
    bucketed co-partition semi-join on the gram (the
    ``ngram_jaccard_pairs`` machinery); at 100 TB the broadcast side
    stays a few GB because the *test set* does not grow with the
    training corpus.

    Returns a Dataset of (id_col, contaminated: bool), one row per
    training doc.
    """
    import ray

    def test_grams(batch: pa.Table) -> pa.Table:
        grams, _parents = _word_ngram_strings(batch, text_col, n)
        if len(grams):
            grams = pc.unique(grams)
        return pa.table({"g": grams})

    gram_set: set = set()
    for b in test_ds.map_batches(
        test_grams, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        gram_set.update(b["g"].to_pylist())
        if len(gram_set) > max_test_shingles:
            raise ValueError(
                f"test side exceeds max_test_shingles={max_test_shingles}; "
                "use the bucketed co-partition path"
            )
    gram_ref = ray.put(gram_set)

    def probe(batch: pa.Table) -> pa.Table:
        gs = ray.get(gram_ref)
        n_rows = batch.num_rows
        grams, parents = _word_ngram_strings(batch, text_col, n)
        hit = np.zeros(n_rows, dtype=bool)
        if len(grams):
            enc = pc.dictionary_encode(grams)
            if isinstance(enc, pa.ChunkedArray):
                enc = enc.combine_chunks()
            vocab_hit = np.fromiter(
                (g in gs for g in enc.dictionary.to_pylist()),
                dtype=bool,
                count=len(enc.dictionary),
            )
            gram_hit = vocab_hit[enc.indices.to_numpy(zero_copy_only=False)]
            hit[np.unique(parents[gram_hit])] = True
        return pa.table(
            {
                id_col: batch[id_col],
                "contaminated": pa.array(hit, pa.bool_()),
            }
        )

    return train_ds.map_batches(probe, batch_format="pyarrow", batch_size=8192)


# --------------------------------------------------------- priority dedup


def keep_best_dedup(
    ds,
    id_col: str,
    content_col: str,
    priority_col: str,
    n_buckets: int = 64,
):
    """Exact dedup keeping the BEST row per distinct content value:
    lowest ``priority_col`` wins, ties broken by lowest ``id_col`` —
    the cross-source curation rule ("prefer the curated mirror over
    the crawl") layered on :func:`exact_dedup`'s hash-bucket shape.

    One content-hash bucket shuffle; collisions resolved by comparing
    the full content inside the bucket kernel.
    """

    def keyed(batch: pa.Table) -> pd.DataFrame:
        # vectorized FNV64 byte-folds, not a per-row Python hash loop
        # (this stage scans the full corpus)
        h = _fnv64_arr(batch[content_col])
        out = pd.DataFrame(
            {
                id_col: batch[id_col].to_numpy(zero_copy_only=False),
                content_col: batch[content_col].to_pandas(),
                priority_col: batch[priority_col].to_numpy(zero_copy_only=False),
            }
        )
        out["bucket"] = (h % np.uint64(n_buckets)).astype("int32")
        return out

    def best(group: pd.DataFrame) -> pd.DataFrame:
        out = (
            group.sort_values([priority_col, id_col])
            .groupby(content_col, as_index=False)
            .first()
        )
        return out[[id_col, priority_col]]

    return (
        ds.map_batches(keyed, batch_format="pyarrow", batch_size=8192)
        .groupby("bucket")
        .map_groups(best, batch_format="pandas")
    )


# ------------------------------------------------------------- line dedup


def line_dedup(ds, id_col: str = "doc_id", text_col: str = "text",
               n_buckets: int = 64):
    """Corpus-wide exact line dedup (the RefinedWeb/C4 boilerplate
    remover): across ALL docs, each distinct line survives only where
    it first appears (lowest ``(id, line_no)``); docs are reassembled
    from their surviving lines in original order.

    Shape: explode to (id, line_no, line, n_lines) rows — the line
    bucket key is hashed on the batch's dictionary-encoded UNIQUE
    lines, so hashing is O(distinct lines), not O(rows).  ONE
    line-hash bucket shuffle picks global winners (full line value
    compared inside the bucket, so hash collisions are safe); ONE
    doc-hash bucket shuffle reassembles.  Docs whose every line loses
    (pure-boilerplate docs) drop out of the result — standard filter
    semantics; callers wanting them back anti-join on the id set.

    Returns (id_col, clean_text, n_kept, n_lines).
    """

    def explode(batch: pa.Table) -> pd.DataFrame:
        from .text import _per_parent_rank, _string_array

        txt = _string_array(batch[text_col])
        lines = pc.split_pattern(txt, "\n")
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        flat = pc.list_flatten(lines)
        parents = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)
        line_no = _per_parent_rank(parents)
        n_lines = np.bincount(parents, minlength=batch.num_rows)
        codes = pc.dictionary_encode(flat)
        if isinstance(codes, pa.ChunkedArray):
            codes = codes.combine_chunks()
        uniq_hash = np.fromiter(
            (hash_u32(s) for s in codes.dictionary.to_pylist()),
            dtype=np.int64,
            count=len(codes.dictionary),
        )
        bucket = (uniq_hash % n_buckets).astype(np.int32)[
            codes.indices.to_numpy(zero_copy_only=False)
        ]
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return pd.DataFrame(
            {
                id_col: ids[parents],
                "line_no": line_no,
                "line": flat.to_pandas(),
                "n_lines": n_lines[parents].astype(np.int64),
                "bucket": bucket,
            }
        )

    def winners(group: pd.DataFrame) -> pd.DataFrame:
        out = group.sort_values(["line", id_col, "line_no"]).drop_duplicates(
            "line"
        )[[id_col, "line_no", "line", "n_lines"]]
        out = out.copy()
        out["bucket"] = (
            out[id_col].to_numpy().astype(np.int64) % n_buckets
        ).astype("int32")
        return out

    def reassemble(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([id_col, "line_no"])
        agg = g.groupby(id_col, as_index=False).agg(
            clean_text=("line", "\n".join),
            n_kept=("line", "size"),
            n_lines=("n_lines", "first"),
        )
        agg["n_kept"] = agg["n_kept"].astype("int64")
        agg["n_lines"] = agg["n_lines"].astype("int64")
        return agg

    return (
        ds.map_batches(explode, batch_format="pyarrow", batch_size=4096)
        .groupby("bucket")
        .map_groups(winners, batch_format="pandas")
        .groupby("bucket")
        .map_groups(reassemble, batch_format="pandas")
    )


def _lev_is_1(a: str, b: str) -> bool:
    """Exact edit-distance == 1 check (strings assumed distinct)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) == 1
    if la > lb:
        a, b, la = b, a, lb
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1 :]


def edit_distance_pairs(ds, col: str = "s", n_buckets: int = 64):
    """All pairs of distinct strings at edit distance exactly 1 —
    FastSS deletion neighborhoods (Bocek et al. 2007): two strings
    with lev <= 1 must share an element of {s} ∪ {s minus one char},
    so candidate generation is a hash-bucket co-partition on the
    O(len) deletion keys, never an all-pairs scan; candidates are
    then verified with the exact distance.

    Spelling-variant / typo dedup for token vocabularies and short
    fields (titles, names).  The verify loop runs per CANDIDATE pair
    (output-sized — pairs sharing a deletion key — not corpus-sized);
    keys and pair dedup both go through bucketed shuffles, nothing
    driver-side.  Returns a Dataset of (a, b) with a < b."""
    from .agg import bucketed_sum

    def keys(batch: pa.Table) -> pd.DataFrame:
        s = batch[col].to_pandas().drop_duplicates()
        out_k, out_s = [], []
        for v in s:
            out_k.append(v)
            out_s.append(v)
            for i in range(len(v)):
                out_k.append(v[:i] + v[i + 1 :])
                out_s.append(v)
        df = pd.DataFrame({"k": out_k, "s": out_s})
        h = pd.util.hash_array(df["k"].to_numpy(object)).astype(np.int64)
        return df.assign(bucket=(h % n_buckets).astype(np.int32))

    def candidates(g: pd.DataFrame) -> pd.DataFrame:
        df = g[["k", "s"]].drop_duplicates().sort_values(["k", "s"])
        k = df["k"].to_numpy(object)
        s = df["s"].to_numpy(object)
        xs, ys = [], []
        j = 1
        while True:
            same = k[j:] == k[:-j]
            if not same.any():
                break
            xs.append(s[:-j][same])
            ys.append(s[j:][same])
            j += 1
        if not xs:
            # typed empty: zero-row object columns trip Ray's size estimator
            return pd.DataFrame(
                {
                    "a": pd.Series([], dtype="string"),
                    "b": pd.Series([], dtype="string"),
                }
            )
        a = np.concatenate(xs)
        b = np.concatenate(ys)
        neq = a != b
        return pd.DataFrame({"a": a[neq], "b": b[neq]}).drop_duplicates()

    cand = (
        ds.map_batches(keys, batch_format="pyarrow", batch_size=8192)
        .groupby("bucket")
        .map_groups(candidates, batch_format="pandas")
    )
    deduped = bucketed_sum(cand, ["a", "b"], [], count_col="n").drop_columns(
        ["n"]
    )

    def verify(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_pylist()
        b = batch["b"].to_pylist()
        keep = pa.array([_lev_is_1(x, y) for x, y in zip(a, b)], pa.bool_())
        return batch.filter(keep)

    return deduped.map_batches(verify, batch_format="pyarrow")


# -------------------------------------- incremental dedup (persisted index)


def save_minhash_index(
    ds,
    path: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    n_shards: int = 64,
) -> None:
    """Persist the banded MinHash-LSH index of a corpus as sharded
    parquet + a metadata file — the historical side of INCREMENTAL
    dedup (daily-delta-vs-corpus, the production shape: the 100-TB
    corpus is indexed ONCE; each new batch probes the index instead of
    re-shuffling the world).

    Band rows are written under hive dirs ``shard=<band_hash & mask>``
    so a probe reads only the shards its own band hashes touch
    (partition pruning by path — the ann.save_lsh_index pattern).
    (No reference analogue; builder-brief operator.)"""
    import json
    import os

    rows = minhash_bands(ds, id_col, text_col, num_perm, bands, shingle_k)

    def shard(batch: pa.Table) -> pa.Table:
        s = pc.cast(
            pc.bit_wise_and(batch["band_hash"], pa.scalar(n_shards - 1, pa.int64())),
            pa.int32(),
        )
        return batch.append_column("shard", s)

    os.makedirs(os.path.join(path, "data"), exist_ok=True)
    rows.map_batches(shard, batch_format="pyarrow").write_parquet(
        os.path.join(path, "data"), partition_cols=["shard"]
    )
    with open(os.path.join(path, "index_meta.json"), "w") as f:
        json.dump(
            {
                "kind": "minhash_lsh",
                "num_perm": num_perm,
                "bands": bands,
                "shingle_k": shingle_k,
                "n_shards": n_shards,
                "id_col": id_col,
                "text_col": text_col,
            },
            f,
        )


def minhash_probe_index(
    new_ds,
    path: str,
    min_est: float = 0.0,
    max_group: int = 200,
    n_buckets: int = 64,
):
    """Probe a :func:`save_minhash_index` index with NEW documents ->
    near-dup candidates ``(new_id, old_id, est_jaccard)`` against the
    indexed corpus.

    The index is ALREADY hash-partitioned on disk (hive dirs
    ``shard=<band_hash & mask>``), so the probe co-partitions by
    CONSTRUCTION instead of shuffling the index through Ray: only the
    delta's band rows (small by contract — a day's intake vs the full
    corpus) go through one ``groupby(shard)`` exchange, and each shard
    group's kernel reads its matching index shard straight from
    storage inside the task (partition pruning by path: shards no
    probe row touches are never opened).  The earlier design
    union+shuffled BOTH sides' signature-laden band rows; the index
    side's bytes dominated the sort (measured at sf0.1: 175 MB
    shuffled -> 88 MB, probe 8.5s -> see BASELINE.md).  The pair
    kernel compares signatures new-vs-old only (never old-vs-old —
    the corpus was already deduped when it was indexed).

    Same-pair-via-multiple-bands duplicates collapse through one more
    bucketed max-reduce, mirroring :func:`minhash_candidate_pairs`.
    """
    import glob as _glob
    import json
    import os

    with open(os.path.join(path, "index_meta.json")) as f:
        meta = json.load(f)
    id_col = meta["id_col"]
    n_shards = meta["n_shards"]
    cols = ["band_id", "band_hash", id_col, "signature"]
    data_root = os.path.join(path, "data")

    probe_rows = minhash_bands(
        new_ds,
        id_col,
        meta["text_col"],
        meta["num_perm"],
        meta["bands"],
        meta["shingle_k"],
    )

    def shardize(batch: pa.Table) -> pa.Table:
        s = pc.cast(
            pc.bit_wise_and(batch["band_hash"], pa.scalar(n_shards - 1, pa.int64())),
            pa.int32(),
        )
        return batch.append_column("shard", s)

    empty = pa.table(
        {
            "new_id": pa.array([], pa.int64()),
            "old_id": pa.array([], pa.int64()),
            "est_jaccard": pa.array([], pa.float64()),
        }
    )

    def probe_shard(g: pa.Table) -> pa.Table:
        """One index shard's probe rows vs that shard's persisted band
        rows — flat arrays end to end (numpy lexsort + zero-copy
        signature matrices; no pandas boxing).  Collision groups are
        overwhelmingly (old, new) twins, handled by one vectorized
        size-2 pass; only size>2 groups loop."""
        import pyarrow.parquet as pq

        if g.num_rows == 0:
            return empty
        if not os.path.isdir(data_root):
            # the save always creates data/ — its absence on THIS node
            # means the index lives on storage the worker cannot see;
            # silently matching nothing would be wrong output
            raise RuntimeError(
                f"minhash index {path!r}: data/ tree not visible on this "
                "worker — the index must live on storage shared by every "
                "node"
            )
        shard = g["shard"][0].as_py()
        files = sorted(
            _glob.glob(os.path.join(data_root, f"shard={shard}", "*.parquet"))
        )
        if not files:
            # a shard dir may legitimately be absent (no band hashed
            # there at index time) — that is a true no-match
            return empty
        old = pa.concat_tables([pq.read_table(f, columns=cols) for f in files])
        if old.num_rows == 0:
            return empty
        n_old, n_new = old.num_rows, g.num_rows
        b0 = np.concatenate(
            [
                old["band_id"].to_numpy(zero_copy_only=False),
                g["band_id"].to_numpy(zero_copy_only=False),
            ]
        )
        b1 = np.concatenate(
            [
                old["band_hash"].to_numpy(zero_copy_only=False),
                g["band_hash"].to_numpy(zero_copy_only=False),
            ]
        )
        side = np.concatenate(
            [np.zeros(n_old, np.int8), np.ones(n_new, np.int8)]
        )
        ids = np.concatenate(
            [
                old[id_col].to_numpy(zero_copy_only=False),
                g[id_col].to_numpy(zero_copy_only=False),
            ]
        )
        sigs = np.concatenate(
            [_sig_matrix(old["signature"]), _sig_matrix(g["signature"])]
        )
        order = np.lexsort((ids, side, b1, b0))
        b0, b1, side, ids, sigs = (
            b0[order], b1[order], side[order], ids[order], sigs[order]
        )
        change = np.flatnonzero((np.diff(b0) != 0) | (np.diff(b1) != 0)) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(b0)]))
        sizes = ends - starts
        out_n: list = []
        out_o: list = []
        out_e: list = []
        two = np.flatnonzero(sizes == 2)
        if two.size:
            i0 = starts[two]
            i1 = i0 + 1
            mixed = (side[i0] == 0) & (side[i1] == 1)  # one old + one new
            i0m, i1m = i0[mixed], i1[mixed]
            if i0m.size:
                est = (sigs[i0m] == sigs[i1m]).mean(axis=1)
                keep = est >= min_est
                out_o.extend(ids[i0m[keep]])
                out_n.extend(ids[i1m[keep]])
                out_e.extend(est[keep])
        for gi in np.flatnonzero(sizes > 2):
            s, e = starts[gi], ends[gi]
            olds = np.arange(s, e)[side[s:e] == 0]
            news = np.arange(s, e)[side[s:e] == 1]
            if not olds.size or not news.size:
                continue
            if len(news) > max_group or len(olds) > max_group:
                import warnings

                warnings.warn(
                    f"minhash probe: degenerate band group capped at {max_group} "
                    f"rows per side ({len(news)}x{len(olds)} candidates dropped "
                    "beyond)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                olds = olds[:max_group]  # sides sorted by id within the run
                news = news[:max_group]
            est = (sigs[news][:, None, :] == sigs[olds][None, :, :]).mean(axis=2)
            ii, jj = np.nonzero(est >= min_est)
            if ii.size:
                out_n.extend(ids[news[ii]])
                out_o.extend(ids[olds[jj]])
                out_e.extend(est[ii, jj])
        if not out_n:
            return empty
        return pa.table(
            {
                "new_id": pa.array(np.asarray(out_n, np.int64), pa.int64()),
                "old_id": pa.array(np.asarray(out_o, np.int64), pa.int64()),
                "est_jaccard": pa.array(
                    np.asarray(out_e, np.float64), pa.float64()
                ),
            }
        )

    cands = (
        # only the (small) delta side is exchanged; the index side is
        # read in-task from its hive shard, pruned by path
        probe_rows.map_batches(shardize, batch_format="pyarrow", batch_size=None)
        .groupby("shard")
        .map_groups(probe_shard, batch_format="pyarrow")
    )

    # collapse same-pair-from-multiple-bands: whole-bucket pandas groupby
    # (one kernel call per bucket, NOT per pair — the bucket-run rule)
    def pair_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            batch["bucket"] = pd.Series([], dtype="int32")
            return batch
        h = (
            batch["new_id"].to_numpy().astype(np.uint64) * np.uint64(0x9E3779B1)
            + batch["old_id"].to_numpy().astype(np.uint64)
        )
        batch["bucket"] = (h % np.uint64(n_buckets)).astype("int32")
        return batch

    def dedup_pairs(group: pd.DataFrame) -> pd.DataFrame:
        if group.empty:
            return empty.to_pandas()
        return group.groupby(["new_id", "old_id"], as_index=False)[
            "est_jaccard"
        ].max()

    return (
        cands.map_batches(pair_bucket, batch_format="pandas", batch_size=65536)
        .groupby("bucket")
        .map_groups(dedup_pairs, batch_format="pandas")
    )


# ------------------------------------------------- exact duplicated spans


def _span_hash_seq(text: str, k: int) -> np.ndarray:
    """u64 FNV-1a hash of every k-byte window of ``text``, in position
    order (one hash per window — callers that only need the SET apply
    np.unique; winnowing needs the sequence).  Vectorized as k
    column-folds over a sliding-window view — the `_stable_shingles`
    technique at 64-bit width so 1.5M-gram corpora stay collision-free
    in practice (and an exact verify pass guarantees it regardless)."""
    t = text.encode("utf-8")
    if len(t) < k:
        return np.empty(0, dtype=np.uint64)
    buf = np.frombuffer(t, dtype=np.uint8)
    windows = np.lib.stride_tricks.sliding_window_view(buf, k).astype(np.uint64)
    h = np.full(windows.shape[0], np.uint64(14695981039346656037), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for c in range(k):
            h = (h ^ windows[:, c]) * np.uint64(1099511628211)
    return h


def _span_hashes(text: str, k: int) -> np.ndarray:
    """Distinct u64 gram hashes of ``text`` (the corpus is ASCII, so
    byte windows == character windows and the SQL ``substr`` oracle
    sees identical grams)."""
    return np.unique(_span_hash_seq(text, k))


def _has_shared_span(a: str, b: str, k: int) -> bool:
    """Exact predicate: do a and b share any identical k-char substring?"""
    if a is None or b is None or len(a) < k or len(b) < k:
        return False
    grams_a = {a[i : i + k] for i in range(len(a) - k + 1)}
    return any(b[i : i + k] in grams_a for i in range(len(b) - k + 1))


def _sliding_min_u64(a: np.ndarray, w: int) -> np.ndarray:
    """O(n) sliding-window minimum (van Herk / Gil–Werman two-pass
    block scheme) over a uint64 array — 3 passes regardless of ``w``,
    replacing the O(n*w) ``sliding_window_view(...).min(axis=1)`` in
    the winnowing hot loop (window=8 paid 8 full passes per chunk)."""
    n = len(a)
    m = n - w + 1
    if m <= 0:
        return a[:0]
    sentinel = np.uint64(0xFFFFFFFFFFFFFFFF)
    nb = -(-n // w)
    pad = nb * w
    buf = np.full(pad, sentinel, np.uint64)
    buf[:n] = a
    blocks = buf.reshape(nb, w)
    pre = np.minimum.accumulate(blocks, axis=1).ravel()
    suf = np.minimum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.minimum(suf[:m], pre[w - 1 : w - 1 + m])


def duplicated_span_pairs(
    texts_ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 40,
    n_buckets: int = 64,
    max_group: int = 2048,
    winnow_window: int = 0,
):
    """Exact duplicated-span detection (Lee et al. 2021, "Deduplicating
    Training Data Makes Language Models Better", arXiv:2107.06499 —
    the substring-dedup signal): emit every doc pair (id_a < id_b)
    sharing at least one IDENTICAL k-character span.

    Ray shape (never all-pairs, never a driver adjacency):
    1. per-batch vectorized window hashing -> (gram_h, id) rows
       (distinct per doc);
    2. gram-hash bucket-run pair generation (flat-array run kernel,
       degenerate grams capped at ``max_group`` ids with a warning —
       a boilerplate gram shared by everything would otherwise emit
       O(n^2) pairs);
    3. one bucketed sum dedupes candidate pairs across grams;
    4. exact verify: candidates <= 50k broadcast a semi-join-filtered
       text map (the d05 planner rule); above that, texts co-partition
       onto the pair list via two `_attach_text` passes.  Either way
       the shared-span predicate runs per pair — hash collisions can
       never reach the output.

    Scale note: gram rows are ~1 per corpus character, so the shuffle
    is O(corpus bytes) x 16 (one int64 hash + id per char).  At 100 TB
    run this per partition-range, or set ``winnow_window`` (see
    :func:`winnowed_span_pairs`) to thin the gram stream to per-window
    minima before the exchange.
    """
    from .agg import bucketed_sum

    # a position yields a (winnowed) gram iff this many consecutive
    # bytes sit inside one document
    span = k + (winnow_window - 1 if winnow_window > 1 else 0)

    def _gram_chunk(bufs: list[bytes], ids_chunk: np.ndarray):
        """One concatenated-byte chunk -> (gram_h int64, id int64).

        Whole-chunk vectorization (the e02 / _word_ngram_strings
        technique): ONE k-column FNV fold over the concatenation's
        sliding window view — per-column casts keep the materialized
        temporaries at 8 bytes/position — then windows that cross a
        document boundary are masked out via byte-parent comparison,
        winnow minima ride the same flat array, and per-doc distinct
        comes from one lexsort+diff.  The former per-doc Python loop
        paid two sliding_window_view setups + k tiny folds per DOC and
        dominated d12/d13 wall time."""
        lens = np.array([len(b) for b in bufs], dtype=np.int64)
        buf = np.frombuffer(b"".join(bufs), dtype=np.uint8)
        if len(buf) < span:
            return None
        parent = np.repeat(np.arange(len(bufs), dtype=np.int64), lens)
        win = np.lib.stride_tricks.sliding_window_view(buf, k)
        h = np.full(win.shape[0], np.uint64(14695981039346656037), np.uint64)
        prime = np.uint64(1099511628211)
        with np.errstate(over="ignore"):
            for c in range(k):
                h = (h ^ win[:, c].astype(np.uint64)) * prime
        if winnow_window > 1:
            if len(h) < winnow_window:
                return None
            # winnowing: keep each window's minimum gram hash.  Two
            # docs sharing a >= k+window-1 byte region see at least one
            # identical full window and therefore select the same
            # minimum VALUE — value-based matching needs no position
            # bookkeeping.
            h = _sliding_min_u64(h, winnow_window)
        m = len(h)
        valid = parent[:m] == parent[span - 1 : span - 1 + m]
        idx = np.flatnonzero(valid)
        if not idx.size:
            return None
        ph, vals = parent[idx], h[idx]
        order = np.lexsort((vals, ph))
        ph, vals = ph[order], vals[order]
        keep = np.ones(len(ph), bool)
        keep[1:] = (ph[1:] != ph[:-1]) | (vals[1:] != vals[:-1])
        return vals[keep].view(np.int64), ids_chunk[ph[keep]]

    def grams(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = batch[text_col].to_pylist()
        bufs = [(t or "").encode("utf-8") for t in texts]
        out_h, out_i = [], []
        if winnow_window > 1:
            # docs with >= 1 window but fewer than winnow_window of them
            # can't be winnowed — keep their raw grams (winnowing's
            # every-doc-selects-something coverage rule); the batch
            # kernel below masks them out via the span check
            for di in np.flatnonzero(
                (np.array([len(b) for b in bufs]) >= k)
                & (np.array([len(b) for b in bufs]) < span)
            ):
                hh = np.unique(_span_hash_seq(texts[di] or "", k))
                if len(hh):
                    out_h.append(hh.view(np.int64))
                    out_i.append(np.full(len(hh), ids[di], np.int64))
        # chunk by byte budget so the flat hash array stays ~32 MB even
        # on corpus-scale blocks
        lo, budget = 0, 4 << 20
        while lo < len(bufs):
            hi, total = lo, 0
            while hi < len(bufs) and (total == 0 or total + len(bufs[hi]) <= budget):
                total += len(bufs[hi])
                hi += 1
            res = _gram_chunk(bufs[lo:hi], ids[lo:hi])
            if res is not None:
                out_h.append(res[0])
                out_i.append(res[1])
            lo = hi
        if not out_h:
            return pa.table(
                {"gram_h": pa.array([], pa.int64()), "id": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "gram_h": pa.array(np.concatenate(out_h), pa.int64()),
                "id": pa.array(np.concatenate(out_i), pa.int64()),
            }
        )

    gram_rows = texts_ds.map_batches(grams, batch_format="pyarrow")

    def pairs_bucket(group: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"id_a": pd.Series([], dtype="int64"), "id_b": pd.Series([], dtype="int64")}
        )
        if group.empty:
            return empty
        g = (
            group.drop_duplicates(subset=["gram_h", "id"])
            .sort_values(["gram_h", "id"], kind="mergesort")
            .reset_index(drop=True)
        )
        if len(g) < 2:
            return empty
        gh = g["gram_h"].to_numpy(np.int64)
        ids = g["id"].to_numpy(np.int64)
        change = np.flatnonzero(np.diff(gh) != 0) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(g)]))
        sizes = ends - starts
        capped_rows = int(np.maximum(sizes - max_group, 0).sum())
        if capped_rows:
            import warnings

            warnings.warn(
                f"duplicated_span_pairs: {capped_rows} rows beyond "
                f"max_group={max_group} in degenerate gram groups lose pairs",
                RuntimeWarning,
                stacklevel=2,
            )
        # pos-in-run: the cap keeps only pairs among the first max_group
        # ids of a run (both endpoints inside the cap window)
        pos = np.arange(len(g)) - starts.repeat(sizes)
        out_a, out_b = [], []
        # run-diff pair generation: distance-j pairs within equal-hash runs
        j = 1
        while j < max_group:
            same = (gh[j:] == gh[:-j]) & (pos[j:] < max_group)
            if not same.any():
                break
            out_a.append(ids[:-j][same])
            out_b.append(ids[j:][same])
            j += 1
        if not out_a:
            return empty
        return pd.DataFrame(
            {"id_a": np.concatenate(out_a), "id_b": np.concatenate(out_b)}
        ).drop_duplicates()

    # gram_h-hash bucket shuffle + flat-array run kernel (one kernel call
    # per bucket, not per gram — the CLAUDE.md bucket-run rule)
    def bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            batch["bucket"] = pd.Series([], dtype="int32")
            return batch
        h = batch["gram_h"].to_numpy(np.int64).view(np.uint64)
        batch["bucket"] = (h % np.uint64(n_buckets)).astype("int32")
        return batch

    cand = (
        gram_rows.map_batches(bucketize, batch_format="pandas", batch_size=65536)
        .groupby("bucket")
        .map_groups(pairs_bucket, batch_format="pandas")
    )
    from .joins import _distinct_pairs

    # size-gated candidate dedup (shared with the set-similarity joins):
    # driver pyarrow distinct below the raw-pair bound, bucketed
    # exchange above — the distinct shuffle right before the bounded
    # driver pull below was pure exchange latency at bench scale
    distinct = _distinct_pairs(cand, n_buckets)
    n_cand = distinct.count()
    if n_cand == 0:
        # zero candidates: downstream all-empty blocks lose their
        # schema, so short-circuit with a typed empty (the
        # _empty_jaccard_pairs precedent)
        import ray.data

        return ray.data.from_arrow(
            pa.table(
                {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
            )
        )
    if n_cand <= 50_000:
        # size-adaptive verify, the d05 planner rule: few candidates ->
        # semi-join-filter the corpus to pair-referenced texts, broadcast
        # that bounded map, verify per pair batch (saves the two full
        # corpus co-partition passes)
        import ray
        import ray.data

        pair_tbl = pa.concat_tables(
            [t for r in distinct.to_arrow_refs() if (t := ray.get(r)).num_rows]
        )
        wanted = pc.unique(
            pa.concat_arrays(
                [pair_tbl["id_a"].combine_chunks(), pair_tbl["id_b"].combine_chunks()]
            )
        )
        wanted_ref = ray.put(wanted)

        def keep_wanted(batch: pa.Table) -> pa.Table:
            ids = ray.get(wanted_ref)
            sel = batch.filter(pc.is_in(batch[id_col].cast(pa.int64()), value_set=ids))
            return pa.table(
                {id_col: sel[id_col].cast(pa.int64()), text_col: sel[text_col]}
            )

        needed = texts_ds.map_batches(keep_wanted, batch_format="pyarrow")
        text_map: dict = {}
        for r in needed.to_arrow_refs():
            t = ray.get(r)
            text_map.update(zip(t[id_col].to_pylist(), t[text_col].to_pylist()))
        map_ref = ray.put(text_map)

        def verify_bcast(batch: pd.DataFrame) -> pd.DataFrame:
            lookup = ray.get(map_ref)
            keep = [
                _has_shared_span(lookup.get(a), lookup.get(b), k)
                for a, b in zip(batch["id_a"], batch["id_b"])
            ]
            out = batch.loc[keep]
            return pd.DataFrame(
                {
                    "id_a": out["id_a"].astype("int64"),
                    "id_b": out["id_b"].astype("int64"),
                }
            )

        return ray.data.from_arrow(pair_tbl).map_batches(
            verify_bcast, batch_format="pandas", batch_size=65536
        )

    base = [("id_a", pa.int64()), ("id_b", pa.int64())]
    with_a = _attach_text(
        distinct, texts_ds, "id_a", base, "text_a", id_col, text_col, n_buckets
    )
    with_b = _attach_text(
        with_a, texts_ds, "id_b", base + [("text_a", pa.string())],
        "text_b", id_col, text_col, n_buckets,
    )

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty or "id_a" not in batch.columns:
            # zero candidates: empty blocks may arrive schema-less
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype="int64"),
                    "id_b": pd.Series([], dtype="int64"),
                }
            )
        keep = [
            _has_shared_span(a, b, k)
            for a, b in zip(batch["text_a"], batch["text_b"])
        ]
        out = batch.loc[keep, ["id_a", "id_b"]]
        return pd.DataFrame(
            {"id_a": out["id_a"].astype("int64"), "id_b": out["id_b"].astype("int64")}
        )

    return with_b.map_batches(verify, batch_format="pandas", batch_size=65536)


def winnowed_span_pairs(
    texts_ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 32,
    window: int = 8,
    n_buckets: int = 64,
    max_group: int = 2048,
):
    """Winnowed substring dedup (Schleimer, Wilkerson & Aiken 2003,
    "Winnowing: Local Algorithms for Document Fingerprinting" — the
    MOSS scheme): :func:`duplicated_span_pairs`' gram stream thinned
    to each ``window``'s minimum gram hash BEFORE the exchange, so the
    shuffle moves ~1/window the rows at the same O(corpus bytes) scan
    cost.  Winnowing's guarantee carries over: any pair of documents
    sharing an identical span of >= k + window - 1 bytes selects at
    least one common fingerprint and is therefore ALWAYS proposed
    (shorter shared spans may be missed — that is the sampling
    trade the 100-TB configuration buys); the exact shared-k-span
    verify stage is unchanged, so precision stays 1.0.
    (No reference analogue; builder-brief scale operator — the
    production-shape counterpart of the exact d12 signal.)"""
    return duplicated_span_pairs(
        texts_ds,
        id_col,
        text_col,
        k=k,
        n_buckets=n_buckets,
        max_group=max_group,
        winnow_window=window,
    )


def remove_duplicated_spans(
    texts_ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 40,
    n_buckets: int = 64,
    broadcast_max_hashes: int = 500_000,
    broadcast_max_positions: int = 200_000,
    strategy: str = "auto",
):
    """Substring-dedup APPLY (Lee et al. 2021, arXiv:2107.06499 — the
    step that actually CLEANS the corpus; :func:`duplicated_span_pairs`
    only reports the signal): every character covered by a k-gram that
    occurs >= 2 times corpus-wide (any doc, any position — including a
    second occurrence inside the same document) is removed, and the
    survivors concatenate into ``clean_text``.

    Returns a Dataset of ``(id_col, clean_text, n_removed)`` — one row
    per input document (empty/short docs pass through untouched).

    Ray shape (exact output, hash collisions can never reach it):
    1. **Count pass** — vectorized window-FNV over each batch's
       concatenated bytes (the d12 kernel) -> per-batch partial
       (gram_h, count) -> one bucketed sum; hashes with count >= 2 are
       CANDIDATES (true dups ∪ ~zero collisions).  The corpus-sized
       exchange is 16 bytes/position, same as d12.
    2. **Mark pass** — a second streaming gram pass keeps positions
       whose hash is a candidate.  Size-gated like the d05 planner:
       below ``broadcast_max_hashes`` the sorted candidate array
       broadcasts (``np.isin``); above it the gram rows co-partition
       with the candidate hashes on a gram-hash bucket (nothing on the
       driver).  Candidate-position volume is dup-sized.
    3. **Exact confirm** — candidate (doc, pos) rows co-partition with
       the texts on a doc-hash bucket; each doc slices the REAL gram
       bytes at its candidate positions; one bucketed count by the
       gram bytes themselves keeps only byte-identical >= 2 grams, so
       a hash collision dies here instead of corrupting the output.
    4. **Apply** — confirmed dup starts co-partition with the texts
       (doc-hash bucket again); per doc a +1/-1 interval-delta cumsum
       builds the coverage mask and the kept bytes concatenate.

    Positions/characters are BYTE positions — exact for the ASCII
    corpora these tables hold; a multi-byte UTF-8 corpus needs a
    char-indexed gram kernel (the SQL oracle's substr() is
    char-indexed, so the two diverge on non-ASCII input).

    100-TB note: like d12, the count pass exchanges ~1 row per corpus
    byte.  The Lee et al. production construction is a suffix array
    per shard; this operator is the exact-semantics building block and
    the candidate/confirm stages are already output-sized."""
    import ray
    import ray.data

    from .agg import bucketed_sum

    def _positions_chunk(bufs):
        """Concatenated-byte chunk -> (gram_h u64, parent, pos_in_doc,
        window_view, flat_idx) — the last two let a caller slice the
        actual gram bytes of selected positions without re-walking."""
        lens = np.array([len(b) for b in bufs], dtype=np.int64)
        buf = np.frombuffer(b"".join(bufs), dtype=np.uint8)
        if len(buf) < k:
            return None
        parent = np.repeat(np.arange(len(bufs), dtype=np.int64), lens)
        starts_of = np.concatenate(([0], np.cumsum(lens)[:-1]))
        win = np.lib.stride_tricks.sliding_window_view(buf, k)
        h = np.full(win.shape[0], np.uint64(14695981039346656037), np.uint64)
        prime = np.uint64(1099511628211)
        with np.errstate(over="ignore"):
            for c in range(k):
                h = (h ^ win[:, c].astype(np.uint64)) * prime
        m = len(h)
        valid = parent[:m] == parent[k - 1 : k - 1 + m]
        idx = np.flatnonzero(valid)
        if not idx.size:
            return None
        ph = parent[idx]
        pos = idx - starts_of[ph]
        return h[idx], ph, pos, win, idx

    def _iter_chunks(batch):
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        bufs = [(t or "").encode("utf-8") for t in batch[text_col].to_pylist()]
        lo, budget = 0, 4 << 20
        while lo < len(bufs):
            hi, total = lo, 0
            while hi < len(bufs) and (total == 0 or total + len(bufs[hi]) <= budget):
                total += len(bufs[hi])
                hi += 1
            yield bufs[lo:hi], ids[lo:hi]
            lo = hi

    # ---- 1. gram-hash count pass -> candidate hashes (count >= 2)
    def hash_counts(batch: pa.Table) -> pa.Table:
        out_h, out_c = [], []
        for bufs, _ids in _iter_chunks(batch):
            res = _positions_chunk(bufs)
            if res is None:
                continue
            u, c = np.unique(res[0], return_counts=True)
            out_h.append(u)
            out_c.append(c)
        if not out_h:
            return pa.table(
                {"gh": pa.array([], pa.int64()), "c": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "gh": pa.array(np.concatenate(out_h).view(np.int64), pa.int64()),
                "c": pa.array(
                    np.concatenate(out_c).astype(np.int64), pa.int64()
                ),
            }
        )

    cand_hashes = (
        bucketed_sum(
            texts_ds.map_batches(hash_counts, batch_format="pyarrow"),
            ["gh"],
            ["c"],
            n_buckets=n_buckets,
        )
        .map_batches(
            lambda t: t.filter(
                pc.greater_equal(t["c"], pa.scalar(2, pa.int64()))
            ).drop_columns(["c"]),
            batch_format="pyarrow",
        )
        .materialize()
    )
    n_cand = cand_hashes.count()

    empty_starts = pa.table(
        {"doc": pa.array([], pa.int64()), "pos": pa.array([], pa.int64())}
    )
    empty_grams = pa.table(
        {
            "gram": pa.array([], pa.binary()),
            "doc": pa.array([], pa.int64()),
            "pos": pa.array([], pa.int64()),
        }
    )

    if strategy == "auto":
        strategy = (
            "broadcast" if n_cand <= broadcast_max_hashes else "copartition"
        )

    # ---- 2. mark candidate (doc, pos) starts
    if n_cand == 0:
        cand_grams = ray.data.from_arrow(empty_grams)
        cand_starts = None
    elif strategy == "broadcast":
        arrs = [
            t["gh"].to_numpy(zero_copy_only=False)
            for ref in cand_hashes.to_arrow_refs()
            if (t := ray.get(ref)).num_rows
        ]
        cand_ref = ray.put(
            np.sort(np.concatenate(arrs).view(np.uint64))
            if arrs
            else np.empty(0, np.uint64)
        )

        def mark(batch: pa.Table) -> pa.Table:
            """Candidate positions WITH their gram bytes: the text is in
            hand here, so emitting the (candidate-sized) bytes now lets
            the exact confirm run off one bucketed count instead of an
            extra doc co-partition round."""
            cand = ray.get(cand_ref)
            out_g, out_d, out_p = [], [], []
            for bufs, ids in _iter_chunks(batch):
                res = _positions_chunk(bufs)
                if res is None:
                    continue
                hh, ph, pos, win, idx = res
                hit = np.flatnonzero(np.isin(hh, cand))
                if hit.size:
                    sel = np.ascontiguousarray(win[idx[hit]])  # (n, k) bytes
                    n = len(hit)
                    offs = np.arange(0, (n + 1) * k, k, dtype=np.int32)
                    out_g.append(
                        pa.BinaryArray.from_buffers(
                            pa.binary(),
                            n,
                            [
                                None,
                                pa.py_buffer(offs.tobytes()),
                                pa.py_buffer(sel.tobytes()),
                            ],
                        )
                    )
                    out_d.append(ids[ph[hit]])
                    out_p.append(pos[hit])
            if not out_d:
                return empty_grams
            return pa.table(
                {
                    "gram": pa.concat_arrays(out_g)
                    if len(out_g) > 1
                    else out_g[0],
                    "doc": pa.array(np.concatenate(out_d), pa.int64()),
                    "pos": pa.array(np.concatenate(out_p), pa.int64()),
                }
            )

        cand_grams = texts_ds.map_batches(mark, batch_format="pyarrow")
        cand_starts = None
    elif strategy == "copartition":
        # gram rows and candidate hashes co-partition on a gram-hash
        # bucket; the kernel semi-joins its bucket only — nothing is
        # pulled to the driver
        def gram_rows(batch: pa.Table) -> pa.Table:
            out_h, out_d, out_p = [], [], []
            for bufs, ids in _iter_chunks(batch):
                res = _positions_chunk(bufs)
                if res is None:
                    continue
                hh, ph, pos = res[0], res[1], res[2]
                out_h.append(hh)
                out_d.append(ids[ph])
                out_p.append(pos)
            if not out_h:
                return pa.table(
                    {
                        "gh": pa.array([], pa.int64()),
                        "doc": pa.array([], pa.int64()),
                        "pos": pa.array([], pa.int64()),
                        "bucket": pa.array([], pa.int32()),
                    }
                )
            hh = np.concatenate(out_h)
            return pa.table(
                {
                    "gh": pa.array(hh.view(np.int64), pa.int64()),
                    "doc": pa.array(np.concatenate(out_d), pa.int64()),
                    "pos": pa.array(np.concatenate(out_p), pa.int64()),
                    "bucket": pa.array(
                        (hh % np.uint64(n_buckets)).astype(np.int32), pa.int32()
                    ),
                }
            )

        def cand_rows(batch: pa.Table) -> pa.Table:
            gh = batch["gh"].to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "gh": batch["gh"],
                    "doc": pa.array(np.full(len(gh), -1, np.int64), pa.int64()),
                    "pos": pa.array(np.zeros(len(gh), np.int64), pa.int64()),
                    "bucket": pa.array(
                        (gh.view(np.uint64) % np.uint64(n_buckets)).astype(
                            np.int32
                        ),
                        pa.int32(),
                    ),
                }
            )

        def semi(group: pa.Table) -> pa.Table:
            doc = group["doc"].to_numpy(zero_copy_only=False)
            is_cand = doc == -1
            if not is_cand.any() or is_cand.all():
                return empty_starts
            gh = group["gh"].to_numpy(zero_copy_only=False)
            cand = np.sort(gh[is_cand])
            hit = np.isin(gh, cand) & ~is_cand
            return pa.table(
                {
                    "doc": pa.array(doc[hit], pa.int64()),
                    "pos": pa.array(
                        group["pos"].to_numpy(zero_copy_only=False)[hit],
                        pa.int64(),
                    ),
                }
            )

        cand_starts = (
            texts_ds.map_batches(gram_rows, batch_format="pyarrow")
            .union(cand_hashes.map_batches(cand_rows, batch_format="pyarrow"))
            .groupby("bucket")
            .map_groups(semi, batch_format="pyarrow")
        )
        cand_grams = None  # confirm slice happens in a doc co-partition
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    # ---- 3. exact confirm: slice real gram bytes at candidate starts,
    #         keep byte-identical grams occurring >= 2 times
    def _doc_copartition(starts_ds, out_kernel, out_schema_empty):
        """Union candidate/dup starts with texts on a doc-hash bucket
        and run ``out_kernel(doc_ids, positions, text_by_doc)`` per
        bucket."""
        fields = pa.schema(
            [
                ("doc", pa.int64()),
                ("pos", pa.int64()),
                ("__text", pa.string()),
                ("__side", pa.int8()),
                ("bucket", pa.int32()),
            ]
        )

        def tag_starts(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            doc = batch["doc"].to_numpy(zero_copy_only=False)
            b = _bucket_series(pd.Series(doc), n_buckets)
            return pa.Table.from_arrays(
                [
                    batch["doc"],
                    batch["pos"],
                    pa.nulls(n, pa.string()),
                    pa.array(np.zeros(n, np.int8), pa.int8()),
                    pa.array(b, pa.int32()),
                ],
                schema=fields,
            )

        def tag_texts(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            doc = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            b = _bucket_series(pd.Series(doc), n_buckets)
            return pa.Table.from_arrays(
                [
                    pa.array(doc, pa.int64()),
                    pa.array(np.zeros(n, np.int64), pa.int64()),
                    batch[text_col].cast(pa.string()),
                    pa.array(np.ones(n, np.int8), pa.int8()),
                    pa.array(b, pa.int32()),
                ],
                schema=fields,
            )

        # coalesce before the sort shuffle: the upstream chain can carry
        # 256+ tiny blocks and Ray's sort partitions (and scheduling
        # cost) scale with input block count — measured 5.7s for one
        # groupby at 256 blocks vs ~1s at 64, compounding through the
        # three chained co-partitions of this operator
        tagged = (
            starts_ds.map_batches(tag_starts, batch_format="pyarrow")
            .union(texts_ds.map_batches(tag_texts, batch_format="pyarrow"))
            .repartition(n_buckets)
        )

        def kernel(group: pa.Table) -> pa.Table:
            side = group["__side"].to_numpy(zero_copy_only=False)
            is_text = side == 1
            texts = {}
            if is_text.any():
                tdoc = group["doc"].to_numpy(zero_copy_only=False)[is_text]
                tval = group.filter(pa.array(is_text))["__text"].to_pylist()
                texts = dict(zip(tdoc.tolist(), tval))
            doc = group["doc"].to_numpy(zero_copy_only=False)[~is_text]
            pos = group["pos"].to_numpy(zero_copy_only=False)[~is_text]
            return out_kernel(doc, pos, texts)

        return tagged.groupby("bucket").map_groups(kernel, batch_format="pyarrow")

    def confirm_kernel(doc, pos, texts):
        if not len(doc):
            return pa.table(
                {
                    "gram": pa.array([], pa.binary()),
                    "doc": pa.array([], pa.int64()),
                    "pos": pa.array([], pa.int64()),
                }
            )
        grams = [
            texts[d].encode("utf-8")[p : p + k]
            for d, p in zip(doc.tolist(), pos.tolist())
        ]
        return pa.table(
            {
                "gram": pa.array(grams, pa.binary()),
                "doc": pa.array(doc, pa.int64()),
                "pos": pa.array(pos, pa.int64()),
            }
        )

    driver_confirm = False
    if cand_grams is None:
        # copartition arm: the mark pass had no text in hand — slice the
        # gram bytes in one doc co-partition round
        cand_grams = _doc_copartition(cand_starts, confirm_kernel, None)
    else:
        # broadcast arm: candidate volume is dup-sized — when it also
        # fits the driver (gram bytes ~k each), confirm there and
        # BROADCAST the confirmed starts into a shuffle-free apply
        # scan, dropping the two remaining exchanges (gram-keyed
        # confirm + doc co-partition apply).  Above the bound the
        # distributed confirm/apply below run unchanged — the 100-TB
        # path.
        cand_grams = cand_grams.materialize()
        driver_confirm = cand_grams.count() <= broadcast_max_positions

    def count_confirm(group: pa.Table) -> pa.Table:
        """One gram-hash bucket: keep (doc, pos) of byte-identical
        grams that occur >= 2 times (candidate-sized work).  Grouping
        by gram BYTES is hash-bucket-local-safe because equal grams
        share a bucket; the same function applied to the WHOLE
        candidate table (driver-confirm arm) is therefore identical."""
        g = group["gram"].to_numpy(zero_copy_only=False)
        if not len(g):
            return empty_starts
        order = np.argsort(g, kind="stable")
        gs = g[order]
        change = np.concatenate(
            ([0], np.flatnonzero(gs[1:] != gs[:-1]) + 1, [len(gs)])
        )
        sizes = np.diff(change)
        keep = np.repeat(sizes >= 2, sizes)
        sel = order[keep]
        return pa.table(
            {
                "doc": pa.compute.take(group["doc"], pa.array(sel, pa.int64())),
                "pos": pa.compute.take(group["pos"], pa.array(sel, pa.int64())),
            }
        )

    def gram_bucketize(batch: pa.Table) -> pa.Table:
        b = (_fnv64_arr(batch["gram"]) % np.uint64(n_buckets)).astype(np.int32)
        return batch.append_column("bucket", pa.array(b, pa.int32()))

    if not driver_confirm:
        dup_starts = (
            cand_grams.map_batches(gram_bucketize, batch_format="pyarrow")
            .repartition(n_buckets)  # block-count coalesce (see _doc_copartition)
            .groupby("bucket")
            .map_groups(count_confirm, batch_format="pyarrow")
        )

    # ---- 4. apply: coverage mask per doc, concatenate survivors
    def apply_kernel(doc, pos, texts):
        out_id, out_text, out_rm = [], [], []
        by_doc: dict[int, list[int]] = {}
        for d, p in zip(doc.tolist(), pos.tolist()):
            by_doc.setdefault(d, []).append(p)
        for d, text in texts.items():
            raw = text.encode("utf-8")
            starts = by_doc.get(d)
            if not starts:
                out_id.append(d)
                out_text.append(text)
                out_rm.append(0)
                continue
            delta = np.zeros(len(raw) + 1, np.int64)
            s = np.asarray(starts, np.int64)
            np.add.at(delta, s, 1)
            np.add.at(delta, np.minimum(s + k, len(raw)), -1)
            covered = np.cumsum(delta[:-1]) > 0
            kept = np.frombuffer(raw, np.uint8)[~covered]
            out_id.append(d)
            out_text.append(kept.tobytes().decode("utf-8"))
            out_rm.append(int(covered.sum()))
        return pa.table(
            {
                id_col: pa.array(out_id, pa.int64()),
                "clean_text": pa.array(out_text, pa.string()),
                "n_removed": pa.array(out_rm, pa.int64()),
            }
        )

    if driver_confirm:
        blocks = [
            t
            for ref in cand_grams.to_arrow_refs()
            if (t := ray.get(ref)).num_rows
        ]
        confirmed = (
            count_confirm(pa.concat_tables(blocks).combine_chunks())
            if blocks
            else empty_starts
        )
        dup_ref = ray.put(
            (
                confirmed["doc"].to_numpy(zero_copy_only=False),
                confirmed["pos"].to_numpy(zero_copy_only=False),
            )
        )

        def apply_bcast(batch: pa.Table) -> pa.Table:
            d, p = ray.get(dup_ref)
            ids = (
                batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            )
            texts = dict(zip(ids.tolist(), batch[text_col].to_pylist()))
            sel = np.isin(d, ids)
            return apply_kernel(d[sel], p[sel], texts)

        return texts_ds.map_batches(apply_bcast, batch_format="pyarrow")

    return _doc_copartition(dup_starts, apply_kernel, None)


def bloom_decontaminate(
    train_ds,
    test_ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 8,
    fpp: float = 0.005,
    n_buckets: int = 64,
    prefilter=None,
):
    """Bloom-prefiltered test-set decontamination with EXACT confirm —
    :func:`decontaminate` semantics at a fraction of the broadcast
    bytes (the production configuration for multi-GB eval suites).

    :func:`decontaminate` broadcasts the full test gram set as Python
    strings.  Here the broadcast is a :class:`stages.bloom.BloomFilter`
    over the grams' vectorized 64-bit FNV hashes, sized for ``fpp``
    (~1.4 bytes/gram at the default 0.5%) instead of tens of bytes per
    gram.  Bloom filters have NO false negatives, so every
    truly contaminated (doc, gram) pair survives the prefilter; false
    positives die in one exact gram co-partition against the test
    grams whose cost is CANDIDATE-sized (FP-rate-tunable).  Confirmed
    contaminated doc ids — rare by construction; the test set is a
    bounded artifact, so docs matching it are output-sized — collect
    to the driver and broadcast for the final per-doc flag pass.

    ``prefilter`` accepts a prebuilt/persisted BloomFilter covering at
    least the test grams (e.g. yesterday's filter for an unchanged eval
    suite) and skips the build pass; since only NEGATIVES are trusted,
    any superset filter — even all-ones — keeps the output exact.

    Returns (id_col, contaminated: bool), one row per training doc —
    bit-identical to :func:`decontaminate`.  Training ids must be
    non-negative (-1 is the confirm join's test-side sentinel).
    """
    import ray

    from .bloom import BloomFilter

    def test_grams(batch: pa.Table) -> pa.Table:
        grams, _parents = _word_ngram_strings(batch, text_col, n)
        if len(grams):
            grams = pc.unique(grams)
        return pa.table({"g": grams})

    tg = test_ds.map_batches(test_grams, batch_format="pyarrow").materialize()

    # ---- driver-side Bloom build (test side is bounded by contract)
    if prefilter is None:
        hash_chunks = []
        for b in tg.iter_batches(batch_format="pyarrow"):
            hash_chunks.append(_fnv64_arr(b["g"]))
        n_grams = int(sum(len(h) for h in hash_chunks))
        bf = BloomFilter.sized(n_grams, fpp)
        for h in hash_chunks:
            bf.add_many(h.view(np.int64))
    else:
        bf = prefilter
    bf_ref = ray.put((bf.to_bytes(), bf.k))

    def probe(batch: pa.Table) -> pa.Table:
        """train batch -> candidate (id, gram) rows passing the Bloom."""
        buf, k = ray.get(bf_ref)
        bloom = BloomFilter.from_bytes(buf, k)
        grams, parents = _word_ngram_strings(batch, text_col, n)
        if not len(grams):
            return pa.table(
                {"cid": pa.array([], pa.int64()), "g": pa.array([], pa.string())}
            )
        enc = pc.dictionary_encode(grams)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        dh = _fnv64_arr(enc.dictionary)
        member = bloom.contains_many(dh.view(np.int64))
        gram_hit = member[enc.indices.to_numpy(zero_copy_only=False)]
        if not gram_hit.any():
            return pa.table(
                {"cid": pa.array([], pa.int64()), "g": pa.array([], pa.string())}
            )
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        hit_idx = np.flatnonzero(gram_hit)
        t = pa.table(
            {
                "cid": pa.array(ids[parents[hit_idx]], pa.int64()),
                "g": grams.take(pa.array(hit_idx, pa.int64())),
            }
        )
        # per-batch (id, gram) dedupe keeps the candidate stream tiny
        return t.group_by(["cid", "g"]).aggregate([])

    cands = train_ds.map_batches(probe, batch_format="pyarrow")

    # ---- exact confirm: candidate grams vs test grams, co-partitioned
    def tag_cand(batch: pa.Table) -> pa.Table:
        b = (_fnv64_arr(batch["g"]) % np.uint64(n_buckets)).astype(np.int32)
        return pa.table(
            {
                "cid": batch["cid"],
                "g": batch["g"],
                "bucket": pa.array(b, pa.int32()),
            }
        )

    def tag_test(batch: pa.Table) -> pa.Table:
        b = (_fnv64_arr(batch["g"]) % np.uint64(n_buckets)).astype(np.int32)
        return pa.table(
            {
                "cid": pa.array(np.full(batch.num_rows, -1, np.int64), pa.int64()),
                "g": batch["g"],
                "bucket": pa.array(b, pa.int32()),
            }
        )

    tagged = cands.map_batches(tag_cand, batch_format="pyarrow").union(
        tg.map_batches(tag_test, batch_format="pyarrow")
    )

    def confirm(group: pa.Table) -> pa.Table:
        cid = group["cid"].to_numpy(zero_copy_only=False)
        is_test = cid == -1
        if not is_test.any() or is_test.all():
            return pa.table({"cid": pa.array([], pa.int64())})
        vs = group.filter(pa.array(is_test))["g"].combine_chunks()
        if isinstance(vs, pa.ChunkedArray):
            vs = pa.concat_arrays(vs.chunks)
        gset = pa.compute.is_in(group["g"], value_set=vs).to_numpy(
            zero_copy_only=False
        )
        hits = np.unique(cid[gset & ~is_test])
        return pa.table({"cid": pa.array(hits, pa.int64())})

    confirmed = (
        tagged.groupby("bucket").map_groups(confirm, batch_format="pyarrow")
    ).to_pandas()
    # sorted int64 array (not a Python set): the flag pass runs over the
    # ENTIRE training corpus, so membership must be a vectorized
    # np.isin, not a per-row Python set probe (round-4 ADVICE)
    contaminated_ids = (
        np.sort(confirmed["cid"].to_numpy().astype(np.int64))
        if len(confirmed)
        else np.empty(0, np.int64)
    )
    ids_ref = ray.put(contaminated_ids)

    def flag(batch: pa.Table) -> pa.Table:
        bad = ray.get(ids_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        hit = np.isin(ids, bad, assume_unique=False)
        return pa.table(
            {id_col: batch[id_col], "contaminated": pa.array(hit, pa.bool_())}
        )

    return train_ds.map_batches(flag, batch_format="pyarrow", batch_size=8192)
