"""Approximate-nearest-neighbor search over an embedding column.

* :func:`brute_force_topk` — the exact baseline: per-batch numpy matmul
  against a broadcast query matrix, per-batch local top-k, tiny global
  merge.  One pass over the data, no shuffle.
* :func:`lsh_topk` — the scale path: random-hyperplane signatures
  bucket the corpus once (reusable index Dataset); queries probe their
  own bucket plus Hamming-1 neighbor buckets and brute-force only the
  candidates.  Recall/latency trade via n_planes and n_probes.
* :func:`ivf_topk` — IVF variant: k-means-ish centroids from a seeded
  sample, vectors assigned to nearest centroid (the index), queries
  scan the nprobe closest partitions.

All math is float64 numpy; ties broken by ascending id so results are
deterministic under any parallelism.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _as_matrix(col) -> np.ndarray:
    """(rows, dim) float64 matrix from a list<float> / fixed_size_list
    column via Arrow child-buffer flatten + reshape — one dtype cast,
    no per-value Python boxing (to_pylist boxed every float)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if pa.types.is_fixed_size_list(col.type):
        dim = col.type.list_size
        vals = col.values.to_numpy(zero_copy_only=False)
        vals = vals[col.offset * dim : (col.offset + n) * dim]
        return vals.reshape(n, dim).astype(np.float64)
    if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
        offs = col.offsets.to_numpy(zero_copy_only=False)
        widths = np.diff(offs)
        if n and (widths == widths[0]).all():
            vals = col.values.to_numpy(zero_copy_only=False)
            return (
                vals[offs[0] : offs[-1]].reshape(n, int(widths[0])).astype(np.float64)
            )
    return np.array(col.to_pylist(), dtype=np.float64)  # ragged fallback


def _topk_merge(parts: pd.DataFrame, k: int, query_col: str = "query_id") -> pd.DataFrame:
    return (
        parts.sort_values([query_col, "sim", "vec_id"], ascending=[True, False, True])
        .groupby(query_col, as_index=False, sort=False)
        .head(k)
        .reset_index(drop=True)
    )


def brute_force_topk(ds, queries: np.ndarray, k: int = 10,
                     id_col: str = "vec_id", vec_col: str = "embedding"):
    """Exact cosine top-k for each query row (queries broadcast via ray.put)."""
    import ray

    q = np.asarray(queries, dtype=np.float64)
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    q_ref = ray.put(qn)

    def local(batch: pa.Table) -> pd.DataFrame:
        qm = ray.get(q_ref)
        mat = _as_matrix(batch[vec_col])
        norms = np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        sims = (mat / norms) @ qm.T  # (rows, n_queries)
        ids = np.asarray(batch[id_col])
        frames = []
        for qi in range(qm.shape[0]):
            order = np.lexsort((ids, -sims[:, qi]))[:k]
            frames.append(
                pd.DataFrame(
                    {"query_id": qi, "vec_id": ids[order], "sim": sims[order, qi]}
                )
            )
        return pd.concat(frames, ignore_index=True)

    parts = ds.map_batches(local, batch_format="pyarrow", batch_size=8192).to_pandas()
    return _topk_merge(parts, k)


def quantized_topk(ds, queries: np.ndarray, k: int = 10,
                   id_col: str = "vec_id", vec_col: str = "embedding"):
    """int8-quantized cosine top-k — the memory-bandwidth scale path.

    Rows are L2-normalized then symmetric-quantized with the FIXED
    scale 127 (normalized coordinates are bounded by 1, so no global
    stats pass is needed); scores are exact int32-accumulated dot
    products of the quantized vectors, so results are order-independent
    and hash-exact under any partitioning (ties: sim desc, id asc).
    At 100 TB this cuts the scan's bytes/vector 4x (int8 vs float32)
    and 8x vs the float64 math path; recall loss is bounded by the
    quantization step (~1/127 per coordinate) and is gated in a05."""
    import ray

    q = np.asarray(queries, dtype=np.float64)
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    q8 = np.clip(np.rint(qn * 127.0), -127, 127).astype(np.int32)
    q_ref = ray.put(q8)

    def local(batch: pa.Table) -> pd.DataFrame:
        qm = ray.get(q_ref)
        mat = _as_matrix(batch[vec_col])
        norms = np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        m8 = np.clip(np.rint(mat / norms * 127.0), -127, 127).astype(np.int32)
        sims = m8 @ qm.T  # exact int32 accumulation
        ids = np.asarray(batch[id_col])
        frames = []
        for qi in range(qm.shape[0]):
            order = np.lexsort((ids, -sims[:, qi]))[:k]
            frames.append(
                pd.DataFrame(
                    {
                        "query_id": qi,
                        "vec_id": ids[order],
                        "sim": sims[order, qi].astype(np.int64),
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    parts = ds.map_batches(local, batch_format="pyarrow", batch_size=65536).to_pandas()
    return _topk_merge(parts, k)


def mmr_greedy(ids: np.ndarray, mat: np.ndarray, rel: np.ndarray,
               k: int) -> list[int]:
    """Maximal Marginal Relevance re-ranking (Carbonell & Goldstein
    1998) over a candidate set: greedily pick the item maximizing
    ``2*rel - max_sim_to_selected`` (λ=2/3 with the fraction cleared —
    all-integer so ordering is exact; ties break on ascending id).

    Runs on the driver over the C-row candidate table produced by a
    distributed top-C relevance pass — the standard retrieve-then-
    diversify shape; C is a constant, never corpus-sized."""
    n = len(ids)
    chosen = np.zeros(n, dtype=bool)
    max_sim = None  # true max over selected (can be negative)
    out: list[int] = []
    for step in range(min(k, n)):
        score = 2 * rel if max_sim is None else 2 * rel - max_sim
        # negate BEFORE masking: -int64.min overflows back to int64.min
        # and would sort (and be picked) first — the a04 lexsort trap
        nscore = -score
        nscore[chosen] = np.iinfo(np.int64).max
        # argmax with id-ascending tie-break
        best = np.lexsort((ids, nscore))[0]
        chosen[best] = True
        out.append(int(ids[best]))
        sims = mat @ mat[best]
        max_sim = sims if max_sim is None else np.maximum(max_sim, sims)
    return out


def _signatures(mat: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (mat @ planes > 0).astype(np.uint32)
    return (bits << np.arange(planes.shape[1], dtype=np.uint32)[None, :]).sum(axis=1)


def build_lsh_index(ds, n_planes: int = 10, seed: int = 5,
                    id_col: str = "vec_id", vec_col: str = "embedding"):
    """One pass: add the LSH bucket key column (the reusable index)."""
    planes_holder: dict = {}

    def key(batch: pa.Table) -> pa.Table:
        mat = _as_matrix(batch[vec_col])
        planes = planes_holder.get("p")
        if planes is None:
            planes = np.random.RandomState(seed).standard_normal((mat.shape[1], n_planes))
            planes_holder["p"] = planes
        sig = _signatures(mat, planes)
        return pa.table(
            {
                "lsh_key": pa.array(sig.astype(np.int64), pa.int64()),
                id_col: batch[id_col],
                vec_col: batch[vec_col],
            }
        )

    return ds.map_batches(key, batch_format="pyarrow", batch_size=8192)


def save_lsh_index(
    ds,
    path: str,
    n_planes: int = 10,
    seed: int = 5,
    n_shards: int = 32,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> None:
    """Persist the LSH index as key-sharded parquet + a metadata file.

    Once written, queries read ONLY the shards their probe keys hash to
    (hive partition pruning) and filter lsh_key inside them (row-group
    statistics) — the build cost amortizes over many query calls
    (without this, build_lsh_index recomputes per call)."""
    import json
    import os

    index = build_lsh_index(ds, n_planes, seed, id_col, vec_col)

    def shard(batch: pa.Table) -> pa.Table:
        s = pc.cast(
            pc.bit_wise_and(batch["lsh_key"], pa.scalar(n_shards - 1, pa.int64())),
            pa.int32(),
        )
        return batch.append_column("shard", s)

    os.makedirs(os.path.join(path, "data"), exist_ok=True)
    index.map_batches(shard, batch_format="pyarrow").write_parquet(
        os.path.join(path, "data"), partition_cols=["shard"]
    )
    with open(os.path.join(path, "index_meta.json"), "w") as f:
        json.dump(
            {
                "kind": "lsh",
                "n_planes": n_planes,
                "seed": seed,
                "n_shards": n_shards,
                "id_col": id_col,
                "vec_col": vec_col,
            },
            f,
        )


def lsh_topk_indexed(path: str, queries: np.ndarray, k: int = 10,
                     n_probes: int | None = None):
    """ANN top-k against a PERSISTED index (see :func:`save_lsh_index`):
    probe keys prune partitions + row groups at the read."""
    import json
    import os

    import ray.data

    with open(os.path.join(path, "index_meta.json")) as f:
        meta = json.load(f)
    n_planes, seed, n_shards = meta["n_planes"], meta["seed"], meta["n_shards"]
    if n_probes is None:
        n_probes = 1 + n_planes

    q = np.asarray(queries, dtype=np.float64)
    planes = np.random.RandomState(seed).standard_normal((q.shape[1], n_planes))
    q_sigs = _signatures(q, planes)
    probe_keys: set[int] = set()
    for sig in q_sigs:
        probe_keys.add(int(sig))
        for b in range(min(n_probes - 1, n_planes)):
            probe_keys.add(int(sig) ^ (1 << b))
    # partition pruning by PATH (hive dirs: shard=<k>), then lsh_key
    # row-group filtering inside the surviving shards
    import glob as _glob

    shards = sorted({key & (n_shards - 1) for key in probe_keys})
    shard_files = [
        f
        for s in shards
        for f in sorted(
            _glob.glob(os.path.join(path, "data", f"shard={s}", "*.parquet"))
        )
    ]
    candidates = ray.data.read_parquet(
        shard_files,
        filter=pc.field("lsh_key").isin(sorted(probe_keys)),
    )
    return brute_force_topk(candidates, q, k, meta["id_col"], meta["vec_col"])


def save_ivf_index(
    ds,
    path: str,
    n_lists: int = 16,
    seed: int = 9,
    sample_size: int = 2048,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> None:
    """Persist the IVF index: list-partitioned parquet (hive dirs per
    ivf_list) + centroids + metadata.  Queries read only their nprobe
    closest lists' partitions."""
    import json
    import os

    index, centroids = _ivf_index(ds, n_lists, seed, sample_size, id_col, vec_col)
    os.makedirs(os.path.join(path, "data"), exist_ok=True)
    index.write_parquet(os.path.join(path, "data"), partition_cols=["ivf_list"])
    with open(os.path.join(path, "index_meta.json"), "w") as f:
        json.dump(
            {
                "kind": "ivf",
                "centroids": centroids.tolist(),
                "id_col": id_col,
                "vec_col": vec_col,
            },
            f,
        )


def ivf_topk_indexed(path: str, queries: np.ndarray, k: int = 10, nprobe: int = 4):
    """ANN top-k against a PERSISTED IVF index (see :func:`save_ivf_index`)."""
    import glob as _glob
    import json
    import os

    import ray.data

    with open(os.path.join(path, "index_meta.json")) as f:
        meta = json.load(f)
    centroids = np.asarray(meta["centroids"], dtype=np.float64)
    q = np.asarray(queries, dtype=np.float64)
    dq = ((q[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    probe_lists = sorted({int(l) for row in dq.argsort(axis=1)[:, :nprobe] for l in row})
    files = [
        f
        for pl in probe_lists
        for f in sorted(
            _glob.glob(os.path.join(path, "data", f"ivf_list={pl}", "*.parquet"))
        )
    ]
    candidates = ray.data.read_parquet(files)
    return brute_force_topk(candidates, q, k, meta["id_col"], meta["vec_col"])


def lsh_topk(ds, queries: np.ndarray, k: int = 10, n_planes: int = 10,
             n_probes: int = 1 + 10, seed: int = 5,
             id_col: str = "vec_id", vec_col: str = "embedding"):
    """ANN top-k: probe the query's bucket + Hamming-1 buckets.

    n_probes = 1 + n_planes covers all Hamming-1 neighbors; reduce for
    speed, raise n_planes for selectivity on bigger corpora.
    """
    q = np.asarray(queries, dtype=np.float64)
    planes = np.random.RandomState(seed).standard_normal((q.shape[1], n_planes))
    q_sigs = _signatures(q, planes)
    probe_keys: set[int] = set()
    for sig in q_sigs:
        probe_keys.add(int(sig))
        for b in range(min(n_probes - 1, n_planes)):
            probe_keys.add(int(sig) ^ (1 << b))

    index = build_lsh_index(ds, n_planes, seed, id_col, vec_col)


    keys = pa.array(sorted(probe_keys), pa.int64())
    candidates = index.map_batches(
        lambda t: t.filter(pc.is_in(t["lsh_key"], value_set=keys)),
        batch_format="pyarrow",
    )
    return brute_force_topk(candidates, q, k, id_col, vec_col)


def _ivf_index(ds, n_lists: int, seed: int, sample_size: int,
               id_col: str, vec_col: str):
    """(index Dataset with ivf_list column, centroids matrix).

    Deterministic sample under ANY block layout: filter on the id key
    (``ds.limit`` takes "first N rows", which depends on parallelism);
    a few Lloyd iterations on the sample give the centroids.
    """
    import ray

    sample = ds.map_batches(
        lambda t: t.filter(pc.less(t[id_col], pa.scalar(sample_size))),
        batch_format="pyarrow",
    ).to_pandas().sort_values(id_col)
    mat = np.array(sample[vec_col].to_list(), dtype=np.float64)
    if len(mat) == 0:
        raise ValueError(
            "IVF training sample is empty: no rows had id < sample_size. "
            "The id-keyed sample assumes vector ids start near 0 — raise "
            "sample_size or re-key the ids."
        )
    rng = np.random.RandomState(seed)
    centroids = mat[rng.choice(len(mat), size=min(n_lists, len(mat)), replace=False)]
    for _ in range(5):
        d = ((mat[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(len(centroids)):
            members = mat[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    cent_ref = ray.put(centroids)

    def assign_list(batch: pa.Table) -> pa.Table:
        cents = ray.get(cent_ref)
        m = _as_matrix(batch[vec_col])
        d = ((m[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        return pa.table(
            {
                "ivf_list": pa.array(d.argmin(axis=1).astype(np.int64), pa.int64()),
                id_col: batch[id_col],
                vec_col: batch[vec_col],
            }
        )

    return ds.map_batches(assign_list, batch_format="pyarrow", batch_size=8192), centroids


def ivf_topk(ds, queries: np.ndarray, k: int = 10, n_lists: int = 16,
             nprobe: int = 4, seed: int = 9, sample_size: int = 2048,
             id_col: str = "vec_id", vec_col: str = "embedding"):
    """IVF ANN: seeded-sample centroids -> nearest-centroid partitions ->
    scan the nprobe closest lists per query."""
    index, centroids = _ivf_index(ds, n_lists, seed, sample_size, id_col, vec_col)

    q = np.asarray(queries, dtype=np.float64)
    dq = ((q[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    probe_lists = sorted({int(l) for row in dq.argsort(axis=1)[:, :nprobe] for l in row})
    candidates = index.map_batches(
        lambda t: t.filter(pc.is_in(t["ivf_list"], value_set=pa.array(probe_lists, pa.int64()))),
        batch_format="pyarrow",
    )
    return brute_force_topk(candidates, q, k, id_col, vec_col)


def _pq_train(mat: np.ndarray, m: int, n_codes: int, seed: int) -> np.ndarray:
    """(m, n_codes, dim//m) sub-space codebooks: seeded Lloyd iterations
    per sub-space on L2-normalized training rows (deterministic)."""
    if mat.shape[0] == 0:
        raise ValueError(
            "PQ training sample is empty: no rows had id < sample_size. "
            "The id-keyed sample assumes vector ids start near 0 — raise "
            "sample_size or re-key the ids."
        )
    dim = mat.shape[1]
    sub = dim // m
    mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    rng = np.random.RandomState(seed)
    books = np.empty((m, n_codes, sub), np.float64)
    for s in range(m):
        x = mat[:, s * sub : (s + 1) * sub]
        cents = x[rng.choice(len(x), size=min(n_codes, len(x)), replace=False)]
        for _ in range(5):
            d = ((x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            assign = d.argmin(axis=1)
            for c in range(len(cents)):
                members = x[assign == c]
                if len(members):
                    cents[c] = members.mean(axis=0)
        books[s, : len(cents)] = cents
        if len(cents) < n_codes:  # tiny sample: repeat last centroid
            books[s, len(cents):] = cents[-1]
    return books


def _pq_encode(x: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, m) int64 codes for L2-normalized rows ``x``."""
    m, _, sub = books.shape
    codes = np.empty((len(x), m), np.int64)
    for s in range(m):
        xs = x[:, s * sub : (s + 1) * sub]
        d = ((xs[:, None, :] - books[s][None, :, :]) ** 2).sum(axis=2)
        codes[:, s] = d.argmin(axis=1)
    return codes


def _pq_tables(qn: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n_queries, m, n_codes) ADC tables: T[qi, s, c] = ||q_s - book||^2."""
    m, n_codes, sub = books.shape
    return ((qn.reshape(len(qn), 1, m, sub).transpose(0, 2, 1, 3)
             - books[None, :, :, :]) ** 2).sum(axis=3)


def pq_topk(ds, queries: np.ndarray, k: int = 10, m: int = 8,
            n_codes: int = 16, seed: int = 13, sample_size: int = 2048,
            id_col: str = "vec_id", vec_col: str = "embedding"):
    """Product-quantization ANN (Jégou, Douze & Schmid 2011 — public
    algorithm): the memory-scale path beyond int8 quantization.  Each
    L2-normalized vector is represented by ``m`` sub-space codebook
    ids (m bytes/vector — 32x smaller than float32 at dim 64) and the
    scan scores via asymmetric distance computation: one
    (m x n_codes) query distance table per batch, then a table lookup
    per sub-space instead of a dot product.

    Determinism (the recall gate's requirement): codebooks train on
    the id-keyed sample with seeded Lloyd iterations (the _ivf_index
    pattern), every row's ADC score is a float64 sum over the same
    per-query table regardless of partitioning, and ties break (sim
    desc, id asc).  Cosine ranking is preserved by quantizing
    normalized vectors and scoring -||q - c||^2 (rank-equivalent on
    unit vectors)."""
    import ray

    q = np.asarray(queries, dtype=np.float64)
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    dim = qn.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    sub = dim // m

    # ---- train sub-space codebooks on the deterministic id-keyed sample
    sample = ds.map_batches(
        lambda t: t.filter(pc.less(t[id_col], pa.scalar(sample_size))),
        batch_format="pyarrow",
    ).to_pandas().sort_values(id_col)
    mat = np.array(sample[vec_col].to_list(), dtype=np.float64)
    books = _pq_train(mat, m, n_codes, seed)
    books_ref = ray.put(books)
    tables_ref = ray.put(_pq_tables(qn, books))

    def local(batch: pa.Table) -> pd.DataFrame:
        bk = ray.get(books_ref)
        tb = ray.get(tables_ref)
        x = _as_matrix(batch[vec_col]).astype(np.float64)
        x = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
        codes = _pq_encode(x, bk)
        ids = np.asarray(batch[id_col])
        frames = []
        for qi in range(tb.shape[0]):
            sims = -tb[qi][np.arange(m)[None, :], codes].sum(axis=1)
            order = np.lexsort((ids, -sims))[:k]
            frames.append(
                pd.DataFrame(
                    {"query_id": qi, "vec_id": ids[order], "sim": sims[order]}
                )
            )
        return pd.concat(frames, ignore_index=True)

    parts = ds.map_batches(local, batch_format="pyarrow", batch_size=8192).to_pandas()
    return _topk_merge(parts, k)


def save_pq_index(
    ds,
    path: str,
    m: int = 8,
    n_codes: int = 16,
    seed: int = 13,
    sample_size: int = 2048,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> None:
    """Persist a PQ index: codebooks (npy) + the encoded code table as
    parquet.  Unlike the LSH/IVF indexes the PQ probe scans EVERY code
    row (no pruning) — its win is that the scanned table is m bytes of
    codes per vector instead of the raw embedding (32x smaller at dim
    64 / m=8), so at corpus scale a probe is an m-column int8 parquet
    scan that never touches the vectors.  Encoding is one distributed
    pass; the build amortizes over query calls (pq_topk retrains and
    re-encodes per call)."""
    import json
    import os

    import ray

    sample = ds.map_batches(
        lambda t: t.filter(pc.less(t[id_col], pa.scalar(sample_size))),
        batch_format="pyarrow",
    ).to_pandas().sort_values(id_col)
    mat = np.array(sample[vec_col].to_list(), dtype=np.float64)
    books = _pq_train(mat, m, n_codes, seed)
    books_ref = ray.put(books)

    def encode(batch: pa.Table) -> pa.Table:
        bk = ray.get(books_ref)
        x = _as_matrix(batch[vec_col]).astype(np.float64)
        x = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
        codes = _pq_encode(x, bk).astype(np.uint8)
        n = len(x)
        offsets = np.arange(0, (n + 1) * m, m, dtype=np.int32)
        codes_arr = pa.BinaryArray.from_buffers(
            pa.binary(), n,
            [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(codes.tobytes())],
        )
        return pa.table({id_col: batch[id_col], "codes": codes_arr})

    os.makedirs(os.path.join(path, "data"), exist_ok=True)
    ds.map_batches(encode, batch_format="pyarrow").write_parquet(
        os.path.join(path, "data")
    )
    np.save(os.path.join(path, "books.npy"), books)
    with open(os.path.join(path, "index_meta.json"), "w") as f:
        json.dump(
            {"kind": "pq", "m": m, "n_codes": n_codes, "seed": seed,
             "id_col": id_col, "vec_col": vec_col},
            f,
        )


def pq_topk_indexed(path: str, queries: np.ndarray, k: int = 10):
    """ANN top-k against a PERSISTED PQ index (see :func:`save_pq_index`):
    the scan reads only (id, m-byte codes) and scores via per-query ADC
    tables — identical ranking to :func:`pq_topk` over the same corpus
    and parameters."""
    import json
    import os

    import ray
    import ray.data

    with open(os.path.join(path, "index_meta.json")) as f:
        meta = json.load(f)
    m = meta["m"]
    id_col = meta["id_col"]
    books = np.load(os.path.join(path, "books.npy"))
    q = np.asarray(queries, dtype=np.float64)
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    tables_ref = ray.put(_pq_tables(qn, books))
    n_queries = len(qn)

    def local(batch: pa.Table) -> pd.DataFrame:
        tb = ray.get(tables_ref)
        from naer_ray.hashing import _varlen_buffers

        col = batch["codes"].combine_chunks()
        n = len(col)
        offs, data = _varlen_buffers(col)
        codes = data[offs[0] : offs[-1]].reshape(n, m).astype(np.int64)
        ids = np.asarray(batch[id_col])
        frames = []
        for qi in range(n_queries):
            sims = -tb[qi][np.arange(m)[None, :], codes].sum(axis=1)
            order = np.lexsort((ids, -sims))[:k]
            frames.append(
                pd.DataFrame(
                    {"query_id": qi, "vec_id": ids[order], "sim": sims[order]}
                )
            )
        return pd.concat(frames, ignore_index=True)

    import glob as _glob

    from naer_ray.sources.transcripts import stripped_read_schema

    files = sorted(_glob.glob(os.path.join(path, "data", "*.parquet")))
    # stripped schema: Ray-written parquet carries pandas metadata whose
    # dict breaks hash(schema) inside Ray's per-bundle schema dedup
    parts = ray.data.read_parquet(
        files, schema=stripped_read_schema(files[0], [id_col, "codes"])
    ).map_batches(local, batch_format="pyarrow", batch_size=8192).to_pandas()
    return _topk_merge(parts, k)
