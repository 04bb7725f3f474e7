"""Entity canonicalization over the job's entity names.

Generalizes the reference's name-pool matching + rename-unify
(TestProjectEvaluator.matchComponentNames:209-239, NamedEntity.changeName:77-80)
as one in-process pass over the distinct entity names
(:func:`canonical_labels`) — the job's driver already holds them, so
there is nothing to move:

1. explode: every entity name becomes its name pool —
   {cleanComponentName(name)} ∪ aliases, all normalized surface forms
   (names.normalize_surface: lowercase, camelCase split) — as distinct
   (pool_key, name) pairs;
2. edges: (a) a self edge per name, so the labelling is total, (b) exact
   edges between names sharing a space-collapsed pool key, and (c)
   Jaro-Winkler >= threshold edges between pool keys of one block (first
   two characters + length band of the collapsed key; the documented
   partitioning assumption: names in different blocks are never
   fuzzy-compared);
3. union-find (:func:`_union_find`), labelled by the component's
   lexicographically-smallest member — deterministic, mirroring the
   reference's rename-unify where the matching pool name wins.

A block's pairwise comparisons are capped at :data:`MAX_BLOCK` rows.
:func:`connected_components` is the Dataset form of step 3, with a
distributed label-propagation path for graphs that outgrow one process.
"""

from __future__ import annotations

import warnings
from collections import defaultdict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import _fnv64_arr
from ..names import clean_component_name, normalize_surface

#: most (pool_key, name) rows one block compares pairwise; the sorted
#: head is kept and the rest lose their fuzzy candidate pairs
MAX_BLOCK = 500
#: schema of the (node, label) table of :func:`canonical_labels`
_LABELS = pa.schema([("node", pa.string()), ("label", pa.string())])


def jaro(s1: str, s2: str) -> float:
    """Standard Jaro similarity (public algorithm)."""
    if s1 == s2:
        return 1.0
    len1, len2 = len(s1), len(s2)
    if not len1 or not len2:
        return 0.0
    match_dist = max(len1, len2) // 2 - 1
    m1 = [False] * len1
    m2 = [False] * len2
    matches = 0
    for i, c in enumerate(s1):
        lo, hi = max(0, i - match_dist), min(len2, i + match_dist + 1)
        for j in range(lo, hi):
            if not m2[j] and s2[j] == c:
                m1[i] = m2[j] = True
                matches += 1
                break
    if not matches:
        return 0.0
    t = 0
    k = 0
    for i in range(len1):
        if m1[i]:
            while not m2[k]:
                k += 1
            if s1[i] != s2[k]:
                t += 1
            k += 1
    t //= 2
    return (matches / len1 + matches / len2 + (matches - t) / matches) / 3


def jaro_winkler(s1: str, s2: str, p: float = 0.1, max_prefix: int = 4) -> float:
    """Jaro-Winkler: Jaro boosted by the common prefix (<=4 chars)."""
    j = jaro(s1, s2)
    prefix = 0
    for a, b in zip(s1[:max_prefix], s2[:max_prefix]):
        if a != b:
            break
        prefix += 1
    return j + prefix * p * (1 - j)


def _block_key(norm_name: str) -> str:
    """Blocking bucket: first 2 chars + length band of the space-collapsed key.

    Collapsing spaces puts spacing variants ("webui" / "web ui") in the
    same block; the length band (//4) bounds block size.  Documented
    partitioning assumption: names differing in their first two
    collapsed characters or by >4 collapsed chars in length are never
    fuzzy-compared (exact pool-key / collapsed-key edges still apply).
    """
    collapsed = norm_name.replace(" ", "")
    return f"{collapsed[:2]}|{len(collapsed) // 4}"


def _block_edges(block: list[tuple[str, str]], jw_threshold: float) -> list[tuple[str, str]]:
    """Jaro-Winkler >= threshold edges between the sorted (pool_key, name)
    rows of one block.  Oversized blocks are capped deterministically
    (sorted head); rows beyond the cap lose fuzzy candidate pairs,
    reported via a RuntimeWarning with the dropped-row count."""
    if len(block) > MAX_BLOCK:
        warnings.warn(
            f"canonicalization block capped: {len(block) - MAX_BLOCK} rows beyond "
            f"max_block={MAX_BLOCK} lose fuzzy candidate pairs",
            RuntimeWarning,
            stacklevel=2,
        )
        block = block[:MAX_BLOCK]
    rows = []
    for i, (key_i, name_i) in enumerate(block):
        for key_j, name_j in block[i + 1 :]:
            if key_i != key_j and jaro_winkler(key_i, key_j) >= jw_threshold:
                rows.append((min(name_i, name_j), max(name_i, name_j)))
    return rows


def _union_find(id_a: pd.Series, id_b: pd.Series) -> pd.DataFrame:
    """(node, label) of the graph whose edges are ``zip(id_a, id_b)``,
    sorted by node; label = the smallest node of the component.  Classic
    union-find in this process."""
    parent: dict = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(id_a, id_b):
        ra, rb = find(a), find(b)
        if ra != rb:
            # always attach under the smaller root -> final root is the
            # component min, matching the distributed min-label semantics
            lo, hi = (ra, rb) if ra <= rb else (rb, ra)
            parent[hi] = lo
    nodes = pd.unique(pd.concat([id_a, id_b], ignore_index=True))
    return pd.DataFrame(
        {"node": nodes, "label": [find(n) for n in nodes]}
    ).sort_values("node").reset_index(drop=True)


def connected_components(
    pairs, max_rounds: int = 10, n_buckets: int = 64, driver_threshold: int = 500_000
):
    """Distributed min-label propagation over an edge Dataset (id_a, id_b).

    Returns a Dataset (node, label) where label = min node id of the
    component.  Fully distributed union-find analogue — no driver-side
    adjacency: each round is two bucketed shuffles,

      1. group (labels ∪ edge-endpoints) by hash(node) bucket; the
         kernel joins each node's current label onto its incident
         edges and emits (other_endpoint, label) messages;
      2. group (labels ∪ messages) by hash(node) bucket; the kernel
         takes the min label per node.

    Convergence: min labels are monotone non-increasing; dense
    duplicate clusters (LSH near-cliques) converge in 2-3 rounds, path
    graphs in O(diameter) <= max_rounds.  The round loop runs on the
    driver but each iteration's data stays in the object store; only
    the scalar changed-count is collected.
    """
    import ray.data

    # Small-graph fast path: below ``driver_threshold`` edges the graph is a
    # broadcast-sized side table — classic union-find on the driver beats a
    # multi-round distributed propagation by orders of magnitude (the
    # per-round Ray stage overhead dominates tiny graphs).  The distributed
    # path below is the scale path and is exercised directly in tests with
    # driver_threshold=0.
    pairs = pairs.select_columns(["id_a", "id_b"]).materialize()  # count + reuse, one execution
    n_edges = pairs.count()
    if n_edges == 0:
        # an empty shuffle's blocks carry no schema, so to_pandas() would
        # lose the columns: answer with a typed empty label table instead
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.string()), "label": pa.array([], pa.string())})
        )
    if n_edges <= driver_threshold:
        df = pairs.to_pandas()
        return ray.data.from_pandas(_union_find(df["id_a"], df["id_b"]))

    # ---- distributed rounds, Arrow-native end to end: one shared
    # schema S = (node, other?, label?, is_old, changed, bucket) for
    # labels AND adjacency, so each round is exactly two groupby
    # exchanges with ZERO padding passes and no pandas boxing at block
    # boundaries.  The per-bucket join is pc.index_in (label nodes are
    # unique per bucket), the per-bucket min is Arrow hash aggregation,
    # and all bucket keys come from the vectorized hash kernels.
    edges = pairs.select_columns(["id_a", "id_b"])

    def _bucket_arr(arr) -> pa.Array:
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if pa.types.is_integer(arr.type):
            with np.errstate(over="ignore"):
                v = arr.to_numpy(zero_copy_only=False).astype(np.uint64)
                h = (v ^ (v >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
                h ^= h >> np.uint64(33)
        else:
            h = _fnv64_arr(arr)
        return pa.array((h % np.uint64(n_buckets)).astype(np.int32), pa.int32())

    def _s_table(node, other, label, is_old: int, changed) -> pa.Table:
        n = len(node)
        if isinstance(changed, int):
            changed = pa.array(np.full(n, changed, np.int8), pa.int8())
        return pa.table(
            {
                "node": node,
                "other": other,
                "label": label,
                "is_old": pa.array(np.full(n, is_old, np.int8), pa.int8()),
                "changed": changed,
                "bucket": _bucket_arr(node),
            }
        )

    def _concat(a, b) -> pa.Array:
        if isinstance(a, pa.ChunkedArray):
            a = a.combine_chunks()
        if isinstance(b, pa.ChunkedArray):
            b = b.combine_chunks()
        return pa.concat_arrays([a, b])

    # init: labels[node] = node from each batch's distinct endpoints —
    # a pure map (NO dedup shuffle): duplicate (node, node) seed rows
    # across batches emit duplicate round-1 messages, which the first
    # min-reduce collapses for free
    def init_nodes(batch: pa.Table) -> pa.Table:
        nodes = pc.unique(_concat(batch["id_a"], batch["id_b"]))
        t = nodes.type
        return _s_table(nodes, pa.nulls(len(nodes), t), nodes, 1, 1)

    labels = edges.map_batches(
        init_nodes, batch_format="pyarrow", batch_size=65536
    ).materialize()

    def edge_rows(batch: pa.Table) -> pa.Table:
        node = _concat(batch["id_a"], batch["id_b"])
        other = _concat(batch["id_b"], batch["id_a"])
        return _s_table(node, other, pa.nulls(len(node), node.type), 0, 0)

    adjacency = edges.map_batches(
        edge_rows, batch_format="pyarrow", batch_size=65536
    ).materialize()

    for _round in range(max_rounds):

        def send(group: pa.Table) -> pa.Table:
            # label rows keep is_old=1 so the reduce can emit the
            # changed flag inline — folding the convergence check into
            # the propagation keeps each round at TWO shuffles
            is_lbl = pc.equal(group["is_old"], 1)
            lbl = group.filter(is_lbl)
            adj = group.filter(pc.invert(is_lbl))
            lbl_node = lbl["node"].combine_chunks()
            lbl_label = lbl["label"].combine_chunks()
            pos = pc.index_in(adj["node"], value_set=lbl_node)
            msg_label = pc.take(lbl_label, pos).combine_chunks()
            node = _concat(lbl_node, adj["other"].combine_chunks())
            label = _concat(lbl_label, msg_label)
            n_lbl, n_adj = len(lbl_node), len(msg_label)
            is_old = pa.array(
                np.concatenate(
                    [np.ones(n_lbl, np.int8), np.zeros(n_adj, np.int8)]
                ),
                pa.int8(),
            )
            return pa.table(
                {
                    "node": node,
                    "label": label,
                    "is_old": is_old,
                    "bucket": _bucket_arr(node),
                }
            )

        messages = (
            labels.union(adjacency).groupby("bucket").map_groups(
                send, batch_format="pyarrow"
            )
        )

        def reduce_min(group: pa.Table) -> pa.Table:
            agg = (
                group.select(["node", "label"])
                .group_by("node")
                .aggregate([("label", "min")])
            )
            old = group.filter(pc.equal(group["is_old"], 1))
            pos = pc.index_in(agg["node"], value_set=old["node"].combine_chunks())
            old_label = pc.take(old["label"].combine_chunks(), pos)
            new_label = agg["label_min"].combine_chunks()
            changed = pc.cast(
                pc.not_equal(new_label, old_label), pa.int8()
            ).combine_chunks()
            node = agg["node"].combine_chunks()
            return _s_table(
                node, pa.nulls(len(node), node.type), new_label, 1, changed
            )

        new_labels = (
            messages.groupby("bucket").map_groups(
                reduce_min, batch_format="pyarrow"
            )
        ).materialize()

        # convergence: the changed flags came out of the reduce itself;
        # summing them is a scan over the already-materialized blocks
        changed = new_labels.sum("changed")
        labels = new_labels
        if not changed:
            break

    return labels.select_columns(["node", "label"])


def canonical_labels(names: pa.Table, aliases_col: str | None = None,
                     jw_threshold: float = 0.93) -> pa.Table:
    """``name`` column (plus an optional ``aliases_col`` of name lists) ->
    the (node=name, label=canonical name) table, sorted by node.

    Explode, edges and union-find in this process (module docstring); the
    label is the lexicographically smallest name in the component
    (deterministic).  A name whose pool is empty gets no row.
    ``jw_threshold > 1.0`` disables the fuzzy edges."""
    aliases = (
        names[aliases_col].to_pylist()
        if aliases_col and aliases_col in names.column_names
        else [None] * names.num_rows
    )
    pairs: set[tuple[str, str]] = set()
    for name, alts in zip(names["name"].to_pylist(), aliases):
        pool = {normalize_surface(clean_component_name(name))}
        pool.update(normalize_surface(a) for a in alts or [])
        pool.discard("")
        pairs.update((key, name) for key in pool)
    # a self edge per name makes the labelling total
    edges = [(n, n) for n in sorted({n for _, n in pairs})]
    by_collapsed: dict[str, set[str]] = defaultdict(set)
    blocks: dict[str, list[tuple[str, str]]] = defaultdict(list)
    for key, name in sorted(pairs):
        by_collapsed[key.replace(" ", "")].add(name)
        blocks[_block_key(key)].append((key, name))
    for same in by_collapsed.values():
        first, *rest = sorted(same)
        edges += [(first, other) for other in rest]
    if jw_threshold <= 1.0:
        for block in blocks.values():
            edges += _block_edges(block, jw_threshold)
    df = pd.DataFrame(edges, columns=["id_a", "id_b"], dtype=object)
    return pa.Table.from_pandas(
        _union_find(df["id_a"], df["id_b"]), schema=_LABELS, preserve_index=False
    )
