"""Entity canonicalization over the job's entity names.

Generalizes the reference's name-pool matching + rename-unify
(TestProjectEvaluator.matchComponentNames:209-239, NamedEntity.changeName:77-80)
as one in-process pass over the distinct entity names
(:func:`canonical_labels`) — the job's driver already holds them, so
there is nothing to move:

1. explode: every entity name becomes its name pool —
   {cleanComponentName(name)} ∪ aliases, all normalized surface forms
   (names.normalize_surface: lowercase, camelCase split), keyed with
   their spaces collapsed;
2. edges: each name joins the smallest name sharing one of its pool
   keys (itself, when it shares none), so two names are one entity iff
   their pools intersect (the reference's J3 rule) and the labelling is
   total;
3. union-find (:func:`_union_find`), labelled by the component's
   lexicographically-smallest member — deterministic, mirroring the
   reference's rename-unify where the matching pool name wins.

:func:`connected_components` is the Dataset form of step 3, with a
distributed label-propagation path for graphs that outgrow one process.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import _fnv64_arr
from ..names import clean_component_name, normalize_surface

#: schema of the (node, label) table of :func:`canonical_labels`
_LABELS = pa.schema([("node", pa.string()), ("label", pa.string())])


def _union_find(edges) -> dict:
    """{node: label} of the graph of ``edges`` ((a, b) pairs), in node
    order; label = the smallest node of the component.  Classic
    union-find in this process."""
    parent: dict = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in edges:
        ra, rb = find(parent.setdefault(a, a)), find(parent.setdefault(b, b))
        if ra != rb:
            # always attach under the smaller root -> final root is the
            # component min, matching the distributed min-label semantics
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in sorted(parent)}


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
        labels = _union_find(zip(df["id_a"], df["id_b"]))
        return ray.data.from_pandas(
            pd.DataFrame({"node": list(labels), "label": list(labels.values())})
        )

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


def canonical_labels(names: pa.Table, aliases_col: str | None = None) -> pa.Table:
    """``name`` column (plus an optional ``aliases_col`` of name lists) ->
    the (node=name, label=canonical name) table, sorted by node.

    Explode, edges and union-find in this process (module docstring); the
    label is the lexicographically smallest name in the component
    (deterministic).  A name whose pool is empty gets no row."""
    aliases = (
        names[aliases_col].to_pylist()
        if aliases_col and aliases_col in names.column_names
        else [None] * names.num_rows
    )
    by_key: dict[str, set[str]] = defaultdict(set)
    for name, alts in zip(names["name"].to_pylist(), aliases):
        pool = {normalize_surface(clean_component_name(name))}
        pool.update(normalize_surface(a) for a in alts or [])
        pool.discard("")
        for key in pool:
            by_key[key.replace(" ", "")].add(name)
    labels = _union_find((min(same), name) for same in by_key.values() for name in same)
    return pa.table({"node": list(labels), "label": list(labels.values())}, schema=_LABELS)
