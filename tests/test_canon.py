"""Canonicalization: in-process labels against a pure-Python oracle and
against generator truth, and the distributed union-find of
``connected_components``."""

import itertools
import os
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def test_canonical_labels_cluster():
    from naer_ray.stages.canon import canonical_labels

    names = pa.Table.from_pylist(
        [
            {"name": "WebUI"},
            {"name": "Web UI"},
            {"name": "webui component"},
            {"name": "Database"},
            {"name": "DataBase"},
            {"name": "Recommender"},
        ]
    )
    labels = canonical_labels(names).to_pandas()
    lbl = dict(zip(labels["node"], labels["label"]))
    # the three WebUI surface forms share one canonical label
    assert lbl["WebUI"] == lbl["Web UI"] == lbl["webui component"]
    assert lbl["Database"] == lbl["DataBase"]
    assert lbl.get("Recommender", "solo") not in {lbl["WebUI"], lbl["Database"]}


def test_alias_pools_join_entities():
    """Aliases bridge differently-named entities (J3 generalized)."""
    from naer_ray.stages.canon import canonical_labels

    names = pa.Table.from_pylist(
        [
            {"name": "GUI", "aliases": ["frontend"]},
            {"name": "Frontend", "aliases": []},
        ]
    )
    labels = canonical_labels(names, aliases_col="aliases").to_pandas()
    lbl = dict(zip(labels["node"], labels["label"]))
    assert lbl["GUI"] == lbl["Frontend"]


def test_connected_components_chain(ray_session):
    import ray.data

    from naer_ray.stages.canon import connected_components

    pairs = ray.data.from_items(
        [
            {"id_a": "a", "id_b": "b"},
            {"id_a": "b", "id_b": "c"},
            {"id_a": "d", "id_b": "e"},
        ]
    )
    # both paths: driver fast path (default) and the distributed
    # label-propagation path (driver_threshold=0)
    for kwargs in ({}, {"driver_threshold": 0}):
        labels = connected_components(pairs, **kwargs).to_pandas()
        lbl = dict(zip(labels["node"], labels["label"]))
        assert lbl["a"] == lbl["b"] == lbl["c"] == "a", kwargs
        assert lbl["d"] == lbl["e"] == "d", kwargs


def test_connected_components_distributed_random(ray_session):
    """Forced distributed label-propagation (driver_threshold=0) on a
    200-edge int-node random graph must agree exactly with the driver
    union-find fast path — exercises multi-round convergence, the
    inline changed flags, and the Arrow-native round kernels."""
    import ray.data

    from naer_ray.stages.canon import connected_components

    rng = np.random.default_rng(7)
    edges = [
        {"id_a": int(a), "id_b": int(b)}
        for a, b in rng.integers(0, 120, size=(200, 2))
    ]
    pairs = ray.data.from_items(edges)
    fast = connected_components(pairs).to_pandas()
    dist = connected_components(
        ray.data.from_items(edges).repartition(5), driver_threshold=0,
        n_buckets=8,
    ).to_pandas()
    f = dict(zip(fast["node"], fast["label"]))
    d = dict(zip(dist["node"], dist["label"]))
    assert f == d


def test_connected_components_empty_edges(ray_session):
    """No edges -> a typed empty (node, label) table on both paths, not a
    KeyError on the schema-less blocks an empty shuffle produces."""
    import ray.data

    from naer_ray.stages.canon import connected_components

    empty = pa.table({"id_a": pa.array([], pa.string()), "id_b": pa.array([], pa.string())})
    for kwargs in ({}, {"driver_threshold": 0}):
        out = connected_components(ray.data.from_arrow(empty), **kwargs)
        assert out.count() == 0, kwargs
        assert out.schema().names == ["node", "label"], kwargs
    # edges that an empty upstream shuffle produced (no schema at all)
    shuffled = ray.data.from_arrow(empty).groupby("id_a").map_groups(
        lambda g: g, batch_format="pyarrow"
    )
    assert connected_components(shuffled).count() == 0


def test_canonical_labels_without_alias_edges():
    """Names that share no pool key label themselves."""
    from naer_ray.stages.canon import canonical_labels

    names = pa.table({"name": ["Alpha", "Zeta"]})
    labels = canonical_labels(names).to_pandas()
    assert dict(zip(labels["node"], labels["label"])) == {"Alpha": "Alpha", "Zeta": "Zeta"}


# ---- oracle: canonical_labels vs a pure-Python reference ------------------

_WORDS = ["web", "ui", "data", "base", "image", "provider", "auth", "gateway",
          "order", "service", "search", "index", "cart", "payment", "user", "profile"]


def _variants(words: list[str], rng) -> list[str]:
    """Surface forms of one multi-word name: camelCase, spaced, lowercase,
    hyphenated and 'component'-suffixed."""
    caps = [w.capitalize() for w in words]
    forms = ["".join(caps), " ".join(caps), " ".join(words), "-".join(caps),
             "".join(caps) + " Component", "".join(words), "".join(caps[:1] + words[1:])]
    return [forms[i] for i in sorted(rng.choice(len(forms), 3, replace=False))]


def _typo(name: str, rng) -> str:
    """Swap two neighbouring characters after the first two: a near
    duplicate whose pool shares no key with the original's."""
    i = int(rng.integers(2, len(name) - 1))
    return name[:i] + name[i + 1] + name[i] + name[i + 2:]


def _name_rows(seed: int) -> list[dict]:
    """Seeded names: alias lists, spacing/camelCase variants, names with an
    empty pool, planted typos and some 560 near-duplicate 'zq' names."""
    rng = np.random.default_rng(seed)
    rows: list[dict] = []
    for _ in range(40):
        words = list(rng.choice(_WORDS, int(rng.integers(1, 4)), replace=False))
        for v in _variants(words, rng):
            aliases = None
            if rng.random() < 0.3:
                # an alias may bridge to another entity, be empty or clean away
                aliases = [str(rng.choice(_WORDS)), "", "component"][: int(rng.integers(0, 4))]
            rows.append({"name": v, "aliases": aliases})
    for base in ["Inventoryservice", "Shippingrouter", "Ledgerwriter", "Notifier"]:
        rows.append({"name": base, "aliases": []})
        rows.append({"name": _typo(base, rng), "aliases": None})
    for empty in ["component", "Component", "  ", "---", "_"]:
        rows.append({"name": empty, "aliases": None})
    # near duplicates: 'zq' + 6 letters, and two pairs one letter apart
    letters = np.array(list("abcdefghijklmnoprstuvwy"))
    big = {"zq" + "".join(rng.choice(letters, 6)) for _ in range(560)}
    big |= {"zqaaaaab", "zqaaaaac", "zqzzzzzx", "zqzzzzzy"}
    rows += [{"name": n, "aliases": None} for n in sorted(big)]
    # every name is seen again, in another batch
    rows += [dict(r) for r in rows[::7]]
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


def _reference_labels(rows: list[dict]) -> dict:
    """Pure-Python canonicalization: pool explode, exact collapsed-key
    edges, union-find with the lexicographically smallest name as the
    label."""
    from naer_ray.names import clean_component_name, normalize_surface

    pairs = set()
    for r in rows:
        pool = {normalize_surface(clean_component_name(r["name"]))}
        pool |= {normalize_surface(a) for a in r["aliases"] or []}
        pool.discard("")
        pairs |= {(k, r["name"]) for k in pool}

    edges = []
    by_collapsed = defaultdict(set)
    for k, n in pairs:
        by_collapsed[k.replace(" ", "")].add(n)
    for ns in by_collapsed.values():
        ns = sorted(ns)
        edges += [(ns[0], o) for o in ns[1:]]

    parent = {n: n for _, n in pairs}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in parent}


def test_canonical_labels_matches_reference():
    from naer_ray.stages.canon import canonical_labels

    rows = _name_rows(seed=11)
    want = _reference_labels(rows)
    # the planted structure is present in the reference itself: near
    # duplicates whose pools do not intersect stay apart
    assert want["zqaaaaac"] == "zqaaaaac" and want["zqzzzzzy"] == "zqzzzzzy"
    assert "component" not in want and "---" not in want
    for base in ["Inventoryservice", "Notifier"]:
        (typo,) = {r["name"] for r in rows if r["name"] != base and sorted(r["name"]) == sorted(base)}
        assert want[typo] != want[base]

    table = pa.Table.from_pylist(
        rows, schema=pa.schema([("name", pa.string()), ("aliases", pa.list_(pa.string()))])
    )
    got = canonical_labels(table, aliases_col="aliases").to_pandas()
    assert len(got) == len(set(got["node"]))
    assert list(got["node"]) == sorted(got["node"])
    assert dict(zip(got["node"], got["label"])) == want


# ---- gate: canonical_labels vs the generators' entity ids --------------


def _same_label_pairs(labels: dict) -> set:
    """Unordered pairs of names that share a label."""
    groups = defaultdict(list)
    for name, label in labels.items():
        groups[label].append(name)
    return {p for g in groups.values() for p in itertools.combinations(sorted(g), 2)}


def _labels_of(names: list[str]) -> dict:
    from naer_ray.stages.canon import canonical_labels

    got = canonical_labels(pa.table({"name": pa.array(names, pa.string())}))
    return dict(zip(got["node"].to_pylist(), got["label"].to_pylist()))


def test_canon_gate_against_generator_truth(tmp_path):
    """Pairwise precision/recall of the label clusters against the
    ``entity_id`` that generated each name.  Over the dictionary surfaces
    (canonical names and aliases) that belong to exactly one entity of
    ``synth_dictionary(300)``, every predicted pair is true and at least
    1,800 of the 1,872 true pairs are found; over the entity names of the
    gazetteer_dense benchmark input, no label joins two entities (its
    "AuthBroker" and "AuditBroker" are different components)."""
    from naer_ray import testdata
    from perfbench import gen

    owners = defaultdict(set)
    for r in testdata.synth_dictionary(300):
        for surface in [r["canonical_name"], *r["aliases"]]:
            owners[surface].add(r["entity_id"])
    entity = {s: ids.pop() for s, ids in owners.items() if len(ids) == 1}
    truth = _same_label_pairs(entity)
    got = _same_label_pairs(_labels_of(sorted(entity)))
    assert len(truth) == 1872
    assert got <= truth  # precision 1.0
    assert len(got) >= 1800  # recall >= 1800/1872

    spec = gen.generate("gazetteer_dense", 1, str(tmp_path), scale=0.1)
    dictionary = pq.read_table(os.path.join(tmp_path, spec["dictionary"]))
    entity = dict(zip(dictionary["canonical_name"].to_pylist(),
                      dictionary["entity_id"].to_pylist()))
    names = sorted(set(pq.read_table(os.path.join(tmp_path, spec["gold"]))["subj"].to_pylist()))
    assert len(names) == 300 and {"AuthBroker", "AuditBroker"} <= set(names)
    crossing = {(n, lbl) for n, lbl in _labels_of(names).items() if entity[n] != entity[lbl]}
    assert crossing == set()


def test_canonical_labels_starts_no_execution(ray_session, monkeypatch):
    """Pool explode, edges and union-find run in this process: with a Ray
    session up, ``canonical_labels`` starts no Ray Data execution."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from naer_ray.stages.canon import canonical_labels

    calls = []
    execute = StreamingExecutor.execute

    def counting(self, *args, **kwargs):
        calls.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    names = pa.table({"name": ["WebUI", "Web UI", "Webui2", "Cart"]})
    labels = canonical_labels(names).to_pandas()
    assert dict(zip(labels["node"], labels["label"]))["WebUI"] == "Web UI"
    assert calls == []


def test_canonical_labels_of_no_names():
    """No names -> a typed empty (node, label) table."""
    from naer_ray.stages.canon import canonical_labels

    labels = canonical_labels(pa.table({"name": pa.array([], pa.string())}))
    assert labels.num_rows == 0
    assert labels.schema.types == [pa.string(), pa.string()]
