"""Canonicalization: Jaro-Winkler conformance, in-process labels, and the
distributed union-find of ``connected_components``."""

import numpy as np
import pyarrow as pa
import pytest


class TestJaroWinkler:
    def test_known_vectors(self):
        from naer_ray.stages.canon import jaro_winkler

        # classic published examples
        assert jaro_winkler("MARTHA", "MARHTA") == pytest.approx(0.9611, abs=1e-3)
        assert jaro_winkler("DWAYNE", "DUANE") == pytest.approx(0.84, abs=1e-2)
        assert jaro_winkler("DIXON", "DICKSONX") == pytest.approx(0.8133, abs=1e-3)
        assert jaro_winkler("same", "same") == 1.0
        assert jaro_winkler("abc", "xyz") == 0.0


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
    """Names that share no pool key or fuzzy block label themselves."""
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
    """Swap two neighbouring characters after the first two: same block,
    Jaro-Winkler >= 0.93."""
    i = int(rng.integers(2, len(name) - 1))
    return name[:i] + name[i + 1] + name[i] + name[i + 2:]


def _name_rows(seed: int) -> list[dict]:
    """Seeded names: alias lists, spacing/camelCase variants, names with an
    empty pool, planted Jaro-Winkler typos and one block of > 500 rows."""
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
    # one block over 500 rows: 'zq' + 6 letters is collapsed length 8
    letters = np.array(list("abcdefghijklmnoprstuvwy"))
    big = {"zq" + "".join(rng.choice(letters, 6)) for _ in range(560)}
    # typo pairs at both ends of the sorted block: the head pair is
    # compared, the tail pair lies beyond the 500-row cap
    big |= {"zqaaaaab", "zqaaaaac", "zqzzzzzx", "zqzzzzzy"}
    rows += [{"name": n, "aliases": None} for n in sorted(big)]
    # every name is seen again, in another batch
    rows += [dict(r) for r in rows[::7]]
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


def _reference_labels(rows: list[dict], jw_threshold: float, cap: int = 500) -> dict:
    """Pure-Python canonicalization: pool explode, exact collapsed-key
    edges, blocked Jaro-Winkler with the sorted-head cap, union-find with
    the lexicographically smallest name as the label."""
    from collections import defaultdict

    from naer_ray.names import clean_component_name, normalize_surface
    from naer_ray.stages.canon import jaro_winkler

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
    if jw_threshold <= 1.0:
        blocks = defaultdict(list)
        for k, n in pairs:
            c = k.replace(" ", "")
            blocks[(c[:2], len(c) // 4)].append((k, n))
        for block in blocks.values():
            block = sorted(block)[:cap]
            for i, (ki, ni) in enumerate(block):
                for kj, nj in block[i + 1:]:
                    if ki != kj and jaro_winkler(ki, kj) >= jw_threshold:
                        edges.append((ni, nj))

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


@pytest.mark.parametrize("jw_threshold", [0.93, 1.01])
def test_canonical_labels_matches_reference(jw_threshold):
    import warnings

    from naer_ray.stages.canon import canonical_labels

    rows = _name_rows(seed=11)
    want = _reference_labels(rows, jw_threshold)
    # the planted structure is present in the reference itself
    assert want["zqaaaaac"] == ("zqaaaaab" if jw_threshold <= 1.0 else "zqaaaaac")
    assert want["zqzzzzzy"] == "zqzzzzzy"
    assert "component" not in want and "---" not in want
    for base in ["Inventoryservice", "Notifier"]:
        (typo,) = {r["name"] for r in rows if r["name"] != base and sorted(r["name"]) == sorted(base)}
        assert (want[typo] == want[base]) == (jw_threshold <= 1.0)

    table = pa.Table.from_pylist(
        rows, schema=pa.schema([("name", pa.string()), ("aliases", pa.list_(pa.string()))])
    )
    if jw_threshold <= 1.0:
        with pytest.warns(RuntimeWarning, match="canonicalization block capped"):
            got = canonical_labels(table, aliases_col="aliases", jw_threshold=jw_threshold)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = canonical_labels(table, aliases_col="aliases", jw_threshold=jw_threshold)
    got = got.to_pandas()
    assert len(got) == len(set(got["node"]))
    assert list(got["node"]) == sorted(got["node"])
    assert dict(zip(got["node"], got["label"])) == want


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
