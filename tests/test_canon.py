"""Canonicalization: Jaro-Winkler conformance + distributed union-find labels."""

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


def test_canonical_labels_cluster(ray_session):
    import ray.data

    from naer_ray.stages.canon import canonical_labels

    names = ray.data.from_items(
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


def test_apply_canonical_labels(ray_session):
    import ray.data

    from naer_ray.stages.canon import apply_canonical_labels

    triples = ray.data.from_items(
        [
            {"subj": "Web UI", "pred": "mentionedIn", "obj": "c1"},
            {"subj": "Other", "pred": "mentionedIn", "obj": "c2"},
        ]
    )
    labels = ray.data.from_items(
        [{"node": "Web UI", "label": "WebUI"}, {"node": "WebUI", "label": "WebUI"}]
    )
    out = apply_canonical_labels(triples, labels).to_pandas()
    assert set(out["subj"]) == {"WebUI", "Other"}


def test_alias_pools_join_entities(ray_session):
    """Aliases bridge differently-named entities (J3 generalized)."""
    import ray.data

    from naer_ray.stages.canon import canonical_labels

    names = ray.data.from_items(
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


def test_canonical_labels_without_alias_edges(ray_session):
    """Names that share no pool key or fuzzy block label themselves."""
    import ray.data

    from naer_ray.stages.canon import canonical_labels

    names = ray.data.from_items([{"name": "Alpha"}, {"name": "Zeta"}])
    labels = canonical_labels(names).to_pandas()
    assert dict(zip(labels["node"], labels["label"])) == {"Alpha": "Alpha", "Zeta": "Zeta"}
