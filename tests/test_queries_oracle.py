"""Every oracle-checkable query must match DuckDB exactly at sf0.001.

This mirrors the driver's correctness harness: run the Ray query and
the oracle SQL on the same parquet tables, normalize (sort columns by
name, sort rows), compare exactly.  It covers the KG registry that
``__ray_entry__`` serves (``naer_ray.pipelines.queries``) and the
general operator registry (``opzoo.queries``).
"""

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


KG_QUERIES = {
    "q14_kg_transcripts",
    "q15_kg_occurs_triples",
    "q16_kg_cooccurrence",
    "q17_kg_flagship",
    "q27_llm_extract",
    "q28_llm_two_part",
    "c01_canonical_labels",
    "c02_fuzzy_canonical_labels",
    "kg_parity_eval",
}


def _registry() -> dict:
    from naer_ray.pipelines.queries import REGISTRY as KG
    from opzoo.queries import REGISTRY as ZOO

    assert not set(KG) & set(ZOO)
    return {n: (fn, sql) for n, (fn, sql) in {**KG, **ZOO}.items() if sql is not None}


def test_ray_entry_serves_the_kg_registry():
    import __ray_entry__

    assert set(__ray_entry__.queries()) == KG_QUERIES
    assert set(__ray_entry__.oracle_sql()) == KG_QUERIES
    # an entry that loses its SQL would drop out of the parametrized set
    from naer_ray.pipelines.queries import REGISTRY

    assert {n for n, (_, sql) in REGISTRY.items() if sql is not None} == KG_QUERIES


@pytest.mark.parametrize("name", list(_registry()))
def test_query_matches_oracle(name, ray_session, con):
    fn, sql = _registry()[name]
    res = fn(SF)
    if hasattr(res, "to_pandas"):
        res = res.to_pandas()
    oracle = con.sql(sql).df()
    a, b = _norm(res), _norm(oracle)
    assert len(a) == len(b), f"{name}: rows {len(a)} vs {len(b)}"
    assert sorted(a.columns) == sorted(b.columns), f"{name}: {a.columns} vs {b.columns}"
    # Driver's value hash is dtype-sensitive (int64 1 != float64 1.0): the
    # dtype KIND must agree or the driver flags hash_match=false even when
    # values are identical (round-1 q10/q19/q23 HUGEINT artifact).
    kinds_a = {c: a[c].dtype.kind for c in a.columns}
    kinds_b = {c: b[c].dtype.kind for c in b.columns}
    assert kinds_a == kinds_b, f"{name}: dtype kinds {kinds_a} vs {kinds_b}"
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
