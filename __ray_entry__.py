"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in naer_ray) calls ``ray.init()`` / ``ray.shutdown()``.

* ``entry()`` — flagship KG-construction pipeline over
  /root/testdata/sf0.001: derive a transcripts-shaped table from the
  ``documents`` table (10-word chunks as turns), run mention detection
  + conversation assembly against an inline entity dictionary, return
  the (subj, pred, obj) triples Dataset.
* ``queries()`` — one callable per KG query of
  ``naer_ray.pipelines.queries`` (transcript derivation, occurrence and
  flagship triples, canonicalization, the LLM extractor paths and the
  parity gate); each takes ``sf_dir``.
* ``oracle_sql()`` — DuckDB-equivalent SQL for every oracle-checkable
  query (column names match the Ray results exactly).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001; driver checks rows>=0."""
    from naer_ray.pipelines.queries import q17_kg_flagship

    return q17_kg_flagship("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per KG query of the registry."""
    from naer_ray.pipelines.queries import REGISTRY

    return {name: fn for name, (fn, _sql) in REGISTRY.items()}


def oracle_sql() -> dict[str, str]:
    """DuckDB oracle for each oracle-checkable query (same column names)."""
    from naer_ray.pipelines.queries import REGISTRY

    return {name: sql for name, (fn, sql) in REGISTRY.items() if sql is not None}
