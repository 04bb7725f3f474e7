"""naer_ray — a Ray-Data-native knowledge-graph construction engine.

Reimplements the query/data-processing capabilities of
ardoco/named-architecture-entity-recognition (NAER) as a streaming
extraction DAG over Parquet transcript tables: mention detection, alias
handling, occurrence resolution with DIRECT/INDIRECT reference typing,
gazetteer-assisted linking, name-pool canonicalization, (subj, pred,
obj) triple materialization, and P/R/F1 evaluation.  The
general-purpose operators (dedup, similarity search, text analysis,
multimodal plumbing) live in the separate ``opzoo`` package, which this
one never imports.

Nothing in this package calls ``ray.init()``; sessions are owned by the
caller (driver / bench.py / test fixture).
"""

__version__ = "0.1.0"

import os as _os

_os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")


def _disable_numpy_hugepage_madvise() -> None:
    """Turn off numpy's MADV_HUGEPAGE on large buffers, in THIS process.

    This host runs transparent_hugepage enabled=madvise, defrag=madvise:
    a fault on a MADV_HUGEPAGE VMA enters synchronous direct compaction,
    and when host memory is fragmented every FRESH large numpy buffer
    first-touches at 0.01-0.07 GB/s (measured; ~500 us/page) vs a
    steady 1.5-1.9 GB/s with the madvise off — a 30-100x swing that
    inflated whole bench windows 3-8x (worst on stages that allocate in
    fresh actors, e.g. hash-join aggregators).  Runs at import so every
    process that uses this package (driver, Ray workers importing UDF
    modules) is covered; the env var above covers child processes
    spawned after import.  No-op if numpy's private toggle moves."""
    try:
        try:
            from numpy.core.multiarray import _set_madvise_hugepage
        except ImportError:  # numpy >= 2.0 layout
            from numpy._core.multiarray import _set_madvise_hugepage
        _set_madvise_hugepage(False)
    except Exception:
        pass


_disable_numpy_hugepage_madvise()
