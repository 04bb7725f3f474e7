"""General-purpose Ray Data operators and their DuckDB-checked registry.

Kept apart from :mod:`naer_ray`, which is the KG-construction library and
never imports this package.  :mod:`opzoo.queries` holds the registry,
:mod:`opzoo.stages` the operator modules it composes.
"""
