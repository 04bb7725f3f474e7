"""Benchmark of naer_ray's checkpointed KG job (``run_kg_job``).

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads, metrics and layer map.
"""
