"""No module on the job path calls ``map_groups``.

A job's one exchange is ``sort("bucket")`` plus ``map_batches`` over
blocks of whole buckets (CLAUDE.md, "Grouped work"); ``map_groups``
would split every block again into one Ray group per key.  This test
reads each job-path module's source, so a new ``map_groups`` there, even
in a docstring, fails tier-1.
"""

import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..", "naer_ray")

JOB_PATH_MODULES = [
    "pipelines/kg.py",
    "pipelines/evaluate.py",
    "stages/extract.py",
    "stages/answers.py",
    "stages/llm.py",
    "state/checkpoint.py",
    "sources/gazetteer.py",
    "sources/transcripts.py",
]


@pytest.mark.parametrize("module", JOB_PATH_MODULES)
def test_no_map_groups_on_job_path(module):
    with open(os.path.join(ROOT, module), encoding="utf-8") as f:
        source = f.read()
    assert "map_groups" not in source, f"naer_ray/{module} mentions map_groups"
