"""Self-tests of the benchmark: generator, output checker, metric names.

    python3 -m pytest perfbench/tests -q -p no:cacheprovider

None of these start Ray.
"""

import json
import os
import re
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import check, gen, run, trace  # noqa: E402

SCALE = 0.02
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _tables(in_dir: str) -> dict[str, pa.Table]:
    spec = gen.load_spec(in_dir)
    out = {"transcripts": pq.read_table(spec["transcripts"]).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])}
    for key in ("dictionary", "gold", "answers", "expected"):
        if spec.get(key):
            out[key] = pq.read_table(spec[key])
    return out


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    a, b, c = (str(tmp_path / n) for n in "abc")
    spec_a = gen.generate(workload, 3, a, SCALE)
    spec_b = gen.generate(workload, 3, b, SCALE)
    gen.generate(workload, 4, c, SCALE)
    assert spec_a == spec_b
    ta, tb, tc = _tables(a), _tables(b), _tables(c)
    assert ta.keys() == tb.keys()
    for key in ta:
        assert ta[key].equals(tb[key]), key
    assert not ta["transcripts"].equals(tc["transcripts"])


def test_dense_invalid_rows_avoid_the_gold(tmp_path):
    spec = gen.generate("gazetteer_dense", 5, str(tmp_path), SCALE)
    spec = gen.load_spec(str(tmp_path))
    turns = pq.read_table(spec["transcripts"])
    invalid = turns.filter(pc.invert(pc.match_substring_regex(turns["text"], r"[.!?]\s*$")))
    assert invalid.num_rows == spec["invalid_rows"] > 0
    gold_keys = set(zip(*pq.read_table(spec["gold"]).select(["conv_id", "turn_idx"]).to_pydict().values()))
    bad_keys = set(zip(*invalid.select(["conv_id", "turn_idx"]).to_pydict().values()))
    assert not gold_keys & bad_keys


def _occurs_in(gold: pa.Table) -> pa.Table:
    """The occursIn triples a correct job writes for ``gold``."""
    n = gold.num_rows
    return pa.table(
        {
            "subj": gold["subj"],
            "pred": pa.array(["occursIn"] * n),
            "obj": gold["conv_id"],
            "conv_id": gold["conv_id"],
            "turn_idx": gold["turn_idx"],
            "ref_type": gold["ref_type"],
        }
    )


@pytest.fixture(scope="module")
def gold(tmp_path_factory) -> pa.Table:
    out = str(tmp_path_factory.mktemp("dense"))
    gen.generate("gazetteer_dense", 7, out, SCALE)
    table = pq.read_table(gen.load_spec(out)["gold"])
    assert set(table["ref_type"].to_pylist()) >= {"DIRECT"}
    return table


def test_checker_accepts_the_gold(gold):
    assert check.gold_problems(_occurs_in(gold), gold) == []


def test_checker_rejects_a_dropped_triple(gold):
    triples = _occurs_in(gold)
    dropped = pa.concat_tables([triples.slice(0, 5), triples.slice(6)])
    assert check.gold_problems(dropped, gold)


def test_checker_rejects_a_flipped_ref_type(gold):
    triples = _occurs_in(gold)
    ref = triples["ref_type"].to_pylist()
    ref[3] = "INDIRECT" if ref[3] == "DIRECT" else "DIRECT"
    flipped = triples.set_column(5, "ref_type", pa.array(ref, pa.string()))
    assert check.gold_problems(flipped, gold)


@pytest.fixture(scope="module")
def expected(tmp_path_factory) -> pa.Table:
    out = str(tmp_path_factory.mktemp("answers"))
    gen.generate("answers_long", 7, out, 0.1)
    table = pq.read_table(gen.load_spec(out)["expected"])
    assert set(table["pred"].to_pylist()) >= {"occursIn", "hasType"}
    return table


def test_expected_check_accepts_the_expected_triples(expected):
    error = pa.table({c: pa.array([x], f.type) for c, f, x in zip(
        expected.column_names, expected.schema, ["e", "__error__", "bad", "c", None, None])})
    assert check.expected_problems(pa.concat_tables([expected, error]), expected) == []


def test_expected_check_rejects_a_dropped_triple(expected):
    assert check.expected_problems(expected.slice(1), expected)


def test_expected_check_rejects_a_flipped_ref_type(expected):
    ref = expected["ref_type"].to_pylist()
    i = next(i for i, r in enumerate(ref) if r is not None)
    ref[i] = "INDIRECT" if ref[i] == "DIRECT" else "DIRECT"
    flipped = expected.set_column(5, "ref_type", pa.array(ref, pa.string()))
    assert check.expected_problems(flipped, expected)


def _write_stage(root: str, table: pa.Table, n_buckets: int = 2) -> None:
    manifest = {"stages": {"triples": {"buckets": {}}}}
    for b in range(n_buckets):
        part = table.slice(b * table.num_rows // n_buckets,
                           table.num_rows // n_buckets if b < n_buckets - 1 else None)
        d = os.path.join(root, "triples", f"bucket={b}")
        os.makedirs(d)
        pq.write_table(part, os.path.join(d, "part-0.parquet"))
        manifest["stages"]["triples"]["buckets"][str(b)] = {"rows": part.num_rows}
    with open(os.path.join(root, "MANIFEST.json"), "w") as f:
        json.dump(manifest, f)


def test_digest_is_order_independent_and_sees_a_dropped_row(tmp_path, gold):
    triples = _occurs_in(gold)
    a, b, c = (str(tmp_path / n) for n in "abc")
    _write_stage(a, triples)
    _write_stage(b, triples.take(pa.array(range(triples.num_rows - 1, -1, -1))))
    _write_stage(c, triples.slice(1))
    assert check.digest(a) == check.digest(b)
    assert check.digest(a) != check.digest(c)


def test_reconcile_rejects_a_manifest_row_count_mismatch(tmp_path, gold):
    root = str(tmp_path)
    _write_stage(root, _occurs_in(gold))
    spec = {"extractor": "gazetteer", "turns": 10, "invalid_rows": 0}
    assert check.reconcile_problems(root, spec, 2) == []
    with open(os.path.join(root, "MANIFEST.json")) as f:
        manifest = json.load(f)
    manifest["stages"]["triples"]["buckets"]["0"]["rows"] += 1
    with open(os.path.join(root, "MANIFEST.json"), "w") as f:
        json.dump(manifest, f)
    assert check.reconcile_problems(root, spec, 2)


def test_metric_names_and_benchmark_file_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    names = end_to_end + per_layer + [w["name"] for w in bench["workloads"]]
    for name in names + list(trace.PER_LAYER) + list(run.END_TO_END_UNITS):
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
    assert len(set(names)) == len(names)
    assert end_to_end == list(run.END_TO_END_UNITS)
    assert per_layer == list(trace.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert tuple(run.WORKLOADS) == tuple(gen.WORKLOADS)
    for m in bench["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    for m in bench["per_layer"]:
        assert m["unit"] == trace.unit_of(m["name"])


def test_layer_metrics_reconcile_with_job_time():
    spans = [
        {"id": 1, "pid": 10, "name": "detect", "start": 0.0, "end": 1.0, "parent": None,
         "attrs": {"rows_in": 10, "rows_out": 4, "bytes_out": 64, "distinct": 5}},
        {"id": 2, "pid": 10, "name": "gazetteer.match", "start": 0.2, "end": 0.7,
         "parent": 1, "attrs": {}},
        {"id": 1, "pid": 11, "name": "assemble", "start": 1.0, "end": 1.5, "parent": None,
         "attrs": {"rows_in": 4, "rows_out": 8, "grouped": True, "exchange": "assemble",
                   "bytes_in": 32}},
    ]
    extra = {"files": 1, "bytes": 100, "canon_names": 0, "canon_edges": 0}
    m = trace.layer_metrics(spans, 2.0, 0.1, extra)
    assert m["detect.busy_s"] == pytest.approx(0.5)
    assert m["gazetteer.match.busy_s"] == pytest.approx(0.5)
    assert m["detect.selectivity"] == pytest.approx(0.4)
    assert m["detect.distinct_text_ratio"] == pytest.approx(0.5)
    busy = sum(m[f"{layer}.busy_s"] for layer in trace.BUSY_LAYERS)
    assert busy + m["driver.overhead_s"] == pytest.approx(2.0)
    assert m["exchange.count"] == 1 and m["exchange.rows"] == 4
    assert set(m) | {"trace.overhead_ratio"} == set(trace.PER_LAYER)


def test_double_counted_spans_give_a_negative_overhead():
    """A span that overlaps one of another process in wall time is counted
    twice; the traced run fails a job whose overhead comes out below 0."""
    spans = [
        {"id": 1, "pid": 10, "name": "nodes", "start": 0.0, "end": 1.5, "parent": None,
         "attrs": {}},
        {"id": 1, "pid": 11, "name": "write", "start": 0.5, "end": 2.0, "parent": None,
         "attrs": {}},
    ]
    extra = {"files": 0, "bytes": 0, "canon_names": 0, "canon_edges": 0}
    assert trace.layer_metrics(spans, 2.0, 0.0, extra)["driver.overhead_s"] < 0
