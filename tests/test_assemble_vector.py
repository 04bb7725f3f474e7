"""Vectorized assembler must be TABLE-IDENTICAL to the Python walk.

The numpy kernel (stages/extract._assemble_vectorized) re-implements
the per-conversation walk below (``_assemble_one``: anaphora resolution,
occurrence-set dedup and emission ordering), which stays here as the
semantics oracle; these tests compare both byte-for-byte on the real
fixture corpus and on adversarial random mention tables (pronoun-only
turns, pronoun-first conversations, duplicate mentions, entities
missing from the dictionary)."""

import os

import numpy as np
import pyarrow as pa
import pytest

from naer_ray import schema
from naer_ray.hashing import hash_u32
from naer_ray.sources.gazetteer import (
    DictionaryRef,
    load_dictionary_rows,
    matcher_from_ref,
)
from naer_ray.stages.extract import (
    MENTION_SCHEMA,
    MentionDetector,
    make_conversation_assembler,
)


class TripleColumns:
    """Columnar triple-row accumulator for the Python walk."""

    __slots__ = ("subj", "pred", "obj", "conv_id", "turn_idx", "ref_type")

    def __init__(self):
        self.subj: list[str] = []
        self.pred: list[str] = []
        self.obj: list[str] = []
        self.conv_id: list[str] = []
        self.turn_idx: list[int | None] = []
        self.ref_type: list[str | None] = []

    def add(self, subj, pred, obj, conv_id, turn_idx=None, ref_type=None) -> None:
        self.subj.append(subj)
        self.pred.append(pred)
        self.obj.append(obj)
        self.conv_id.append(conv_id)
        self.turn_idx.append(turn_idx)
        self.ref_type.append(ref_type)

    def table(self) -> pa.Table:
        return pa.table(
            {
                "subj": pa.array(self.subj, pa.string()),
                "pred": pa.array(self.pred, pa.string()),
                "obj": pa.array(self.obj, pa.string()),
                "conv_id": pa.array(self.conv_id, pa.string()),
                "turn_idx": pa.array(self.turn_idx, pa.int32()),
                "ref_type": pa.array(self.ref_type, pa.string()),
            },
            schema=schema.TRIPLES,
        )


_REF_RANK = {"DIRECT": 0, "INDIRECT": 1}


def _assemble_one(
    conv_id: str,
    rows_iter,  # iterable of (turn_idx, entity_id, is_pronoun), sorted
    matcher,
    out: "TripleColumns",
) -> None:
    """Assemble one conversation's mention rows into triples (appends)."""
    by_id = matcher.by_id
    occurrences: dict[str, set[tuple[int, str]]] = {}
    order: list[str] = []
    last_direct: str | None = None
    prev_turn: int | None = None
    pending_direct: str | None = None  # last DIRECT match of the current turn

    for turn_idx, eid, is_pron in rows_iter:
        if prev_turn is not None and turn_idx != prev_turn and pending_direct is not None:
            last_direct = pending_direct
            pending_direct = None
        prev_turn = turn_idx
        if is_pron:
            # anaphora: attribute to the most recent DIRECT entity of EARLIER turns
            if last_direct is not None:
                occurrences.setdefault(last_direct, set()).add((turn_idx, "INDIRECT"))
                if last_direct not in order:
                    order.append(last_direct)
            continue
        if eid not in occurrences:
            occurrences[eid] = set()
            order.append(eid)
        occurrences[eid].add((turn_idx, "DIRECT"))
        pending_direct = eid

    add = out.add
    for eid in order:
        row = by_id.get(eid)
        if row is None:
            continue
        name, etype = row["canonical_name"], row["type"]
        add(name, "hasType", etype, conv_id)
        add(name, "mentionedIn", conv_id, conv_id)
        # dictionary alias edges are ENTITY-scoped, not conversation-scoped,
        # so the walk emits none — repeating them per conversation
        # multiplied triple volume ~40% for zero information
        for turn, ref in sorted(occurrences[eid], key=lambda o: (o[0], _REF_RANK[o[1]])):
            add(name, "occursIn", f"{conv_id}#{turn}", conv_id, turn, ref)
        for _iid, iface_name in sorted(
            matcher.interfaces_of.get(eid, []), key=lambda t: t[1]
        ):
            add(name, "hasInterface", iface_name, conv_id)


def _assemble_python(dict_ref, group: pa.Table) -> pa.Table:
    """Per-conversation walk over one bucket: the assembler semantics oracle."""
    matcher = matcher_from_ref(dict_ref)
    group = group.sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending"),
         ("pos", "ascending"), ("eid_code", "ascending")]
    )
    conv_ids = group["conv_id"].to_pylist()
    turn_idxs = group["turn_idx"].to_pylist()
    eids = matcher.eids
    entity_ids = [
        eids[c] if 0 <= c < len(eids) else ("" if c < 0 else f"__ghost_{c}__")
        for c in group["eid_code"].to_pylist()
    ]
    pronouns = group["is_pronoun"].to_pylist()

    out = TripleColumns()
    i, n = 0, len(conv_ids)
    while i < n:
        j = i
        conv_id = conv_ids[i]
        while j < n and conv_ids[j] == conv_id:
            j += 1
        _assemble_one(
            conv_id,
            zip(turn_idxs[i:j], entity_ids[i:j], pronouns[i:j]),
            matcher,
            out,
        )
        i = j
    return out.table()


def _assemblers(dict_ref):
    return (
        lambda group: _assemble_python(dict_ref, group),
        make_conversation_assembler(dict_ref),
    )


def _assert_identical(py_out: pa.Table, vec_out: pa.Table):
    assert py_out.schema.equals(vec_out.schema)
    assert py_out.num_rows == vec_out.num_rows
    if not py_out.equals(vec_out):
        import pandas as pd

        a, b = py_out.to_pandas(), vec_out.to_pandas()
        diff = (a != b) & ~(a.isna() & b.isna())
        rows = diff.any(axis=1)
        raise AssertionError(
            f"first diffs:\npy:\n{a[rows].head()}\nvec:\n{b[rows].head()}"
        )


def test_ref_corpus_identical(ray_session, ref_corpus):
    rows = load_dictionary_rows(
        os.path.join(ref_corpus, "entity_dictionary.parquet")
    )
    ref = DictionaryRef(rows)
    import pyarrow.parquet as pq

    turns = pq.read_table(os.path.join(ref_corpus, "transcripts"))
    # bucketed turns, hashed the way pipelines/kg.add_bucket hashes them
    buckets = [hash_u32(c) % 8 for c in turns["conv_id"].to_pylist()]
    turns = turns.append_column("bucket", pa.array(buckets, pa.int32()))
    mentions = MentionDetector(ref)(turns)
    py_fn, vec_fn = _assemblers(ref)
    _assert_identical(py_fn(mentions), vec_fn(mentions))


def _random_mentions(rng, n_convs, dict_rows, max_turns=12, max_rows=6):
    n_eids = len(dict_rows)
    rows = {k: [] for k in ("bucket", "conv_id", "turn_idx", "pos", "eid_code", "is_pronoun")}
    for c in range(n_convs):
        conv = f"conv-{c:04d}"
        for t in range(rng.integers(1, max_turns)):
            for _ in range(rng.integers(0, max_rows)):
                is_pron = bool(rng.random() < 0.3)
                rows["bucket"].append(int(c % 4))
                rows["conv_id"].append(conv)
                rows["turn_idx"].append(int(t))
                rows["pos"].append(int(rng.integers(-1, 30)) if not is_pron else -1)
                # ~10% of codes reference entities absent from the dictionary
                code = (
                    -1
                    if is_pron
                    else (
                        n_eids + int(rng.integers(3))
                        if rng.random() < 0.1
                        else int(rng.integers(n_eids))
                    )
                )
                rows["eid_code"].append(code)
                rows["is_pronoun"].append(is_pron)
    return pa.table(
        {
            "bucket": pa.array(rows["bucket"], pa.int32()),
            "conv_id": pa.array(rows["conv_id"], pa.string()),
            "turn_idx": pa.array(rows["turn_idx"], pa.int32()),
            "pos": pa.array(rows["pos"], pa.int32()),
            "eid_code": pa.array(rows["eid_code"], pa.int32()),
            "is_pronoun": pa.array(rows["is_pronoun"], pa.bool_()),
        },
        schema=MENTION_SCHEMA,
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_random_mention_tables_identical(ray_session, ref_corpus, seed):
    rows = load_dictionary_rows(
        os.path.join(ref_corpus, "entity_dictionary.parquet")
    )
    ref = DictionaryRef(rows)
    rng = np.random.default_rng(seed)
    mentions = _random_mentions(rng, n_convs=40, dict_rows=rows)
    py_fn, vec_fn = _assemblers(ref)
    _assert_identical(py_fn(mentions), vec_fn(mentions))


def test_property_random_tables_identical(ray_session, ref_corpus):
    """Hypothesis-style sweep: 30 random seeds with varied shape params —
    catches boundary interactions (single-row convs, all-pronoun heads,
    ghost-heavy tables) that the fixed seeds might miss."""
    rows = load_dictionary_rows(
        os.path.join(ref_corpus, "entity_dictionary.parquet")
    )
    ref = DictionaryRef(rows)
    py_fn, vec_fn = _assemblers(ref)
    for seed in range(30):
        rng = np.random.default_rng(1000 + seed)
        mentions = _random_mentions(
            rng,
            n_convs=int(rng.integers(1, 25)),
            dict_rows=rows,
            max_turns=int(rng.integers(2, 20)),
            max_rows=int(rng.integers(1, 8)),
        )
        try:
            _assert_identical(py_fn(mentions), vec_fn(mentions))
        except AssertionError as e:
            raise AssertionError(f"seed {1000 + seed}: {e}") from e


def test_empty_group(ray_session, ref_corpus):
    rows = load_dictionary_rows(
        os.path.join(ref_corpus, "entity_dictionary.parquet")
    )
    ref = DictionaryRef(rows)
    empty = pa.table(
        {f.name: pa.array([], f.type) for f in MENTION_SCHEMA}, schema=MENTION_SCHEMA
    )
    py_fn, vec_fn = _assemblers(ref)
    _assert_identical(py_fn(empty), vec_fn(empty))


def test_pronoun_only_conversation(ray_session, ref_corpus):
    """No DIRECT mention anywhere: pronouns must resolve to nothing."""
    rows = load_dictionary_rows(
        os.path.join(ref_corpus, "entity_dictionary.parquet")
    )
    ref = DictionaryRef(rows)
    mentions = pa.table(
        {
            "bucket": pa.array([0, 0, 0], pa.int32()),
            "conv_id": pa.array(["c1", "c1", "c2"], pa.string()),
            "turn_idx": pa.array([0, 1, 0], pa.int32()),
            "pos": pa.array([-1, -1, -1], pa.int32()),
            "eid_code": pa.array([-1, -1, -1], pa.int32()),
            "is_pronoun": pa.array([True, True, True], pa.bool_()),
        },
        schema=MENTION_SCHEMA,
    )
    py_fn, vec_fn = _assemblers(ref)
    out_py, out_vec = py_fn(mentions), vec_fn(mentions)
    _assert_identical(out_py, out_vec)
    assert out_py.num_rows == 0


def test_cross_conversation_leak_blocked(ray_session, ref_corpus):
    """A pronoun in conv B's first turn must NOT inherit conv A's
    last DIRECT entity (the conv-equality check in the runmax trick)."""
    rows = load_dictionary_rows(
        os.path.join(ref_corpus, "entity_dictionary.parquet")
    )
    ref = DictionaryRef(rows)
    mentions = pa.table(
        {
            "bucket": pa.array([0, 0], pa.int32()),
            "conv_id": pa.array(["a", "b"], pa.string()),
            "turn_idx": pa.array([0, 5], pa.int32()),
            "pos": pa.array([0, -1], pa.int32()),
            "eid_code": pa.array([0, -1], pa.int32()),
            "is_pronoun": pa.array([False, True], pa.bool_()),
        },
        schema=MENTION_SCHEMA,
    )
    py_fn, vec_fn = _assemblers(ref)
    out_py, out_vec = py_fn(mentions), vec_fn(mentions)
    _assert_identical(out_py, out_vec)
    # conv b emits nothing; conv a emits its DIRECT occurrence only
    assert set(out_vec["conv_id"].to_pylist()) == {"a"}
    refs = [r for r in out_vec["ref_type"].to_pylist() if r]
    assert refs == ["DIRECT"]
