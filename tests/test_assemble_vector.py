"""Vectorized assembler must be TABLE-IDENTICAL to the Python walk.

The numpy kernel (stages/extract._assemble_vectorized) re-implements
the per-conversation walk below (``_assemble_one``: anaphora resolution,
occurrence-set dedup and emission), which stays here as the semantics
oracle; the kernel emits its rows in the bucket files' order from
integer codes, so the oracle's rows get their bucket and one Arrow sort
by every column (:func:`_in_file_order`).  These tests compare both
byte-for-byte on the real fixture corpus, on adversarial random mention
tables (pronoun-only turns, pronoun-first conversations, duplicate
mentions, entities missing from the dictionary), on strings whose
order the integer keys could get wrong, and through the bucket writer
over blocks of whole buckets given in any row order."""

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


def _in_file_order(triples: pa.Table, mentions: pa.Table) -> pa.Table:
    """``triples`` with each conversation's bucket (from the mention rows),
    sorted by every column: the bucket files' order."""
    bucket_of = dict(zip(mentions["conv_id"].to_pylist(), mentions["bucket"].to_pylist()))
    buckets = pa.array([bucket_of[c] for c in triples["conv_id"].to_pylist()], pa.int32())
    out = triples.add_column(0, "bucket", buckets)
    return out.sort_by([(c, "ascending") for c in out.column_names])


def _assemblers(dict_ref):
    return (
        lambda group: _in_file_order(_assemble_python(dict_ref, group), group),
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


# ------------------------------------------------- file order from integer codes


def _entity(eid, name, etype="COMPONENT", interface_of=None):
    return {"entity_id": eid, "canonical_name": name, "type": etype, "aliases": [],
            "interface_of": interface_of}


#: names, types and interface names whose byte order differs from their
#: entity ids' order: non-ASCII names, a name two entities share, a name
#: that is a prefix of another
_ODD_DICTIONARY = [
    _entity("e0", "Zeta"),
    _entity("e1", "Ärger"),
    _entity("e2", "Ωmega", "CLASS"),
    _entity("e3", "éclair"),
    _entity("e4", "Zeta", "CLASS"),
    _entity("e5", "Zet"),
    _entity("i0", "Ärger-Port", "INTERFACE", "e1"),
    _entity("i1", "Aerger-Port", "INTERFACE", "e1"),
    _entity("i2", "ßPort", "INTERFACE", "e3"),
]


def _mention_table(rows) -> pa.Table:
    """Mention rows from ``(bucket, conv_id, turn_idx, pos, eid_code)``
    tuples; code -1 is a pronoun cue."""
    cols = list(zip(*rows))
    return pa.table(
        {
            "bucket": pa.array(cols[0], pa.int32()),
            "conv_id": pa.array(cols[1], pa.string()),
            "turn_idx": pa.array(cols[2], pa.int32()),
            "pos": pa.array(cols[3], pa.int32()),
            "eid_code": pa.array(cols[4], pa.int32()),
            "is_pronoun": pa.array([c < 0 for c in cols[4]], pa.bool_()),
        },
        schema=MENTION_SCHEMA,
    )


def _codes(ref):
    return matcher_from_ref(ref).eid_index


def test_occurs_in_objects_sort_as_strings(ray_session):
    """``conv#turn`` objects sort as strings, not as (conv, turn): turn 10
    before turn 9, and conv ids that are prefixes of each other or hold
    bytes below ``#`` (``"a!#1" < "a#1"`` although ``"a" < "a!"``)."""
    ref = DictionaryRef(_ODD_DICTIONARY)
    e5 = _codes(ref)["e5"]
    convs = ["c", "a", "a!", "ab", "a#1", "a\x01", "a b"]
    rows = [(0, c, t, 0, e5) for c in convs for t in (1, 9, 10)]
    rows += [(0, c, t, -1, -1) for c in convs for t in (2, 11)]  # INDIRECT
    mentions = _mention_table(rows)
    py_fn, vec_fn = _assemblers(ref)
    out = vec_fn(mentions)
    _assert_identical(py_fn(mentions), out)
    occ = out.filter(pa.compute.equal(out["pred"], "occursIn"))
    objs = occ["obj"].to_pylist()
    assert objs == sorted(objs) and len(objs) == len(convs) * 5
    assert objs.index("c#10") < objs.index("c#9")
    assert objs.index("a!#1") < objs.index("a#1") and objs.index("a#1") < objs.index("a#1#1")
    assert [c for c in out["conv_id"].to_pylist()[:len(convs)]] == sorted(convs)


def test_non_ascii_and_shared_names(ray_session):
    """Subjects, types and interface names sort by their UTF-8 bytes, and
    two entities of one name interleave by predicate and object."""
    ref = DictionaryRef(_ODD_DICTIONARY)
    codes = _codes(ref)
    rows = []
    for b, conv in ((0, "k1"), (0, "k2"), (1, "k3")):
        for pos, eid in enumerate(("e0", "e1", "e2", "e3", "e4", "e5")):
            rows.append((b, conv, pos % 3, pos, codes[eid]))
        rows.append((b, conv, 3, -1, -1))
    mentions = _mention_table(rows)
    py_fn, vec_fn = _assemblers(ref)
    out = vec_fn(mentions)
    _assert_identical(py_fn(mentions), out)
    for b in (0, 1):
        part = out.filter(pa.compute.equal(out["bucket"], b))
        subj = part["subj"].to_pylist()
        assert subj == sorted(subj)
        assert [s for i, s in enumerate(subj) if s not in subj[:i]] == [
            "Zet", "Zeta", "Ärger", "éclair", "Ωmega"
        ]
    first = out.filter(pa.compute.equal(out["bucket"], 0))
    ifaces = first.filter(pa.compute.equal(first["pred"], "hasInterface"))
    assert list(zip(ifaces["obj"].to_pylist(), ifaces["conv_id"].to_pylist())) == [
        ("Aerger-Port", "k1"), ("Aerger-Port", "k2"), ("Ärger-Port", "k1"),
        ("Ärger-Port", "k2"), ("ßPort", "k1"), ("ßPort", "k2"),
    ]


def test_nulls_sort_last(ray_session):
    """Arrow sorts nulls last: among one subject's rows the null
    ``turn_idx``/``ref_type`` rows (hasInterface, hasType, mentionedIn)
    come before occursIn only by predicate, and DIRECT comes before
    INDIRECT of one turn; ``kg.file_order`` puts nulls after values."""
    from naer_ray.pipelines.kg import file_order

    ref = DictionaryRef(_ODD_DICTIONARY)
    e1 = _codes(ref)["e1"]
    # e1 direct in turns 1 and 2, and a pronoun in turn 2 -> INDIRECT
    mentions = _mention_table([(0, "c", 1, 0, e1), (0, "c", 2, 3, e1), (0, "c", 2, -1, -1)])
    py_fn, vec_fn = _assemblers(ref)
    out = vec_fn(mentions)
    _assert_identical(py_fn(mentions), out)
    assert out.select(["pred", "turn_idx", "ref_type"]).to_pylist() == [
        {"pred": "hasInterface", "turn_idx": None, "ref_type": None},
        {"pred": "hasInterface", "turn_idx": None, "ref_type": None},
        {"pred": "hasType", "turn_idx": None, "ref_type": None},
        {"pred": "mentionedIn", "turn_idx": None, "ref_type": None},
        {"pred": "occursIn", "turn_idx": 1, "ref_type": "DIRECT"},
        {"pred": "occursIn", "turn_idx": 2, "ref_type": "DIRECT"},
        {"pred": "occursIn", "turn_idx": 2, "ref_type": "INDIRECT"},
    ]
    t = pa.table({"bucket": pa.array([0, 0, 0], pa.int32()),
                  "turn_idx": pa.array([None, 2, 1], pa.int32()),
                  "ref_type": pa.array([None, "DIRECT", None], pa.string())})
    assert file_order(t).to_pylist() == [
        {"bucket": 0, "turn_idx": 1, "ref_type": None},
        {"bucket": 0, "turn_idx": 2, "ref_type": "DIRECT"},
        {"bucket": 0, "turn_idx": None, "ref_type": None},
    ]


def _block_writer(root, ref):
    from naer_ray.pipelines.kg import make_job_kernel
    from naer_ray.state.checkpoint import make_bucket_writer

    return make_bucket_writer(
        root, "triples", make_job_kernel(make_conversation_assembler(ref), {}),
        sparse=("quarantine",),
    )


def test_property_block_writer_matches_oracle(ray_session, ref_corpus, tmp_path):
    """The bucket files the writer makes from blocks of whole buckets, in
    any row order, are byte-identical to the oracle's triples of each
    bucket sorted by every column and written alone."""
    import pyarrow.parquet as pq

    rows = load_dictionary_rows(os.path.join(ref_corpus, "entity_dictionary.parquet"))
    ref = DictionaryRef(rows)
    for seed in range(8):
        rng = np.random.default_rng(2000 + seed)
        n_buckets = int(rng.integers(2, 9))
        mentions = _random_mentions(rng, n_convs=int(rng.integers(5, 40)), dict_rows=rows)
        mentions = mentions.set_column(
            0, "bucket", pa.array([hash_u32(c) % n_buckets for c in mentions["conv_id"].to_pylist()],
                                  pa.int32()))
        # the buckets spread over 1-3 blocks, each block's rows shuffled
        block_of = rng.integers(0, int(rng.integers(1, 4)), n_buckets)
        root = str(tmp_path / f"s{seed}")
        write = _block_writer(root, ref)
        summaries = []
        for blk in np.unique(block_of):
            mask = np.isin(mentions["bucket"].to_numpy(), np.flatnonzero(block_of == blk))
            block = mentions.filter(pa.array(mask))
            block = block.take(pa.array(rng.permutation(block.num_rows)))
            summaries += write(block).to_pylist()
        assert sorted(s["bucket"] for s in summaries) == sorted(
            set(mentions["bucket"].to_pylist())
        )
        for s in summaries:
            part = mentions.filter(pa.compute.equal(mentions["bucket"], s["bucket"]))
            want = _assemble_python(ref, part)
            want = want.sort_by([(c, "ascending") for c in want.column_names])
            oracle = str(tmp_path / "oracle.parquet")
            pq.write_table(want, oracle)
            got = os.path.join(s["tmp"], "part-0.parquet")
            assert s["rows"] == want.num_rows
            assert open(got, "rb").read() == open(oracle, "rb").read(), (seed, s["bucket"])


def test_gazetteer_writer_sorts_no_triples(ray_session, ref_corpus, tmp_path, monkeypatch):
    """The gazetteer path's block writer hands no table of triples to
    Arrow's sort (``Table.sort_by`` goes through ``pc.sort_indices``)."""
    rows = load_dictionary_rows(os.path.join(ref_corpus, "entity_dictionary.parquet"))
    ref = DictionaryRef(rows)
    mentions = _random_mentions(np.random.default_rng(5), n_convs=30, dict_rows=rows)
    sorted_columns = []
    sort_indices = pa.compute.sort_indices

    def recording(data, *args, **kwargs):
        sorted_columns.append(getattr(data, "column_names", None))
        return sort_indices(data, *args, **kwargs)

    monkeypatch.setattr(pa.compute, "sort_indices", recording)
    summary = _block_writer(str(tmp_path), ref)(mentions)
    assert summary.num_rows == 4 and sum(summary["rows"].to_pylist()) > 0
    assert sorted_columns and not any(c and "subj" in c for c in sorted_columns), sorted_columns
