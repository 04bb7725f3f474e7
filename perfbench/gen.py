"""Seeded inputs for the benchmark workloads.

Each workload's inputs are a pure function of (workload, seed, scale,
``GEN_VERSION``); the benchmark's full-scale sets are cached per
(workload, seed, ``GEN_VERSION``), outside any timing.  The
job under test receives only the files written here; the expectations
the checker needs (gold occurrences, turn and invalid-row counts) sit
beside them in ``spec.json`` and ``gold.parquet``.

``python3 -m perfbench.gen <workload> <seed> <dir>`` writes one input set.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from naer_ray import refsem, schema, testdata
from naer_ray.names import alias_variants
from naer_ray.sources.gazetteer import tokenize

#: bump whenever generated inputs change, so cached input sets are rebuilt
GEN_VERSION = 4

WORKLOADS = ("gazetteer_dense", "gazetteer_sparse", "answers_long")

# gazetteer_dense: the repo's synthetic conversation model
DENSE_CONVS = 200
DENSE_TURNS = 100
DENSE_ENTITIES = 300
DENSE_INVALID_SHARE = 0.02

# gazetteer_sparse: long, nearly all-distinct turns with rare mentions
SPARSE_CONVS = 300
SPARSE_TURNS = 40
SPARSE_WORDS = (40, 120)  # words per turn, inclusive
SPARSE_ENTITIES = 1200
SPARSE_MENTION_SHARE = 0.05
SPARSE_VOCAB = 30_000

# answers_long: one fixed multiset of conversation lengths, permuted per
# seed, so every seed does the same O(occurrences x lines) resolution work
ANSWER_CONV_TURNS = (200, 300, 400)
ANSWER_ENTITIES = 300

_PRONOUN_RE = re.compile(r"^(?:It|This|They)\b")
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def inputs(workload: str, seed: int, cache_root: str) -> dict:
    """Spec of the cached input set for (workload, seed), generating it once."""
    key = f"{workload}-s{seed}-v{GEN_VERSION}"
    out = os.path.join(cache_root, key)
    spec_path = os.path.join(out, "spec.json")
    if not os.path.exists(spec_path):
        os.makedirs(cache_root, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=cache_root, prefix=f".{key}-")
        try:
            generate(workload, seed, tmp)
            shutil.rmtree(out, ignore_errors=True)
            os.replace(tmp, out)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return load_spec(out)


def load_spec(in_dir: str) -> dict:
    """spec.json of an input set, with every file path made absolute."""
    with open(os.path.join(in_dir, "spec.json")) as f:
        spec = json.load(f)
    for k in ("transcripts", "dictionary", "answers", "expected", "gold"):
        if spec.get(k):
            spec[k] = os.path.join(os.path.abspath(in_dir), spec[k])
    return spec


def generate(workload: str, seed: int, out_dir: str, scale: float = 1.0) -> dict:
    """Write one workload's input set to ``out_dir``; returns its spec."""
    makers = {
        "gazetteer_dense": _dense,
        "gazetteer_sparse": _sparse,
        "answers_long": _answers,
    }
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")
    os.makedirs(out_dir, exist_ok=True)
    spec = makers[workload](seed, out_dir, scale)
    spec.update(workload=workload, seed=seed, scale=scale, version=GEN_VERSION)
    with open(os.path.join(out_dir, "spec.json"), "w") as f:
        json.dump(spec, f, indent=1, sort_keys=True)
    return spec


def _rng(seed: int, *stream: int) -> np.random.RandomState:
    return np.random.RandomState([seed, *stream])


def _scaled(n: int, scale: float, floor: int = 2) -> int:
    return max(floor, int(round(n * scale)))


def _write_transcripts(out_dir, conv, turn, text, rng, n_files=4) -> int:
    """Transcripts in the full input schema, rows shuffled across shards."""
    n = len(text)
    turn_np = np.asarray(turn, np.int32)
    conv_no = np.unique(np.asarray(conv), return_inverse=True)[1].astype(np.int64)
    table = pa.table(
        {
            "conv_id": pa.array(conv, pa.string()),
            "turn_idx": pa.array(turn_np, pa.int32()),
            "role": pa.array(np.where(turn_np % 2 == 1, "user", "assistant"), pa.string()),
            "text": pa.array(text, pa.string()),
            "tool": pa.array(np.where(turn_np % 13 == 0, "search", ""), pa.string()),
            "ts": pa.array(
                testdata.EPOCH_US + conv_no * 10**9 + turn_np.astype(np.int64) * 10**6,
                pa.timestamp("us"),
            ),
        },
        schema=schema.TRANSCRIPTS,
    )
    table = table.take(pa.array(rng.permutation(n)))
    tdir = os.path.join(out_dir, "transcripts")
    os.makedirs(tdir, exist_ok=True)
    shard = -(-n // n_files)
    for i in range(n_files):
        if i * shard < n:
            pq.write_table(
                table.slice(i * shard, shard), os.path.join(tdir, f"part-{i:04d}.parquet")
            )
    return n


def _write_gold(out_dir, gold: list[tuple[str, str, int, str]]) -> None:
    """Gold occurrences (entity, conv, turn, ref_type) as the checker reads them."""
    gold = sorted(set(gold))
    pq.write_table(
        pa.table(
            {
                "subj": pa.array([g[0] for g in gold], pa.string()),
                "conv_id": pa.array([g[1] for g in gold], pa.string()),
                "turn_idx": pa.array([g[2] for g in gold], pa.int32()),
                "ref_type": pa.array([g[3] for g in gold], pa.string()),
            }
        ),
        os.path.join(out_dir, "gold.parquet"),
    )


def _write_dictionary(out_dir, rows: list[dict]) -> None:
    pq.write_table(
        pa.Table.from_pylist(rows, schema=schema.ENTITY_DICTIONARY),
        os.path.join(out_dir, "entity_dictionary.parquet"),
    )


def _dense(seed: int, out_dir: str, scale: float) -> dict:
    """Synthetic conversations (``testdata.synth_conversation``) over a
    300-entity dictionary; ~2% of turns made invalid, only among turns
    with no mention and no pronoun cue, so the gold stays exact."""
    dict_rows = testdata.synth_dictionary(DENSE_ENTITIES)
    comps = [r["canonical_name"] for r in dict_rows if r["type"] == "COMPONENT"]
    conv: list[str] = []
    turn: list[int] = []
    text: list[str] = []
    gold: list[tuple[str, str, int, str]] = []
    free: list[int] = []  # row numbers of mention-free, cue-free turns
    for ci in range(_scaled(DENSE_CONVS, scale)):
        cid = f"dense:{ci:05d}"
        texts, anns = testdata.synth_conversation(ci, DENSE_TURNS, comps, _rng(seed, 1, ci))
        marked = {t for _name, t, _ref in anns}
        for t, s in enumerate(texts, 1):
            if t not in marked and not _PRONOUN_RE.match(s):
                free.append(len(text))
            conv.append(cid)
            turn.append(t)
            text.append(s)
        gold.extend((name, cid, t, ref) for name, t, ref in anns)
    rng = _rng(seed, 2)
    n_invalid = int(round(DENSE_INVALID_SHARE * len(text)))
    for i in rng.choice(np.asarray(free), n_invalid, replace=False):
        text[i] = text[i].rstrip(".!?")  # fails the sentence-terminator rule
    n = _write_transcripts(out_dir, conv, turn, text, rng)
    _write_dictionary(out_dir, dict_rows)
    _write_gold(out_dir, gold)
    return {
        "turns": n,
        "invalid_rows": n_invalid,
        "transcripts": "transcripts",
        "dictionary": "entity_dictionary.parquet",
        "gold": "gold.parquet",
        "extractor": "gazetteer",
        "canonicalize": True,
    }


def _pseudo_word(rng: np.random.RandomState, syllables: int) -> str:
    return "".join(
        _CONSONANTS[rng.randint(len(_CONSONANTS))] + _VOWELS[rng.randint(len(_VOWELS))]
        for _ in range(syllables)
    )


def sparse_dictionary(n_entities: int) -> list[dict]:
    """Fixed dictionary of two-word pseudo-names (``KavoruTesina``), with
    the engine's alias variants and an interface for every 5th entity."""
    rng = np.random.RandomState(7)
    rows: list[dict] = []
    seen: set[tuple[str, ...]] = set()
    while sum(r["type"] == "COMPONENT" for r in rows) < n_entities:
        name = _pseudo_word(rng, 3).capitalize() + _pseudo_word(rng, 3).capitalize()
        key = tuple(tokenize(name))
        if key in seen:
            continue
        seen.add(key)
        eid = f"sp-{len(rows):05d}"
        aliases = [a for a in alias_variants(name) if len(a) >= 3]
        rows.append(
            {"entity_id": eid, "canonical_name": name, "type": "COMPONENT",
             "aliases": aliases, "interface_of": None}
        )
        if len(rows) % 5 == 0:
            rows.append(
                {"entity_id": f"sp-if-{len(rows):05d}", "canonical_name": "I" + name,
                 "type": "INTERFACE", "aliases": [], "interface_of": eid}
            )
    return rows


def _sparse(seed: int, out_dir: str, scale: float) -> dict:
    """Long turns of seeded filler words; ~5% of turns carry one mention.

    Filler words never match the gazetteer (no filler word is a token of
    any surface form) and no turn opens with a pronoun cue, so the gold
    is exactly the inserted mentions, all DIRECT."""
    dict_rows = sparse_dictionary(SPARSE_ENTITIES)
    comps = [r["canonical_name"] for r in dict_rows if r["type"] == "COMPONENT"]
    surface_tokens = {
        tok
        for r in dict_rows
        for s in [r["canonical_name"], *r["aliases"]]
        for tok in tokenize(s)
    }
    rng = _rng(seed, 3)
    vocab = sorted(
        {
            w
            for w in (_pseudo_word(rng, 1 + rng.randint(3)) for _ in range(SPARSE_VOCAB))
            if w not in surface_tokens and w not in ("it", "this", "they")
        }
    )
    conv: list[str] = []
    turn: list[int] = []
    text: list[str] = []
    gold: list[tuple[str, str, int, str]] = []
    lo, hi = SPARSE_WORDS
    for ci in range(_scaled(SPARSE_CONVS, scale)):
        cid = f"sparse:{ci:05d}"
        for t in range(1, SPARSE_TURNS + 1):
            words = [vocab[i] for i in rng.randint(len(vocab), size=rng.randint(lo, hi + 1))]
            if rng.random_sample() < SPARSE_MENTION_SHARE:
                name = comps[rng.randint(len(comps))]
                at = rng.randint(len(words) + 1)
                words[at:at] = ["the", name]
                gold.append((name, cid, t, "DIRECT"))
            words[0] = words[0][:1].upper() + words[0][1:]
            conv.append(cid)
            turn.append(t)
            text.append(" ".join(words) + ".")
    n = _write_transcripts(out_dir, conv, turn, text, rng)
    _write_dictionary(out_dir, dict_rows)
    _write_gold(out_dir, gold)
    return {
        "turns": n,
        "invalid_rows": 0,
        "transcripts": "transcripts",
        "dictionary": "entity_dictionary.parquet",
        "gold": "gold.parquet",
        "extractor": "gazetteer",
        "canonicalize": False,
    }


def _answers(seed: int, out_dir: str, scale: float) -> dict:
    """Long synthetic conversations with recorded answers, alternating the
    structured-text and JSON formats; the expected triples come from the
    sequential reference-semantics oracle (``naer_ray.refsem``)."""
    dict_rows = testdata.synth_dictionary(ANSWER_ENTITIES)
    comps = [r["canonical_name"] for r in dict_rows if r["type"] == "COMPONENT"]
    rng = _rng(seed, 4)
    lengths = rng.permutation(np.asarray(ANSWER_CONV_TURNS))
    conv: list[str] = []
    turn: list[int] = []
    text: list[str] = []
    answers: list[tuple[str, str, str]] = []
    expected: list[dict] = []
    for ci, n_turns in enumerate(lengths):
        cid = f"answers:{ci:05d}"
        texts, anns = testdata.synth_conversation(
            ci, _scaled(int(n_turns), scale, floor=5), comps, _rng(seed, 5, ci)
        )
        for t, s in enumerate(texts, 1):
            conv.append(cid)
            turn.append(t)
            text.append(s)
        proj = {"lines": texts, "gold": [(name, t) for name, t, _ref in anns]}
        sad = refsem.Sad(texts, validate=False)
        if ci % 2:
            answer = testdata.make_mock_answer_json(proj, rng)
            answers.append((cid, "json", answer))
            entities = refsem.parse_json_answer(refsem.slice_json(answer), sad)
        else:
            answer = testdata.make_mock_answer(proj, rng)
            answers.append((cid, "structured-text", answer))
            entities = refsem.parse_structured_text(answer, sad)
        expected.extend(refsem.entities_to_triples(entities, cid))
    n = _write_transcripts(out_dir, conv, turn, text, rng, n_files=2)
    pq.write_table(
        pa.table(
            {
                "conv_id": pa.array([a[0] for a in answers], pa.string()),
                "format": pa.array([a[1] for a in answers], pa.string()),
                "answer": pa.array([a[2] for a in answers], pa.string()),
            },
            schema=schema.LLM_ANSWERS,
        ),
        os.path.join(out_dir, "llm_answers.parquet"),
    )
    pq.write_table(
        pa.Table.from_pylist(expected, schema=schema.TRIPLES),
        os.path.join(out_dir, "expected_triples.parquet"),
    )
    return {
        "turns": n,
        "invalid_rows": 0,
        "transcripts": "transcripts",
        "answers": "llm_answers.parquet",
        "expected": "expected_triples.parquet",
        "expected_rows": len(expected),
        "extractor": "answers",
        "canonicalize": False,
    }


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: python3 -m perfbench.gen <workload> <seed> <out_dir>")
    print(json.dumps(generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])))
