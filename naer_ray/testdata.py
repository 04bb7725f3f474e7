"""Deterministic synthetic corpus generator (FIXTURES.md).

Builds the transcript-shaped test/bench corpus mandated by
BASELINE.json's input_hint:

* the five reference evaluation projects (/root/reference/src/test/
  resources/evaluation_resources/) re-hosted as conversations — turn k
  carries sentence k of the project's one-sentence-per-line SAD,
  byte-identical (per-row invariant: per-turn text equality under
  stable turn ordering);
* seeded synthetic conversations built from sentence templates over a
  synthetic component dictionary, with exact mention placements
  recorded as reference annotations (scale / throughput tiers);
* recorded mock extractor answers in NAER's structured-text format
  (deterministically derived from the gold standards, with seeded
  mutations exercising the fuzzy line resolver, the >=0.90 drop rule
  and DIRECT/INDIRECT typing), plus the `expected_triples` oracle
  computed by the sequential reference-semantics implementation
  (naer_ray.refsem).

Everything is seeded; no wall clock, no external data.  Output goes to
caller-chosen directories (never /root/testdata, which is read-only).
"""

from __future__ import annotations

import glob
import json
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import refsem, schema
from .hashing import hash_u32
from .names import alias_variants

REFERENCE_EVAL_DIR = (
    "/root/reference/src/test/resources/evaluation_resources"
)
EPOCH_US = 1_767_225_600_000_000  # 2026-01-01T00:00:00Z, fixed

# ---------------------------------------------------------------- reference corpus


def load_reference_projects(base: str = REFERENCE_EVAL_DIR) -> list[dict]:
    """Load the 5 reference projects: SAD lines, gold pairs, gazetteer names.

    Mirrors the discovery logic of TestProjectEvaluator.findSadFile /
    findGoldstandardFile (:150-178) and GoldstandardParser (:30-114).
    """
    projects = []
    if not os.path.isdir(base):
        return projects
    for proj in sorted(os.listdir(base)):
        d = os.path.join(base, proj)
        if not os.path.isdir(d):
            continue
        sad_files = glob.glob(os.path.join(d, "text_*", "*_1SentPerLine.txt"))
        gold_files = glob.glob(os.path.join(d, "goldstandards", "goldstandard_NER.csv"))
        gaz_files = glob.glob(
            os.path.join(d, "model_*", "uml", "modelElementID_to_ComponentName.csv")
        )
        if not (sad_files and gold_files):
            continue
        with open(sad_files[0], encoding="utf-8") as f:
            lines = [ln.rstrip("\n").rstrip("\r") for ln in f]
        lines = [ln for ln in lines if ln.strip()]
        gold: list[tuple[str, int]] = []
        with open(gold_files[0], encoding="utf-8") as f:
            for row in list(f)[1:]:
                if not row.strip():
                    continue
                parts = row.split(",")
                gold.append((parts[0].strip(), int(parts[1].strip())))
        gazetteer: list[tuple[str, str]] = []  # (entity_id, name)
        if gaz_files:
            with open(gaz_files[0], encoding="utf-8") as f:
                for row in list(f)[1:]:
                    parts = row.split(",")
                    if len(parts) >= 2 and parts[1].strip():
                        gazetteer.append((parts[0].strip(), parts[1].strip()))
        projects.append(
            {"name": proj, "lines": lines, "gold": gold, "gazetteer": gazetteer}
        )
    return projects


def make_mock_answer(project: dict, rng: np.random.RandomState) -> str:
    """Structured-text answer (StructuredTextOutputPrompt format) from gold pairs.

    Occurrences are given as sentence *texts* (as the reference's LLM
    emits them — NamedEntityParser.parseEntityOccurrence:138-160), with
    seeded mutations: exact copy, case flip (Jaccard on lowercase still
    1.0), one appended rare char (score n/(n+1), still >= 0.90 for
    ordinary sentences), or garbage (resolves to -1 -> silently dropped,
    :188-193).  ~40% of entities get alias lines; the rest get the
    literal ``None`` (:172-174).
    """
    lines = project["lines"]
    by_name: dict[str, list[int]] = {}
    for name, sent in project["gold"]:
        by_name.setdefault(name, []).append(sent)

    out = ["COMPONENT entities recognized:"]
    for name, sents in by_name.items():
        for sent in sents:
            if sent < 1 or sent > len(lines):
                continue
            text = _mutate_occurrence_text(lines[sent - 1], rng)
            text = text.replace("'", "")  # keep the ^(.*?),\s*'(.*)'$ regex unambiguous
            out.append(f"{name}, '{text}'")
    out.append("Alternative names:")
    for name in by_name:
        variants = _answer_aliases(name, rng)
        if variants:
            out.append(f"{name}: " + ", ".join(variants))
        else:
            out.append(f"{name}: None")
    return "\n".join(out)


def _answer_aliases(name: str, rng: np.random.RandomState) -> list[str]:
    variants = [
        a
        for a in alias_variants(name)
        if len(a) >= 3 and ":" not in a and "," not in a and a.lower() != "none"
    ]
    if variants and rng.random_sample() < 0.4:
        k = 1 + int(rng.random_sample() * min(2, len(variants) - 1 + 1e-9))
        return variants[:k]
    return []


def _mutate_occurrence_text(text: str, rng: np.random.RandomState) -> str:
    r = rng.random_sample()
    if r < 0.70:
        pass  # exact
    elif r < 0.85:
        text = text.upper()
    elif r < 0.95 and len(set(text.lower())) >= 10 and "~" not in text:
        text = text + "~"
    else:
        text = "zzzz qqqq jjjj xxxx"
    return text


def make_mock_answer_json(project: dict, rng: np.random.RandomState) -> str:
    """JSON-array answer (JsonOutputPrompt format, NamedEntityParser.fromJson:39-67)
    with the same seeded occurrence mutations as the structured-text
    variant, wrapped in noise so the bracket slicer (M3) is exercised."""
    import json as _json

    lines = project["lines"]
    by_name: dict[str, list[int]] = {}
    for name, sent in project["gold"]:
        by_name.setdefault(name, []).append(sent)
    arr = []
    for name, sents in by_name.items():
        occurrences = []
        for sent in sents:
            if sent < 1 or sent > len(lines):
                continue
            occurrences.append(_mutate_occurrence_text(lines[sent - 1], rng))
        arr.append(
            {
                "name": name,
                "type": "COMPONENT",
                "alternativeNames": _answer_aliases(name, rng),
                "occurrences": occurrences,
            }
        )
    return "Here are the recognized entities:\n" + _json.dumps(arr) + "\nDone."


# ---------------------------------------------------------------- synthetic corpus

_PART_A = ["Auth", "User", "Order", "Billing", "Search", "Media", "Cache",
           "Report", "Inventory", "Session", "Token", "Profile", "Payment",
           "Shipping", "Catalog", "Review", "Metric", "Audit", "Config", "Event"]
_PART_B = ["Service", "Database", "Gateway", "Manager", "Registry", "Provider",
           "Store", "Engine", "Broker", "Scheduler", "Controller", "Adapter"]
_PART_C = ["", "", "", "Core", "Proxy", "Cluster"]  # mostly 2-part names

_TEMPLATES_ONE = [
    "The {a} handles incoming requests.",
    "All persistent state lives in the {a}.",
    "Administrators can restart the {a} on demand.",
    "The {a} exposes a small internal interface.",
    "Telemetry from the {a} is sampled every minute.",
]
_TEMPLATES_TWO = [
    "The {a} sends requests to the {b}.",
    "The {a} reads configuration from the {b}.",
    "Whenever the {a} fails, the {b} takes over.",
    "The {a} and the {b} communicate over the message bus.",
    "Data flows from the {a} into the {b}.",
]
_TEMPLATES_PRONOUN = [
    "It also notifies the {b}.",
    "It persists intermediate results.",
    "It is replicated across three zones.",
]
_TEMPLATES_NONE = [
    "Deployment is fully automated.",
    "The release cadence is monthly.",
    "Monitoring dashboards are refreshed hourly.",
]


def synth_dictionary(n_entities: int) -> list[dict]:
    """Deterministic synthetic component dictionary with aliases and interfaces."""
    template_words = set()
    for t in _TEMPLATES_ONE + _TEMPLATES_TWO + _TEMPLATES_PRONOUN + _TEMPLATES_NONE:
        template_words.update(w.lower() for w in re.findall(r"[a-z]+", t))
    rows: list[dict] = []
    i = 0
    while len([r for r in rows if r["type"] == "COMPONENT"]) < n_entities:
        a = _PART_A[i % len(_PART_A)]
        b = _PART_B[(i // len(_PART_A)) % len(_PART_B)]
        c = _PART_C[(i // (len(_PART_A) * len(_PART_B))) % len(_PART_C)]
        name = a + b + c
        i += 1
        if any(r["canonical_name"] == name for r in rows):
            continue
        aliases = [
            al
            for al in alias_variants(name)
            if len(al) >= 3 and al.lower() not in template_words
        ]
        comp_id = f"syn-{len(rows):05d}"
        rows.append(
            {
                "entity_id": comp_id,
                "canonical_name": name,
                "type": "COMPONENT",
                "aliases": aliases,
                "interface_of": None,
            }
        )
        if (len(rows) % 5) == 0:  # every 5th component gets an interface
            rows.append(
                {
                    "entity_id": f"syn-if-{len(rows):05d}",
                    "canonical_name": "I" + name,
                    "type": "INTERFACE",
                    "aliases": [],
                    "interface_of": comp_id,
                }
            )
    return rows


def synth_conversation(
    conv_idx: int,
    n_turns: int,
    components: list[str],
    rng: np.random.RandomState,
) -> tuple[list[str], list[tuple[str, int, str]]]:
    """One synthetic conversation: (turn texts, [(entity, turn_idx, ref_type)]).

    Mention placements are recorded exactly, including the pronoun
    anaphora rule the engine implements: a turn starting with "It "
    yields an INDIRECT occurrence of the most recent directly-mentioned
    entity from an earlier turn.
    """
    texts: list[str] = []
    anns: list[tuple[str, int, str]] = []
    last_direct: str | None = None
    for turn in range(1, n_turns + 1):
        r = rng.random_sample()
        if r < 0.15:
            texts.append(_TEMPLATES_NONE[int(rng.random_sample() * len(_TEMPLATES_NONE))])
            continue
        if r < 0.35 and last_direct is not None:
            t = _TEMPLATES_PRONOUN[int(rng.random_sample() * len(_TEMPLATES_PRONOUN))]
            anns.append((last_direct, turn, "INDIRECT"))
            if "{b}" in t:
                b = components[int(rng.random_sample() * len(components))]
                texts.append(t.format(b=b))
                anns.append((b, turn, "DIRECT"))
                last_direct = b
            else:
                texts.append(t)
            continue
        if r < 0.65:
            a = components[int(rng.random_sample() * len(components))]
            t = _TEMPLATES_ONE[int(rng.random_sample() * len(_TEMPLATES_ONE))]
            texts.append(t.format(a=a))
            anns.append((a, turn, "DIRECT"))
            last_direct = a
        else:
            a = components[int(rng.random_sample() * len(components))]
            b = components[int(rng.random_sample() * len(components))]
            t = _TEMPLATES_TWO[int(rng.random_sample() * len(_TEMPLATES_TWO))]
            texts.append(t.format(a=a, b=b))
            anns.append((a, turn, "DIRECT"))
            if b != a:
                anns.append((b, turn, "DIRECT"))
            last_direct = b
    return texts, anns


# ---------------------------------------------------------------- corpus assembly


def generate_corpus(
    out_dir: str,
    n_synth_convs: int = 20,
    mean_turns: int = 30,
    n_synth_entities: int = 100,
    include_reference: bool = True,
    seed: int = 42,
    shuffle: bool = True,
    n_transcript_files: int = 4,
) -> dict:
    """Write the full fixture corpus to ``out_dir``; returns the manifest.

    Files: transcripts/ (parquet shards, rows shuffled across
    conversations so the pipeline must reconstruct order),
    entity_dictionary.parquet, reference_annotations.parquet,
    llm_answers.parquet, expected_triples.parquet, manifest.json.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.RandomState(seed)

    conv_rows: list[tuple[str, int, str]] = []  # (conv_id, turn_idx, text)
    ann_rows: list[tuple[str, str, int, str]] = []
    dict_rows: list[dict] = []
    answer_rows: list[tuple[str, str, str]] = []
    expected: list[dict] = []

    ref_projects = load_reference_projects() if include_reference else []
    for proj in ref_projects:
        conv_id = f"ref:{proj['name']}"
        for i, line in enumerate(proj["lines"], 1):
            conv_rows.append((conv_id, i, line))
        for name, sent in proj["gold"]:
            ann_rows.append((conv_id, name, sent, "DIRECT"))
        for eid, name in proj["gazetteer"]:
            dict_rows.append(
                {
                    "entity_id": f"{proj['name']}/{eid}",
                    "canonical_name": name,
                    "type": "COMPONENT",
                    "aliases": [a for a in alias_variants(name) if len(a) >= 3],
                    "interface_of": None,
                }
            )
        # alternate answer formats so both parser paths (M5 JSON /
        # M6 structured-text) are exercised end-to-end
        use_json = len(answer_rows) % 2 == 1
        sad = refsem.Sad(proj["lines"], validate=False)
        if use_json:
            answer = make_mock_answer_json(proj, rng)
            answer_rows.append((conv_id, "json", answer))
            entities = refsem.parse_json_answer(refsem.slice_json(answer), sad)
        else:
            answer = make_mock_answer(proj, rng)
            answer_rows.append((conv_id, "structured-text", answer))
            entities = refsem.parse_structured_text(answer, sad)
        expected.extend(refsem.entities_to_triples(entities, conv_id))

    synth_dict = synth_dictionary(n_synth_entities)
    dict_rows.extend(synth_dict)
    components = [r["canonical_name"] for r in synth_dict if r["type"] == "COMPONENT"]
    for ci in range(n_synth_convs):
        conv_id = f"syn:{ci:06d}"
        crng = np.random.RandomState(seed * 1_000_003 + ci)
        n_turns = max(3, int(mean_turns * (0.5 + crng.random_sample())))
        texts, anns = synth_conversation(ci, n_turns, components, crng)
        for i, text in enumerate(texts, 1):
            conv_rows.append((conv_id, i, text))
        for name, turn, ref in anns:
            ann_rows.append((conv_id, name, turn, ref))
        # recorded answers for a slice of synthetic conversations too, so
        # the parity gate runs over dozens of conversations, not just the
        # 5 reference projects (both answer formats, seeded mutations)
        if include_reference and ci < max(8, n_synth_convs // 50):
            proj = {
                "lines": texts,
                "gold": [(name, turn) for name, turn, _ref in anns],
            }
            sad = refsem.Sad(texts, validate=False)
            if ci % 2:
                answer = make_mock_answer_json(proj, rng)
                answer_rows.append((conv_id, "json", answer))
                entities = refsem.parse_json_answer(refsem.slice_json(answer), sad)
            else:
                answer = make_mock_answer(proj, rng)
                answer_rows.append((conv_id, "structured-text", answer))
                entities = refsem.parse_structured_text(answer, sad)
            expected.extend(refsem.entities_to_triples(entities, conv_id))

    # ---- transcripts: full input_hint schema, deterministically shuffled shards
    n = len(conv_rows)
    conv_ids = pa.array([r[0] for r in conv_rows], pa.string())
    turn_idx = pa.array([r[1] for r in conv_rows], pa.int32())
    roles = pa.array(["user" if r[1] % 2 else "assistant" for r in conv_rows], pa.string())
    texts_arr = pa.array([r[2] for r in conv_rows], pa.string())
    tools = pa.array(["search" if r[1] % 13 == 0 else "" for r in conv_rows], pa.string())
    ts = pa.array(
        [EPOCH_US + (hash_u32(r[0]) % 100_000) * 1_000_000 + r[1] * 1_000_000 for r in conv_rows],
        pa.timestamp("us"),
    )
    table = pa.table(
        {"conv_id": conv_ids, "turn_idx": turn_idx, "role": roles,
         "text": texts_arr, "tool": tools, "ts": ts},
        schema=schema.TRANSCRIPTS,
    )
    if shuffle:
        perm = rng.permutation(n)
        table = table.take(pa.array(perm))
    tdir = os.path.join(out_dir, "transcripts")
    os.makedirs(tdir, exist_ok=True)
    for old in glob.glob(os.path.join(tdir, "*.parquet")):
        os.remove(old)
    shard_size = (n + n_transcript_files - 1) // max(n_transcript_files, 1)
    for i in range(0, n_transcript_files):
        lo = i * shard_size
        if lo >= n:
            break
        pq.write_table(table.slice(lo, shard_size), os.path.join(tdir, f"part-{i:04d}.parquet"))

    pq.write_table(
        pa.Table.from_pylist(dict_rows, schema=schema.ENTITY_DICTIONARY),
        os.path.join(out_dir, "entity_dictionary.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "conv_id": pa.array([r[0] for r in ann_rows], pa.string()),
                "component_name": pa.array([r[1] for r in ann_rows], pa.string()),
                "turn_idx": pa.array([r[2] for r in ann_rows], pa.int32()),
                "ref_type": pa.array([r[3] for r in ann_rows], pa.string()),
            },
            schema=schema.REFERENCE_ANNOTATIONS,
        ),
        os.path.join(out_dir, "reference_annotations.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "conv_id": pa.array([r[0] for r in answer_rows], pa.string()),
                "format": pa.array([r[1] for r in answer_rows], pa.string()),
                "answer": pa.array([r[2] for r in answer_rows], pa.string()),
            },
            schema=schema.LLM_ANSWERS,
        ),
        os.path.join(out_dir, "llm_answers.parquet"),
    )
    pq.write_table(
        pa.Table.from_pylist(expected, schema=schema.TRIPLES),
        os.path.join(out_dir, "expected_triples.parquet"),
    )
    manifest = {
        "tier_version": _TIER_VERSION,
        "seed": seed,
        "n_rows": n,
        "n_synth_convs": n_synth_convs,
        "mean_turns": mean_turns,
        "n_synth_entities": n_synth_entities,
        "include_reference": include_reference,
        # 0 with include_reference=True means the reference tree was
        # absent: the corpus then holds synthetic conversations only
        "n_reference_projects": len(ref_projects),
        "n_expected_triples": len(expected),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2)
    return manifest


_TIERS = {
    # name -> (n_synth_convs, mean_turns, n_synth_entities, include_reference, n_files)
    "tiny": (3, 12, 20, False, 2),
    "ref": (10, 20, 50, True, 4),
    "bench-sf0.001": (240, 25, 200, True, 8),
    "bench-sf0.01": (2400, 50, 200, True, 16),
    "bench-sf0.1": (24000, 100, 300, True, 32),
    # 5x the driver bench tier (~12M turns) — scale-evidence drives only
    "bench-sf0.5": (120000, 100, 300, True, 64),
    # 10x (~24M turns) — amortizes fixed stage overhead in scaling runs
    "bench-sf1.0": (240000, 100, 300, True, 128),
}

_TIER_VERSION = 5  # bump to invalidate cached corpora when generation changes


def corpus_dir(tier: str, root: str = "/tmp/naer_corpus") -> str:
    """Generate-once cache of a named corpus tier; returns its directory."""
    if tier not in _TIERS:
        raise KeyError(f"unknown corpus tier {tier!r}; known: {sorted(_TIERS)}")
    out = os.path.join(root, tier)
    marker = os.path.join(out, "manifest.json")
    convs, turns, ents, include_ref, n_files = _TIERS[tier]
    if os.path.exists(marker):
        with open(marker) as f:
            if json.load(f).get("tier_version") == _TIER_VERSION:
                return out
    generate_corpus(
        out,
        n_synth_convs=convs,
        mean_turns=turns,
        n_synth_entities=ents,
        include_reference=include_ref,
        n_transcript_files=n_files,
    )
    return out
