"""Sequential reference-semantics oracle (pure Python, single-threaded).

A faithful, deliberately *non-distributed* transcription of NAER's
deterministic core — everything downstream of the LLM call — used to

1. generate `expected_triples` fixtures for the distributed pipeline's
   P/R >= 0.95 gate (the distributed Ray pipeline must reproduce this
   oracle's triples exactly), and
2. serve as a unit-test oracle for individual operators.

The answers and llm kernels (``stages/answers``, ``stages/llm``) reuse
its parsers, but not its line scan: they hand :class:`Sad` a
per-conversation :class:`~naer_ray.jaccard.LineResolver`, so the
oracle's ``best_line`` serves only the test-data generator and the
tests.  Every function cites the reference behavior it mirrors
(file:line relative to /root/reference/).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .jaccard import best_line
from .names import clean_component_name

DIRECT = "DIRECT"
INDIRECT = "INDIRECT"
_REF_ORDER = {DIRECT: 0, INDIRECT: 1}  # enum declaration order, NamedEntityReferenceType.java:7-21

ENTITY_TYPES = ("COMPONENT", "INTERFACE", "CLASS")  # NamedEntityType.java:7-9


class SadFormatError(ValueError):
    """Invalid one-sentence-per-line format (SoftwareArchitectureDocumentation.java:76-100)."""


class ParseError(IOError):
    """Structured-text / JSON answer parse failure (NamedEntityParser.java)."""


class Sad:
    """One-sentence-per-line document; SoftwareArchitectureDocumentation.java:15-168.

    ``resolver(text) -> line`` replaces the oracle's scan
    (``best_line`` over ``lines``) in :meth:`get_line_number`; it must
    return the same line for every text.
    """

    def __init__(self, lines: list[str], validate: bool = True, resolver=None):
        self.lines = list(lines)
        self.resolver = resolver
        if validate:
            self.check_text_format()

    @classmethod
    def from_text(cls, text: str, validate: bool = True) -> "Sad":
        # Java String.split("\\R") — any unicode linebreak; :58-71
        import re

        return cls(re.split(r"\r\n|[\n\r\x0b\f\x85  ]", text), validate)

    def check_text_format(self) -> None:
        """Reject empty lines / lines not ending in [.!?]; :76-100."""
        import re

        for line in self.lines:
            trimmed = line.strip()
            if not trimmed:
                raise SadFormatError("invalid SAD text format: empty line detected")
            if not re.fullmatch(r".*[.!?]", trimmed, flags=re.DOTALL):
                raise SadFormatError(
                    "invalid SAD text format: line does not end with a sentence terminator: "
                    f'"{trimmed}"'
                )

    def get_line(self, line_number: int) -> str:
        """1-based access; :117-124."""
        if line_number < 1 or line_number > len(self.lines):
            raise IndexError(f"line number {line_number} out of range")
        return self.lines[line_number - 1]

    def get_line_number(self, text_line: str) -> int:
        """Fuzzy resolve via char-set Jaccard >= 0.90, earliest-win; :145-168."""
        if self.resolver is not None:
            return self.resolver(text_line)
        return best_line(self.lines, text_line)


@dataclass
class Entity:
    """model/NamedEntity.java:12-199 (sourceText back-pointer dropped)."""

    name: str
    type: str
    alternative_names: set[str] = field(default_factory=set)
    occurrences: set[tuple[int, str]] = field(default_factory=set)  # (line 1-based, ref_type)

    def change_name(self, new_name: str) -> None:
        """Push old name into aliases, replace name; NamedEntity.changeName:77-80."""
        self.alternative_names.add(self.name)
        self.name = new_name

    def make_all_names_lowercase(self) -> None:
        """NamedEntity.makeAllNamesLowerCase:112-126."""
        self.name = self.name.lower()
        self.alternative_names = {a.lower() for a in self.alternative_names}

    def sorted_aliases(self) -> list[str]:
        return sorted(self.alternative_names)

    def sorted_occurrences(self) -> list[tuple[int, str]]:
        """(sentenceNumber, referenceType) total order; NamedEntity.java:192-198."""
        return sorted(self.occurrences, key=lambda o: (o[0], _REF_ORDER[o[1]]))

    def occurrence_lines(self) -> list[int]:
        """NamedEntity.getOccurrenceLines:133-139."""
        return sorted({o[0] for o in self.occurrences})


def add_occurrence_with_deducted_reference_type(entity: Entity, line_number: int, sad: Sad) -> None:
    """DIRECT iff lowercased line contains lowercased name or any alias; -1 dropped.

    NamedEntityParser.addOccurrenceWithDeductedReferenceType:188-204.
    """
    if line_number == -1:
        return  # resilience: skip invalid occurrences (:191-193)
    line_lower = sad.get_line(line_number).lower()
    is_direct = entity.name.lower() in line_lower
    if not is_direct:
        for alt in entity.alternative_names:
            if alt.lower() in line_lower:
                is_direct = True
                break
    entity.occurrences.add((line_number, DIRECT if is_direct else INDIRECT))


def parse_structured_text(answer: str, sad: Sad) -> list[Entity]:
    """Structured-text answer -> entities; NamedEntityParser.fromString:78-186.

    State machine: section headers "<TYPE> entities recognized:",
    "Alternative names:" toggle; occurrence lines ``name, 'sentence text'``;
    alias lines ``name: a, b`` (literal ``None`` = empty).  Occurrences are
    resolved immediately (fuzzy line lookup) but reference-typed only
    AFTER all aliases are known (:91-97) — correctness-critical ordering.
    Returns entities in insertion order (LinkedHashMap semantics).
    """
    import re

    entity_map: dict[str, Entity] = {}
    occurrences_map: dict[str, set[int]] = {}
    lines = [ln.strip() for ln in re.split(r"\r\n|[\n\r\x0b\f\x85  ]", answer)]

    parsing_alternative_names = False
    current_type: str | None = None
    occ_pattern = re.compile(r"^(.*?),\s*'(.*)'$", flags=re.DOTALL)

    for line in lines:
        if not line:
            continue
        if line.endswith("entities recognized:"):
            parsing_alternative_names = False
            type_string = line[: line.index(" entities recognized:")].strip().upper()
            if type_string not in ENTITY_TYPES:
                raise ParseError(f"Unknown entity type: '{type_string}'")
            current_type = type_string
            continue
        if line.strip().lower() == "alternative names:":
            parsing_alternative_names = True
            continue
        if current_type is None:
            raise ParseError(f"Entity type not specified before entries: '{line}'")
        if not parsing_alternative_names:
            # parseEntityOccurrence:138-160
            m = occ_pattern.match(line.strip())
            if not m:
                raise ParseError(f"Invalid entity occurrence format: '{line}'")
            name = m.group(1).strip()
            text_line = m.group(2)
            line_number = sad.get_line_number(text_line)
            if name not in entity_map:
                entity_map[name] = Entity(name, current_type)
                occurrences_map[name] = set()
            occurrences_map[name].add(line_number)
        else:
            # parseAlternativeNames:162-186
            parts = line.split(":")
            if len(parts) != 2:
                raise ParseError(f"Invalid alternative names format: '{line}'")
            name = parts[0].strip()
            alternatives_str = parts[1].strip()
            if alternatives_str.lower() == "none":
                continue
            entity = entity_map.get(name)
            if entity is None:
                raise ParseError(f"Alternative names for unknown entity: '{name}'")
            for alt in alternatives_str.split(","):
                entity.alternative_names.add(alt.strip())

    # attach occurrences after aliases are known (:91-97)
    for name, entity in entity_map.items():
        for line_number in occurrences_map[name]:
            add_occurrence_with_deducted_reference_type(entity, line_number, sad)
    return list(entity_map.values())


def parse_json_answer(answer_json: str, sad: Sad) -> list[Entity]:
    """JSON array answer -> entities; NamedEntityParser.fromJson:39-67.

    Each element: {name, type, alternativeNames: [..], occurrences:
    [<sentence text>, ..]}; occurrences fuzzy-resolved then ref-typed
    (aliases already attached, so typing sees them).
    """
    import json

    entities: list[Entity] = []
    for node in json.loads(answer_json):
        name = str(node["name"])
        etype = str(node["type"])
        if etype not in ENTITY_TYPES:
            raise ParseError(f"No enum constant NamedEntityType.{etype}")
        entity = Entity(name, etype)
        for alt in node["alternativeNames"]:
            entity.alternative_names.add(str(alt))
        for occ in node["occurrences"]:
            add_occurrence_with_deducted_reference_type(entity, sad.get_line_number(str(occ)), sad)
        entities.append(entity)
    # LinkedHashSet dedup by full value equality (NamedEntity.equals:151-159)
    out: list[Entity] = []
    seen: set[tuple] = set()
    for e in entities:
        key = (e.name, e.type, tuple(e.sorted_aliases()), tuple(e.sorted_occurrences()))
        if key not in seen:
            seen.add(key)
            out.append(e)
    return out


def slice_json(answer: str) -> str:
    """Extract [first '[' .. last ']']; JsonOutputPrompt.extractJson:78-88."""
    start, end = answer.find("["), answer.rfind("]")
    if start == -1 or end == -1 or end < start:
        raise ParseError("The answer does not contain a valid JSON string!")
    return answer[start : end + 1]


def slice_structured_text(answer: str) -> str:
    """Extract between BEGIN-OUTPUT and last END-OUTPUT; StructuredTextOutputPrompt.java:106-117."""
    begin, end = "BEGIN-OUTPUT", "END-OUTPUT"
    s, e = answer.find(begin), answer.rfind(end)
    if s == -1 or e == -1 or e < s:
        raise ParseError("The answer does not contain the expected BEGIN-OUTPUT/END-OUTPUT markers!")
    return answer[s + len(begin) : e]


def parse_goldstandard(csv_text: str) -> list[Entity]:
    """goldstandard_NER.csv -> entities, all DIRECT, no aliases.

    GoldstandardParser.parse:30-57 — skip header, split on ',', group by
    name (insertion order preserved).
    """
    first_nl = csv_text.find("\n")
    body = csv_text[first_nl + 1 :] if first_nl >= 0 else ""
    if not body.strip():
        return []
    entities: dict[str, Entity] = {}
    for line in body.split("\n"):
        if not line.strip():
            continue
        parts = line.split(",")
        name = parts[0].strip()
        sentence = int(parts[1].strip())
        if name not in entities:
            entities[name] = Entity(name, "COMPONENT")
        entities[name].occurrences.add((sentence, DIRECT))
    return list(entities.values())


def match_component_names(ground_truth: list[Entity], recognized: list[Entity]) -> None:
    """Name-pool matching + rename-unify (mutates both sides).

    TestProjectEvaluator.matchComponentNames:209-239: lowercase all
    names; pool = sorted({aliases} | {clean(name)}); first pool
    intersection (recognized outer loop in insertion order, gold inner
    loop in insertion order, pool iterated sorted) renames BOTH entities
    to the matching name.
    """
    for e in ground_truth:
        e.make_all_names_lowercase()
    for e in recognized:
        e.make_all_names_lowercase()
    for comp in recognized:
        found = False
        pool = sorted(comp.alternative_names | {clean_component_name(comp.name)})
        for gt in ground_truth:
            if found:
                break
            gt_pool = gt.alternative_names | {clean_component_name(gt.name)}
            for name in pool:
                if name in gt_pool:
                    found = True
                    comp.change_name(name)
                    gt.change_name(name)
                    break


def flatten_occurrences(entities: list[Entity]) -> set[tuple[str, int]]:
    """Entity x occurrence-line -> (name, line) pairs; SimpleComponentOccurrence.java:16-28."""
    return {(e.name, line) for e in entities for line in e.occurrence_lines()}


def classification_metrics(
    predicted: set, gold: set
) -> dict[str, float]:
    """Set-based TP/FP/FN -> precision/recall/F1 (ardoco metrics semantics, A3)."""
    tp = len(predicted & gold)
    fp = len(predicted - gold)
    fn = len(gold - predicted)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"tp": tp, "fp": fp, "fn": fn, "precision": precision, "recall": recall, "f1": f1}


def entities_to_triples(entities: list[Entity], conv_id: str) -> list[dict]:
    """Materialize an entity list as (subj, pred, obj) triple rows.

    Triple vocabulary (FIXTURES.md §4): mentionedIn, occursIn (with
    turn_idx + ref_type), hasType, hasAlternativeName.  Deterministic
    order: entity insertion order, then sorted within entity.
    """
    triples: list[dict] = []

    def row(subj, pred, obj, turn_idx=None, ref_type=None):
        return {
            "subj": subj,
            "pred": pred,
            "obj": obj,
            "conv_id": conv_id,
            "turn_idx": turn_idx,
            "ref_type": ref_type,
        }

    for e in entities:
        triples.append(row(e.name, "hasType", e.type))
        if e.occurrences:
            triples.append(row(e.name, "mentionedIn", conv_id))
        for alt in e.sorted_aliases():
            triples.append(row(e.name, "hasAlternativeName", alt))
        for line, ref in e.sorted_occurrences():
            triples.append(row(e.name, "occursIn", f"{conv_id}#{line}", turn_idx=line, ref_type=ref))
    return triples
