"""Property-based tests (hypothesis) for the deterministic core.

The reference has no property tests (SURVEY.md §5.3) — a gap we don't
copy: the fuzzy resolver, parsers and normalizers here are pinned by
randomized invariants, not just hand-picked vectors.
"""

import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from naer_ray import refsem
from naer_ray.jaccard import LineResolver, best_line, jaccard
from naer_ray.names import clean_component_name, normalize_surface
from naer_ray.stages.answers import _parse_one

printable = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=60
)
words = st.text(alphabet="abcdefghij", min_size=1, max_size=10)


class TestJaccardProperties:
    @given(printable, printable)
    def test_symmetry_and_bounds(self, a, b):
        s = jaccard(a, b)
        assert s == jaccard(b, a)
        assert 0.0 <= s <= 1.0

    @given(printable)
    def test_identity(self, a):
        assert jaccard(a, a) == 1.0

    @given(st.lists(printable, min_size=1, max_size=12), printable)
    @settings(max_examples=200)
    def test_line_resolver_matches_scalar(self, lines, query):
        assert LineResolver(lines).resolve(query) == best_line(lines, query)

    @given(st.lists(printable, min_size=1, max_size=8))
    def test_exact_line_always_resolves_to_first_equal(self, lines):
        # querying with an existing line returns the EARLIEST line whose
        # char set ties with it (strict-> rule), never -1
        for i, line in enumerate(lines):
            if not line:
                continue
            got = best_line(lines, line)
            assert got != -1
            assert got <= i + 1


#: a small alphabet, so that distinct lines often share a char set (ties)
#: or miss each other's by one char (scores near the 0.90 threshold)
line_texts = st.text(alphabet="abcdefghijkl .!?", max_size=24)


@st.composite
def conversation_and_quotes(draw):
    """Lines with duplicates and empty lines, plus occurrence quotes that
    copy a line exactly, gain or lose one distinct char (a score of
    exactly 0.90 at 9 or 10 distinct chars), change case, or are garbage."""
    ten_chars = st.permutations("abcdefghi.").map("".join)  # one char from 0.90
    pool = draw(st.lists(st.one_of(line_texts, ten_chars), min_size=1, max_size=6))
    lines = draw(st.lists(st.sampled_from(pool + [""]), min_size=1, max_size=14))
    quotes = []
    for _ in range(draw(st.integers(1, 10))):
        line = draw(st.sampled_from(lines))
        kind = draw(st.sampled_from(["exact", "append", "drop", "upper", "garbage"]))
        if kind == "append":
            line += draw(st.sampled_from("abcxyz."))
        elif kind == "drop" and line:
            line = line.replace(draw(st.sampled_from(line)), "")
        elif kind == "upper":
            line = line.upper()
        elif kind == "garbage":
            line = draw(line_texts)
        quotes.append(line)
    return lines, quotes


class TestProductionResolverProperties:
    @given(conversation_and_quotes(), st.sampled_from(["Web UI", "Store", "the GUI"]))
    @settings(max_examples=200)
    def test_answers_kernel_rows_equal_oracle(self, conv, name):
        """``stages.answers._parse_one`` (LineResolver) emits exactly the
        rows of the oracle (``refsem`` with the default ``Sad``)."""
        lines, quotes = conv
        structured = "COMPONENT entities recognized:\n" + "\n".join(
            f"{name}, '{q}'" for q in quotes
        )
        as_json = "Answer:\n" + json.dumps(
            [{"name": name, "type": "COMPONENT", "alternativeNames": ["alias"],
              "occurrences": quotes}]
        )
        rows: list[dict] = []
        _parse_one("c", lines, [("structured-text", structured), ("json", as_json)], rows)

        sad = refsem.Sad(lines, validate=False)
        expected = refsem.entities_to_triples(
            refsem.parse_structured_text(structured, sad), "c"
        ) + refsem.entities_to_triples(
            refsem.parse_json_answer(refsem.slice_json(as_json), sad), "c"
        )
        assert rows == expected


class TestNameProperties:
    @given(printable)
    def test_clean_idempotent(self, name):
        once = clean_component_name(name)
        assert clean_component_name(once) == once

    @given(printable)
    def test_normalize_idempotent_and_stable(self, name):
        once = normalize_surface(name)
        assert normalize_surface(once) == once
        assert once == once.lower()


entity_names = st.text(alphabet="ABCDEFGHabcdefgh ", min_size=1, max_size=15).map(
    str.strip
).filter(lambda s: s and "," not in s and ":" not in s and s.lower() != "none")


class TestParserRoundTrip:
    @given(
        st.lists(
            st.tuples(entity_names, st.lists(st.integers(1, 5), min_size=1, max_size=3)),
            min_size=1,
            max_size=4,
            unique_by=lambda t: t[0],
        )
    )
    @settings(max_examples=100)
    def test_structured_text_round_trip(self, gold):
        """Render a structured-text answer from (name, sentences) pairs with
        EXACT line texts -> parse -> every requested occurrence line is
        recovered (exact text resolves at Jaccard 1.0)."""
        lines = [
            "The quick brown fox one.",
            "A lazy dog sleeps two!",
            "Engines hum in threes?",
            "Four services deployed here.",
            "Final sentence number five.",
        ]
        sad = refsem.Sad(lines)
        out = ["COMPONENT entities recognized:"]
        for name, sents in gold:
            for s in sents:
                out.append(f"{name}, '{lines[s - 1]}'")
        answer = "\n".join(out)
        entities = refsem.parse_structured_text(answer, sad)
        got = {(e.name, line) for e in entities for line in e.occurrence_lines()}
        expected = {(name, s) for name, sents in gold for s in sents}
        assert got == expected

    @given(st.lists(st.tuples(entity_names, st.integers(1, 3)), min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_goldstandard_round_trip(self, rows):
        csv = "componentName,sentence\n" + "\n".join(f"{n},{s}" for n, s in rows)
        entities = refsem.parse_goldstandard(csv)
        got = {(e.name, line) for e in entities for line in e.occurrence_lines()}
        assert got == {(n, s) for n, s in rows}
