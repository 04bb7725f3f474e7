"""Conformance vectors for the sequential reference-semantics oracle.

Hand-computed expectations pinning the Java behavior (FIXTURES.md §5):
commons-text char-set Jaccard, getLineNumber threshold/tie rules,
cleanComponentName, structured-text parser incl. None aliases /
unknown-entity error / unresolved-occurrence drop, DIRECT/INDIRECT
deduction incl. alias-substring hits.
"""

import pytest

from naer_ray import refsem
from naer_ray.jaccard import LineResolver, best_line, jaccard
from naer_ray.names import abbreviation, alias_variants, clean_component_name, normalize_surface


class TestJaccard:
    def test_commons_text_empty_rules(self):
        assert jaccard("", "") == 1.0
        assert jaccard("a", "") == 0.0
        assert jaccard("", "a") == 0.0

    def test_charset_semantics(self):
        # distinct chars only: "aab" ~ {a,b}; "ab" ~ {a,b} -> 1.0
        assert jaccard("aab", "ab") == 1.0
        # {a,b,c} vs {b,c,d}: inter 2, union 4
        assert jaccard("abc", "bcd") == 0.5

    def test_best_line_threshold_and_ties(self):
        lines = ["abcdefghi.", "abcdefghi."]
        # identical lines: strict > keeps the FIRST (earliest-win, :154)
        assert best_line(lines, "abcdefghi.") == 1
        # 10 shared / 11 union = 0.909 >= 0.90
        assert best_line(lines, "abcdefghi.X") == 1
        # 10 / 12 = 0.833 < 0.90 -> -1
        assert best_line(lines, "abcdefghi.XY") == -1

    def test_all_zero_scores_return_minus_one(self):
        assert best_line(["abc."], "xyz") == -1

    def test_case_insensitive(self):
        assert best_line(["The WebUI sends data."], "THE WEBUI SENDS DATA.") == 1

    def test_line_resolver_parity_on_reference_corpus(self):
        from naer_ray.testdata import load_reference_projects

        projects = load_reference_projects()
        if not projects:
            pytest.skip("reference tree not present")
        assert len(projects) == 5
        for proj in projects:
            resolver = LineResolver(proj["lines"])
            for line in proj["lines"][::7]:
                for q in (line, line.upper(), line + "~", "zzzz qqqq", ""):
                    assert resolver.resolve(q) == best_line(proj["lines"], q)


class TestNames:
    def test_clean_component_name(self):
        assert clean_component_name("GUI Component") == "GUI"
        assert clean_component_name("gui component") == "gui"
        assert clean_component_name("the component of doom") == "the of doom"
        assert clean_component_name("decomponentize") == "decomponentize"  # \b guard

    def test_normalize_surface(self):
        assert normalize_surface("WebUI Component") == "web ui"
        assert normalize_surface("image provider") == "image provider"

    def test_abbreviation(self):
        assert abbreviation("Image Provider") == "ip"
        assert abbreviation("WebUI") == "wu"  # Web + UI
        assert abbreviation("single") == ""

    def test_alias_variants_deterministic(self):
        assert alias_variants("Image Provider") == alias_variants("Image Provider")


SAD_LINES = [
    "The GUI talks to the database.",
    "It is very big.",
    "Users love the Search Engine!",
]


class TestStructuredTextParser:
    def test_full_parse_with_alias_ordering(self):
        sad = refsem.Sad(SAD_LINES)
        answer = (
            "COMPONENT entities recognized:\n"
            "Frontend, 'It is very big.'\n"
            "Frontend, 'The GUI talks to the database.'\n"
            "Search, 'Users love the Search Engine!'\n"
            "Alternative names:\n"
            "Frontend: GUI, WebUI\n"
            "Search: None\n"
        )
        entities = refsem.parse_structured_text(answer, sad)
        assert [e.name for e in entities] == ["Frontend", "Search"]
        fe = entities[0]
        # line 1 contains alias "GUI" -> DIRECT even though name absent;
        # line 2 ("It is very big.") has neither -> INDIRECT
        assert fe.sorted_occurrences() == [(1, "DIRECT"), (2, "INDIRECT")]
        assert fe.sorted_aliases() == ["GUI", "WebUI"]
        assert entities[1].sorted_occurrences() == [(3, "DIRECT")]
        assert entities[1].alternative_names == set()

    def test_unresolved_occurrence_dropped(self):
        sad = refsem.Sad(SAD_LINES)
        answer = (
            "COMPONENT entities recognized:\n"
            "Ghost, 'totally unrelated zzz qqq text'\n"
        )
        entities = refsem.parse_structured_text(answer, sad)
        assert entities[0].occurrences == set()  # M8: silently dropped

    def test_unknown_entity_alias_error(self):
        sad = refsem.Sad(SAD_LINES)
        with pytest.raises(refsem.ParseError, match="unknown entity"):
            refsem.parse_structured_text(
                "COMPONENT entities recognized:\nAlternative names:\nGhost: x", sad
            )

    def test_type_header_required(self):
        sad = refsem.Sad(SAD_LINES)
        with pytest.raises(refsem.ParseError, match="Entity type not specified"):
            refsem.parse_structured_text("Frontend, 'The GUI talks to the database.'", sad)

    def test_unknown_type_error(self):
        sad = refsem.Sad(SAD_LINES)
        with pytest.raises(refsem.ParseError, match="Unknown entity type"):
            refsem.parse_structured_text("WIDGET entities recognized:\n", sad)

    def test_bad_occurrence_format(self):
        sad = refsem.Sad(SAD_LINES)
        with pytest.raises(refsem.ParseError, match="Invalid entity occurrence"):
            refsem.parse_structured_text(
                "COMPONENT entities recognized:\nno quotes here", sad
            )


class TestJsonParser:
    def test_round_trip(self):
        sad = refsem.Sad(SAD_LINES)
        answer = (
            '[{"name": "GUI", "type": "COMPONENT", "alternativeNames": ["Frontend"],'
            ' "occurrences": ["The GUI talks to the database."]}]'
        )
        entities = refsem.parse_json_answer(answer, sad)
        assert entities[0].name == "GUI"
        assert entities[0].sorted_occurrences() == [(1, "DIRECT")]

    def test_slice_json(self):
        assert refsem.slice_json("noise [1, 2] trailing") == "[1, 2]"
        with pytest.raises(refsem.ParseError):
            refsem.slice_json("no brackets")

    def test_slice_structured_text(self):
        assert refsem.slice_structured_text("xBEGIN-OUTPUTbodyEND-OUTPUTy") == "body"


class TestGoldstandard:
    def test_parse_groups_by_name(self):
        csv = "componentName,sentence\nGUI,1\nDB,2\nGUI,3\n"
        entities = refsem.parse_goldstandard(csv)
        assert [e.name for e in entities] == ["GUI", "DB"]
        assert entities[0].occurrence_lines() == [1, 3]
        assert all(r == "DIRECT" for e in entities for _, r in e.occurrences)

    def test_empty_body(self):
        assert refsem.parse_goldstandard("componentName,sentence\n") == []


class TestMatching:
    def test_name_pool_match_and_rename(self):
        gold = [refsem.Entity("gui", "COMPONENT", occurrences={(1, "DIRECT")})]
        rec = [
            refsem.Entity(
                "GUI Component", "COMPONENT",
                alternative_names={"Frontend"}, occurrences={(1, "DIRECT")},
            )
        ]
        refsem.match_component_names(gold, rec)
        # cleanComponentName("gui component") == "gui" matches gold pool
        assert rec[0].name == "gui"
        assert gold[0].name == "gui"
        m = refsem.classification_metrics(
            refsem.flatten_occurrences(rec), refsem.flatten_occurrences(gold)
        )
        assert m["precision"] == 1.0 and m["recall"] == 1.0

    def test_sad_format_validation(self):
        with pytest.raises(refsem.SadFormatError):
            refsem.Sad(["no terminator"])
        with pytest.raises(refsem.SadFormatError):
            refsem.Sad(["  "])
        refsem.Sad(["Fine!", "Also fine?", "Yes."])


class TestProductionResolver:
    """The answers and llm kernels resolve lines with ``LineResolver``,
    never with the oracle's ``best_line`` scan."""

    @pytest.fixture()
    def no_scan(self, monkeypatch):
        def scan(lines, text, threshold=None):
            raise AssertionError("the oracle's line scan was called")

        monkeypatch.setattr(refsem, "best_line", scan)
        with pytest.raises(AssertionError):
            refsem.Sad(["The GUI talks."]).get_line_number("The GUI talks.")

    def test_answers_kernel_reproduces_oracle_without_scan(self, no_scan, ref_corpus):
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq

        from naer_ray.stages.answers import ANSWER_ROLE_PREFIX, parse_answer_group

        turns = pq.read_table(
            os.path.join(ref_corpus, "transcripts"),
            columns=["conv_id", "turn_idx", "role", "text"],
        )
        answers = pq.read_table(os.path.join(ref_corpus, "llm_answers.parquet"))
        answer_rows = pa.table(
            {
                "conv_id": answers["conv_id"],
                "turn_idx": pa.array([-1] * answers.num_rows, pa.int32()),
                "role": [ANSWER_ROLE_PREFIX + f for f in answers["format"].to_pylist()],
                "text": answers["answer"],
            }
        ).cast(turns.schema)
        got = parse_answer_group(pa.concat_tables([turns, answer_rows]))
        expected = pq.read_table(os.path.join(ref_corpus, "expected_triples.parquet"))
        assert "__error__" not in got["pred"].to_pylist()
        assert got.num_rows == expected.num_rows > 0
        cols = expected.column_names
        assert sorted(map(repr, got.select(cols).to_pylist())) == sorted(
            map(repr, expected.to_pylist())
        )

    def test_llm_recognize_without_scan(self, no_scan):
        from naer_ray.stages.llm import LLMExtractor, Prompt

        lines = ["The Frontend talks to the store.", "Understood.", "It sends the orders."]

        def chat(system, prompt):
            return (
                "COMPONENT entities recognized:\n"
                "Frontend, 'The Frontend talks to the store.'\n"
                "Frontend, 'it sends the orders'\n"
                "Alternative names:\n"
                "Frontend: None\n"
            )

        entities = LLMExtractor(chat, Prompt("Find components.")).recognize(lines)
        assert [(e.name, e.sorted_occurrences()) for e in entities] == [
            ("Frontend", [(1, "DIRECT"), (3, "INDIRECT")])
        ]

    def test_memo_matches_fresh_resolver(self):
        for lines in (["abc.", "", "abd.", "abc."], ["abc.", "xyz!"]):
            resolver = LineResolver(lines)
            for q in ("abc.", "", "ABC.", "zzz", "abc.", ""):
                first = resolver.resolve(q)
                assert q in resolver.memo
                assert resolver.resolve(q) == first
                assert first == LineResolver(lines).resolve(q) == best_line(lines, q)
