"""Optional LLM-extractor plugin (reference ST1-ST4 parity surface).

The reference drives recognition through a chat model
(NamedEntityRecognizer.recognize:57-81): assemble prompt -> chat ->
slice -> parse -> on parse failure build a repair prompt and retry
ONCE -> second failure is fatal (per document).  This module
re-creates that surface with a pluggable ``chat_fn`` so the engine
runs without network access: tests inject deterministic fakes; a real
deployment would plug an HTTP client (built once per actor).

Semantics ported exactly:

* system message  — "You are a software engineer and software
  architect." (Prompt.java:21)
* prompt assembly — prompt text + "\\nText:\\n" + document text joined
  with "\\n" (JsonOutputPrompt.process:70-72; getText joins lines,
  SoftwareArchitectureDocumentation.java:107-109)
* gazetteer injection — one-shot append of the support block
  (Prompt.addPossibleEntities:56-85): second call raises, empty map is
  a no-op
* repair loop — "The following output is invalid. Reformat it so it
  precisely adheres to the expected output format..." + expected
  format + invalid output + error (NamedEntityRecognizer.java:63-79);
  one retry, then the row dead-letters (scaled-mode analogue of the
  reference's per-project try/catch).

Never on the correctness path: the deterministic gazetteer extractor
is the default backend; this plugin shares its output schema.
"""

from __future__ import annotations

from collections.abc import Callable

import pyarrow as pa

from .. import refsem
from ..jaccard import LineResolver
from .extract import error_triple, triples_table

SYSTEM_MESSAGE = "You are a software engineer and software architect."

SUPPORT_HEADER = (
    "\n\nAs support, here is a list of entities that could be mentioned in the text:\n"
)

REPAIR_PREFIX = (
    "The following output is invalid. Reformat it so it precisely adheres "
    "to the expected output format!\nExpected output format:\n"
)

STRUCTURED_TEXT_FORMAT = "structured-text"
JSON_FORMAT = "json"


class Prompt:
    """Prompt with one-shot gazetteer injection (Prompt.java:19-112)."""

    def __init__(self, text: str, answer_format: str = STRUCTURED_TEXT_FORMAT):
        self.text = text
        self.answer_format = answer_format
        self._entities_added = False

    def add_possible_entities(self, possible: dict[str, list[str]]) -> None:
        """Append the support block once; reference :56-85."""
        if self._entities_added:
            raise RuntimeError("possible entities were already added to this prompt")
        if not possible:
            return
        self._entities_added = True
        block = SUPPORT_HEADER
        for etype in sorted(possible):
            names = ", ".join(possible[etype])
            block += f"{etype.lower()} entities: {names}\n"
        self.text += block

    def render(self, lines: list[str]) -> str:
        """prompt + '\\nText:\\n' + joined document text (M1)."""
        return self.text + "\nText:\n" + "\n".join(lines)

    def expected_output_format(self) -> str:
        """Text inserted into the repair prompt (getExpectedOutputFormat)."""
        return self.answer_format

    def process(self, chat_fn: Callable[[str, str], str], lines: list[str]) -> str:
        """One chat call (Prompt.process in the reference); TwoPartPrompt
        overrides with the two-call chain."""
        return chat_fn(SYSTEM_MESSAGE, self.render(lines))


#: the JSON template TwoPartPrompt advertises as its expected output
#: (TwoPartPrompt.getExpectedOutputFormat:88-114, example elided)
TWO_PART_EXPECTED_FORMAT = (
    "[\n"
    "    {\n"
    '        "name": "...",\n'
    '        "type": "COMPONENT",\n'
    '        "alternativeNames": [...],\n'
    '        "occurrences": [...]\n'
    "    },\n"
    "    ...\n"
    "]\n"
)


class TwoPartPrompt(Prompt):
    """ST3: two-call prompt chain (recognizer/TwoPartPrompt.java:56-147).

    Call 1: free-form recognition over the text block; call 2: the
    second prompt + "\\nLast answer:\\n" + call-1 output, asking for the
    structured JSON array, which is then sliced and parsed with the
    standard JSON path.
    """

    def __init__(self, first_text: str, second_text: str):
        if second_text is None or not second_text.strip():
            raise ValueError(
                "Second part of prompt cannot be null or blank for TwoPartPrompt"
            )
        super().__init__(first_text, answer_format=JSON_FORMAT)
        self.second_text = second_text

    def expected_output_format(self) -> str:
        return TWO_PART_EXPECTED_FORMAT

    def process(self, chat_fn: Callable[[str, str], str], lines: list[str]) -> str:
        """Two chats: free-form, then JSON-ify (TwoPartPrompt.process:119-131)."""
        part1 = chat_fn(SYSTEM_MESSAGE, self.text + "\nText:\n" + "\n".join(lines))
        return chat_fn(
            SYSTEM_MESSAGE, self.second_text + "\nLast answer:\n" + part1
        )

    @classmethod
    def default(cls) -> "TwoPartPrompt":
        """Reference default prompt pair (TwoPartPrompt.getDefault:152-199),
        abbreviated to the operative instructions."""
        task = (
            "In the following text, identify all architecturally relevant "
            "components that are explicitly named.\n"
            "For each component, provide the primary name, all alternative "
            "names or abbreviations found in the text, and all complete "
            "lines where the component is mentioned (including indirect "
            "references).\n"
            "Return your findings in a clear, unambiguous, structured text "
            "format so that a follow-up transformation into JSON is easy.\n"
        )
        formatting = (
            "Given the last answer (see below), for each component, return "
            'a JSON object containing "name", "type" ("COMPONENT"), '
            '"alternativeNames" and "occurrences".\n'
            "Output should be a JSON array (and nothing else!), like:\n"
            + TWO_PART_EXPECTED_FORMAT
        )
        return cls(task, formatting)


def _slice_and_parse(answer: str, fmt: str, sad: refsem.Sad) -> list[refsem.Entity]:
    if fmt == JSON_FORMAT:
        return refsem.parse_json_answer(refsem.slice_json(answer), sad)
    return refsem.parse_structured_text(answer, sad)


class RecognizerBuilder:
    """NamedEntityRecognizer.Builder parity (NamedEntityRecognizer.java:103-151):
    chat-model + prompt injection with null validation; ``build()``
    yields the :class:`LLMExtractor` (the engine's recognizer).

    ``recognize(sad, possibleEntities)`` parity lives on the built
    extractor: pass ``possible_entities`` to :meth:`build` and the
    prompt gets the one-shot gazetteer block (M2) before first use.
    """

    def __init__(self) -> None:
        self._chat_fn: Callable[[str, str], str] | None = None
        self._prompt: Prompt | None = None

    def chat_model(self, chat_fn: Callable[[str, str], str]) -> "RecognizerBuilder":
        if chat_fn is None:
            raise ValueError("chat model must not be null")
        self._chat_fn = chat_fn
        return self

    def prompt(self, prompt: Prompt) -> "RecognizerBuilder":
        if prompt is None:
            raise ValueError("prompt must not be null")
        self._prompt = prompt
        return self

    def build(
        self, possible_entities: dict[str, list[str]] | None = None
    ) -> "LLMExtractor":
        if self._chat_fn is None:
            raise ValueError("chat model must not be null")
        prompt = self._prompt or TwoPartPrompt.default()
        if possible_entities:
            prompt.add_possible_entities(possible_entities)
        return LLMExtractor(self._chat_fn, prompt)


class LLMExtractor:
    """Per-conversation extractor with the reference's repair loop.

    ``chat_fn(system, prompt) -> str`` is the pluggable backend,
    constructed once per actor in a real deployment.  ``extract`` is the
    Extractor-protocol contract: conversation lines in, triple rows out
    (same schema as the gazetteer path).
    """

    def __init__(self, chat_fn: Callable[[str, str], str], prompt: Prompt):
        self.chat_fn = chat_fn
        self.prompt = prompt

    def recognize(self, lines: list[str]) -> list[refsem.Entity]:
        """NamedEntityRecognizer.recognize:57-81 minus the network."""
        sad = refsem.Sad(lines, validate=False, resolver=LineResolver(lines).resolve)
        answer = self.prompt.process(self.chat_fn, lines)
        try:
            return _slice_and_parse(answer, self.prompt.answer_format, sad)
        except refsem.ParseError as first_error:
            repair_prompt = (
                f"{REPAIR_PREFIX}{self.prompt.expected_output_format()}\n"
                f"Invalid output:\n{answer}\nError: {first_error}"
            )
            repaired = self.chat_fn(SYSTEM_MESSAGE, repair_prompt)
            return _slice_and_parse(repaired, self.prompt.answer_format, sad)

    def extract(self, conv_id: str, lines: list[str]) -> pa.Table:
        """Extractor protocol: triples table (dead-letter row on failure)."""
        try:
            entities = self.recognize(lines)
        except Exception as exc:  # noqa: BLE001 — second failure dead-letters
            return triples_table([error_triple(conv_id, exc)])
        return triples_table(refsem.entities_to_triples(entities, conv_id))
