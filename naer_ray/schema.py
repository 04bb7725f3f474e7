"""Canonical Arrow schemas for every table the engine reads or writes.

Input transcript schema is mandated by BASELINE.json's input_hint;
dictionary / annotation / triple schemas follow FIXTURES.md §2-4.
"""

from __future__ import annotations

import pyarrow as pa

TRANSCRIPTS = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)

ENTITY_DICTIONARY = pa.schema(
    [
        ("entity_id", pa.string()),
        ("canonical_name", pa.string()),
        ("type", pa.string()),  # COMPONENT | INTERFACE | CLASS
        ("aliases", pa.list_(pa.string())),
        ("interface_of", pa.string()),  # component entity_id for INTERFACE rows, else null
    ]
)

REFERENCE_ANNOTATIONS = pa.schema(
    [
        ("conv_id", pa.string()),
        ("component_name", pa.string()),
        ("turn_idx", pa.int32()),
        ("ref_type", pa.string()),  # DIRECT | INDIRECT
    ]
)

LLM_ANSWERS = pa.schema(  # recorded extractor answers (mock-LLM parity path)
    [
        ("conv_id", pa.string()),
        ("format", pa.string()),  # "structured-text" | "json"
        ("answer", pa.string()),
    ]
)

TRIPLES = pa.schema(
    [
        ("subj", pa.string()),
        ("pred", pa.string()),  # mentionedIn|occursIn|hasType|hasAlternativeName|hasInterface
        ("obj", pa.string()),
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),  # occursIn only, else null
        ("ref_type", pa.string()),  # occursIn only, else null
    ]
)

NODES = pa.schema(
    [
        ("node_id", pa.string()),
        ("kind", pa.string()),  # entity | conversation
        ("name", pa.string()),
        ("type", pa.string()),
    ]
)

#: the tag column of the rows that ride a job's exchange beside the
#: extractor's own rows (tag null): gold rows carry their gate's name,
#: quarantined turns ``sources.transcripts.QUARANTINED``
TAG = "tag"

#: turns that fail the format rule, kept per bucket
QUARANTINE = pa.schema([TRANSCRIPTS.field(c) for c in ("conv_id", "turn_idx", "text")])
