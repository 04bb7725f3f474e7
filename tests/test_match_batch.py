"""match_batch must produce the per-text walk's exact hit layout.

GazetteerMatcher.match_batch is the vectorized (byte-table Arrow split,
fixed token-code space, candidate-only packed n-gram keys, suppression
among hits) twin of match_tokens; these tests compare them text-by-text
on the fixture corpus and on adversarial synthetic strings (ambiguous
equal spans, nested longer surfaces, camelCase, digit and non-ASCII
boundary cases, empty/punctuation-only texts, sliced and chunked
arrays, the packing-overflow fallback).
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from naer_ray.sources.gazetteer import (
    GazetteerMatcher,
    load_dictionary_rows,
    tokenize,
)


def _reference_layout(m: GazetteerMatcher, texts: list[str]):
    counts, pos, code = [], [], []
    for t in texts:
        hits = m.match_tokens(tokenize(t))
        counts.append(len(hits))
        for p, eid in hits:
            pos.append(p)
            code.append(m.eid_index[eid])
    return (
        np.array(counts, np.int64),
        np.array(pos, np.int32),
        np.array(code, np.int32),
    )


def _assert_match(m: GazetteerMatcher, texts: list[str]):
    got_counts, got_pos, got_code = m.match_batch(pa.array(texts, pa.string()))
    exp_counts, exp_pos, exp_code = _reference_layout(m, texts)
    np.testing.assert_array_equal(got_counts, exp_counts)
    np.testing.assert_array_equal(got_pos, exp_pos)
    np.testing.assert_array_equal(got_code, exp_code)


def test_corpus_texts_identical(ref_corpus):
    m = GazetteerMatcher(
        load_dictionary_rows(os.path.join(ref_corpus, "entity_dictionary.parquet"))
    )
    col = pq.read_table(
        os.path.join(ref_corpus, "transcripts"), columns=["text"]
    )["text"].combine_chunks()
    texts = [t for t in col.dictionary_encode().dictionary.to_pylist() if t is not None]
    _assert_match(m, texts)


def test_adversarial_surfaces():
    rows = [
        {"entity_id": "e1", "canonical_name": "Auth Service", "type": "COMPONENT",
         "aliases": ["AuthService"], "interface_of": None},
        {"entity_id": "e2", "canonical_name": "Auth Service Core", "type": "COMPONENT",
         "aliases": [], "interface_of": None},
        {"entity_id": "e3", "canonical_name": "Service", "type": "COMPONENT",
         "aliases": [], "interface_of": None},
        # ambiguous equal-span surfaces: two entities share one name
        {"entity_id": "e4", "canonical_name": "Cache", "type": "COMPONENT",
         "aliases": [], "interface_of": None},
        {"entity_id": "e5", "canonical_name": "cache", "type": "INTERFACE",
         "aliases": [], "interface_of": "e4"},
        {"entity_id": "e6", "canonical_name": "Very Long Surface Name", "type": "COMPONENT",
         "aliases": [], "interface_of": None},
    ]
    m = GazetteerMatcher(rows)
    texts = [
        "",
        "...",
        "nothing matches here",
        "the Auth Service restarted",            # 2-gram beats 1-gram Service
        "the Auth Service Core restarted",       # 3-gram suppresses both
        "AuthServiceCore is the camel form",     # camel split -> 3-gram
        "Service talks to the Cache",            # equal-span ambiguity on cache
        "cache Cache CACHE",
        "Auth Service and Auth Service Core and Service",
        "Very Long Surface Name wraps a Very Long Surface",
        "service AUTH service auth SERVICE",
        "Auth",                                  # prefix of a surface, no hit
        "Service Auth",                          # reversed order: only 1-grams
        "a Auth Service Core Auth Service b",    # overlapping long + short
    ]
    _assert_match(m, texts)


def test_random_texts_identical():
    rows = [
        {"entity_id": f"e{i}", "canonical_name": name, "type": "COMPONENT",
         "aliases": [], "interface_of": None}
        for i, name in enumerate(
            ["alpha", "beta gamma", "beta gamma delta", "delta", "alpha beta",
             "gamma", "epsilon zeta eta theta"]
        )
    ]
    m = GazetteerMatcher(rows)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
             "theta", "filler", "x9"]
    rng = np.random.default_rng(42)
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(0, 12)))
        for _ in range(500)
    ]
    _assert_match(m, texts)


def test_packing_overflow_fallback(monkeypatch):
    """The fallback walk path must produce the identical layout."""
    rows = [
        {"entity_id": "e1", "canonical_name": "Auth Service", "type": "COMPONENT",
         "aliases": [], "interface_of": None},
        {"entity_id": "e2", "canonical_name": "Service", "type": "COMPONENT",
         "aliases": [], "interface_of": None},
    ]
    m = GazetteerMatcher(rows)
    texts = ["the Auth Service talks to a Service", "no match", ""]
    direct = m.match_batch(pa.array(texts, pa.string()))
    fb = m._match_batch_fallback(pa.array(texts, pa.string()))
    for a, b in zip(direct, fb):
        np.testing.assert_array_equal(a, b)


def _rows(*names):
    return [
        {"entity_id": f"e{i}", "canonical_name": name, "type": "COMPONENT",
         "aliases": [], "interface_of": None}
        for i, name in enumerate(names)
    ]


def test_non_ascii_separators():
    """Every byte of a multibyte UTF-8 character separates tokens."""
    m = GazetteerMatcher(_rows("Auth Service", "Service", "ller"))
    texts = [
        "AuthéService",            # 2-byte e-acute between the words
        "Auth—Service",            # 3-byte em dash
        "日本Auth Service語",
        "Auth\U0001f600Service",        # 4-byte emoji
        "Müller talks to the Service ",
        "Äuth Service",            # non-ASCII letter is not a word byte
        "Auth\tService\nService\r\x00Service",
    ]
    _assert_match(m, texts)


def test_digit_and_camel_case_tokens():
    m = GazetteerMatcher(
        _rows("XML Parser", "Web UI2 Service", "abc 123", "123abc", "Service",
              "Parser")
    )
    texts = [
        "the XMLParser feeds WebUI2Service",
        "xml parser and web ui2 service",
        "abc123 then 123abc then abc 123",
        "XMLPARSER WEBUI2SERVICE ABC123",
        "Web UI 2 Service is not WebUI2Service",
        "123 abc",
    ]
    _assert_match(m, texts)


def test_capitalized_simple_tokens():
    m = GazetteerMatcher(_rows("Auth Service", "Cache"))
    texts = ["Auth Service", "auth service", "AUTH SERVICE", "Auth service",
             "Cache", "CACHE", "cAche", "Caches", "The Cache"]
    _assert_match(m, texts)


def test_unknown_token_between_surface_tokens():
    m = GazetteerMatcher(_rows("Auth Service"))
    texts = ["Auth foo Service", "Auth Zzz Service", "Auth 42 Service"]
    _assert_match(m, texts)
    counts, _pos, _code = m.match_batch(pa.array(texts, pa.string()))
    assert counts.tolist() == [0, 0, 0]


def test_single_character_surface_tokens():
    """The interface ``I`` prefix camel-splits into a one-letter token."""
    rows = [
        {"entity_id": "e1", "canonical_name": "AuthService", "type": "COMPONENT",
         "aliases": [], "interface_of": None},
        {"entity_id": "e2", "canonical_name": "IAuthService", "type": "INTERFACE",
         "aliases": [], "interface_of": "e1"},
        {"entity_id": "e3", "canonical_name": "A", "type": "COMPONENT",
         "aliases": [], "interface_of": None},
    ]
    m = GazetteerMatcher(rows)
    texts = [
        "the IAuthService wraps AuthService",
        "I Auth Service",
        "I am a service",
        "a A aA Aa AAuthService",
        "i auth service",
    ]
    _assert_match(m, texts)


def test_sliced_and_chunked_inputs():
    m = GazetteerMatcher(_rows("Auth Service", "Service Core", "Cache"))
    texts = [
        "junk before", "Auth Service", "Service Core Cache", "",
        "the AuthServiceCore", "...", "Cache Auth Service", "tail Cache",
    ]
    arr = pa.array(texts, pa.string())
    got = m.match_batch(arr.slice(2, 5))
    exp = _reference_layout(m, texts[2:7])
    for a, b in zip(got, exp):
        np.testing.assert_array_equal(a, b)
    got = m.match_batch(pa.chunked_array([arr.slice(0, 3), arr.slice(3)]))
    exp = _reference_layout(m, texts)
    for a, b in zip(got, exp):
        np.testing.assert_array_equal(a, b)


def test_random_large_vocabulary():
    """Seeded: 3,000-word vocabulary, 1,200 surfaces of 1-4 words (some
    written camelCase), texts mixing dictionary, unknown and camelCase
    words with ASCII and multibyte separators."""
    rng = np.random.default_rng(7)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    vocab = sorted(
        {"".join(rng.choice(letters, size=rng.integers(1, 8))) for _ in range(3000)}
    )

    def word(w):
        return w.capitalize() if rng.random() < 0.5 else w

    names = set()
    while len(names) < 1200:
        parts = [word(w) for w in rng.choice(vocab, size=rng.integers(1, 5))]
        names.add(("" if rng.random() < 0.3 else " ").join(parts))
    m = GazetteerMatcher(_rows(*sorted(names)))
    assert m._surfaces is not None
    seps = [" ", "  ", ", ", "-", "é", "—", "_", "\n"]
    name_list = sorted(names)
    texts = []
    for _ in range(600):
        toks = []
        for _ in range(rng.integers(0, 25)):
            r = rng.random()
            if r < 0.2:
                toks.append(name_list[rng.integers(len(name_list))])
            elif r < 0.6:
                toks.append(word(vocab[rng.integers(len(vocab))]))
            elif r < 0.8:
                toks.append(word(vocab[rng.integers(len(vocab))]) + "9")
            else:
                toks.append("zz" + "".join(rng.choice(letters, size=3)))
        texts.append("".join(t + seps[rng.integers(len(seps))] for t in toks))
    _assert_match(m, texts)


def test_code_space_overflow_guard_falls_back(monkeypatch):
    """Surfaces too long to pack in the fixed code space take the
    per-text walk: over 8 tokens, or (T + 1) ** max_n >= 2 ** 62."""
    words = [f"w{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(300)]
    cases = [
        _rows(" ".join(words[:9]), "waa wab"),  # 9 tokens
        _rows(" ".join(words[:8]), *words[8:]),  # 301 ** 8 >= 2 ** 62
    ]
    for rows in cases:
        m = GazetteerMatcher(rows)
        assert m._surfaces is None and m.lengths[0] in (8, 9)
        calls = []
        fallback = m._match_batch_fallback
        monkeypatch.setattr(
            m, "_match_batch_fallback", lambda t: calls.append(1) or fallback(t)
        )
        texts = [rows[0]["canonical_name"], "waa wab wac", "none here", ""]
        _assert_match(m, texts)
        assert calls == [1]


def test_matcher_cache_keyed_by_content(ray_session):
    """Equal rows put by two jobs share one worker matcher; changed rows
    never reuse a stale one."""
    from naer_ray.sources.gazetteer import DictionaryRef, matcher_from_ref

    rows = _rows("Auth Service", "Cache")
    first, again = DictionaryRef(rows), DictionaryRef([dict(r) for r in rows])
    assert first.ref != again.ref
    m = matcher_from_ref(first)
    assert matcher_from_ref(again) is m
    changed = DictionaryRef(_rows("Auth Service", "Cache Store"))
    m2 = matcher_from_ref(changed)
    assert m2 is not m
    assert m2.match_text("the Cache Store") == [(1, "e1")]
    assert matcher_from_ref(first) is not m2


def test_pronoun_cue_prefilter(ray_session):
    """The It/Th substring prefilter keeps exactly the regex's cue rows."""
    from naer_ray.sources.gazetteer import DictionaryRef
    from naer_ray.stages.extract import _PRONOUN_RE, MentionDetector

    texts = ["It is big", "  This one", "They said", "\tIt", "Iterate", "Thus",
             "it is", "Item", "the It", "Them", "Th", "", "no cue", "This"]
    batch = pa.table({
        "bucket": pa.array([0] * len(texts), pa.int32()),
        "conv_id": pa.array(["c"] * len(texts)),
        "turn_idx": pa.array(list(range(len(texts))), pa.int32()),
        "text": pa.array(texts),
    })
    out = MentionDetector(DictionaryRef(_rows("Cache")))(batch)
    got = out.filter(out["is_pronoun"])["turn_idx"].to_pylist()
    assert got == [i for i, t in enumerate(texts) if _PRONOUN_RE.match(t.lstrip())]
    assert got == [0, 1, 2, 3, 13]
