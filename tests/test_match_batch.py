"""match_batch must produce the per-text walk's exact hit layout.

GazetteerMatcher.match_batch is the vectorized (byte-table Arrow split,
fixed token-code space, candidate-only packed n-gram keys, suppression
among hits) twin of match_tokens; these tests compare them text-by-text
on the fixture corpus and on adversarial synthetic strings (ambiguous
equal spans, nested longer surfaces, camelCase, digit and non-ASCII
boundary cases, empty/punctuation-only texts, sliced and chunked
arrays) and on dictionaries of long, nested and random surfaces.
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


_WORDS = [f"w{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(300)]


def _assert_long_surface(rows):
    """The batch matcher equals the walk on a dictionary whose first
    surface is its longest, on texts built around that surface."""
    m = GazetteerMatcher(rows)
    longest = rows[0]["canonical_name"]
    assert m.lengths[0] == len(longest.split())
    texts = [
        longest,
        f"x {longest} y {longest}",
        " ".join(longest.split()[:-1]),  # all but the last token
        " ".join(longest.split()[1:]),
        "waa wab wac",
        "none here",
        "",
        " ".join(_WORDS[::-1]),
    ]
    _assert_match(m, texts)
    counts, _pos, _code = m.match_batch(pa.array([longest], pa.string()))
    assert counts.tolist() == [1]


def test_nine_token_surface():
    _assert_long_surface(_rows(" ".join(_WORDS[:9]), "waa wab"))


def test_eight_token_surface_over_large_token_space():
    """300 dictionary tokens and an 8-token surface: 301 ** 8 > 2 ** 62,
    more n-grams than one int64 could number."""
    _assert_long_surface(_rows(" ".join(_WORDS[:8]), *_WORDS[8:]))


def test_forty_token_surface():
    _assert_long_surface(
        _rows(" ".join(_WORDS[:40]), " ".join(_WORDS[:39]), "waa wab", *_WORDS[40:])
    )


def test_nested_prefix_surfaces():
    m = GazetteerMatcher(_rows("a b", "a b c", "a b c d", "b c", "c d e"))
    texts = ["a b", "a b c", "a b c d", "a b c d e", "a b x", "a b c x d",
             "a a b b c c d", "b c d e", "c d", "a b a b c a b c d", "a"]
    _assert_match(m, texts)


def test_sparse_dictionary_with_six_token_alias():
    """A sparse-style dictionary (1,200 entities, 1-3 token names, each
    with a camelCase alias) plus one 6-token alias."""
    rng = np.random.default_rng(11)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    vocab = sorted({"".join(rng.choice(letters, size=rng.integers(3, 9))) for _ in range(4000)})
    rows = []
    for i in range(1200):
        parts = [w.capitalize() for w in rng.choice(vocab, size=rng.integers(1, 4))]
        rows.append({"entity_id": f"e{i:04d}", "canonical_name": " ".join(parts),
                     "type": "COMPONENT", "aliases": ["".join(parts)],
                     "interface_of": None})
    six = " ".join(vocab[:6])
    rows[0]["aliases"].append(six)
    m = GazetteerMatcher(rows)
    assert m.lengths[0] == 6
    texts = [six, f"see {six} and {rows[0]['canonical_name']}"]
    for _ in range(400):
        toks = [vocab[rng.integers(len(vocab))] for _ in range(rng.integers(0, 30))]
        if rng.random() < 0.3:
            toks.insert(rng.integers(len(toks) + 1), rows[rng.integers(len(rows))]["canonical_name"])
        if rng.random() < 0.1:
            toks.insert(rng.integers(len(toks) + 1), " ".join(vocab[:rng.integers(1, 7)]))
        texts.append(" ".join(toks))
    _assert_match(m, texts)


def test_property_random_dictionaries():
    """Seeded: random dictionaries of surfaces up to 12 tokens over small
    vocabularies (so surfaces share prefixes and nest), random texts."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        vocab = [chr(97 + i) for i in range(int(rng.integers(2, 15)))]
        names = {
            " ".join(rng.choice(vocab, size=rng.integers(1, 13)))
            for _ in range(int(rng.integers(1, 40)))
        }
        rows = _rows(*sorted(names))
        # a few ambiguous surfaces: a second entity per name
        rows += [dict(r, entity_id=r["entity_id"] + "b") for r in rows[::5]]
        m = GazetteerMatcher(rows)
        name_list = sorted(names)
        texts = []
        for _ in range(60):
            toks = []
            while len(toks) < rng.integers(0, 40):
                if rng.random() < 0.2:
                    toks += name_list[rng.integers(len(name_list))].split()
                else:
                    # unknown tokens share one code, beside every dictionary token
                    toks.append(vocab[rng.integers(len(vocab))] if rng.random() < 0.75 else "zz")
            texts.append(" ".join(toks))
        _assert_match(m, texts)


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
