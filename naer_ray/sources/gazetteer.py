"""Entity dictionary (gazetteer) source + token-n-gram matcher.

The reference injects a ``Map<type, Set<name>>`` of candidate entity
names into recognition (NamedEntityRecognizer.java:95-98, Prompt.java:56-85,
loaded from CSV in GoldstandardParser.java:65-114).  Here the gazetteer
is a small dimension table broadcast once via ``ray.put`` and expanded
into a token-n-gram index inside each worker (built once per process
and dictionary, cached by the rows' content digest — the actor-pool /
broadcast-small-side pattern).

Matching semantics (engine-native, per the north star's
camelCase/abbreviation normalization): a dictionary surface form
(canonical name or alias) matches a turn iff its normalized token
sequence appears as a contiguous token n-gram of the turn's normalized
tokens, where normalization = word tokens, camelCase-split, lowercased.
This generalizes the reference's case-insensitive substring rule
(NamedEntityParser.java:195-201) to word-boundary safety at corpus
scale ("Persistence" still matches "PersistenceProvider" because the
camel split exposes the token).

``GazetteerMatcher.match_tokens`` is the per-text statement of that
rule; ``match_batch`` is the one production path, vectorized over a
whole Arrow string array for every dictionary: tokens are coded in a
code space fixed per matcher, and an n-gram is looked up one token at a
time through dense per-level prefix ids of the surfaces, so no surface
length or token count is too large for it.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..names import camel_split

_WORD_RE = re.compile(r"[A-Za-z0-9]+")

# token -> camel-split lowercase parts; corpus vocabularies are small and
# repeat heavily, so memoizing the split removes the regex from the hot loop
_TOKEN_CACHE: dict[str, tuple[str, ...]] = {}


def _split_token(tok: str) -> tuple[str, ...]:
    parts = _TOKEN_CACHE.get(tok)
    if parts is None:
        parts = tuple(p.lower() for p in camel_split(tok))
        if len(_TOKEN_CACHE) > 500_000:
            _TOKEN_CACHE.clear()
        _TOKEN_CACHE[tok] = parts
    return parts


def tokenize(text: str) -> list[str]:
    """Word tokens, camelCase-split, lowercased: 'the PersistenceProvider' -> ['the','persistence','provider']."""
    out: list[str] = []
    for tok in _WORD_RE.findall(text):
        out.extend(_split_token(tok))
    return out


def load_dictionary_rows(path: str) -> list[dict]:
    """Read entity_dictionary.parquet into plain rows (small side, driver-side)."""
    return pq.read_table(path).to_pylist()


def read_gazetteer_csv(
    path: str, entity_type: str = "COMPONENT", id_prefix: str = ""
) -> list[dict]:
    """modelElementID_to_ComponentName.csv -> dictionary rows (reference S5).

    GoldstandardParser.parsePossibleComponents:92-114: skip header,
    column 2 is the component name, blanks dropped; names dedup into a
    sorted set.  Small side — plain csv module, returned as the
    broadcastable dictionary-row list.
    """
    import csv

    rows: list[dict] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        for parts in reader:
            if len(parts) >= 2 and parts[1].strip():
                name = parts[1].strip()
                if name in seen:
                    continue
                seen.add(name)
                rows.append(
                    {
                        "entity_id": f"{id_prefix}{parts[0].strip()}",
                        "canonical_name": name,
                        "type": entity_type,
                        "aliases": [],
                        "interface_of": None,
                    }
                )
    rows.sort(key=lambda r: r["canonical_name"])
    return rows


class GazetteerMatcher:
    """Token-n-gram index over dictionary surface forms; built once per worker."""

    def __init__(self, rows: list[dict]):
        self.by_id: dict[str, dict] = {}
        self.index: dict[tuple[str, ...], list[str]] = {}
        self.interfaces_of: dict[str, list[tuple[str, str]]] = {}
        lengths: set[int] = set()
        for row in sorted(rows, key=lambda r: r["entity_id"]):
            eid = row["entity_id"]
            self.by_id[eid] = row
            if row["type"] == "INTERFACE" and row.get("interface_of"):
                self.interfaces_of.setdefault(row["interface_of"], []).append(
                    (eid, row["canonical_name"])
                )
            surfaces = [row["canonical_name"], *(row.get("aliases") or [])]
            for surface in surfaces:
                key = tuple(tokenize(surface))
                if not key:
                    continue
                lengths.add(len(key))
                ids = self.index.setdefault(key, [])
                if eid not in ids:
                    ids.append(eid)
        self.lengths = sorted(lengths, reverse=True)
        # stable dense entity codes: by_id insertion is sorted by eid,
        # so code i -> eids[i] is IDENTICAL in every worker process —
        # the mention shuffle ships int32 codes instead of eid strings
        self.eids: list[str] = list(self.by_id)
        self.eid_index: dict[str, int] = {e: i for i, e in enumerate(self.eids)}
        # first-token index: one dict probe per turn position instead of
        # one per (position x surface-length); candidates longest-first
        self.by_first: dict[str, list[tuple[int, tuple[str, ...], list[str]]]] = {}
        for key, ids in self.index.items():
            self.by_first.setdefault(key[0], []).append((len(key), key, ids))
        for cands in self.by_first.values():
            cands.sort(key=lambda t: (-t[0], t[1]))
        self._build_code_space()

    def _build_code_space(self) -> None:
        """The batch matcher's fixed token-code space and prefix levels
        (see match_batch).

        Dictionary tokens get codes 0..T-1 in sorted order and every other
        token the single code T, which no surface contains.  A surface
        prefix of j tokens has a dense id at level j: at level 1 its
        token code; at level j >= 2 its index in ``_level_keys[j]``, the
        sorted distinct ``id_{j-1} * (T + 1) + code_j`` of the surfaces
        with at least j tokens.  An id is below max(S, T + 1) for S
        surfaces, so a key never overflows.  ``_row_of[j][id]`` is the
        surface row of a whole j-token surface, or -1 for a proper
        prefix; a row's entity codes are ``_flat[_offs[row]:][:_counts[row]]``.
        """
        tokens = sorted({t for key in self.index for t in key})
        self._tokens = pa.array(tokens, pa.string())
        self._token_code = {t: c for c, t in enumerate(tokens)}
        base = len(tokens) + 1
        self._base = base
        keys = list(self.index)
        n_tok = np.array([len(k) for k in keys], np.int64)
        code = np.array([self._token_code[t] for k in keys for t in k], np.int64)
        first = np.cumsum(n_tok) - n_tok
        rows = np.arange(len(keys))
        self._is_first = np.zeros(base, bool)
        self._is_first[code[first]] = True
        self._counts = np.array([len(self.index[k]) for k in keys], np.int64)
        self._offs = np.cumsum(self._counts) - self._counts
        self._flat = np.array(
            [self.eid_index[e] for k in keys for e in self.index[k]], np.int64
        )
        ids = code[first]
        row_of = np.full(base, -1, np.int64)
        row_of[ids[n_tok == 1]] = rows[n_tok == 1]
        self._level_keys, self._row_of = [None, None], [None, row_of]
        for j in range(2, int(n_tok.max(initial=0)) + 1):
            longer = n_tok >= j
            first, rows, n_tok, ids = first[longer], rows[longer], n_tok[longer], ids[longer]
            level_keys, ids = np.unique(ids * base + code[first + j - 1], return_inverse=True)
            row_of = np.full(len(level_keys), -1, np.int64)
            row_of[ids[n_tok == j]] = rows[n_tok == j]
            self._level_keys.append(level_keys)
            self._row_of.append(row_of)

    def match_tokens(self, tokens: list[str]) -> list[tuple[int, str]]:
        """(token_pos, entity_id) n-gram hits with longest-match suppression.

        A hit whose token span is strictly contained in a longer kept
        hit's span is dropped ("AuthService" does not fire inside
        "AuthServiceCore"); equal spans (ambiguous surfaces) all survive.
        """
        raw: list[tuple[int, int, str]] = []  # (start, n, entity_id)
        nt = len(tokens)
        by_first = self.by_first
        for i, tok in enumerate(tokens):
            cands = by_first.get(tok)
            if cands is None:
                continue
            for n, key, ids in cands:
                if n == 1 or (i + n <= nt and tuple(tokens[i : i + n]) == key):
                    raw.extend((i, n, eid) for eid in ids)
        if not raw:
            return []
        kept_spans: list[tuple[int, int, int]] = []  # (start, end, n)
        hits: list[tuple[int, str]] = []
        for start, n, eid in sorted(raw, key=lambda t: (-t[1], t[0], t[2])):
            end = start + n
            if any(ks <= start and end <= ke and kn > n for ks, ke, kn in kept_spans):
                continue
            kept_spans.append((start, end, n))
            hits.append((start, eid))
        hits.sort(key=lambda h: h[0])
        return hits

    def match_text(self, text: str) -> list[tuple[int, str]]:
        return self.match_tokens(tokenize(text))

    # --- vectorized batch matcher -----------------------------------------
    #
    # match_tokens above is the per-text semantics reference; match_batch
    # is its numpy twin over a whole Arrow string array (the detect hot
    # path runs thousands of near-distinct texts per block, and the Python
    # walk's ~15us/text dominated the stage).  A batch costs one Arrow
    # word split (_word_split: a byte table, then ascii_split_whitespace)
    # plus work on the few token positions that can start a surface:
    # tokens are coded in the matcher's fixed code space
    # (_build_code_space), simple tokens ([A-Z]?[a-z]*, whose camelCase
    # split is just lower()) in Arrow and only the other distinct tokens
    # through the memoized _split_token; only the positions whose token
    # starts some surface (the vectorized by_first probe) are candidates,
    # and they walk the surfaces' prefix ids one level (token) at a time,
    # one searchsorted per level, for every dictionary whatever its
    # surface lengths; longest-match suppression compares the hits only.
    # tests/test_match_batch.py asserts layout equality with match_tokens
    # on the corpus and on adversarial and random texts and dictionaries.

    def match_batch(self, texts: "pa.Array"):
        """Vectorized hits for a batch of non-null texts.

        Returns ``(hit_counts, flat_pos, flat_code)``: per-text hit
        counts (int64, len(texts)), and the concatenated (token_pos,
        eid_code) hit arrays ordered by (text, pos, eid_code) — the
        exact (pos, eid) set and order of the per-text walk (same-pos
        kept hits always share a span length, so the walk's
        longest-first ordering reduces to eid order; assemble re-sorts
        by (conv, turn, pos, eid_code) regardless).
        """
        n_texts = len(texts)
        empty = (
            np.zeros(n_texts, np.int64),
            np.empty(0, np.int32),
            np.empty(0, np.int32),
        )
        if n_texts == 0 or not self.lengths:
            return empty
        norm_counts, stream = self._code_stream(texts)
        starts = np.flatnonzero(self._is_first[stream])
        if not len(starts):
            return empty
        text_end = np.cumsum(norm_counts)
        room = text_end[np.searchsorted(text_end, starts, side="right")] - starts

        # raw hits per length: starts into the stream + surface rows, found
        # by walking the candidates' prefix ids one level at a time
        base = self._base
        ids = stream[starts]
        hits: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for nn in range(1, len(self._row_of)):
            if nn > 1:
                fits = room >= nn
                starts, ids, room = starts[fits], ids[fits], room[fits]
                key = ids * base + stream[starts + nn - 1]
                level_keys = self._level_keys[nn]
                ids = np.searchsorted(level_keys, key)
                np.clip(ids, 0, len(level_keys) - 1, out=ids)
                found = level_keys[ids] == key
                starts, ids, room = starts[found], ids[found], room[found]
            row = self._row_of[nn][ids]
            whole = row >= 0
            hits[nn] = (starts[whole], row[whole])
            if not len(starts):
                break

        # longest-match suppression: a hit (s, n) is dropped iff ANY raw
        # hit (s', l>n) spans it (s' <= s, s+n <= s'+l); equivalent to the
        # walk's kept-longer-span rule by induction on length.  Starts of
        # each length are ascending, so the check is two searchsorted.
        out_starts: list[np.ndarray] = []
        out_codes: list[np.ndarray] = []
        for nn, (starts, row) in hits.items():
            dropped = np.zeros(len(starts), bool)
            for ll, (longer, _row) in hits.items():
                if ll > nn and len(longer):
                    dropped |= np.searchsorted(longer, starts, "right") > np.searchsorted(
                        longer, starts + nn - ll, "left"
                    )
            keep = ~dropped
            starts, row = starts[keep], row[keep]
            ec = self._counts[row]
            out_starts.append(np.repeat(starts, ec))
            out_codes.append(self._flat[np.repeat(self._offs[row], ec) + _ranges(ec)])

        all_starts = np.concatenate(out_starts)
        if not len(all_starts):
            return empty
        all_codes = np.concatenate(out_codes)
        order = np.lexsort((all_codes, all_starts))
        all_starts = all_starts[order]
        tx = np.searchsorted(text_end, all_starts, side="right")
        pos = all_starts - (text_end[tx] - norm_counts[tx])
        return (
            np.bincount(tx, minlength=n_texts).astype(np.int64),
            pos.astype(np.int32),
            all_codes[order].astype(np.int32),
        )

    def _code_stream(self, texts: "pa.Array"):
        """:func:`tokenize` of a batch of non-null texts, in token codes.

        Returns ``(norm_counts, stream)``: per-text normalized-token
        counts and the concatenated normalized-token codes (both int64)
        in the matcher's code space.  Distinct raw tokens of the form
        [A-Z]?[a-z]* are lowercased and coded in Arrow; only the other
        distinct raw tokens (camelCase, digits) are split in Python, and
        their extra parts are spliced into the stream.
        """
        raw_tokens, token_offsets = _word_split(texts)
        enc = raw_tokens.dictionary_encode()
        raw_codes = enc.indices.to_numpy()
        raw = enc.dictionary
        other = self._base - 1
        head = pc.fill_null(
            pc.index_in(pc.ascii_lower(raw), value_set=self._tokens), other
        ).to_numpy().astype(np.int64)
        # parts per distinct raw token; the empty token that a leading or
        # trailing separator leaves has none
        parts_counts = pc.binary_length(raw).to_numpy().astype(bool).astype(np.int64)
        simple = pc.match_substring_regex(raw, "^[A-Z]?[a-z]*$")
        split_ids = np.flatnonzero(~simple.to_numpy(zero_copy_only=False))
        code_of = self._token_code
        split_codes = [
            [code_of.get(p, other) for p in _split_token(tok)]
            for tok in raw.take(split_ids).to_pylist()
        ]
        split_counts = np.array([len(c) for c in split_codes], np.int64)
        parts_counts[split_ids] = split_counts
        head[split_ids] = [c[0] for c in split_codes]
        # the parts after the head, CSR by distinct raw token
        rest_offsets = np.zeros(len(raw), np.int64)
        rest_offsets[split_ids] = np.cumsum(split_counts - 1) - (split_counts - 1)
        rest_flat = np.array([c for codes in split_codes for c in codes[1:]], np.int64)

        tok_counts = parts_counts[raw_codes]
        stream = np.repeat(head[raw_codes], tok_counts)
        ends = np.cumsum(tok_counts)
        multi = np.flatnonzero(tok_counts > 1)
        if len(multi):
            extra = tok_counts[multi] - 1
            within = _ranges(extra)
            stream[np.repeat(ends[multi] - extra, extra) + within] = rest_flat[
                np.repeat(rest_offsets[raw_codes[multi]], extra) + within
            ]
        # normalized tokens before each text's first raw token
        before = np.zeros(len(token_offsets), np.int64)
        nz = token_offsets > 0
        before[nz] = ends[token_offsets[nz] - 1]
        return np.diff(before), stream


def _ranges(counts: np.ndarray) -> np.ndarray:
    """[3,0,2] -> [0,1,2,0,1] (position within each repeated segment)."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, np.int64)
    starts_at = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts_at, counts)


#: byte -> itself for [A-Za-z0-9], else a space: the _WORD_RE token rule as
#: a bytes.translate table (every byte of a multibyte UTF-8 character is a
#: separator, as it is for the regex)
_WORD_BYTES = bytes(b if bytes([b]).isalnum() else 0x20 for b in range(256))


def _word_split(texts: "pa.Array"):
    """The raw tokens of a batch of non-null texts, split in Arrow C++.

    Translates the batch's bytes through _WORD_BYTES (only the
    ``[offsets[0], offsets[-1])`` range: a sliced array keeps its
    parent's whole data buffer), then splits on the spaces.  Returns
    ``(tokens, token_offsets)``: the [A-Za-z0-9]+ tokens, plus the empty
    tokens that leading and trailing separators leave, and each text's
    token range (int64, len(texts) + 1).
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if texts.type != pa.string():
        texts = texts.cast(pa.string())
    n = len(texts)
    _validity, offsets_buf, data_buf = texts.buffers()
    offsets = np.frombuffer(offsets_buf, np.int32, n + 1, texts.offset * 4)
    lo, hi = int(offsets[0]), int(offsets[-1])
    data = memoryview(data_buf)[lo:hi].tobytes() if hi > lo else b""
    words = pa.StringArray.from_buffers(
        n, pa.py_buffer(offsets - np.int32(lo)), pa.py_buffer(data.translate(_WORD_BYTES))
    )
    lists = pc.ascii_split_whitespace(words)
    token_offsets = lists.offsets.to_numpy().astype(np.int64)
    return pc.list_flatten(lists), token_offsets - token_offsets[0]


# --- per-worker broadcast cache ------------------------------------------------

_MATCHER_CACHE: dict[str, GazetteerMatcher] = {}


class DictionaryRef:
    """A ``ray.put`` of dictionary rows plus the sha256 of their content.

    Made once per job in the driver.  Workers cache their matcher by the
    digest, so a later job that puts equal rows again reuses it, and
    changed rows always build a new one.
    """

    __slots__ = ("ref", "digest")

    def __init__(self, rows: list[dict]):
        import hashlib
        import json

        import ray

        self.ref = ray.put(rows)
        self.digest = hashlib.sha256(
            json.dumps(rows, sort_keys=True, default=repr).encode()
        ).hexdigest()


def matcher_from_ref(dict_ref: DictionaryRef) -> GazetteerMatcher:
    """Resolve a :class:`DictionaryRef` to a worker-local matcher, building
    the index at most once per worker process and dictionary content."""
    import ray

    matcher = _MATCHER_CACHE.get(dict_ref.digest)
    if matcher is None:
        matcher = GazetteerMatcher(ray.get(dict_ref.ref))
        _MATCHER_CACHE.clear()  # at most one dictionary per job; avoid leaks
        _MATCHER_CACHE[dict_ref.digest] = matcher
    return matcher
