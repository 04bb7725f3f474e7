"""Mention detection + per-conversation assembly (the extraction core).

Two-stage, shuffle-minimizing design:

* :class:`MentionDetector` — per-turn DIRECT mention detection against
  the broadcast gazetteer over turns that already carry their job
  bucket.  Order-independent, so it runs as a plain ``map_batches``
  stage with NO shuffle; only turns that contain a mention or an
  anaphora cue survive into the job-bucket exchange.  Matching is the
  batch matcher ``GazetteerMatcher.match_batch`` over a block's
  distinct texts; the cue regex runs only on texts that contain "It"
  or "Th".  Workers cache the matcher by the dictionary's content
  (``DictionaryRef``), so later jobs of a session reuse it.  That is
  not a small fraction of the turns (1.27 mention rows per turn on the
  synthetic bench corpus), but the rows are narrow: the text is
  dropped and entities travel as integer codes.
* :func:`make_conversation_assembler` — per-bucket kernel (one job
  bucket per call): resolves anaphora (INDIRECT occurrences, reference doc
  example NamedEntityReferenceType.java:15-19), dedups occurrences
  (NamedEntity's SortedSet semantics, NamedEntity.java:147-149) and
  materializes (subj, pred, obj) triples.

Reference semantics preserved: DIRECT = surface form of name/alias
occurs in the turn (NamedEntityParser.java:195-201, generalized to
camelCase-aware token matching, see sources/gazetteer.py); INDIRECT =
anaphoric reference; occurrences are (turn, ref_type) pairs ordered by
(turn_idx, DIRECT<INDIRECT) (NamedEntity.java:192-198).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as _pc

from .. import schema
from ..sources.gazetteer import _ranges, matcher_from_ref
from ..sources.transcripts import QUARANTINED, conform_batch, validity_mask

#: anaphora cue: the turn opens with a pronoun reference ("It is very big.")
_PRONOUN_RE = re.compile(r"^(?:It|This|They)\b")

MENTION_SCHEMA = pa.schema(
    [
        ("bucket", pa.int32()),  # the input turn's job bucket — the exchange key
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("pos", pa.int32()),  # token position of the match inside the turn
        # dense matcher code (gazetteer.GazetteerMatcher.eid_index —
        # identical across workers); -1 marks pronoun-cue rows.  Codes
        # instead of eid strings cut the shuffled bytes ~45%.
        ("eid_code", pa.int32()),
        ("is_pronoun", pa.bool_()),
    ]
)

#: a quarantining detector's rows: mention rows (tag null) and invalid
#: turns (tag QUARANTINED, with their text, mention columns null)
TAGGED_MENTION_SCHEMA = pa.schema(
    [*MENTION_SCHEMA, pa.field(schema.TAG, pa.string()), pa.field("text", pa.string())]
)


class MentionDetector:
    """Bucketed turns -> mention/pronoun-cue rows for one batch.

    The gazetteer index comes from the per-process matcher cache
    (``matcher_from_ref``, keyed by the dictionary's content digest), so
    constructing a detector per batch is cheap.  The input's job-bucket
    column (``pipelines/kg.add_bucket``) is carried through to every
    mention row of its turn, so the downstream exchange groups by
    bucket rather than one group per conversation (Ray's per-group
    dispatch overhead dominates with millions of tiny groups; the
    assembler iterates conversations inside each bucket instead).
    """

    def __init__(self, dict_ref):
        self.matcher = matcher_from_ref(dict_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        tcol = batch["text"]
        if tcol.null_count:
            batch = batch.filter(_pc.is_valid(batch["text"]))
            tcol = batch["text"]
        n = batch.num_rows
        if n == 0:
            return MENTION_SCHEMA.empty_table()
        enc = tcol.combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy()
        uniq = enc.dictionary

        # vectorized hits over the block's distinct texts (the Python
        # per-text walk at ~15us/text dominated this stage; the batch
        # matcher is its conformance-tested numpy twin)
        hit_counts, hpos, hcode = self.matcher.match_batch(uniq)
        # the cue regex runs only on texts containing "It" or "Th" (every
        # text whose lstrip() opens with It/This/They contains one)
        cue = np.flatnonzero(
            _pc.or_(
                _pc.match_substring(uniq, "It"), _pc.match_substring(uniq, "Th")
            ).to_numpy(zero_copy_only=False)
        )
        pron_flags = np.zeros(len(uniq), bool)
        pron_flags[cue] = [
            _PRONOUN_RE.match(t.lstrip()) is not None
            for t in uniq.take(cue).to_pylist()
        ]
        counts = hit_counts + pron_flags
        if counts.sum() == 0:
            return MENTION_SCHEMA.empty_table()
        # merge the pronoun marker (pos=-1, code=-1) ahead of each text's
        # hits, then the hits in match order
        total = int(counts.sum())
        flat_pos = np.empty(total, np.int32)
        flat_code = np.empty(total, np.int32)
        u_start = np.cumsum(counts) - counts
        pron_idx = np.flatnonzero(pron_flags)
        flat_pos[u_start[pron_idx]] = -1
        flat_code[u_start[pron_idx]] = -1
        tgt = np.repeat(u_start + pron_flags, hit_counts) + _ranges(hit_counts)
        flat_pos[tgt] = hpos
        flat_code[tgt] = hcode

        total_per_row = counts[codes]
        row_idx = np.repeat(np.arange(n, dtype=np.int64), total_per_row)
        within = _ranges(total_per_row)
        flat_idx = u_start[codes[row_idx]] + within
        pos_col = flat_pos[flat_idx]
        code_col = flat_code[flat_idx]
        pron_col = code_col < 0

        row_idx_pa = pa.array(row_idx, pa.int64())
        return pa.table(
            {
                "bucket": batch["bucket"].combine_chunks().take(row_idx_pa),
                "conv_id": batch["conv_id"].combine_chunks().take(row_idx_pa),
                "turn_idx": _pc.cast(
                    batch["turn_idx"].combine_chunks().take(row_idx_pa), pa.int32()
                ),
                "pos": pa.array(pos_col, pa.int32()),
                "eid_code": pa.array(code_col, pa.int32()),
                "is_pronoun": pa.array(pron_col, pa.bool_()),
            },
            schema=MENTION_SCHEMA,
        )


def make_mention_detector(dict_ref, quarantine: bool = False):
    """``map_batches`` kernel running :class:`MentionDetector` per batch.

    The matcher index is cached per worker process (matcher_from_ref),
    so stateless tasks get actor-pool-like amortization with fully
    elastic scheduling — no pool ramp-up, which dominates short jobs.

    With ``quarantine`` the detector sees only the turns that pass the
    format rule; the others come out beside the mention rows, tagged
    (:data:`TAGGED_MENTION_SCHEMA`).
    """

    def detect(batch: pa.Table) -> pa.Table:
        detector = MentionDetector(dict_ref)
        if not quarantine:
            return detector(batch)
        valid = validity_mask(batch)
        bad = batch.filter(_pc.invert(valid))
        bad = bad.append_column(schema.TAG, pa.repeat(pa.scalar(QUARANTINED), bad.num_rows))
        mentions = detector(batch.filter(valid))
        return pa.concat_tables(
            [conform_batch(t, TAGGED_MENTION_SCHEMA) for t in (mentions, bad)]
        )

    return detect


def triples_table(rows: list[dict]) -> pa.Table:
    return pa.Table.from_pylist(rows, schema=schema.TRIPLES)


def make_conversation_assembler(dict_ref):
    """Block kernel of the gazetteer path: a block holds whole job buckets,
    each of MANY conversations, in any row order, and the kernel returns
    their triples with each row's ``bucket``, in the bucket files' order
    (:func:`_assemble_vectorized`).  Ray-level dispatch stays O(blocks).
    The numpy kernel is checked against a per-conversation Python walk
    plus an Arrow sort in tests/test_assemble_vector.py."""

    def assemble_vector(group: pa.Table) -> pa.Table:
        matcher = matcher_from_ref(dict_ref)
        return _assemble_vectorized(group, matcher)

    return assemble_vector


def _dense_rank(arr: pa.Array) -> np.ndarray:
    """0-based rank of each string of ``arr`` in Arrow's sort order; equal
    strings share a rank."""
    return _pc.rank(arr, "ascending", tiebreaker="dense").to_numpy().astype(np.int64) - 1


def _matcher_lookup_arrays(matcher):
    """Per-matcher cached code-indexed lookup arrays (built once per
    worker): Arrow name/type pools with their dense ranks, flattened
    sorted interface names (and their ranks) with per-code offsets."""
    cache = getattr(matcher, "_vec_lookup", None)
    if cache is None:
        by_id = matcher.by_id
        eids = matcher.eids
        names_pa = pa.array(
            [by_id[e]["canonical_name"] for e in eids], pa.string()
        )
        types_pa = pa.array([by_id[e]["type"] for e in eids], pa.string())
        if_lists = [
            [nm for _iid, nm in sorted(matcher.interfaces_of.get(e, []), key=lambda t: t[1])]
            for e in eids
        ]
        if_counts = np.array([len(l) for l in if_lists], dtype=np.int64)
        if_starts = np.cumsum(if_counts) - if_counts
        if_flat_pa = pa.array([nm for l in if_lists for nm in l], pa.string())
        cache = (
            (names_pa, _dense_rank(names_pa)),
            (types_pa, _dense_rank(types_pa)),
            (if_flat_pa, _dense_rank(if_flat_pa)),
            if_counts,
            if_starts,
        )
        matcher._vec_lookup = cache
    return cache


#: the predicates in byte order, so a predicate's index is its rank in the
#: bucket files' order
_PREDS = pa.array(["hasInterface", "hasType", "mentionedIn", "occursIn"], pa.string())
_HAS_INTERFACE, _HAS_TYPE, _MENTIONED_IN, _OCCURS_IN = range(4)


def _sort_order(keys) -> np.ndarray:
    """Permutation that sorts rows by ``keys``, most significant first:
    ``(values, bound)`` pairs of non-negative int64 arrays with
    ``values < bound``.  Rows with equal keys come in any order, so every
    caller's keys tell apart all rows that differ.  Keys are packed,
    mixed-radix, into as few int64 words as hold them: one word takes
    one ``np.argsort``, more take ``np.lexsort``."""
    words, word, span = [], None, 1
    for values, bound in keys:
        if word is not None and span * bound < 2**63:
            word, span = word * bound + values, span * bound
        else:
            if word is not None:
                words.append(word)
            word, span = values.astype(np.int64, copy=False), bound
    words.append(word)
    return np.argsort(word) if len(words) == 1 else np.lexsort(words[::-1])


def _offset(values: np.ndarray) -> tuple:
    """``values`` as a :func:`_sort_order` key: shifted to start at 0."""
    low = int(values.min()) if len(values) else 0
    return values - low, (int(values.max()) - low + 1 if len(values) else 1)


def _assemble_vectorized(group: pa.Table, matcher) -> pa.Table:
    """Numpy twin of the per-conversation walk (``_assemble_one`` in
    tests/test_assemble_vector.py, the semantics oracle) over a block of
    whole buckets; returns :data:`schema.BUCKETED_TRIPLES` in file order.

    Anaphora resolution without the row loop: rows sorted by
    (conv, turn, pos, eid code); per (conv, turn) group take the LAST
    direct row's index (``np.maximum.reduceat``), running-max it across
    turn groups shifted by one turn (``pending_direct`` promotes only at
    a turn boundary), and validate the candidate belongs to the same
    conversation (row indices grow monotonically, so a leaked index from
    an earlier conversation fails the conv-equality check exactly when
    the reference walk would have had ``last_direct is None``).

    File order, ``(bucket, subj, pred, obj, conv_id, turn_idx,
    ref_type)`` as an Arrow sort puts it, comes from one sort of integer
    keys (:func:`_sort_order`): the conversation's bucket; dense ranks of
    the name, type and interface pools (cached per matcher); the
    predicate's rank; the rank of the block's conv ids; the rank of the
    ``conv#turn`` strings themselves (``"c#10" < "c#9"``, and a conv id
    may hold bytes below ``#``); DIRECT < INDIRECT < null.  ``turn_idx``
    needs no key: it is null off ``occursIn``, and on ``occursIn`` the
    object ``conv#turn`` determines it.
    """
    n = group.num_rows
    if n == 0:
        return schema.BUCKETED_TRIPLES.empty_table()

    enc = group["conv_id"].combine_chunks().dictionary_encode()
    convs = enc.dictionary
    conv_raw = enc.indices.to_numpy().astype(np.int64)
    eid_raw = group["eid_code"].to_numpy().astype(np.int64, copy=False)
    turn_raw = group["turn_idx"].to_numpy().astype(np.int64, copy=False)
    pos_raw = group["pos"].to_numpy().astype(np.int64, copy=False)
    pron_raw = group["is_pronoun"].to_numpy(zero_copy_only=False).astype(bool, copy=False)
    conv_bucket = np.empty(len(convs), np.int64)
    conv_bucket[conv_raw] = group["bucket"].to_numpy()
    # eid_code tiebreak: two entities CAN match at the same (turn, pos)
    # (equal-span ambiguous surfaces); the walk takes the last of them
    order = _sort_order(
        [
            (conv_raw, len(convs)),
            *(_offset(v) for v in (turn_raw, pos_raw, eid_raw)),
            (pron_raw, 2),
        ]
    )
    conv_codes, eid_codes, turn, pron = (
        conv_raw[order], eid_raw[order], turn_raw[order], pron_raw[order]
    )
    idx = np.arange(n, dtype=np.int64)

    # ---- anaphora: last DIRECT entity of earlier turns, same conv ----
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = (conv_codes[1:] != conv_codes[:-1]) | (turn[1:] != turn[:-1])
    turn_group = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    per_turn_last = np.maximum.reduceat(np.where(~pron, idx, -1), starts)
    runmax = np.maximum.accumulate(per_turn_last)
    pending = np.empty_like(runmax)
    pending[0] = -1
    pending[1:] = runmax[:-1]
    last_idx = pending[turn_group]

    pron_rows = np.flatnonzero(pron)
    li = last_idx[pron_rows]
    ok = li >= 0
    li, pron_rows = li[ok], pron_rows[ok]
    ok = conv_codes[li] == conv_codes[pron_rows]
    li, pron_rows = li[ok], pron_rows[ok]

    # ---- occurrence set: dedup (conv, eid, turn, ref) ----
    d_rows = np.flatnonzero(~pron)
    oc = np.concatenate([conv_codes[d_rows], conv_codes[pron_rows]])
    oe = np.concatenate([eid_codes[d_rows], eid_codes[li]])
    ot = np.concatenate([turn[d_rows], turn[pron_rows]])
    orf = np.concatenate(
        [np.zeros(len(d_rows), np.int8), np.ones(len(pron_rows), np.int8)]
    )
    order_occ = _sort_order([(oc, len(convs)), _offset(oe), _offset(ot), (orf, 2)])
    oc, oe, ot, orf = oc[order_occ], oe[order_occ], ot[order_occ], orf[order_occ]
    keep = np.empty(len(oc), dtype=bool)
    if len(oc):
        keep[0] = True
        keep[1:] = (
            (oc[1:] != oc[:-1])
            | (oe[1:] != oe[:-1])
            | (ot[1:] != ot[:-1])
            | (orf[1:] != orf[:-1])
        )
    oc, oe, ot, orf = oc[keep], oe[keep], ot[keep], orf[keep]

    # ---- emitted rows ----
    # Codes outside the dictionary (possible only for hand-built mention
    # tables) are skipped like the Python walk skips eids missing from
    # by_id.  Strings stay in Arrow pools: every column below is a
    # pa.Array.take over a small pool with int code arrays.
    (names_pa, name_rank), (types_pa, type_rank), (if_flat_pa, if_rank), if_counts, if_starts = (
        _matcher_lookup_arrays(matcher)
    )
    n_known = max(len(matcher.eids), 1)
    # distinct (conv, entity) pairs of DIRECT rows: one hasType, one
    # mentionedIn and the hasInterface rows each
    de = eid_codes[d_rows]
    known = (de >= 0) & (de < len(matcher.eids))
    pairs = np.unique(conv_codes[d_rows][known] * n_known + de[known])
    pc_, pe = pairs // n_known, pairs % n_known
    known = (oe >= 0) & (oe < len(matcher.eids))
    oc, oe, ot, orf = oc[known], oe[known], ot[known], orf[known]
    pif_counts = if_counts[pe]
    ic = np.repeat(pc_, pif_counts)
    ie = np.repeat(pe, pif_counts)
    if_take = np.repeat(if_starts[pe], pif_counts) + _ranges(pif_counts)

    # occursIn objects: one "conv#turn" string per distinct (conv, turn)
    t0 = int(ot.min()) if len(ot) else 0
    span = int(ot.max()) - t0 + 1 if len(ot) else 1
    ct, occ_of = np.unique(oc * span + (ot - t0), return_inverse=True)
    occ_pool = _pc.binary_join_element_wise(
        convs.take(pa.array(ct // span)),
        _pc.cast(pa.array(ct % span + t0), pa.string()),
        "#",
    )
    occ_rank = _dense_rank(occ_pool)[occ_of]

    n_p, n_o, n_i = len(pe), len(oe), len(ie)
    kind = np.repeat(
        np.array([_HAS_TYPE, _MENTIONED_IN, _OCCURS_IN, _HAS_INTERFACE], np.int64),
        [n_p, n_p, n_o, n_i],
    )
    subj = np.concatenate([pe, pe, oe, ie])
    conv = np.concatenate([pc_, pc_, oc, ic])
    conv_rank = _dense_rank(convs)
    obj_rank = np.concatenate([type_rank[pe], conv_rank[pc_], occ_rank, if_rank[if_take]])
    # DIRECT, INDIRECT, then null (the rows that are not occursIn)
    ref = np.concatenate([np.full(2 * n_p, 2), orf, np.full(n_i, 2)])
    final = _sort_order(
        [
            (conv_bucket[conv], int(conv_bucket.max()) + 1),
            (name_rank[subj], max(len(name_rank), 1)),
            (kind, len(_PREDS)),
            (obj_rank, int(obj_rank.max()) + 1 if len(obj_rank) else 1),
            (conv_rank[conv], len(convs)),
            (ref, 3),
        ]
    )
    final_pa = pa.array(final)
    kind, conv, ref = kind[final], conv[final], ref[final]
    is_occ = kind == _OCCURS_IN
    turns = np.concatenate([np.zeros(2 * n_p, np.int64), ot, np.zeros(n_i, np.int64)])[final]
    obj_col = _pa_concat(
        [
            types_pa.take(pa.array(pe)),
            convs.take(pa.array(pc_)),
            occ_pool.take(pa.array(occ_of)),
            if_flat_pa.take(pa.array(if_take)),
        ]
    ).take(final_pa)
    return pa.table(
        {
            "bucket": pa.array(conv_bucket[conv], pa.int32()),
            "subj": names_pa.take(pa.array(subj[final])),
            "pred": _PREDS.take(pa.array(kind)),
            "obj": obj_col,
            "conv_id": convs.take(pa.array(conv)),
            "turn_idx": pa.array(turns, pa.int32(), mask=~is_occ),
            "ref_type": pa.array(["DIRECT", "INDIRECT", None], pa.string()).take(
                pa.array(ref)
            ),
        },
        schema=schema.BUCKETED_TRIPLES,
    )


def _pa_concat(arrays):
    """concat possibly-chunked string arrays into one Array."""
    flat = []
    for a in arrays:
        if isinstance(a, pa.ChunkedArray):
            flat.extend(a.chunks)
        else:
            flat.append(a)
    return pa.concat_arrays(flat)
