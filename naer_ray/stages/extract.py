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
    """Bucket-group ``map_groups`` kernel: each group holds MANY
    conversations (one conv-hash bucket); the kernel sorts by
    (conv_id, turn_idx, pos) and processes conversation runs — Ray-level
    group dispatch stays O(buckets).  The numpy kernel
    :func:`_assemble_vectorized` is checked table-identical against a
    per-conversation Python walk in tests/test_assemble_vector.py."""

    def assemble_vector(group: pa.Table) -> pa.Table:
        matcher = matcher_from_ref(dict_ref)
        return _assemble_vectorized(group, matcher)

    return assemble_vector


def _matcher_lookup_arrays(matcher):
    """Per-matcher cached code-indexed lookup arrays (built once per
    worker): Arrow name/type pools, flattened sorted interface names
    with per-code offsets."""
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
        cache = (names_pa, types_pa, if_counts, if_starts, if_flat_pa)
        matcher._vec_lookup = cache
    return cache


def _assemble_vectorized(group: pa.Table, matcher) -> pa.Table:
    """Numpy twin of the per-conversation walk (``_assemble_one`` in
    tests/test_assemble_vector.py, the semantics oracle) over a whole
    bucket.

    Anaphora resolution without the row loop: rows sorted by
    (conv, turn, pos); per (conv, turn) group take the LAST direct
    row's index (``np.maximum.reduceat``), running-max it across turn
    groups shifted by one turn (``pending_direct`` promotes only at a
    turn boundary), and validate the candidate
    belongs to the same conversation (row indices grow monotonically,
    so a leaked index from an earlier conversation fails the
    conv-equality check exactly when the reference walk would have had
    ``last_direct is None``).
    """
    import pandas as pd

    # eid_code tiebreak: two entities CAN match at the same (turn, pos)
    # (equal-span ambiguous surfaces); without it their first-appearance
    # order — and hence output row order — would depend on partition
    # layout, breaking byte-identical resume
    group = group.sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending"),
         ("pos", "ascending"), ("eid_code", "ascending")]
    )
    n = group.num_rows
    if n == 0:
        return schema.TRIPLES.empty_table()

    conv_codes, conv_uniq = pd.factorize(
        group["conv_id"].to_pandas(), sort=False
    )
    conv_uniq = np.asarray(conv_uniq, dtype=object)
    eid_codes = group["eid_code"].to_numpy().astype(np.int64, copy=False)
    turn = group["turn_idx"].to_numpy().astype(np.int64, copy=False)
    pron = group["is_pronoun"].to_numpy(zero_copy_only=False).astype(bool, copy=False)
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
    order_occ = np.lexsort((orf, ot, oe, oc))
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

    # ---- first-appearance rank of each (conv, entity) pair ----
    dc, de = conv_codes[d_rows], eid_codes[d_rows]
    M = np.int64(max(len(matcher.eids), int(eid_codes.max()) + 1 if n else 1) + 1)
    pair_key_all = dc.astype(np.int64) * M + de
    first_pair = ~pd.Series(pair_key_all).duplicated().to_numpy()
    fc, fe = dc[first_pair], de[first_pair]
    # rows are conv-sorted and index-ascending, so fc is non-decreasing
    # and within-conv order IS first-appearance order
    n_pairs = len(fc)
    conv_first = np.empty(n_pairs, dtype=bool)
    if n_pairs:
        conv_first[0] = True
        conv_first[1:] = fc[1:] != fc[:-1]
    seg_start = np.maximum.accumulate(
        np.where(conv_first, np.arange(n_pairs, dtype=np.int64), 0)
    )
    rank = np.arange(n_pairs, dtype=np.int64) - seg_start
    pair_key = fc.astype(np.int64) * M + fe
    key_order = np.argsort(pair_key, kind="stable")
    sorted_keys = pair_key[key_order]
    sorted_rank = rank[key_order]

    def rank_of(c, e):
        pos = np.searchsorted(sorted_keys, c.astype(np.int64) * M + e)
        return sorted_rank[pos]

    # ---- dictionary lookups (eid code -> name/type/interfaces) ----
    # Strings stay in Arrow pools; every large column below is built by
    # pa.Array.take over small pools with int code arrays — no Python
    # objects travel through the hot path (the first version used
    # object-dtype np arrays and was no faster than the row loop).
    # Pools are code-indexed and cached per matcher (built once per
    # worker, _matcher_lookup_arrays).
    names_pa, types_pa, if_counts, if_starts, if_flat_pa = _matcher_lookup_arrays(
        matcher
    )
    n_known = len(matcher.eids)
    conv_pa = pa.array(conv_uniq, pa.string())

    # emission-filtered views (codes outside the dictionary — possible
    # only for hand-built mention tables — are skipped like the Python
    # walk skips eids missing from by_id)
    pe_keep = (fe >= 0) & (fe < n_known)
    pc_, pe = fc[pe_keep], fe[pe_keep]
    oc_keep = (oe >= 0) & (oe < n_known)
    oc2, oe2, ot2, orf2 = oc[oc_keep], oe[oc_keep], ot[oc_keep], orf[oc_keep]
    # interface rows: one per (pair, iface)
    pif_counts = if_counts[pe]
    ic = np.repeat(pc_, pif_counts)
    ie = np.repeat(pe, pif_counts)
    ipos = _ranges(pif_counts)
    if_take = np.repeat(if_starts[pe], pif_counts) + ipos

    # ---- build all rows + one global ordering sort ----
    np_ = len(pc_)
    no = len(oc2)
    ni = len(ic)
    k_conv = np.concatenate([pc_, pc_, oc2, ic])
    k_rank = np.concatenate([rank_of(pc_, pe)] * 2 + [rank_of(oc2, oe2), rank_of(ic, ie)])
    k_kind = np.concatenate(
        [
            np.zeros(np_, np.int8),
            np.full(np_, 1, np.int8),
            np.full(no, 2, np.int8),
            np.full(ni, 3, np.int8),
        ]
    )
    zero_p = np.zeros(np_, np.int64)
    k_turn = np.concatenate([zero_p, zero_p, ot2, np.zeros(ni, np.int64)])
    k_ref = np.concatenate(
        [np.zeros(np_, np.int8), np.zeros(np_, np.int8), orf2, np.zeros(ni, np.int8)]
    )
    k_pos = np.concatenate([zero_p, zero_p, np.zeros(no, np.int64), ipos])
    final = np.lexsort((k_pos, k_ref, k_turn, k_kind, k_rank, k_conv))
    final_pa = pa.array(final, pa.int64())

    occ_obj = _pc.binary_join_element_wise(
        conv_pa.take(pa.array(oc2, pa.int64())),
        _pc.cast(pa.array(ot2, pa.int64()), pa.string()),
        "#",
    )

    subj_codes = np.concatenate([pe, pe, oe2, ie])
    subj_col = names_pa.take(pa.array(subj_codes, pa.int64())).take(final_pa)
    pred_col = pa.array(
        ["hasType", "mentionedIn", "occursIn", "hasInterface"], pa.string()
    ).take(pa.array(k_kind[final].astype(np.int64)))
    obj_col = _pa_concat(
        [
            types_pa.take(pa.array(pe, pa.int64())),
            conv_pa.take(pa.array(pc_, pa.int64())),
            occ_obj,
            if_flat_pa.take(pa.array(if_take, pa.int64())),
        ]
    ).take(final_pa)
    conv_col = conv_pa.take(pa.array(k_conv[final], pa.int64()))
    turn_sorted = k_turn[final]
    is_occ = k_kind[final] == 2
    ref_col = pa.array([None, "DIRECT", "INDIRECT"], pa.string()).take(
        pa.array(np.where(is_occ, k_ref[final].astype(np.int64) + 1, 0))
    )
    return pa.table(
        {
            "subj": subj_col,
            "pred": pred_col,
            "obj": obj_col,
            "conv_id": conv_col,
            "turn_idx": pa.array(
                np.where(is_occ, turn_sorted, -1), pa.int32(), mask=~is_occ
            ),
            "ref_type": ref_col,
        },
        schema=schema.TRIPLES,
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
