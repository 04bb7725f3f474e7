"""Character-set Jaccard similarity, conformant to Apache commons-text 1.15.0.

The reference resolves occurrence sentence-texts to line numbers with
``org.apache.commons.text.similarity.JaccardSimilarity`` over the two
lowercased strings (reference: model/SoftwareArchitectureDocumentation.java:145-168).
commons-text semantics (JaccardSimilarity#apply):

* both inputs empty  -> 1.0
* exactly one empty  -> 0.0
* else |chars(a) & chars(b)| / |chars(a) | chars(b)| over the sets of
  distinct characters (UTF-16 code units in Java; code points here —
  identical for BMP text, which covers the whole corpus).

``best_line`` reproduces ``SoftwareArchitectureDocumentation.getLineNumber``
exactly: iterate lines in order, keep the best score under strict ``>``
(earliest line wins ties), return the 1-based argmax if best >= 0.90
else -1.  Note the reference updates ``bestLineNumber`` only on a score
strictly greater than 0.0's running best, so an all-zero scan returns -1.
"""

from __future__ import annotations

import numpy as np

THRESHOLD = 0.90


def jaccard(a: str, b: str) -> float:
    """commons-text 1.15.0 JaccardSimilarity.apply(a, b)."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    sa, sb = set(a), set(b)
    return len(sa & sb) / len(sa | sb)


def best_line(lines: list[str], text: str, threshold: float = THRESHOLD) -> int:
    """1-based argmax line by jaccard(line.lower(), text.lower()); -1 below threshold.

    The oracle; :class:`LineResolver` is its vectorized production twin.
    Reference SoftwareArchitectureDocumentation.getLineNumber:145-168.
    """
    tl = text.lower()
    best_no, best_score = -1, 0.0
    for i, line in enumerate(lines, 1):
        score = jaccard(line.lower(), tl)
        if score > best_score:
            best_score = score
            best_no = i
    return best_no if best_score >= threshold else -1


class LineResolver:
    """Vectorized occurrence→line resolution for one conversation.

    Precomputes a boolean char-incidence matrix over the conversation's
    (lowercased) lines once; each query is then one small matmul instead
    of O(lines) Python-level set ops, and a repeated query is a dict
    hit.  Exactly reproduces ``best_line`` (strict-> tie-break, >=0.90
    threshold, commons-text empty-string rules).  The answers and llm
    kernels resolve every occurrence through one instance per
    conversation (``refsem.Sad(resolver=...)``).
    """

    def __init__(self, lines: list[str], threshold: float = THRESHOLD):
        self.threshold = threshold
        self.lower_lines = [ln.lower() for ln in lines]
        # vocabulary of characters appearing in any line
        vocab: dict[str, int] = {}
        for ln in self.lower_lines:
            for ch in set(ln):
                if ch not in vocab:
                    vocab[ch] = len(vocab)
        self.vocab = vocab
        n, v = len(lines), max(len(vocab), 1)
        inc = np.zeros((n, v), dtype=np.int32)  # int, not bool: matmul must count
        for i, ln in enumerate(self.lower_lines):
            for ch in set(ln):
                inc[i, vocab[ch]] = 1
        self.inc = inc
        self.line_sizes = inc.sum(axis=1)  # distinct in-vocab chars per line
        self.line_empty = np.array([len(ln) == 0 for ln in self.lower_lines])
        self.memo: dict[str, int] = {}

    def resolve(self, text: str) -> int:
        """1-based best line for ``text`` or -1 (threshold / no positive score)."""
        line = self.memo.get(text)
        if line is None:
            line = self.memo[text] = self._scan(text)
        return line

    def _scan(self, text: str) -> int:
        if not self.lower_lines:
            return -1
        tl = text.lower()
        tset = set(tl)
        if not tset:
            # commons-text: empty vs empty -> 1.0; empty vs non-empty -> 0.0.
            # First empty line (score 1.0) wins; no empty lines -> all 0 -> -1.
            idx = np.flatnonzero(self.line_empty)
            return int(idx[0]) + 1 if idx.size and 1.0 >= self.threshold else -1
        q = np.zeros(self.inc.shape[1], dtype=np.int32)
        for ch in tset:
            j = self.vocab.get(ch)
            if j is not None:  # OOV chars still count in the union via len(tset)
                q[j] = 1
        inter = self.inc @ q  # per-line intersection sizes
        union = self.line_sizes + len(tset) - inter
        union = np.maximum(union, 1)
        scores = inter / union
        scores[self.line_empty] = 0.0  # empty line vs non-empty text -> 0.0
        best = int(np.argmax(scores))  # np.argmax returns FIRST max = earliest line
        if scores[best] <= 0.0:
            return -1
        return best + 1 if scores[best] >= self.threshold else -1
