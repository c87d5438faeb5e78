"""Character n-gram vocabulary: text normalization, n-gram extraction, counting.

A text is normalized into a space-padded character sequence, every contiguous
character window of the configured orders is extracted (windows spanning word
boundaries included), and a vocabulary maps the surviving n-grams to dense
indices. Sequences are then encoded as sparse index -> count maps.
"""

from __future__ import annotations

import hashlib
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import DataError

# A normalized, boundary-padded character sequence. Plain str: Python strings
# already are sequences of Unicode scalar values, which is the unit we count in.
CharSeq = str

# Sparse encoding of a sequence: vocabulary index -> n-gram occurrence count.
CountVector = dict[int, int]

CASE_MODES = ("lower", "preserve")

MAX_ORDER = 255  # order is persisted as a single byte


def check_case_mode(case_mode: str) -> str:
    if case_mode == "lowercase":  # accepted alias
        return "lower"
    if case_mode not in CASE_MODES:
        raise ValueError(f"case_mode must be one of {CASE_MODES}, got {case_mode!r}")
    return case_mode


def normalize(text: str, case_mode: str = "lower") -> CharSeq:
    """Collapse whitespace, optionally lowercase, and pad with boundary spaces.

    Leading/trailing whitespace is stripped and internal whitespace runs are
    collapsed to a single space, then exactly one space is prepended and
    appended so that word-initial and word-final n-grams are distinguishable.
    Empty input yields the two-space sequence.
    """
    case_mode = check_case_mode(case_mode)
    collapsed = " ".join(text.split())
    if case_mode == "lower":
        collapsed = collapsed.lower()
    return f" {collapsed} "


def _check_orders(orders: Iterable[int]) -> tuple[int, ...]:
    out = tuple(sorted(set(orders)))
    if not out:
        raise ValueError("orders must be non-empty")
    for n in out:
        if not isinstance(n, int) or n < 1 or n > MAX_ORDER:
            raise ValueError(f"n-gram order must be an integer in [1, {MAX_ORDER}], got {n!r}")
    return out


def extract_ngrams(seq: CharSeq, orders: Iterable[int]) -> Counter:
    """Count every contiguous substring of `seq` whose length is in `orders`.

    Substrings spanning word boundaries (containing internal spaces) are
    included. For a single order n the counts sum to max(0, len(seq) - n + 1).
    """
    counts: Counter = Counter()
    for n in _check_orders(orders):
        for i in range(len(seq) - n + 1):
            counts[seq[i : i + n]] += 1
    return counts


@dataclass(frozen=True)
class MinCount:
    """Keep n-grams whose corpus count is >= min_count."""

    min_count: int

    def __post_init__(self):
        if self.min_count < 1:
            raise ValueError("min_count must be a positive integer")


@dataclass(frozen=True)
class TopKPerOrder:
    """Keep, for each order independently, the k most frequent n-grams."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")


VocabPolicy = Union[MinCount, TopKPerOrder]


class NGramVocab:
    """Ordered n-gram -> index map with per-entry order and corpus count.

    `entries` is the canonical list of (ngram, order, corpus_count) tuples;
    `index` maps each n-gram to its position in `entries`. Vocabularies built
    by `build_vocab` are sorted by (order asc, count desc, n-gram code points
    asc); vocabularies reconstructed from files keep their stored order.
    """

    __slots__ = ("entries", "index", "orders", "_fingerprint")

    def __init__(self, entries: list[tuple[str, int, int]], orders: Iterable[int] | None = None):
        self.entries = list(entries)
        self.index: dict[str, int] = {}
        for pos, (ngram, order, count) in enumerate(self.entries):
            if ngram in self.index:
                raise DataError(f"duplicate n-gram in vocabulary: {ngram!r}")
            if not 1 <= order <= MAX_ORDER:
                raise DataError(f"bad n-gram order {order} for {ngram!r}")
            if len(ngram) != order:
                raise DataError(f"n-gram {ngram!r} length does not match order {order}")
            if count < 0:
                raise DataError(f"negative corpus count for {ngram!r}")
            self.index[ngram] = pos
        entry_orders = {order for _, order, _ in self.entries}
        if orders is None:
            self.orders = frozenset(entry_orders)
        else:
            self.orders = frozenset(_check_orders(orders))
            if not entry_orders <= self.orders:
                raise DataError("vocabulary contains entries outside the declared orders")
        self._fingerprint: int | None = None

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, ngram: str) -> bool:
        return ngram in self.index

    def __eq__(self, other) -> bool:
        if not isinstance(other, NGramVocab):
            return NotImplemented
        return self.entries == other.entries and self.orders == other.orders

    @property
    def max_order(self) -> int:
        if not self.orders:
            return 0
        return max(self.orders)

    @property
    def fingerprint(self) -> int:
        """64-bit checksum over (ngram, order) pairs in entry order.

        Corpus counts are excluded so that a vocabulary reconstructed from a
        model file (which does not persist counts) fingerprints identically.
        """
        if self._fingerprint is None:
            h = hashlib.blake2b(digest_size=8)
            for ngram, order, _ in self.entries:
                raw = ngram.encode("utf-8")
                h.update(len(raw).to_bytes(2, "little"))
                h.update(raw)
                h.update(bytes([order]))
            self._fingerprint = int.from_bytes(h.digest(), "little")
        return self._fingerprint


def build_vocab(
    corpus: Iterable[str],
    orders: Iterable[int],
    policy: VocabPolicy,
    case_mode: str = "lower",
) -> NGramVocab:
    """Count n-grams over a normalized corpus and apply a selection policy.

    MinCount(C) keeps n-grams seen at least C times. TopKPerOrder(k) keeps,
    for each order independently, the k highest-count n-grams, ties broken
    lexicographically ascending by code point. Counting is insensitive to the
    order of the corpus stream and the tie-break is total, so the result is
    deterministic. An empty corpus is an error; a policy that filters out
    every n-gram yields an empty vocabulary with a warning.
    """
    orders = _check_orders(orders)
    case_mode = check_case_mode(case_mode)
    counts: Counter = Counter()
    saw_text = False
    for text in corpus:
        saw_text = True
        counts.update(extract_ngrams(normalize(text, case_mode), orders))
    if not saw_text:
        raise DataError("empty corpus")

    if isinstance(policy, MinCount):
        kept = [(ng, c) for ng, c in counts.items() if c >= policy.min_count]
    elif isinstance(policy, TopKPerOrder):
        kept = []
        for n in orders:
            of_order = [(ng, c) for ng, c in counts.items() if len(ng) == n]
            of_order.sort(key=lambda item: (-item[1], item[0]))
            kept.extend(of_order[: policy.k])
    else:
        raise TypeError(f"unknown vocabulary policy: {policy!r}")

    entries = sorted(((ng, len(ng), c) for ng, c in kept), key=lambda e: (e[1], -e[2], e[0]))
    if not entries:
        warnings.warn("vocabulary policy removed every n-gram; vocabulary is empty")
    return NGramVocab(entries, orders=orders)


def encode(seq: CharSeq, vocab: NGramVocab) -> CountVector:
    """Map a normalized sequence to sparse {index: count} over `vocab`.

    N-grams absent from the vocabulary are dropped; the result may be empty.
    Keys appear in the order `extract_ngrams` first meets their n-grams.
    """
    cv: CountVector = {}
    index = vocab.index
    for n in sorted(vocab.orders):
        for i in range(len(seq) - n + 1):
            pos = index.get(seq[i : i + n])
            if pos is not None:
                cv[pos] = cv.get(pos, 0) + 1
    return cv
