"""Character n-gram vocabulary: text normalization, n-gram extraction, counting.

A text is normalized into a space-padded character sequence, every contiguous
character window of the configured orders is extracted (windows spanning word
boundaries included), and a vocabulary maps the surviving n-grams to dense
indices. Sequences are then encoded as sparse index -> count maps, one at a
time (`encode`), or a batch at a time as the arrays of a column-major (CSC)
count matrix (`encode_batch`).

A batch, the corpus `build_vocab` counts and a vocabulary's key table go
through one array pass over their joined code points (`_window_keys`): each
character becomes its rank in a sorted alphabet (a batch gathers it from the
key table's rank-per-code-point array), and the window of order n starting
at each position is packed into one int64 key, its first character most
significant. Packed keys of one order sort as their n-grams do, by code
point. A key must fit in 63 bits: with A ranks, orders up to n need
A**n <= 2**63. Past that, whenever the next character would overflow them,
the keys are replaced by their ranks among distinct keys: counting and the
key table re-rank against their own, a batch against the key table's.

A batch finds the entry of each window through the key table: one slot per
possible key for an order whose key range is at most `_SLOT_LIMIT`, so one
array gather; a binary search over the order's sorted keys otherwise. Each
hit becomes one int64 cell, the entry index above the row number's bits, so
one sort puts the cells in column-major order and a shift and a mask read
them back.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import DataError

# A normalized, boundary-padded character sequence. Plain str: Python strings
# already are sequences of Unicode scalar values, which is the unit we count in.
CharSeq = str

# Sparse encoding of a sequence: vocabulary index -> n-gram occurrence count.
CountVector = dict[int, int]

CASE_MODES = ("lower", "preserve")

MAX_ORDER = 255  # order is persisted as a single byte

# The n-gram table is the byte layout the fingerprint hashes and model files
# store: per entry, in entry order, a 2-byte little-endian UTF-8 length, the
# UTF-8 bytes and the order byte. Length prefixes and order bytes are encoded
# once (an n-gram of order k is at most 4k bytes of UTF-8).
_LENGTH_BYTES = [n.to_bytes(2, "little") for n in range(4 * MAX_ORDER + 1)]
_ORDER_BYTES = {order: bytes((order,)) for order in range(1, MAX_ORDER + 1)}

# Packed window keys are int64: a key of order n over A ranks fits when A**n
# does not exceed this.
_KEY_LIMIT = 2**63

# A vocabulary order whose key range A**n does not exceed this is looked up
# through a slot per key (`NGramVocab.key_table`): at most 8 or 16 MiB.
_SLOT_LIMIT = 2**22


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


def check_orders(orders: Iterable[int]) -> tuple[int, ...]:
    out = tuple(sorted(set(orders)))
    if not out:
        raise ValueError("orders must be non-empty")
    for n in out:
        if not isinstance(n, int) or n < 1 or n > MAX_ORDER:
            raise ValueError(f"n-gram order must be an integer in [1, {MAX_ORDER}], got {n!r}")
    return out


def _code_points(seqs: Sequence[str]) -> tuple[str, np.ndarray, np.ndarray]:
    """The texts joined, the code point of each of its characters, and where each text ends."""
    joined = "".join(seqs)
    # a lone surrogate is one character of a Python string, and one code point here
    points = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    ends = np.cumsum(np.fromiter(map(len, seqs), dtype=np.intp, count=len(seqs)))
    return joined, points, ends


def _lookup(table: np.ndarray, values: np.ndarray, missing: int) -> np.ndarray:
    """The position of each of `values` in the sorted `table`, or `missing` where absent."""
    if not len(table):
        return np.full(len(values), missing, dtype=np.intp)
    at = np.minimum(np.searchsorted(table, values), len(table) - 1)
    return np.where(table[at] == values, at, missing)


def _window_keys(
    ranks: np.ndarray, ends: np.ndarray, orders: Sequence[int], base: int, reranks: dict
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Per order n of `orders` (ascending): where each window of n characters that
    stays inside its text starts, and the window's key.

    `ranks` holds the rank, below `base`, of each character of the joined
    texts, and `ends` the offset where each text ends. Starts ascend, so the
    windows of one text come in text order, order by order. A key packs its
    window's characters; where the next character would overflow 63 bits,
    the keys of width w so far are first replaced by their positions in
    `reranks[w]`, sorted distinct keys (one past the last for a key not
    there). A missing width is filled with the texts' own distinct keys, so
    keys of one order sort as their windows do. The widths re-ranked depend
    only on `base` and `reranks`, so a window keyed with a vocabulary's
    (`NGramVocab.key_table`) gets its n-gram's key if it is one.
    """
    limit = np.repeat(ends, np.diff(ends, prepend=0))  # the end of each position's text
    keys = ranks.astype(np.int64)
    bound = base  # every key is below it
    width = 1
    for n in orders:
        while width < n:
            if bound * base > _KEY_LIMIT:
                if width in reranks:
                    keys = _lookup(reranks[width], keys, len(reranks[width]))
                else:
                    reranks[width], keys = np.unique(keys, return_inverse=True)
                bound = len(reranks[width]) + 1  # room for a key not found
            keys = keys[:-1] * base + ranks[width:]
            bound *= base
            width += 1
        starts = np.flatnonzero(limit[: len(keys)] - np.arange(len(keys)) >= n)
        yield n, starts, keys[starts]


def _tally(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values, sorted; where each first occurs in `values`; how often.

    np.unique(values, return_index=True, return_counts=True), but on an
    unstable sort, several times faster than the stable one np.unique needs
    for first occurrences.
    """
    by_value = np.argsort(values)
    ordered = values[by_value]
    starts = np.ones(len(values), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    runs = np.flatnonzero(starts)
    first = np.minimum.reduceat(by_value, runs) if len(runs) else runs
    return ordered[runs], first, np.diff(runs, append=len(values))


def _ngram_counts(
    seqs: Sequence[CharSeq], orders: tuple[int, ...]
) -> Iterator[tuple[int, Callable[[np.ndarray], list[str]], np.ndarray]]:
    """Per order n ascending: the distinct n-grams of `seqs` in code point order,
    as a function from their positions in that order to the n-grams, and their
    counts, in one array pass for any alphabet.
    """
    joined, points, ends = _code_points(seqs)
    alphabet, ranks = np.unique(points, return_inverse=True)
    for n, starts, keys in _window_keys(ranks, ends, orders, len(alphabet), {}):
        # the keys of one order sort as their n-grams do
        _, first, tally = _tally(keys)
        where = starts[first]
        yield n, lambda at, s=where, n=n: [joined[p : p + n] for p in s[at].tolist()], tally


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


def ngram_table(entries: Iterable[tuple[str, int, int]]) -> bytes:
    """The n-gram table of `entries`; corpus counts are not part of it.

    DataError for an entry the table cannot hold: an order outside [1,
    MAX_ORDER], or more than 4 * MAX_ORDER UTF-8 bytes.
    """
    parts = []
    for ngram, order, _ in entries:
        raw = ngram.encode("utf-8")
        try:
            parts += (_LENGTH_BYTES[len(raw)], raw, _ORDER_BYTES[order])
        except (IndexError, KeyError, TypeError) as err:
            raise DataError(f"the n-gram table cannot hold {ngram!r} of order {order!r}") from err
    return b"".join(parts)


def _encodable(text: str) -> bool:
    """True unless `text` holds a code point UTF-8 cannot encode (a lone surrogate)."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def table_fingerprint(table: bytes) -> int:
    """64-bit blake2b digest of an n-gram table, read little-endian."""
    return int.from_bytes(hashlib.blake2b(table, digest_size=8).digest(), "little")


def _all_of(kind: type, column: list) -> bool:
    """True if every value of `column` is of type `kind` exactly (for int, a bool is not)."""
    return set(map(type, column)) <= {kind}


def _walk_table(table: bytes, count: int) -> list[tuple[str, int, int]]:
    """The `count` entries of an n-gram table, with zero counts, one entry at a time;
    DataError if malformed."""
    entries = []
    pos = 0
    try:
        for _ in range(count):
            start = pos + 2
            stop = start + (table[pos] | table[pos + 1] << 8)
            entries.append((table[start:stop].decode("utf-8"), table[stop], 0))
            pos = stop + 1
    except IndexError as err:
        raise DataError("n-gram table ends inside an entry") from err
    except UnicodeDecodeError as err:
        raise DataError("bad n-gram bytes") from err
    if pos != len(table):
        raise DataError("trailing bytes in the n-gram table")
    return entries


def _split_table(table: bytes, count: int) -> tuple[list[str], list[int]] | None:
    """The n-grams and orders of the `count` entries of an n-gram table, split in
    array passes and decoded at once; None for a table they cannot split.

    An entry starts one byte before each zero: the 2-byte length of an
    n-gram below 256 UTF-8 bytes has a zero high byte, and no other byte of a
    valid table is zero unless an n-gram holds U+0000. The starts found are
    taken only if they are the chain `_walk_table` follows: `count` of them,
    the first at 0, each next at start + 3 + length, the last entry ending
    the table. A verified chain is the walk's own, so nothing is guessed, and
    its n-grams hold no zero byte: each zero marked a start. The order bytes,
    before each next start, then become zeros, the length bytes go, and the
    rest decodes as one UTF-8 string split at the zeros into the n-grams.

    None when an n-gram holds U+0000 or has 256 or more UTF-8 bytes, or the
    table is malformed: `_walk_table` reads the first two and names the
    fault in the last.
    """
    t = np.frombuffer(table, dtype=np.uint8)
    starts = np.flatnonzero(t[1:] == 0)
    if len(starts) != count:
        return None
    ends = starts + 3 + t[starts]
    if not np.array_equal(np.append(0, ends), np.append(starts, len(t))):
        return None
    text = t.copy()
    text[ends - 1] = 0
    keep = np.ones(len(t), dtype=bool)
    keep[starts] = keep[starts + 1] = False
    try:
        ngrams = text[keep].tobytes().decode("utf-8").split("\x00")
    except UnicodeDecodeError:
        return None
    ngrams.pop()  # after the last separator
    return ngrams, t[ends - 1].tolist()


class NGramVocab:
    """Ordered n-gram -> index map with per-entry order and corpus count.

    `entries` is the canonical list of (ngram, order, corpus_count) tuples,
    `index` maps each n-gram to its position in it, and `orders` holds the
    entries' orders; equal entries make equal vocabularies. `build_vocab`
    sorts entries by (order asc, count desc, n-gram code points asc); files
    keep their stored order.
    """

    __slots__ = ("entries", "index", "orders", "_table", "_fingerprint", "_keys")

    def __init__(self, entries: list[tuple[str, int, int]]):
        entries = list(entries)
        ngrams = list(map(itemgetter(0), entries))
        entry_orders = list(map(itemgetter(1), entries))
        counts = list(map(itemgetter(2), entries))
        self._fill(
            entries, ngrams, entry_orders,
            not entries or (
                _all_of(str, ngrams)
                and _all_of(int, entry_orders)
                and _all_of(int, counts)
                and min(counts) >= 0
                and _encodable("".join(ngrams))
            ),
        )

    def _fill(self, entries: list, ngrams: list[str], entry_orders: list[int], valid: bool) -> None:
        """Set the vocabulary from its entries and their n-gram and order columns.

        `valid` holds the checks only some callers need: that n-grams are
        strs, orders and counts ints, counts not negative, and n-grams
        encodable. When it is False the entries are checked one by one
        first, since an n-gram or an order of a wrong type may not hash.
        """
        self.entries = entries
        # whole-column checks; the entry loop runs only to name the first bad entry
        if entries and not valid:
            self._check_entries()
        self.orders = frozenset(entry_orders)
        self.index: dict[str, int] = dict(zip(ngrams, range(len(ngrams))))
        if entries and not (
            len(self.index) == len(ngrams)
            and list(map(len, ngrams)) == entry_orders
            and 1 <= min(self.orders)
            and max(self.orders) <= MAX_ORDER
        ):
            self._check_entries()
        self._table: bytes | None = None
        self._fingerprint: int | None = None
        self._keys: tuple[np.ndarray, dict, dict, int] | None = None  # `key_table()`, built once

    def _check_entries(self) -> None:
        """Raise DataError naming the first malformed entry, in entry order."""
        seen: set[str] = set()
        for ngram, order, count in self.entries:
            if not isinstance(ngram, str):
                raise DataError(f"n-gram {ngram!r} is not a string")
            if ngram in seen:
                raise DataError(f"duplicate n-gram in vocabulary: {ngram!r}")
            if not (type(order) is int and 1 <= order <= MAX_ORDER):
                raise DataError(f"bad n-gram order {order!r} for {ngram!r}")
            if len(ngram) != order:
                raise DataError(f"n-gram {ngram!r} length does not match order {order}")
            if type(count) is not int:
                raise DataError(f"bad corpus count {count!r} for {ngram!r}")
            if count < 0:
                raise DataError(f"negative corpus count for {ngram!r}")
            if not _encodable(ngram):
                raise DataError(f"n-gram {ngram!r} cannot be encoded as UTF-8")
            seen.add(ngram)

    @classmethod
    def from_table(cls, table: bytes, count: int, fingerprint: int) -> NGramVocab:
        """The vocabulary of `count` entries stored in an n-gram table, counts zero.

        The table's digest must be `fingerprint`; it is checked before any
        entry is parsed, and kept. Raises DataError otherwise or when the
        table is malformed.

        The table is split and decoded in array passes (`_split_table`), and
        the vocabulary is built from the n-gram and order columns they give,
        with its checks on whole columns: counts are zero, and n-grams
        decoded from UTF-8 encode. A table holding a U+0000 n-gram or one of
        256 or more UTF-8 bytes, or a malformed one, is read one entry at a
        time (`_walk_table`), which names the first bad entry.
        """
        if table_fingerprint(table) != fingerprint:
            raise DataError("vocabulary fingerprint mismatch")
        columns = _split_table(table, count)
        if columns is None:
            vocab = cls(_walk_table(table, count))
        else:
            ngrams, entry_orders = columns
            vocab = cls.__new__(cls)
            vocab._fill(list(zip(ngrams, entry_orders, repeat(0))), ngrams, entry_orders, True)
        vocab._table = table
        vocab._fingerprint = fingerprint
        return vocab

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, ngram: str) -> bool:
        return ngram in self.index

    def __eq__(self, other) -> bool:
        if not isinstance(other, NGramVocab):
            return NotImplemented
        return self.entries == other.entries

    @property
    def table(self) -> bytes:
        """The n-gram table of the entries, built once."""
        if self._table is None:
            self._table = ngram_table(self.entries)
        return self._table

    def key_table(self) -> tuple[np.ndarray, dict, dict, int]:
        """The keys of the entries, per order, built once for `encode_batch`.

        Returns (rank_of, reranks, tables, base). `rank_of` is an int32 array
        indexed by code point, one past the largest code point of the
        entries: a character's rank is 1 + its position among those code
        points, sorted, and rank 0, which the last slot and every unused one
        hold, is left for characters outside them. A batch clips its code
        points to the last slot and gathers, so the table is all its rank
        lookup needs; it takes at most 4.4 MB, at U+10FFFF. `reranks` are the
        re-ranks `_window_keys` made keying the entries, one text per entry,
        with `base`, the number of distinct code points plus one; `tables`
        holds per order with entries its lookup table.

        An order n whose key range base**n is at most `_SLOT_LIMIT` gets a
        direct-address array of base**n slots, each holding the index of the
        entry with that key, or -1: int16 below 2**15 entries, else int32, so
        at most 8 or 16 MiB per order (order 4 over 27 characters takes 1.2 or
        2.5 MB). Every key of such an order is below base**n, re-ranked or
        not: a rank among distinct keys is below their count. Any other order
        gets its entries' keys, sorted, and their entry indices.
        """
        if self._keys is None:
            _, points, ends = _code_points(list(map(itemgetter(0), self.entries)))
            alphabet, ranks = np.unique(points, return_inverse=True)
            rank_of = np.zeros(int(alphabet.max(initial=0)) + 2, dtype=np.int32)
            rank_of[alphabet] = np.arange(1, len(alphabet) + 1)
            orders = np.diff(ends, prepend=0)  # an n-gram's length is its order
            base = len(alphabet) + 1
            slot_type = np.int16 if len(self) < 2**15 else np.int32
            reranks, tables = {}, {}
            present = np.unique(orders).tolist()
            for n, starts, keys in _window_keys(ranks + 1, ends, present, base, reranks):
                of_order = np.flatnonzero(orders == n)
                keys = keys[np.searchsorted(starts, ends[of_order] - n)]
                if base**n <= _SLOT_LIMIT:
                    tables[n] = np.full(base**n, -1, dtype=slot_type)
                    tables[n][keys] = of_order
                else:
                    by_key = np.argsort(keys)
                    tables[n] = (keys[by_key], of_order[by_key])
            self._keys = (rank_of, reranks, tables, base)
        return self._keys

    @property
    def fingerprint(self) -> int:
        """64-bit checksum over (ngram, order) pairs in entry order: the table's digest.

        Corpus counts are excluded so that a vocabulary reconstructed from a
        model file (which does not persist counts) fingerprints identically.
        """
        if self._fingerprint is None:
            self._fingerprint = table_fingerprint(self.table)
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
    deterministic. An empty corpus is an error, and so is a kept n-gram that
    UTF-8 cannot encode (one holding a lone surrogate); a policy that filters
    out every n-gram yields an empty vocabulary with a warning, and an order
    that keeps no n-gram is not among the vocabulary's `orders`.

    The corpus is counted in one array pass (see the module docstring).
    """
    orders = check_orders(orders)
    case_mode = check_case_mode(case_mode)
    seqs = [normalize(text, case_mode) for text in corpus]
    if not seqs:
        raise DataError("empty corpus")
    if not isinstance(policy, (MinCount, TopKPerOrder)):
        raise TypeError(f"unknown vocabulary policy: {policy!r}")

    entries: list[tuple[str, int, int]] = []
    for n, ngrams_at, counts in _ngram_counts(seqs, orders):
        # count descending; the stable sort keeps code point order among ties
        ranked = np.argsort(-counts, kind="stable")
        if isinstance(policy, MinCount):
            kept = ranked[counts[ranked] >= policy.min_count]
        else:
            kept = ranked[: policy.k]
        entries += zip(ngrams_at(kept), repeat(n), counts[kept].tolist())
    if not entries:
        warnings.warn("vocabulary policy removed every n-gram; vocabulary is empty")
    return NGramVocab(entries)


def encode(seq: CharSeq, vocab: NGramVocab) -> CountVector:
    """Map a normalized sequence to sparse {index: count} over `vocab`.

    N-grams absent from the vocabulary are dropped; the result may be empty.
    Keys appear in the order their n-grams first occur, scanning the windows
    of each order (ascending) from the start of `seq`.
    """
    cv: CountVector = {}
    index = vocab.index
    for n in sorted(vocab.orders):
        for i in range(len(seq) - n + 1):
            pos = index.get(seq[i : i + n])
            if pos is not None:
                cv[pos] = cv.get(pos, 0) + 1
    return cv


def encode_batch(
    seqs: Sequence[CharSeq], vocab: NGramVocab
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSC arrays (indptr, indices, data) of the count matrix whose row i is
    `encode(seqs[i], vocab)`, for sequences as given: the caller normalizes them
    (`model.encode_matrix` does, in its model's case mode).

    `indptr` has len(vocab) + 1 offsets, and each column lists the rows that
    hold its n-gram in ascending order, with their counts as float64. The
    batch is encoded in one array pass against `vocab.key_table()`, built at
    the first call and kept, for any alphabet: each character's rank is one
    gather from the table's rank-per-code-point array, code points clipped to
    its last slot, and its windows are keyed with the table's base and
    re-ranks, so a window's key is that of the vocabulary n-gram equal to it,
    if any. An order with slots finds its windows' entries in one gather; any
    other order sorts its distinct keys and binary-searches them in the
    table's. Each hit is packed as the cell entry << shift | row, with shift
    the bit length of rows - 1 (a ValueError if len(vocab) << shift passes
    2**63); the sorted cells are read back with a shift and a mask. For a
    single text `encode` is faster: the array pass has a fixed cost of
    several array operations per order, and the offsets one of O(len(vocab)).
    """
    rank_of, reranks, tables, base = vocab.key_table()
    _, points, ends = _code_points(seqs)
    # each character's rank among the vocabulary's code points, 0 outside them
    ranks = rank_of[np.minimum(points, len(rank_of) - 1)]
    rows = len(seqs)
    row_of = np.repeat(np.arange(rows), np.diff(ends, prepend=0))
    shift = _row_bits(rows)
    if len(vocab) << shift > 2**63:  # int64 cells
        raise ValueError(f"{rows} rows over {len(vocab)} entries overflow an int64 cell")
    # each in-vocabulary window as one cell, index << shift | row: sorted, column-major
    hits = [np.empty(0, dtype=np.intp)]
    for n, starts, keys in _window_keys(ranks, ends, tuple(tables), base, reranks):
        if isinstance(tables[n], np.ndarray):  # one slot per key
            slot = tables[n][keys]
            hit = slot >= 0
            entry = slot[hit].astype(np.intp)
        else:
            table_keys, table_index = tables[n]
            distinct, key_at = np.unique(keys, return_inverse=True)
            at = _lookup(table_keys, distinct, -1)[key_at]
            hit = at >= 0
            entry = table_index[at[hit]]
        hits.append(entry << shift | row_of[starts[hit]])
    cells = np.sort(np.concatenate(hits))
    # a run of equal cells is one entry, counted by its length
    runs = np.flatnonzero(np.diff(cells, prepend=-1))
    firsts = cells[runs]
    indptr = np.zeros(len(vocab) + 1, dtype=np.intp)
    np.cumsum(np.bincount(firsts >> shift, minlength=len(vocab)), out=indptr[1:])
    return indptr, firsts & ((1 << shift) - 1), np.diff(runs, append=len(cells)).astype(np.float64)


def _row_bits(rows: int) -> int:
    """The bits a row number below `rows` takes in a packed cell."""
    return max(rows - 1, 0).bit_length()
