"""Brute-force nearest-neighbor search over a word list and over n-gram rows.

Both searches read a `model.RowIndex`, built by one pass over the rows: their
norms and, where a size rule asks for them, a read-only float32 copy of the
rows scaled to unit norm (4·n·d bytes). One routine, `_search`, answers both.
Given unit rows it scores every row in float32, keeps only the rows that can
still make the top k once the float32 error is allowed for (`_screen`), and
ranks those by their exact float64 cosine: the answer a float64 scan of every
row gives, bit for bit, for about half the bytes read. Otherwise it scans
every row in float64.

The two size rules: a working vocabulary (a word list, its embeddings
read-only, and the model that embedded them) keeps unit rows from
_SCREEN_MIN_ENTRIES entries (rows × d) up, as below that one float64
matrix-vector product is faster (BENCH_nn_screen.json); the model keeps them
for its weights always (`Model.row_index`, built at the first n-gram query),
as an exact scan of n-gram rows must score each row on its own, which the
screen beats from about 2^16 entries (ROADMAP, 'Measured and not taken').
The weights are read-only while the index is held; training and the
gradient audit drop it before they write. Writes through another array
sharing their memory are not caught. Rows of dimension 0, and a row or query
of norm not finite or not below 2^511, cannot be searched (DataError); no
model file holds such a row, as its parameters are finite in float32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DataError
from .model import (
    _UNIT_NORM_LIMIT,
    COSINE_NORM_FLOOR,
    Model,
    RowIndex,
    _index_rows,
    embed,
    embed_matrix,
    encode_matrix,
    verify_binding,
)
from .vocab import NGramVocab, encode, normalize


# Word lists of at least this many entries (rows × d) are screened in float32;
# smaller ones are scanned with one float64 product, which is faster there.
# From the crossover measured in BENCH_nn_screen.json.
_SCREEN_MIN_ENTRIES = 2**18


@dataclass
class WorkingVocab:
    """Unique normalized words with embeddings computed under one model+vocab.

    `embeddings` is coerced to float64 and marked read-only in place (not
    copied). `index`, their `RowIndex`, is built here, once; it holds unit rows
    from _SCREEN_MIN_ENTRIES entries (rows × d) up. `embedded_by` is the
    model `build_working_vocab` embedded the words with (the object, not a
    copy), and only that model may query it; a working vocabulary built
    directly from arrays has none and checks only d. DataError for a row of
    norm not finite or not below 2^511, leaving `embeddings` writeable.
    """

    words: list[str]  # normalized, without the boundary padding; not empty
    embeddings: np.ndarray  # (len(words), d), read-only
    index: RowIndex = field(init=False, repr=False, compare=False)
    embedded_by: Model | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        if self.embeddings.ndim != 2 or len(self.embeddings) != len(self.words):
            raise DataError(
                f"working vocabulary needs one embedding row per word: {len(self.words)} "
                f"words, embeddings of shape {self.embeddings.shape}"
            )
        if not self.words:
            raise DataError("empty word list")
        self.index = _index_rows(self.embeddings, self.embeddings.size >= _SCREEN_MIN_ENTRIES)
        self.embeddings.flags.writeable = False


def _cosines(matrix: np.ndarray, query: np.ndarray, qn: float, norms: np.ndarray, dot):
    """Cosine of `query`, of norm `qn`, with each row of `matrix`, of `norms`; zero norms score 0.

    The rows are scaled after the product `dot(matrix, query)`, so no normalized
    copy of `matrix` (the whole weight table, for n-gram queries) is made.
    """
    cosines = np.zeros(len(norms))
    if qn >= COSINE_NORM_FLOOR:
        np.divide(dot(matrix, query), norms * qn, out=cosines, where=norms >= COSINE_NORM_FLOOR)
    return cosines


def _row_dots(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    """matrix @ query as one einsum reduction per row.

    A row's product has the same bits whatever rows are scored with it, in
    whatever order or position; a BLAS gemv's can differ in the last bit.
    """
    return np.einsum("ij,j->i", np.ascontiguousarray(matrix), query)


def build_working_vocab(words: list[str], model: Model, vocab: NGramVocab) -> WorkingVocab:
    """Normalize (in the model's case mode), deduplicate, and embed a word list."""
    if not words:
        raise DataError("empty word list")
    padded = list(dict.fromkeys(normalize(w, model.input_case_mode) for w in words))
    counts = encode_matrix(padded, vocab, model)
    return WorkingVocab([seq[1:-1] for seq in padded], embed_matrix(counts, model), model)


def _rank(name: Callable[[int], str], cosines: np.ndarray, exclude: set[str], k: int):
    # only entries scoring at least the (k + |exclude|)-th best cosine can be
    # in the top k, so only those are named and sorted (by cosine, then name)
    top = min(k + len(exclude), len(cosines))
    floor = -np.partition(-cosines, top - 1)[top - 1]
    picked = np.flatnonzero(cosines >= floor)
    ranked = sorted(
        (-cos, word)
        for i, cos in zip(picked.tolist(), cosines[picked].tolist())
        if (word := name(i)) not in exclude
    )
    return [(word, -negated) for negated, word in ranked[:k]]


def nearest_neighbors(
    query: str, wv: WorkingVocab, model: Model, vocab: NGramVocab, k: int
) -> list[tuple[str, float]]:
    """Top-k working-vocabulary words by cosine to the embedded query.

    Entries string-equal to the normalized query are excluded; near-duplicates
    (inflections, misspellings) are legitimate neighbors and retained. Ties
    break by word lexicographic order. Shorter-than-k results are returned
    as-is. DataError unless `model` was built against `vocab`, unless it is
    the model that embedded `wv` (when `wv.embedded_by` records one), and for
    a query embedding of norm not finite or not below 2^511.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    verify_binding(model, vocab)
    if wv.embedded_by is not None and wv.embedded_by is not model:
        raise DataError("working vocabulary was embedded by another model")
    wv_dim = wv.embeddings.shape[1]
    if wv_dim != model.dim:
        raise DataError(f"working vocabulary has d={wv_dim}, the model d={model.dim}")
    padded = normalize(query, model.input_case_mode)
    q = embed(encode(padded, vocab), model).values
    return _search(wv.embeddings, wv.index, q, wv.words.__getitem__, {padded[1:-1]}, k, np.matmul)


def _search(matrix: np.ndarray, index: RowIndex, query: np.ndarray, name, exclude, k, scan_dot):
    """Top-k rows of `matrix` by cosine to `query`, as `_rank` names them with `name`.

    `index` is the matrix's `RowIndex`. DataError for a query whose norm is
    not finite or not below 2^511. Given unit rows, more than k + 1 rows and
    a query norm of at least COSINE_NORM_FLOOR, the rows `_screen` keeps are
    scored with `_row_dots`; otherwise all, with `scan_dot`.
    """
    qn = math.sqrt(np.vdot(query, query))  # one ddot; np.vdot does not warn on overflow
    if not qn < _UNIT_NORM_LIMIT:
        raise DataError(f"cannot search with a query of norm {qn:g}: it is not below 2^511")
    if index.units is not None and k + 1 < len(matrix) and qn >= COSINE_NORM_FLOOR:
        rows = _screen(index.units, (query / qn).astype(np.float32), k + 1)
        cosines = _cosines(matrix[rows], query, qn, index.norms[rows], _row_dots)
        return _rank(lambda i: name(rows[i]), cosines, exclude, k)
    return _rank(name, _cosines(matrix, query, qn, index.norms, scan_dot), exclude, k)


def _screen(units: np.ndarray, query: np.ndarray, top: int) -> np.ndarray:
    """The rows that can be among the `top` best by exact cosine to a query.

    `units` are the unit rows of a `RowIndex`, and `top` < len(units).
    `query` is the query's unit vector in float32: its float64 form divided
    by its norm, which is at least COSINE_NORM_FLOOR and below 2^511, then
    rounded.

    Why no such row is lost. Let s be a row's float32 score, the dot product
    of the float32 unit vectors, and c its exact cosine, as `_cosines`
    computes it in float64. The float32 sum of d products of unit-row entries
    is off by at most γ_d ≈ d·2⁻²⁴, and rounding the two unit vectors to float32
    adds at most 2·2⁻²⁴. What is left (the d²·2⁻⁴⁸ in γ_d, float64 rounding
    in c and in the unit vectors, float32 underflow) is orders of magnitude
    smaller. So δ = (d + 4)·2⁻²³ is at least twice the worst-case |s − c|;
    rows below the norm floor score exactly 0 both ways. Let τ be the
    `top`-th largest score. Those `top` rows have c ≥ τ − δ/2, so the
    `top`-th best exact cosine is at least τ − δ/2, and a row reaching it
    scores s ≥ c − δ/2 ≥ τ − δ. The rows kept are those with s ≥ τ − 2δ, a
    floor computed in float32: rounding moves it by at most 2⁻²⁴ < δ, so it
    stays below τ − δ.
    """
    delta = (units.shape[1] + 4) * 2.0**-23
    scores = units @ query
    tau = np.partition(scores, len(scores) - top)[len(scores) - top]
    return np.flatnonzero(scores >= tau - 2 * delta)  # a float32 floor, as argued above


def ngram_neighbors(
    query_ngram: str, model: Model, vocab: NGramVocab, k: int
) -> list[tuple[str, float]]:
    """Top-k vocabulary n-grams whose weight rows are cosine-closest to the query's row.

    A float32 pass over the model's cached unit rows picks the candidates and
    only they are scored in float64 (`_screen`), so the answer is the one an
    exhaustive float64 scan of every row gives. DataError unless `model` was
    built against `vocab`, at d = 0, and for a weight row of norm not finite or
    not below 2^511 (`Model.row_index`), which no loaded model has.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    verify_binding(model, vocab)
    pos = vocab.index.get(query_ngram)
    if pos is None:
        raise DataError("n-gram not in model")
    index, weights = model.row_index(), model.weights  # W is read-only while the index is cached
    name = lambda i: vocab.entries[i][0]
    return _search(weights, index, weights[pos], name, {query_ngram}, k, _row_dots)
