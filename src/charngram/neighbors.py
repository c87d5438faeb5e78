"""Brute-force nearest-neighbor search over a word list and over n-gram rows.

A working vocabulary precomputes embeddings for a list of words; queries are
then ranked against it by cosine. The n-gram variant compares raw weight rows
directly. Linear scans only: at the scales this tool targets (~100k words,
a few hundred dimensions) a scan takes well under a second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .model import COSINE_NORM_FLOOR, Model, count_matrix, embed, embed_matrix
from .vocab import NGramVocab, check_case_mode, encode, normalize


@dataclass
class WorkingVocab:
    """Unique normalized words with embeddings computed under one model+vocab."""

    words: list[str]  # normalized, without the boundary padding
    embeddings: np.ndarray  # (len(words), d)
    case_mode: str = "lower"


# Entries per block of the row-norm pass, so the squares it sums stay in cache.
_NORM_BLOCK_ENTRIES = 65536


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """np.linalg.norm(matrix, axis=1), a block of rows at a time.

    Each row's norm is its own reduction, so the blocked result is
    bit-identical, without a (|V|, d) temporary of squares.
    """
    per_block = max(1, _NORM_BLOCK_ENTRIES // matrix.shape[1])
    if len(matrix) <= per_block:
        return np.linalg.norm(matrix, axis=1)
    norms = np.empty(len(matrix))
    for start in range(0, len(matrix), per_block):
        block = slice(start, start + per_block)
        norms[block] = np.linalg.norm(matrix[block], axis=1)
    return norms


def _guarded_cosines(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Cosine of `query` against every row; zero-norm vectors score 0.

    The rows are scaled after the product, so no normalized copy of `matrix`
    (the whole weight table, for n-gram queries) is made.
    """
    qn = np.linalg.norm(query)
    norms = _row_norms(matrix)
    live = (norms >= COSINE_NORM_FLOOR) & (qn >= COSINE_NORM_FLOOR)
    return np.divide(matrix @ query, norms * qn, out=np.zeros(len(norms)), where=live)


def build_working_vocab(
    words: list[str], model: Model, vocab: NGramVocab, case_mode: str = "lower"
) -> WorkingVocab:
    """Normalize, deduplicate, and embed a word list."""
    case_mode = check_case_mode(case_mode)
    if not words:
        raise DataError("empty word list")
    padded = list(dict.fromkeys(normalize(word, case_mode) for word in words))
    counts = count_matrix([encode(seq, vocab) for seq in padded], model)
    return WorkingVocab(
        words=[seq[1:-1] for seq in padded],
        embeddings=embed_matrix(counts, model),
        case_mode=case_mode,
    )


def _rank(words: list[str], cosines: np.ndarray, exclude: set[str], k: int):
    # only entries scoring at least the (k + |exclude|)-th best cosine can be
    # in the top k, so only those are sorted (by cosine, then word)
    top = min(k + len(exclude), len(words))
    floor = -np.partition(-cosines, top - 1)[top - 1]
    order = sorted(
        (i for i in np.flatnonzero(cosines >= floor) if words[i] not in exclude),
        key=lambda i: (-cosines[i], words[i]),
    )
    return [(words[i], float(cosines[i])) for i in order[:k]]


def nearest_neighbors(
    query: str, wv: WorkingVocab, model: Model, vocab: NGramVocab, k: int
) -> list[tuple[str, float]]:
    """Top-k working-vocabulary words by cosine to the embedded query.

    Entries string-equal to the normalized query are excluded; near-duplicates
    (inflections, misspellings) are legitimate neighbors and retained. Ties
    break by word lexicographic order. Shorter-than-k results are returned
    as-is.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    padded = normalize(query, wv.case_mode)
    q = embed(encode(padded, vocab), model).values
    cosines = _guarded_cosines(wv.embeddings, q)
    return _rank(wv.words, cosines, {padded[1:-1]}, k)


def ngram_neighbors(
    query_ngram: str, model: Model, vocab: NGramVocab, k: int
) -> list[tuple[str, float]]:
    """Top-k vocabulary n-grams whose weight rows are cosine-closest to the query's row."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pos = vocab.index.get(query_ngram)
    if pos is None:
        raise DataError("n-gram not in model")
    cosines = _guarded_cosines(model.weights, model.weights[pos])
    ngrams = [entry[0] for entry in vocab.entries]
    return _rank(ngrams, cosines, {query_ngram}, k)
