"""Brute-force nearest-neighbor search over a word list and over n-gram rows.

A working vocabulary is a prepared index: it holds the embeddings of a list
of words, read-only, and their row norms, computed once when it is built. A
query is then ranked against it by cosine with one matrix-vector product.
The n-gram variant compares raw weight rows directly, against the row norms
the model caches at its first query (`Model.row_norms`). The weights are
read-only while those norms are cached, and training and the gradient audit
drop them before they write; writes through another array sharing the
weights' memory are not caught. Linear scans only: at the scales this tool
targets (~100k words, a few hundred dimensions) a scan takes well under a
second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DataError
from .model import (
    COSINE_NORM_FLOOR,
    Model,
    _row_norms,
    embed,
    embed_matrix,
    encode_matrix,
    verify_binding,
)
from .vocab import NGramVocab, encode, normalize


@dataclass
class WorkingVocab:
    """Unique normalized words with embeddings computed under one model+vocab.

    `embeddings` is coerced to float64 and marked read-only in place (not
    copied); `norms`, its row norms, is computed once, here, for every query.
    """

    words: list[str]  # normalized, without the boundary padding
    embeddings: np.ndarray  # (len(words), d), read-only
    norms: np.ndarray = field(init=False, repr=False)  # (len(words),)

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        if self.embeddings.ndim != 2 or len(self.embeddings) != len(self.words):
            raise DataError(
                f"working vocabulary needs one embedding row per word: {len(self.words)} "
                f"words, embeddings of shape {self.embeddings.shape}"
            )
        self.embeddings.flags.writeable = False
        self.norms = _row_norms(self.embeddings)


def _guarded_cosines(matrix: np.ndarray, query: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Cosine of `query` against every row of `matrix`; zero-norm vectors score 0.

    `norms` holds the row norms of `matrix`, as `_row_norms` computes them.
    The rows are scaled after the product, so no normalized copy of `matrix`
    (the whole weight table, for n-gram queries) is made.
    """
    qn = np.linalg.norm(query)
    live = (norms >= COSINE_NORM_FLOOR) & (qn >= COSINE_NORM_FLOOR)
    return np.divide(matrix @ query, norms * qn, out=np.zeros(len(norms)), where=live)


def build_working_vocab(words: list[str], model: Model, vocab: NGramVocab) -> WorkingVocab:
    """Normalize (in the model's case mode), deduplicate, and embed a word list."""
    if not words:
        raise DataError("empty word list")
    padded = list(dict.fromkeys(normalize(w, model.input_case_mode) for w in words))
    counts = encode_matrix(padded, vocab, model)
    return WorkingVocab([seq[1:-1] for seq in padded], embed_matrix(counts, model))


def _rank(name: Callable[[int], str], cosines: np.ndarray, exclude: set[str], k: int):
    # only entries scoring at least the (k + |exclude|)-th best cosine can be
    # in the top k, so only those are named and sorted (by cosine, then name)
    top = min(k + len(exclude), len(cosines))
    floor = -np.partition(-cosines, top - 1)[top - 1]
    named = [(name(i), i) for i in np.flatnonzero(cosines >= floor).tolist()]
    order = sorted(
        ((word, i) for word, i in named if word not in exclude),
        key=lambda entry: (-cosines[entry[1]], entry[0]),
    )
    return [(word, float(cosines[i])) for word, i in order[:k]]


def nearest_neighbors(
    query: str, wv: WorkingVocab, model: Model, vocab: NGramVocab, k: int
) -> list[tuple[str, float]]:
    """Top-k working-vocabulary words by cosine to the embedded query.

    Entries string-equal to the normalized query are excluded; near-duplicates
    (inflections, misspellings) are legitimate neighbors and retained. Ties
    break by word lexicographic order. Shorter-than-k results are returned
    as-is. DataError unless `model` was built against `vocab`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    verify_binding(model, vocab)
    wv_dim = wv.embeddings.shape[1]
    if wv_dim != model.dim:
        raise DataError(f"working vocabulary has d={wv_dim}, the model d={model.dim}")
    padded = normalize(query, model.input_case_mode)
    q = embed(encode(padded, vocab), model).values
    cosines = _guarded_cosines(wv.embeddings, q, wv.norms)
    return _rank(wv.words.__getitem__, cosines, {padded[1:-1]}, k)


def ngram_neighbors(
    query_ngram: str, model: Model, vocab: NGramVocab, k: int
) -> list[tuple[str, float]]:
    """Top-k vocabulary n-grams whose weight rows are cosine-closest to the query's row.

    DataError unless `model` was built against `vocab`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    verify_binding(model, vocab)
    pos = vocab.index.get(query_ngram)
    if pos is None:
        raise DataError("n-gram not in model")
    # the norms are cached on the model; W is read-only until a writer drops them
    weights = model.weights
    cosines = _guarded_cosines(weights, weights[pos], model.row_norms())
    return _rank(lambda i: vocab.entries[i][0], cosines, {query_ngram}, k)
