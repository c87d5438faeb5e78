"""The embedding model: one vector per character n-gram, a bias, a nonlinearity.

A sequence embedding is the count-weighted sum of the n-gram vectors for the
n-grams present in the sequence, plus a bias, passed through an elementwise
activation. A batch of sequences is a sparse count matrix X with one row per
sequence, and its embeddings are h(X @ W + b). Parameters are kept in float64
in memory; file persistence quantizes to float32 (see charngram.io).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np
from scipy import sparse

from .errors import DataError
from .vocab import CountVector, NGramVocab

ACTIVATIONS = ("linear", "tanh")

# Norms below this are treated as zero when computing cosine similarity.
COSINE_NORM_FLOOR = 1e-12


def check_activation(activation: str) -> str:
    if activation not in ACTIVATIONS:
        raise ValueError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
    return activation


def apply_activation(activation: str, pre: np.ndarray) -> np.ndarray:
    if activation == "linear":
        return pre.copy()
    if activation == "tanh":
        return np.tanh(pre)
    raise ValueError(f"unknown activation {activation!r}")


def activation_grad(activation: str, values: np.ndarray) -> np.ndarray:
    """Elementwise derivative of the activation, computed from its output: tanh' = 1 - tanh^2."""
    if activation == "linear":
        return np.ones_like(values)
    if activation == "tanh":
        return 1.0 - values * values
    raise ValueError(f"unknown activation {activation!r}")


@dataclass
class Model:
    """Learned parameters: weights has one row per vocabulary n-gram."""

    weights: np.ndarray  # (|V|, d) float64
    bias: np.ndarray  # (d,) float64
    activation: str
    vocab_fingerprint: int

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("weights must be 2-D and bias 1-D")
        if self.weights.shape[1] != self.bias.shape[0]:
            raise ValueError("weights and bias dimensionality disagree")
        check_activation(self.activation)

    @property
    def dim(self) -> int:
        return self.bias.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.weights.shape[0]


def verify_binding(model: Model, vocab: NGramVocab) -> None:
    """Raise unless `model` was built against exactly this vocabulary."""
    if model.vocab_fingerprint != vocab.fingerprint:
        raise DataError("model not bound to vocabulary (fingerprint mismatch)")
    if model.vocab_size != len(vocab):
        raise DataError("vocab/model mismatch")


@dataclass
class Embedding:
    """An embedded sequence plus bookkeeping about vocabulary coverage."""

    values: np.ndarray  # (d,)
    used_ngrams: int  # total in-vocabulary n-gram tokens consumed
    oov_fallback: bool  # True when no n-gram matched; values = h(bias)


def _check_rows(rows: np.ndarray, model: Model) -> None:
    if rows.size and (rows.min() < 0 or rows.max() >= model.vocab_size):
        raise DataError("vocab/model mismatch")


def preactivation(cv: CountVector, model: Model) -> np.ndarray:
    """bias + sum over cv of count * weights[row], before the nonlinearity."""
    pre = model.bias.copy()
    if cv:
        rows = np.fromiter(cv.keys(), dtype=np.intp, count=len(cv))
        _check_rows(rows, model)
        counts = np.fromiter(cv.values(), dtype=np.float64, count=len(cv))
        pre += counts @ model.weights[rows]
    return pre


def count_matrix(cvs: Sequence[CountVector], model: Model) -> sparse.csr_matrix:
    """Stack count vectors as the rows of a CSR (len(cvs), |V|) matrix."""
    indptr = np.zeros(len(cvs) + 1, dtype=np.intp)
    np.cumsum([len(cv) for cv in cvs], out=indptr[1:])
    nnz = int(indptr[-1])
    rows = np.fromiter(chain.from_iterable(cvs), dtype=np.intp, count=nnz)
    _check_rows(rows, model)
    counts = np.fromiter(
        chain.from_iterable(cv.values() for cv in cvs), dtype=np.float64, count=nnz
    )
    return sparse.csr_matrix((counts, rows, indptr), shape=(len(cvs), model.vocab_size))


def embed_matrix(counts: sparse.csr_matrix, model: Model) -> np.ndarray:
    """Embed every row of a count matrix: h(X @ W + b); empty rows give h(bias)."""
    return apply_activation(model.activation, counts @ model.weights + model.bias)


def embed_matrix_grad(
    counts: sparse.csr_matrix, values: np.ndarray, upstream: np.ndarray, model: Model
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backpropagate `upstream` (d loss / d values) through values = embed_matrix(counts).

    Returns (d loss / d bias, touched rows, d loss / d weights[touched rows]),
    where the touched rows are the sorted columns present in `counts`.
    """
    d_pre = upstream * activation_grad(model.activation, values)
    # X_touched^T built directly: the CSR arrays of X, with each column index
    # renumbered to its touched position, are the CSC arrays of X_touched^T;
    # a presence mask finds the touched columns without sorting the indices
    present = np.zeros(counts.shape[1], dtype=bool)
    present[counts.indices] = True
    touched = np.flatnonzero(present)
    position = np.empty(counts.shape[1], dtype=np.intp)
    position[touched] = np.arange(len(touched))
    xt = sparse.csc_matrix(
        (counts.data, position[counts.indices], counts.indptr),
        shape=(len(touched), counts.shape[0]),
    )
    return d_pre.sum(axis=0), touched, xt.tocsr() @ d_pre


def embed(cv: CountVector, model: Model) -> Embedding:
    """Embed a sparse count vector; an empty one falls back to h(bias)."""
    values = apply_activation(model.activation, preactivation(cv, model))
    used = int(sum(cv.values()))
    return Embedding(values=values, used_ngrams=used, oov_fallback=not cv)


def cosine(u, v) -> float:
    """Cosine similarity; returns 0.0 when either vector has (near-)zero norm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise DataError("cosine requires two vectors of equal dimension")
    return float(row_cosines(u[None, :], v[None, :])[0])


def unit_rows(values: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; (near-)zero rows become zero, so cos(u, 0) = 0."""
    norms = np.linalg.norm(values, axis=1, keepdims=True)
    units = values / np.where(norms < COSINE_NORM_FLOOR, 1.0, norms)
    units[norms[:, 0] < COSINE_NORM_FLOOR] = 0.0
    return units


def row_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of every row of `a` with the same row of `b`, guarded like `cosine`."""
    return np.einsum("ij,ij->i", unit_rows(a), unit_rows(b))
