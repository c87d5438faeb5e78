"""The embedding model: one vector per character n-gram, a bias, a nonlinearity.

A sequence embedding is the count-weighted sum of the n-gram vectors for the
n-grams present in the sequence, plus a bias, passed through an elementwise
activation. A batch of sequences is a sparse count matrix X with one row per
sequence, and its embeddings are h(X @ W + b). Parameters are kept in float64
in memory; file persistence quantizes to finite float32 (see charngram.io), so
no loaded weight row reaches the norm `Model.row_index` refuses (2^511).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from scipy import sparse

from .errors import DataError
from .vocab import CountVector, NGramVocab, check_case_mode, encode_batch, normalize

ACTIVATIONS = ("linear", "tanh")

# Norms below this are treated as zero when computing cosine similarity.
COSINE_NORM_FLOOR = 1e-12

# Entries per block of the row-norm pass, so the squares it sums stay in cache.
_NORM_BLOCK_ENTRIES = 65536

# Searchable rows and queries have a finite norm below this, so no dot product
# of two of them overflows in float64.
_UNIT_NORM_LIMIT = 2.0**511


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


def _row_norms(matrix: np.ndarray, units: np.ndarray | None = None) -> np.ndarray:
    """np.linalg.norm(matrix, axis=1), a block of rows at a time.

    Each row's norm is its own reduction, so the blocked result is
    bit-identical, without a (|V|, d) temporary of squares. Given `units`, a
    float32 array of the matrix's shape, the same pass writes into it each
    row divided by its norm, rounded to float32; rows whose norm is below
    COSINE_NORM_FLOOR are zero.
    """
    per_block = max(1, _NORM_BLOCK_ENTRIES // matrix.shape[1])
    # a norm that overflows is inf, and zero rows divide 0 by 0; neither warns
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norms = np.empty(len(matrix))
        for start in range(0, len(matrix), per_block):
            block = slice(start, start + per_block)
            norms[block] = np.linalg.norm(matrix[block], axis=1)
            if units is not None:
                np.divide(matrix[block], norms[block, None], out=units[block], casting="same_kind")
                units[block][norms[block] < COSINE_NORM_FLOOR] = 0.0
    return norms


class RowIndex(NamedTuple):
    """Rows prepared for neighbour search, from one `_row_norms` pass (`_index_rows`)."""

    norms: np.ndarray  # the row norms, as `_row_norms` gives them; each below _UNIT_NORM_LIMIT
    units: np.ndarray | None  # read-only float32 rows scaled to unit norm, or None


def _index_rows(matrix: np.ndarray, units: bool = True) -> RowIndex:
    """The `RowIndex` of a (n, d) float64 matrix, with or without its unit rows.

    DataError when d = 0, as such rows have no direction to search by, and
    naming the first row whose norm is not finite or not below _UNIT_NORM_LIMIT.
    """
    if matrix.shape[1] == 0:
        raise DataError("cannot search rows of dimension 0")
    copy = np.empty(matrix.shape, dtype=np.float32) if units else None
    norms = _row_norms(matrix, copy)
    out_of_range = np.flatnonzero(~(norms < _UNIT_NORM_LIMIT))
    if len(out_of_range):
        row = out_of_range[0]
        raise DataError(f"cannot search row {row}: its norm {norms[row]:g} is not below 2^511")
    if copy is not None:
        copy.flags.writeable = False
    return RowIndex(norms, copy)


@dataclass
class Model:
    """Learned parameters: weights has one row per vocabulary n-gram.

    `row_index()` caches the weight rows prepared for n-gram queries, a
    `RowIndex`: their norms and a float32 copy scaled to unit norm (4·|V|·d
    bytes). While it is cached, `weights` is read-only, so an in-place write
    raises ValueError instead of leaving it stale; writers call
    `drop_row_norms()` first. Writes through another array sharing the memory
    of `weights` are not caught.
    """

    weights: np.ndarray  # (|V|, d) float64
    bias: np.ndarray  # (d,) float64
    activation: str
    vocab_fingerprint: int
    case_mode: str | None = None  # the text case handling trained with; None = not recorded
    # (weights, their writeable flag before, index); not copied by dataclasses.replace
    _index_cache: tuple[np.ndarray, bool, RowIndex] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("weights must be 2-D and bias 1-D")
        if self.weights.shape[1] != self.bias.shape[0]:
            raise ValueError("weights and bias dimensionality disagree")
        check_activation(self.activation)

    def __setattr__(self, name, value):
        # the case mode is checked and its alias resolved on every assignment,
        # so a mode set after construction is one `save_model` can record
        if name == "case_mode" and value is not None:
            value = check_case_mode(value)
        super().__setattr__(name, value)

    @property
    def input_case_mode(self) -> str:
        """The case mode input text is normalized with: the recorded one, else "lower"."""
        return self.case_mode or "lower"

    @property
    def dim(self) -> int:
        return self.bias.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.weights.shape[0]

    def row_index(self) -> RowIndex:
        """The weight rows' `RowIndex`, with unit rows, kept until `weights` changes.

        DataError at d = 0 and for a row of norm not finite or not below 2^511
        (then nothing is cached, and `weights` stays writeable).
        """
        # The cache belongs to the array object bound to `weights`: rebinding it
        # gives a fresh one. A cached array that is writeable again (a pickled
        # or deep-copied model) is not trusted either.
        cache = self._index_cache
        if cache is None or cache[0] is not self.weights or cache[0].flags.writeable:
            self.drop_row_norms()
            weights = self.weights
            index = _index_rows(weights)
            self._index_cache = (weights, weights.flags.writeable, index)
            weights.flags.writeable = False
        return self._index_cache[2]

    def drop_row_norms(self) -> None:
        """Forget the cached row index, giving its array back its writeable flag.

        Call before writing into `weights` in place.
        """
        if self._index_cache is not None:
            array, writeable, _ = self._index_cache
            self._index_cache = None
            array.flags.writeable = writeable


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


def preactivation(cv: CountVector, model: Model) -> np.ndarray:
    """bias + sum over cv of count * weights[row], before the nonlinearity."""
    pre = model.bias.copy()
    if cv:
        rows = np.fromiter(cv.keys(), dtype=np.intp, count=len(cv))
        if rows.min() < 0 or rows.max() >= model.vocab_size:
            raise DataError("vocab/model mismatch")
        counts = np.fromiter(cv.values(), dtype=np.float64, count=len(cv))
        pre += counts @ model.weights[rows]
    return pre


def encode_matrix(texts: Sequence[str], vocab: NGramVocab, model: Model) -> sparse.csc_matrix:
    """The CSC (len(texts), |V|) count matrix of raw texts, computed by `encode_batch`
    in one pass after normalizing each text in `model.input_case_mode`.

    Row i holds the counts of `encode(normalize(texts[i], model.input_case_mode), vocab)`;
    `normalize` is idempotent, so text already normalized in that mode gives the
    same matrix. A product with it reads each weight row once per batch and sums
    each row's terms in ascending column order, so a row's embedding does not
    depend on its batch. DataError unless `model` was built against `vocab`
    (`verify_binding`)."""
    verify_binding(model, vocab)
    case_mode = model.input_case_mode
    indptr, indices, data = encode_batch([normalize(t, case_mode) for t in texts], vocab)
    # SciPy keeps int32 index arrays where the shape and nnz allow; handing
    # them over as int32 spares its scan and copy of int64 ones
    if max(len(indptr), len(data), len(texts)) <= np.iinfo(np.int32).max:
        indptr = indptr.astype(np.int32, copy=False)
        indices = indices.astype(np.int32, copy=False)
    return sparse.csc_matrix((data, indices, indptr), shape=(len(texts), model.vocab_size))


def embed_matrix(counts: sparse.spmatrix, model: Model) -> np.ndarray:
    """Embed every row of a count matrix: h(X @ W + b); empty rows give h(bias)."""
    return apply_activation(model.activation, counts @ model.weights + model.bias)


def column_layout(
    counts: sparse.csc_matrix, dtype: np.dtype | type
) -> tuple[np.ndarray, sparse.csr_matrix]:
    """The backward layout (touched, X[:, touched]^T) of a CSC count matrix X.

    `touched` is the sorted columns that hold an entry. Row t of the CSR
    matrix X[:, touched]^T lists column touched[t]'s entries as `counts`
    stores them (rows ascending, as SciPy's conversions leave them): the
    arrays SciPy's csc -> csr conversion of that transpose gives, so products
    with it are bit-identical. The layout shares the row-index array of
    `counts`, and so its index dtype (int32 wherever SciPy chose it), and
    holds its counts cast to `dtype`.
    """
    indptr = counts.indptr
    touched = np.flatnonzero(np.diff(indptr))
    # where each touched column's entries start, and where the last one's end
    offsets = np.append(indptr[touched], indptr[-1])
    data = counts.data.astype(dtype, copy=False)
    xt = sparse.csr_matrix((data, counts.indices, offsets), shape=(len(touched), counts.shape[0]))
    return touched, xt


def embed_matrix_grad(
    values: np.ndarray,
    upstream: np.ndarray,
    model: Model,
    layout: tuple[np.ndarray, sparse.csr_matrix],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backpropagate `upstream` (d loss / d values) through values = embed_matrix(X).

    `layout` is `column_layout` of the CSC count matrix X. Returns (d loss /
    d bias, touched rows, d loss / d weights[touched rows]), where the
    touched rows are the layout's, the sorted columns present in X. The bias
    gradient is float64; the rows' gradient is the product X_touched^T @ d_pre
    in the layout's dtype, so a float32 layout gives float32 rows and a
    float64 layout the float64 formula.
    """
    touched, xt = layout
    d_pre = upstream * activation_grad(model.activation, values)
    # past float32's range a value casts to inf, which the Adam step reports
    with np.errstate(over="ignore"):
        d_pre_xt = d_pre.astype(xt.dtype, copy=False)
    return d_pre.sum(axis=0), touched, xt @ d_pre_xt


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


def unit_rows(values: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """Rows scaled to unit norm; (near-)zero rows become zero, so cos(u, 0) = 0.

    `norms`, when given, must be `np.linalg.norm(values, axis=1)`.
    """
    if norms is None:
        norms = np.linalg.norm(values, axis=1)
    small = norms < COSINE_NORM_FLOOR
    units = values / np.where(small, 1.0, norms)[:, None]
    units[small] = 0.0
    return units


def row_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of every row of `a` with the same row of `b`, guarded like `cosine`."""
    return np.einsum("ij,ij->i", unit_rows(a), unit_rows(b))
