"""Shared fixtures, the version-1 model writer, and hand-rolled reference
implementations used as oracles.

The reference correlation code deliberately avoids scipy: explicit sort-based
average ranking and the textbook product-moment formula, so the library's
results can be checked against an independent route.
"""

import math
import struct
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from charngram import MinCount, Model, NGramVocab, TrainConfig, build_vocab, init_model, train
from charngram.model import column_layout, verify_binding
from charngram.train import _encode_pairs

# Filled by the acceptance suite; echoed after the run so the per-criterion
# verdict lines are visible even when pytest captures test output.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def small_vocab() -> NGramVocab:
    corpus = ["the cat sat", "a black cat", "dogs bark loud", "fish swim deep"]
    return build_vocab(corpus, (2, 3), MinCount(1))


@pytest.fixture()
def small_model(small_vocab) -> Model:
    return init_model(small_vocab, TrainConfig(dim=6, seed=11))


def random_model(rng: np.random.Generator, vocab: NGramVocab, dim: int,
                 activation: str = "tanh", scale: float = 0.5) -> Model:
    return Model(
        weights=rng.normal(0.0, scale, size=(len(vocab), dim)),
        bias=rng.normal(0.0, scale, size=dim),
        activation=activation,
        vocab_fingerprint=vocab.fingerprint,
    )


def epoch_orders(monkeypatch, *train_args) -> list:
    """(epoch, order) for each epoch `train(*train_args)` runs.

    The orders are seen through a spy on `charngram.train.epoch_permutation`,
    which the trainer calls once at the start of each epoch.
    """
    module = sys.modules["charngram.train"]
    inner, orders = module.epoch_permutation, []

    def spy(seed, epoch, n, curriculum):
        order = inner(seed, epoch, n, curriculum)
        orders.append((epoch, tuple(int(i) for i in order)))
        return order

    with monkeypatch.context() as patch:
        patch.setattr(module, "epoch_permutation", spy)
        train(*train_args)
    return orders


V1_HEADER = struct.Struct("<4sIIB3xQQ")  # magic, version, d, activation, fingerprint, |V|
V1_RECORD_HEAD = struct.Struct("<BH")  # order, utf-8 byte length


def save_v1(model: Model, vocab: NGramVocab, path) -> None:
    """The version-1 writer, with a plain write for the atomic one.

    A header, the float32 bias, then per n-gram its order, UTF-8 length,
    UTF-8 bytes and float32 row.
    """
    verify_binding(model, vocab)
    code = {"linear": 0, "tanh": 1}[model.activation]
    chunks = [
        V1_HEADER.pack(
            b"CHRG",
            1,
            model.dim,
            code,
            model.vocab_fingerprint,
            len(vocab),
        ),
        model.bias.astype("<f4").tobytes(),
    ]
    rows = model.weights.astype("<f4")
    for pos, (ngram, order, _) in enumerate(vocab.entries):
        raw = ngram.encode("utf-8")
        chunks.append(V1_RECORD_HEAD.pack(order, len(raw)))
        chunks.append(raw)
        chunks.append(rows[pos].tobytes())
    Path(path).write_bytes(b"".join(chunks))


def average_ranks(values) -> list:
    """1-based ranks; tied values share the mean of the positions they span."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = shared
        i = j + 1
    return ranks


def pearson_ref(xs, ys) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    return cov / math.sqrt(vx * vy)


def spearman_ref(xs, ys) -> float:
    return pearson_ref(average_ranks(xs), average_ranks(ys))


def dense_embed_ref(cv, model: Model) -> np.ndarray:
    """Dense reference for the sparse embedding: count vector times matrix."""
    x = np.zeros(model.vocab_size)
    for row, count in cv.items():
        x[row] = count
    pre = model.bias + x @ model.weights
    if model.activation == "linear":
        return pre
    return np.tanh(pre)


def count_matrix(cvs, model: Model) -> sparse.csr_matrix:
    """Count vectors stacked as the rows of a CSR (len(cvs), |V|) matrix, in each
    vector's key order, with the index dtypes SciPy chooses: the per-text oracle
    that `encode_batch` and `encode_matrix` are compared with (after `tocsc()`)."""
    indptr = np.zeros(len(cvs) + 1, dtype=np.intp)
    np.cumsum([len(cv) for cv in cvs], out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.fromiter(chain.from_iterable(cvs), dtype=np.intp, count=nnz)
    data = np.fromiter(chain.from_iterable(cv.values() for cv in cvs), dtype=np.float64, count=nnz)
    return sparse.csr_matrix((data, indices, indptr), shape=(len(cvs), model.vocab_size))


def stacked_pairs(pairs, vocab: NGramVocab, model: Model) -> tuple:
    """The count matrix of the pairs' side-1 phrases over their side-2 phrases,
    2n CSR rows, and the (n, 2) rows of `_encode_pairs`' phrase table they
    were taken from: a batch of all the pairs in the stacked form a step reads."""
    counts, text_ids = _encode_pairs(pairs, vocab, model)
    return counts[text_ids.T.ravel()], text_ids


def phrase_ids(texts) -> np.ndarray:
    """(n, 2) integer ids of the phrases of n pairs, from a dict made for them
    alone: equal exactly where the phrases are."""
    ids: dict = {}
    rows = [[ids.setdefault(t, len(ids)) for t in pair] for pair in texts]
    return np.array(rows, dtype=np.intp).reshape(len(texts), 2)


def float64_layout(counts) -> tuple:
    """`column_layout` of a count matrix of any sparse format, with its counts
    in their own dtype: the layout under which a batch's backward is the
    float64 formula that the gradient audit checks."""
    return column_layout(sparse.csc_matrix(counts), counts.dtype)


def windows(seq: str, orders) -> list:
    """Every contiguous window of `seq` of each length in `orders` (ascending),
    order by order: the per-character oracle of n-gram extraction."""
    out = []
    for n in sorted(set(orders)):
        out += [seq[i : i + n] for i in range(len(seq) - n + 1)]
    return out
