"""Shared fixtures plus hand-rolled reference implementations used as oracles.

The reference correlation code deliberately avoids scipy: explicit sort-based
average ranking and the textbook product-moment formula, so the library's
results can be checked against an independent route.
"""

import math

import numpy as np
import pytest

from charngram import MinCount, Model, NGramVocab, TrainConfig, build_vocab, init_model

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
