import numpy as np
import pytest

from charngram import (
    DataError,
    MinCount,
    build_vocab,
    build_working_vocab,
    cosine,
    embed,
    encode,
    init_model,
    nearest_neighbors,
    ngram_neighbors,
    normalize,
)
from charngram import TrainConfig
from charngram.model import COSINE_NORM_FLOOR, Model
from charngram.neighbors import _NORM_BLOCK_ENTRIES, _guarded_cosines, _rank

from conftest import random_model

WORDS = ["cat", "cats", "catalog", "dog", "dogs", "bark", "fish", "deep", "loud"]


@pytest.fixture(scope="module")
def wide_vocab():
    return build_vocab(WORDS + ["swim"], (2, 3), MinCount(1))


@pytest.fixture(scope="module")
def wide_model(wide_vocab):
    return random_model(np.random.default_rng(40), wide_vocab, dim=8)


@pytest.fixture(scope="module")
def working(wide_vocab, wide_model):
    return build_working_vocab(WORDS, wide_model, wide_vocab)


def test_ranked_by_cosine_and_recomputable(working, wide_model, wide_vocab):
    out = nearest_neighbors("cat", working, wide_model, wide_vocab, k=len(WORDS))
    scores = [c for _, c in out]
    assert scores == sorted(scores, reverse=True)
    q = embed(encode(normalize("cat"), wide_vocab), wide_model).values
    for word, reported in out:
        e = embed(encode(normalize(word), wide_vocab), wide_model).values
        assert reported == pytest.approx(cosine(q, e), abs=1e-12)


def test_excludes_exact_query_only(working, wide_model, wide_vocab):
    out = nearest_neighbors("cat", working, wide_model, wide_vocab, k=len(WORDS))
    names = [w for w, _ in out]
    assert "cat" not in names
    assert "cats" in names and "catalog" in names  # near-duplicates stay
    assert len(names) == len(WORDS) - 1


def test_unknown_query_still_ranks(working, wide_model, wide_vocab):
    out = nearest_neighbors("dogz", working, wide_model, wide_vocab, k=3)
    assert len(out) == 3
    assert all(w in WORDS for w, _ in out)


def test_k_truncates(working, wide_model, wide_vocab):
    out = nearest_neighbors("fish", working, wide_model, wide_vocab, k=2)
    assert len(out) == 2


def test_k_must_be_positive(working, wide_model, wide_vocab):
    with pytest.raises(ValueError, match="k"):
        nearest_neighbors("cat", working, wide_model, wide_vocab, k=0)


def test_two_entry_vocab_returns_single_other(wide_vocab, wide_model):
    wv = build_working_vocab(["cat", "dog"], wide_model, wide_vocab)
    out = nearest_neighbors("cat", wv, wide_model, wide_vocab, k=5)
    assert [w for w, _ in out] == ["dog"]


def test_dedup_keeps_first_and_casefolds(wide_vocab, wide_model):
    wv = build_working_vocab(["Cat", "cat", "DOG", "dog", "bark"], wide_model, wide_vocab)
    assert wv.words == ["cat", "dog", "bark"]


def test_empty_word_list(wide_vocab, wide_model):
    with pytest.raises(DataError, match="empty word list"):
        build_working_vocab([], wide_model, wide_vocab)


def test_tie_breaks_lexicographically(wide_vocab, wide_model):
    # duplicate embedding rows by construction: identical words embed identically,
    # so stage distinct words with forced-equal embeddings instead
    wv = build_working_vocab(["cat", "dog", "bark"], wide_model, wide_vocab)
    wv.embeddings[1] = wv.embeddings[0] * 2.0  # same direction, exact cosine tie
    out = nearest_neighbors("cats", wv, wide_model, wide_vocab, k=3)
    tied = [w for w, _ in out if w in ("cat", "dog")]
    assert tied == ["cat", "dog"]  # equal cosines, alphabetical order


def test_partial_ranking_equals_full_sort():
    # the reference sorts every entry; _rank sorts only those that can make the top k
    def full_sort(words, cosines, exclude, k):
        order = sorted(
            (i for i in range(len(words)) if words[i] not in exclude),
            key=lambda i: (-cosines[i], words[i]),
        )
        return [(words[i], float(cosines[i])) for i in order[:k]]

    rng = np.random.default_rng(8)
    for _ in range(2000):
        words = sorted({"".join(rng.choice(list("abcd"), size=3)) for _ in range(20)})
        rng.shuffle(words)
        cosines = rng.integers(-2, 3, size=len(words)) / 2.0  # many exact ties
        exclude = {words[0], "absent"} if rng.random() < 0.5 else set()
        k = int(rng.integers(1, len(words) + 3))
        ranked = _rank(words.__getitem__, cosines, exclude, k)
        assert ranked == full_sort(words, cosines, exclude, k)


def test_duplicate_direction_scores_one(wide_vocab, wide_model):
    wv = build_working_vocab(["cat", "dog"], wide_model, wide_vocab)
    wv.embeddings[1] = wv.embeddings[0]
    out = nearest_neighbors("cat", wv, wide_model, wide_vocab, k=2)
    assert out[0][0] == "dog"
    assert out[0][1] == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_rows_score_zero(wide_vocab):
    d = 4
    weights = np.zeros((len(wide_vocab), d))
    pos = wide_vocab.index
    target = pos[normalize("cat")[0:2]]  # " c"
    weights[target] = [1.0, 0, 0, 0]
    other = [r for r in range(len(wide_vocab)) if r != target][:3]
    for i, r in enumerate(other):
        weights[r] = [0.0, 1.0, 0, 0] if i == 0 else [0, 0, 1.0, 0]
    model = Model(weights=weights, bias=np.zeros(d), activation="linear",
                  vocab_fingerprint=wide_vocab.fingerprint)
    out = ngram_neighbors(" c", model, wide_vocab, k=4)
    assert all(c == 0.0 for _, c in out if c is not None)


def test_ngram_neighbors_basic(wide_vocab, wide_model):
    out = ngram_neighbors("at ", wide_model, wide_vocab, k=5)
    assert len(out) == 5
    assert all(g != "at " for g, _ in out)
    scores = [c for _, c in out]
    assert scores == sorted(scores, reverse=True)
    # reported cosines match raw weight-row cosines
    q = wide_model.weights[wide_vocab.index["at "]]
    for g, c in out:
        assert c == pytest.approx(cosine(q, wide_model.weights[wide_vocab.index[g]]), abs=1e-12)


def test_ngram_not_in_model(wide_vocab, wide_model):
    with pytest.raises(DataError, match="n-gram not in model"):
        ngram_neighbors("zzz", wide_model, wide_vocab, k=3)


def test_zero_query_embedding_scores_all_zero(wide_vocab):
    config = TrainConfig(dim=6, seed=9)
    model = init_model(wide_vocab, config)
    model.weights[:] = 0.0
    wv = build_working_vocab(["cat", "dog"], model, wide_vocab)
    out = nearest_neighbors("fish", wv, model, wide_vocab, k=2)
    assert [c for _, c in out] == [0.0, 0.0]


def test_blocked_cosines_equal_one_pass_formula():
    rng = np.random.default_rng(41)
    dim = 37
    matrix = rng.normal(size=(3 * _NORM_BLOCK_ENTRIES // dim + 5, dim))  # four blocks
    matrix[[0, 1800, len(matrix) - 1]] = 0.0  # zero rows score 0
    for query in (matrix[9], np.zeros(dim)):
        qn = np.linalg.norm(query)
        norms = np.linalg.norm(matrix, axis=1)
        live = (norms >= COSINE_NORM_FLOOR) & (qn >= COSINE_NORM_FLOOR)
        expected = np.divide(matrix @ query, norms * qn, out=np.zeros(len(norms)), where=live)
        assert np.array_equal(_guarded_cosines(matrix, query), expected)
