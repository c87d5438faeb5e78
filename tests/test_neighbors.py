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
from charngram import AdamState, NGramVocab, TrainConfig, WorkingVocab
from charngram import finite_diff_audit, neighbors
from charngram import model as model_module
from charngram.model import _NORM_BLOCK_ENTRIES, COSINE_NORM_FLOOR, Model
from charngram.neighbors import _guarded_cosines, _rank, _row_norms
from charngram.train import _Batch, _encode_pairs, _step, _text_ids

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
    rows = wv.embeddings.copy()
    rows[1] = rows[0] * 2.0  # same direction, exact cosine tie
    wv = WorkingVocab(wv.words, rows)
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
    rows = wv.embeddings.copy()
    rows[1] = rows[0]
    wv = WorkingVocab(wv.words, rows)
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
        assert np.array_equal(_guarded_cosines(matrix, query, _row_norms(matrix)), expected)


def _per_query_reference(query, wv, model, vocab, k):
    # the neighbour query with the word-row norms recomputed on every call
    padded = normalize(query, model.input_case_mode)
    q = embed(encode(padded, vocab), model).values
    cosines = _guarded_cosines(wv.embeddings, q, _row_norms(wv.embeddings))
    return _rank(wv.words.__getitem__, cosines, {padded[1:-1]}, k)


def test_prepared_norms_equal_per_query_norms_bit_for_bit(wide_vocab, wide_model):
    rng = np.random.default_rng(42)
    dim = wide_model.dim
    rows = rng.normal(size=(2 * _NORM_BLOCK_ENTRIES // dim + 7, dim))  # three norm blocks
    rows[[0, 5000, len(rows) - 1]] = 0.0  # zero rows score 0
    words = ["cat", "dogz"] + [f"w{i:05d}" for i in range(len(rows) - 2)]
    wv = WorkingVocab(words, rows)
    zero_model = Model(weights=np.zeros_like(wide_model.weights), bias=np.zeros(dim),
                       activation="tanh", vocab_fingerprint=wide_vocab.fingerprint)
    for model in (wide_model, zero_model):  # the zero model embeds every query as 0
        for query in ("cat", "dogz", "fish", "qqq"):
            got = nearest_neighbors(query, wv, model, wide_vocab, k=25)
            assert got == _per_query_reference(query, wv, model, wide_vocab, 25)
    assert [c for _, c in nearest_neighbors("cat", wv, zero_model, wide_vocab, k=3)] == [0.0] * 3


def test_query_does_not_recompute_word_norms(working, wide_model, wide_vocab, monkeypatch):
    expected = nearest_neighbors("cat", working, wide_model, wide_vocab, k=4)

    def recomputed(matrix):
        raise AssertionError("word-row norms recomputed for a query")

    monkeypatch.setattr(neighbors, "_row_norms", recomputed)
    assert nearest_neighbors("cat", working, wide_model, wide_vocab, k=4) == expected


def test_working_embeddings_are_read_only(working):
    with pytest.raises(ValueError):
        working.embeddings[0, 0] = 1.0
    with pytest.raises(ValueError):
        working.embeddings[:] = 0.0


@pytest.mark.parametrize(
    "n_words, shape",
    [(2, (3, 8)), (3, (2, 8)), (2, (2,)), (1, (1, 1, 8))],
    ids=["more-rows", "fewer-rows", "one-d", "three-d"],
)
def test_malformed_working_vocab_is_rejected(n_words, shape):
    with pytest.raises(DataError, match="one embedding row per word"):
        WorkingVocab(WORDS[:n_words], np.zeros(shape))


def test_working_vocab_of_other_dimension_is_rejected(wide_vocab, wide_model):
    wv = WorkingVocab(["cat", "dog"], np.ones((2, wide_model.dim + 1)))
    with pytest.raises(DataError, match="d=9, the model d=8"):
        nearest_neighbors("cat", wv, wide_model, wide_vocab, k=1)


def _ngram_reference(query, model, vocab, k):
    # the n-gram query with the weight-row norms recomputed on every call
    weights = model.weights
    cosines = _guarded_cosines(weights, weights[vocab.index[query]], _row_norms(weights))
    return _rank(lambda i: vocab.entries[i][0], cosines, {query}, k)


def _bits(ranked):
    return [(word, cos.hex()) for word, cos in ranked]


def test_cached_ngram_norms_equal_per_query_norms_bit_for_bit():
    rng = np.random.default_rng(43)
    dim = 37
    n = 2 * _NORM_BLOCK_ENTRIES // dim + 7  # three norm blocks
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    grams = ["".join(g) for g in letters[rng.choice(26, size=(4 * n, 4))]]
    vocab = NGramVocab([(g, 4, 1) for g in dict.fromkeys(grams)][:n])
    weights = rng.normal(size=(n, dim))
    weights[[0, 1800, n - 1]] = 0.0  # zero rows score 0
    model = Model(weights=weights, bias=np.zeros(dim), activation="tanh",
                  vocab_fingerprint=vocab.fingerprint)
    queries = [vocab.entries[i][0] for i in (0, 1, 1800, 2500, n - 1, 5, 1)]  # zero rows too
    for query in queries:
        expected = _ngram_reference(query, model, vocab, 25)
        assert _bits(ngram_neighbors(query, model, vocab, k=25)) == _bits(expected)
    assert [c for _, c in ngram_neighbors(vocab.entries[0][0], model, vocab, k=3)] == [0.0] * 3


def test_second_ngram_query_does_not_recompute_norms(wide_vocab, monkeypatch):
    model = random_model(np.random.default_rng(44), wide_vocab, dim=8)
    first = ngram_neighbors("at ", model, wide_vocab, k=4)

    def recomputed(matrix):
        raise AssertionError("weight-row norms recomputed for a query")

    for module in (model_module, neighbors):  # both hold the name
        monkeypatch.setattr(module, "_row_norms", recomputed)
    assert ngram_neighbors("at ", model, wide_vocab, k=4) == first
    assert ngram_neighbors("ca", model, wide_vocab, k=4)


def test_ngram_query_after_a_training_step_sees_the_new_weights(wide_vocab):
    config = TrainConfig(dim=8, batch_size=2, seed=3, learning_rate=0.05)
    model = init_model(wide_vocab, config)
    before = ngram_neighbors("at ", model, wide_vocab, k=6)
    pairs = [("cat", "cats"), ("dog", "dogs"), ("fish", "deep")]
    texts, counts = _encode_pairs(pairs, wide_vocab, model)
    _step(_Batch(counts, _text_ids(texts)), model, config, AdamState(), np.random.default_rng(0))
    after = ngram_neighbors("at ", model, wide_vocab, k=6)
    assert _bits(after) == _bits(_ngram_reference("at ", model, wide_vocab, 6))
    assert after != before


def test_ngram_query_after_the_gradient_audit_sees_the_weights(wide_vocab):
    config = TrainConfig(dim=4, batch_size=3, seed=5, reg_lambda=1e-4)
    model = init_model(wide_vocab, config)
    ngram_neighbors("at ", model, wide_vocab, k=6)
    weights = model.weights.copy()
    pairs = [("cat", "cats"), ("dog", "dogs"), ("fish", "deep")]
    assert finite_diff_audit(model, wide_vocab, pairs, config) < 1e-4
    assert np.array_equal(model.weights, weights)
    assert model.weights.flags.writeable  # the audit dropped the cached norms
    got = ngram_neighbors("at ", model, wide_vocab, k=6)
    assert _bits(got) == _bits(_ngram_reference("at ", model, wide_vocab, 6))
