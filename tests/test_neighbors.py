import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from charngram.model import _NORM_BLOCK_ENTRIES, COSINE_NORM_FLOOR, Model, _row_norms
from charngram.neighbors import _cosines, _rank, _row_dots, _screen
from charngram.train import _Batch, _step

from conftest import float64_layout, random_model, stacked_pairs

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
        cosines = _cosines(matrix, query, _norm(query), _row_norms(matrix), np.matmul)
        assert np.array_equal(cosines, expected)


def _norm(query):
    # the query norm as the neighbour search takes it
    return math.sqrt(np.vdot(query, query))


def _exhaustive_scan(matrix, query, names, exclude, k, dot):
    # the neighbour query scanning every row, with the row norms recomputed on
    # every call; `dot` is np.matmul for the dgemv scan, or `_row_dots`, which
    # gives a row the same bits whatever subset it is scored in
    cosines = _cosines(matrix, query, _norm(query), _row_norms(matrix), dot)
    return _rank(names.__getitem__, cosines, exclude, k)


def _embedded(query, model, vocab):
    # a word query's embedding and the word it excludes
    padded = normalize(query, model.input_case_mode)
    return embed(encode(padded, vocab), model).values, {padded[1:-1]}


def test_prepared_norms_equal_per_query_norms_bit_for_bit(wide_vocab, wide_model):
    rng = np.random.default_rng(42)
    dim = wide_model.dim
    rows = rng.normal(size=(2 * _NORM_BLOCK_ENTRIES // dim + 7, dim))  # three norm blocks
    rows[[0, 5000, len(rows) - 1]] = 0.0  # zero rows score 0
    words = ["cat", "dogz"] + [f"w{i:05d}" for i in range(len(rows) - 2)]
    wv = WorkingVocab(words, rows)
    assert wv.index.units is None  # 131,128 entries: below the size rule, the dgemv scan
    zero_model = Model(weights=np.zeros_like(wide_model.weights), bias=np.zeros(dim),
                       activation="tanh", vocab_fingerprint=wide_vocab.fingerprint)
    for model in (wide_model, zero_model):  # the zero model embeds every query as 0
        for query in ("cat", "dogz", "fish", "qqq"):
            got = nearest_neighbors(query, wv, model, wide_vocab, k=25)
            q, exclude = _embedded(query, model, wide_vocab)
            assert got == _exhaustive_scan(rows, q, words, exclude, 25, np.matmul)
    assert [c for _, c in nearest_neighbors("cat", wv, zero_model, wide_vocab, k=3)] == [0.0] * 3


def test_query_does_not_recompute_word_norms(working, wide_model, wide_vocab, monkeypatch):
    expected = nearest_neighbors("cat", working, wide_model, wide_vocab, k=4)

    def recomputed(matrix):
        raise AssertionError("word-row norms recomputed for a query")

    monkeypatch.setattr(model_module, "_row_norms", recomputed)
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


def test_working_vocab_of_no_words_is_rejected():
    # a query of it would have no row to rank
    with pytest.raises(DataError, match="empty word list"):
        WorkingVocab([], np.zeros((0, 3)))


def test_working_vocab_of_other_dimension_is_rejected(wide_vocab, wide_model):
    wv = WorkingVocab(["cat", "dog"], np.ones((2, wide_model.dim + 1)))
    with pytest.raises(DataError, match="d=9, the model d=8"):
        nearest_neighbors("cat", wv, wide_model, wide_vocab, k=1)


def test_working_vocab_answers_only_the_model_that_embedded_it(wide_vocab):
    words = ["the", "cat", "sat", "dog"]
    tanh = random_model(np.random.default_rng(1), wide_vocab, dim=8, activation="tanh")
    linear = random_model(np.random.default_rng(2), wide_vocab, dim=8, activation="linear")
    wv = build_working_vocab(words, tanh, wide_vocab)
    assert wv.embedded_by is tanh
    assert nearest_neighbors("cat", wv, tanh, wide_vocab, k=2)
    for other in (linear, Model(tanh.weights, tanh.bias, "tanh", tanh.vocab_fingerprint)):
        with pytest.raises(DataError, match="embedded by another model"):
            nearest_neighbors("cat", wv, other, wide_vocab, k=2)
    # a working vocabulary made from arrays records no model and checks d only
    assert nearest_neighbors("cat", WorkingVocab(wv.words, wv.embeddings), linear, wide_vocab, k=2)


def _bits(ranked):
    return [(word, cos.hex()) for word, cos in ranked]


def _ngram_scan(query, model, vocab, k):
    # the n-gram query as an exhaustive scan of every weight row
    weights, names = model.weights, [entry[0] for entry in vocab.entries]
    return _exhaustive_scan(weights, weights[vocab.index[query]], names, {query}, k, _row_dots)


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
        expected = _ngram_scan(query, model, vocab, 25)
        assert _bits(ngram_neighbors(query, model, vocab, k=25)) == _bits(expected)
    assert [c for _, c in ngram_neighbors(vocab.entries[0][0], model, vocab, k=3)] == [0.0] * 3


def test_second_ngram_query_does_not_recompute_norms(wide_vocab, monkeypatch):
    model = random_model(np.random.default_rng(44), wide_vocab, dim=8)
    passes = []

    def counted(matrix, units=None):
        passes.append(units is not None)
        return _row_norms(matrix, units)

    monkeypatch.setattr(model_module, "_row_norms", counted)
    first = ngram_neighbors("at ", model, wide_vocab, k=4)
    assert passes == [True]  # one pass built both the norms and the float32 rows
    norms, units = model.row_index().norms, model.row_index().units
    assert np.array_equal(norms, _row_norms(model.weights))

    def recomputed(matrix, units=None):
        raise AssertionError("weight-row norms or unit rows recomputed for a query")

    monkeypatch.setattr(model_module, "_row_norms", recomputed)
    assert ngram_neighbors("at ", model, wide_vocab, k=4) == first
    assert ngram_neighbors("ca", model, wide_vocab, k=4)
    assert model.row_index().norms is norms and model.row_index().units is units


def test_unit_rows_are_read_only_float32_and_dropped_with_the_norms():
    rng = np.random.default_rng(45)
    weights = rng.normal(size=(7, 5))
    weights[2] = 0.0
    model = Model(weights=weights, bias=np.zeros(5), activation="tanh", vocab_fingerprint=0)
    weights[4, 0] = 1e200  # its norm overflows: no index, and nothing is cached
    with pytest.raises(DataError, match=r"cannot search row 4: its norm inf is not below 2\^511"):
        model.row_index()
    assert model.weights.flags.writeable
    weights[4, 0] = 1.0
    _, units = model.row_index()
    assert units.dtype == np.float32 and units.shape == weights.shape
    live = [0, 1, 3, 4, 5, 6]
    assert np.array_equal(units[live], (weights[live] / _row_norms(weights)[live, None]).astype(np.float32))
    assert not units[2].any()  # zero rows stay zero
    with pytest.raises(ValueError):
        units[0, 0] = 1.0
    with pytest.raises(ValueError):
        model.weights[0, 0] = 1.0
    freed = weakref.ref(units)
    del units
    model.drop_row_norms()
    gc.collect()
    assert freed() is None  # the model held the only reference
    model.weights[0, 0] = 1.0  # writeable again
    assert model.row_index().units[0, 0] == np.float32(1.0 / _row_norms(model.weights)[0])


def test_first_ngram_query_allocates_less_than_a_float64_copy_of_the_weights():
    rng = np.random.default_rng(46)
    n, dim = 20000, 40
    vocab = NGramVocab([(f"{i:05x}", 5, 1) for i in range(n)])
    model = Model(weights=rng.normal(size=(n, dim)), bias=np.zeros(dim), activation="tanh",
                  vocab_fingerprint=vocab.fingerprint)
    tracemalloc.start()
    try:
        ngram_neighbors(vocab.entries[3][0], model, vocab, k=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.row_index().units.nbytes <= peak < model.weights.nbytes


def test_ngram_query_after_a_training_step_sees_the_new_weights(wide_vocab):
    config = TrainConfig(dim=8, batch_size=2, seed=3, learning_rate=0.05)
    model = init_model(wide_vocab, config)
    before = ngram_neighbors("at ", model, wide_vocab, k=6)
    pairs = [("cat", "cats"), ("dog", "dogs"), ("fish", "deep")]
    counts, text_ids = stacked_pairs(pairs, wide_vocab, model)
    batch = _Batch(counts, text_ids, float64_layout(counts))
    _step(batch, model, config, AdamState(), np.random.default_rng(0))
    after = ngram_neighbors("at ", model, wide_vocab, k=6)
    assert _bits(after) == _bits(_ngram_scan("at ", model, wide_vocab, 6))
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
    assert _bits(got) == _bits(_ngram_scan("at ", model, wide_vocab, 6))


def _per_row_bits(cosines):
    return [c.hex() for c in cosines.tolist()]


def test_per_row_cosines_do_not_depend_on_the_rows_scored_with_them():
    # the bit-for-bit reference scans every row; the screened query scores a
    # subset, so each row's cosine must have the same bits in any subset,
    # order or position (a BLAS gemv's can differ in the last bit)
    rng = np.random.default_rng(47)
    for dim in (1, 2, 7, 37, 64, 300):
        matrix = rng.normal(size=(150, dim)) * 10.0 ** rng.integers(-11, 12, size=(150, 1))
        matrix[rng.random(matrix.shape) < 0.2] = -0.0
        matrix[[3, 70]] = 0.0
        query = matrix[5]
        norms, qn = _row_norms(matrix), _norm(query)
        full = _cosines(matrix, query, qn, norms, _row_dots)
        for _ in range(30):
            rows = rng.choice(len(matrix), size=int(rng.integers(1, 2 * len(matrix))))
            picked = matrix[rows]
            shifted = np.empty(picked.size + 1)[1:].reshape(picked.shape)  # off by one element
            shifted[:] = picked
            fortran = np.asfortranarray(picked)
            for sub in (picked, shifted, fortran):
                got = _cosines(sub, query, qn, norms[rows], _row_dots)
                assert _per_row_bits(got) == _per_row_bits(full[rows])


def test_screen_keeps_few_rows_of_a_random_table():
    rng = np.random.default_rng(48)
    n, dim = 3000, 50
    model = Model(weights=rng.uniform(-0.1, 0.1, size=(n, dim)), bias=np.zeros(dim),
                  activation="tanh", vocab_fingerprint=0)
    _, units = model.row_index()
    for pos in (0, 17, n - 1):
        rows = _screen(units, units[pos], 11)
        assert pos in rows and 11 <= len(rows) < 40


@st.composite
def _screened_tables(draw):
    # a weight table built to crowd the k-th place: rows drawn around a few
    # directions (near-ties within the float32 error), exact and scaled
    # duplicates (exact ties), zero rows, magnitudes from 1e-30 to 1e30, and
    # possibly one row whose norm overflows, which cannot be searched
    n = draw(st.integers(1, 300))
    dim = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = rng.normal(size=(draw(st.integers(1, 5)), dim))
    spread = 10.0 ** draw(st.sampled_from([-14, -9, -7, -5, -2, 0]))
    weights = centres[rng.integers(len(centres), size=n)] + spread * rng.normal(size=(n, dim))
    weights *= 10.0 ** rng.uniform(-30, 30, size=(n, 1))
    for _ in range(draw(st.integers(0, n // 3))):
        a, b = rng.integers(n, size=2)
        weights[a] = weights[b] * draw(st.sampled_from([1.0, 1.0, 2.0, 3.0, -1.0, 1e-20]))
    weights[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    overflows = draw(st.booleans())
    if overflows:
        weights[rng.integers(n), rng.integers(dim)] = 1e160  # the row's norm is inf
    names = [f"{i:04x}" for i in rng.permutation(max(n, 2**12))[:n]]  # not in row order
    query = draw(st.integers(0, n - 1))
    k = draw(st.integers(1, n + 2))
    return weights, names, query, k, overflows


@settings(max_examples=400, deadline=None)
@given(_screened_tables())
def test_screened_ngram_neighbors_equal_an_exhaustive_per_row_scan_bit_for_bit(table):
    weights, names, query, k, overflows = table
    vocab = NGramVocab([(g, 4, 1) for g in names])
    model = Model(weights=weights, bias=np.zeros(weights.shape[1]), activation="linear",
                  vocab_fingerprint=vocab.fingerprint)
    if overflows:
        with pytest.raises(DataError, match="cannot search row"):
            ngram_neighbors(names[query], model, vocab, k)
        assert model.weights.flags.writeable
        return
    got = ngram_neighbors(names[query], model, vocab, k)
    assert _bits(got) == _bits(_ngram_scan(names[query], model, vocab, k))


# one bigram vocabulary; a model with zero weights and a linear activation
# embeds every query as its bias, so a test can pick the query vector
_ONE_GRAM = NGramVocab([("ab", 2, 1)])


def _embedding_as(query_vector, vocab=_ONE_GRAM):
    return Model(weights=np.zeros((len(vocab), len(query_vector))), bias=query_vector,
                 activation="linear", vocab_fingerprint=vocab.fingerprint)


@pytest.mark.parametrize("min_entries", [0, 2**18], ids=["screened-list", "exact-list"])
def test_rows_and_queries_of_norm_out_of_range_cannot_be_searched(min_entries, monkeypatch):
    monkeypatch.setattr(neighbors, "_SCREEN_MIN_ENTRIES", min_entries)
    names = ["ab", "bc", "cd"]
    vocab = NGramVocab([(g, 2, 1) for g in names])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no warning leaks
        # a norm just below 2^511 still scores by its direction
        rows = np.array([[2.0**510, 0.0], [1.0, 0.0], [0.0, 1.0]])
        model = Model(weights=rows, bias=np.zeros(2), activation="linear",
                      vocab_fingerprint=vocab.fingerprint)
        wv = WorkingVocab(names, rows)
        for k in (1, 2):
            want = [("bc", 1.0), ("cd", 0.0)][:k]
            assert ngram_neighbors("ab", model, vocab, k) == want
            assert nearest_neighbors("ab", wv, _embedding_as(rows[0], vocab), vocab, k) == want
        # a norm that is inf, NaN, or finite but at least 2^511 (its square is finite)
        for odd in (np.inf, np.nan, 2.0**511.5):
            rows = np.array([[1.0, 0.0], [odd, 0.0], [0.0, 1.0]])
            refused = r"cannot search row 1: its norm \S+ is not below 2\^511"
            with pytest.raises(DataError, match=refused):
                WorkingVocab(names, rows)
            assert rows.flags.writeable
            model = Model(weights=rows, bias=np.zeros(2), activation="linear",
                          vocab_fingerprint=vocab.fingerprint)
            for query in names:
                with pytest.raises(DataError, match=refused):
                    ngram_neighbors(query, model, vocab, k=1)
            assert model.weights.flags.writeable  # nothing was cached
            # the linear zero-weight model embeds every word as its bias
            embedder = _embedding_as(rows[1], vocab)
            with pytest.raises(DataError, match=r"cannot search row 0: "):
                build_working_vocab(["ab", "cd"], embedder, vocab)
            wv = WorkingVocab(names, rows[[0, 2, 0]])
            with pytest.raises(DataError, match=r"a query of norm \S+: it is not below 2\^511"):
                nearest_neighbors("ab", wv, embedder, vocab, k=1)


@pytest.mark.parametrize("entry", ["working-vocab", "row-norms", "unit-rows", "ngram-query"])
def test_rows_of_dimension_zero_cannot_be_indexed(entry):
    # a d = 0 model can be built (and written); its rows have no direction
    vocab = NGramVocab([("ab", 2, 1), ("bc", 2, 1)])
    model = Model(weights=np.zeros((2, 0)), bias=np.zeros(0), activation="tanh",
                  vocab_fingerprint=vocab.fingerprint)
    calls = {
        "working-vocab": lambda: WorkingVocab(["ab", "bc"], np.zeros((2, 0))),
        "row-norms": lambda: model.row_index().norms,
        "unit-rows": lambda: model.row_index().units,
        "ngram-query": lambda: ngram_neighbors("ab", model, vocab, k=1),
    }
    with pytest.raises(DataError, match="dimension 0"):
        calls[entry]()
    assert model.weights.flags.writeable  # nothing was cached


def test_working_vocab_keeps_float32_unit_rows_from_the_size_rule_up(monkeypatch):
    rng = np.random.default_rng(49)
    rows = rng.normal(size=(64, 8))
    rows[3] = 0.0
    words = [f"w{i}" for i in range(len(rows))]
    odd = rows.copy()
    odd[5, 0] = 1e160  # its norm overflows
    for min_entries in (rows.size + 1, rows.size):  # refused on both sides of the size rule
        monkeypatch.setattr(neighbors, "_SCREEN_MIN_ENTRIES", min_entries)
        with pytest.raises(DataError, match="cannot search row 5: its norm inf "):
            WorkingVocab(words, odd)
        assert odd.flags.writeable
    monkeypatch.setattr(neighbors, "_SCREEN_MIN_ENTRIES", rows.size + 1)
    assert WorkingVocab(words, rows).index.units is None
    monkeypatch.setattr(neighbors, "_SCREEN_MIN_ENTRIES", rows.size)
    wv = WorkingVocab(words, rows)
    units = wv.index.units
    model = Model(weights=rows, bias=np.zeros(8), activation="tanh", vocab_fingerprint=0)
    assert units.dtype == np.float32 and units.nbytes == 4 * rows.size
    assert not units.flags.writeable
    assert np.array_equal(units, model.row_index().units)
    assert _per_row_bits(wv.index.norms) == _per_row_bits(_row_norms(rows))


@st.composite
def _word_lists(draw):
    # a word list built to crowd the k-th place, as _screened_tables does,
    # possibly with rows whose norm overflows or reaches 2^511 (which cannot be
    # searched), and a query that is zero (an unknown word), a word of the list
    # or a vector near the rows
    n = draw(st.integers(1, 200))
    dim = draw(st.integers(1, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = rng.normal(size=(draw(st.integers(1, 5)), dim))
    spread = 10.0 ** draw(st.sampled_from([-14, -9, -7, -5, -2, 0]))
    rows = centres[rng.integers(len(centres), size=n)] + spread * rng.normal(size=(n, dim))
    rows *= 10.0 ** rng.uniform(-30, 30, size=(n, 1))
    for _ in range(draw(st.integers(0, n // 3))):
        a, b = rng.integers(n, size=2)
        rows[a] = rows[b] * draw(st.sampled_from([1.0, 1.0, 2.0, 3.0, -1.0, 1e-20]))
    rows[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    out_of_range = False
    for scale in (1e160, 1e154):  # a norm that overflows; a finite one past 2^511
        if draw(st.booleans()):
            rows[rng.integers(n), rng.integers(dim)] = scale
            out_of_range = True
    words = [f"w{i:04x}" for i in rng.permutation(max(n, 2**12))[:n]]  # not in row order
    kind = draw(st.sampled_from(["unknown", "word", "near"]))
    if kind == "unknown":
        query, vector = "zz", np.zeros(dim)
    elif kind == "word":
        pos = draw(st.integers(0, n - 1))
        query, vector = words[pos], rows[pos].copy()
    else:
        query = "zz"
        vector = centres[rng.integers(len(centres))] + spread * rng.normal(size=dim)
        vector *= 10.0 ** rng.uniform(-30, 30)
    k = draw(st.integers(1, n + 1))
    return rows, words, query, vector, k, out_of_range


@pytest.mark.parametrize("screened", [True, False], ids=["screened-list", "exact-list"])
@settings(max_examples=300, deadline=None)
@given(_word_lists())
def test_word_neighbors_equal_an_exhaustive_scan_bit_for_bit(screened, table):
    rows, words, query, vector, k, out_of_range = table
    model = _embedding_as(vector)
    q, exclude = _embedded(query, model, _ONE_GRAM)
    screens = []

    def counted(*args):
        screens.append(args)
        return _screen(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(neighbors, "_SCREEN_MIN_ENTRIES", 0 if screened else rows.size + 1)
        patch.setattr(neighbors, "_screen", counted)
        if out_of_range:
            with pytest.raises(DataError, match="cannot search row"):
                WorkingVocab(words, rows)
            assert rows.flags.writeable
            return
        wv = WorkingVocab(words, rows)
        got = nearest_neighbors(query, wv, model, _ONE_GRAM, k)
    assert (wv.index.units is not None) == screened
    if screened and k + 1 < len(words) and _norm(q) >= COSINE_NORM_FLOOR:
        assert len(screens) == 1
        # the names of an exhaustive scan, and each cosine as the per-row routine gives it
        assert _bits(got) == _bits(_exhaustive_scan(rows, q, words, exclude, k, _row_dots))
    else:
        assert not screens
        # the dgemv scan, bit for bit
        assert _bits(got) == _bits(_exhaustive_scan(rows, q, words, exclude, k, np.matmul))
