import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import sparse

from charngram import (
    DataError,
    Model,
    NGramVocab,
    cosine,
    embed,
    embed_matrix,
    encode,
    normalize,
    preactivation,
    verify_binding,
)
from charngram.model import (
    _row_norms,
    activation_grad,
    apply_activation,
    check_activation,
    embed_matrix_grad,
)

from conftest import count_matrix, dense_embed_ref, float64_layout, random_model


def _bare_model(weights, bias, activation="linear"):
    return Model(weights=weights, bias=bias, activation=activation, vocab_fingerprint=0)


def test_embed_worked_examples():
    m = _bare_model([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 0.0])
    assert np.allclose(embed({0: 1, 1: 1, 2: 1}, m).values, [2.0, 2.0])

    m = _bare_model(np.zeros((1, 2)), [0.5, -0.5], "tanh")
    e = embed({}, m)
    assert np.allclose(e.values, np.tanh([0.5, -0.5]))
    assert e.oov_fallback and e.used_ngrams == 0

    m = _bare_model([[1.0, -1.0]], [0.0, 0.0], "tanh")
    assert np.allclose(embed({0: 2}, m).values, np.tanh([2.0, -2.0]))


def test_embed_counts_bookkeeping():
    m = _bare_model(np.ones((2, 3)), np.zeros(3))
    e = embed({0: 2, 1: 3}, m)
    assert e.used_ngrams == 5
    assert not e.oov_fallback


def test_embed_out_of_range_row():
    m = _bare_model(np.ones((2, 3)), np.zeros(3))
    with pytest.raises(DataError, match="vocab/model mismatch"):
        embed({5: 1}, m)
    with pytest.raises(DataError, match="vocab/model mismatch"):
        preactivation({-1: 1}, m)


def test_activation_ranges():
    rng = np.random.default_rng(0)
    pre = rng.normal(0, 3, size=50)
    assert np.all(np.abs(apply_activation("tanh", pre)) <= 1.0)
    assert np.array_equal(apply_activation("linear", pre), pre)
    with pytest.raises(ValueError, match="activation must be one of"):
        check_activation("relu")


def test_activation_grad_matches_numeric():
    rng = np.random.default_rng(1)
    pre = rng.normal(0, 2, size=200)
    h = 1e-6
    for act in ("linear", "tanh"):
        values = apply_activation(act, pre)
        numeric = (apply_activation(act, pre + h) - apply_activation(act, pre - h)) / (2 * h)
        assert np.allclose(activation_grad(act, values), numeric, atol=1e-8)


def test_embed_matches_dense_reference(small_vocab):
    rng = np.random.default_rng(7)
    texts = ("the cat sat", "dogs bark", "swim deep fish", "zzz", "a black cat")
    cvs = [encode(normalize(text), small_vocab) for text in texts]
    assert cvs[3] == {}  # "zzz" has no n-gram in the vocabulary: h(bias)
    for act in ("linear", "tanh"):
        model = random_model(rng, small_vocab, dim=5, activation=act)
        batch = embed_matrix(count_matrix(cvs, model), model)
        assert batch.shape == (len(texts), 5)
        for cv, row in zip(cvs, batch):
            single = embed(cv, model).values
            assert np.allclose(single, dense_embed_ref(cv, model), rtol=0, atol=1e-12)
            # the CSR product and the per-text gemv sum rows in different orders
            assert np.allclose(row, single, rtol=0, atol=1e-12)
        assert np.array_equal(batch[3], apply_activation(act, model.bias))


def test_embed_depends_only_on_count_vector():
    vocab = NGramVocab([("ab", 2, 1)])
    rng = np.random.default_rng(3)
    model = random_model(rng, vocab, dim=4)
    a = embed(encode(" xaby ", vocab), model).values
    b = embed(encode(" abzz ", vocab), model).values
    assert np.array_equal(a, b)


def test_cosine_worked_examples():
    assert cosine([1, 0], [0, 1]) == 0.0
    assert cosine([1, 1], [2, 2]) == pytest.approx(1.0)
    assert cosine([1, 0], [0, 0]) == 0.0


def test_cosine_dim_mismatch():
    with pytest.raises(DataError):
        cosine([1, 0], [1, 0, 0])


finite_vecs = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=8
)


@given(finite_vecs, st.floats(min_value=1e-3, max_value=1e3))
def test_cosine_symmetry_and_scale_invariance(v, alpha):
    u = np.arange(1.0, len(v) + 1.0)
    w = np.asarray(v)
    assert cosine(u, w) == pytest.approx(cosine(w, u), abs=1e-12)
    assert cosine(alpha * u, w) == pytest.approx(cosine(u, w), abs=1e-9)
    assert -1.0 - 1e-12 <= cosine(u, w) <= 1.0 + 1e-12


def _embed_gradient(cvs, model, upstream):
    counts = count_matrix(cvs, model)
    values = embed_matrix(counts, model)
    return embed_matrix_grad(values, np.atleast_2d(upstream), model, float64_layout(counts))


def test_embed_gradient_worked_examples():
    m = _bare_model(np.zeros((1, 2)), np.zeros(2), "linear")
    db, touched, drows = _embed_gradient([{0: 1}], m, [1.0, 0.0])
    assert np.allclose(db, [1, 0]) and np.allclose(drows[0], [1, 0])

    m = _bare_model(np.zeros((1, 2)), np.zeros(2), "tanh")  # pre-activation 0
    db, touched, drows = _embed_gradient([{0: 2}], m, [1.0, 1.0])
    assert np.allclose(db, [1, 1]) and np.allclose(drows[0], [2, 2])

    db, touched, drows = _embed_gradient([{0: 2}], m, [0.0, 0.0])
    assert not db.any() and not drows[0].any()

    # two rows sharing n-gram 0: its gradient sums count * upstream over rows
    m = _bare_model(np.zeros((3, 2)), np.zeros(2), "linear")
    db, touched, drows = _embed_gradient([{0: 1, 2: 3}, {0: 2}, {}], m, [[1, 0], [0, 1], [5, 5]])
    assert touched.tolist() == [0, 2]
    assert np.allclose(db, [6, 6]) and np.allclose(drows, [[1, 2], [3, 0]])


def test_embed_gradient_matches_dense_transpose_product():
    # columns shared between rows and unsorted within rows; row 3 is empty
    indptr = np.array([0, 3, 5, 8, 8, 10])
    indices = np.array([7, 2, 11, 11, 0, 2, 9, 7, 4, 11])
    data = np.arange(1.0, 11.0)
    counts = sparse.csr_matrix((data, indices, indptr), shape=(5, 12))
    rng = np.random.default_rng(12)
    model = _bare_model(rng.normal(size=(12, 6)), rng.normal(size=6), "tanh")
    values = embed_matrix(counts, model)
    upstream = rng.normal(size=values.shape)
    db, touched, drows = embed_matrix_grad(values, upstream, model, float64_layout(counts))
    d_pre = upstream * (1.0 - values * values)
    assert touched.tolist() == [0, 2, 4, 7, 9, 11]
    assert np.allclose(drows, (counts.toarray().T @ d_pre)[touched], rtol=1e-13, atol=0)
    assert np.array_equal(drows, counts[:, touched].T @ d_pre)  # scipy's column slice
    assert np.allclose(db, d_pre.sum(axis=0), rtol=1e-13, atol=0)


def test_embed_gradient_touches_only_cv_rows(small_vocab):
    rng = np.random.default_rng(5)
    model = random_model(rng, small_vocab, dim=4)
    cvs = [encode(normalize(t), small_vocab) for t in ("the cat", "dogs")]
    _, touched, drows = _embed_gradient(cvs, model, rng.normal(size=(2, 4)))
    assert touched.tolist() == sorted(set(cvs[0]) | set(cvs[1]))
    assert drows.shape == (len(touched), 4)


def test_embed_gradient_matches_finite_differences(small_vocab):
    # scalar loss: dot(embedding, a) for a fixed direction a
    rng = np.random.default_rng(9)
    step = 1e-5
    for act in ("linear", "tanh"):
        model = random_model(rng, small_vocab, dim=4, activation=act)
        cv = encode(normalize("black cat"), small_vocab)
        a = rng.normal(size=4)

        def loss():
            return float(np.dot(embed(cv, model).values, a))

        db, touched, grads = _embed_gradient([cv], model, a)
        drows = dict(zip(touched.tolist(), grads))

        for c in range(4):
            saved = model.bias[c]
            model.bias[c] = saved + step
            fp = loss()
            model.bias[c] = saved - step
            fm = loss()
            model.bias[c] = saved
            num = (fp - fm) / (2 * step)
            assert abs(db[c] - num) / max(abs(db[c]), abs(num), 1e-3) < 1e-4
        for row in drows:
            for c in range(4):
                saved = model.weights[row, c]
                model.weights[row, c] = saved + step
                fp = loss()
                model.weights[row, c] = saved - step
                fm = loss()
                model.weights[row, c] = saved
                num = (fp - fm) / (2 * step)
                assert abs(drows[row][c] - num) / max(abs(drows[row][c]), abs(num), 1e-3) < 1e-4


def test_verify_binding(small_vocab):
    rng = np.random.default_rng(2)
    model = random_model(rng, small_vocab, dim=4)
    verify_binding(model, small_vocab)

    other = NGramVocab([("xy", 2, 1)])
    with pytest.raises(DataError, match="fingerprint"):
        verify_binding(model, other)

    wrong_rows = Model(
        weights=np.zeros((len(small_vocab) + 1, 4)),
        bias=np.zeros(4),
        activation="tanh",
        vocab_fingerprint=small_vocab.fingerprint,
    )
    with pytest.raises(DataError, match="vocab/model mismatch"):
        verify_binding(wrong_rows, small_vocab)


def test_model_shape_validation():
    with pytest.raises(ValueError):
        Model(weights=np.zeros((2, 3)), bias=np.zeros(4), activation="tanh", vocab_fingerprint=0)
    with pytest.raises(ValueError):
        Model(weights=np.zeros((2, 3)), bias=np.zeros(3), activation="banana", vocab_fingerprint=0)
    with pytest.raises(ValueError, match="weights must be 2-D and bias 1-D"):
        Model(weights=np.zeros(3), bias=np.zeros(3), activation="tanh", vocab_fingerprint=0)


# --- cached row norms ----------------------------------------------------------


def test_row_norms_are_cached_and_freeze_the_weights():
    model = _bare_model(np.random.default_rng(20).normal(size=(9, 5)), np.zeros(5))
    norms = model.row_index().norms
    assert np.array_equal(norms, np.linalg.norm(model.weights, axis=1))
    assert model.row_index().norms is norms
    with pytest.raises(ValueError):
        model.weights[3, 1] = 1.0
    with pytest.raises(ValueError):
        model.weights += 1.0
    model.drop_row_norms()
    model.weights[3, 1] = 1.0  # writeable again
    assert np.array_equal(model.row_index().norms, _row_norms(model.weights))


def test_rebinding_weights_gives_fresh_norms():
    rng = np.random.default_rng(21)
    model = _bare_model(rng.normal(size=(6, 4)), np.zeros(4))
    old = model.weights
    model.row_index().norms
    model.weights = rng.normal(size=(6, 4))
    model.weights[0, 0] = 7.0  # a rebound array starts writeable
    assert np.array_equal(model.row_index().norms, _row_norms(model.weights))
    assert old.flags.writeable  # the old array got its flag back


def test_replace_copy_starts_without_cached_norms():
    rng = np.random.default_rng(22)
    model = _bare_model(rng.normal(size=(6, 4)), np.zeros(4))
    model.row_index().norms
    copy = dataclasses.replace(model, weights=model.weights.copy())
    copy.weights[1] = 0.0
    assert copy.row_index().norms[1] == 0.0
    assert np.array_equal(copy.row_index().norms, _row_norms(copy.weights))
    assert model.row_index().norms[1] > 0.0


def test_deep_copy_recomputes_its_norms():
    model = _bare_model(np.random.default_rng(24).normal(size=(6, 4)), np.zeros(4))
    model.row_index().norms
    clone = copy.deepcopy(model)  # its weights come back writeable
    clone.weights[2] = 0.0
    assert np.array_equal(clone.row_index().norms, _row_norms(clone.weights))
    assert clone.row_index().norms[2] == 0.0 and model.row_index().norms[2] > 0.0


def test_drop_row_norms_puts_back_the_original_flag():
    weights = np.random.default_rng(23).normal(size=(5, 3))
    weights.flags.writeable = False
    model = _bare_model(weights, np.zeros(3))
    model.row_index().norms
    model.drop_row_norms()
    assert not model.weights.flags.writeable  # arrived read-only, stays read-only
    model.drop_row_norms()  # nothing cached: no-op
    writable = _bare_model(np.ones((5, 3)), np.zeros(3))
    writable.row_index().norms
    writable.drop_row_norms()
    assert writable.weights.flags.writeable
