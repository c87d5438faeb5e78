import numpy as np
import pytest
from hypothesis import given, strategies as st

from charngram import (
    DataError,
    Model,
    NGramVocab,
    cosine,
    count_matrix,
    embed,
    embed_matrix,
    encode,
    normalize,
    preactivation,
    verify_binding,
)
from charngram.model import activation_grad, apply_activation, check_activation, embed_matrix_grad

from conftest import dense_embed_ref, random_model


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
    for bad in ({5: 1}, {-1: 1}):
        with pytest.raises(DataError, match="vocab/model mismatch"):
            count_matrix([{0: 1}, bad], m)


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
    return embed_matrix_grad(counts, values, np.atleast_2d(upstream), model)


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
