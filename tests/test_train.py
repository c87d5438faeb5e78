import math
import sys

import numpy as np
import pytest

from charngram import (
    AdamState,
    DataError,
    MinCount,
    NumericalError,
    PairDataset,
    TrainConfig,
    TrainingCurve,
    build_vocab,
    cosine,
    encode,
    epoch_permutation,
    finite_diff_audit,
    init_model,
    normalize,
    select_negatives,
    train,
)
from charngram.model import COSINE_NORM_FLOOR, Model, check_activation
from charngram.train import (
    _ADAM_BLOCK_ENTRIES,
    _adam_apply,
    _batch_gradients,
    _encode_pairs,
    _hinge,
    _rng,
    _step,
)

from conftest import random_model


def _vec(angle):
    return np.array([math.cos(angle), math.sin(angle)])


# --- pair loss ---------------------------------------------------------------


def _two_pair_loss(x1, x2, t1, t2, margin):
    """Mean hinge loss of the batch [(x1, x2), (t1, t2)], each pair the other's negatives."""
    values = np.array([x1, t1, x2, t2], dtype=np.float64)  # [side 1; side 2]
    loss, _ = _hinge(values, [((1, 0), (1, 1)), ((0, 0), (0, 1))], margin)
    return loss


def test_pair_loss_margins_satisfied():
    x = np.array([1.0, 0.0])
    t = np.array([0.0, 1.0])
    values = np.array([x, t, x, t])
    loss, grad = _hinge(values, [((1, 0), (1, 1)), ((0, 0), (0, 1))], 0.4)
    assert loss == 0.0 and not grad.any()


def test_pair_loss_both_hinges_at_margin():
    x1 = np.array([1.0, 0.0])
    x2 = np.array([0.0, 1.0])
    # every negative is orthogonal to its anchor, in both pairs: 4 x 0.4 / 2
    assert _two_pair_loss(x1, x2, x2, x1, 0.4) == pytest.approx(0.8)


def test_pair_loss_mixed_hinges():
    x1 = _vec(0.0)
    x2 = _vec(math.pi / 3)  # cos(x1, x2) = 0.5
    t1 = _vec(math.pi / 3)  # cos(x1, t1) = 0.5
    t2 = -x2  # cos(x2, t2) = -1, cos(t1, t2) = -1
    # pair 0: 0.4 - 0.5 + 0.5 and an inactive 0.4 - 0.5 - 1;
    # pair 1: 0.4 + 1 + cos(t1, x1) = 1.9 and 0.4 + 1 + cos(t2, x2) = 0.4
    assert _two_pair_loss(x1, x2, t1, t2, 0.4) == pytest.approx((0.4 + 1.9 + 0.4) / 2)


def test_pair_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    values = rng.normal(size=(8, 3))
    values[5] = 0.0  # a zero-norm embedding has cosine 0 and no gradient
    negatives = [((1, 0), (2, 1)), ((3, 0), (0, 1)), ((0, 1), (1, 1)), ((2, 0), (3, 1))]
    _, grad = _hinge(values, negatives, 1.5)
    assert not grad[5].any()
    step = 1e-6
    for idx in np.ndindex(values.shape):
        if idx[0] == 5:
            continue
        plus, minus = values.copy(), values.copy()
        plus[idx] += step
        minus[idx] -= step
        numeric = (_hinge(plus, negatives, 1.5)[0] - _hinge(minus, negatives, 1.5)[0]) / (2 * step)
        assert grad[idx] == pytest.approx(numeric, abs=1e-7)


def test_pair_loss_rejects_non_finite_embeddings():
    values = np.ones((4, 2))
    negatives = [((1, 0), (1, 1)), ((0, 0), (0, 1))]
    for bad in (np.nan, np.inf, 1e300):  # 1e300 is finite, but its norm is not
        values[2] = [bad, bad]
        with pytest.raises(NumericalError, match="non-finite embedding"):
            with np.errstate(over="ignore"):
                _hinge(values, negatives, 0.4)


# --- select_negatives --------------------------------------------------------


def _batch_from_vectors(side1, side2):
    return np.array(side1, dtype=np.float64), np.array(side2, dtype=np.float64)


def test_two_pairs_unique_candidate():
    batch = _batch_from_vectors([_vec(0), _vec(1)], [_vec(2), _vec(3)])
    for mode in ("max", "mix"):
        rng = _rng(0, 99)
        assert select_negatives(*batch, mode, rng) == [((1, 0), (1, 1)), ((0, 0), (0, 1))]


def test_max_prefers_most_similar():
    # cos(e0, e1) = 0.9, cos(e0, e2) = 0.1
    side1 = [_vec(0), _vec(math.acos(0.9)), _vec(math.acos(0.1))]
    side2 = [_vec(1), _vec(2), _vec(3)]
    batch = _batch_from_vectors(side1, side2)
    out = select_negatives(*batch, "max", _rng(0, 1))
    assert out[0][0] == (1, 0)


def test_max_tie_breaks_by_lowest_index():
    dup = _vec(0.5)
    batch = _batch_from_vectors([_vec(0), dup, dup.copy()], [_vec(1), _vec(2), _vec(3)])
    out = select_negatives(*batch, "max", _rng(0, 2))
    assert out[0][0] == (1, 0)  # pairs 1 and 2 tie exactly; lowest index wins


def test_batch_of_one_rejected():
    with pytest.raises(DataError, match="cannot sample negatives"):
        select_negatives(*_batch_from_vectors([_vec(0)], [_vec(1)]), "max", _rng(0, 3))


def test_max_never_consumes_rng():
    batch = _batch_from_vectors([_vec(i) for i in range(4)], [_vec(i + 9) for i in range(4)])
    rng = _rng(7, 4)
    select_negatives(*batch, "max", rng)
    untouched = _rng(7, 4)
    assert rng.random() == untouched.random()


def test_mix_matches_manual_replay():
    rng_data = np.random.default_rng(21)
    n = 6
    side1 = [rng_data.normal(size=3) for _ in range(n)]
    side2 = [rng_data.normal(size=3) for _ in range(n)]
    batch = _batch_from_vectors(side1, side2)

    got = select_negatives(*batch, "mix", _rng(5, 6))

    # replay: one coin per pair per side in order, uniform draw only on tails
    replay = _rng(5, 6)
    sides = (side1, side2)
    for i in range(n):
        for side in (0, 1):
            allowed = [j for j in range(n) if j != i]
            if replay.random() < 0.5:
                best = max(allowed, key=lambda j: (cosine(sides[side][i], sides[side][j]), -j))
                expected = (best, side)
            else:
                expected = (allowed[int(replay.integers(len(allowed)))], side)
            assert got[i][side] == expected


def test_string_equal_candidates_excluded():
    texts = [(" a ", " b "), (" a ", " c "), (" d ", " e ")]
    # make pair 1's side-1 the most similar, so exclusion must actively skip it
    side1 = [_vec(0), _vec(0.01), _vec(1.0)]
    side2 = [_vec(2), _vec(3), _vec(4)]
    out = select_negatives(*_batch_from_vectors(side1, side2), "max", _rng(0, 7), texts=texts)
    assert out[0][0] == (2, 0)


def test_exclusion_fallback_when_pool_empties():
    texts = [(" a ", " b "), (" a ", " b ")]
    batch = _batch_from_vectors([_vec(0), _vec(0.2)], [_vec(1), _vec(1.2)])
    out = select_negatives(*batch, "max", _rng(0, 8), texts=texts)
    assert out[0][0] == (1, 0)  # only candidate, readmitted by the fallback


def test_both_sides_pool_reaches_other_side():
    side1 = [_vec(0), _vec(math.pi / 2)]
    side2 = [_vec(2), _vec(0.05)]  # pair 1 side 2 is closest to pair 0 side 1
    batch = _batch_from_vectors(side1, side2)
    out = select_negatives(*batch, "max", _rng(0, 9), pool="both-sides")
    assert out[0][0] == (1, 1)


def test_max_matches_exhaustive_scan():
    rng = np.random.default_rng(33)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        side1 = [rng.normal(size=4) for _ in range(n)]
        side2 = [rng.normal(size=4) for _ in range(n)]
        got = select_negatives(*_batch_from_vectors(side1, side2), "max", _rng(1, 10))
        for i in range(n):
            for side, embs in ((0, side1), (1, side2)):
                best, best_c = None, -2.0
                for j in range(n):
                    if j == i:
                        continue
                    c = cosine(embs[i], embs[j])
                    if c > best_c:
                        best, best_c = j, c
                assert got[i][side] == (best, side)


# --- crafted two-cluster setup ----------------------------------------------


def _orthogonal_setup(scale=3.0):
    """Vocabulary over "aa"/"bb"; a-grams embed along e1, b-grams along e2."""
    vocab = build_vocab(["aa", "bb"], {2}, MinCount(1))
    weights = np.zeros((len(vocab), 2))
    for ngram, _, _ in vocab.entries:
        row = vocab.index[ngram]
        weights[row] = [scale, 0.0] if "a" in ngram else [0.0, scale]
    model = Model(weights=weights, bias=np.zeros(2), activation="linear",
                  vocab_fingerprint=vocab.fingerprint)
    return vocab, model


def test_satisfied_margins_leave_parameters_unchanged():
    vocab, model = _orthogonal_setup()
    before_w = model.weights.copy()
    before_b = model.bias.copy()
    config = TrainConfig(dim=2, activation="linear", batch_size=2, reg_lambda=0.0)
    adam = AdamState()
    texts, counts = _encode_pairs([("aa", "aa"), ("bb", "bb")], vocab, model, "lower")
    loss = _step(texts, counts, model, config, adam, _rng(0, 11))
    assert loss == 0.0
    assert np.array_equal(model.weights, before_w)
    assert np.array_equal(model.bias, before_b)


def test_inactive_hinges_give_pure_regularizer_gradient():
    vocab, model = _orthogonal_setup()
    lam = 1e-2
    config = TrainConfig(dim=2, activation="linear", batch_size=2, reg_lambda=lam)
    texts, counts = _encode_pairs([("aa", "aa"), ("bb", "bb")], vocab, model, "lower")
    loss, grad_bias, touched, grad_rows, negatives = _batch_gradients(
        texts, counts, model, config, _rng(0, 12)
    )
    assert negatives == [((1, 0), (1, 1)), ((0, 0), (0, 1))]
    assert loss == 0.0
    assert touched.tolist() == list(range(len(vocab)))
    assert np.array_equal(grad_bias, 2 * lam * model.bias)
    assert np.array_equal(grad_rows, 2 * lam * model.weights[touched])


def test_decay_only_step_shrinks_touched_rows():
    vocab, model = _orthogonal_setup()
    config = TrainConfig(dim=2, activation="linear", batch_size=2, reg_lambda=1e-2)
    before = model.weights.copy()
    texts, counts = _encode_pairs([("aa", "aa"), ("bb", "bb")], vocab, model, "lower")
    _step(texts, counts, model, config, AdamState(), _rng(0, 12))
    moved = np.abs(model.weights) - np.abs(before)
    assert np.all(moved[np.abs(before) > 0.1] < 0)  # big coordinates move toward zero


def test_first_adam_step_is_signed_learning_rate(small_vocab):
    # the symmetric two-cluster batch has an all-zero gradient, so use random weights
    model = random_model(np.random.default_rng(13), small_vocab, dim=3)
    config = TrainConfig(dim=3, batch_size=3, learning_rate=0.001)
    batch = [("the cat", "black cat"), ("dogs bark", "bark loud"), ("fish swim", "deep fish")]
    texts, counts = _encode_pairs(batch, small_vocab, model, "lower")
    _, grad_bias, touched, grad_rows, _ = _batch_gradients(
        texts, counts, model, config, _rng(0, 13)
    )
    assert np.any(np.abs(grad_rows) > 1e-4)

    before_w = model.weights.copy()
    before_b = model.bias.copy()
    _step(texts, counts, model, config, AdamState(), _rng(0, 13))

    for grad, delta in [
        (grad_bias, model.bias - before_b),
        (grad_rows, model.weights[touched] - before_w[touched]),
    ]:
        big = np.abs(grad) > 1e-4
        assert np.allclose(delta[big], -config.learning_rate * np.sign(grad[big]), atol=1e-6)


def test_untouched_rows_bit_unchanged(small_vocab):
    config = TrainConfig(dim=4, batch_size=2, seed=3, reg_lambda=1e-4)
    model = init_model(small_vocab, config)
    before = model.weights.copy()
    batch = [("the cat", "black cat"), ("dogs bark", "bark loud")]
    adam = AdamState()
    texts, counts = _encode_pairs(batch, small_vocab, model, "lower")
    _step(texts, counts, model, config, adam, _rng(3, 14))

    touched = set()
    for a, b in batch:
        touched |= set(encode(normalize(a), small_vocab))
        touched |= set(encode(normalize(b), small_vocab))
    untouched = [row for row in range(len(small_vocab)) if row not in touched]
    assert untouched and touched
    assert np.array_equal(model.weights[untouched], before[untouched])
    for moment in (adam.m_weights, adam.v_weights):
        assert moment.shape == model.weights.shape
        assert not moment[untouched].any()  # exactly zero
        assert moment[sorted(touched)].any()
    assert adam.step == 1


def _adam_reference(model, adam, config, grad_bias, touched, grad_rows):
    """The unblocked Adam step in Kingma & Ba's step-size form: the bias, then all touched rows."""
    adam.step += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    root_corr2 = math.sqrt(1.0 - b2**adam.step)
    alpha = config.learning_rate * root_corr2 / (1.0 - b1**adam.step)
    eps = config.adam_epsilon * root_corr2
    for param, m, v, idx, grad in (
        (model.bias, adam.m_bias, adam.v_bias, slice(None), grad_bias),
        (model.weights, adam.m_weights, adam.v_weights, touched, grad_rows),
    ):
        m[idx] = b1 * m[idx] + (1 - b1) * grad
        v[idx] = b2 * v[idx] + (1 - b2) * grad * grad
        param[idx] -= alpha * m[idx] / (np.sqrt(v[idx]) + eps)


PHRASES = [
    "the quick brown fox", "jumps over lazy dogs", "a black cat naps", "fish swim deep",
    "birds sing at dawn", "loud dogs bark", "rivers run cold", "green hills roll",
    "silver moons rise", "old trees whisper", "bright stars fall", "warm winds blow",
]


def test_blocked_adam_is_bit_equal_to_unblocked_reference():
    vocab = build_vocab(PHRASES, (2, 3, 4), MinCount(1))
    config = TrainConfig(dim=300, batch_size=4, reg_lambda=1e-3, seed=5)
    blocked = init_model(vocab, config)
    reference = init_model(vocab, config)
    adam_blocked = AdamState()
    adam_reference = AdamState(
        m_bias=np.zeros(config.dim), v_bias=np.zeros(config.dim),
        m_weights=np.zeros(reference.weights.shape), v_weights=np.zeros(reference.weights.shape),
    )
    per_block = _ADAM_BLOCK_ENTRIES // config.dim
    batches = [list(zip(PHRASES[i::3], PHRASES[i + 1 :: 3])) for i in range(3)] * 2
    for step, batch in enumerate(batches):
        texts, counts = _encode_pairs(batch, vocab, blocked, "lower")
        grads = _batch_gradients(texts, counts, blocked, config, _rng(5, step))[1:4]
        assert len(grads[1]) > 2 * per_block  # at least three blocks
        _adam_apply(blocked, adam_blocked, config, *grads)
        texts, counts = _encode_pairs(batch, vocab, reference, "lower")
        grads = _batch_gradients(texts, counts, reference, config, _rng(5, step))[1:4]
        _adam_reference(reference, adam_reference, config, *grads)
    assert adam_blocked.step == adam_reference.step == len(batches)
    assert np.array_equal(blocked.weights, reference.weights)
    assert np.array_equal(blocked.bias, reference.bias)
    for name in ("m_bias", "v_bias", "m_weights", "v_weights"):
        assert np.array_equal(getattr(adam_blocked, name), getattr(adam_reference, name))


def test_blocked_adam_names_lowest_bad_row_and_bias_first():
    dim = 300
    per_block = _ADAM_BLOCK_ENTRIES // dim
    rng = np.random.default_rng(6)
    touched = 2 * np.arange(4 * per_block)  # four blocks of rows 0, 2, 4, ...
    config = TrainConfig(dim=dim)

    def apply(bad_positions, bad_bias=False):
        model = Model(weights=rng.normal(size=(2 * len(touched), dim)), bias=np.zeros(dim),
                      activation="tanh", vocab_fingerprint=0)
        grad_rows = rng.normal(size=(len(touched), dim))
        grad_rows[bad_positions, 3] = np.nan
        grad_bias = rng.normal(size=dim)
        if bad_bias:
            grad_bias[0] = np.inf
        with np.errstate(invalid="ignore"):
            _adam_apply(model, AdamState(), config, grad_bias, touched, grad_rows)

    late, later = 2 * per_block + 5, 3 * per_block + 1
    with pytest.raises(NumericalError, match=rf"non-finite weight row {touched[late]} "):
        apply([later, late])
    with pytest.raises(NumericalError, match="non-finite bias"):
        apply([later, late], bad_bias=True)


def test_adam_steps_match_textbook_bias_correction():
    # lr * m_hat / (sqrt(v_hat) + eps) with m_hat = m / (1 - b1^t), v_hat = v / (1 - b2^t)
    dim, n_rows = 300, 400
    config = TrainConfig(dim=dim, learning_rate=0.01)
    b1, b2, lr, eps = 0.9, 0.999, config.learning_rate, config.adam_epsilon
    rng = np.random.default_rng(21)
    start = rng.normal(size=(n_rows, dim))
    model = Model(weights=start.copy(), bias=np.zeros(dim), activation="tanh",
                  vocab_fingerprint=0)
    adam = AdamState()
    weights, bias = start.copy(), np.zeros(dim)
    m_w, v_w, m_b, v_b = np.zeros_like(start), np.zeros_like(start), np.zeros(dim), np.zeros(dim)
    # a fixed sign per weight keeps every displacement away from zero, and
    # magnitudes down to 1e-10 make epsilon matter
    sign_w, sign_b = rng.choice([-1.0, 1.0], size=start.shape), rng.choice([-1.0, 1.0], size=dim)
    for t in range(1, 7):
        touched = np.sort(rng.choice(n_rows, size=150, replace=False))  # three blocks
        grad_rows = sign_w[touched] * 10.0 ** rng.uniform(-10, 0, size=(150, dim))
        grad_bias = sign_b * 10.0 ** rng.uniform(-10, 0, size=dim)
        _adam_apply(model, adam, config, grad_bias, touched, grad_rows)
        for param, m, v, idx, g in (
            (bias, m_b, v_b, slice(None), grad_bias),
            (weights, m_w, v_w, touched, grad_rows),
        ):
            m[idx] = b1 * m[idx] + (1 - b1) * g
            v[idx] = b2 * v[idx] + (1 - b2) * g**2
            m_hat, v_hat = m[idx] / (1 - b1**t), v[idx] / (1 - b2**t)
            param[idx] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    assert adam.step == 6
    np.testing.assert_allclose(model.weights - start, weights - start, rtol=1e-12, atol=0)
    np.testing.assert_allclose(model.bias, bias, rtol=1e-12, atol=0)
    for actual, expected in ((adam.m_weights, m_w), (adam.v_weights, v_w),
                             (adam.m_bias, m_b), (adam.v_bias, v_b)):
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=0)


def test_first_adam_step_leaves_exact_moments():
    # the update's in-place arithmetic must run on copies, never on the moments
    dim = 300
    config = TrainConfig(dim=dim)
    b1, b2 = config.adam_beta1, config.adam_beta2
    rng = np.random.default_rng(22)
    model = Model(weights=rng.normal(size=(200, dim)), bias=rng.normal(size=dim),
                  activation="tanh", vocab_fingerprint=0)
    touched = np.arange(0, 200, 2)
    grad_rows, grad_bias = rng.normal(size=(len(touched), dim)), rng.normal(size=dim)
    adam = AdamState()
    _adam_apply(model, adam, config, grad_bias, touched, grad_rows)
    assert np.array_equal(adam.m_bias, (1 - b1) * grad_bias)
    assert np.array_equal(adam.v_bias, (1 - b2) * grad_bias * grad_bias)
    assert np.array_equal(adam.m_weights[touched], (1 - b1) * grad_rows)
    assert np.array_equal(adam.v_weights[touched], (1 - b2) * grad_rows * grad_rows)


def _hinge_grad_reference(values, negatives, margin):
    """The hinge gradient scattered term by term with np.add.at: (a, b) terms, then (b, a)."""
    n = len(values) // 2
    norms = np.linalg.norm(values, axis=1)
    inv_norms = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms >= COSINE_NORM_FLOOR)
    units = values * inv_norms[:, None]
    anchor = np.arange(2 * n).reshape(2, n).T
    negative = np.array([[s * n + j for j, s in pair] for pair in negatives])
    c_pos = np.einsum("ij,ij->i", units[:n], units[n:])
    c_neg = np.einsum("ikj,ikj->ik", units[anchor], units[negative])
    active = (margin - c_pos[:, None] + c_neg > 0).astype(np.float64)
    a = np.concatenate([anchor[:, 0], anchor.ravel()])
    b = np.concatenate([anchor[:, 1], negative.ravel()])
    cos = np.concatenate([c_pos, c_neg.ravel()])[:, None]
    weight = np.concatenate([-active.sum(axis=1), active.ravel()])[:, None]
    upstream = np.zeros_like(values)
    for rows, others in ((a, b), (b, a)):
        grad = (units[others] - cos * units[rows]) * (weight * inv_norms[rows, None])
        np.add.at(upstream, rows, grad)
    return upstream / n


@pytest.mark.parametrize("n", [2, 3, 7])
def test_hinge_gradient_bit_equal_to_scatter_reference(n):
    rng = np.random.default_rng(23 + n)
    for trial in range(20):
        values = rng.normal(size=(2 * n, 5))
        if trial % 4 == 0:
            values[rng.integers(2 * n)] = 0.0  # a zero-norm embedding
        # most negatives are one shared phrase, so several terms hit one row
        negatives = []
        for i in range(n):
            crowd = 0 if i else 1
            picks = [(crowd, 0), (crowd, 1), (int(rng.integers(n)), int(rng.integers(2)))]
            negatives.append((picks[int(rng.integers(3))], picks[int(rng.integers(3))]))
        _, grad = _hinge(values, negatives, 1.5)
        assert np.array_equal(grad, _hinge_grad_reference(values, negatives, 1.5))


# --- config and curve --------------------------------------------------------


def test_config_rejects_relu():
    for reject in (check_activation, lambda act: TrainConfig(activation=act).validate()):
        with pytest.raises(ValueError, match=r"activation must be one of \('linear', 'tanh'\)"):
            reject("relu")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"batch_size": 1},
        {"margin": 0.0},
        {"sampling": "hardest"},
        {"epochs": -1},
        {"learning_rate": 0.0},
        {"reg_lambda": -1e-6},
        {"adam_beta1": 1.0},
        {"eval_every": -0.5},
        {"negative_pool": "everything"},
        {"margin": math.nan},
        {"margin": math.inf},
        {"reg_lambda": math.nan},
        {"reg_lambda": math.inf},
        {"learning_rate": math.nan},
        {"learning_rate": math.inf},
        {"adam_epsilon": math.nan},
        {"adam_epsilon": math.inf},
        {"eval_every": math.nan},
        {"eval_every": math.inf},
    ],
)
def test_config_validation_errors(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs).validate()


def test_curve_requires_nondecreasing_examples():
    curve = TrainingCurve()
    curve.add(10, "loss", 1.0)
    curve.add(10, "dev", 0.5)
    with pytest.raises(ValueError):
        curve.add(9, "loss", 0.9)


# --- train -------------------------------------------------------------------


PAIRS = PairDataset(
    [
        ("the cat sat", "a cat sat down"),
        ("dogs run fast", "the dog runs"),
        ("birds sing", "a bird sings"),
        ("cats nap", "the cat naps"),
        ("fish swim", "fishes swimming"),
        ("a black cat", "black cats"),
        ("loud dogs", "a loud dog"),
    ]
)


@pytest.fixture(scope="module")
def pair_vocab():
    corpus = [t for pair in PAIRS.pairs for t in pair]
    return build_vocab(corpus, (2, 3), MinCount(1))


def test_train_deterministic(pair_vocab):
    config = TrainConfig(dim=5, batch_size=3, epochs=2, seed=42)
    m1, _, c1 = train(PAIRS, pair_vocab, config)
    m2, _, c2 = train(PAIRS, pair_vocab, config)
    assert np.array_equal(m1.weights, m2.weights)
    assert np.array_equal(m1.bias, m2.bias)
    assert c1.points == c2.points


def test_train_zero_epochs_returns_init(pair_vocab, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("zero epochs must not encode the dataset")

    # `charngram.train` is the function; the module is reached through sys.modules
    monkeypatch.setattr(sys.modules["charngram.train"], "_encode_pairs", refuse)
    config = TrainConfig(dim=5, batch_size=3, epochs=0, seed=8)
    model, adam, curve = train(PAIRS, pair_vocab, config)
    fresh = init_model(pair_vocab, config)
    assert np.array_equal(model.weights, fresh.weights)
    assert np.array_equal(model.bias, fresh.bias)
    assert curve.points == [] and adam.step == 0


def test_train_empty_inputs(pair_vocab):
    config = TrainConfig(dim=4, batch_size=2, epochs=1)
    with pytest.raises(DataError, match="empty dataset"):
        train(PairDataset([]), pair_vocab, config)
    with pytest.warns(UserWarning, match="empty"):
        empty_vocab = build_vocab(["q"], {4}, MinCount(9))
    with pytest.raises(DataError, match="empty vocabulary"):
        train(PAIRS, empty_vocab, config)


def test_short_final_batch_dropped(pair_vocab):
    # 7 pairs, batch 3 -> batches of 3 and 3; the trailing singleton is dropped
    config = TrainConfig(dim=4, batch_size=3, epochs=1, seed=1, eval_every=0.0)
    _, adam, curve = train(PAIRS, pair_vocab, config)
    assert adam.step == 2
    assert curve.points[-1][0] == 6


def test_epoch_permutation_properties():
    p1 = epoch_permutation(9, 4, 20, False)
    p2 = epoch_permutation(9, 4, 20, False)
    assert np.array_equal(p1, p2)
    assert sorted(p1) == list(range(20))
    assert not np.array_equal(epoch_permutation(9, 5, 20, False), p1)
    assert np.array_equal(epoch_permutation(9, 0, 20, True), np.arange(20))
    assert np.array_equal(epoch_permutation(9, 3, 20, True), epoch_permutation(9, 3, 20, False))


def test_curriculum_changes_only_first_epoch(pair_vocab):
    config = TrainConfig(dim=4, batch_size=3, epochs=3, seed=6)
    log_plain: list = []
    log_curr: list = []
    train(PAIRS, pair_vocab, config)  # warm call, no log
    train(PAIRS, pair_vocab, TrainConfig(**{**config.__dict__}), order_log=log_plain)
    train(
        PAIRS,
        pair_vocab,
        TrainConfig(**{**config.__dict__, "curriculum": True}),
        order_log=log_curr,
    )
    assert log_curr[0][1] == tuple(range(len(PAIRS)))
    assert log_plain[0][1] != log_curr[0][1]
    for epoch in (1, 2):
        assert log_plain[epoch][1] == log_curr[epoch][1]


def test_eval_hook_and_curve_metrics(pair_vocab):
    config = TrainConfig(dim=4, batch_size=3, epochs=2, seed=2, eval_every=0.5)
    calls = []

    def hook(model, examples_seen):
        calls.append(examples_seen)
        return {"dev_score": 0.25}

    _, _, curve = train(PAIRS, pair_vocab, config, eval_hook=hook)
    metrics = {m for _, m, _ in curve.points}
    assert metrics == {"train_loss", "dev_score", "epoch_mean_batch_loss"}
    assert calls == [int(n) for n, m, _ in curve.points if m == "dev_score"]
    seen = [n for n, _, _ in curve.points]
    assert seen == sorted(seen)


def test_train_nan_guard(pair_vocab):
    config = TrainConfig(
        dim=4, activation="linear", batch_size=3, epochs=3, seed=0, learning_rate=1e300
    )
    with pytest.raises(NumericalError, match=r"epoch \d+, batch \d+"):
        with np.errstate(all="ignore"):
            train(PAIRS, pair_vocab, config)


# --- finite-difference audit -------------------------------------------------


def test_audit_linear_no_reg(pair_vocab):
    config = TrainConfig(dim=4, activation="linear", batch_size=5, seed=3, reg_lambda=0.0)
    model = init_model(pair_vocab, config)
    worst = finite_diff_audit(model, pair_vocab, PAIRS.pairs[:5], config)
    assert worst < 1e-6


def test_audit_tanh_with_reg(pair_vocab):
    config = TrainConfig(dim=4, activation="tanh", batch_size=5, seed=4, reg_lambda=1e-4)
    model, _, _ = train(PAIRS, pair_vocab, TrainConfig(dim=4, batch_size=3, epochs=1, seed=4))
    worst = finite_diff_audit(model, pair_vocab, PAIRS.pairs[:5], config)
    assert worst < 1e-4


def test_audit_restores_parameters(pair_vocab):
    config = TrainConfig(dim=4, activation="tanh", batch_size=5, seed=5, reg_lambda=1e-5)
    model = init_model(pair_vocab, config)
    w = model.weights.copy()
    b = model.bias.copy()
    finite_diff_audit(model, pair_vocab, PAIRS.pairs[:5], config)
    assert np.array_equal(model.weights, w)
    assert np.array_equal(model.bias, b)
