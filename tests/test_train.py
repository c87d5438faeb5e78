import math
import re
from dataclasses import replace
import sys

import numpy as np
import pytest
from scipy import sparse

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
from charngram.model import (
    COSINE_NORM_FLOOR,
    Model,
    activation_grad,
    check_activation,
    column_layout,
    embed_matrix,
    embed_matrix_grad,
)
from charngram.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    NEGATIVE_POOLS,
    SAMPLING_MODES,
    _Batch,
    _adam_apply,
    _adam_block_rows,
    _batch_gradients,
    _candidate_layout,
    _encode_pairs,
    _hinge,
    _plan_batches,
    _rng,
    _step,
)

from conftest import epoch_orders, float64_layout, phrase_ids, random_model, stacked_pairs


def _batch(counts, text_ids):
    """One batch of pairs with stacked count matrix `counts` and phrase ids
    `text_ids`, as `stacked_pairs` gives them, whose backward is the float64
    formula."""
    return _Batch(counts, text_ids, float64_layout(counts))


def _vec(angle):
    return np.array([math.cos(angle), math.sin(angle)])


# --- pair loss ---------------------------------------------------------------


def _two_pair_loss(x1, x2, t1, t2, margin):
    """Mean hinge loss of the batch [(x1, x2), (t1, t2)], each pair the other's negatives."""
    values = np.array([x1, t1, x2, t2], dtype=np.float64)  # [side 1; side 2]
    loss, _ = _hinge(values, np.array([((1, 0), (1, 1)), ((0, 0), (0, 1))]), margin)
    return loss


def test_pair_loss_margins_satisfied():
    x = np.array([1.0, 0.0])
    t = np.array([0.0, 1.0])
    values = np.array([x, t, x, t])
    loss, grad = _hinge(values, np.array([((1, 0), (1, 1)), ((0, 0), (0, 1))]), 0.4)
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
    negatives = np.array([((1, 0), (2, 1)), ((3, 0), (0, 1)), ((0, 1), (1, 1)), ((2, 0), (3, 1))])
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
    negatives = np.array([((1, 0), (1, 1)), ((0, 0), (0, 1))])
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
        out = select_negatives(*batch, mode, rng)
        assert out.dtype == np.intp
        assert out.tolist() == [[[1, 0], [1, 1]], [[0, 0], [0, 1]]]


def test_max_prefers_most_similar():
    # cos(e0, e1) = 0.9, cos(e0, e2) = 0.1
    side1 = [_vec(0), _vec(math.acos(0.9)), _vec(math.acos(0.1))]
    side2 = [_vec(1), _vec(2), _vec(3)]
    batch = _batch_from_vectors(side1, side2)
    out = select_negatives(*batch, "max", _rng(0, 1))
    assert tuple(out[0][0]) == (1, 0)


def test_max_tie_breaks_by_lowest_index():
    dup = _vec(0.5)
    batch = _batch_from_vectors([_vec(0), dup, dup.copy()], [_vec(1), _vec(2), _vec(3)])
    out = select_negatives(*batch, "max", _rng(0, 2))
    assert tuple(out[0][0]) == (1, 0)  # pairs 1 and 2 tie exactly; lowest index wins


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
            assert tuple(got[i][side]) == expected


def test_string_equal_candidates_excluded():
    texts = [(" a ", " b "), (" a ", " c "), (" d ", " e ")]
    # make pair 1's side-1 the most similar, so exclusion must actively skip it
    side1 = [_vec(0), _vec(0.01), _vec(1.0)]
    side2 = [_vec(2), _vec(3), _vec(4)]
    out = select_negatives(
        *_batch_from_vectors(side1, side2), "max", _rng(0, 7), text_ids=phrase_ids(texts)
    )
    assert tuple(out[0][0]) == (2, 0)


def test_exclusion_fallback_when_pool_empties():
    texts = [(" a ", " b "), (" a ", " b ")]
    batch = _batch_from_vectors([_vec(0), _vec(0.2)], [_vec(1), _vec(1.2)])
    out = select_negatives(*batch, "max", _rng(0, 8), text_ids=phrase_ids(texts))
    assert tuple(out[0][0]) == (1, 0)  # only candidate, readmitted by the fallback


def test_both_sides_pool_reaches_other_side():
    side1 = [_vec(0), _vec(math.pi / 2)]
    side2 = [_vec(2), _vec(0.05)]  # pair 1 side 2 is closest to pair 0 side 1
    batch = _batch_from_vectors(side1, side2)
    out = select_negatives(*batch, "max", _rng(0, 9), pool="both-sides")
    assert tuple(out[0][0]) == (1, 1)


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
                assert tuple(got[i][side]) == (best, side)


@pytest.mark.parametrize("mode", [None, 3, "hardest", "MAX"])
def test_bad_sampling_mode_is_a_value_error(mode):
    batch = _batch_from_vectors([_vec(0), _vec(1)], [_vec(2), _vec(3)])
    with pytest.raises(ValueError, match=re.escape(str(SAMPLING_MODES))):
        select_negatives(*batch, mode, _rng(0, 11))


def _negatives_oracle(side1, side2, mode, rng, pool, texts):
    """select_negatives by exhaustive scan over the candidates, pair by pair, side by side."""
    n = len(side1)
    phrases = {(j, s): (side1, side2)[s][j] for j in range(n) for s in (0, 1)}
    out = []
    for i in range(n):
        picks = []
        for side in (0, 1):
            allowed = [
                (j, s) for j in range(n) for s in (0, 1)
                if j != i and (pool == "both-sides" or s == side)
            ]
            if texts is not None:
                allowed = [(j, s) for j, s in allowed if texts[j][s] not in texts[i]] or allowed
            if mode == "mix" and rng.random() >= 0.5:
                picks.append(allowed[int(rng.integers(len(allowed)))])
                continue
            best, best_c = None, -math.inf
            for ref in allowed:  # the first of equal cosines wins
                c = cosine(phrases[(i, side)], phrases[ref])
                if c > best_c:
                    best, best_c = ref, c
            picks.append(best)
        out.append(tuple(picks))
    return out


def test_cached_candidate_layouts_match_the_oracle_and_stay_unwritten():
    rng = np.random.default_rng(41)
    seen = set()
    for trial in range(60):
        n = int(rng.integers(2, 7))
        pool = NEGATIVE_POOLS[trial % 2]
        mode = SAMPLING_MODES[(trial // 2) % 2]
        side1, side2 = rng.normal(size=(2, n, 3))
        texts = text_ids = None
        if trial % 3:
            # few distinct strings, so exclusion bites and some pairs fall back
            words = ["a", "b", "c"][: int(rng.integers(1, 4))]
            texts = [tuple(str(rng.choice(words)) for _ in (0, 1)) for _ in range(n)]
            text_ids = phrase_ids(texts)
        got = select_negatives(side1, side2, mode, _rng(trial, 12), pool, text_ids=text_ids)
        want = _negatives_oracle(side1, side2, mode, _rng(trial, 12), pool, texts)
        assert [tuple(map(tuple, refs)) for refs in got.tolist()] == want
        seen.add((n, pool))
    for n, pool in seen:
        cached, fresh = _candidate_layout(n, pool), _candidate_layout.__wrapped__(n, pool)
        for name in ("order", "allowed", "refs"):
            array = getattr(cached, name)
            assert not array.flags.writeable
            assert np.array_equal(array, getattr(fresh, name))


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
    counts, text_ids = stacked_pairs([("aa", "aa"), ("bb", "bb")], vocab, model)
    loss = _step(_batch(counts, text_ids), model, config, adam, _rng(0, 11))
    assert loss == 0.0
    assert np.array_equal(model.weights, before_w)
    assert np.array_equal(model.bias, before_b)


def test_inactive_hinges_give_pure_regularizer_gradient():
    vocab, model = _orthogonal_setup()
    lam = 1e-2
    config = TrainConfig(dim=2, activation="linear", batch_size=2, reg_lambda=lam)
    counts, text_ids = stacked_pairs([("aa", "aa"), ("bb", "bb")], vocab, model)
    loss, grad_bias, touched, grad_rows, negatives = _batch_gradients(
        _batch(counts, text_ids), model, config, _rng(0, 12)
    )
    assert negatives.tolist() == [[[1, 0], [1, 1]], [[0, 0], [0, 1]]]
    assert loss == 0.0
    assert touched.tolist() == list(range(len(vocab)))
    # the batch gradient is the loss's alone; the Adam step adds 2 * lambda * theta
    assert not grad_bias.any() and not grad_rows.any()
    reference = Model(weights=model.weights.copy(), bias=model.bias.copy(),
                      activation="linear", vocab_fingerprint=model.vocab_fingerprint)
    _adam_apply(model, AdamState(), config, grad_bias, touched, grad_rows)
    _adam_apply(reference, AdamState(), replace(config, reg_lambda=0.0),
                2 * lam * reference.bias, touched, 2 * lam * reference.weights[touched])
    assert np.array_equal(model.weights, reference.weights)
    assert np.array_equal(model.bias, reference.bias)


def test_decay_only_step_shrinks_touched_rows():
    vocab, model = _orthogonal_setup()
    config = TrainConfig(dim=2, activation="linear", batch_size=2, reg_lambda=1e-2)
    before = model.weights.copy()
    counts, text_ids = stacked_pairs([("aa", "aa"), ("bb", "bb")], vocab, model)
    _step(_batch(counts, text_ids), model, config, AdamState(), _rng(0, 12))
    moved = np.abs(model.weights) - np.abs(before)
    assert np.all(moved[np.abs(before) > 0.1] < 0)  # big coordinates move toward zero


def test_first_adam_step_is_signed_learning_rate(small_vocab):
    # the symmetric two-cluster batch has an all-zero gradient, so use random weights
    model = random_model(np.random.default_rng(13), small_vocab, dim=3)
    config = TrainConfig(dim=3, batch_size=3, learning_rate=0.001)
    batch = [("the cat", "black cat"), ("dogs bark", "bark loud"), ("fish swim", "deep fish")]
    counts, text_ids = stacked_pairs(batch, small_vocab, model)
    _, grad_bias, touched, grad_rows, _ = _batch_gradients(
        _batch(counts, text_ids), model, config, _rng(0, 13)
    )
    assert np.any(np.abs(grad_rows) > 1e-4)

    before_w = model.weights.copy()
    before_b = model.bias.copy()
    _step(_batch(counts, text_ids), model, config, AdamState(), _rng(0, 13))

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
    counts, text_ids = stacked_pairs(batch, small_vocab, model)
    _step(_batch(counts, text_ids), model, config, adam, _rng(3, 14))

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
    """The unblocked Adam step in Kingma & Ba's step-size form: the bias, then all touched rows.

    The L2 term's gradient is added to the loss gradient first, in float64,
    for the bias and every touched row. The gradient is then rounded to
    float32, and the moments and the step are float32 arithmetic with each
    constant rounded to float32; the float32 step is subtracted from the
    float64 parameters.
    """
    lam = config.reg_lambda
    grad_bias = grad_bias + 2.0 * lam * model.bias
    grad_rows = grad_rows + 2.0 * lam * model.weights[touched]
    adam.step += 1
    f32 = np.float32
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    root_corr2 = math.sqrt(1.0 - b2**adam.step)
    alpha = f32(config.learning_rate * root_corr2 / (1.0 - b1**adam.step))
    eps = f32(ADAM_EPSILON * root_corr2)
    for param, m, v, idx, grad in (
        (model.bias, adam.m_bias, adam.v_bias, slice(None), grad_bias),
        (model.weights, adam.m_weights, adam.v_weights, touched, grad_rows),
    ):
        g = grad.astype(np.float32)
        m[idx] = f32(b1) * m[idx] + f32(1 - b1) * g
        v[idx] = f32(b2) * v[idx] + f32(1 - b2) * g * g
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
        m_bias=np.zeros(config.dim, np.float32), v_bias=np.zeros(config.dim, np.float32),
        m_weights=np.zeros(reference.weights.shape, np.float32),
        v_weights=np.zeros(reference.weights.shape, np.float32),
    )
    per_block = _adam_block_rows(config.dim)
    batches = [list(zip(PHRASES[i::3], PHRASES[i + 1 :: 3])) for i in range(3)] * 2
    for step, batch in enumerate(batches):
        counts, text_ids = stacked_pairs(batch, vocab, blocked)
        grads = _batch_gradients(_batch(counts, text_ids), blocked, config, _rng(5, step))[1:4]
        assert len(grads[1]) > 2 * per_block  # at least three blocks
        _adam_apply(blocked, adam_blocked, config, *grads)
        counts, text_ids = stacked_pairs(batch, vocab, reference)
        grads = _batch_gradients(_batch(counts, text_ids), reference, config, _rng(5, step))[1:4]
        _adam_reference(reference, adam_reference, config, *grads)
    assert adam_blocked.step == adam_reference.step == len(batches)
    assert np.array_equal(blocked.weights, reference.weights)
    assert np.array_equal(blocked.bias, reference.bias)
    for name in ("m_bias", "v_bias", "m_weights", "v_weights"):
        assert np.array_equal(getattr(adam_blocked, name), getattr(adam_reference, name))


def test_l2_term_in_the_adam_step_is_byte_equal_to_a_separate_gradient_term():
    # the L2 gradient used to be added to the batch gradient before the step:
    # grad += 2.0 * lambda * theta, then an Adam step that knew no lambda
    vocab = build_vocab(PHRASES, (2, 3, 4), MinCount(1))
    config = TrainConfig(dim=300, batch_size=4, reg_lambda=1e-3, seed=7)
    folded, separate = init_model(vocab, config), init_model(vocab, config)
    adam_folded, adam_separate = AdamState(), AdamState()
    without_lambda = replace(config, reg_lambda=0.0)
    batches = [list(zip(PHRASES[i::3], PHRASES[i + 1 :: 3])) for i in range(3)]
    for step, batch in enumerate(batches):
        counts, text_ids = stacked_pairs(batch, vocab, folded)
        grads = _batch_gradients(_batch(counts, text_ids), folded, config, _rng(7, step))[1:4]
        _adam_apply(folded, adam_folded, config, *grads)
        grad_bias, touched, grad_rows = _batch_gradients(
            _batch(counts, text_ids), separate, config, _rng(7, step)
        )[1:4]
        grad_bias += 2.0 * config.reg_lambda * separate.bias
        grad_rows += 2.0 * config.reg_lambda * separate.weights[touched]
        _adam_apply(separate, adam_separate, without_lambda, grad_bias, touched, grad_rows)
    assert adam_folded.step == 3
    assert folded.weights.tobytes() == separate.weights.tobytes()
    assert folded.bias.tobytes() == separate.bias.tobytes()
    for name in ("m_bias", "v_bias", "m_weights", "v_weights"):
        assert getattr(adam_folded, name).tobytes() == getattr(adam_separate, name).tobytes()
    # the audit's analytic gradient carries the same term, on a small model
    small = replace(config, dim=4)
    model, adam = init_model(vocab, small), AdamState()
    for step, batch in enumerate(batches):
        _step(_batch(*stacked_pairs(batch, vocab, model)), model, small, adam, _rng(7, step))
    assert finite_diff_audit(model, vocab, batches[0], small) < 1e-4


def test_blocked_adam_names_lowest_bad_row_and_bias_first():
    dim = 300
    per_block = _adam_block_rows(dim)
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
    # lr * m_hat / (sqrt(v_hat) + eps) with m_hat = m / (1 - b1^t), v_hat = v / (1 - b2^t),
    # at Kingma & Ba's defaults
    dim, n_rows = 300, 400
    config = TrainConfig(dim=dim, learning_rate=0.01)
    b1, b2, lr, eps = 0.9, 0.999, config.learning_rate, 1e-8
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
    # The moments and the step are float32 arithmetic. Each step rounds the
    # gradient, the four moment constants, alpha_t and eps_t once, and each of
    # its eleven operations rounds once, every rounding within float32's unit
    # roundoff u (relative). No term cancels another (one sign per weight), so
    # over six steps the relative error of any moment, step or displacement
    # is at most 6 * 18 = 108 u to first order; 128 u leaves room for the
    # float64 roundings. A wrong bias correction is off by at least 1e-3.
    rtol = 128 * np.finfo(np.float32).eps / 2
    np.testing.assert_allclose(model.weights - start, weights - start, rtol=rtol, atol=0)
    np.testing.assert_allclose(model.bias, bias, rtol=rtol, atol=0)
    for actual, expected in ((adam.m_weights, m_w), (adam.v_weights, v_w),
                             (adam.m_bias, m_b), (adam.v_bias, v_b)):
        np.testing.assert_allclose(actual, expected, rtol=rtol, atol=0)


def test_first_adam_step_leaves_exact_moments():
    # the update's in-place arithmetic must run on copies, never on the moments
    dim = 300
    config = TrainConfig(dim=dim)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    rng = np.random.default_rng(22)
    model = Model(weights=rng.normal(size=(200, dim)), bias=rng.normal(size=dim),
                  activation="tanh", vocab_fingerprint=0)
    touched = np.arange(0, 200, 2)
    grad_rows, grad_bias = rng.normal(size=(len(touched), dim)), rng.normal(size=dim)
    adam = AdamState()
    _adam_apply(model, adam, config, grad_bias, touched, grad_rows)
    # float32 moments: the gradient and each constant are rounded to float32
    g_bias, g_rows = grad_bias.astype(np.float32), grad_rows.astype(np.float32)
    take1, take2 = np.float32(1 - b1), np.float32(1 - b2)
    assert np.array_equal(adam.m_bias, take1 * g_bias)
    assert np.array_equal(adam.v_bias, take2 * g_bias * g_bias)
    assert np.array_equal(adam.m_weights[touched], take1 * g_rows)
    assert np.array_equal(adam.v_weights[touched], take2 * g_rows * g_rows)


def test_adam_moments_are_float32_at_four_bytes_a_weight(small_vocab):
    config = TrainConfig(dim=5, batch_size=2, seed=4)
    model, adam = init_model(small_vocab, config), AdamState()
    counts, text_ids = stacked_pairs([("the cat", "black cat"), ("dogs bark", "bark loud")],
                                     small_vocab, model)
    _step(_batch(counts, text_ids), model, config, adam, _rng(4, 15))
    for name in ("m_bias", "v_bias", "m_weights", "v_weights"):
        assert getattr(adam, name).dtype == np.float32, name
    assert adam.m_weights.nbytes == adam.v_weights.nbytes == 4 * len(small_vocab) * config.dim
    assert adam.m_bias.nbytes == 4 * config.dim
    assert model.weights.dtype == model.bias.dtype == np.float64


def test_adam_errors_are_typed_at_the_float32_boundary():
    dim = 300
    per_block = _adam_block_rows(dim)
    rng = np.random.default_rng(8)
    touched = 2 * np.arange(3 * per_block)
    config = TrainConfig(dim=dim)

    def model():
        return Model(weights=rng.normal(size=(2 * len(touched), dim)), bias=np.zeros(dim),
                     activation="tanh", vocab_fingerprint=0)

    def apply(value, positions, bad_bias=False):
        grad_rows = rng.normal(size=(len(touched), dim))
        grad_rows[positions, 7] = value
        grad_bias = rng.normal(size=dim)
        if bad_bias:
            grad_bias[3] = value
        _adam_apply(model(), AdamState(), config, grad_bias, touched, grad_rows)

    # finite float64 gradients: 1e39 is past float32's range, and 1e30 is not,
    # but its square is; infinite ones too. None warns, and each names the
    # lowest bad row
    late, later = per_block + 3, 2 * per_block + 1
    for value in (1e39, -1e39, 1e30, np.inf, -np.inf):
        with pytest.raises(NumericalError, match=rf"non-finite weight row {touched[late]} "):
            apply(value, [later, late])
        with pytest.raises(NumericalError, match="non-finite bias"):
            apply(value, [later, late], bad_bias=True)

    # moments of another shape or dtype than the model's
    target = model()
    shape = target.weights.shape
    grads = (rng.normal(size=dim), touched, rng.normal(size=(len(touched), dim)))
    for name, moment in (
        ("m_weights", np.zeros((3, dim), np.float32)),
        ("v_weights", np.zeros((shape[0], dim + 1), np.float32)),
        ("m_bias", np.zeros(dim + 1, np.float32)),
        ("v_weights", np.zeros(shape)),
        ("v_bias", None),
    ):
        adam = AdamState()
        _adam_apply(target, adam, config, *grads)
        setattr(adam, name, moment)
        before = target.weights.copy()
        with pytest.raises(DataError, match=f"Adam moment {name} must be float32 of shape"):
            _adam_apply(target, adam, config, *grads)
        assert adam.step == 1
        assert target.weights.tobytes() == before.tobytes()


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
        _, grad = _hinge(values, np.array(negatives), 1.5)
        assert np.array_equal(grad, _hinge_grad_reference(values, negatives, 1.5))
        # and the picker's own (n, 2, 2) array, read pair by pair by the reference
        picked = select_negatives(
            values[:n], values[n:], "mix", _rng(n, trial), NEGATIVE_POOLS[trial % 2]
        )
        _, grad = _hinge(values, picked, 1.5)
        assert np.array_equal(grad, _hinge_grad_reference(values, picked.tolist(), 1.5))


@pytest.mark.parametrize("n", [2, 5, 25])
def test_shared_norms_leave_picks_loss_and_gradient_byte_equal(n):
    # the trainer computes the (2n,) norms once and hands them to both
    rng = np.random.default_rng(41 + n)
    for trial in range(12):
        values = np.tanh(rng.normal(size=(2 * n, 7)))
        if trial % 3 == 0:
            values[rng.integers(2 * n)] = 0.0  # a zero-norm embedding
        if trial % 4 == 1:
            values[n:] = values[:n]  # every cosine tied with its pair's
        norms = np.linalg.norm(values, axis=1)
        for mode, pool in (("max", "same-side"), ("mix", "both-sides")):
            ids = phrase_ids([(str(i % 3), str(i % 4)) for i in range(n)])
            picks = [
                select_negatives(values[:n], values[n:], mode, _rng(n, trial), pool,
                                 text_ids=ids, **kwargs)
                for kwargs in ({}, {"norms": norms})
            ]
            assert picks[0].tobytes() == picks[1].tobytes()
            (loss, grad), (shared_loss, shared_grad) = (
                _hinge(values, picks[0], 0.4, **kwargs) for kwargs in ({}, {"norms": norms})
            )
            assert loss == shared_loss
            assert grad.tobytes() == shared_grad.tobytes()


@pytest.mark.parametrize("sampling", SAMPLING_MODES)
def test_batch_gradients_equal_the_route_without_shared_norms(small_vocab, sampling):
    model = random_model(np.random.default_rng(17), small_vocab, dim=4)
    config = TrainConfig(dim=4, batch_size=4, sampling=sampling)
    batch = _batch(*stacked_pairs(
        [("the cat", "black cat"), ("dogs bark", "bark loud"), ("fish swim", "deep fish"),
         ("a cat sat", "the cat")], small_vocab, model))
    got = _batch_gradients(batch, model, config, _rng(2, 17))
    values = embed_matrix(batch.counts, model)
    negatives = select_negatives(values[:4], values[4:], sampling, _rng(2, 17),
                                 text_ids=batch.text_ids)
    loss, d_values = _hinge(values, negatives, config.margin)
    want = (loss, *embed_matrix_grad(values, d_values, model, batch.layout), negatives)
    assert got[0] == want[0]
    assert [a.tobytes() for a in got[1:]] == [a.tobytes() for a in want[1:]]


@pytest.mark.parametrize("activation", ["linear", "tanh"])
def test_planned_gradient_rows_are_the_float32_product(small_vocab, activation):
    model = random_model(np.random.default_rng(31), small_vocab, dim=6, activation=activation)
    config = TrainConfig(dim=6, batch_size=4, activation=activation)
    counts, text_ids = _encode_pairs(
        [("the cat", "black cat"), ("dogs bark", "bark loud"), ("fish swim", "deep fish"),
         ("a cat sat", "the cat")], small_vocab, model)
    (planned,) = _plan_batches(counts, text_ids, [np.arange(4)])
    loss, grad_bias, touched, grad_rows, negatives = _batch_gradients(
        planned, model, config, _rng(3, 1))
    float64 = replace(planned, layout=float64_layout(planned.counts))
    want = _batch_gradients(float64, model, config, _rng(3, 1))
    # the forward, the picks, the loss and the bias gradient are the float64 route's
    assert loss == want[0]
    assert grad_bias.dtype == np.float64
    assert [a.tobytes() for a in (grad_bias, touched, negatives)] == [
        a.tobytes() for a in (want[1], want[2], want[4])]
    assert grad_rows.dtype == np.float32 and want[3].dtype == np.float64
    # the rows are the float32 product of the layout and d_pre rounded to
    # float32, bit for bit
    values = embed_matrix(planned.counts, model)
    _, upstream = _hinge(values, negatives, config.margin)
    d_pre = upstream * activation_grad(activation, values)
    xt32 = planned.layout[1]
    assert grad_rows.tobytes() == (xt32 @ d_pre.astype(np.float32)).tobytes()
    # and within float32's error bound of the float64 route: an entry of row t
    # sums the m_t products c * d of exact counts c, so rounding each d, each
    # product and each partial sum errs by at most gamma(m_t + 1) * sum |c * d|
    # with gamma(k) = k * u / (1 - k * u), u = 2^-24; the float64 route errs by
    # at most gamma(m_t) at u = 2^-53
    def gamma(k, u):
        return k * u / (1 - k * u)
    m_t = np.diff(xt32.indptr)[:, None]
    scale = abs(xt32).astype(np.float64) @ np.abs(d_pre)
    bound = (gamma(m_t + 1, 2.0**-24) + gamma(m_t, 2.0**-53)) * scale
    assert np.all(np.abs(grad_rows - want[3]) <= bound)


def test_the_audit_backward_stays_float64(pair_vocab, monkeypatch):
    # the audit checks the float64 formula; float32 rows would read about 1.5e-6
    # in test_audit_linear_no_reg, past its 1e-6 bound
    config = TrainConfig(dim=4, activation="tanh", batch_size=5, seed=3)
    model = init_model(pair_vocab, config)
    dtypes = []

    def recording(*args):
        grads = embed_matrix_grad(*args)
        dtypes.append((grads[0].dtype, grads[2].dtype))
        return grads

    monkeypatch.setattr(sys.modules["charngram.train"], "embed_matrix_grad", recording)
    finite_diff_audit(model, pair_vocab, PAIRS.pairs[:5], config)
    assert dtypes == [(np.float64, np.float64)]


def test_the_audit_runs_the_planned_batch_with_a_float64_layout(pair_vocab, monkeypatch):
    # the audit's batch is the one batch `_plan_batches` makes of its pairs,
    # as a training step gets it, with the layout's counts in float64
    config = TrainConfig(dim=4, batch_size=5, seed=3)
    model = init_model(pair_vocab, config)
    batches = []

    def recording(batch, *args):
        batches.append(batch)
        return _batch_gradients(batch, *args)

    monkeypatch.setattr(sys.modules["charngram.train"], "_batch_gradients", recording)
    finite_diff_audit(model, pair_vocab, PAIRS.pairs[:5], config)
    (batch,) = batches
    counts, text_ids = _encode_pairs(PAIRS.pairs[:5], pair_vocab, model)
    (planned,) = _plan_batches(counts, text_ids, [np.arange(5)])
    assert isinstance(batch.counts, sparse.csc_matrix)
    assert batch.counts.shape == planned.counts.shape
    assert batch.text_ids.tobytes() == planned.text_ids.tobytes()
    touched, xt = batch.layout
    want_touched, want_xt = column_layout(batch.counts, np.float64)
    assert xt.dtype == np.float64
    assert touched.tobytes() == want_touched.tobytes()
    for got, want in ((batch.counts, planned.counts), (xt, want_xt)):
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("reg_lambda", [0.0, 1e-3])
def test_adam_reads_float32_gradient_rows_as_they_are_and_leaves_them_unwritten(reg_lambda):
    # float32 rows step the model exactly as float64 rows holding the same
    # numbers do, and neither argument is written
    dim = 300
    per_block = _adam_block_rows(dim)
    rng = np.random.default_rng(29)
    touched = 3 * np.arange(2 * per_block + 5)  # three blocks, the last one short
    config = TrainConfig(dim=dim, reg_lambda=reg_lambda)
    rows32 = rng.normal(size=(len(touched), dim)).astype(np.float32)
    rows64 = rows32.astype(np.float64)
    grad_bias = rng.normal(size=dim)
    kept = [a.copy() for a in (rows32, rows64, grad_bias)]
    stepped = []
    for grad_rows in (rows32, rows64):
        init = np.random.default_rng(30)
        model = Model(weights=init.normal(size=(3 * len(touched), dim)),
                      bias=init.normal(size=dim), activation="tanh", vocab_fingerprint=0)
        adam = AdamState()
        for _ in range(2):
            _adam_apply(model, adam, config, grad_bias, touched, grad_rows)
        stepped.append((model, adam))
    assert [a.tobytes() for a in (rows32, rows64, grad_bias)] == [a.tobytes() for a in kept]
    (model32, adam32), (model64, adam64) = stepped
    assert model32.weights.tobytes() == model64.weights.tobytes()
    assert model32.bias.tobytes() == model64.bias.tobytes()
    for name in ("m_bias", "v_bias", "m_weights", "v_weights"):
        assert getattr(adam32, name).tobytes() == getattr(adam64, name).tobytes()


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
        {"dim": 2.5},
        {"eval_every": -0.5},
        {"eval_every": 1.5},
        {"eval_every": 3.0},
        {"negative_pool": "everything"},
        {"margin": math.nan},
        {"margin": math.inf},
        {"reg_lambda": math.nan},
        {"reg_lambda": math.inf},
        {"learning_rate": math.nan},
        {"learning_rate": math.inf},
        {"epochs": 1.5},  # once trained two epochs
        {"batch_size": 2.5},
        {"seed": 1.5},
        {"eval_every": math.nan},
        {"eval_every": math.inf},
        {"dim": True},  # a bool is an int to Python, but not a count
        {"epochs": np.float64(1.0)},
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


def test_training_on_one_pair_is_a_data_error(pair_vocab):
    # its only batch would hold one pair, which has no negative, and be dropped
    one = PairDataset(PAIRS.pairs[:1])
    for epochs in (1, 3):
        config = TrainConfig(dim=4, batch_size=2, epochs=epochs)
        with pytest.raises(DataError, match="need at least 2 pairs to train"):
            train(one, pair_vocab, config)
    # no epoch, no batch: the set-up call that returns `init_model`'s model
    config = TrainConfig(dim=4, batch_size=2, epochs=0)
    model, adam, curve = train(one, pair_vocab, config)
    assert model.weights.tobytes() == init_model(pair_vocab, config).weights.tobytes()
    assert adam.step == 0 and curve.points == []


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


def test_curriculum_changes_only_first_epoch(pair_vocab, monkeypatch):
    config = TrainConfig(dim=4, batch_size=3, epochs=3, seed=6)
    train(PAIRS, pair_vocab, config)  # warm call, not watched
    log_plain = epoch_orders(monkeypatch, PAIRS, pair_vocab, config)
    log_curr = epoch_orders(monkeypatch, PAIRS, pair_vocab, replace(config, curriculum=True))
    assert [epoch for epoch, _ in log_plain] == [epoch for epoch, _ in log_curr] == [0, 1, 2]
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


def test_eval_every_one_gives_a_point_per_epoch(pair_vocab):
    # the largest interval accepted: one train_loss point and one hook call per epoch
    config = TrainConfig(dim=4, batch_size=3, epochs=4, seed=2, eval_every=1.0)
    calls = []
    _, _, curve = train(PAIRS, pair_vocab, config, eval_hook=lambda m, seen: calls.append(seen))
    points = [n for n, m, _ in curve.points if m == "train_loss"]
    assert points == calls == [6, 12, 18, 24]


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


def test_audit_of_a_batch_with_no_active_hinge_is_a_data_error(pair_vocab):
    # each phrase paired with itself: cos(x1, x2) = 1, and no negative comes
    # within the margin of it, so every hinge term is inactive
    pairs = [(a, a) for a, _ in PAIRS.pairs[:4]]
    config = TrainConfig(dim=4, batch_size=4, seed=3, margin=1e-3, reg_lambda=0.0)
    model = init_model(pair_vocab, config)
    with pytest.raises(DataError, match="no hinge term is active"):
        finite_diff_audit(model, pair_vocab, pairs, config)
    # with lambda > 0 the L2 term is still checked
    config = replace(config, reg_lambda=1e-4)
    assert finite_diff_audit(model, pair_vocab, pairs, config) < 1e-6


def test_audit_restores_parameters(pair_vocab):
    config = TrainConfig(dim=4, activation="tanh", batch_size=5, seed=5, reg_lambda=1e-5)
    model = init_model(pair_vocab, config)
    w = model.weights.copy()
    b = model.bias.copy()
    finite_diff_audit(model, pair_vocab, PAIRS.pairs[:5], config)
    assert np.array_equal(model.weights, w)
    assert np.array_equal(model.bias, b)
