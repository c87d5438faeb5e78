"""Contrastive training on paraphrase pairs.

Each training pair contributes two hinge terms: the pair's cosine must exceed
the cosine to a negative example of each side by at least the margin. Negative
examples are picked from the current mini-batch, either the most cosine-similar
candidate (MAX) or, per a fair coin, a uniformly random one (MIX). Updates are
sparse Adam steps touching only the n-gram rows present in the batch, with L2
decay applied lazily to the same touched set.

A batch of n pairs is one count matrix stacking the side-1 texts over the
side-2 texts, so each step runs one forward pass h(X @ W + b) over 2n rows,
and its backward pass is X^T times the gradient at the pre-activations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import sparse

from .errors import DataError, NumericalError
from .model import (
    COSINE_NORM_FLOOR,
    Model,
    check_activation,
    count_matrix,
    embed_matrix,
    embed_matrix_grad,
    unit_rows,
)
from .vocab import NGramVocab, check_case_mode, encode, normalize

SAMPLING_MODES = ("max", "mix")
NEGATIVE_POOLS = ("same-side", "both-sides")

# Reference to a phrase inside a batch: (pair index, side), side 0 or 1.
PhraseRef = tuple[int, int]

_SEED_MASK = 0xFFFFFFFFFFFFFFFF

# RNG stream domains, so that initialization, shuffling, and negative sampling
# never share a stream.
_DOMAIN_INIT = 0
_DOMAIN_SHUFFLE = 1
_DOMAIN_SAMPLING = 2
_DOMAIN_AUDIT = 3

# Weights per block of the Adam update: a block's gathered m, v, W and
# gradient rows (4 x 128 KiB of float64) stay in a typical per-core L2 cache.
_ADAM_BLOCK_ENTRIES = 16384


def _rng(seed: int, *domain: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & _SEED_MASK, *domain]))


@dataclass
class PairDataset:
    """Paraphrase pairs in file order (descending confidence in the source)."""

    pairs: list[tuple[str, str]]

    def __post_init__(self):
        for i, (a, b) in enumerate(self.pairs):
            if not a.strip() or not b.strip():
                raise DataError(f"pair {i + 1}: empty phrase")

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class TrainConfig:
    """Knobs for contrastive training; defaults follow the tuned similarity setup."""

    dim: int = 300
    activation: str = "tanh"
    margin: float = 0.4
    reg_lambda: float = 0.0
    learning_rate: float = 0.001
    batch_size: int = 100
    sampling: str = "max"
    epochs: int = 1
    seed: int = 0
    curriculum: bool = False
    case_mode: str = "lower"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    eval_every: float = 0.25
    negative_pool: str = "same-side"

    def validate(self) -> None:
        # every comparison with NaN is false, so the range checks below let it
        # through, and most of them let inf through
        for name in ("margin", "reg_lambda", "learning_rate", "adam_epsilon", "eval_every"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        check_activation(self.activation)
        check_case_mode(self.case_mode)
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.margin <= 0:
            raise ValueError("margin must be > 0")
        if self.reg_lambda < 0:
            raise ValueError("reg_lambda must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (negatives come from the batch)")
        if self.sampling not in SAMPLING_MODES:
            raise ValueError(f"sampling must be one of {SAMPLING_MODES}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0 < self.adam_beta1 < 1 or not 0 < self.adam_beta2 < 1:
            raise ValueError("Adam betas must lie in (0, 1)")
        if self.adam_epsilon <= 0:
            raise ValueError("adam_epsilon must be > 0")
        if self.eval_every < 0:
            raise ValueError("eval_every must be >= 0")
        if self.negative_pool not in NEGATIVE_POOLS:
            raise ValueError(f"negative_pool must be one of {NEGATIVE_POOLS}")


@dataclass
class AdamState:
    """Adam moments, allocated zero at the first step; rows no step touched stay zero."""

    step: int = 0
    m_bias: np.ndarray | None = None
    v_bias: np.ndarray | None = None
    m_weights: np.ndarray | None = None
    v_weights: np.ndarray | None = None


@dataclass
class TrainingCurve:
    """(examples_seen, metric_name, value) points, examples_seen non-decreasing."""

    points: list[tuple[int, str, float]] = field(default_factory=list)

    def add(self, examples_seen: int, metric: str, value: float) -> None:
        if self.points and examples_seen < self.points[-1][0]:
            raise ValueError("examples_seen must be non-decreasing")
        self.points.append((examples_seen, metric, float(value)))


def select_negatives(
    side1: np.ndarray,
    side2: np.ndarray,
    mode: str,
    rng: np.random.Generator,
    texts: Sequence[tuple[str, str]] | None = None,
    pool: str = "same-side",
) -> list[tuple[PhraseRef, PhraseRef]]:
    """Pick one negative example per side for every pair in the batch.

    `side1` and `side2` are the (n, d) embeddings of the pairs' two sides.
    Returns, per pair, ((j1, s1), (j2, s2)) where the side-1 negative is
    phrase s1 of pair j1 and likewise for side 2. Under the default pool the
    side-1 negative competes among side-1 phrases of other pairs (s1 = 0) and
    the side-2 negative among side-2 phrases (s2 = 1); pool="both-sides"
    widens both competitions to all phrases of other pairs.

    MAX picks the candidate most cosine-similar to the phrase being matched,
    ties broken by candidate enumeration order (pair index ascending, side-1
    before side-2). MIX flips an independent fair coin per pair per side:
    heads uses MAX, tails draws uniformly from the allowed candidates. The rng
    is consumed in a fixed order (pair 0 side 1, pair 0 side 2, pair 1 side 1,
    ...), with one `rng.random()` per coin and one `rng.integers()` per
    uniform draw; plain MAX never touches the rng.

    When `texts` (normalized phrase strings per pair) is given, candidates
    string-equal to either phrase of the current pair are excluded, falling
    back to all other-pair candidates if that empties the pool.
    """
    n = len(side1)
    if n < 2:
        raise DataError("cannot sample negatives")
    mode = mode.lower()
    if mode not in SAMPLING_MODES:
        raise ValueError(f"sampling must be one of {SAMPLING_MODES}")
    if pool not in NEGATIVE_POOLS:
        raise ValueError(f"negative_pool must be one of {NEGATIVE_POOLS}")

    units = unit_rows(np.concatenate([side1, side2]))
    # candidates in enumeration order: pair ascending, then side
    cand_pair, cand_side = np.divmod(np.arange(2 * n), 2)
    candidates = units[cand_side * n + cand_pair]
    other_pair = cand_pair[None, :] != np.arange(n)[:, None]
    if texts is not None:
        ids: dict[str, int] = {}
        text_ids = np.array([[ids.setdefault(t, len(ids)) for t in pair] for pair in texts])
        cand_ids = text_ids[cand_pair, cand_side]
        fresh = (cand_ids != text_ids[:, :1]) & (cand_ids != text_ids[:, 1:])
    pools = []  # per side: the (n, 2n) mask of allowed candidates, MAX's picks
    for side in (0, 1):
        allowed = other_pair & (cand_side == side) if pool == "same-side" else other_pair
        if texts is not None:
            kept = allowed & fresh
            allowed = np.where(kept.any(axis=1, keepdims=True), kept, allowed)
        sims = units[side * n : (side + 1) * n] @ candidates.T
        pools.append((allowed, np.where(allowed, sims, -np.inf).argmax(axis=1)))

    if mode == "mix":
        for i in range(n):
            for allowed, picks in pools:
                if rng.random() >= 0.5:
                    positions = np.flatnonzero(allowed[i])
                    picks[i] = positions[int(rng.integers(len(positions)))]
    refs = list(zip(cand_pair.tolist(), cand_side.tolist()))
    return [(refs[a], refs[b]) for a, b in zip(pools[0][1], pools[1][1])]


def _hinge(
    values: np.ndarray, negatives: Sequence[tuple[PhraseRef, PhraseRef]], margin: float
) -> tuple[float, np.ndarray]:
    """Mean hinge loss of a stacked batch and its gradient with respect to `values`.

    `values` holds the side-1 embeddings over the side-2 embeddings, (2n, d).
    Pair i contributes max(0, margin - cos(x1, x2) + cos(x1, t1)) plus the
    same term for side 2, where t1 and t2 are its frozen negatives; cosines
    and their gradients are 0 at (near-)zero-norm vectors, as in `cosine`.
    """
    n = len(values) // 2
    norms = np.linalg.norm(values, axis=1)
    # a huge but finite embedding has an infinite norm and a zero unit vector
    if not np.all(np.isfinite(norms)):
        raise NumericalError("non-finite embedding")
    inv_norms = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms >= COSINE_NORM_FLOOR)
    units = values * inv_norms[:, None]

    refs = np.asarray(negatives).reshape(n, 2, 2)  # pair, side, (j, s)
    anchor = np.arange(2 * n).reshape(2, n).T  # rows of x1 and x2
    negative = refs[..., 1] * n + refs[..., 0]
    c_pos = np.einsum("ij,ij->i", units[:n], units[n:])
    c_neg = np.einsum("ikj,ikj->ik", units[anchor], units[negative])
    hinge = margin - c_pos[:, None] + c_neg
    active = (hinge > 0).astype(np.float64)

    # each cosine c(a, b), weighted by d loss / dc, passes weight * dc/da to
    # row a and weight * dc/db to row b, with dc/da = (unit_b - c * unit_a) / |a|
    a = np.concatenate([anchor[:, 0], anchor.ravel()])
    b = np.concatenate([anchor[:, 1], negative.ravel()])
    rows, others = np.concatenate([a, b]), np.concatenate([b, a])
    cos = np.tile(np.concatenate([c_pos, c_neg.ravel()]), 2)[:, None]
    weight = np.tile(np.concatenate([-active.sum(axis=1), active.ravel()]), 2)[:, None]
    grad = (units[others] - cos * units[rows]) * (weight * inv_norms[rows, None])
    # upstream[r] sums the terms of row r in term order, starting from zero,
    # as one product with a 0/1 matrix whose row r lists those terms
    terms = np.argsort(rows, kind="stable")
    indptr = np.zeros(2 * n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=2 * n), out=indptr[1:])
    gather = sparse.csr_matrix((np.ones(len(terms)), terms, indptr), shape=(2 * n, len(terms)))
    return float(np.maximum(hinge, 0.0).sum()) / n, (gather @ grad) / n


def _batch_gradients(
    texts: Sequence[tuple[str, str]],
    counts: sparse.csr_matrix,
    model: Model,
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, list[tuple[PhraseRef, PhraseRef]]]:
    """One forward pass, negative selection, and the analytic gradient of the batch.

    `counts` stacks the side-1 rows over the side-2 rows. The L2 term adds
    2*lambda*theta (unscaled) for the bias and every weight row present in
    `counts`. Returns (loss, d bias, touched rows, d weights[touched rows],
    negatives); the loss excludes the regularizer.
    """
    n = len(texts)
    values = embed_matrix(counts, model)
    negatives = select_negatives(
        values[:n], values[n:], config.sampling, rng, texts=texts, pool=config.negative_pool
    )
    loss, d_values = _hinge(values, negatives, config.margin)
    grad_bias, touched, grad_rows = embed_matrix_grad(counts, values, d_values, model)
    lam = config.reg_lambda
    if lam > 0:
        grad_bias += 2.0 * lam * model.bias
        grad_rows += 2.0 * lam * model.weights[touched]
    return loss, grad_bias, touched, grad_rows, negatives


def _adam_apply(
    model: Model,
    adam: AdamState,
    config: TrainConfig,
    grad_bias: np.ndarray,
    touched: np.ndarray,
    grad_rows: np.ndarray,
) -> None:
    """One bias-corrected Adam step over the bias and the touched rows only, in place.

    The step uses the efficient form of Kingma & Ba (2015, section 2): the
    bias corrections fold into a step size alpha_t = lr * sqrt(1 - b2^t) /
    (1 - b1^t) and an epsilon eps_t = eps * sqrt(1 - b2^t), and each weight
    moves by alpha_t * m / (sqrt(v) + eps_t), the same update as
    lr * m_hat / (sqrt(v_hat) + eps) up to rounding.

    The touched rows are updated in ascending blocks of about
    _ADAM_BLOCK_ENTRIES weights, so each block's gathered copies of m, v and W
    stay in cache through the whole update; the bias runs first as a block of
    its own. Finiteness is checked on each block as it is written, so the
    error names the bias before any row, and otherwise the lowest bad row.
    """
    model.drop_row_norms()
    adam.step += 1
    if adam.m_weights is None:
        # np.zeros leaves untouched pages unallocated until first written
        adam.m_bias, adam.v_bias = np.zeros(model.dim), np.zeros(model.dim)
        shape = model.weights.shape
        adam.m_weights, adam.v_weights = np.zeros(shape), np.zeros(shape)
    b1, b2 = config.adam_beta1, config.adam_beta2
    root_corr2 = math.sqrt(1.0 - b2**adam.step)
    alpha = config.learning_rate * root_corr2 / (1.0 - b1**adam.step)
    eps = config.adam_epsilon * root_corr2
    per_block = max(1, _ADAM_BLOCK_ENTRIES // model.dim)
    scratch = np.empty((per_block, model.dim))

    def update(param, m, v, idx, grad) -> np.ndarray:
        # idx is an index array, so m[idx], v[idx] and param[idx] are copies
        # the arithmetic below may overwrite
        term = scratch[: len(idx)]
        m_rows = m[idx]
        m_rows *= b1
        m_rows += np.multiply(grad, 1 - b1, out=term)
        m[idx] = m_rows
        v_rows = v[idx]
        v_rows *= b2
        np.multiply(grad, 1 - b2, out=term)
        v_rows += np.multiply(term, grad, out=term)
        v[idx] = v_rows
        # param[idx] -= alpha * m / (sqrt(v) + eps), in the moment copies,
        # keeping the written rows for the finiteness check
        np.sqrt(v_rows, out=v_rows)
        v_rows += eps
        m_rows *= alpha
        m_rows /= v_rows
        rows = param[idx]
        rows -= m_rows
        param[idx] = rows
        return rows

    # the bias runs as a one-row block, so its moments too are gathered as copies
    one_row = np.zeros(1, dtype=np.intp)
    rows = update(model.bias[None], adam.m_bias[None], adam.v_bias[None], one_row, grad_bias[None])
    if not np.isfinite(rows).all():
        raise NumericalError("non-finite bias after update")
    m, v = adam.m_weights, adam.v_weights
    for start in range(0, len(touched), per_block):
        block = slice(start, start + per_block)
        rows = update(model.weights, m, v, touched[block], grad_rows[block])
        finite = np.isfinite(rows)
        if not finite.all():
            bad = touched[block][~finite.all(axis=1)]
            raise NumericalError(f"non-finite weight row {bad[0]} after update")


def _encode_pairs(
    pairs: Sequence[tuple[str, str]], vocab: NGramVocab, model: Model, case_mode: str
) -> tuple[list[tuple[str, str]], sparse.csr_matrix]:
    """Normalized texts, and the count matrix of all side-1 texts over all side-2 texts."""
    texts = [(normalize(a, case_mode), normalize(b, case_mode)) for a, b in pairs]
    cvs = [encode(t, vocab) for t, _ in texts] + [encode(t, vocab) for _, t in texts]
    return texts, count_matrix(cvs, model)


def _step(
    texts: Sequence[tuple[str, str]],
    counts: sparse.csr_matrix,
    model: Model,
    config: TrainConfig,
    adam: AdamState,
    rng: np.random.Generator,
) -> float:
    loss, grad_bias, touched, grad_rows, _ = _batch_gradients(texts, counts, model, config, rng)
    _adam_apply(model, adam, config, grad_bias, touched, grad_rows)
    return loss


def epoch_permutation(seed: int, epoch: int, n: int, curriculum: bool) -> np.ndarray:
    """Deterministic example order for one epoch, a pure function of (seed, epoch).

    With curriculum enabled, epoch 0 keeps the file order (descending
    confidence); every other epoch uses a seeded shuffle that does not depend
    on the curriculum flag.
    """
    if curriculum and epoch == 0:
        return np.arange(n)
    return _rng(seed, _DOMAIN_SHUFFLE, epoch).permutation(n)


EvalHook = Callable[[Model, int], Mapping[str, float] | None]


def init_model(vocab: NGramVocab, config: TrainConfig) -> Model:
    """Fresh model: rows i.i.d. uniform on [-0.5/d, 0.5/d], bias zero."""
    d = config.dim
    rng = _rng(config.seed, _DOMAIN_INIT)
    weights = rng.uniform(-0.5 / d, 0.5 / d, size=(len(vocab), d))
    return Model(
        weights=weights,
        bias=np.zeros(d),
        activation=config.activation,
        vocab_fingerprint=vocab.fingerprint,
        case_mode=config.case_mode,
    )


def train(
    dataset: PairDataset,
    vocab: NGramVocab,
    config: TrainConfig,
    eval_hook: EvalHook | None = None,
    order_log: list[tuple[int, tuple[int, ...]]] | None = None,
) -> tuple[Model, AdamState, TrainingCurve]:
    """Train a fresh model on a paraphrase pair dataset.

    Epochs are partitioned into contiguous batches of config.batch_size over
    the epoch's permutation (final short batch kept when it has at least two
    pairs, dropped otherwise). The curve records the mean batch loss per
    epoch ("epoch_mean_batch_loss"), the running mean since the previous
    curve point ("train_loss") every `eval_every` fraction of an epoch, and
    whatever metrics `eval_hook(model, examples_seen)` returns at those same
    points. Fully deterministic given config.seed. `order_log`, when passed,
    receives (epoch, consumed index order) tuples. With zero epochs the
    pairs are not encoded, and the model returned is `init_model`'s.
    """
    config.validate()
    if len(dataset) == 0:
        raise DataError("empty dataset")
    if len(vocab) == 0:
        raise DataError("empty vocabulary")

    model = init_model(vocab, config)
    adam = AdamState()
    curve = TrainingCurve()

    if config.epochs:
        texts, counts = _encode_pairs(dataset.pairs, vocab, model, config.case_mode)

    n = len(dataset)
    examples_seen = 0
    for epoch in range(config.epochs):
        order = epoch_permutation(config.seed, epoch, n, config.curriculum)
        if order_log is not None:
            order_log.append((epoch, tuple(int(i) for i in order)))
        sample_rng = _rng(config.seed, _DOMAIN_SAMPLING, epoch)

        starts = range(0, n, config.batch_size)
        batch_slices = [order[s : s + config.batch_size] for s in starts]
        batch_slices = [b for b in batch_slices if len(b) >= 2]
        hook_interval = 0
        if config.eval_every > 0:
            hook_interval = max(1, round(len(batch_slices) * config.eval_every))

        epoch_loss = 0.0
        interval_loss = 0.0
        interval_batches = 0
        for bi, idxs in enumerate(batch_slices):
            batch = counts[np.concatenate([idxs, idxs + n])]
            try:
                loss = _step([texts[i] for i in idxs], batch, model, config, adam, sample_rng)
            except NumericalError as err:
                raise NumericalError(f"epoch {epoch + 1}, batch {bi + 1}: {err}") from err
            examples_seen += len(idxs)
            epoch_loss += loss
            interval_loss += loss
            interval_batches += 1
            if hook_interval and (bi + 1) % hook_interval == 0:
                curve.add(examples_seen, "train_loss", interval_loss / interval_batches)
                interval_loss = 0.0
                interval_batches = 0
                if eval_hook is not None:
                    metrics = eval_hook(model, examples_seen)
                    for name, value in (metrics or {}).items():
                        curve.add(examples_seen, name, value)
        if batch_slices:
            curve.add(examples_seen, "epoch_mean_batch_loss", epoch_loss / len(batch_slices))

    return model, adam, curve


def finite_diff_audit(
    model: Model,
    vocab: NGramVocab,
    sample_batch: Sequence[tuple[str, str]],
    config: TrainConfig,
    step: float = 1e-5,
) -> float:
    """Worst guarded relative error between analytic and central-difference gradients.

    Negative selections are made once and frozen; both routes then see the
    same piecewise-smooth objective: mean hinge loss plus lambda times the
    squared norm of the touched parameters (bias and every weight row present
    in the batch's count vectors). The relative error for a coordinate is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-3); the floor keeps
    near-zero coordinates from amplifying finite-difference noise, which is
    orders of magnitude below the floor at this step size.
    """
    if len(sample_batch) < 2:
        raise DataError("cannot sample negatives")
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and > 0, got {step}")
    model.drop_row_norms()  # central differences write into the weights
    texts, counts = _encode_pairs(sample_batch, vocab, model, config.case_mode)
    _, grad_bias, touched, grad_rows, negatives = _batch_gradients(
        texts, counts, model, config, _rng(config.seed, _DOMAIN_AUDIT)
    )

    def objective() -> float:
        loss, _ = _hinge(embed_matrix(counts, model), negatives, config.margin)
        rows = model.weights[touched]
        return loss + config.reg_lambda * (
            float(np.dot(model.bias, model.bias)) + float(np.sum(rows * rows))
        )

    def central_diff(array: np.ndarray, idx) -> float:
        saved = array[idx]
        array[idx] = saved + step
        f_plus = objective()
        array[idx] = saved - step
        f_minus = objective()
        array[idx] = saved
        return (f_plus - f_minus) / (2.0 * step)

    coords = [(model.bias, c, grad_bias[c]) for c in range(model.dim)]
    coords += [
        (model.weights, (row, c), grad_rows[r, c])
        for r, row in enumerate(touched)
        for c in range(model.dim)
    ]
    worst = 0.0
    for array, idx, analytic in coords:
        numeric = central_diff(array, idx)
        worst = max(
            worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)
        )
    return worst
