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

The dataset is a phrase table (`_encode_pairs`): one count row per distinct
normalized phrase, and per pair the row numbers of its two phrases, which
are also the ids that exclude string-equal negatives. What a step needs that
does not depend on the weights is planned before the first step of each
window of batches: the window's count rows come from one fancy row index of
the phrase table, each batch's rows are converted to CSC, so its forward
reads each touched weight row once, and its backward layout (its touched
rows and X_touched^T) is read off those columns by `column_layout`. A step
then does only the work that depends on the weights, with the same
arithmetic in the same order as building each batch on its own. A window
holds about _PLAN_WINDOW_ENTRIES count entries, so beside the phrase table
the plan keeps the window's batches and the float32 counts of their
layouts, which share the batches' row indices (and, while it plans a
window, the window's CSR rows), however large the dataset.

The gradient audit runs the same batch form: `finite_diff_audit` plans its
pairs as one batch and swaps in the layout with the counts as float64.

The step itself builds no SciPy matrix. Negative selection reads the masks
of allowed candidates from a cache keyed by the batch size and the pool,
and scores both sides in one batched product. The hinge sums each row's
gradient terms with slice adds and one `np.add.at` over the negatives'
terms. The backward multiplies in float32, as each planned layout holds its
counts as float32, so the gradient rows come out in the precision Adam reads
them in (see `_Batch`). Adam updates the bias and then the touched rows a
cache-sized block at a time. Its moments and their arithmetic are float32,
while the weights, the bias and its gradient, and everything the forward
pass reads, stay float64 (see `_adam_apply`).

A run's whole state between two steps is one `_Run`, which `train()` steps;
a copy of it taken there continues bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np
from scipy import sparse

from .errors import DataError, NumericalError
from .model import (
    COSINE_NORM_FLOOR,
    Model,
    check_activation,
    column_layout,
    embed_matrix,
    embed_matrix_grad,
    encode_matrix,
    unit_rows,
)
from .vocab import NGramVocab, check_case_mode, normalize

SAMPLING_MODES = ("max", "mix")
NEGATIVE_POOLS = ("same-side", "both-sides")

_SEED_MASK = 0xFFFFFFFFFFFFFFFF

# RNG stream domains, so that initialization, shuffling, and negative sampling
# never share a stream.
_DOMAIN_INIT = 0
_DOMAIN_SHUFFLE = 1
_DOMAIN_SAMPLING = 2
_DOMAIN_AUDIT = 3

# Adam's decay rates and epsilon: the defaults of Kingma & Ba (2015), which
# the paper trains with
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# Bytes per block of the Adam update: a block's gathered float32 m, v,
# gradient and term rows and its float64 W and gradient rows, 32 bytes a
# weight, stay in a typical per-core L2 cache.
_ADAM_BLOCK_BYTES = 1 << 19

# Count entries per window of planned batches (see `_plan_batches`): the
# whole epoch of the paper-shape benchmark is one window.
_PLAN_WINDOW_ENTRIES = 1 << 19


def _adam_block_rows(dim: int) -> int:
    """Rows per block of the Adam update at dimension `dim`."""
    return max(1, _ADAM_BLOCK_BYTES // (32 * dim))


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
    """Knobs for contrastive training; defaults follow the tuned similarity setup.

    Each field is a setting of the `train` command (see `io.RunConfig`).
    Adam's beta1, beta2 and epsilon are not settings: they are the module
    constants ADAM_BETA1, ADAM_BETA2 and ADAM_EPSILON. `validate` raises
    ValueError for a value out of range, a float that is not finite, or a
    `dim`, `batch_size`, `epochs` or `seed` that is not an int (a bool is not).
    """

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
    eval_every: float = 0.25
    negative_pool: str = "same-side"

    def validate(self) -> None:
        # every comparison with NaN is false, so the range checks below let it
        # through, and most of them let inf through
        for name in ("margin", "reg_lambda", "learning_rate", "eval_every"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # a float passes the range checks, and a bool is an int to Python
        for name in ("dim", "batch_size", "epochs", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
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
        # a curve point falls every round(batches * eval_every) batches of an
        # epoch, counted afresh each epoch, so above 1 no point ever falls
        if not 0 <= self.eval_every <= 1:
            raise ValueError(f"eval_every must lie in (0, 1], or be 0 for none, got {self.eval_every}")
        if self.negative_pool not in NEGATIVE_POOLS:
            raise ValueError(f"negative_pool must be one of {NEGATIVE_POOLS}")


@dataclass
class AdamState:
    """Adam moments, allocated zero at the first step; rows no step touched stay zero.

    The moments decay at the fixed rates ADAM_BETA1 and ADAM_BETA2, so the
    state holds no setting. They are float32, (d,) for the bias and (|V|, d)
    for the weights. Every step gathers and scatters them for each touched row, and they only
    scale the step, so float32's relative precision of about 6e-8 moves each
    update by no more than that. The gradient rows of a planned batch that
    feed them are float32 as well (see `_Batch`). The weights and bias they
    update stay float64: the forward pass, and the float64 references that
    embeddings are checked against, read them. `_adam_apply` raises DataError
    for moments of another shape or dtype.
    """

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
    pool: str = "same-side",
    *,
    text_ids: np.ndarray | None = None,
    norms: np.ndarray | None = None,
) -> np.ndarray:
    """Pick one negative example per side for every pair in the batch.

    `side1` and `side2` are the (n, d) embeddings of the pairs' two sides.
    Returns an (n, 2, 2) intp array: `out[i, side]` is (j, s) when that
    side's negative for pair i is phrase s of pair j. Under the default pool
    the side-1 negative competes among side-1 phrases of other pairs (s = 0)
    and the side-2 negative among side-2 phrases (s = 1); pool="both-sides"
    widens both competitions to all phrases of other pairs.

    MAX picks the candidate most cosine-similar to the phrase being matched,
    ties broken by candidate enumeration order (pair index ascending, side-1
    before side-2). MIX flips an independent fair coin per pair per side:
    heads uses MAX, tails draws uniformly from the allowed candidates. The rng
    is consumed in a fixed order (pair 0 side 1, pair 0 side 2, pair 1 side 1,
    ...), with one `rng.random()` per coin and one `rng.integers()` per
    uniform draw; plain MAX never touches the rng.

    When `text_ids` is given, (n, 2) ids equal exactly where the pairs'
    normalized phrases are (the trainer's phrase-table rows), candidates
    string-equal to either phrase of the current pair are excluded, falling
    back to all other-pair candidates if that empties the pool. `norms`, when
    given, must be the row norms of the stacked (2n, d) embeddings,
    `np.linalg.norm(values, axis=1)`; the trainer shares them with `_hinge`.
    """
    n = len(side1)
    if n < 2:
        raise DataError("cannot sample negatives")
    if mode not in SAMPLING_MODES:
        raise ValueError(f"sampling must be one of {SAMPLING_MODES}, got {mode!r}")
    if pool not in NEGATIVE_POOLS:
        raise ValueError(f"negative_pool must be one of {NEGATIVE_POOLS}")

    layout = _candidate_layout(n, pool)
    units = unit_rows(np.concatenate([side1, side2]), norms)
    candidates = units[layout.order]
    allowed = layout.allowed
    if text_ids is not None:
        cand_ids = text_ids.ravel()  # candidate c is phrase c % 2 of pair c // 2
        fresh = (cand_ids != text_ids[:, :1]) & (cand_ids != text_ids[:, 1:])
        kept = allowed & fresh
        allowed = np.where(kept.any(axis=2, keepdims=True), kept, allowed)
    # one (n, d) @ (d, 2n) product per side: a single (2n, d) product can
    # round differently in the last bit, and so pick another tied candidate
    sims = units.reshape(2, n, -1) @ candidates.T
    picks = _most_similar(sims, allowed)

    if mode == "mix":
        for i in range(n):
            for side in (0, 1):
                if rng.random() >= 0.5:
                    positions = np.flatnonzero(allowed[side, i])
                    picks[side, i] = positions[int(rng.integers(len(positions)))]
    return layout.refs[picks.T]


def _most_similar(sims: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Per row of `sims`, the position of its largest allowed value, the first of ties."""
    return np.where(allowed, sims, -np.inf).argmax(axis=-1)


@dataclass(frozen=True)
class _CandidateLayout:
    """The negative candidates of a batch of n pairs, which depend only on n and the pool.

    Candidates are in enumeration order, pair ascending, then side: candidate
    c is phrase c % 2 of pair c // 2, `refs[c]` as (pair, side) and row
    `order[c]` of the stacked (2n, d) batch. `allowed[side, i]` masks the
    candidates open to that side of pair i: other pairs' phrases, of the same
    side under the "same-side" pool. The arrays are read-only, as every call
    for the same (n, pool) shares them.
    """

    order: np.ndarray
    allowed: np.ndarray  # (2, n, 2n) bool
    refs: np.ndarray  # (2n, 2) intp


@functools.lru_cache(maxsize=16)
def _candidate_layout(n: int, pool: str) -> _CandidateLayout:
    cand_pair, cand_side = np.divmod(np.arange(2 * n), 2)
    other_pair = cand_pair[None, :] != np.arange(n)[:, None]
    allowed = np.stack([other_pair, other_pair])
    if pool == "same-side":
        allowed &= (cand_side == np.arange(2)[:, None])[:, None, :]
    order = cand_side * n + cand_pair
    refs = np.stack([cand_pair, cand_side], axis=1)
    order.flags.writeable = allowed.flags.writeable = refs.flags.writeable = False
    return _CandidateLayout(order, allowed, refs)


def _hinge(
    values: np.ndarray, negatives: np.ndarray, margin: float, *, norms: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Mean hinge loss of a stacked batch and its gradient with respect to `values`.

    `values` holds the side-1 embeddings over the side-2 embeddings, (2n, d).
    Pair i contributes max(0, margin - cos(x1, x2) + cos(x1, t1)) plus the
    same term for side 2, where t1 and t2 are its frozen negatives, given as
    `select_negatives` returns them; cosines and their gradients are 0 at
    (near-)zero-norm vectors, as in `cosine`.

    Each cosine gives a gradient term to both of its rows. A row's gradient
    sums its terms from zero, in a fixed term order: the positive-pair and
    negative-anchor terms first, as slice adds over the two (n, d) halves,
    then the terms that reach it as another phrase's negative. Only those
    last 2n terms land on rows that depend on the data; one unbuffered
    `np.add.at` adds them in order, so repeated rows sum the same way every
    time. `norms`, when given, must be `np.linalg.norm(values, axis=1)`.
    """
    n = len(values) // 2
    if norms is None:
        norms = np.linalg.norm(values, axis=1)
    # a huge but finite embedding has an infinite norm and a zero unit vector
    if not np.all(np.isfinite(norms)):
        raise NumericalError("non-finite embedding")
    inv_norms = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms >= COSINE_NORM_FLOOR)
    units = values * inv_norms[:, None]

    anchor = np.arange(2 * n).reshape(2, n).T  # rows of x1 and x2
    negative = negatives[..., 1] * n + negatives[..., 0]
    x1, x2 = units[:n], units[n:]
    t_anchor, t_negative = units[anchor], units[negative]  # (n, 2, d)
    c_pos = np.einsum("ij,ij->i", x1, x2)
    c_neg = np.einsum("ikj,ikj->ik", t_anchor, t_negative)
    hinge = margin - c_pos[:, None] + c_neg
    active = (hinge > 0).astype(np.float64)
    w_pos = -active.sum(axis=1)

    def terms(unit_a, unit_b, cos, weight, inv_norm_a):
        # each cosine c(a, b), weighted by d loss / dc, passes weight * dc/da to
        # row a and weight * dc/db to row b, with dc/da = (unit_b - c * unit_a) / |a|
        return (unit_b - cos[..., None] * unit_a) * (weight * inv_norm_a)[..., None]

    # term order: x1's positive-pair term, then its negative-anchor term; x2's
    # negative-anchor term, then its positive-pair term; then, on the rows
    # picked as negatives, their terms
    anchor_terms = terms(t_anchor, t_negative, c_neg, active, inv_norms[anchor])
    upstream = np.zeros(values.shape)
    upstream[:n] += terms(x1, x2, c_pos, w_pos, inv_norms[:n])
    upstream[:n] += anchor_terms[:, 0]
    upstream[n:] += anchor_terms[:, 1]
    upstream[n:] += terms(x2, x1, c_pos, w_pos, inv_norms[n:])
    negative_terms = terms(t_negative, t_anchor, c_neg, active, inv_norms[negative])
    # np.add.at adds one index after the other, so repeated rows too sum in
    # term order; on the flat array it takes NumPy's faster 1-D path
    d = values.shape[1]
    flat = (negative.reshape(-1, 1) * d + np.arange(d)).ravel()
    np.add.at(upstream.reshape(-1), flat, negative_terms.ravel())
    return float(np.maximum(hinge, 0.0).sum()) / n, upstream / n


@dataclass(frozen=True)
class _Batch:
    """What one training step needs that does not depend on the weights.

    Batches come from `_plan_batches` alone. Their counts are a `csc_matrix`,
    and their backward layout is `column_layout` of them with the counts as
    float32, which is exact for counts below 2^24, so the step's backward
    builds the gradient rows in the float32 that `_adam_apply` reads them in.
    `finite_diff_audit` swaps in the layout with the counts as float64, so
    the gradient it checks is the float64 formula.
    """

    counts: sparse.csc_matrix  # the side-1 rows over the side-2 rows
    text_ids: np.ndarray  # (n, 2) phrase-table rows of the pairs, for excluding negatives
    layout: tuple[np.ndarray, sparse.csr_matrix]  # `column_layout` of counts


def _batch_gradients(
    batch: _Batch, model: Model, config: TrainConfig, rng: np.random.Generator
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One forward pass, negative selection, and the analytic gradient of the batch loss.

    Returns (loss, d bias, touched rows, d weights[touched rows], negatives).
    The bias gradient is float64, and the rows' gradient is in the dtype of
    the batch's layout: float32 for a step, float64 for the audit. Neither
    the loss nor the gradient includes the L2 term; `_adam_apply` adds its
    gradient.
    """
    values = embed_matrix(batch.counts, model)
    norms = np.linalg.norm(values, axis=1)  # one pass for the picker and the hinge
    n = len(batch.text_ids)
    negatives = select_negatives(
        values[:n], values[n:], config.sampling, rng,
        pool=config.negative_pool, text_ids=batch.text_ids, norms=norms,
    )
    loss, d_values = _hinge(values, negatives, config.margin, norms=norms)
    grad_bias, touched, grad_rows = embed_matrix_grad(values, d_values, model, batch.layout)
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

    `grad_bias` and `grad_rows` are the gradient of the batch loss, float32
    or float64; the step adds the L2 term's 2*lambda*theta (unscaled) for the
    bias and each touched row in float64, from the rows it gathers anyway. It
    reads float32 gradient rows as they are when lambda is 0, and writes
    nothing into either argument.

    The step uses the efficient form of Kingma & Ba (2015, section 2), with
    b1, b2 and eps the constants ADAM_BETA1, ADAM_BETA2 and ADAM_EPSILON: the
    bias corrections fold into a step size alpha_t = lr * sqrt(1 - b2^t) /
    (1 - b1^t) and an epsilon eps_t = eps * sqrt(1 - b2^t), and each weight
    moves by alpha_t * m / (sqrt(v) + eps_t), the same update as
    lr * m_hat / (sqrt(v_hat) + eps) up to rounding.

    The moments are float32, and so is their arithmetic: each block casts a
    float64 gradient (L2 term included) to float32 once, updates m and v with
    b1, 1 - b1, b2, 1 - b2, alpha_t and eps_t each rounded to float32 once per
    step, and subtracts the float32 step from its float64 weight rows. The
    parameters stay float64, and so do the forward pass and everything served
    from them. Moments of another shape or dtype are a DataError.

    One helper runs this for the bias first, in place, and then for the
    touched rows in ascending blocks of about _ADAM_BLOCK_BYTES of gathered
    rows, so each block's copies of m, v and W stay in cache through the
    whole update.
    Finiteness of the written parameters and of v is checked on the bias and
    on each block, so a gradient past float32's range, or whose square is, is
    a NumericalError that names the bias before any row, and otherwise the
    lowest bad row.

    The check reads only max(denom), denom = sqrt(v) + eps_t, on the common
    path. An inf or NaN gradient entry, or one whose square overflows, makes
    v and so denom non-finite. A finite denom thus means every gradient entry
    is finite; m, a convex mix of gradients, is finite too, and denom >=
    eps_t > 0. By Cauchy-Schwarz |m| / sqrt(v) <= (1 - b1) / sqrt((1 - b2)
    (1 - b1^2 / b2)), about 7.3, so |step| <= about 7.3 alpha_t. Lazy updates
    keep this: a row's moments follow the same recurrence on the steps that
    touch it. Weights start at |w| <= 0.5 / d, so no row a run could make
    reaches float64's range, and the written rows are finite. Only a block
    whose denom is not finite gets the per-row test, which names its row.
    """
    shapes = {"m_bias": (model.dim,), "v_bias": (model.dim,)}
    shapes["m_weights"] = shapes["v_weights"] = model.weights.shape
    if adam.m_weights is None:
        # np.zeros leaves untouched pages unallocated until first written
        for name, shape in shapes.items():
            setattr(adam, name, np.zeros(shape, dtype=np.float32))
    for name, shape in shapes.items():
        moment = getattr(adam, name)
        if not (isinstance(moment, np.ndarray) and moment.dtype == np.float32
                and moment.shape == shape):
            raise DataError(f"Adam moment {name} must be float32 of shape {shape}")
    model.drop_row_norms()
    adam.step += 1
    f32 = np.float32
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    root_corr2 = math.sqrt(1.0 - b2**adam.step)
    alpha = f32(config.learning_rate * root_corr2 / (1.0 - b1**adam.step))
    eps = f32(ADAM_EPSILON * root_corr2)
    keep1, take1, keep2, take2 = f32(b1), f32(1 - b1), f32(b2), f32(1 - b2)
    two_lam = 2.0 * config.reg_lambda
    per_block = _adam_block_rows(model.dim)
    scratch, term = np.empty((2, per_block, model.dim), dtype=np.float32)

    def update(param, m, v, idx, grad) -> np.ndarray | None:
        """Step the rows idx of param by their gradient `grad`.

        Returns None, or which of the rows are not finite in v or after the step.
        """
        # idx is a slice for the bias, whose param[idx], m[idx] and v[idx] are
        # views updated in place, and an index array for a block of rows,
        # whose copies are written back
        rows = None
        if two_lam > 0:  # the L2 term's gradient, from the rows the step writes back
            rows = param[idx]
            grad = grad + two_lam * rows
        # float32 rows are read as they are, others cast once into the scratch
        s, t = scratch[: len(grad)], term[: len(grad)]
        g = grad
        if g.dtype != np.float32:
            g = s
            np.copyto(g, grad, casting="same_kind")
        m_rows = m[idx]
        m_rows *= keep1
        m_rows += np.multiply(g, take1, out=t)
        m[idx] = m_rows
        v_rows = v[idx]
        v_rows *= keep2
        np.multiply(g, take2, out=t)
        v_rows += np.multiply(t, g, out=t)
        v[idx] = v_rows
        # the step alpha * m / (sqrt(v) + eps), in the scratch rows, so that a
        # float32 gradient read as it is stays unwritten
        step = np.multiply(m_rows, alpha, out=s)
        denom = np.sqrt(v_rows, out=t)
        denom += eps
        step /= denom
        if rows is None:  # gathered last: measured a little faster than first
            rows = param[idx]
        rows -= step
        param[idx] = rows
        # denom is sqrt(v) + eps >= 0 or NaN, so its max is finite exactly when
        # all of it is; a finite denom bounds the step, so the rows need no pass
        if np.isfinite(denom.max()):
            return None
        return ~(np.isfinite(rows).all(axis=1) & np.isfinite(denom).all(axis=1))

    # a gradient past float32's range casts to inf, and its square may
    # overflow; both end as non-finite rows, which the checks report
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bias = (model.bias[None], adam.m_bias[None], adam.v_bias[None], slice(None))
        if update(*bias, grad_bias[None]) is not None:
            raise NumericalError("non-finite bias after update")
        for start in range(0, len(touched), per_block):
            idx = touched[start : start + per_block]
            bad = update(model.weights, adam.m_weights, adam.v_weights, idx,
                         grad_rows[start : start + per_block])
            if bad is not None:
                raise NumericalError(f"non-finite weight row {idx[bad][0]} after update")


def _encode_pairs(
    pairs: Sequence[tuple[str, str]], vocab: NGramVocab, model: Model
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """The phrase table of `pairs`: the CSR count matrix, each row's columns ascending,
    of their distinct phrases normalized in the model's case mode, in first-occurrence
    order (pair 0 side 1, pair 0 side 2, ...); and the (n, 2) rows of each pair's phrases."""
    case_mode = model.input_case_mode
    rows: dict[str, int] = {}
    ids = [rows.setdefault(normalize(t, case_mode), len(rows)) for pair in pairs for t in pair]
    text_ids = np.array(ids, dtype=np.intp).reshape(len(pairs), 2)
    return encode_matrix(list(rows), vocab, model).tocsr(), text_ids


def _step(
    batch: _Batch, model: Model, config: TrainConfig, adam: AdamState, rng: np.random.Generator
) -> float:
    loss, grad_bias, touched, grad_rows, _ = _batch_gradients(batch, model, config, rng)
    _adam_apply(model, adam, config, grad_bias, touched, grad_rows)
    return loss


def _plan_batches(
    counts: sparse.csr_matrix, text_ids: np.ndarray, batches: Sequence[np.ndarray]
) -> Iterator[_Batch]:
    """The `_Batch` of each batch of pair indices, planned a window of batches at a time.

    `counts` and `text_ids` are the phrase table and the pairs' row numbers
    in it, as `_encode_pairs` gives them. A window takes its rows (each
    batch's side-1 rows, then its side-2 rows) with one fancy index of
    `counts` by those numbers. Before the window's first step, each batch's
    rows, a contiguous row range of the window's arrays, are converted to a
    `csc_matrix` by SciPy's `tocsc`, and its backward layout is read off
    those columns by `column_layout`, with the counts as float32 (see
    `_Batch`); the window's CSR rows are then dropped. A window ends once its
    batches hold _PLAN_WINDOW_ENTRIES count entries, so besides `counts` the
    plan keeps about that many entries, with their float32 copy, whatever
    the dataset size.
    """
    pair_nnz = np.diff(counts.indptr)[text_ids].sum(axis=1)
    window_of = np.cumsum([pair_nnz[idxs].sum() for idxs in batches]) // _PLAN_WINDOW_ENTRIES
    starts = np.flatnonzero(np.diff(window_of, prepend=-1))
    for w0, w1 in zip(starts, [*starts[1:], len(batches)]):
        window = batches[w0:w1]
        rows = counts[np.concatenate([text_ids[idxs].T.ravel() for idxs in window])]
        bounds = np.cumsum([0, *(2 * len(idxs) for idxs in window)])
        indptr = rows.indptr
        planned = []
        for idxs, r0, r1 in zip(window, bounds, bounds[1:]):
            e0, e1 = indptr[r0], indptr[r1]
            batch_counts = sparse.csr_matrix(
                (rows.data[e0:e1], rows.indices[e0:e1], indptr[r0 : r1 + 1] - e0),
                shape=(r1 - r0, rows.shape[1]),
            ).tocsc()
            planned.append(
                _Batch(batch_counts, text_ids[idxs], column_layout(batch_counts, np.float32))
            )
        del rows, indptr
        yield from planned


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


@dataclass
class _Run:
    """The whole state of a training run between two steps.

    The cursor is the epoch and `batch`, how many of that epoch's batches are
    done; `rng` is the epoch's sampling stream, made at its first step. The
    epoch's order is a pure function of (seed, epoch), and the plan of the
    batches left is the same whatever window it starts at, so a copy of a
    run taken between steps continues bit for bit as the run itself does.
    """

    config: TrainConfig
    model: Model
    adam: AdamState = field(default_factory=AdamState)
    curve: TrainingCurve = field(default_factory=TrainingCurve)
    epoch: int = 0
    batch: int = 0
    examples_seen: int = 0
    rng: np.random.Generator | None = None
    epoch_loss: float = 0.0
    interval_loss: float = 0.0
    interval_batches: int = 0

    def steps(self, counts: sparse.csr_matrix, text_ids: np.ndarray) -> Iterator[bool]:
        """Train from the cursor to the end of the last epoch, on the phrase
        table and row numbers of `_encode_pairs`; after each step, yield
        whether a "train_loss" curve point fell there."""
        config, n = self.config, len(text_ids)
        while self.epoch < config.epochs:
            order = epoch_permutation(config.seed, self.epoch, n, config.curriculum)
            if self.batch == 0:  # the epoch's first step: its stream and sums start afresh
                self.rng = _rng(config.seed, _DOMAIN_SAMPLING, self.epoch)
                self.epoch_loss = self.interval_loss = 0.0
                self.interval_batches = 0
            slices = [order[s : s + config.batch_size] for s in range(0, n, config.batch_size)]
            slices = [b for b in slices if len(b) >= 2]
            every = max(1, round(len(slices) * config.eval_every)) if config.eval_every else 0
            for batch in _plan_batches(counts, text_ids, slices[self.batch :]):
                try:
                    loss = _step(batch, self.model, config, self.adam, self.rng)
                except NumericalError as err:
                    raise NumericalError(f"epoch {self.epoch + 1}, batch {self.batch + 1}: {err}") from err
                self.batch += 1
                self.examples_seen += len(batch.text_ids)
                self.epoch_loss += loss
                self.interval_loss += loss
                self.interval_batches += 1
                point = every > 0 and self.batch % every == 0
                if point:
                    mean = self.interval_loss / self.interval_batches
                    self.curve.add(self.examples_seen, "train_loss", mean)
                    self.interval_loss, self.interval_batches = 0.0, 0
                yield point
            if slices:
                self.curve.add(self.examples_seen, "epoch_mean_batch_loss", self.epoch_loss / len(slices))
            self.epoch, self.batch = self.epoch + 1, 0


def train(
    dataset: PairDataset,
    vocab: NGramVocab,
    config: TrainConfig,
    eval_hook: EvalHook | None = None,
) -> tuple[Model, AdamState, TrainingCurve]:
    """Train a fresh model on a paraphrase pair dataset.

    Epochs are partitioned into contiguous batches of config.batch_size over
    the epoch's permutation (final short batch kept when it has at least two
    pairs, dropped otherwise). The curve records the mean batch loss per
    epoch ("epoch_mean_batch_loss"), the running mean since the previous
    curve point ("train_loss") every `eval_every` fraction of an epoch (none
    when it is 0), and whatever metrics `eval_hook(model, examples_seen)`
    returns at those same points. Each epoch's order is
    `epoch_permutation(config.seed, epoch, ...)`, and the run is fully
    deterministic given config.seed. Adam runs with the constants
    ADAM_BETA1, ADAM_BETA2 and ADAM_EPSILON. With zero epochs the pairs are
    not encoded, and the model returned is `init_model`'s; with any more, a
    dataset of one pair is a DataError, as its only batch would be dropped.
    The state of the run is one `_Run`, stepped here with the hook called at
    each curve point.
    """
    config.validate()
    if len(dataset) == 0:
        raise DataError("empty dataset")
    if config.epochs > 0 and len(dataset) < 2:
        raise DataError("need at least 2 pairs to train: negatives come from the batch")
    if len(vocab) == 0:
        raise DataError("empty vocabulary")

    run = _Run(config, init_model(vocab, config))
    if config.epochs:
        for point in run.steps(*_encode_pairs(dataset.pairs, vocab, run.model)):
            if point and eval_hook is not None:
                metrics = eval_hook(run.model, run.examples_seen)
                for name, value in (metrics or {}).items():
                    run.curve.add(run.examples_seen, name, value)
    return run.model, run.adam, run.curve


def finite_diff_audit(
    model: Model,
    vocab: NGramVocab,
    sample_batch: Sequence[tuple[str, str]],
    config: TrainConfig,
    step: float = 1e-5,
) -> float:
    """Worst guarded relative error between analytic and central-difference gradients.

    The pairs are one batch, planned as a training step's is (`_plan_batches`),
    with its layout's counts in float64, so the analytic gradient is the
    float64 formula of the step's own forward and backward: `_batch_gradients`,
    the gradient of the mean hinge loss alone. Of `config` it reads `sampling`,
    `negative_pool`, `margin` and `seed`; the model gives the activation.
    Negative selections are made once and frozen; both routes then see the
    same piecewise-smooth objective, and every coordinate of the bias and of
    the weight rows present in the batch's count vectors is checked. The L2
    step is `_adam_apply`'s, which the audit never runs; unit tests pin it.
    The relative error for a coordinate is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-3); the floor keeps
    near-zero coordinates from amplifying finite-difference noise, which is
    orders of magnitude below the floor at this step size.

    A batch whose analytic gradient is exactly zero, every hinge term
    inactive, would check nothing: it is a DataError.
    """
    if len(sample_batch) < 2:
        raise DataError("cannot sample negatives")
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and > 0, got {step}")
    model.drop_row_norms()  # central differences write into the weights
    counts, text_ids = _encode_pairs(sample_batch, vocab, model)
    (batch,) = _plan_batches(counts, text_ids, [np.arange(len(text_ids))])
    batch = replace(batch, layout=column_layout(batch.counts, np.float64))
    _, grad_bias, touched, grad_rows, negatives = _batch_gradients(
        batch, model, config, _rng(config.seed, _DOMAIN_AUDIT)
    )
    if not (grad_bias.any() or grad_rows.any()):
        raise DataError("no hinge term is active and the gradient is zero: "
                        "the audit would check nothing")

    def objective() -> float:
        return _hinge(embed_matrix(batch.counts, model), negatives, config.margin)[0]

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
