"""Output checks, written independently of the code they check.

Every check returns `(ok, detail)`. The reference routes here use only the
model's arrays and the vocabulary's n-gram table: they normalize and count
n-grams themselves, embed through a dense count matrix (or a SciPy sparse
one), rank neighbours with a full NumPy scan and recompute correlations with
`scipy.stats`. `CheckLog` counts each check as one attempted operation, so a
wrong answer shows up in the run's failed-operation count.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager

import numpy as np
from scipy import sparse, stats

EMBED_TOL = 1e-12  # dense reference vs sparse embedding, per coordinate
COSINE_TOL = 1e-9  # reported cosine vs the reference scan
CORR_TOL = 1e-9  # reported correlation vs scipy on reference cosines
NORM_FLOOR = 1e-12  # norms below this count as zero (cosine is then 0)


class CheckLog:
    """Results of every check made in one run."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def record(self, family: str, outcome: tuple[bool, str]) -> bool:
        ok, detail = outcome
        self.results.append((family, bool(ok), detail))
        return bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)

    @contextmanager
    def guard(self, family: str):
        """Record a failure, instead of stopping the run, if a check raises."""
        try:
            yield
        except Exception as err:  # a malformed output is a failed check
            self.record(family, (False, f"check raised {type(err).__name__}: {err}"))

    def failures(self) -> list[str]:
        return [f"{family}: {detail}" for family, ok, detail in self.results if not ok]


# --- independent reference route -------------------------------------------


def ref_normalize(text: str) -> str:
    """Lower-case, collapse whitespace, pad with one boundary space each side."""
    return " " + " ".join(text.split()).lower() + " "


def ref_counts(text: str, index: dict, orders) -> Counter:
    """In-vocabulary n-gram counts of the normalized text, keyed by row."""
    seq = ref_normalize(text)
    counts: Counter = Counter()
    for n in orders:
        for i in range(len(seq) - n + 1):
            row = index.get(seq[i : i + n])
            if row is not None:
                counts[row] += 1
    return counts


def activate(activation: str, pre: np.ndarray) -> np.ndarray:
    if activation == "tanh":
        return np.tanh(pre)
    if activation == "relu":
        return np.maximum(pre, 0.0)
    return pre


def dense_embeddings(texts, weights, bias, activation, index, orders) -> np.ndarray:
    """Dense count matrix @ W + b, through the activation."""
    counts = np.zeros((len(texts), weights.shape[0]))
    for i, text in enumerate(texts):
        for row, c in ref_counts(text, index, orders).items():
            counts[i, row] = c
    return activate(activation, counts @ weights + bias)


def sparse_embeddings(texts, weights, bias, activation, index, orders) -> np.ndarray:
    """Same arithmetic as `dense_embeddings`, with a SciPy CSR count matrix."""
    rows, cols, vals = [], [], []
    for i, text in enumerate(texts):
        for row, c in ref_counts(text, index, orders).items():
            rows.append(i)
            cols.append(row)
            vals.append(float(c))
    counts = sparse.csr_matrix((vals, (rows, cols)), shape=(len(texts), weights.shape[0]))
    return activate(activation, counts @ weights + bias)


def cosines(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    qn = float(np.linalg.norm(query))
    norms = np.linalg.norm(matrix, axis=1)
    if qn < NORM_FLOOR:
        return np.zeros(matrix.shape[0])
    out = (matrix @ query) / (np.where(norms < NORM_FLOOR, 1.0, norms) * qn)
    out[norms < NORM_FLOOR] = 0.0
    return out


def pair_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    zero = (na < NORM_FLOOR) | (nb < NORM_FLOOR)
    out = np.einsum("ij,ij->i", a, b) / np.where(zero, 1.0, na * nb)
    out[zero] = 0.0
    return out


# --- checks ---------------------------------------------------------------


def check_embeddings(got: np.ndarray, reference: np.ndarray) -> tuple[bool, str]:
    """Embedding rows from the program against the dense reference."""
    got = np.asarray(got, dtype=np.float64)
    if got.shape != reference.shape:
        return False, f"shape {got.shape} != {reference.shape}"
    if not np.all(np.isfinite(got)):
        return False, "non-finite embedding"
    worst = float(np.max(np.abs(got - reference))) if got.size else 0.0
    return worst <= EMBED_TOL, f"max |diff| {worst:.3e} over {len(got)} texts"


def reference_ranking(words, embeddings, query_vec, exclude, k):
    """Top-k by cosine descending, then word ascending, via a full scan."""
    cos = cosines(embeddings, query_vec)
    keep = [i for i, w in enumerate(words) if w not in exclude]
    order = sorted(keep, key=lambda i: (-cos[i], words[i]))
    return [(words[i], float(cos[i])) for i in order[:k]], dict(zip(words, cos))


def check_ranking(got, expected, all_cos, k) -> tuple[bool, str]:
    """A returned top-k list against the reference scan.

    Identical lists pass. Otherwise the list must still be a valid answer
    once cosines that differ by at most COSINE_TOL count as ties: right
    length, each cosine within tolerance of the reference, non-increasing,
    ties in word order, and nothing left out that beats the last entry.
    """
    got = [(w, float(c)) for w, c in got]
    if [w for w, _ in got] == [w for w, _ in expected]:
        worst = max((abs(c - all_cos[w]) for w, c in got), default=0.0)
        return worst <= COSINE_TOL, f"top-{k} matches, max cosine diff {worst:.3e}"
    if len(got) != len(expected):
        return False, f"{len(got)} results, expected {len(expected)}"
    for w, c in got:
        if w not in all_cos or abs(c - all_cos[w]) > COSINE_TOL:
            return False, f"wrong cosine or unknown word {w!r}"
    for (w1, c1), (w2, c2) in zip(got, got[1:]):
        if c2 > c1 + COSINE_TOL or (abs(c1 - c2) <= COSINE_TOL and c1 == c2 and w2 < w1):
            return False, f"order broken at {w1!r}, {w2!r}"
    floor = got[-1][1] if got else math.inf
    chosen = {w for w, _ in got}
    for w, c in expected:
        if w not in chosen and c > floor + COSINE_TOL:
            return False, f"{w!r} (cos {c:.6f}) missing from top-{k}"
    return True, f"top-{k} equal up to near-ties"


def check_correlation(got, scores, golds) -> tuple[bool, str]:
    """A reported Pearson r against scipy.stats on reference cosines."""
    expected = float(stats.pearsonr(scores, golds)[0])
    if got is None or not math.isfinite(got):
        return False, f"missing correlation, expected {expected:.6f}"
    diff = abs(got - expected)
    return diff <= CORR_TOL, f"pearson {got:.9f} vs {expected:.9f}"


def check_spearman(got, scores, golds) -> tuple[bool, str]:
    """A reported Spearman rho against scipy.stats on reference cosines."""
    expected = float(stats.spearmanr(scores, golds)[0])
    if got is None or not math.isfinite(got):
        return False, f"missing correlation, expected {expected:.6f}"
    return abs(got - expected) <= CORR_TOL, f"spearman {got:.9f} vs {expected:.9f}"


def check_bins(got_bins, keys, scores, golds) -> tuple[bool, str]:
    """Per-bin populations and correlations against a recomputation."""
    for b in got_bins:
        label = b.label
        if label.startswith(">="):
            member = [k >= int(label[2:]) for k in keys]
        elif label.startswith("<="):
            member = [k <= int(label[2:]) for k in keys]
        elif "-" in label:
            lo, hi = (int(x) for x in label.split("-"))
            member = [lo <= k <= hi for k in keys]
        else:
            member = [k == int(label) for k in keys]
        picked = [i for i, m in enumerate(member) if m]
        if b.n_pairs != len(picked):
            return False, f"bin {label}: {b.n_pairs} pairs, expected {len(picked)}"
        xs = np.array([scores[i] for i in picked])
        ys = np.array([golds[i] for i in picked])
        defined = len(picked) >= 2 and np.ptp(xs) > 0 and np.ptp(ys) > 0
        if not defined:
            if b.correlation is not None:
                return False, f"bin {label}: correlation reported for a degenerate bin"
            continue
        ok, detail = check_correlation(b.correlation, xs, ys)
        if not ok:
            return False, f"bin {label}: {detail}"
    return True, f"{len(got_bins)} bins match"


def check_roundtrip(model, vocab, loaded_model, loaded_vocab) -> tuple[bool, str]:
    """load_model(save_model(m)) equals m quantized to float32, same vocabulary."""
    want_w = model.weights.astype(np.float32).astype(np.float64)
    want_b = model.bias.astype(np.float32).astype(np.float64)
    if loaded_model.weights.shape != want_w.shape:
        return False, "weight shape changed"
    if not np.array_equal(loaded_model.weights, want_w):
        return False, "weights differ from the float32-quantized model"
    if not np.array_equal(loaded_model.bias, want_b):
        return False, "bias differs from the float32-quantized model"
    if loaded_model.activation != model.activation:
        return False, "activation changed"
    if loaded_model.vocab_fingerprint != model.vocab_fingerprint:
        return False, "fingerprint changed"
    got = [(g, o) for g, o, _ in loaded_vocab.entries]
    want = [(g, o) for g, o, _ in vocab.entries]
    if got != want:
        return False, "vocabulary entries differ"
    return True, f"{len(want)} rows equal"


def check_finite_losses(curve) -> tuple[bool, str]:
    values = [v for _, _, v in curve.points]
    bad = [v for v in values if not math.isfinite(v)]
    return not bad and bool(values), f"{len(values)} curve points, {len(bad)} non-finite"


def check_same_weights(first, second) -> tuple[bool, str]:
    same = np.array_equal(first.weights, second.weights) and np.array_equal(
        first.bias, second.bias
    )
    return same, "same-seed runs identical" if same else "same-seed runs differ"


def check_at_least(name: str, value: float, floor: float) -> tuple[bool, str]:
    ok = math.isfinite(value) and value >= floor
    return ok, f"{name} {value:.4f} (floor {floor})"
