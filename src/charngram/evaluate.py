"""Similarity evaluation: rank/linear correlations, task averaging, binned analyses.

Word similarity datasets are scored with Spearman's rho, sentence similarity
with Pearson's r (both against cosine similarities of the embedded pair).
Binned analyses slice sentence pairs by out-of-vocabulary token count or by
maximum token length and report a per-bin Pearson correlation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import stats

from .errors import DataError
from .model import Model, count_matrix, embed_matrix, row_cosines
from .vocab import NGramVocab, check_case_mode, encode, normalize

# Item: (text1, text2, gold score).
SimItem = tuple[str, str, float]

# Bin layouts used by the out-of-vocabulary and max-length analyses. Bins may
# overlap; every pair lands in every bin whose predicate matches.
OOV_BINS = ("0", "1", "2", ">=1", ">=0")
LENGTH_BINS = ("<=4", "5", "6", "7", "8", "9", "10", "11-15", "16-20", ">=21")


@dataclass
class SimDataset:
    """A named list of scored text pairs with a declared gold-score scale."""

    name: str
    items: list[SimItem]
    score_scale: tuple[float, float] = (0.0, 5.0)

    def __post_init__(self):
        lo, hi = self.score_scale
        for t1, t2, gold in self.items:
            if not lo <= gold <= hi:
                raise DataError(
                    f"{self.name}: gold score {gold} outside scale [{lo}, {hi}]"
                )


@dataclass
class ReferenceVocab:
    """Case-folded token set used only to decide which tokens count as unknown."""

    tokens: frozenset[str]

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "ReferenceVocab":
        return cls(frozenset(t.lower() for t in tokens))


@dataclass
class BinResult:
    label: str
    n_pairs: int
    correlation: float | None  # None when undefined (fewer than 2 pairs, or degenerate)


@dataclass
class EvalReport:
    """Per-dataset correlations plus group means; optionally binned results."""

    per_dataset: dict[str, float] = field(default_factory=dict)
    group_averages: dict[str, float] = field(default_factory=dict)
    bins: list[BinResult] | None = None

    def to_tsv_lines(self) -> list[str]:
        """Machine-readable `dataset<TAB>metric<TAB>value` lines, stable order."""
        lines = [
            f"{name}\tpearson\t{self.per_dataset[name]:.6f}"
            for name in sorted(self.per_dataset)
        ]
        for group in sorted(g for g in self.group_averages if g != "Average"):
            lines.append(f"{group}\taverage_pearson\t{self.group_averages[group]:.6f}")
        if "Average" in self.group_averages:
            lines.append(f"Average\taverage_pearson\t{self.group_averages['Average']:.6f}")
        return lines


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Product-moment correlation; errors on mismatched or constant input."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError("correlation requires two equal-length vectors")
    if x.size < 2 or np.ptp(x) == 0 or np.ptp(y) == 0:
        raise DataError("degenerate input")
    return float(stats.pearsonr(x, y)[0])


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rank correlation: Pearson over average ranks (ties share mean rank)."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError("correlation requires two equal-length vectors")
    if x.size < 2 or np.ptp(x) == 0 or np.ptp(y) == 0:
        raise DataError("degenerate input")
    return float(stats.spearmanr(x, y)[0])


def _pair_scores(
    model: Model, vocab: NGramVocab, items: Sequence[SimItem], case_mode: str
) -> np.ndarray:
    case_mode = check_case_mode(case_mode)
    cvs = [encode(normalize(t, case_mode), vocab) for item in items for t in item[:2]]
    values = embed_matrix(count_matrix(cvs, model), model)
    return row_cosines(values[0::2], values[1::2])


def eval_word_sim(
    model: Model, vocab: NGramVocab, dataset: SimDataset, case_mode: str = "lower"
) -> float:
    """Spearman's rho between embedding cosines and gold scores."""
    scores = _pair_scores(model, vocab, dataset.items, case_mode)
    golds = [gold for _, _, gold in dataset.items]
    return spearman(scores, golds)


def eval_sts(
    model: Model,
    vocab: NGramVocab,
    datasets: Sequence[SimDataset],
    grouping: Mapping[str, str] | None = None,
    case_mode: str = "lower",
) -> EvalReport:
    """Pearson's r per dataset, unweighted group means, and an overall mean.

    `grouping` maps dataset name to group name; ungrouped datasets still count
    toward the overall "Average" entry.
    """
    report = EvalReport()
    groups: dict[str, list[float]] = {}
    for ds in datasets:
        scores = _pair_scores(model, vocab, ds.items, case_mode)
        golds = [gold for _, _, gold in ds.items]
        r = pearson(scores, golds)
        report.per_dataset[ds.name] = r
        if grouping and ds.name in grouping:
            groups.setdefault(grouping[ds.name], []).append(r)
    for group in sorted(groups):
        report.group_averages[group] = float(np.mean(groups[group]))
    if report.per_dataset:
        report.group_averages["Average"] = float(
            np.mean(list(report.per_dataset.values()))
        )
    return report


def _parse_bin_label(label: str):
    """Turn a bin label into a predicate over a non-negative integer.

    Supported shapes: "N" (exact), ">=N", "<=N", "A-B" (inclusive range).
    Unicode comparison signs are accepted as aliases.
    """
    text = label.strip().replace("≥", ">=").replace("≤", "<=")
    try:
        if text.startswith(">="):
            lo = int(text[2:])
            return lambda k: k >= lo
        if text.startswith("<="):
            hi = int(text[2:])
            return lambda k: k <= hi
        if "-" in text and not text.startswith("-"):
            a, b = text.split("-", 1)
            lo, hi = int(a), int(b)
            return lambda k: lo <= k <= hi
        exact = int(text)
        return lambda k: k == exact
    except ValueError as err:
        raise ValueError(f"bad bin label {label!r}") from err


def oov_count(text1: str, text2: str, reference: ReferenceVocab) -> int:
    """Total case-folded whitespace tokens, across both texts, missing from `reference`."""
    tokens = text1.split() + text2.split()
    return sum(1 for t in tokens if t.lower() not in reference.tokens)


def max_token_length(text1: str, text2: str) -> int:
    return max(len(text1.split()), len(text2.split()))


def binned_eval(
    model: Model,
    vocab: NGramVocab,
    items,
    by: str,
    reference: ReferenceVocab | None = None,
    bins: Sequence[str] | None = None,
    case_mode: str = "lower",
) -> list[BinResult]:
    """Pearson's r within each bin of pairs, binned by "oov" count or "length".

    `items` is a SimDataset, a sequence of SimDatasets (pooled), or raw
    (text1, text2, gold) tuples. Bins may overlap; a pair contributes to every
    bin whose predicate matches its key. Bins whose correlation is undefined
    (fewer than two pairs, or constant scores) are reported with
    correlation=None rather than dropped, so population counts stay visible.
    """
    if by == "oov":
        if reference is None or not reference.tokens:
            raise DataError("oov binning requires a non-empty reference vocabulary")
        key = lambda t1, t2: oov_count(t1, t2, reference)
        labels = list(bins) if bins is not None else list(OOV_BINS)
    elif by == "length":
        key = lambda t1, t2: max_token_length(t1, t2)
        labels = list(bins) if bins is not None else list(LENGTH_BINS)
    else:
        raise ValueError(f"unknown binning {by!r}; expected 'oov' or 'length'")

    if isinstance(items, SimDataset):
        pool = list(items.items)
    else:
        pool = []
        for entry in items:
            if isinstance(entry, SimDataset):
                pool.extend(entry.items)
            else:
                pool.append(entry)
    if not pool:
        raise DataError("empty dataset")

    scores = _pair_scores(model, vocab, pool, case_mode)
    keys = [key(t1, t2) for t1, t2, _ in pool]
    golds = [gold for _, _, gold in pool]

    results = []
    for label in labels:
        member = _parse_bin_label(label)
        picked = [i for i, k in enumerate(keys) if member(k)]
        corr: float | None
        if len(picked) < 2:
            corr = None
        else:
            try:
                corr = pearson([scores[i] for i in picked], [golds[i] for i in picked])
            except DataError:
                corr = None
        results.append(BinResult(label=label, n_pairs=len(picked), correlation=corr))
    return results
