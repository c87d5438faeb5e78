"""Similarity evaluation: rank/linear correlations, task averaging, binned analyses.

Word similarity datasets are scored with Spearman's rho, sentence similarity
with Pearson's r (both against cosine similarities of the embedded pair).
Binned analyses slice sentence pairs by out-of-vocabulary token count or by
maximum token length and report a per-bin Pearson correlation. Every text
is normalized with the case mode of the model it is embedded by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import stats

from .errors import DataError
from .model import Model, embed_matrix, encode_matrix, row_cosines
from .vocab import NGramVocab

# Item: (text1, text2, gold score).
SimItem = tuple[str, str, float]

# The paper's bins for the out-of-vocabulary and max-length analyses, as
# (label, lo, hi) with both bounds inclusive. Bins may overlap; every pair
# lands in every bin its key falls in.
OOV_BINS = (("0", 0, 0), ("1", 1, 1), ("2", 2, 2), (">=1", 1, math.inf), (">=0", 0, math.inf))
LENGTH_BINS = (
    ("<=4", 0, 4), ("5", 5, 5), ("6", 6, 6), ("7", 7, 7), ("8", 8, 8), ("9", 9, 9),
    ("10", 10, 10), ("11-15", 11, 15), ("16-20", 16, 20), (">=21", 21, math.inf),
)


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
    """Per-dataset correlations plus group means."""

    per_dataset: dict[str, float] = field(default_factory=dict)
    group_averages: dict[str, float] = field(default_factory=dict)

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


def _correlation_input(
    xs: Sequence[float], ys: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Two float64 vectors to correlate; DataError on mismatched or constant input."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError("correlation requires two equal-length vectors")
    if x.size < 2 or np.ptp(x) == 0 or np.ptp(y) == 0:
        raise DataError("degenerate input")
    return x, y


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Product-moment correlation; errors on mismatched or constant input."""
    return float(stats.pearsonr(*_correlation_input(xs, ys))[0])


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rank correlation: Pearson over average ranks (ties share mean rank)."""
    return float(stats.spearmanr(*_correlation_input(xs, ys))[0])


def _pair_scores(model: Model, vocab: NGramVocab, items: Sequence[SimItem]) -> np.ndarray:
    texts = [t for item in items for t in item[:2]]
    values = embed_matrix(encode_matrix(texts, vocab, model), model)
    return row_cosines(values[0::2], values[1::2])


def _correlate(correlation, model: Model, vocab: NGramVocab, dataset: SimDataset) -> float:
    """`correlation` of the pairs' cosines and gold scores; a DataError names the dataset."""
    scores = _pair_scores(model, vocab, dataset.items)
    try:
        return correlation(scores, [gold for _, _, gold in dataset.items])
    except DataError as err:
        raise DataError(f"{dataset.name}: {err}") from None


def eval_word_sim(model: Model, vocab: NGramVocab, dataset: SimDataset) -> float:
    """Spearman's rho between embedding cosines and gold scores."""
    return _correlate(spearman, model, vocab, dataset)


def eval_sts(
    model: Model,
    vocab: NGramVocab,
    datasets: Sequence[SimDataset],
    grouping: Mapping[str, str] | None = None,
) -> EvalReport:
    """Pearson's r per dataset, unweighted group means, and an overall mean.

    `grouping` maps dataset name to group name; ungrouped datasets still count
    toward the overall "Average" entry, so a group may not be named
    "Average" (a DataError). Grouping a dataset that is not among `datasets`
    is a DataError naming it, so a misspelt name cannot drop its group.
    """
    if grouping and "Average" in grouping.values():
        raise DataError("group 'Average' would be overwritten by the overall average")
    unknown = sorted(set(grouping or ()) - {ds.name for ds in datasets})
    if unknown:
        raise DataError(f"grouped dataset {unknown[0]!r} is not among the datasets")
    report = EvalReport()
    groups: dict[str, list[float]] = {}
    for ds in datasets:
        r = _correlate(pearson, model, vocab, ds)
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


def oov_count(text1: str, text2: str, reference: ReferenceVocab) -> int:
    """Total case-folded whitespace tokens, across both texts, missing from `reference`."""
    tokens = text1.split() + text2.split()
    return sum(1 for t in tokens if t.lower() not in reference.tokens)


def max_token_length(text1: str, text2: str) -> int:
    return max(len(text1.split()), len(text2.split()))


def binned_eval(
    model: Model,
    vocab: NGramVocab,
    datasets: Sequence[SimDataset],
    by: str,
    reference: ReferenceVocab | None = None,
) -> list[BinResult]:
    """Pearson's r within each of the paper's bins, by "oov" count or "length".

    The pairs of all `datasets` are pooled. The bins are OOV_BINS or
    LENGTH_BINS, in table order; they may overlap, and a pair contributes to
    every bin its key falls in. Bins whose correlation is undefined (fewer
    than two pairs, or constant scores) are reported with correlation=None
    rather than dropped, so population counts stay visible.
    """
    if by == "oov":
        if reference is None or not reference.tokens:
            raise DataError("oov binning requires a non-empty reference vocabulary")
        key = lambda t1, t2: oov_count(t1, t2, reference)
        table = OOV_BINS
    elif by == "length":
        key = max_token_length
        table = LENGTH_BINS
    else:
        raise ValueError(f"unknown binning {by!r}; expected 'oov' or 'length'")

    pool = [item for dataset in datasets for item in dataset.items]
    if not pool:
        raise DataError("empty dataset")

    scores = _pair_scores(model, vocab, pool)
    keys = [key(t1, t2) for t1, t2, _ in pool]
    golds = [gold for _, _, gold in pool]

    results = []
    for label, lo, hi in table:
        picked = [i for i, k in enumerate(keys) if lo <= k <= hi]
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
