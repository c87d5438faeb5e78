"""Seeded synthetic paraphrase benchmark: root words with surface variants.

Each task draws random lowercase root words and derives surface variants by
suffixation and single-character edits (substitution, deletion, insertion).
Variants of one root are paraphrases of each other; variants of different
roots are not. A per-root split holds some variants out of training so
retrieval and similarity checks measure generalization to unseen strings.

Everything is a pure function of the seed, so experiments are reproducible
and the expected numbers can be frozen in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .evaluate import SimDataset
from .model import Model, embed_matrix, encode_matrix, unit_rows
from .neighbors import build_working_vocab, nearest_neighbors
from .train import PairDataset, TrainConfig, TrainingCurve, train
from .vocab import NGramVocab, TopKPerOrder, build_vocab

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_SUFFIXES = ("s", "es", "ed", "ing", "er", "ly", "ness", "ment", "tion", "able")

DEFAULT_ORDERS = (2, 3, 4)


@dataclass(frozen=True)
class SyntheticTask:
    """One benchmark instance: families of variants plus a train/held-out split."""

    seed: int
    families: tuple[tuple[str, ...], ...]  # per root, the root first
    train_words: tuple[tuple[str, ...], ...]
    heldout_words: tuple[tuple[str, ...], ...]

    def root_of(self) -> dict[str, int]:
        """Map every word, training or held out, to its root index."""
        table: dict[str, int] = {}
        for idx, fam in enumerate(self.families):
            for word in fam:
                table[word] = idx
        return table


def _new_variant(root: str, rng: np.random.Generator, taken: set[str]) -> str:
    # rejection-sample until the edit produces a globally unused string
    for _ in range(10_000):
        op = int(rng.integers(0, 4))
        if op == 0:
            word = root + _SUFFIXES[int(rng.integers(0, len(_SUFFIXES)))]
        elif op == 1:
            pos = int(rng.integers(0, len(root)))
            repl = _LETTERS[int(rng.integers(0, 26))]
            if repl == root[pos]:
                continue
            word = root[:pos] + repl + root[pos + 1 :]
        elif op == 2:
            if len(root) <= 4:
                continue
            pos = int(rng.integers(0, len(root)))
            word = root[:pos] + root[pos + 1 :]
        else:
            pos = int(rng.integers(0, len(root) + 1))
            word = root[:pos] + _LETTERS[int(rng.integers(0, 26))] + root[pos:]
        if word not in taken:
            return word
    raise RuntimeError("variant generation stalled; alphabet exhausted")


def make_task(
    seed: int = 0,
    n_roots: int = 50,
    n_variants: int = 10,
    n_heldout: int = 2,
) -> SyntheticTask:
    if not 0 <= n_heldout < n_variants:
        raise ValueError("n_heldout must be >= 0 and leave at least one training variant")
    rng = np.random.default_rng(seed)
    taken: set[str] = set()
    roots: list[str] = []
    while len(roots) < n_roots:
        length = int(rng.integers(5, 9))
        word = "".join(_LETTERS[int(i)] for i in rng.integers(0, 26, size=length))
        if word in taken:
            continue
        roots.append(word)
        taken.add(word)

    families: list[tuple[str, ...]] = []
    for root in roots:
        fam = [root]
        while len(fam) < n_variants:
            variant = _new_variant(root, rng, taken)
            fam.append(variant)
            taken.add(variant)
        families.append(tuple(fam))

    train_words: list[tuple[str, ...]] = []
    heldout_words: list[tuple[str, ...]] = []
    for fam in families:
        order = rng.permutation(len(fam))
        shuffled = [fam[int(i)] for i in order]
        train_words.append(tuple(shuffled[: n_variants - n_heldout]))
        heldout_words.append(tuple(shuffled[n_variants - n_heldout :]))

    return SyntheticTask(
        seed=seed,
        families=tuple(families),
        train_words=tuple(train_words),
        heldout_words=tuple(heldout_words),
    )


def training_pairs(task: SyntheticTask) -> PairDataset:
    """All unordered pairs of same-root training variants, in root order."""
    out = []
    for words in task.train_words:
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                out.append((words[i], words[j]))
    return PairDataset(out)


def training_corpus(task: SyntheticTask) -> list[str]:
    return [word for words in task.train_words for word in words]


def similarity_set(task: SyntheticTask) -> SimDataset:
    """Binary-gold similarity set over held-out words.

    Same-root held-out pairs score 5, an equal number of cross-root pairs
    score 0. Pairing root r with root r+1 keeps the set balanced and
    deterministic. DataError for a task of one root, which has no cross-root
    pair, and for a root with no held-out word.
    """
    items = []
    n = len(task.heldout_words)
    if n < 2:
        raise DataError("a similarity set needs held-out words of at least two roots")
    if not all(task.heldout_words):
        raise DataError("a similarity set needs a held-out word of every root")
    for r, words in enumerate(task.heldout_words):
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                items.append((words[i], words[j], 5.0))
        partner = task.heldout_words[(r + 1) % n]
        items.append((words[0], partner[-1], 0.0))
    return SimDataset(name=f"synthetic-{task.seed}", items=items, score_scale=(0.0, 5.0))


def train_on_task(
    task: SyntheticTask, vocab_k: int = 1000, epochs: int = 20
) -> tuple[Model, NGramVocab, TrainingCurve]:
    """Train the reference configuration for this benchmark (d = 50, batch 25, MAX
    negatives), seeded by the task's seed."""
    vocab = build_vocab(training_corpus(task), DEFAULT_ORDERS, TopKPerOrder(vocab_k))
    config = TrainConfig(
        dim=50,
        activation="tanh",
        margin=0.4,
        learning_rate=0.001,
        batch_size=25,
        sampling="max",
        epochs=epochs,
        seed=task.seed,
    )
    model, _, curve = train(training_pairs(task), vocab, config)
    return model, vocab, curve


def cosine_gap(model: Model, vocab: NGramVocab, task: SyntheticTask) -> float:
    """Mean held-out same-root cosine minus mean held-out cross-root cosine.

    The cross-root mean is taken over every cross-root pair of held-out
    words rather than a sample, so the statistic is deterministic. DataError
    when the held-out words hold no same-root pair (one held out per root) or
    no cross-root pair (one root).
    """
    words = [w for ws in task.heldout_words for w in ws]
    roots = np.repeat(np.arange(len(task.heldout_words)), [len(ws) for ws in task.heldout_words])
    units = unit_rows(embed_matrix(encode_matrix(words, vocab, model), model))
    i, j = np.triu_indices(len(words), k=1)
    same = roots[i] == roots[j]
    if same.all() or not same.any():
        raise DataError("the held-out words need a same-root pair and a cross-root pair")
    cosines = np.einsum("ij,ij->i", units[i], units[j])
    return float(np.mean(cosines[same]) - np.mean(cosines[~same]))


def top1_same_root_accuracy(model: Model, vocab: NGramVocab, task: SyntheticTask) -> float:
    """Share of held-out words whose nearest training word shares their root; DataError if none."""
    words = [word for ws in task.heldout_words for word in ws]
    if not words:
        raise DataError("no held-out word to retrieve")
    root = task.root_of()
    working = build_working_vocab(training_corpus(task), model, vocab)
    tops = [nearest_neighbors(word, working, model, vocab, k=1) for word in words]
    return sum(bool(top) and root[top[0][0]] == root[w] for w, top in zip(words, tops)) / len(words)


def epoch_mean_losses(curve: TrainingCurve) -> list[float]:
    """Per-epoch mean batch loss, in epoch order, read off the curve."""
    return [value for _, metric, value in curve.points if metric == "epoch_mean_batch_loss"]
