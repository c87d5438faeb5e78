"""The oracles are tested: each row of `MUTANTS` is a monkeypatched wrong
variant of one `src` function, and the oracle that must reject it.

For every row the oracle first passes on the unmutated code. The mutant must
then change its function's output on the row's input, so that a mutant that
changes nothing cannot pass as caught, and the oracle must reject it.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pytest

import make_golden
from charngram import (
    DataError,
    MinCount,
    NGramVocab,
    TopKPerOrder,
    TrainConfig,
    build_vocab,
    cosine,
    embed_matrix,
    encode,
    encode_batch,
    finite_diff_audit,
    normalize,
    select_negatives,
    spearman,
)
from charngram import model as model_module
from charngram import vocab as vocab_module

from conftest import dense_embed_ref, random_model

train_module = importlib.import_module("charngram.train")  # `charngram.train` is also a function
evaluate_module = importlib.import_module("charngram.evaluate")

# criterion 1's bound on the audit's worst relative error, and criterion 4's on
# the deviation from the dense reference
AUDIT_BOUND = 1e-4
DENSE_BOUND = 1e-12


@dataclass(frozen=True)
class Mutant:
    name: str
    module: Any
    attribute: str
    mutate: Callable[[Callable], Callable]  # the original function -> its mutant
    probe: Callable[[], Any]  # the mutated function's output on the row's input
    oracle: Callable[[], bool]  # True when the oracle holds


# --- criterion 1: the gradient audit ------------------------------------------


def _audit_holds() -> bool:
    rng = np.random.default_rng(1601)
    words = ["cat", "cats", "the cat", "dog", "a dog", "fish"]
    vocab = build_vocab(words, (2, 3), TopKPerOrder(20))
    model = random_model(rng, vocab, 8)
    pairs = [(words[i], words[(i + 1) % len(words)]) for i in range(6)]
    config = TrainConfig(dim=8, batch_size=6, margin=0.4, seed=3)
    return finite_diff_audit(model, vocab, pairs, config) < AUDIT_BOUND


def _activation_grad_probe():
    values = np.tanh(np.linspace(-2.0, 2.0, 7))
    return model_module.activation_grad("tanh", values)


# --- the golden digests -------------------------------------------------------


def _golden_holds() -> bool:
    golden = json.loads(make_golden.GOLDEN.read_text(encoding="utf-8"))
    assert golden["versions"] == make_golden.versions(), "tests/golden.json is stale"
    return make_golden.digests() == golden["digests"]


def _scaled_hinge(hinge):
    def mutant(*args, **kwargs):
        loss, d_values = hinge(*args, **kwargs)
        return loss, d_values * (1 + 1e-12)
    return mutant


def _hinge_probe():
    values = np.random.default_rng(16).normal(size=(4, 3))
    negatives = np.array([((1, 0), (1, 1)), ((0, 0), (0, 1))])
    return train_module._hinge(values, negatives, 2.0)


# --- criterion 4: the dense reference -----------------------------------------

_MIXED_CASE = ["The Cat", "the cat", "A DOG barks", "a dog Barks", "Fish"]


def _case_model():
    vocab = build_vocab(_MIXED_CASE, (2, 3), MinCount(1), case_mode="preserve")
    model = random_model(np.random.default_rng(4), vocab, 5)
    model.case_mode = "preserve"
    return vocab, model


def _dense_reference_holds() -> bool:
    vocab, model = _case_model()
    rows = embed_matrix(model_module.encode_matrix(_MIXED_CASE, vocab, model), model)
    dense = [dense_embed_ref(encode(normalize(t, "preserve"), vocab), model) for t in _MIXED_CASE]
    return float(np.max(np.abs(rows - np.array(dense)))) < DENSE_BOUND


def _other_case(normalize_in):
    other = {"lower": "preserve", "preserve": "lower"}

    def mutant(text, case_mode="lower"):
        return normalize_in(text, other[vocab_module.check_case_mode(case_mode)])
    return mutant


def _encode_matrix_probe():
    vocab, model = _case_model()
    return model_module.encode_matrix(_MIXED_CASE, vocab, model).toarray()


# --- the n-gram table round trip ----------------------------------------------

_TABLE_VOCAB = build_vocab(["the cat sat", "a black cat"], (2, 3), MinCount(1))


def _round_trip_holds() -> bool:
    vocab = _TABLE_VOCAB
    try:
        loaded = NGramVocab.from_table(vocab.table, len(vocab), vocab.fingerprint)
    except DataError:
        return False
    return loaded.entries == [(ngram, order, 0) for ngram, order, _ in vocab.entries]


def _early_order_byte(split):
    def mutant(table, count):
        columns = split(table, count)
        if columns is None:
            return None
        ngrams, _ = columns
        ends = np.cumsum([3 + len(ngram.encode("utf-8")) for ngram in ngrams])
        return ngrams, [table[end - 2] for end in ends.tolist()]
    return mutant


def _split_probe():
    return vocab_module._split_table(_TABLE_VOCAB.table, len(_TABLE_VOCAB))


# --- the batch encoder against per-text encodes --------------------------------

_BATCH_VOCAB = build_vocab(["the cat", "a black cat", "cats sat"], (2, 3), MinCount(1))
_BATCH_SEQS = [normalize(t) for t in ["the cat", "a cat", "black", "cats sat", "at the", "sat"]]


def _batch_encode_holds() -> bool:
    indptr, indices, data = encode_batch(_BATCH_SEQS, _BATCH_VOCAB)
    batch = np.zeros((len(_BATCH_SEQS), len(_BATCH_VOCAB)))
    for column in range(len(_BATCH_VOCAB)):
        at = slice(indptr[column], indptr[column + 1])
        batch[indices[at], column] = data[at]
    per_text = np.zeros_like(batch)
    for row, seq in enumerate(_BATCH_SEQS):
        for column, count in encode(seq, _BATCH_VOCAB).items():
            per_text[row, column] = count
    return np.array_equal(batch, per_text)


def _encode_batch_probe():
    return vocab_module.encode_batch(_BATCH_SEQS, _BATCH_VOCAB)


# --- Spearman's ties ----------------------------------------------------------


def _tie_example_holds() -> bool:
    return abs(spearman([1, 2, 2, 3], [1, 2, 3, 4]) - 0.9487) <= 1e-4


def _ranks_probe():
    return evaluate_module._average_ranks(np.array([1.0, 2.0, 2.0, 3.0]))


# --- criterion 3: MAX negatives against an exhaustive argmax scan -------------


def _max_selection_holds() -> bool:
    rng = np.random.default_rng(3333)
    for trial in range(20):
        n = int(rng.integers(2, 12))
        side1, side2 = rng.normal(size=(2, n, 4))
        got = select_negatives(side1, side2, "max", train_module._rng(0, trial))
        for i in range(n):
            for side, rows in ((0, side1), (1, side2)):
                best, best_c = None, -2.0
                for j in range(n):  # exhaustive scan, first strict max wins
                    c = cosine(rows[i], rows[j])
                    if j != i and c > best_c:
                        best, best_c = j, c
                if tuple(got[i][side]) != (best, side):
                    return False
    return True


def _most_similar_probe():
    sims = np.random.default_rng(3).normal(size=(2, 3, 6))
    return train_module._most_similar(sims, train_module._candidate_layout(3, "same-side").allowed)


MUTANTS = [
    Mutant("audit/activation_grad returns ones", model_module, "activation_grad",
           lambda original: lambda activation, values: np.ones_like(values),
           _activation_grad_probe, _audit_holds),
    Mutant("golden/hinge gradient scaled by 1 + 1e-12", train_module, "_hinge",
           _scaled_hinge, _hinge_probe, _golden_holds),
    Mutant("dense reference/encode_matrix in the other case mode", model_module, "normalize",
           _other_case, _encode_matrix_probe, _dense_reference_holds),
    Mutant("table round trip/order byte read one position early", vocab_module, "_split_table",
           _early_order_byte, _split_probe, _round_trip_holds),
    Mutant("per-text encode/cells packed one bit short", vocab_module, "_row_bits",
           lambda original: lambda rows: max(original(rows) - 1, 0),
           _encode_batch_probe, _batch_encode_holds),
    Mutant("tie worked example/spearman over ordinal ranks", evaluate_module, "_average_ranks",
           lambda original: lambda values: np.argsort(np.argsort(values)) + 1.0,
           _ranks_probe, _tie_example_holds),
    Mutant("exhaustive argmax/argmin pick", train_module, "_most_similar",
           lambda original: lambda sims, allowed: np.where(allowed, sims, np.inf).argmin(axis=-1),
           _most_similar_probe, _max_selection_holds),
]


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


@pytest.mark.parametrize("row", MUTANTS, ids=[row.name for row in MUTANTS])
def test_each_oracle_rejects_its_mutant(row, monkeypatch):
    assert row.oracle(), "the unmutated oracle must pass"
    clean = row.probe()
    monkeypatch.setattr(row.module, row.attribute, row.mutate(getattr(row.module, row.attribute)))
    assert not _same(row.probe(), clean), "the mutant must change its function's output"
    assert not row.oracle()
