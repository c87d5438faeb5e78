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
    embed_matrix,
    encode,
    finite_diff_audit,
    normalize,
)
from charngram import model as model_module
from charngram import vocab as vocab_module

from conftest import dense_embed_ref, random_model

train_module = importlib.import_module("charngram.train")  # `charngram.train` is also a function

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
