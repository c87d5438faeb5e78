"""The synthetic benchmark's held-out statistics refuse a split they cannot measure."""

import numpy as np
import pytest

from charngram import DataError, MinCount, TrainConfig, build_vocab, init_model
from charngram.synthetic import (
    cosine_gap,
    make_task,
    similarity_set,
    top1_same_root_accuracy,
    training_corpus,
)


def _cosine_gap(task):
    vocab = build_vocab(training_corpus(task), (2, 3), MinCount(1))
    return cosine_gap(init_model(vocab, TrainConfig(dim=4)), vocab, task)


@pytest.mark.parametrize("n_roots, n_variants, n_heldout", [
    (5, 3, 1),  # one held-out word per root: no same-root pair
    (1, 4, 2),  # one root: no cross-root pair
    (50, 3, 0),  # no held-out word at all
])
def test_cosine_gap_needs_a_same_root_and_a_cross_root_pair(n_roots, n_variants, n_heldout):
    task = make_task(0, n_roots=n_roots, n_variants=n_variants, n_heldout=n_heldout)
    with pytest.raises(DataError, match="a same-root pair and a cross-root pair"):
        _cosine_gap(task)
    assert np.isfinite(_cosine_gap(make_task(0, n_roots=2, n_variants=4, n_heldout=2)))


def test_a_similarity_set_needs_two_roots():
    # with one root, its "cross-root" item would pair two of its own words
    with pytest.raises(DataError, match="at least two roots"):
        similarity_set(make_task(0, n_roots=1, n_variants=4, n_heldout=2))
    golds = [gold for _, _, gold in similarity_set(make_task(0, n_roots=2, n_variants=4)).items]
    assert golds == [5.0, 0.0, 5.0, 0.0]


@pytest.mark.parametrize("n_heldout", [-1, 3, 4])
def test_a_task_holds_out_between_none_and_all_but_one_variant(n_heldout):
    with pytest.raises(ValueError, match="n_heldout must be >= 0 and leave"):
        make_task(0, n_roots=2, n_variants=3, n_heldout=n_heldout)


@pytest.mark.parametrize("measure, message", [
    (similarity_set, "a held-out word of every root"),
    (lambda task: top1_same_root_accuracy(*_model_of(task), task), "no held-out word"),
], ids=["similarity-set", "top1"])
def test_held_out_measures_need_held_out_words(measure, message):
    with pytest.raises(DataError, match=message):
        measure(make_task(0, n_variants=3, n_heldout=0))
    assert measure(make_task(0, n_roots=3, n_variants=3, n_heldout=1)) is not None


def _model_of(task):
    vocab = build_vocab(training_corpus(task), (2, 3), MinCount(1))
    return init_model(vocab, TrainConfig(dim=4)), vocab
