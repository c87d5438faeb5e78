"""The synthetic benchmark's held-out statistics refuse a split they cannot measure."""

import numpy as np
import pytest

from charngram import DataError, MinCount, TrainConfig, build_vocab, init_model
from charngram.synthetic import cosine_gap, make_task, similarity_set, training_corpus


def _cosine_gap(task):
    vocab = build_vocab(training_corpus(task), (2, 3), MinCount(1))
    return cosine_gap(init_model(vocab, TrainConfig(dim=4)), vocab, task)


@pytest.mark.parametrize("n_roots, n_variants, n_heldout", [
    (5, 3, 1),  # one held-out word per root: no same-root pair
    (1, 4, 2),  # one root: no cross-root pair
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
