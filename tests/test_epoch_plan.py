"""The epoch plan: batches laid out once per window, bit-identical to per-step rebuilds.

`train` encodes each distinct phrase of the dataset once, into a table whose
row numbers are also the ids that exclude string-equal negatives, takes each
window's batch rows from that table with one fancy index, converts each
batch to CSC before the window's first step, and reads its backward layout
off those columns with `column_layout`. The references here rebuild it all
per batch, as the trainer did before it planned: one count row per side of
every pair, a fancy row index per batch (a CSR forward), a text-to-id dict
per batch and a csc -> csr transpose per backward pass.
"""

import copy
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from charngram import (
    AdamState,
    MinCount,
    PairDataset,
    TrainConfig,
    TrainingCurve,
    build_vocab,
    encode_matrix,
    epoch_permutation,
    init_model,
    train,
)
from charngram.model import (
    Model,
    activation_grad,
    column_layout,
    embed_matrix,
    embed_matrix_grad,
)
from charngram.train import (
    _DOMAIN_SAMPLING,
    _Batch,
    _Run,
    _encode_pairs,
    _plan_batches,
    _rng,
    _step,
)
from charngram.vocab import normalize

from conftest import phrase_ids, random_model, stacked_pairs


def _tocsr_layout(counts):
    """A batch's touched columns by a presence mask, and X_touched^T by csc -> csr."""
    present = np.zeros(counts.shape[1], dtype=bool)
    present[counts.indices] = True
    touched = np.flatnonzero(present)
    position = np.empty(counts.shape[1], dtype=np.intp)
    position[touched] = np.arange(len(touched))
    xt = sparse.csc_matrix(
        (counts.data, position[counts.indices], counts.indptr),
        shape=(len(touched), counts.shape[0]),
    )
    return touched, xt.tocsr()


def _embed_matrix_grad_reference(counts, values, upstream, model):
    touched, xt = _tocsr_layout(counts)
    d_pre = upstream * activation_grad(model.activation, values)
    return d_pre.sum(axis=0), touched, xt @ d_pre


# --- the planner ------------------------------------------------------------


@st.composite
def _blocked_counts(draw):
    n_cols = draw(st.integers(1, 10))
    rows = draw(st.lists(st.lists(st.integers(0, n_cols - 1), max_size=6), max_size=14))
    data = [draw(st.lists(st.integers(1, 4), min_size=len(r), max_size=len(r))) for r in rows]
    indptr = np.cumsum([0, *map(len, rows)])
    counts = sparse.csr_matrix(
        (np.array(sum(data, []), dtype=np.float64),
         np.array(sum(rows, []), dtype=np.int32), indptr),
        shape=(len(rows), n_cols),
    )
    cuts = draw(st.lists(st.integers(0, len(rows)), max_size=5))
    return counts, [0, *sorted(cuts), len(rows)]


def _assert_layouts_equal_per_block(counts, bounds, dtype):
    layouts = []
    for r0, r1 in zip(bounds, bounds[1:]):
        block = counts[r0:r1]
        touched, xt = column_layout(block.tocsc(), dtype)
        ref_touched, ref_xt = _tocsr_layout(block)
        assert touched.dtype == ref_touched.dtype
        assert np.array_equal(touched, np.unique(block.indices))
        assert np.array_equal(touched, ref_touched)
        assert xt.shape == ref_xt.shape
        assert xt.dtype == dtype
        for name in ("indptr", "indices"):
            got, want = getattr(xt, name), getattr(ref_xt, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert np.array_equal(xt.data, ref_xt.data.astype(dtype))
        layouts.append((touched, xt))
    return layouts


@settings(max_examples=200, deadline=None)
@given(_blocked_counts(), st.sampled_from([np.float64, np.float32]))
def test_backward_layouts_equal_unique_and_tocsr_per_block(case, dtype):
    # column_layout of each block's CSC against the tocsr oracle: rows may be
    # empty, unsorted or hold one column twice; blocks may be empty or have no
    # rows, and most columns of a block are empty
    _assert_layouts_equal_per_block(*case, dtype)


def test_backward_layouts_edge_blocks():
    # an all-empty block, a single-column block, a zero-row block, a block
    # whose rows repeat one column between them and a one-entry block
    rows = [[], [], [3], [3], [], [0, 5], [5, 0], [2]]
    indptr = np.cumsum([0, *map(len, rows)])
    counts = sparse.csr_matrix(
        (np.arange(1.0, indptr[-1] + 1), np.array(sum(rows, []), dtype=np.int32), indptr),
        shape=(len(rows), 6),
    )
    for dtype in (np.float64, np.float32):
        layouts = _assert_layouts_equal_per_block(counts, [0, 2, 4, 4, 7, 8], dtype)
        assert [t.tolist() for t, _ in layouts] == [[], [3], [], [0, 5], [2]]
        assert layouts[0][1].shape == (0, 2) and layouts[2][1].shape == (0, 0)


@settings(max_examples=100, deadline=None)
@given(_blocked_counts(), st.sampled_from(["linear", "tanh"]), st.integers(0, 2**32 - 1))
def test_embed_matrix_grad_is_byte_equal_to_the_tocsr_backward(case, activation, seed):
    counts, bounds = case
    rng = np.random.default_rng(seed)
    model = Model(weights=rng.normal(size=(counts.shape[1], 3)), bias=rng.normal(size=3),
                  activation=activation, vocab_fingerprint=0)
    for r0, r1 in zip(bounds, bounds[1:]):
        block = counts[r0:r1]
        layout = column_layout(block.tocsc(), block.dtype)
        values = embed_matrix(block, model)
        upstream = rng.normal(size=values.shape)
        want = _embed_matrix_grad_reference(block, values, upstream, model)
        got = embed_matrix_grad(values, upstream, model, layout)
        assert [a.dtype for a in got] == [a.dtype for a in want]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _planned(dataset, vocab, config):
    """The plan of the first epoch, with the phrase table and its row numbers."""
    counts, text_ids = _encode_pairs(dataset.pairs, vocab, init_model(vocab, config))
    order = epoch_permutation(config.seed, 0, len(dataset), False)
    bs = config.batch_size
    slices = [order[s : s + bs] for s in range(0, len(dataset), bs)]
    planned = list(_plan_batches(counts, text_ids, slices))
    assert len(planned) == len(slices) == 5
    return counts, text_ids, slices, planned


@pytest.mark.parametrize("window", [None, 1])
def test_planned_layouts_hold_float32_counts_equal_to_the_float64_ones(window, monkeypatch):
    # the backward runs in float32 on planned batches; counts below 2^24 are
    # exact in float32, so the layout holds the same numbers
    if window is not None:
        monkeypatch.setattr(sys.modules["charngram.train"], "_PLAN_WINDOW_ENTRIES", window)
    dataset, vocab = _pairs()
    *_, planned = _planned(dataset, vocab, TrainConfig(dim=6, batch_size=5, seed=11))
    for batch in planned:
        touched, xt = batch.layout
        ref_touched, ref_xt = _tocsr_layout(batch.counts.tocsr())
        assert batch.counts.dtype == ref_xt.dtype == np.float64
        assert xt.dtype == np.float32
        assert np.array_equal(touched, ref_touched)
        assert xt.shape == ref_xt.shape
        assert np.array_equal(xt.indptr, ref_xt.indptr)
        assert np.array_equal(xt.indices, ref_xt.indices)
        assert np.array_equal(xt.data.astype(np.float64), ref_xt.data)
        with pytest.raises(TypeError):  # a batch has a layout
            _Batch(batch.counts, batch.text_ids)


@pytest.mark.parametrize("window", [None, 1])
def test_planned_batches_are_column_major_with_the_rows_forward(window, monkeypatch):
    # each batch is the CSC of its rows, converted before the window's first
    # step: the arrays of the batch's own texts encoded afresh, side 1 over
    # side 2. Its forward has the bits of the same rows' CSR product, and its
    # layout reads the same row indices
    if window is not None:
        monkeypatch.setattr(sys.modules["charngram.train"], "_PLAN_WINDOW_ENTRIES", window)
    dataset, vocab = _pairs()
    config = TrainConfig(dim=6, batch_size=5, seed=11)
    counts, text_ids, slices, planned = _planned(dataset, vocab, config)
    model = random_model(np.random.default_rng(7), vocab, dim=6)
    for idxs, batch in zip(slices, planned):
        assert isinstance(batch.counts, sparse.csc_matrix)
        assert batch.counts.indices.dtype == batch.counts.indptr.dtype == np.int32
        assert np.shares_memory(batch.layout[1].indices, batch.counts.indices)
        assert batch.text_ids.tobytes() == text_ids[idxs].tobytes()
        batch_texts = [dataset.pairs[i][0] for i in idxs] + [dataset.pairs[i][1] for i in idxs]
        encoded = encode_matrix(batch_texts, vocab, model)
        assert batch.counts.shape == encoded.shape
        for name in ("data", "indices", "indptr"):
            got, want = getattr(batch.counts, name), getattr(encoded, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        forward = embed_matrix(batch.counts, model).tobytes()
        assert forward == embed_matrix(counts[text_ids[idxs].T.ravel()], model).tobytes()
        assert forward == embed_matrix(encoded, model).tobytes()


@pytest.mark.parametrize("case_mode", ["lower", "preserve"])
def test_the_phrase_table_has_one_row_per_distinct_normalized_phrase(case_mode):
    # "A  Cat" and "a cat" are one phrase under "lower" and two under
    # "preserve"; "dog" is in two pairs, twice in one
    pairs = [("A  Cat", "dog"), ("a cat", " A Cat"), ("dog", "dog"), ("fish", "a  cat ")]
    vocab = build_vocab([t for p in pairs for t in p], (1, 2, 3), MinCount(1),
                        case_mode=case_mode)
    model = init_model(vocab, TrainConfig(dim=2, case_mode=case_mode))
    counts, text_ids = _encode_pairs(pairs, vocab, model)
    # the rows, in the order their phrases first occur: pair 0 side 1, pair 0
    # side 2, pair 1 side 1, ...
    if case_mode == "lower":
        phrases = [" a cat ", " dog ", " fish "]
        assert text_ids.tolist() == [[0, 1], [0, 0], [1, 1], [2, 0]]
    else:
        phrases = [" A Cat ", " dog ", " a cat ", " fish "]
        assert text_ids.tolist() == [[0, 1], [2, 0], [1, 1], [3, 2]]
    assert text_ids.dtype == np.intp
    assert counts.format == "csr" and counts.shape == (len(phrases), len(vocab))
    assert len(phrases) < 2 * len(pairs)
    # each id names its normalized phrase, and the phrases are distinct, so
    # ids are equal exactly where the normalized phrases are
    flat = [normalize(t, case_mode) for pair in pairs for t in pair]
    assert [phrases[i] for i in text_ids.ravel()] == flat
    assert len(set(phrases)) == len(phrases)
    # each row is its phrase encoded alone
    for row, phrase in enumerate(phrases):
        want = encode_matrix([phrase], vocab, model).tocsr()
        for name in ("data", "indices", "indptr"):
            got, expected = getattr(counts[row], name), getattr(want, name)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name
    empty, no_ids = _encode_pairs([], vocab, model)
    assert empty.shape == (0, len(vocab)) and no_ids.shape == (0, 2)


# --- train() against the per-batch reference ---------------------------------


def _train_reference(dataset, vocab, config):
    """`train` without a hook, rebuilding each batch's rows, text ids and layout per
    step from one count row per side of every pair."""
    model = init_model(vocab, config)
    adam, curve = AdamState(), TrainingCurve()
    case_mode = model.input_case_mode
    texts = [(normalize(a, case_mode), normalize(b, case_mode)) for a, b in dataset.pairs]
    sides = [a for a, _ in texts] + [b for _, b in texts]
    counts = encode_matrix(sides, vocab, model).tocsr()
    n = len(dataset)
    examples_seen = 0
    for epoch in range(config.epochs):
        order = epoch_permutation(config.seed, epoch, n, config.curriculum)
        sample_rng = _rng(config.seed, _DOMAIN_SAMPLING, epoch)
        slices = [order[s : s + config.batch_size] for s in range(0, n, config.batch_size)]
        slices = [b for b in slices if len(b) >= 2]
        hook_interval = max(1, round(len(slices) * config.eval_every))
        epoch_loss = interval_loss = 0.0
        interval_batches = 0
        for bi, idxs in enumerate(slices):
            batch = counts[np.concatenate([idxs, idxs + n])]
            touched, xt = _tocsr_layout(batch)  # in float32, as the plan lays it out
            layout = (touched, xt.astype(np.float32))
            planned = _Batch(batch, phrase_ids([texts[i] for i in idxs]), layout)
            loss = _step(planned, model, config, adam, sample_rng)
            examples_seen += len(idxs)
            epoch_loss += loss
            interval_loss += loss
            interval_batches += 1
            if (bi + 1) % hook_interval == 0:
                curve.add(examples_seen, "train_loss", interval_loss / interval_batches)
                interval_loss = 0.0
                interval_batches = 0
        curve.add(examples_seen, "epoch_mean_batch_loss", epoch_loss / len(slices))
    return model, adam, curve


def _pairs():
    """23 pairs over words without a "q"; the last three pairs encode to nothing.

    Some phrases repeat across pairs and one pair repeats its own phrase, so
    the exclusion of string-equal negatives has work to do.
    """
    rng = np.random.default_rng(2016)
    words = ["".join(rng.choice(list("abcdefghij"), size=rng.integers(2, 6))) for _ in range(30)]
    pairs = [(words[i], words[i + 1] + " " + words[(3 * i) % 30]) for i in range(17)]
    pairs += [(words[2], words[3]), (words[5], words[5]), (words[0], words[1] + " " + words[0])]
    vocab = build_vocab([t for p in pairs for t in p], (2, 3), MinCount(1))
    pairs += [("qqq", "qq q"), ("q", "qqqq"), ("qq", "q q")]
    return PairDataset(pairs), vocab


@pytest.mark.parametrize("window", [None, 1, 150])
@pytest.mark.parametrize("curriculum", [False, True])
@pytest.mark.parametrize("pool", ["same-side", "both-sides"])
@pytest.mark.parametrize("sampling", ["max", "mix"])
def test_train_is_byte_identical_to_per_batch_rebuilds(
    sampling, pool, curriculum, window, monkeypatch
):
    if window is not None:  # many windows: every batch alone, or a few per window
        monkeypatch.setattr(sys.modules["charngram.train"], "_PLAN_WINDOW_ENTRIES", window)
    dataset, vocab = _pairs()
    # 23 pairs in batches of 5: a short final batch of 3, which under the
    # curriculum's first epoch holds only the pairs that encode to nothing
    config = TrainConfig(dim=6, batch_size=5, epochs=3, seed=11, sampling=sampling,
                         negative_pool=pool, curriculum=curriculum, reg_lambda=1e-3)
    counts, _ = stacked_pairs(dataset.pairs, vocab, init_model(vocab, config))
    row_nnz = np.diff(counts.indptr)
    assert not row_nnz[20:23].any() and not row_nnz[43:].any() and row_nnz[:20].all()
    model, adam, curve = train(dataset, vocab, config)
    ref_model, ref_adam, ref_curve = _train_reference(dataset, vocab, config)
    assert model.weights.tobytes() == ref_model.weights.tobytes()
    assert model.bias.tobytes() == ref_model.bias.tobytes()
    assert adam.step == ref_adam.step == 15
    for name in ("m_bias", "v_bias", "m_weights", "v_weights"):
        assert getattr(adam, name).tobytes() == getattr(ref_adam, name).tobytes()
    assert curve.points == ref_curve.points


def _assert_same_run(got, want):
    """Two (model, adam, curve) results hold the same bytes, moments and curve."""
    (model, adam, curve), (ref_model, ref_adam, ref_curve) = got, want
    assert model.weights.tobytes() == ref_model.weights.tobytes()
    assert model.bias.tobytes() == ref_model.bias.tobytes()
    assert adam.step == ref_adam.step
    for name in ("m_bias", "v_bias", "m_weights", "v_weights"):
        assert getattr(adam, name).tobytes() == getattr(ref_adam, name).tobytes()
    assert curve.points == ref_curve.points


@pytest.mark.parametrize("stop", [3, 4, 5, 6, 13])
@pytest.mark.parametrize("window", [None, 1])
@pytest.mark.parametrize("sampling", ["max", "mix"])
def test_a_run_copied_between_steps_continues_bit_for_bit(sampling, window, stop, monkeypatch):
    # 23 pairs in batches of 5 make 5 batches an epoch, with a curve point
    # every 2. Stopped after step 3 the run is inside epoch 1, after 4 on a
    # curve point, after 5 past epoch 1's last batch (its epoch point not yet
    # added), after 6 at epoch 2's first step, and after 13 inside epoch 3.
    if window is not None:
        monkeypatch.setattr(sys.modules["charngram.train"], "_PLAN_WINDOW_ENTRIES", window)
    dataset, vocab = _pairs()
    config = TrainConfig(dim=6, batch_size=5, epochs=3, seed=11, sampling=sampling,
                         reg_lambda=1e-3, eval_every=0.4)
    want = train(dataset, vocab, config)
    # each epoch's last batch falls after its last curve point, and its loss
    # must count towards no point of the next epoch
    _assert_same_run(want, _train_reference(dataset, vocab, config))

    run = _Run(config, init_model(vocab, config))
    counts, text_ids = _encode_pairs(dataset.pairs, vocab, run.model)
    steps = run.steps(counts, text_ids)
    points = [next(steps) for _ in range(stop)]
    assert (run.epoch, run.batch) == ((stop - 1) // 5, (stop - 1) % 5 + 1)
    snapshot = copy.deepcopy(run)
    points += list(steps)
    copied_points = list(snapshot.steps(counts, text_ids))

    assert points[stop:] == copied_points
    assert points == [b % 2 == 0 for _ in range(3) for b in range(1, 6)]
    for finished in (run, snapshot):
        assert (finished.epoch, finished.batch) == (3, 0)
        _assert_same_run((finished.model, finished.adam, finished.curve), want)
    assert run.adam.step == 15


class _CountingSparse:
    """scipy.sparse, counting the `csr_matrix` and `csc_matrix` constructions
    made through it and recording the dtypes of the index arrays they are
    handed."""

    def __init__(self):
        self.made = 0
        self.index_dtypes = set()

    def __getattr__(self, name):
        return getattr(sparse, name)

    def _count(self, layout, arg, *args, **kwargs):
        self.made += 1
        if isinstance(arg, tuple) and len(arg) == 3:  # (data, indices, indptr)
            self.index_dtypes |= {np.asarray(a).dtype for a in arg[1:]}
        return layout(arg, *args, **kwargs)

    def csr_matrix(self, arg, *args, **kwargs):
        return self._count(sparse.csr_matrix, arg, *args, **kwargs)

    def csc_matrix(self, arg, *args, **kwargs):
        return self._count(sparse.csc_matrix, arg, *args, **kwargs)


@pytest.mark.parametrize("window", [None, 1])
def test_scipy_constructions_per_train_call(window, monkeypatch):
    # One for the encoded dataset (its CSC matrix; the CSR the plan takes
    # rows of is SciPy's own conversion), then two per batch: its rows and
    # its backward layout. A SciPy matrix built per step for anything else (such
    # as summing the hinge terms) is per-call overhead that shows at small
    # batches. SciPy's own row index per window and its `tocsc` of each
    # batch are not made through these modules and are not counted.
    counter = _CountingSparse()
    for module in ("charngram.train", "charngram.model"):
        monkeypatch.setattr(sys.modules[module], "sparse", counter)
    if window is not None:
        monkeypatch.setattr(sys.modules["charngram.train"], "_PLAN_WINDOW_ENTRIES", window)
    dataset, vocab = _pairs()
    config = TrainConfig(dim=6, batch_size=5, epochs=3, seed=11, sampling="mix")
    _, adam, _ = train(dataset, vocab, config)
    assert adam.step == 15
    assert counter.made == 1 + 2 * adam.step
    # every index array reaches SciPy as int32, which it keeps without a scan
    # and a copy
    assert counter.index_dtypes == {np.dtype(np.int32)}
