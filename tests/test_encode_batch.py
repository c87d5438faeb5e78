"""The array pass against its per-text oracles.

`encode_batch` must give the arrays of `count_matrix(...).tocsc()` (the
oracle in conftest) over per-text `encode` count vectors, `encode_matrix` the
same matrix over each raw text normalized in its model's case mode, and
`build_vocab` the entries of a `Counter` over conftest's `windows`,
for any text: astral characters, NUL, lone surrogates, characters outside the
vocabulary, empty texts and texts shorter than every order. A vocabulary
that would keep a lone surrogate is a DataError. Past a 63-bit key, counting,
the key table and batch encoding all re-rank their keys; both property tests
also run under small key limits, which force re-ranking at many widths, and
must agree there too. Batch encoding looks an order's windows up in slots or
in sorted keys, by the order's key range; it runs under a small slot limit
and the real one.
"""

import contextlib
import io
import itertools
import re
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from charngram import (
    DataError,
    MinCount,
    Model,
    NGramVocab,
    PairDataset,
    SimDataset,
    TopKPerOrder,
    TrainConfig,
    binned_eval,
    build_vocab,
    build_working_vocab,
    embed_matrix,
    encode,
    encode_batch,
    encode_matrix,
    eval_sts,
    eval_word_sim,
    finite_diff_audit,
    init_model,
    load_model,
    nearest_neighbors,
    ngram_neighbors,
    save_model,
    save_vocab,
)
from charngram import cli, synthetic
from charngram.io import escape_ngram
from charngram.train import _encode_pairs
from charngram.vocab import _SLOT_LIMIT, normalize

from conftest import count_matrix, windows

# characters that stress the packing: NUL, lone surrogates, astral ones, the
# highest code point, a combining mark
ODD = ["\x00", "\ud800", "\udfff", "\U0001f600", "\U0010ffff", "\u0301", "\u00e9", "\u00c9"]
CHARS = st.one_of(st.sampled_from(["a", "b", "A", " ", *ODD]), st.characters())
TEXTS = st.text(CHARS, max_size=12)
SEQS = st.one_of(
    TEXTS.map(normalize),
    TEXTS.map(lambda text: normalize(text, "preserve")),
    TEXTS,  # not normalized: empty, and shorter than every order
    st.text(st.sampled_from("ab "), max_size=60),  # windows that repeat within a text
)
# a vocabulary holds no lone surrogate: UTF-8 cannot store it (the texts
# encoded against a vocabulary may still hold one)
LONE_SURROGATE = re.compile("[\ud800-\udfff]")
ENCODABLE = [c for c in ODD if not LONE_SURROGATE.match(c)]
VOCAB_TEXTS = st.text(
    st.one_of(st.sampled_from(["a", "b", "A", " ", *ENCODABLE]),
              st.characters(blacklist_categories=("Cs",))),
    max_size=12,
)
POLICIES = st.one_of(
    st.integers(1, 3).map(MinCount), st.integers(1, 6).map(TopKPerOrder)
)
# raw texts: mixed case, whitespace runs of several kinds, no boundary padding
RAW_TEXTS = st.text(
    st.one_of(st.sampled_from(["a", "b", "A", "B", " ", "\t", "\n", "\u3000", *ODD]),
              st.characters()),
    max_size=12,
)
# packed-key limits that force re-ranking at many widths, and the real one;
# patched with a context manager, as Hypothesis rejects function-scoped fixtures
KEY_LIMITS = [2**3, 2**10, 2**20, 2**63]
# slot limits under which some orders take the slots and others the sorted keys
SLOT_LIMITS = [2**6, _SLOT_LIMIT]


def _build_vocab_ref(corpus, orders, policy, case_mode):
    """Count every window text by text, select, and sort by (order, -count, n-gram)."""
    counts = Counter()
    for text in corpus:
        counts.update(windows(normalize(text, case_mode), orders))
    if isinstance(policy, MinCount):
        kept = [(ngram, c) for ngram, c in counts.items() if c >= policy.min_count]
    else:
        kept = []
        for n in sorted(set(orders)):
            of_order = sorted(
                ((ngram, c) for ngram, c in counts.items() if len(ngram) == n),
                key=lambda item: (-item[1], item[0]),
            )
            kept += of_order[: policy.k]
    return sorted(((ngram, len(ngram), c) for ngram, c in kept), key=lambda e: (e[1], -e[2], e[0]))


def _build(corpus, orders, policy, case_mode="lower"):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a policy may keep nothing
        return build_vocab(corpus, orders, policy, case_mode=case_mode)


def _zero_model(vocab, case_mode=None):
    return Model(weights=np.zeros((len(vocab), 1)), bias=np.zeros(1), activation="linear",
                 vocab_fingerprint=vocab.fingerprint, case_mode=case_mode)


def _assert_encode_matrix_equals_loop(texts, vocab, model):
    """`encode_matrix` has the arrays and index dtypes of the per-text oracle over
    the texts normalized in the model's case mode."""
    seqs = [normalize(text, model.input_case_mode) for text in texts]
    want = count_matrix([encode(seq, vocab) for seq in seqs], model).tocsc()
    got = encode_matrix(texts, vocab, model)
    assert got.format == "csc" and got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert np.array_equal(getattr(got, name), getattr(want, name))


def _assert_batch_equals_loop(seqs, vocab):
    model = _zero_model(vocab)
    want = count_matrix([encode(seq, vocab) for seq in seqs], model).tocsc()
    for name, got in zip(("indptr", "indices", "data"), encode_batch(seqs, vocab)):
        assert got.dtype == (np.float64 if name == "data" else np.intp)
        assert np.array_equal(got, getattr(want, name))
    _assert_encode_matrix_equals_loop(seqs, vocab, model)


@st.composite
def vocabularies(draw):
    """A built vocabulary, whose requested orders may keep no n-gram, or one from drawn entries."""
    if draw(st.booleans()):
        corpus = draw(st.lists(VOCAB_TEXTS, min_size=1, max_size=6))
        orders = draw(st.sets(st.integers(1, 5), min_size=1, max_size=3))
        case_mode = draw(st.sampled_from(["lower", "preserve"]))
        return _build(corpus, orders, draw(POLICIES), case_mode)
    chars = st.one_of(st.sampled_from("ab "), st.sampled_from(ENCODABLE))
    ngrams = draw(st.sets(st.text(chars, min_size=1, max_size=4), max_size=20))
    entries = [(ngram, len(ngram), draw(st.integers(0, 9))) for ngram in draw(st.permutations(sorted(ngrams)))]
    return NGramVocab(entries)


@settings(max_examples=300, deadline=None)
@given(vocabularies(), st.lists(SEQS, max_size=12))
# a later row whose windows repeat many times: each row's cells must stay in
# that row, in their columns
@example(NGramVocab([("a", 1, 1), ("ab", 2, 1)]), ["ab", "a" * 50])
def test_batch_encode_equals_per_text_encode(vocab, seqs):
    for limit in KEY_LIMITS:
        for slot_limit in SLOT_LIMITS:
            with mock.patch("charngram.vocab._KEY_LIMIT", limit), \
                    mock.patch("charngram.vocab._SLOT_LIMIT", slot_limit):
                vocab._keys = None  # the key table is rebuilt under these limits
                _assert_batch_equals_loop(seqs, vocab)


@settings(max_examples=200, deadline=None)
@given(
    vocabularies(),
    st.lists(SEQS, max_size=12),
    st.integers(1, 4),
    st.sampled_from(["linear", "tanh"]),
    st.integers(0, 2**32 - 1),
)
def test_a_batch_embedding_does_not_depend_on_its_batch(vocab, seqs, dim, activation, seed):
    # weights over many magnitudes, so that summing a row's terms in another
    # order would move its bits
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((len(vocab), dim)) * 10.0 ** rng.uniform(-8, 8, (len(vocab), 1))
    model = Model(weights=weights, bias=rng.standard_normal(dim), activation=activation,
                  vocab_fingerprint=vocab.fingerprint)
    values = embed_matrix(encode_matrix(seqs, vocab, model), model)
    by_rows = count_matrix([encode(normalize(seq, model.input_case_mode), vocab) for seq in seqs],
                           model)
    by_rows.sort_indices()
    assert values.tobytes() == embed_matrix(by_rows, model).tobytes()
    for seq, row in zip(seqs, values):
        alone = embed_matrix(encode_matrix([seq], vocab, model), model)
        assert row.tobytes() == alone[0].tobytes()


@settings(max_examples=200, deadline=None)
@given(vocabularies(), st.lists(RAW_TEXTS, max_size=12))
# a preserve-mode vocabulary whose n-grams need the case kept, the whitespace
# collapsed and the boundary spaces added
@example(NGramVocab([(" T", 2, 1), ("e C", 3, 1), ("t ", 2, 1), ("e c", 3, 1)]),
         ["The\t\tCat", "the  cat", "", "THE CAT"])
def test_encode_matrix_normalizes_raw_text_in_the_model_case_mode(vocab, texts):
    for case_mode in ("lower", "preserve"):
        _assert_encode_matrix_equals_loop(texts, vocab, _zero_model(vocab, case_mode))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(TEXTS, min_size=1, max_size=8),
    st.sets(st.integers(1, 5), min_size=1, max_size=3),
    POLICIES,
    st.sampled_from(["lower", "preserve"]),
)
def test_build_vocab_equals_the_counter_of_windows(corpus, orders, policy, case_mode):
    want = _build_vocab_ref(corpus, orders, policy, case_mode)
    unencodable = any(LONE_SURROGATE.search(ngram) for ngram, _, _ in want)
    for limit in KEY_LIMITS:
        with mock.patch("charngram.vocab._KEY_LIMIT", limit):
            if unencodable:
                with pytest.raises(DataError, match="cannot be encoded as UTF-8"):
                    _build(corpus, orders, policy, case_mode)
                continue
            vocab = _build(corpus, orders, policy, case_mode)
        assert vocab.entries == want
        # the orders of the n-grams kept: a requested order may keep none
        assert vocab.orders == {order for _, order, _ in want}


WIDE_CORPUS = ["0123456789 9876543210", "0246813579 1357924680", "0123456789 9876543210 02468"]


@pytest.mark.parametrize("policy", [MinCount(1), MinCount(2), TopKPerOrder(3)])
def test_too_wide_for_a_packed_key_is_re_ranked(policy):
    # 11 characters (the digits and the space): 11**19 > 2**63, so both the
    # count and, with 12 as the base, the vocabulary's key table re-rank their
    # keys; 12**17 < 2**63 < 12**18, so the key table re-ranks at width 17
    orders = (2, 19)
    vocab = _build(WIDE_CORPUS, orders, policy)
    assert vocab.entries == _build_vocab_ref(WIDE_CORPUS, orders, policy, "lower")
    assert any(order == 19 for _, order, _ in vocab.entries)
    assert list(vocab.key_table()[1]) == [17]
    seqs = [normalize(t) for t in (*WIDE_CORPUS, "98765 43210 0123456789", "x", "")]
    _assert_batch_equals_loop(seqs, vocab)


@pytest.mark.parametrize("order, packed", [(39, True), (40, False)])
def test_a_key_of_exactly_63_bits_is_packed(order, packed):
    # two characters: the count's base is 2, and 2**63 is the largest key
    # range that fits (64 re-ranks its keys); the vocabulary's base is 3,
    # and 3**39 < 2**63 < 3**40
    corpus = ["a" * 70, "a a aa aaa " * 7, "aa " * 30]
    for orders in ((63,), (64,), (2, order)):
        vocab = _build(corpus, orders, MinCount(1))
        assert vocab.entries == _build_vocab_ref(corpus, orders, MinCount(1), "lower")
    assert list(vocab.key_table()[1]) == ([] if packed else [39])
    _assert_batch_equals_loop([normalize(t) for t in corpus] + ["a" * 45, " a "], vocab)


@pytest.mark.parametrize("slot_limit, direct", [(3**4, True), (3**4 - 1, False)])
def test_an_order_whose_key_range_is_the_slot_limit_takes_the_slots(slot_limit, direct):
    # two characters: the vocabulary's base is 3, so order 4 has 3**4 keys
    corpus = ["a" * 9, "a a aa aaa", "aaaa a"]
    with mock.patch("charngram.vocab._SLOT_LIMIT", slot_limit):
        vocab = _build(corpus, (2, 4), MinCount(1))
        tables = vocab.key_table()[2]
    assert isinstance(tables[2], np.ndarray) and len(tables[2]) == 3**2
    assert isinstance(tables[4], np.ndarray) == direct
    if direct:
        assert len(tables[4]) == 3**4
    else:
        of_order = sum(order == 4 for _, order, _ in vocab.entries)
        assert [len(part) for part in tables[4]] == [of_order, of_order]
    _assert_batch_equals_loop([normalize(t) for t in corpus] + ["a" * 12, " a ", "b"], vocab)


def test_key_table_is_built_once_and_not_by_loading(tmp_path):
    # order-3 n-grams over 40 characters (base 41, 41**3 slots), on each side
    # of 2**15 entries: int16 slots below it, int32 from there
    chars = [chr(ord("0") + i) for i in range(40)]
    ngrams = ["".join(t) for t in itertools.islice(itertools.product(chars, repeat=3), 2**15)]
    for size, dtype in ((2**15 - 1, np.int16), (2**15, np.int32)):
        vocab = NGramVocab([(ngram, 3, 1) for ngram in ngrams[size - 1 :: -1]])
        save_model(_zero_model(vocab), vocab, tmp_path / "m.bin")
        loaded = load_model(tmp_path / "m.bin")[1]
        assert loaded._keys is None
        # the last entry and the first come back through the slots
        indptr, indices, _ = encode_batch([ngrams[0], ngrams[size - 1]], loaded)
        assert list(np.flatnonzero(np.diff(indptr))) == [0, size - 1]
        assert list(indices) == [1, 0]
        table = loaded._keys
        slots = table[2][3]
        assert slots.dtype == dtype and len(slots) == 41**3
        assert np.count_nonzero(slots >= 0) == size and slots.max() == size - 1
        encode_batch([ngrams[1]], loaded)
        assert loaded._keys is table and table[2][3] is slots


def test_a_model_with_fewer_rows_than_its_vocabulary_is_a_mismatch_at_every_batch_site(
    tmp_path, monkeypatch
):
    task = synthetic.make_task(3, n_roots=4, n_variants=3, n_heldout=1)
    vocab = build_vocab([*synthetic.training_corpus(task), *task.heldout_words[0]], (2, 3),
                        MinCount(1))
    short = Model(weights=np.zeros((1, 3)), bias=np.zeros(3), activation="tanh",
                  vocab_fingerprint=vocab.fingerprint)
    words = synthetic.training_corpus(task)
    sims = SimDataset("s", [(words[0], words[1], 1.0), (words[2], words[3], 2.0)])
    sites = [
        lambda: _encode_pairs([(words[0], words[1]), (words[2], words[3])], vocab, short),
        lambda: eval_sts(short, vocab, [sims]),
        lambda: build_working_vocab(words, short, vocab),
        lambda: synthetic.cosine_gap(short, vocab, task),
    ]
    for site in sites:
        with pytest.raises(DataError, match="vocab/model mismatch"):
            site()

    # the command line: `embed`, and the `--eval-pairs` hook of `train`, on
    # the vocabulary the model shares its fingerprint with
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("".join(f"{a}\t{b}\n" for a, b in zip(words[::2], words[1::2])))
    save_vocab(vocab, tmp_path / "vocab.tsv")

    def train_calling_the_hook(dataset, vocab, config, eval_hook):
        eval_hook(short, 0)

    monkeypatch.setattr(cli, "load_model", lambda path: (short, vocab))
    monkeypatch.setattr(cli, "train", train_calling_the_hook)
    for argv in (
        ["embed", "--model", "unused.bin", words[0], words[1]],
        ["train", "--pairs", str(pairs), "--out", str(tmp_path / "m.bin"),
         "--vocab", str(tmp_path / "vocab.tsv"), "--eval-pairs", str(pairs)],
    ):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 2
        assert stderr.getvalue().splitlines()[-1] == "error: vocab/model mismatch"


def test_a_model_paired_with_a_foreign_vocabulary_of_its_size_is_refused_at_every_site(
    tmp_path, monkeypatch
):
    task = synthetic.make_task(3, n_roots=4, n_variants=3, n_heldout=1)
    vocab = build_vocab(synthetic.training_corpus(task), (2, 3), MinCount(1))
    # the same n-grams in another order: every index is in range, every row wrong
    foreign = NGramVocab(vocab.entries[::-1])
    assert len(foreign) == len(vocab) and foreign.fingerprint != vocab.fingerprint
    config = TrainConfig(dim=3, batch_size=2)
    model = init_model(vocab, config)
    words = synthetic.training_corpus(task)
    sims = SimDataset("s", [(words[0], words[1], 1.0), (words[2], words[3], 2.0)])
    pairs = [(words[0], words[1]), (words[2], words[3])]
    working = build_working_vocab(words, model, vocab)
    query = vocab.entries[0][0]
    sites = [
        lambda: _encode_pairs(pairs, foreign, model),
        lambda: eval_sts(model, foreign, [sims]),
        lambda: eval_word_sim(model, foreign, sims),
        lambda: binned_eval(model, foreign, [sims], "length"),
        lambda: build_working_vocab(words, model, foreign),
        lambda: synthetic.cosine_gap(model, foreign, task),
        lambda: synthetic.top1_same_root_accuracy(model, foreign, task),
        lambda: finite_diff_audit(model, foreign, pairs, config),
        lambda: nearest_neighbors(words[0], working, model, foreign, 3),
        lambda: ngram_neighbors(query, model, foreign, 3),
    ]
    for site in sites:
        with pytest.raises(DataError, match=r"fingerprint mismatch"):
            site()

    # the command line: every command that reads a model, and the `--eval-pairs`
    # hook of `train` on a vocabulary file
    pair_file = tmp_path / "pairs.tsv"
    pair_file.write_text("".join(f"{a}\t{b}\n" for a, b in pairs))
    word_file = tmp_path / "words.txt"
    word_file.write_text("\n".join(words) + "\n")
    sim_dir = tmp_path / "sts"
    sim_dir.mkdir()
    (sim_dir / "s.tsv").write_text(f"{words[0]}\t{words[1]}\t1\n{words[2]}\t{words[3]}\t2\n")
    save_vocab(foreign, tmp_path / "vocab.tsv")

    def train_calling_the_hook(dataset, vocab, config, eval_hook):
        eval_hook(model, 0)

    monkeypatch.setattr(cli, "load_model", lambda path: (model, foreign))
    monkeypatch.setattr(cli, "train", train_calling_the_hook)
    for argv in (
        ["embed", "--model", "unused.bin", words[0], words[1]],
        ["eval", "word", "--model", "unused.bin", "--dataset", str(sim_dir / "s.tsv")],
        ["eval", "sts", "--model", "unused.bin", "--datasets", str(sim_dir)],
        ["eval", "bins", "--model", "unused.bin", "--datasets", str(sim_dir), "--by", "length"],
        ["nn", "--model", "unused.bin", "--wordlist", str(word_file), words[0]],
        ["nn-ngram", "--model", "unused.bin", escape_ngram(query)],
        ["audit-grad", "--model", "unused.bin", "--pairs", str(pair_file)],
        ["train", "--pairs", str(pair_file), "--out", str(tmp_path / "m.bin"),
         "--vocab", str(tmp_path / "vocab.tsv"), "--eval-pairs", str(pair_file)],
    ):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 2, argv
        assert stderr.getvalue().splitlines()[-1] == (
            "error: model not bound to vocabulary (fingerprint mismatch)"
        )


def test_eval_pairs_count_matrix_is_built_once(tmp_path, monkeypatch):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("the cat\ta cat\nthe dog\ta dog\nfish swim\tbirds fly\ncats nap\tdogs nap\n")
    built = []

    def counting(seqs, vocab, model):
        built.append(len(seqs))
        return encode_matrix(seqs, vocab, model)

    monkeypatch.setattr(cli, "encode_matrix", counting)
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["train", "--pairs", str(pairs), "--out", str(tmp_path / "m.bin"),
                       "--dim", "4", "--batch", "2", "--epochs", "3", "--eval-every", "0.5",
                       "--curve", str(tmp_path / "curve.tsv"), "--eval-pairs", str(pairs)])
    assert rc == 0
    assert built == [8]  # one build for 6 curve points
    curve = (tmp_path / "curve.tsv").read_text()
    assert curve.count("dev_mean_cosine") == 6


def test_pair_dataset_encoding_is_the_per_text_count_matrix():
    pairs = PairDataset([("the cat", "a cat"), ("\U0001f600 x", "\x00"),
                         ("\u00e9 \u00c9", "e\u0301"), ("A  Cat", "\x00")])
    vocab = build_vocab([t for p in pairs.pairs for t in p], (1, 2, 3), MinCount(1))
    model = init_model(vocab, TrainConfig(dim=2))
    counts, text_ids = _encode_pairs(pairs.pairs, vocab, model)
    # one row per distinct normalized phrase: the last pair repeats rows 1 and 3
    assert text_ids.tolist() == [[0, 1], [2, 3], [4, 5], [1, 3]]
    seqs = [" the cat ", " a cat ", " \U0001f600 x ", " \x00 ", " \u00e9 \u00e9 ", " e\u0301 "]
    want = count_matrix([encode(seq, vocab) for seq in seqs], model)
    want.sort_indices()
    # the plan takes rows, so training gets CSR, each row's columns ascending
    assert counts.format == "csr" and counts.has_sorted_indices
    for name in ("indptr", "indices", "data"):
        assert getattr(counts, name).dtype == getattr(want, name).dtype
        assert np.array_equal(getattr(counts, name), getattr(want, name))
