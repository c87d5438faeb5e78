import hashlib
import sys
import warnings
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from charngram import (
    DataError,
    MinCount,
    NGramVocab,
    TopKPerOrder,
    TrainConfig,
    build_vocab,
    encode,
    init_model,
    load_model,
    load_vocab,
    save_model,
    save_vocab,
)
from charngram import vocab as vocab_module
from charngram.vocab import MAX_ORDER, ngram_table, normalize, table_fingerprint

from conftest import windows

texts = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=40
)


def test_normalize_pads_and_collapses():
    assert normalize("the cat", "preserve") == " the cat "
    assert normalize("  A  b ", "lower") == " a b "
    assert normalize("", "preserve") == "  "
    assert normalize("\t x\n\ny ") == " x y "


def test_normalize_case_modes():
    assert normalize("AbC", "preserve") == " AbC "
    assert normalize("AbC", "lower") == " abc "
    assert normalize("AbC", "lowercase") == " abc "  # accepted alias
    with pytest.raises(ValueError):
        normalize("x", "upper")


@given(texts)
def test_normalize_idempotent(text):
    once = normalize(text)
    assert normalize(once) == once


@pytest.mark.parametrize("case_mode", ["lower", "preserve"])
@given(st.text(st.one_of(st.sampled_from(" \t\n\u3000AaΣσςİ\ud800"), st.characters()),
               max_size=40))
# every code point, in one text
@example(text="".join(map(chr, range(sys.maxunicode + 1))))
def test_normalize_is_idempotent_in_both_modes(case_mode, text):
    # encode_matrix normalizes text its callers may have normalized already
    once = normalize(text, case_mode)
    assert normalize(once, case_mode) == once


@given(texts)
def test_normalize_shape(text):
    out = normalize(text, "preserve")
    assert out[0] == " " and out[-1] == " "
    assert "  " not in out or out == "  "


def _extracted(seq, orders):
    """The n-grams of a normalized `seq` and their counts, in first-seen order, as
    `encode` gives them against the vocabulary `build_vocab` counts from `seq`
    alone; the vocabulary's counts must be the same."""
    assert normalize(seq, "preserve") == seq  # what `build_vocab` counts
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a text shorter than every order keeps nothing
        vocab = build_vocab([seq], orders, MinCount(1), case_mode="preserve")
    grams = Counter({vocab.entries[row][0]: count for row, count in encode(seq, vocab).items()})
    assert grams == Counter({ngram: count for ngram, _, count in vocab.entries})
    return grams


def test_extract_enumeration():
    assert _extracted(" ab ", {2}) == Counter({" a": 1, "ab": 1, "b ": 1})
    assert _extracted(" a a ", {2}) == Counter({" a": 2, "a ": 2})
    assert _extracted(" ab ", {2, 3}) == Counter(
        {" a": 1, "ab": 1, "b ": 1, " ab": 1, "ab ": 1}
    )


def test_extract_crosses_word_boundaries():
    grams = _extracted(normalize("a b"), {3})
    assert "a b" in grams  # internal space included


def test_extract_order_longer_than_seq():
    assert _extracted("  ", {5}) == Counter()
    assert encode("  ", NGramVocab([("  ab ", 5, 1)])) == {}


def test_extract_rejects_bad_orders():
    for orders in (set(), {0}, {300}):
        with pytest.raises(ValueError):
            build_vocab([" ab "], orders, MinCount(1))


@given(texts, st.integers(min_value=1, max_value=6))
def test_extract_count_sum(text, n):
    seq = normalize(text)
    total = sum(_extracted(seq, {n}).values())
    assert total == max(0, len(seq) - n + 1)


@given(texts, st.sets(st.integers(min_value=1, max_value=6), min_size=1))
def test_extract_equals_the_per_window_reference(text, orders):
    seq = normalize(text, "preserve")
    got = _extracted(seq, orders)
    want = Counter(windows(seq, orders))  # one increment per window, order by order
    assert got == want
    assert list(got) == list(want)  # first-seen order too


@given(
    st.lists(texts, min_size=1, max_size=8),
    st.sampled_from([MinCount(1), MinCount(2), TopKPerOrder(3)]),
)
def test_build_vocab_equals_merging_per_text_counts(corpus, policy):
    orders = (1, 2, 3)
    counts = Counter()
    for text in corpus:
        counts.update(windows(normalize(text), orders))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a policy may keep nothing
        vocab = build_vocab(corpus, orders, policy)
    assert all(counts[ngram] == count for ngram, _, count in vocab.entries)
    if isinstance(policy, MinCount):
        kept = {ngram for ngram, count in counts.items() if count >= policy.min_count}
        assert {e[0] for e in vocab.entries} == kept


def test_build_vocab_mincount():
    vocab = build_vocab(["ab", "ab", "cd"], {2}, MinCount(2))
    assert {e[0] for e in vocab.entries} == {" a", "ab", "b "}
    assert all(count == 2 for _, _, count in vocab.entries)


def test_build_vocab_topk_tie_break():
    # " a", "ab", "b " all have count 2; lexicographic ascending keeps " a", "ab"
    vocab = build_vocab(["ab", "ab", "cd"], {2}, TopKPerOrder(2))
    assert [e[0] for e in vocab.entries] == [" a", "ab"]


def test_build_vocab_threshold_excludes_all_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vocab = build_vocab(["ab"], {2}, MinCount(2))
    assert len(vocab) == 0
    assert caught


def test_build_vocab_empty_corpus():
    with pytest.raises(DataError, match="empty corpus"):
        build_vocab([], {2}, MinCount(1))


def test_build_vocab_canonical_ordering():
    vocab = build_vocab(["abc abc", "abd", "zz"], (3, 2), MinCount(1))
    keys = [(order, -count, ngram) for ngram, order, count in vocab.entries]
    assert keys == sorted(keys)


def test_build_vocab_corpus_order_insensitive():
    corpus = ["the cat", "a cat", "dogs", "cat sat"]
    a = build_vocab(corpus, {2, 3}, TopKPerOrder(5))
    b = build_vocab(list(reversed(corpus)), {2, 3}, TopKPerOrder(5))
    assert a == b and a.fingerprint == b.fingerprint


def test_build_vocab_case_mode_changes_counts():
    lower = build_vocab(["AB", "ab"], {2}, MinCount(2))
    with pytest.warns(UserWarning, match="empty"):  # each casing seen once only
        preserve = build_vocab(["AB", "ab"], {2}, MinCount(2), case_mode="preserve")
    assert "ab" in lower
    assert "ab" not in preserve


def test_vocab_validation():
    with pytest.raises(DataError, match="duplicate"):
        NGramVocab([("ab", 2, 1), ("ab", 2, 1)])
    with pytest.raises(DataError, match="length"):
        NGramVocab([("abc", 2, 1)])
    with pytest.raises(DataError, match="negative"):
        NGramVocab([("ab", 2, -1)])
    with pytest.raises(DataError, match="order"):
        NGramVocab([("", 0, 1)])


def test_a_vocabulary_with_a_requested_order_that_kept_nothing_round_trips_equal(tmp_path):
    # no text reaches 9 characters, so order 9 keeps no n-gram
    vocab = build_vocab(["ab cd", "ef"], (2, 3, 9), MinCount(1))
    assert vocab.orders == {2, 3}
    assert vocab == build_vocab(["ab cd", "ef"], (2, 3), MinCount(1))
    save_vocab(vocab, tmp_path / "vocab.tsv")
    model = init_model(vocab, TrainConfig(dim=2))
    save_model(model, vocab, tmp_path / "model.bin")
    loaded = load_vocab(tmp_path / "vocab.tsv")
    assert loaded.orders == {2, 3} and loaded == vocab
    # a model file stores no corpus counts
    _, from_model = load_model(tmp_path / "model.bin")
    assert from_model.orders == {2, 3}
    assert from_model == NGramVocab([(ngram, order, 0) for ngram, order, _ in vocab.entries])
    assert encode(normalize("ab cd"), vocab) == encode(normalize("ab cd"), from_model)


@pytest.mark.parametrize("entries, message", [
    ([("ab", 2, 1), ("abc", 2, 1), ("ab", 2, 1)], "n-gram 'abc' length does not match order 2"),
    ([("ab", 2, 1), ("ab", 2, -1), ("x", 0, 1)], "duplicate n-gram in vocabulary: 'ab'"),
    ([("ab", 2, 1), ("cd", 2, -1), ("", 0, 1)], "negative corpus count for 'cd'"),
    ([("ab", 2, 1), ("", 0, 1), ("cd", 2, -1)], "bad n-gram order 0 for ''"),
    ([("a" * 256, 256, 0)], f"bad n-gram order 256 for {'a' * 256!r}"),
    # an order or a count is an int, and a bool or a float is not
    ([("ab", 2, 1), ("a", 1.0, 1)], "bad n-gram order 1.0 for 'a'"),
    ([("a", True, 1)], "bad n-gram order True for 'a'"),
    ([("ab", 2, 1), ("a", 1, 0.5)], "bad corpus count 0.5 for 'a'"),
    ([("a", 1, False)], "bad corpus count False for 'a'"),
])
def test_vocab_errors_name_the_first_bad_entry(entries, message):
    with pytest.raises(DataError) as caught:
        NGramVocab(entries)
    assert str(caught.value) == message


@pytest.mark.parametrize("entries, message", [
    ([("a" * 300, 300, 1)], f"the n-gram table cannot hold {'a' * 300!r} of order 300"),
    ([("ab", 2, 1), ("a", 0, 1)], "the n-gram table cannot hold 'a' of order 0"),
    ([("a", -1, 1)], "the n-gram table cannot hold 'a' of order -1"),
    ([("a", None, 1)], "the n-gram table cannot hold 'a' of order None"),
    ([("é" * 511, 255, 1)], f"the n-gram table cannot hold {'é' * 511!r} of order 255"),
])
def test_ngram_table_refuses_entries_it_cannot_hold(entries, message):
    with pytest.raises(DataError) as caught:
        ngram_table(entries)
    assert str(caught.value) == message


def test_an_n_gram_utf8_cannot_encode_is_a_data_error():
    # a lone surrogate has no UTF-8 bytes, so no n-gram table, fingerprint or file
    with pytest.raises(DataError, match="cannot be encoded as UTF-8"):
        build_vocab(["a\ud800b"], (2,), MinCount(1))
    with pytest.raises(DataError) as caught:
        NGramVocab([("ab", 2, 1), ("a\ud800", 2, 1), ("\udfff", 1, 1)])
    assert str(caught.value) == "n-gram 'a\\ud800' cannot be encoded as UTF-8"
    # text holding one still encodes against a valid vocabulary
    vocab = build_vocab(["ab ba"], (2,), MinCount(1))
    seq = normalize("a\ud800b ab")
    assert encode(seq, vocab) == {vocab.index[" a"]: 2, vocab.index["ab"]: 1,
                                  vocab.index["b "]: 2}


def test_vocab_index_bijection(small_vocab):
    assert len(small_vocab.index) == len(small_vocab.entries)
    for ngram, pos in small_vocab.index.items():
        assert small_vocab.entries[pos][0] == ngram


def test_fingerprint_ignores_counts():
    a = NGramVocab([("ab", 2, 5), ("cd", 2, 1)])
    b = NGramVocab([("ab", 2, 0), ("cd", 2, 99)])
    assert a.fingerprint == b.fingerprint


def test_fingerprint_sensitive_to_order_and_content():
    base = NGramVocab([("ab", 2, 1), ("cd", 2, 1)])
    swapped = NGramVocab([("cd", 2, 1), ("ab", 2, 1)])
    changed = NGramVocab([("ab", 2, 1), ("ce", 2, 1)])
    assert base.fingerprint != swapped.fingerprint
    assert base.fingerprint != changed.fingerprint


def test_fingerprint_is_the_blake2b_digest_of_the_table():
    vocab = NGramVocab([("ab", 2, 5), (" é", 2, 1), ("x", 1, 0)])
    table = b"\x02\x00ab\x02" + b"\x03\x00 \xc3\xa9\x02" + b"\x01\x00x\x01"
    assert vocab.table == ngram_table(vocab.entries) == table
    digest = hashlib.blake2b(table, digest_size=8).digest()
    assert vocab.fingerprint == int.from_bytes(digest, "little")


def test_from_table_round_trip_keeps_the_digest(small_vocab):
    table = small_vocab.table
    with mock.patch.object(vocab_module, "_walk_table") as walk:
        vocab = NGramVocab.from_table(table, len(small_vocab), small_vocab.fingerprint)
    walk.assert_not_called()  # split in array passes
    assert [e[:2] for e in vocab.entries] == [e[:2] for e in small_vocab.entries]
    assert all(count == 0 for _, _, count in vocab.entries)
    assert vocab.table is table
    assert vocab.fingerprint == NGramVocab(vocab.entries).fingerprint


@pytest.mark.parametrize(
    "table, count, match",
    [
        (b"\x02\x00ab\x02", 2, "ends inside an entry"),
        (b"\x02\x00ab", 1, "ends inside an entry"),
        (b"\x05\x00ab\x02", 1, "ends inside an entry"),
        (b"\x02", 1, "ends inside an entry"),
        (b"\x02\x00ab\x02\x00", 1, "trailing bytes"),
        (b"\x02\x00\xff\xfe\x02", 1, "bad n-gram bytes"),
        (b"\x02\x00ab\x03", 1, "does not match order"),
        (b"\x02\x00ab\x02\x02\x00ab\x02", 2, "duplicate"),
        # two entry starts for two entries, but not the chain the walk follows
        (b"\x03\x00ab\x02\x01\x00x\x01", 2, "ends inside an entry"),
        (b"\x02\x00a\xff\x02", 1, "bad n-gram bytes"),
        (b"\x02\x00ab\x02\x00\x00\x01", 2, "n-gram '' length does not match order 1"),
    ],
)
def test_from_table_rejects_malformed_tables(table, count, match):
    with pytest.raises(DataError, match=match):
        NGramVocab.from_table(table, count, table_fingerprint(table))


# ASCII, 2-, 3- and 4-byte UTF-8 and U+0000; each vocabulary draws a few of them
_table_chars = st.one_of(
    st.just("\x00"),
    st.sampled_from("ab "),
    st.characters(min_codepoint=0x80, max_codepoint=0x7FF),
    st.characters(min_codepoint=0x800, max_codepoint=0xFFFF, exclude_categories=("Cs",)),
    st.characters(min_codepoint=0x10000),
)


@st.composite
def _table_entries(draw):
    chars = st.sampled_from(draw(st.lists(_table_chars, min_size=1, max_size=4, unique=True)))
    ngrams = draw(st.lists(
        st.integers(1, MAX_ORDER).flatmap(lambda n: st.text(chars, min_size=n, max_size=n)),
        max_size=6, unique=True,
    ))
    return [(ngram, len(ngram), draw(st.integers(0, 3))) for ngram in ngrams]


@given(_table_entries())
# U+0000 right after a length's zero high byte
@example(entries=[("\x00a", 2, 1), ("b", 1, 0)])
@example(entries=[])
def test_from_table_walks_only_tables_the_array_pass_cannot_split(entries):
    vocab = NGramVocab(entries)
    table = vocab.table
    with mock.patch.object(vocab_module, "_walk_table", wraps=vocab_module._walk_table) as walk:
        loaded = NGramVocab.from_table(table, len(vocab), vocab.fingerprint)
    assert loaded.entries == [(ngram, order, 0) for ngram, order, _ in entries]
    assert loaded.index == vocab.index and loaded.orders == vocab.orders
    assert loaded.fingerprint == vocab.fingerprint and loaded.table is table
    # the length's high byte is zero below 256 UTF-8 bytes, and only U+0000 encodes to 0
    unsplittable = any("\x00" in ngram or len(ngram.encode("utf-8")) >= 256
                       for ngram, _, _ in entries)
    assert walk.called == unsplittable


def test_from_table_checks_the_digest_first():
    with pytest.raises(DataError, match="fingerprint mismatch"):
        NGramVocab.from_table(b"\x02", 1, 0)


def test_encode_examples():
    vocab = NGramVocab([(" a", 2, 1), ("ab", 2, 1), ("b ", 2, 1)])
    assert encode(" ab ", vocab) == {0: 1, 1: 1, 2: 1}
    assert encode(" zz ", vocab) == {}
    two = NGramVocab([(" a", 2, 1), ("a ", 2, 1)])
    assert encode(" a a ", two) == {0: 2, 1: 2}


def test_encode_depends_only_on_in_vocab_multiset():
    vocab = NGramVocab([("ab", 2, 1)])
    assert encode(" xaby ", vocab) == encode(" zabw ", vocab) == {vocab.index["ab"]: 1}


def test_encode_restriction_monotone(small_vocab):
    seq = normalize("the cat sat")
    full = encode(seq, small_vocab)
    reduced_entries = [e for i, e in enumerate(small_vocab.entries) if i != 3]
    reduced = NGramVocab(reduced_entries)
    sub = encode(seq, reduced)
    by_ngram_full = {small_vocab.entries[i][0]: c for i, c in full.items()}
    by_ngram_sub = {reduced.entries[i][0]: c for i, c in sub.items()}
    for ngram, count in by_ngram_sub.items():
        assert by_ngram_full[ngram] == count
    dropped = small_vocab.entries[3][0]
    assert set(by_ngram_full) - set(by_ngram_sub) <= {dropped}


@given(st.lists(st.sampled_from(["cat", "cats", "the cat", "dog", "a b c"]), min_size=1))
def test_build_then_encode_counts_match_extraction(corpus):
    vocab = build_vocab(corpus, {2}, MinCount(1))
    seq = normalize(corpus[0])
    cv = encode(seq, vocab)
    grams = Counter(windows(seq, {2}))
    for row, count in cv.items():
        assert grams[vocab.entries[row][0]] == count
