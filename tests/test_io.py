import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from charngram import (
    DataError,
    MinCount,
    Model,
    ModelFormatError,
    NGramVocab,
    RunConfig,
    TrainingCurve,
    build_vocab,
    load_groups,
    load_model,
    load_pairs,
    load_reference_vocab,
    load_run_config,
    load_simset,
    load_vocab,
    load_wordlist,
    save_curve,
    save_model,
    save_vocab,
)
from charngram.io import escape_ngram, unescape_ngram

from conftest import random_model


# --- n-gram field escaping ---------------------------------------------------


def test_escape_worked_examples():
    assert escape_ngram(" a") == r"\sa"
    assert escape_ngram("a b") == r"a\sb"
    assert escape_ngram("a\\b") == r"a\\b"
    assert unescape_ngram(r"\sa\\") == " a\\"


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12))
def test_escape_round_trip(ngram):
    assert unescape_ngram(escape_ngram(ngram)) == ngram


def test_escaped_form_has_no_bare_specials():
    out = escape_ngram(" a \\ b ")
    assert " " not in out
    i = 0
    while i < len(out):  # every backslash introduces a valid two-char escape
        if out[i] == "\\":
            assert out[i + 1] in ("\\", "s")
            i += 2
        else:
            i += 1


def test_unescape_rejects_malformed():
    with pytest.raises(DataError, match="dangling escape"):
        unescape_ngram("ab\\")
    with pytest.raises(DataError, match=r"bad escape \\t"):
        unescape_ngram(r"a\tb")


# --- vocabulary TSV ----------------------------------------------------------


@pytest.fixture
def vocab():
    return build_vocab(["the cat sat", "a black cat", "back\\slash"], (2, 3), MinCount(1))


def test_vocab_round_trip(tmp_path, vocab):
    path = tmp_path / "vocab.tsv"
    save_vocab(vocab, path)
    loaded = load_vocab(path)
    assert loaded == vocab
    assert loaded.entries == vocab.entries  # counts and order preserved
    assert loaded.fingerprint == vocab.fingerprint


def test_vocab_tsv_is_readable(tmp_path, vocab):
    path = tmp_path / "vocab.tsv"
    save_vocab(vocab, path)
    first = path.read_text().splitlines()[0].split("\t")
    assert len(first) == 3
    assert first[1].isdigit() and first[2].isdigit()


@pytest.mark.parametrize(
    "content,match",
    [
        ("ab\t2\n", r":1: expected 3 tab-separated fields"),
        ("ab\ttwo\t1\n", r":1: non-integer order or count"),
        ("ab\t2\t1\nab\t2\t1\n", "duplicate"),
        ("", "empty dataset"),
    ],
)
def test_vocab_parse_errors(tmp_path, content, match):
    path = tmp_path / "bad.tsv"
    path.write_text(content)
    with pytest.raises(DataError, match=match):
        load_vocab(path)


def test_vocab_missing_file(tmp_path):
    with pytest.raises(DataError, match="vocab.tsv"):
        load_vocab(tmp_path / "vocab.tsv")


# --- binary model format -----------------------------------------------------


def test_model_round_trip(tmp_path, vocab):
    model = random_model(np.random.default_rng(0), vocab, dim=5)
    path = tmp_path / "m.bin"
    save_model(model, vocab, path)
    loaded, loaded_vocab = load_model(path)

    assert loaded.activation == model.activation
    assert loaded.weights.dtype == np.float64
    np.testing.assert_array_equal(loaded.weights, model.weights.astype("<f4").astype(np.float64))
    np.testing.assert_array_equal(loaded.bias, model.bias.astype("<f4").astype(np.float64))
    assert [e[:2] for e in loaded_vocab.entries] == [e[:2] for e in vocab.entries]
    assert all(count == 0 for _, _, count in loaded_vocab.entries)
    assert loaded_vocab.fingerprint == vocab.fingerprint


def test_model_resave_is_byte_identical(tmp_path, vocab):
    model = random_model(np.random.default_rng(1), vocab, dim=4)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(model, vocab, p1)
    loaded, loaded_vocab = load_model(p1)
    save_model(loaded, loaded_vocab, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_rejects_unbound_model(tmp_path, vocab):
    model = random_model(np.random.default_rng(2), vocab, dim=4)
    other = build_vocab(["zebra quilt"], (2,), MinCount(1))
    with pytest.raises(DataError, match="fingerprint"):
        save_model(model, other, tmp_path / "m.bin")


@pytest.fixture
def model_bytes(tmp_path, vocab):
    model = random_model(np.random.default_rng(3), vocab, dim=4)
    path = tmp_path / "good.bin"
    save_model(model, vocab, path)
    return path.read_bytes()


def _expect_corrupt(tmp_path, payload, match):
    path = tmp_path / "bad.bin"
    path.write_bytes(payload)
    with pytest.raises(ModelFormatError, match=match):
        load_model(path)


def test_wrong_magic(tmp_path, model_bytes):
    _expect_corrupt(tmp_path, b"XXXX" + model_bytes[4:], "not a model file")


def test_unsupported_version(tmp_path, model_bytes):
    tampered = model_bytes[:4] + struct.pack("<I", 9) + model_bytes[8:]
    _expect_corrupt(tmp_path, tampered, "unsupported version 9")


def test_truncated_file(tmp_path, model_bytes):
    _expect_corrupt(
        tmp_path, model_bytes[: len(model_bytes) // 2], r"corrupt model file \(expected"
    )


def _oversized_header() -> bytes:
    """40 bytes: a tanh header declaring |V| = 2**40 rows of dimension 2, then a bias."""
    return struct.pack("<4sIIB3xQQ", b"CHRG", 1, 2, 1, 0, 2**40) + b"\x00" * 8


def test_oversized_header(tmp_path):
    # sizes are checked against the file length before any array is allocated
    _expect_corrupt(tmp_path, _oversized_header(), r"corrupt model file \(expected at least")


def test_trailing_garbage(tmp_path, model_bytes):
    _expect_corrupt(tmp_path, model_bytes + b"\x00", r"\(trailing data\)")


def test_unknown_activation_code(tmp_path, model_bytes):
    for code in (2, 7):  # 2 was relu, which no model can use any more
        tampered = model_bytes[:12] + bytes([code]) + model_bytes[13:]
        _expect_corrupt(tmp_path, tampered, rf"unknown activation code {code}")


def test_fingerprint_mismatch(tmp_path, model_bytes):
    stored = struct.unpack_from("<Q", model_bytes, 16)[0]
    tampered = (
        model_bytes[:16] + struct.pack("<Q", stored ^ 0xDEADBEEF) + model_bytes[24:]
    )
    _expect_corrupt(tmp_path, tampered, "vocabulary fingerprint mismatch")


def test_corrupt_messages_are_distinct(tmp_path, model_bytes):
    payloads = {
        "magic": b"ZZZZ" + model_bytes[4:],
        "version": model_bytes[:4] + struct.pack("<I", 3) + model_bytes[8:],
        "short": model_bytes[:40],
    }
    messages = {}
    for name, payload in payloads.items():
        path = tmp_path / f"{name}.bin"
        path.write_bytes(payload)
        with pytest.raises(ModelFormatError) as err:
            load_model(path)
        messages[name] = str(err.value).split(": ", 1)[1]
    assert len(set(messages.values())) == 3


def test_model_missing_file(tmp_path):
    with pytest.raises(DataError, match="nope.bin"):
        load_model(tmp_path / "nope.bin")


# --- text dataset loaders ----------------------------------------------------


def test_load_pairs(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("left one\tright one\nsecond\tpair\n")
    ds = load_pairs(path)
    assert ds.pairs == [("left one", "right one"), ("second", "pair")]


@pytest.mark.parametrize(
    "content,match",
    [
        ("only-one-field\n", r":1: expected 2 tab-separated fields"),
        ("a\tb\t c\n", r":1: expected 2"),
        ("a\t \n", r":1: empty phrase"),
        ("", "empty dataset"),
    ],
)
def test_load_pairs_errors(tmp_path, content, match):
    path = tmp_path / "pairs.tsv"
    path.write_text(content)
    with pytest.raises(DataError, match=match):
        load_pairs(path)


def test_load_pairs_error_line_numbers(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("ok\tfine\nbroken line\n")
    with pytest.raises(DataError, match=r"pairs\.tsv:2:"):
        load_pairs(path)


def test_load_simset(tmp_path):
    path = tmp_path / "sim.tsv"
    path.write_text("tiger\tcat\t7.35\nbook\tpaper\t5.0\n")
    ds = load_simset(path, scale=(0.0, 10.0))
    assert ds.name == "sim"
    assert ds.items == [("tiger", "cat", 7.35), ("book", "paper", 5.0)]
    assert ds.score_scale == (0.0, 10.0)
    named = load_simset(path, scale=(0.0, 10.0), name="custom")
    assert named.name == "custom"


@pytest.mark.parametrize(
    "content,match",
    [
        ("a\tb\n", "expected 3 tab-separated fields"),
        ("a\tb\tmaybe\n", r"bad gold score 'maybe'"),
        ("a\tb\t9.1\n", r"outside scale \[0\.0, 5\.0\]"),
        ("", "empty dataset"),
    ],
)
def test_load_simset_errors(tmp_path, content, match):
    path = tmp_path / "sim.tsv"
    path.write_text(content)
    with pytest.raises(DataError, match=match):
        load_simset(path)


def test_load_wordlist_and_reference(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("Apple\n\n  pear \nplum\n")
    assert load_wordlist(path) == ["Apple", "pear", "plum"]
    ref = load_reference_vocab(path)
    assert ref.tokens == frozenset({"apple", "pear", "plum"})
    empty = tmp_path / "none.txt"
    empty.write_text("\n\n")
    with pytest.raises(DataError, match="empty dataset"):
        load_wordlist(empty)


def test_load_groups(tmp_path):
    path = tmp_path / "groups.tsv"
    path.write_text("news2014\tnews\n\nforum-a\tforums\n")
    assert load_groups(path) == {"news2014": "news", "forum-a": "forums"}
    bad = tmp_path / "bad.tsv"
    bad.write_text("no-tab-here\n")
    with pytest.raises(DataError, match="expected 2 tab-separated fields"):
        load_groups(bad)


def test_save_curve_format(tmp_path):
    curve = TrainingCurve()
    curve.add(100, "train_loss", 0.123456789123)
    curve.add(200, "dev", 1.0)
    path = tmp_path / "curve.tsv"
    save_curve(curve, path)
    assert path.read_text() == "100\ttrain_loss\t0.123456789\n200\tdev\t1\n"


def test_non_utf8_input(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_bytes(b"\xff\xfe broken")
    with pytest.raises(DataError, match="not valid UTF-8"):
        load_pairs(path)


# --- run configuration -------------------------------------------------------


def test_run_config_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# training setup\n"
        "pairs=data/pairs.tsv\n"
        "dim=50\n"
        "lambda=1e-4\n"
        "curriculum=true\n"
        "\n"
        "margin=0.6\n"
    )
    cfg = load_run_config(path)
    assert cfg.pairs == "data/pairs.tsv"
    assert cfg.dim == 50
    assert cfg.reg_lambda == 1e-4
    assert cfg.curriculum is True
    assert cfg.margin == 0.6
    assert cfg.batch == 100  # untouched defaults survive


@pytest.mark.parametrize(
    "content,match",
    [
        ("colour=blue\n", r":1: unknown config key 'colour'"),
        ("dim fifty\n", r":1: expected key=value"),
        ("dim=fifty\n", r":1: bad value for dim"),
        ("curriculum=maybe\n", r"bad value for curriculum: bad boolean 'maybe'"),
    ],
)
def test_run_config_errors(tmp_path, content, match):
    path = tmp_path / "run.cfg"
    path.write_text(content)
    with pytest.raises(DataError, match=match):
        load_run_config(path)


def test_run_config_lines_round_trip(tmp_path):
    cfg = RunConfig(pairs="p.tsv", out="m.bin", dim=25, reg_lambda=0.5, curriculum=True)
    lines = cfg.to_lines()
    assert "lambda=0.5" in lines
    assert "curriculum=true" in lines
    assert not any(line.startswith("reg_lambda") for line in lines)
    path = tmp_path / "echo.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert load_run_config(path) == cfg


def test_validate_paths(tmp_path):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a\tb\n")
    good = RunConfig(pairs=str(pairs), out=str(tmp_path / "model.bin"))
    good.validate_paths()

    missing_input = RunConfig(pairs=str(tmp_path / "absent.tsv"))
    with pytest.raises(DataError, match="pairs file not found"):
        missing_input.validate_paths()

    bad_out = RunConfig(pairs=str(pairs), out=str(tmp_path / "no_dir" / "model.bin"))
    with pytest.raises(DataError, match="output directory does not exist"):
        bad_out.validate_paths()
