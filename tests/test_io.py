import os
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
from charngram import io as charngram_io
from charngram.cli import main
from charngram.io import escape_ngram, unescape_ngram

from conftest import random_model, save_v1


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
def model_files(tmp_path, vocab) -> dict[int, bytes]:
    """The bytes of one model as written in each format version."""
    model = random_model(np.random.default_rng(3), vocab, dim=4)
    out = {}
    for version, write in ((1, save_v1), (2, save_model)):
        path = tmp_path / f"good{version}.bin"
        write(model, vocab, path)
        out[version] = path.read_bytes()
    return out


def _expect_corrupt(tmp_path, payload, match):
    path = tmp_path / "bad.bin"
    path.write_bytes(payload)
    with pytest.raises(ModelFormatError, match=match):
        load_model(path)


def _data_offset(payload: bytes) -> int:
    """Where a version-2 file's bias starts."""
    table_len = struct.unpack_from("<Q", payload, 40)[0]
    return -(-(48 + table_len) // 64) * 64


def test_wrong_magic(tmp_path, model_files):
    for model_bytes in model_files.values():
        _expect_corrupt(tmp_path, b"XXXX" + model_bytes[4:], "not a model file")


def test_unsupported_version(tmp_path, model_files):
    for model_bytes in model_files.values():
        tampered = model_bytes[:4] + struct.pack("<I", 9) + model_bytes[8:]
        _expect_corrupt(tmp_path, tampered, "unsupported version 9")


def test_truncated_file(tmp_path, model_files):
    for model_bytes in model_files.values():
        _expect_corrupt(
            tmp_path, model_bytes[: len(model_bytes) // 2], r"corrupt model file \(expected"
        )


def _oversized_header(version: int) -> bytes:
    """A tanh header declaring |V| = 2**40 rows of dimension 2, then a bias."""
    head = struct.pack("<4sIIB3xQQ", b"CHRG", version, 2, 1, 0, 2**40)
    if version == 2:  # case mode lower, reserved bytes, an empty table, padding
        head += struct.pack("<B7xQ", 1, 0) + b"\x00" * 16
    return head + b"\x00" * 8


def test_oversized_header(tmp_path):
    # sizes are checked against the file length before any array is allocated
    _expect_corrupt(tmp_path, _oversized_header(1), r"corrupt model file \(expected at least")
    size = 64 + 4 * 2 * (2**40 + 1)
    _expect_corrupt(
        tmp_path, _oversized_header(2), rf"corrupt model file \(expected {size} bytes\)"
    )


def test_dimension_zero_is_rejected(tmp_path, vocab):
    # each writer accepts a d = 0 model; neither loader does
    empty = Model(weights=np.zeros((len(vocab), 0)), bias=np.zeros(0), activation="tanh",
                  vocab_fingerprint=vocab.fingerprint)
    for write in (save_v1, save_model):
        path = tmp_path / "d0.bin"
        write(empty, vocab, path)
        _expect_corrupt(tmp_path, path.read_bytes(), r"corrupt model file \(dimension 0\)")
    # with d = 0 the size check would not bound |V|: a 2**40-row header stops first
    header = bytearray(_oversized_header(2))
    struct.pack_into("<I", header, 8, 0)
    _expect_corrupt(tmp_path, bytes(header[:64]), r"corrupt model file \(dimension 0\)")


def test_trailing_garbage(tmp_path, model_files):
    for model_bytes in model_files.values():
        _expect_corrupt(tmp_path, model_bytes + b"\x00", r"\(trailing data\)")


def test_unknown_activation_code(tmp_path, model_files):
    for model_bytes in model_files.values():
        for code in (2, 7):  # 2 was relu, which no model can use any more
            tampered = model_bytes[:12] + bytes([code]) + model_bytes[13:]
            _expect_corrupt(tmp_path, tampered, rf"unknown activation code {code}")


def test_fingerprint_mismatch(tmp_path, model_files):
    for model_bytes in model_files.values():
        stored = struct.unpack_from("<Q", model_bytes, 16)[0]
        tampered = (
            model_bytes[:16] + struct.pack("<Q", stored ^ 0xDEADBEEF) + model_bytes[24:]
        )
        _expect_corrupt(tmp_path, tampered, "vocabulary fingerprint mismatch")


def test_corrupt_messages_are_distinct(tmp_path, model_files):
    for model_bytes in model_files.values():
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


def _checked_offsets(payload: bytes) -> set[int]:
    """Offsets of the bytes a loader can always validate.

    That is the header except its padding and the codes with more than one
    valid value: the activation code, and in version 2 the case mode. In
    version 1 it is then each record's head and n-gram bytes; in version 2
    the n-gram table, hashed into the fingerprint, and the zero padding after
    it. The rest are float32 parameters: any finite value loads, and a flip
    that makes one an inf or a NaN is rejected.
    """
    version = struct.unpack_from("<I", payload, 4)[0]
    dim = struct.unpack_from("<I", payload, 8)[0]
    vocab_size = struct.unpack_from("<Q", payload, 24)[0]
    offsets = {*range(0, 12), *range(16, 32)}
    if version == 2:
        offsets.update(range(33, _data_offset(payload)))
        assert _data_offset(payload) + 4 * dim * (vocab_size + 1) == len(payload)
        return offsets
    pos = 32 + 4 * dim
    for _ in range(vocab_size):
        byte_len = struct.unpack_from("<H", payload, pos + 1)[0]
        offsets.update(range(pos, pos + 3 + byte_len))
        pos += 3 + byte_len + 4 * dim
    assert pos == len(payload)
    return offsets


# (offset, struct format, the other values that still load) of the header's
# version, d, activation code, fingerprint and |V|; version 2 adds its case
# mode and table length
_HEADER_FIELDS = {
    1: [(4, "<I", ()), (8, "<I", ()), (12, "<B", (0, 1)), (16, "<Q", ()), (24, "<Q", ())],
}
_HEADER_FIELDS[2] = _HEADER_FIELDS[1] + [(32, "<B", (0, 1, 2)), (40, "<Q", ())]


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_model_files_fail_only_with_model_format_error(tmp_path, model_files, data):
    version = data.draw(st.sampled_from(sorted(model_files)))
    model_bytes = model_files[version]
    payload = bytearray(model_bytes)
    kind = data.draw(st.sampled_from(["truncate", "header", "flip"]))
    if kind == "truncate":
        del payload[data.draw(st.integers(0, len(payload) - 1)):]
        must_fail = True
    elif kind == "header":
        offset, fmt, loadable = data.draw(st.sampled_from(_HEADER_FIELDS[version]))
        old = struct.unpack_from(fmt, payload, offset)[0]
        top = 2 ** (8 * struct.calcsize(fmt)) - 1
        value = data.draw(st.integers(0, top).filter(lambda v: v != old))
        struct.pack_into(fmt, payload, offset, value)
        must_fail = value not in loadable
    else:
        pos = data.draw(st.integers(0, len(payload) - 1))
        payload[pos] ^= data.draw(st.integers(1, 255))
        must_fail = pos in _checked_offsets(model_bytes)
    path = tmp_path / "fuzzed.bin"
    path.write_bytes(bytes(payload))
    try:
        load_model(path)
    except ModelFormatError:
        return
    assert not must_fail, f"{kind} mutation of a version-{version} file loaded without an error"


# --- format version 2 --------------------------------------------------------


def _assert_same_load(got, want):
    (model, vocab), (want_model, want_vocab) = got, want
    assert model.weights.tobytes() == want_model.weights.tobytes()
    assert model.bias.tobytes() == want_model.bias.tobytes()
    assert model.weights.shape == want_model.weights.shape
    assert model.activation == want_model.activation
    assert model.vocab_fingerprint == want_model.vocab_fingerprint
    assert vocab.entries == want_vocab.entries
    assert vocab.fingerprint == want_vocab.fingerprint


@pytest.mark.parametrize("block_values", [17, 10, 5])
def test_v2_round_trip_across_blocks(tmp_path, vocab, monkeypatch, block_values):
    # d = 5: blocks of 3 rows (17 values), 2 rows or 1 row, so the matrix
    # spans many blocks and, with 3-row blocks, ends in a partial one
    model = random_model(np.random.default_rng(4), vocab, dim=5)
    whole = tmp_path / "whole.bin"
    save_model(model, vocab, whole)
    monkeypatch.setattr(charngram_io, "_BLOCK_VALUES", block_values)
    blocked = tmp_path / "blocked.bin"
    save_model(model, vocab, blocked)
    assert blocked.read_bytes() == whole.read_bytes()
    assert len(vocab) % 3 != 0 and len(vocab) > 10
    loaded, loaded_vocab = load_model(blocked)
    np.testing.assert_array_equal(loaded.weights, model.weights.astype("<f4").astype(np.float64))
    np.testing.assert_array_equal(loaded.bias, model.bias.astype("<f4").astype(np.float64))
    monkeypatch.undo()
    _assert_same_load((loaded, loaded_vocab), load_model(whole))


@pytest.mark.parametrize("case_mode, code", [(None, 0), ("lower", 1), ("preserve", 2)])
def test_v2_records_the_case_mode(tmp_path, vocab, case_mode, code):
    model = random_model(np.random.default_rng(5), vocab, dim=3)
    model.case_mode = case_mode
    path = tmp_path / "m.bin"
    save_model(model, vocab, path)
    assert path.read_bytes()[32] == code
    assert load_model(path)[0].case_mode == case_mode


def test_v2_rejects_unknown_codes_and_non_zero_spare_bytes(tmp_path, model_files):
    model_bytes = model_files[2]
    _expect_corrupt(
        tmp_path, model_bytes[:32] + b"\x03" + model_bytes[33:], "unknown case mode code 3"
    )
    for pos in range(33, 40):
        tampered = bytearray(model_bytes)
        tampered[pos] = 1
        _expect_corrupt(tmp_path, bytes(tampered), r"\(non-zero reserved bytes\)")
    table_end = 48 + struct.unpack_from("<Q", model_bytes, 40)[0]
    assert _data_offset(model_bytes) > table_end  # this vocabulary leaves padding
    for pos in range(table_end, _data_offset(model_bytes)):
        tampered = bytearray(model_bytes)
        tampered[pos] = 0x80
        _expect_corrupt(tmp_path, bytes(tampered), r"\(non-zero padding\)")


def test_v2_file_that_shrinks_while_loading_is_a_short_read(tmp_path, model_files, monkeypatch):
    model_bytes = model_files[2]
    real_fstat = os.fstat
    for cut in (60, _data_offset(model_bytes) + 8, len(model_bytes) - 1):
        path = tmp_path / "shrinking.bin"
        path.write_bytes(model_bytes[:cut])
        # the size check sees the full file; the reads that follow do not
        monkeypatch.setattr(
            charngram_io.os, "fstat",
            lambda fd: os.stat_result((0,) * 6 + (len(model_bytes),) + (0,) * 3),
        )
        with pytest.raises(ModelFormatError, match=r"\(short read\)"):
            load_model(path)
        monkeypatch.setattr(charngram_io.os, "fstat", real_fstat)


def test_v2_loaded_arrays_are_writeable(tmp_path, vocab):
    path = tmp_path / "m.bin"
    save_model(random_model(np.random.default_rng(6), vocab, dim=4), vocab, path)
    model, _ = load_model(path)
    assert model.weights.flags.writeable and model.bias.flags.writeable
    model.weights[0, 0] = 1.5
    model.bias[:] = 0.0
    assert model.weights[0, 0] == 1.5


def test_v1_file_resaved_as_v2_loads_bit_equal(tmp_path, vocab):
    # the second vocabulary holds characters of 2, 3 and 4 UTF-8 bytes and an
    # n-gram of 280 bytes, whose length needs the high byte of the table's
    # 2-byte length field that the version-1 records are rebuilt into
    wide = NGramVocab([("é€", 2, 1), ("日本語", 3, 1), ("𝄞a𝄞", 3, 1), ("𝄞" * 70, 70, 1)])
    for bound in (vocab, wide):
        model = random_model(np.random.default_rng(7), bound, dim=6, activation="linear")
        old = tmp_path / "old.bin"
        save_v1(model, bound, old)
        from_v1 = load_model(old)
        assert from_v1[0].case_mode is None
        assert from_v1[1].fingerprint == bound.fingerprint
        new = tmp_path / "new.bin"
        save_model(*from_v1, new)
        assert struct.unpack_from("<I", new.read_bytes(), 4)[0] == 2
        from_v2 = load_model(new)
        _assert_same_load(from_v2, from_v1)
        assert from_v2[0].case_mode is None


def test_v2_loaded_fingerprint_is_the_entries_fingerprint(tmp_path, vocab):
    path = tmp_path / "m.bin"
    save_model(random_model(np.random.default_rng(8), vocab, dim=2), vocab, path)
    _, loaded_vocab = load_model(path)
    assert loaded_vocab.fingerprint == NGramVocab(loaded_vocab.entries).fingerprint
    assert loaded_vocab.fingerprint == vocab.fingerprint


def test_non_finite_parameters_are_rejected_without_a_warning(tmp_path, vocab, model_files, capsys):
    quiet_nan, inf, minus_inf = (struct.pack("<f", v) for v in (np.nan, np.inf, -np.inf))
    signalling_nan = struct.pack("<I", 0x7F800001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for version, model_bytes in model_files.items():
            first_bias = _data_offset(model_bytes) if version == 2 else 32
            for pos in (first_bias, len(model_bytes) - 4):  # then the last weight
                for value in (quiet_nan, inf, minus_inf, signalling_nan):
                    tampered = model_bytes[:pos] + value + model_bytes[pos + 4 :]
                    _expect_corrupt(tmp_path, tampered, r"\(non-finite parameter\)")
        # the last file written: version 2 with a signalling NaN as its last weight
        rc = main(["embed", "--model", str(tmp_path / "bad.bin"), "the cat"])
        assert rc == 2
        assert "(non-finite parameter)" in capsys.readouterr().err

        # a weight past the float32 range would be written as inf
        model = random_model(np.random.default_rng(9), vocab, dim=4)
        model.weights[2, 1] = 1e200
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(DataError, match="not finite in float32"):
            save_model(model, vocab, out / "big.bin")
        assert list(out.iterdir()) == []


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


def test_load_groups_rejects_a_dataset_listed_twice(tmp_path):
    path = tmp_path / "groups.tsv"
    path.write_text("news2014\tnews\nforum-a\tforums\nnews2014\tforums\n")
    with pytest.raises(DataError, match=r"groups\.tsv:3: dataset 'news2014' is already grouped"):
        load_groups(path)


@pytest.mark.parametrize("content, match", [
    ("news2014\tnews\nforum-a\t \n", r"groups\.tsv:2: empty group name"),
    ("news2014\tnews\n \tforums\n", r"groups\.tsv:2: empty dataset name"),
    ("\tnews\n", r"groups\.tsv:1: empty dataset name"),
])
def test_load_groups_rejects_an_empty_name(tmp_path, content, match):
    # an empty group would be reported under an empty first field
    path = tmp_path / "groups.tsv"
    path.write_text(content)
    with pytest.raises(DataError, match=match):
        load_groups(path)


def test_save_vocab_of_an_empty_vocabulary_is_a_data_error_and_writes_nothing(tmp_path):
    # load_vocab would reject the file as an empty dataset
    with pytest.warns(UserWarning, match="empty"):
        empty = build_vocab(["q"], {4}, MinCount(9))
    with pytest.raises(DataError, match="empty vocabulary"):
        save_vocab(empty, tmp_path / "vocab.tsv")
    assert list(tmp_path.iterdir()) == []


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
        ("dim=10\ndim=20\n", r":2: config key 'dim' already set on line 1"),
        ("lambda=1e-4\n# again\n lambda = 0\n", r":3: config key 'lambda' already set on line 1"),
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


# --- atomic writes -----------------------------------------------------------


def _pairs_file(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("the cat\ta cat\n")
    return path


def test_a_write_through_a_symlink_replaces_its_final_target(tmp_path, vocab):
    # a chain of two links to a file, and a link to a file not there yet
    real = tmp_path / "real.tsv"
    real.write_text("old\n")
    (tmp_path / "middle.tsv").symlink_to("real.tsv")
    (tmp_path / "link.tsv").symlink_to("middle.tsv")
    (tmp_path / "dangling.tsv").symlink_to("made.tsv")
    save_vocab(vocab, tmp_path / "link.tsv")
    save_vocab(vocab, tmp_path / "dangling.tsv")
    for link in ("link.tsv", "middle.tsv", "dangling.tsv"):
        assert (tmp_path / link).is_symlink()
    assert os.readlink(tmp_path / "link.tsv") == "middle.tsv"
    assert load_vocab(real).entries == load_vocab(tmp_path / "made.tsv").entries == vocab.entries
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dangling.tsv", "link.tsv", "made.tsv", "middle.tsv", "real.tsv",
    ]


@pytest.mark.parametrize("kind", ["fifo", "directory", "link to a fifo"])
def test_a_target_that_is_not_a_regular_file_is_refused_before_any_write(tmp_path, vocab, kind):
    special = tmp_path / "special"
    if kind == "directory":
        special.mkdir()
    else:
        os.mkfifo(special)
    out = special
    if kind == "link to a fifo":
        out = tmp_path / "out.tsv"
        out.symlink_to("special")
    before = sorted(tmp_path.iterdir())
    for save in (lambda: save_vocab(vocab, out), lambda: save_curve(TrainingCurve(), out)):
        with pytest.raises(DataError, match="not a regular file"):
            save()
    assert sorted(tmp_path.iterdir()) == before  # no temp file, nothing replaced
    assert special.is_dir() if kind == "directory" else special.is_fifo()
    rc = main(["build-vocab", "--input", str(_pairs_file(tmp_path)), "--out", str(out)])
    assert rc == 2


def test_train_refuses_an_output_that_is_not_a_regular_file_up_front(tmp_path, capsys):
    os.mkfifo(tmp_path / "model.bin")
    pairs = _pairs_file(tmp_path)
    with pytest.raises(DataError, match="model.bin: not a regular file"):
        RunConfig(pairs=str(pairs), out=str(tmp_path / "model.bin")).validate_paths()
    rc = main(["train", "--pairs", str(pairs), "--out", str(tmp_path / "model.bin")])
    assert rc == 2
    assert "not a regular file" in capsys.readouterr().err


def test_written_files_get_the_umask_mode_or_keep_their_own(tmp_path, vocab):
    model = random_model(np.random.default_rng(0), vocab, 4)
    kept = tmp_path / "kept.tsv"
    kept.write_text("old\n")
    kept.chmod(0o640)
    old_umask = os.umask(0o022)
    try:
        save_model(model, vocab, tmp_path / "m.bin")
        save_vocab(vocab, tmp_path / "v.tsv")
        save_curve(TrainingCurve(), tmp_path / "c.tsv")
        save_vocab(vocab, kept)
        os.umask(0o077)
        save_vocab(vocab, tmp_path / "private.tsv")
    finally:
        os.umask(old_umask)
    modes = {p.name: p.stat().st_mode & 0o7777 for p in tmp_path.iterdir()}
    assert modes == {
        "m.bin": 0o644, "v.tsv": 0o644, "c.tsv": 0o644, "kept.tsv": 0o640, "private.tsv": 0o600,
    }
    assert load_vocab(kept).entries == vocab.entries


def test_a_signal_raised_inside_a_write_leaves_no_temp_file(tmp_path):
    def interrupted(handle):
        handle.write(b"partial")
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        charngram_io._atomic_write(tmp_path / "out.tsv", interrupted)
    assert list(tmp_path.iterdir()) == []
