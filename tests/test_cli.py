import contextlib
import io
import os
import re
import signal
import struct
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import charngram
from charngram import (
    RunConfig, embed_matrix, encode, load_model, load_vocab, normalize,
)
from charngram.cli import main
from charngram.io import config_key
from charngram.synthetic import make_task, training_pairs

from conftest import count_matrix, save_v1

PAIRS = """\
the cat sat\ta cat sat down
dogs run fast\tthe dog runs
birds sing\ta bird sings
cats nap\tthe cat naps
fish swim\tfishes swimming
a black cat\tblack cats
loud dogs\ta loud dog
deep water\tthe deep sea
"""

WORD_SIM = """\
cat\tcats\t9.5
cat\tdog\t3.0
fish\tbark\t1.0
loud\tlouder\t8.0
deep\tdown\t2.5
"""

STS_A = """\
the cat sat\ta cat sat down\t4.5
dogs run fast\tbirds sing\t1.0
fish swim\tfishes swimming\t4.0
loud dogs\tdeep water\t0.5
"""

STS_B = """\
a black cat\tblack cats\t5.0
cats nap\tdogs run\t1.5
deep water\tthe deep sea\t4.0
birds sing\ta bird sings\t4.5
"""


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with data files, a built vocabulary, and a trained model."""
    root = tmp_path_factory.mktemp("cli")
    (root / "pairs.tsv").write_text(PAIRS)
    (root / "dev.tsv").write_text(PAIRS)
    (root / "word.tsv").write_text(WORD_SIM)
    (root / "words.txt").write_text("cat\ncats\ndog\ndogs\nfish\nbark\nloud\ndeep\n")
    sts = root / "sts"
    sts.mkdir()
    (sts / "alpha.tsv").write_text(STS_A)
    (sts / "beta.tsv").write_text(STS_B)
    (root / "groups.tsv").write_text("alpha\tnews\nbeta\tnews\n")

    assert main([
        "build-vocab", "--input", str(root / "pairs.tsv"),
        "--orders", "2,3", "--out", str(root / "vocab.tsv"),
    ]) == 0
    assert main([
        "train", "--pairs", str(root / "pairs.tsv"), "--vocab", str(root / "vocab.tsv"),
        "--out", str(root / "model.bin"), "--curve", str(root / "curve.tsv"),
        "--dim", "8", "--batch", "4", "--epochs", "2", "--seed", "7",
    ]) == 0
    return root


# --- happy paths -------------------------------------------------------------


def test_build_vocab_output(ws, capsys):
    vocab = load_vocab(ws / "vocab.tsv")
    assert len(vocab) > 0
    assert set(vocab.orders) == {2, 3}


def test_train_outputs(ws):
    model, vocab = load_model(ws / "model.bin")
    assert model.dim == 8
    assert vocab.fingerprint == load_vocab(ws / "vocab.tsv").fingerprint
    curve = (ws / "curve.tsv").read_text().splitlines()
    assert any("epoch_mean_batch_loss" in line for line in curve)


def test_train_stdout_and_stderr_shape(ws, tmp_path, capsys):
    rc = main([
        "train", "--pairs", str(ws / "pairs.tsv"), "--vocab", str(ws / "vocab.tsv"),
        "--out", str(tmp_path / "m.bin"), "--dim", "6", "--batch", "4",
        "--epochs", "2", "--seed", "1",
    ])
    out, err = capsys.readouterr()
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2
    for i, line in enumerate(lines, start=1):
        fields = line.split("\t")
        assert fields[0] == f"epoch {i}"
        assert fields[1] == "mean_batch_loss"
        float(fields[2])
    assert "dim=6" in err  # effective config echoed to stderr
    assert "sampling=max" in err


def test_train_byte_identical_given_seed(ws, tmp_path, capsys):
    outs = []
    stdouts = []
    for name in ("r1.bin", "r2.bin"):
        rc = main([
            "train", "--pairs", str(ws / "pairs.tsv"), "--vocab", str(ws / "vocab.tsv"),
            "--out", str(tmp_path / name), "--dim", "6", "--batch", "4",
            "--epochs", "2", "--seed", "3",
        ])
        assert rc == 0
        stdouts.append(capsys.readouterr().out)
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]
    assert stdouts[0] == stdouts[1]


def test_train_config_file_and_override(ws, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"pairs={ws / 'pairs.tsv'}\n"
        f"vocab={ws / 'vocab.tsv'}\n"
        f"out={tmp_path / 'from_cfg.bin'}\n"
        "dim=4\nepochs=1\nbatch=4\n"
    )
    rc = main(["train", "--config", str(cfg), "--dim", "6"])
    _, err = capsys.readouterr()
    assert rc == 0
    assert "dim=6" in err and "dim=4" not in err  # flag beats file
    model, _ = load_model(tmp_path / "from_cfg.bin")
    assert model.dim == 6


def test_train_builds_vocab_when_not_given(ws, tmp_path, capsys):
    rc = main([
        "train", "--pairs", str(ws / "pairs.tsv"), "--out", str(tmp_path / "m.bin"),
        "--dim", "5", "--batch", "4", "--epochs", "1", "--orders", "2",
        "--policy", "mincount:2",
    ])
    assert rc == 0
    _, vocab = load_model(tmp_path / "m.bin")
    assert set(vocab.orders) == {2}
    assert all(order == 2 for _, order, _ in vocab.entries)


def test_train_dev_hook_curve(ws, tmp_path):
    curve = tmp_path / "curve.tsv"
    rc = main([
        "train", "--pairs", str(ws / "pairs.tsv"), "--vocab", str(ws / "vocab.tsv"),
        "--out", str(tmp_path / "m.bin"), "--eval-pairs", str(ws / "dev.tsv"),
        "--curve", str(curve), "--dim", "4", "--batch", "4", "--epochs", "1",
    ])
    assert rc == 0
    metrics = {line.split("\t")[1] for line in curve.read_text().splitlines()}
    assert "dev_mean_cosine" in metrics


def test_eval_word(ws, capsys):
    rc = main([
        "eval", "word", "--model", str(ws / "model.bin"),
        "--dataset", str(ws / "word.tsv"),
    ])
    out, _ = capsys.readouterr()
    assert rc == 0
    name, metric, value = out.strip().split("\t")
    assert (name, metric) == ("word", "spearman")
    assert -1.0 <= float(value) <= 1.0


def test_eval_sts(ws, capsys):
    rc = main([
        "eval", "sts", "--model", str(ws / "model.bin"),
        "--datasets", str(ws / "sts"), "--groups", str(ws / "groups.tsv"),
    ])
    out, _ = capsys.readouterr()
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("alpha\tpearson\t")
    assert lines[1].startswith("beta\tpearson\t")
    assert lines[2].startswith("news\taverage_pearson\t")
    assert lines[3].startswith("Average\taverage_pearson\t")
    assert len(lines) == 4


@pytest.mark.parametrize("groups, message", [
    ("alpha\tnews\nbeta\tAverage\n", "error: group 'Average' would be overwritten"),
    ("alpha\tnews\nbeta\tnews\nalpha\tweb\n", "groups.tsv:3: dataset 'alpha' is already grouped"),
    # an empty group would print a line whose first field is empty
    ("alpha\tnews\nbeta\t \n", "groups.tsv:2: empty group name"),
    # a misspelt dataset name would drop its group from the report
    ("alpha\tnews\nbeta\tnews\nalhpa\tforum\n",
     "error: grouped dataset 'alhpa' is not among the datasets"),
])
def test_eval_sts_groups_that_would_lose_data_exit_2(ws, tmp_path, capsys, groups, message):
    (tmp_path / "groups.tsv").write_text(groups)
    rc = main([
        "eval", "sts", "--model", str(ws / "model.bin"),
        "--datasets", str(ws / "sts"), "--groups", str(tmp_path / "groups.tsv"),
    ])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert message in err


def test_eval_bins_length(ws, capsys):
    rc = main([
        "eval", "bins", "--model", str(ws / "model.bin"),
        "--datasets", str(ws / "sts"), "--by", "length",
    ])
    out, _ = capsys.readouterr()
    assert rc == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert [r[0] for r in rows] == ["<=4", "5", "6", "7", "8", "9", "10", "11-15", "16-20", ">=21"]
    assert sum(int(r[1]) for r in rows) == 8  # every pair lands in exactly one length bin
    for r in rows:
        assert r[2] == "NA" or -1.0 <= float(r[2]) <= 1.0


def test_eval_bins_oov(ws, capsys):
    rc = main([
        "eval", "bins", "--model", str(ws / "model.bin"),
        "--datasets", str(ws / "sts"), "--by", f"oov:{ws / 'words.txt'}",
    ])
    out, _ = capsys.readouterr()
    assert rc == 0
    rows = {line.split("\t")[0]: line.split("\t") for line in out.splitlines()}
    assert set(rows) == {"0", "1", "2", ">=1", ">=0"}
    assert int(rows[">=0"][1]) == 8
    assert int(rows[">=1"][1]) == 8 - int(rows["0"][1])


def test_embed_args_and_stdin(ws, capsys, monkeypatch):
    rc = main(["embed", "--model", str(ws / "model.bin"), "the cat", "a dog"])
    out, _ = capsys.readouterr()
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert all(len(line.split("\t")) == 8 for line in lines)

    monkeypatch.setattr("sys.stdin", io.StringIO("the cat\n"))
    rc = main(["embed", "--model", str(ws / "model.bin"), "--stdin"])
    stdin_out, _ = capsys.readouterr()
    assert rc == 0
    assert stdin_out.splitlines()[0] == lines[0]  # same text, same vector


def test_embed_and_nn_reject_text_that_is_not_utf8(ws, capsys, monkeypatch):
    # under a POSIX locale Python reads a byte that is not UTF-8 as a lone surrogate
    monkeypatch.setattr("sys.stdin", io.StringIO("the cat\n\udcff dog\n"))
    assert main(["embed", "--model", str(ws / "model.bin"), "--stdin"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: stdin:2: not valid UTF-8\n"
    assert main(["embed", "--model", str(ws / "model.bin"), "the cat", "\udcff"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: argument '\\udcff': not valid UTF-8\n"
    assert main([
        "nn", "--model", str(ws / "model.bin"), "--wordlist", str(ws / "words.txt"), "c\udcff",
    ]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: query 'c\\udcff': not valid UTF-8\n"


@pytest.mark.parametrize("errors, message", [
    ("surrogateescape", b"error: stdin:2: not valid UTF-8\n"),
    ("strict", b"error: stdin: not valid UTF-8 ('utf-8' codec can't decode byte 0xff"),
])
def test_embed_rejects_stdin_bytes_that_are_not_utf8(ws, errors, message):
    # the POSIX locale reads stdin with surrogateescape, a UTF-8 locale strictly
    proc = subprocess.run(
        [sys.executable, "-m", "charngram", "embed", "--model", str(ws / "model.bin"), "--stdin"],
        input=b"cat\n\xff dog\n", capture_output=True, timeout=120,
        env=dict(_env(), PYTHONIOENCODING=f"utf-8:{errors}"),
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(message)


def test_nn_output_shape(ws, capsys):
    rc = main([
        "nn", "--model", str(ws / "model.bin"), "--wordlist", str(ws / "words.txt"),
        "--k", "3", "cat",
    ])
    out, _ = capsys.readouterr()
    assert rc == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert len(rows) == 3
    assert [r[0] for r in rows] == ["cat"] * 3
    assert [int(r[1]) for r in rows] == [1, 2, 3]
    assert all(r[2] != "cat" for r in rows)
    cosines = [float(r[3]) for r in rows]
    assert cosines == sorted(cosines, reverse=True)


@pytest.mark.parametrize("query, problem", [
    ("red\tfox", "holds a tab or a line break"),
    ("red\nfox", "holds a tab or a line break"),
    ("fox\r", "holds a tab or a line break"),
    ("red\u2028fox", "holds a tab or a line break"),
    ("   ", "empty"),
    ("", "empty"),
    ("\t\n", "empty"),
])
def test_nn_refuses_a_query_it_cannot_echo_as_one_tsv_field(ws, capsys, query, problem):
    # each output line starts with its query; the check runs before the word
    # list is read, so a missing one is not what is reported
    for words in ("words.txt", "missing.txt"):
        rc = main(["nn", "--model", str(ws / "model.bin"), "--wordlist", str(ws / words),
                   "cat", query])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == f"error: query {query!r}: {problem}\n"


def test_nn_ngram_escaping(ws, capsys):
    rc = main(["nn-ngram", "--model", str(ws / "model.bin"), "--k", "2", r"\sc"])
    out, _ = capsys.readouterr()
    assert rc == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert len(rows) == 2
    assert rows[0][0] == r"\sc"
    for r in rows:
        assert " " not in r[2]  # neighbor n-grams come out escaped


def test_audit_grad(ws, capsys):
    rc = main([
        "audit-grad", "--model", str(ws / "model.bin"), "--pairs", str(ws / "pairs.tsv"),
        "--batch", "4",
    ])
    out, _ = capsys.readouterr()
    assert rc == 0
    label, value = out.strip().split("\t")
    assert label == "max_relative_error"
    assert float(value) < 1e-4


# --- failure paths -----------------------------------------------------------


def test_unknown_flag_exits_1(ws, capsys):
    assert main(["train", "--nonsense", "x"]) == 1
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def test_missing_required_setting_exits_2(ws, tmp_path, capsys):
    rc = main(["train", "--out", str(tmp_path / "m.bin")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "missing required setting: pairs" in err


def test_missing_input_file_exits_2(ws, tmp_path, capsys):
    rc = main([
        "train", "--pairs", str(tmp_path / "absent.tsv"),
        "--out", str(tmp_path / "m.bin"),
    ])
    assert rc == 2


def test_training_on_one_pair_exits_2_and_writes_nothing(ws, tmp_path, capsys):
    one = tmp_path / "one.tsv"
    one.write_text(PAIRS.splitlines()[0] + "\n", encoding="utf-8")
    rc = main([
        "train", "--pairs", str(one), "--out", str(tmp_path / "m.bin"), "--dim", "8",
        "--epochs", "3", "--curve", str(tmp_path / "c.tsv"),
    ])
    out, err = capsys.readouterr()
    assert rc == 2
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: need at least 2 pairs to train: negatives come from the batch"
    ]
    assert out == ""
    assert not (tmp_path / "m.bin").exists() and not (tmp_path / "c.tsv").exists()


def test_corrupt_model_exits_2(ws, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"JUNKJUNKJUNK" + b"\x00" * 40)
    rc = main(["eval", "word", "--model", str(bad), "--dataset", str(ws / "word.tsv")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "not a model file" in err

    # a header declaring 2**40 rows fails cleanly instead of allocating them
    bad.write_bytes(struct.pack("<4sIIB3xQQ", b"CHRG", 1, 2, 1, 0, 2**40) + b"\x00" * 8)
    rc = main(["embed", "--model", str(bad), "some text"])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "corrupt model file (expected at least" in err

    # so does a version-2 header declaring d = 0
    bad.write_bytes(struct.pack("<4sIIB3xQQB7xQ", b"CHRG", 2, 0, 1, 0, 2**40, 1, 0) + b"\x00" * 16)
    rc = main(["embed", "--model", str(bad), "some text"])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "corrupt model file (dimension 0)" in err


def test_numerical_failure_exits_3(ws, tmp_path, capsys):
    with np.errstate(all="ignore"):
        rc = main([
            "train", "--pairs", str(ws / "pairs.tsv"), "--vocab", str(ws / "vocab.tsv"),
            "--out", str(tmp_path / "m.bin"), "--dim", "4", "--batch", "4",
            "--epochs", "3", "--activation", "linear", "--lr", "1e300",
        ])
    _, err = capsys.readouterr()
    assert rc == 3
    assert "error:" in err


def test_bad_by_value_exits_1(ws, capsys):
    rc = main([
        "eval", "bins", "--model", str(ws / "model.bin"),
        "--datasets", str(ws / "sts"), "--by", "everything",
    ])
    _, err = capsys.readouterr()
    assert rc == 1
    assert "bad --by value" in err


def test_embed_without_input_exits_1(ws, capsys):
    rc = main(["embed", "--model", str(ws / "model.bin")])
    _, err = capsys.readouterr()
    assert rc == 1
    assert "TEXT arguments or --stdin" in err


def test_empty_dataset_dir_exits_2(ws, tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    rc = main(["eval", "sts", "--model", str(ws / "model.bin"), "--datasets", str(empty)])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "no .tsv datasets found" in err


@pytest.mark.parametrize("flat", ["cat\tdog\t3.0\n", "cat\tdog\t3.0\nfish\tbark\t3.0\n"],
                         ids=["one-line", "constant-gold"])
def test_degenerate_dataset_is_named_exits_2(ws, tmp_path, capsys, flat):
    sts = tmp_path / "sts"
    sts.mkdir()
    (sts / "alpha.tsv").write_text(STS_A)
    (sts / "flat.tsv").write_text(flat)
    rc = main(["eval", "sts", "--model", str(ws / "model.bin"), "--datasets", str(sts)])
    _, err = capsys.readouterr()
    assert rc == 2
    assert err == "error: flat: degenerate input\n"


def test_unknown_ngram_exits_2(ws, capsys):
    rc = main(["nn-ngram", "--model", str(ws / "model.bin"), "zzzz"])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "n-gram not in model" in err


def test_bad_scale_flag_exits_1(ws, capsys):
    rc = main([
        "eval", "word", "--model", str(ws / "model.bin"),
        "--dataset", str(ws / "word.tsv"), "--scale", "high",
    ])
    assert rc == 1


@pytest.mark.parametrize("value", ["1.5", "3"])
def test_eval_every_above_one_exits_1_up_front(ws, tmp_path, capsys, value):
    # no curve point could ever fall: the interval restarts every epoch
    out = tmp_path / "m.bin"
    rc = main([
        "train", "--pairs", str(ws / "pairs.tsv"), "--vocab", str(ws / "vocab.tsv"),
        "--out", str(out), "--dim", "4", "--batch", "4", "--eval-every", value,
    ])
    stdout, err = capsys.readouterr()
    assert rc == 1
    assert "error: eval_every must lie in (0, 1]" in err
    assert "Traceback" not in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize(
    "flag, value, name",
    [
        ("--margin", "nan", "margin"),
        ("--margin", "inf", "margin"),
        ("--lambda", "nan", "reg_lambda"),
        ("--lr", "nan", "learning_rate"),
        ("--eval-every", "nan", "eval_every"),
    ],
)
def test_non_finite_setting_exits_1_up_front(ws, tmp_path, capsys, flag, value, name):
    out = tmp_path / "m.bin"
    rc = main([
        "train", "--pairs", str(ws / "pairs.tsv"), "--vocab", str(ws / "vocab.tsv"),
        "--out", str(out), "--dim", "4", "--batch", "4", flag, value,
    ])
    stdout, err = capsys.readouterr()
    assert rc == 1
    assert f"error: {name} must be finite" in err
    assert "Traceback" not in err
    assert stdout == "" and not out.exists()


def test_non_finite_setting_in_config_file_exits_1(ws, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"pairs={ws / 'pairs.tsv'}\nout={tmp_path / 'm.bin'}\nlr=inf\n")
    assert main(["train", "--config", str(cfg)]) == 1
    assert "error: learning_rate must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--margin", "nan", "margin must be finite"),
        ("--step", "0", "step must be finite and > 0"),
        ("--step", "nan", "step must be finite and > 0"),
    ],
)
def test_audit_grad_validates_its_settings(ws, capsys, flag, value, message):
    rc = main([
        "audit-grad", "--model", str(ws / "model.bin"), "--pairs", str(ws / "pairs.tsv"),
        flag, value,
    ])
    stdout, err = capsys.readouterr()
    assert rc == 1
    assert f"error: {message}" in err
    assert "Traceback" not in err and stdout == ""


def test_audit_grad_takes_no_lambda(ws, capsys):
    # the audit checks the hinge's gradient; training's L2 step is not part of it
    rc = main([
        "audit-grad", "--model", str(ws / "model.bin"), "--pairs", str(ws / "pairs.tsv"),
        "--lambda", "1e-4",
    ])
    stdout, err = capsys.readouterr()
    assert rc == 1
    assert "unrecognized arguments: --lambda 1e-4" in err
    assert stdout == ""


@pytest.mark.parametrize("batch", ["-1", "0", "1"])
def test_audit_grad_batch_below_2_exits_1_before_reading_pairs(ws, tmp_path, capsys, batch):
    # a pairs file that would be a data error (exit 2) if it were read
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("no tab here\n")
    rc = main(["audit-grad", "--model", str(ws / "model.bin"), "--pairs", str(pairs),
               "--batch", batch])
    stdout, err = capsys.readouterr()
    assert rc == 1
    assert err.splitlines()[-1] == f"error: --batch must be at least 2, got {batch}"
    assert stdout == ""


def test_audit_grad_with_no_active_hinge_exits_2(ws, tmp_path, capsys):
    # phrases paired with themselves and a tiny margin: the gradient is
    # exactly zero, so there would be nothing to check
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("the cat sat\tthe cat sat\ndogs run fast\tdogs run fast\n"
                     "birds sing\tbirds sing\nfish swim\tfish swim\n")
    rc = main(["audit-grad", "--model", str(ws / "model.bin"), "--pairs", str(pairs),
               "--margin", "0.001"])
    stdout, err = capsys.readouterr()
    assert rc == 2
    assert err.splitlines()[-1].startswith("error: no hinge term is active")
    assert stdout == ""


def test_audit_grad_on_a_single_pair_exits_2(ws, tmp_path, capsys):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("the cat\ta cat\n")
    rc = main(["audit-grad", "--model", str(ws / "model.bin"), "--pairs", str(pairs)])
    assert rc == 2
    assert "need at least 2 pairs to audit" in capsys.readouterr().err


def test_memory_error_exits_1_without_traceback(ws, tmp_path, capsys, monkeypatch):
    def too_big(vocab, config):
        raise MemoryError("Unable to allocate 2.18 PiB for an array")

    # the package rebinds the name `charngram.train` to the function
    monkeypatch.setattr(sys.modules["charngram.train"], "init_model", too_big)
    rc = main([
        "train", "--pairs", str(ws / "pairs.tsv"), "--vocab", str(ws / "vocab.tsv"),
        "--out", str(tmp_path / "m.bin"), "--dim", "4", "--batch", "4",
    ])
    _, err = capsys.readouterr()
    assert rc == 1
    assert err.splitlines()[-1] == "error: out of memory: Unable to allocate 2.18 PiB for an array"
    assert "Traceback" not in err


def test_build_vocab_keeping_nothing_exits_2_and_writes_nothing(ws, tmp_path, capsys):
    out = tmp_path / "vocab.tsv"
    with pytest.warns(UserWarning, match="removed every n-gram"):
        rc = main([
            "build-vocab", "--input", str(ws / "pairs.tsv"), "--policy", "mincount:1000000",
            "--out", str(out),
        ])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "keeps no n-gram" in err
    assert not out.exists() and list(tmp_path.iterdir()) == []


def _env() -> dict:
    """The environment of a subprocess that imports this package."""
    src = str(Path(charngram.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _help_of_module(module: str) -> subprocess.CompletedProcess:
    """`python -m MODULE --help` in a subprocess that imports this package."""
    return subprocess.run(
        [sys.executable, "-m", module, "--help"],
        capture_output=True, text=True, env=_env(), timeout=120,
    )


def test_python_dash_m_runs_the_command_line():
    proc = _help_of_module("charngram")
    assert proc.returncode == 0, proc.stderr
    assert "build-vocab" in proc.stdout


def test_python_dash_m_charngram_cli_runs_the_command_line():
    proc = _help_of_module("charngram.cli")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: charngram")
    assert "build-vocab" in proc.stdout


# --- signals and a closed stdout, in a subprocess -----------------------------


def _command(*argv, **kwargs) -> subprocess.Popen:
    """`python -m charngram ARGV...` started in a subprocess, its output piped.

    SIGINT is reset to its default first: a process started with it ignored
    (as a background job of a script is) keeps ignoring it, so Python would
    install no KeyboardInterrupt handler.
    """
    return subprocess.Popen(
        [sys.executable, "-m", "charngram", *map(str, argv)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(),
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL), **kwargs,
    )


def test_a_closed_stdout_pipe_ends_embed_quietly(ws, tmp_path):
    # 5,000 rows of 8 numbers are far more than a pipe holds, so the command
    # is still writing when its reader goes, as under `embed ... | head -1`
    texts = tmp_path / "texts.txt"
    texts.write_text("the cat sat\n" * 5000)
    with texts.open("rb") as stdin:
        proc = _command("embed", "--model", ws / "model.bin", "--stdin", stdin=stdin)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=120)
    assert len(first.split(b"\t")) == 8
    assert err == b""  # no traceback, no message
    assert proc.returncode == -signal.SIGPIPE  # the shell reports 128 + 13 = 141


@pytest.mark.parametrize(
    "signum, code, message",
    [(signal.SIGINT, 130, "error: interrupted"), (signal.SIGTERM, 143, "error: terminated")],
)
def test_a_signal_ends_train_with_one_line_and_no_file(tmp_path, signum, code, message):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("".join(f"{a}\t{b}\n" for a, b in training_pairs(make_task(0)).pairs))
    proc = _command(
        "train", "--pairs", pairs, "--out", tmp_path / "m.bin", "--curve", tmp_path / "c.tsv",
        "--dim", 8, "--batch", 10, "--epochs", 1_000_000,
    )
    try:
        echo = proc.stderr.readline().decode()  # the configuration echo: the command has begun
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=120)
    finally:
        proc.kill()  # a no-op once the command has ended
        proc.wait()
    assert echo == f"pairs={pairs}\n"
    lines = (echo + err.decode()).splitlines()
    assert proc.returncode == code, lines
    assert lines[-1] == message
    assert "Traceback" not in err.decode()
    assert out == b""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.tsv"]  # no model, curve or temp file


@pytest.mark.parametrize("key, value", [
    ("orders", "x"), ("orders", "0"), ("orders", ","), ("policy", "bogus"), ("policy", "mincount:0"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_orders_or_policy_exits_1_before_reading_pairs(
    ws, tmp_path, capsys, key, value, source
):
    # a pairs file that would be a data error (exit 2) if it were read
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("no tab here\n")
    out = tmp_path / "m.bin"
    args = ["train", "--pairs", str(pairs), "--out", str(out), "--dim", "4"]
    if source == "flag":
        args += [f"--{key}", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        args += ["--config", str(cfg)]
    rc = main(args)
    stdout, err = capsys.readouterr()
    assert rc == 1, err
    assert err.splitlines()[-1].startswith("error: ")
    assert "Traceback" not in err and stdout == "" and not out.exists()


@pytest.fixture(scope="module")
def preserve_model(ws):
    """A model trained with --case preserve, which it records."""
    path = ws / "preserve.bin"
    assert main([
        "train", "--pairs", str(ws / "pairs.tsv"), "--out", str(path), "--orders", "2,3",
        "--dim", "6", "--batch", "4", "--epochs", "1", "--seed", "2", "--case", "preserve",
    ]) == 0
    return path


def _embed(capsys, model, *flags, texts=("The CAT sat", "a Dog")):
    rc = main(["embed", "--model", str(model), *flags, *texts])
    out, err = capsys.readouterr()
    assert rc == 0, err
    return out


def test_commands_use_the_recorded_case_mode(preserve_model, capsys):
    assert load_model(preserve_model)[0].case_mode == "preserve"
    capsys.readouterr()
    recorded = _embed(capsys, preserve_model)
    assert recorded == _embed(capsys, preserve_model, "--case", "preserve")
    # what --case lower would compute: the same texts lowercased by hand, preserved
    lowered = _embed(capsys, preserve_model, "--case", "preserve", texts=("the cat sat", "a dog"))
    assert recorded != lowered


@pytest.mark.parametrize("command", [
    ["embed", "text"],
    ["eval", "word", "--dataset", "word.tsv"],
    ["nn", "--wordlist", "words.txt", "cat"],
    ["audit-grad", "--pairs", "pairs.tsv"],
])
def test_case_flag_disagreeing_with_the_model_exits_1(ws, preserve_model, capsys, command):
    args = [str(ws / a) if a.endswith((".tsv", ".txt")) else a for a in command]
    rc = main([*args, "--model", str(preserve_model), "--case", "lower"])
    stdout, err = capsys.readouterr()
    assert rc == 1
    assert err.splitlines()[-1] == (
        f"error: --case lower disagrees with the case mode 'preserve' recorded in {preserve_model}"
    )
    assert stdout == ""


def test_version_1_model_takes_the_case_flag(ws, preserve_model, tmp_path, capsys):
    old = tmp_path / "v1.bin"
    model, vocab = load_model(preserve_model)
    save_v1(model, vocab, old)
    assert load_model(old)[0].case_mode is None
    capsys.readouterr()
    assert _embed(capsys, old, "--case", "preserve") == _embed(capsys, preserve_model)
    assert _embed(capsys, old) == _embed(capsys, old, "--case", "lower")
    assert _embed(capsys, old) != _embed(capsys, old, "--case", "preserve")


def test_train_help_lists_one_flag_per_config_key(capsys):
    assert main(["train", "--help"]) == 0
    options = capsys.readouterr().out.split("options:", 1)[1]
    listed = re.findall(r"^  (-[\w-]+)", options, re.MULTILINE)
    keys = [config_key(f) for f in fields(RunConfig)]
    assert sorted(listed) == sorted(["-h", "--config", *("--" + k.replace("_", "-") for k in keys)])


ODD_TEXTS = ["the café cat", "naïve \U0001f600 dogs", "fi\x00sh swim", "猫 \U00010348 cat", ""]


def test_non_ascii_astral_and_nul_text_through_the_batch_encoder(ws, tmp_path, capsys,
                                                                monkeypatch):
    model, vocab = load_model(ws / "model.bin")
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{t}\n" for t in ODD_TEXTS)))
    assert main(["embed", "--model", str(ws / "model.bin"), "--stdin"]) == 0
    seqs = [normalize(t, model.case_mode) for t in ODD_TEXTS]
    want = embed_matrix(count_matrix([encode(seq, vocab) for seq in seqs], model), model)
    assert capsys.readouterr().out.splitlines() == [
        "\t".join(f"{x:.9g}" for x in row) for row in want
    ]

    sts = tmp_path / "sts"
    sts.mkdir()
    (sts / "odd.tsv").write_text(
        "".join(f"{a}\t{b}\t{i}\n" for i, (a, b) in enumerate(zip(ODD_TEXTS, ODD_TEXTS[1:]))),
        encoding="utf-8",
    )
    assert main(["eval", "sts", "--model", str(ws / "model.bin"), "--datasets", str(sts)]) == 0
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("".join(f"{a}\t{b}\n" for a, b in zip(ODD_TEXTS, ODD_TEXTS[1:-1])),
                     encoding="utf-8")
    assert main(["train", "--pairs", str(pairs), "--out", str(tmp_path / "m.bin"), "--dim", "4",
                 "--batch", "2", "--epochs", "1", "--eval-every", "0.5", "--eval-pairs", str(pairs),
                 "--curve", str(tmp_path / "curve.tsv")]) == 0
    assert "dev_mean_cosine" in (tmp_path / "curve.tsv").read_text()


# --- fuzzing the command line -------------------------------------------------

# Values that fail validation, parsing or allocation at once. A huge --epochs
# would run that long instead, so --epochs never takes 2**63.
HOSTILE = ("0", "-1", "nan", "inf", str(2**63))
_NUMERIC = {"--dim", "--batch", "--epochs", "--seed", "--margin", "--lambda", "--lr",
            "--eval-every", "--k", "--step", "--orders", "--policy", "--scale"}
# valid non-ASCII, astral and NUL characters reach the encoders through the files
_WORDS = st.sampled_from(["cat", "cats", "the dog", "fish swim", "a bird", "café", "naïve Cat",
                          "\U0001f600 dog", "fi\x00sh", "猫 \U00010348"])
_FIELD = st.one_of(
    st.sampled_from(["cat", "the dog", " ", "", "4", "-1", "nan", "\\s"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)
_COMMANDS = ["train", "build-vocab", "eval word", "eval sts", "eval bins", "embed", "nn",
             "nn-ngram", "audit-grad"]


def _ints(low, high):
    return st.integers(low, high).map(str)


def _floats(low, high):
    return st.floats(low, high).map(repr)


@st.composite
def _file(draw, *fields):
    """The bytes of a file of 1 to 8 lines of tab-separated `fields`, often mutated."""
    lines = draw(st.lists(st.tuples(*fields).map("\t".join), min_size=1, max_size=8))
    how = draw(st.sampled_from(["as is", "as is", "noisy line", "truncated", "binary"]))
    if how == "noisy line":
        noise = "\t".join(draw(st.lists(_FIELD, max_size=4)))
        lines[draw(st.integers(0, len(lines) - 1))] = noise
    text = "".join(f"{line}\n" for line in lines).encode("utf-8")
    if how == "truncated":
        return text[: draw(st.integers(0, len(text) - 1))]
    if how == "binary":
        return draw(st.binary(max_size=24))
    return text


def _fuzz_argv(draw, ws) -> list[str]:
    """A small, valid command line for a drawn subcommand, its inputs written to ws/fuzz.

    Half the time one numeric value (or the last part of an orders, policy or
    scale value) is then replaced by a hostile one.
    """
    root = ws / "fuzz"
    (root / "sts").mkdir(parents=True, exist_ok=True)
    pairs, sims, words = root / "pairs.tsv", root / "sts" / "sims.tsv", root / "words.txt"
    pairs.write_bytes(draw(_file(_WORDS, _WORDS)))
    sims.write_bytes(draw(_file(_WORDS, _WORDS, _ints(0, 5))))
    words.write_bytes(draw(_file(_WORDS)))
    (root / "stdin.txt").write_bytes(draw(_file(_WORDS)))
    model = str(ws / "model.bin")
    command = draw(st.sampled_from(_COMMANDS))
    argv = command.split()
    if command == "train":
        argv += ["--pairs", str(pairs), "--out", str(root / "model.bin"),
                 "--dim", draw(_ints(1, 16)), "--batch", draw(_ints(2, 8)),
                 "--epochs", draw(_ints(0, 2)), "--seed", draw(_ints(0, 3)),
                 "--margin", draw(_floats(0.01, 2)), "--lambda", draw(_floats(0, 0.1)),
                 "--lr", draw(_floats(1e-4, 1)), "--eval-every", draw(_floats(0, 1)),
                 "--activation", draw(st.sampled_from(charngram.ACTIVATIONS)),
                 "--sampling", draw(st.sampled_from(["max", "mix"])),
                 "--pool", draw(st.sampled_from(["same-side", "both-sides"])),
                 "--orders", draw(st.sampled_from(["2", "2,3", "1,2,3,4"])),
                 draw(st.sampled_from(["--curriculum", "--no-curriculum"]))]
        if draw(st.booleans()):
            argv += ["--eval-pairs", str(pairs)]
    elif command == "build-vocab":
        argv += ["--input", str(pairs), "--out", str(root / "vocab.tsv"),
                 "--orders", draw(st.sampled_from(["2", "2,3", "1,2,3,4"])),
                 "--policy", draw(st.sampled_from(["mincount", "topk"])) + ":" + draw(_ints(1, 3))]
    elif command.startswith("eval"):
        argv += ["--model", model, "--scale", draw(st.sampled_from(["0:5", "0:10", "-inf:9"]))]
        if command == "eval word":
            argv += ["--dataset", str(sims)]
        else:
            argv += ["--datasets", str(root / "sts")]
        if command == "eval bins":
            argv += ["--by", draw(st.sampled_from(["length", f"oov:{words}", "bogus"]))]
    elif command == "embed":
        argv += ["--model", model]
        argv += ["--stdin"] if draw(st.booleans()) else draw(st.lists(_FIELD, min_size=1, max_size=3))
    elif command == "nn":
        argv += ["--model", model, "--wordlist", str(words), "--k", draw(_ints(1, 8)),
                 draw(_FIELD)]
    elif command == "nn-ngram":
        argv += ["--model", model, "--k", draw(_ints(1, 8)), draw(_FIELD)]
    else:
        argv += ["--model", model, "--pairs", str(pairs), "--batch", draw(_ints(2, 8)),
                 "--margin", draw(_floats(0.01, 2)), "--seed", draw(_ints(0, 3)),
                 "--step", draw(_floats(1e-6, 1e-3))]
    numeric = [i for i, arg in enumerate(argv) if arg in _NUMERIC]
    if numeric and draw(st.booleans()):
        i = draw(st.sampled_from(numeric))
        hostile = draw(st.sampled_from(HOSTILE[:-1] if argv[i] == "--epochs" else HOSTILE))
        argv[i + 1] = re.sub(r"[^:,]*$", hostile, argv[i + 1], count=1)
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_command_lines_exit_with_a_documented_code(ws, data):
    argv = _fuzz_argv(data.draw, ws)
    stdout, stderr = io.StringIO(), io.StringIO()
    # `embed --stdin` reads the drawn bytes as strict UTF-8, like a real stdin
    stdin = io.TextIOWrapper(io.BytesIO((ws / "fuzz" / "stdin.txt").read_bytes()), encoding="utf-8")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            mock.patch("sys.stdin", stdin), warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        rc = main(argv)
    assert rc in (0, 1, 2, 3), argv
    assert "Traceback" not in stderr.getvalue()
