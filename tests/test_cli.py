import io
import struct

import numpy as np
import pytest

from charngram import load_model, load_vocab
from charngram.cli import main

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
