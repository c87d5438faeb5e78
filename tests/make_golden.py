"""Regenerate tests/golden.json and tests/golden_cli.json: sha256 digests of
outputs pinned bit for bit.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py

tests/golden.json holds digests of outputs of the synthetic reference model,
`train_on_task(make_task(0))`:

- `model`: the bytes `save_model` writes for it;
- `nn_scan` and `nn_screen`: the `nn` lines (`query<TAB>rank<TAB>word<TAB>cos`,
  as `charngram nn` prints them, k = 10) of every held-out word against the
  working vocabulary of the task's training words, once as built (20,000
  entries: the float64 scan) and once with every word list screened in
  float32 (`neighbors._SCREEN_MIN_ENTRIES` = 0);
- `nn_ngram`: the `nn-ngram` lines of the first 50 vocabulary n-grams, k = 10.

tests/golden_cli.json holds digests of what the command line writes:

- `train_max_*` and `train_mix_*`: the model file, the curve file and the
  stdout of `charngram train` at the paper's shape (d = 300, batch 100,
  orders 2-4, `mincount:1`, tanh, 2 epochs) on `paper_pairs`, scored on
  held-out pairs of the same kind; once with MAX negatives, and once with MIX
  over both sides, lambda = 1e-4 and the curriculum;
- `audit_grad_stdout`: the stdout of `charngram audit-grad` on the reference
  model above and the first 5 of its task's training pairs.

Each file also records the NumPy, SciPy and BLAS versions it was made with
(the BLAS NumPy was built against); the test refuses to compare digests made
under other versions. A regeneration
is a declared change: CHANGES.md names each digest that moved, and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import scipy

from charngram import neighbors
from charngram.cli import main as cli_main
from charngram.io import escape_ngram, save_model
from charngram.neighbors import build_working_vocab, nearest_neighbors, ngram_neighbors
from charngram.synthetic import make_task, train_on_task, training_corpus, training_pairs

GOLDEN = Path(__file__).with_name("golden.json")
GOLDEN_CLI = Path(__file__).with_name("golden_cli.json")
K = 10
NGRAM_QUERIES = 50
PAPER_SEED = 13
TRAIN_PAIRS, DEV_PAIRS = 300, 50
# `charngram train` flags beyond the paper's shape, per pinned run
TRAIN_RUNS = {
    "max": [],
    "mix": ["--sampling", "mix", "--pool", "both-sides", "--lambda", "1e-4", "--curriculum"],
}


def versions() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def _sha256(lines) -> str:
    return hashlib.sha256("".join(f"{line}\n" for line in lines).encode("utf-8")).hexdigest()


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _model_bytes(model, vocab) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        save_model(model, vocab, path)
        return path.read_bytes()


def _nn_lines(task, model, vocab):
    working = build_working_vocab(training_corpus(task), model, vocab)
    for query in (word for words in task.heldout_words for word in words):
        for rank, (word, cos) in enumerate(nearest_neighbors(query, working, model, vocab, K), 1):
            yield f"{query}\t{rank}\t{word}\t{cos:.6f}"


def _nn_ngram_lines(model, vocab):
    for query, *_ in vocab.entries[:NGRAM_QUERIES]:
        for rank, (ngram, cos) in enumerate(ngram_neighbors(query, model, vocab, K), 1):
            yield f"{escape_ngram(query)}\t{rank}\t{escape_ngram(ngram)}\t{cos:.6f}"


def digests() -> dict[str, str]:
    task = make_task(0)
    model, vocab, _ = train_on_task(task)
    out = {"model": _sha256_bytes(_model_bytes(model, vocab))}
    out["nn_scan"] = _sha256(_nn_lines(task, model, vocab))
    with mock.patch.object(neighbors, "_SCREEN_MIN_ENTRIES", 0):
        out["nn_screen"] = _sha256(_nn_lines(task, model, vocab))
    out["nn_ngram"] = _sha256(_nn_ngram_lines(model, vocab))
    return out


def paper_pairs(n: int, seed: int = PAPER_SEED) -> list[tuple[str, str]]:
    """`n` paper-shaped paraphrase pairs: 2 to 5 distinct roots of `make_task`
    families, written twice with independently drawn variants. Each side's
    first word is capitalized half the time, so the case mode matters."""
    families = make_task(seed, n_roots=200, n_variants=4, n_heldout=0).families
    rng = np.random.default_rng(seed)

    def phrase(roots) -> str:
        words = [families[r][int(rng.integers(len(families[r])))] for r in roots]
        if rng.random() < 0.5:
            words[0] = words[0].capitalize()
        return " ".join(words)

    pairs = []
    for _ in range(n):
        roots = rng.choice(len(families), size=int(rng.integers(2, 6)), replace=False)
        pairs.append((phrase(roots), phrase(roots)))
    return pairs


def _write_pairs(path: Path, pairs) -> None:
    path.write_text("".join(f"{a}\t{b}\n" for a, b in pairs), encoding="utf-8")


def _run(argv: list[str]) -> str:
    """The stdout of `charngram ARGV`, run in process; RuntimeError unless it exits 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"charngram {argv[0]} exited {rc}: {err.getvalue()}")
    return out.getvalue()


def train_digests(name: str) -> dict[str, str]:
    """The digests of the `charngram train` run named in TRAIN_RUNS."""
    pairs = paper_pairs(TRAIN_PAIRS + DEV_PAIRS)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _write_pairs(tmp / "train.tsv", pairs[:TRAIN_PAIRS])
        _write_pairs(tmp / "dev.tsv", pairs[TRAIN_PAIRS:])
        model, curve = tmp / "model.bin", tmp / "curve.tsv"
        stdout = _run([
            "train", "--pairs", str(tmp / "train.tsv"), "--eval-pairs", str(tmp / "dev.tsv"),
            "--out", str(model), "--curve", str(curve), "--dim", "300", "--batch", "100",
            "--orders", "2,3,4", "--policy", "mincount:1", "--activation", "tanh",
            "--epochs", "2", "--seed", "3", *TRAIN_RUNS[name],
        ])
        return {f"train_{name}_model": _sha256_bytes(model.read_bytes()),
                f"train_{name}_curve": _sha256_bytes(curve.read_bytes()),
                f"train_{name}_stdout": _sha256_bytes(stdout.encode("utf-8"))}


def cli_digests() -> dict[str, str]:
    out = {}
    for name in TRAIN_RUNS:
        out.update(train_digests(name))
    task = make_task(0)
    model, vocab, _ = train_on_task(task)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_model(model, vocab, tmp / "model.bin")
        _write_pairs(tmp / "pairs.tsv", training_pairs(task).pairs)
        stdout = _run(["audit-grad", "--model", str(tmp / "model.bin"),
                       "--pairs", str(tmp / "pairs.tsv"), "--batch", "5"])
    out["audit_grad_stdout"] = _sha256_bytes(stdout.encode("utf-8"))
    return out


def main() -> int:
    for path, make in ((GOLDEN, digests), (GOLDEN_CLI, cli_digests)):
        payload = {"versions": versions(), "digests": make()}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
