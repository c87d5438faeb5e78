"""Regenerate tests/golden.json: sha256 digests of outputs pinned bit for bit.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py

The digests are of outputs of the synthetic reference model,
`train_on_task(make_task(0))`:

- `model`: the bytes `save_model` writes for it;
- `nn_scan` and `nn_screen`: the `nn` lines (`query<TAB>rank<TAB>word<TAB>cos`,
  as `charngram nn` prints them, k = 10) of every held-out word against the
  working vocabulary of the task's training words, once as built (20,000
  entries: the float64 scan) and once with every word list screened in
  float32 (`neighbors._SCREEN_MIN_ENTRIES` = 0);
- `nn_ngram`: the `nn-ngram` lines of the first 50 vocabulary n-grams, k = 10.

The file also records the NumPy, SciPy and BLAS versions it was made with
(the BLAS NumPy was built against); the test refuses to compare digests made
under other versions. A regeneration
is a declared change: CHANGES.md names each digest that moved, and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import scipy

from charngram import neighbors
from charngram.io import escape_ngram, save_model
from charngram.neighbors import build_working_vocab, nearest_neighbors, ngram_neighbors
from charngram.synthetic import make_task, train_on_task, training_corpus

GOLDEN = Path(__file__).with_name("golden.json")
K = 10
NGRAM_QUERIES = 50


def versions() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def _sha256(lines) -> str:
    return hashlib.sha256("".join(f"{line}\n" for line in lines).encode("utf-8")).hexdigest()


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
    out = {"model": hashlib.sha256(_model_bytes(model, vocab)).hexdigest()}
    out["nn_scan"] = _sha256(_nn_lines(task, model, vocab))
    with mock.patch.object(neighbors, "_SCREEN_MIN_ENTRIES", 0):
        out["nn_screen"] = _sha256(_nn_lines(task, model, vocab))
    out["nn_ngram"] = _sha256(_nn_ngram_lines(model, vocab))
    return out


def main() -> int:
    payload = {"versions": versions(), "digests": digests()}
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
