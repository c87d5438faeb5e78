"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single [PASS]/[FAIL]
line (repeated in the terminal summary). Thresholds for the synthetic
benchmark were frozen after one seeded run of the committed generator:
seed 0 gives a same-root vs cross-root cosine gap of 0.967 and top-1
retrieval accuracy 1.0, far above the required 0.3 and 0.8.
"""

import itertools
import os
import struct
import time

import numpy as np
import pytest

from charngram import (
    MinCount,
    TopKPerOrder,
    TrainConfig,
    build_vocab,
    cosine,
    embed,
    embed_matrix,
    encode,
    eval_word_sim,
    finite_diff_audit,
    load_model,
    normalize,
    pearson,
    save_model,
    spearman,
    train,
)
from charngram.io import ModelFormatError
from charngram.synthetic import (
    cosine_gap,
    epoch_mean_losses,
    make_task,
    similarity_set,
    top1_same_root_accuracy,
    train_on_task,
    training_pairs,
)
from charngram.train import PairDataset, _rng, select_negatives

import conftest
from conftest import count_matrix, dense_embed_ref, pearson_ref, random_model, spearman_ref


def record(num: int, desc: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc} ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _random_words(rng, n, lo=3, hi=9):
    letters = "abcdefghijklmnopqrstuvwxyz"
    return [
        "".join(letters[i] for i in rng.integers(0, len(letters), size=rng.integers(lo, hi)))
        for _ in range(n)
    ]


# --- criterion 1: gradient audit --------------------------------------------


def test_criterion_1_gradient_audit():
    started = time.perf_counter()
    worst = 0.0
    combos = itertools.cycle(
        itertools.product((4, 8), ("linear", "tanh"), (0.0, 1e-4))
    )
    for trial, (dim, activation, lam) in zip(range(20), combos):
        rng = np.random.default_rng(1000 + trial)
        words = _random_words(rng, 12)
        vocab = build_vocab(words, (2, 3), TopKPerOrder(20))
        assert len(vocab) <= 50
        model = random_model(rng, vocab, dim, activation=activation)
        batch = [
            (words[int(rng.integers(len(words)))], words[int(rng.integers(len(words)))])
            for _ in range(5)
        ]
        config = TrainConfig(
            dim=dim, activation=activation, reg_lambda=lam, batch_size=5,
            seed=trial, margin=0.4,
        )
        worst = max(worst, finite_diff_audit(model, vocab, batch, config, step=1e-5))
    elapsed = time.perf_counter() - started
    record(
        1,
        "gradient audit on 20 random configurations",
        worst < 1e-4 and elapsed < 10,
        f"max relative error {worst:.3e}, {elapsed:.1f}s",
    )


# --- criterion 2: correlation oracles ----------------------------------------


def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(2222)
    worst = 0.0
    done = 0
    while done < 100:
        n = int(rng.integers(2, 501))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        if done % 2:
            x, y = np.round(x, 1), np.round(y, 1)  # force tied values
            if np.ptp(x) == 0 or np.ptp(y) == 0:
                continue
        worst = max(
            worst,
            abs(pearson(x, y) - pearson_ref(x, y)),
            abs(spearman(x, y) - spearman_ref(x, y)),
        )
        done += 1
    examples_ok = (
        abs(spearman([1, 2, 2, 3], [1, 2, 3, 4]) - 0.9487) < 1e-4
        and pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)
    )
    record(
        2,
        "spearman/pearson match brute-force oracles on 100 vectors",
        worst < 1e-12 and examples_ok,
        f"max deviation {worst:.2e}, worked examples {'ok' if examples_ok else 'FAILED'}",
    )


# --- criterion 3: MAX-selection oracle ---------------------------------------


def test_criterion_3_max_selection_oracle():
    rng = np.random.default_rng(3333)
    mismatches = 0
    for trial in range(200):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(2, 8))
        side1 = [rng.normal(size=d) for _ in range(n)]
        side2 = [rng.normal(size=d) for _ in range(n)]
        if trial % 4 == 0 and n >= 3:  # force exact cosine ties
            side1[2] = side1[1].copy()
            side2[2] = side2[1].copy()
        got = select_negatives(np.array(side1), np.array(side2), "max", _rng(0, trial))
        for i in range(n):
            for side, embs in ((0, side1), (1, side2)):
                best, best_c = None, -2.0
                for j in range(n):  # exhaustive scan, first strict max wins
                    if j == i:
                        continue
                    c = cosine(embs[i], embs[j])
                    if c > best_c:
                        best, best_c = j, c
                if tuple(got[i][side]) != (best, side):
                    mismatches += 1
    record(
        3,
        "MAX negative selection equals exhaustive argmax scan on 200 batches",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


# --- criterion 4: sparse/dense embedding equivalence -------------------------


def test_criterion_4_sparse_dense_equivalence():
    rng = np.random.default_rng(4444)
    worst = 0.0
    for trial in range(100):
        words = _random_words(rng, 8, lo=2, hi=7)
        vocab = build_vocab(words, (2, 3), MinCount(1))
        activation = ("linear", "tanh")[trial % 2]
        model = random_model(rng, vocab, dim=int(rng.integers(2, 9)), activation=activation)
        text = " ".join(words[int(rng.integers(len(words)))] for _ in range(2))
        # one batch: the text, an empty count vector (h(bias)) and a single word
        cvs = [encode(normalize(t), vocab) for t in (text, "", words[trial % 8])]
        batch = embed_matrix(count_matrix(cvs, model), model)
        for cv, row in zip(cvs, batch):
            dense = dense_embed_ref(cv, model)
            for sparse in (embed(cv, model).values, row):
                worst = max(worst, float(np.max(np.abs(sparse - dense), initial=0.0)))
    record(
        4,
        "sparse per-text and batch embeddings equal dense count-vector reference "
        "on 100 batches",
        worst < 1e-12,
        f"max deviation {worst:.2e}",
    )


# --- criteria 5 and 6: synthetic benchmark -----------------------------------


@pytest.fixture(scope="module")
def synth_runs():
    cache: dict = {}

    def get(seed: int, k: int):
        if (seed, k) not in cache:
            task = make_task(seed)
            model, vocab, curve = train_on_task(task, vocab_k=k)
            cache[(seed, k)] = (task, model, vocab, curve)
        return cache[(seed, k)]

    return get


def test_criterion_5_synthetic_convergence_and_retrieval(synth_runs):
    started = time.perf_counter()
    task, model, vocab, curve = synth_runs(0, 1000)
    elapsed = time.perf_counter() - started

    gap = cosine_gap(model, vocab, task)
    top1 = top1_same_root_accuracy(model, vocab, task)
    losses = epoch_mean_losses(curve)
    rho = eval_word_sim(model, vocab, similarity_set(task))

    ok = (
        gap >= 0.3
        and top1 >= 0.8
        and losses[4] < losses[0]
        and rho > 0.8
        and elapsed < 120
    )
    record(
        5,
        "synthetic 50x10 benchmark: gap >= 0.3, top-1 >= 0.8, loss falls by epoch 5",
        ok,
        f"gap {gap:.4f}, top-1 {top1:.3f}, loss {losses[0]:.4f}->{losses[4]:.4f}, "
        f"rho {rho:.4f}, {elapsed:.1f}s",
    )


def test_criterion_6_vocabulary_size_trend(synth_runs):
    gaps = {100: [], 1000: []}
    for seed in range(5):
        for k in (100, 1000):
            task, model, vocab, _ = synth_runs(seed, k)
            gaps[k].append(cosine_gap(model, vocab, task))
    med_small = float(np.median(gaps[100]))
    med_large = float(np.median(gaps[1000]))
    record(
        6,
        "TopKPerOrder(1000) cosine gap >= TopKPerOrder(100), median of 5 seeds",
        med_large >= med_small,
        f"median gap {med_large:.4f} (k=1000) vs {med_small:.4f} (k=100)",
    )


# --- criterion 7: serialization ----------------------------------------------


def test_criterion_7_serialization(tmp_path):
    rng = np.random.default_rng(7777)
    stable = True
    for trial in range(50):
        words = _random_words(rng, 6)
        vocab = build_vocab(words, (2, 3), MinCount(1))
        model = random_model(
            rng, vocab, dim=int(rng.integers(1, 11)),
            activation=("linear", "tanh")[trial % 2],
        )
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_model(model, vocab, p1)
        loaded, loaded_vocab = load_model(p1)
        save_model(loaded, loaded_vocab, p2)
        if p1.read_bytes() != p2.read_bytes():
            stable = False

    good = p1.read_bytes()
    corrupted = {
        "magic": b"OOPS" + good[4:],
        "version": good[:4] + struct.pack("<I", 99) + good[8:],
        "truncation": good[: len(good) - 7],
    }
    messages = set()
    for payload in corrupted.values():
        bad = tmp_path / "bad.bin"
        bad.write_bytes(payload)
        try:
            load_model(bad)
        except ModelFormatError as err:
            messages.add(str(err).split(": ", 1)[1])
    record(
        7,
        "50 model round-trips byte-identical; 3 distinct corrupt-file errors",
        stable and len(messages) == 3,
        f"round-trips {'stable' if stable else 'UNSTABLE'}, {len(messages)} distinct errors",
    )


# --- criterion 8: determinism ------------------------------------------------


def test_criterion_8_determinism(tmp_path, monkeypatch):
    task = make_task(3, n_roots=10)
    dataset = training_pairs(task)
    vocab = build_vocab(
        [w for pair in dataset.pairs for w in pair], (2, 3), MinCount(1)
    )
    config = TrainConfig(dim=8, batch_size=10, epochs=3, seed=5)

    files = []
    for name in ("one.bin", "two.bin"):
        model, _, _ = train(dataset, vocab, config)
        path = tmp_path / name
        save_model(model, vocab, path)
        files.append(path.read_bytes())
    identical = files[0] == files[1]

    log_plain = conftest.epoch_orders(monkeypatch, dataset, vocab, config)
    curr_config = TrainConfig(**{**config.__dict__, "curriculum": True})
    log_curr = conftest.epoch_orders(monkeypatch, dataset, vocab, curr_config)
    first_differs = log_curr[0][1] == tuple(range(len(dataset))) != log_plain[0][1]
    rest_equal = all(
        log_plain[e][1] == log_curr[e][1] for e in range(1, config.epochs)
    )
    record(
        8,
        "identical config+seed trains byte-identical; curriculum alters only epoch 1",
        identical and first_differs and rest_equal,
        f"files {'identical' if identical else 'DIFFER'}, "
        f"epoch-1 order {'file order' if first_differs else 'WRONG'}, "
        f"later epochs {'match' if rest_equal else 'DIVERGE'}",
    )


# --- criterion 9: optional full-scale reproduction ---------------------------


@pytest.mark.skipif(
    not (os.environ.get("CHARNGRAM_PPDB") and os.environ.get("CHARNGRAM_SL999")),
    reason="optional multi-hour reproduction; set CHARNGRAM_PPDB and CHARNGRAM_SL999",
)
def test_criterion_9_full_scale_word_similarity():
    from charngram import load_pairs, load_simset

    dataset = load_pairs(os.environ["CHARNGRAM_PPDB"])
    corpus = [w for pair in dataset.pairs for w in pair]
    vocab = build_vocab(corpus, (2, 3, 4), TopKPerOrder(50000))
    config = TrainConfig(
        dim=300, activation="tanh", margin=0.4, learning_rate=0.001,
        batch_size=100, sampling="max", epochs=50, seed=1,
    )
    model, _, _ = train(dataset, vocab, config)
    simset = load_simset(os.environ["CHARNGRAM_SL999"], scale=(0.0, 10.0))
    rho = eval_word_sim(model, vocab, simset)
    record(9, "full-scale word similarity rho >= 0.60", rho >= 0.60, f"rho {rho:.4f}")
