"""Tests of the benchmark itself: tiny smoke runs and checks that bite.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import charngram as C  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import hostspeed  # noqa: E402
import run as runner  # noqa: E402
import workloads  # noqa: E402

TINY_SERVE = gen.ServeParams(sim_sets=2, sim_items=30, stream_texts=60, nn_queries=20, ngram_queries=10)
TINY_PAPER = workloads.PaperSpec(
    corpus=gen.CorpusParams(n_roots=80, train_pairs=60, heldout_pairs=20), serving=TINY_SERVE,
    dim=16, batch_size=10, determinism_pairs=30, gap_floor=-1.0, top1_floor=0.0,
    setup_repeats=2, check_texts=8, check_queries=4, check_ngram_queries=2,
    probe_texts=10, probe_pairs=20,
)
TINY_SYNTHETIC = workloads.SyntheticSpec(
    n_roots=8, n_variants=5, epochs=2, serving=TINY_SERVE,
    gap_floor=-1.0, top1_floor=0.0, setup_repeats=2,
    check_texts=8, check_queries=4, check_ngram_queries=2, probe_texts=10, probe_pairs=20,
)
TINY = {"train-paper": (workloads.Paper, TINY_PAPER), "train-synthetic": (workloads.Synthetic, TINY_SYNTHETIC)}


def tiny_run(name, tmp_path, trace=False):
    cls, spec = TINY[name]
    return workloads.run(cls(spec), seed=3, seconds=0.5, trace=trace, workdir=tmp_path)


# --- smoke runs -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_reports_every_metric_and_passes_its_checks(name, tmp_path):
    result = tiny_run(name, tmp_path)
    assert result["failed"] == 0, result["detail"]["check_failures"] + result["detail"]["errors"]
    assert result["attempted"] > 0
    assert result["detail"]["samples"]["setup_repeats"] == TINY[name][1].setup_repeats
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for metric in bench["end_to_end"]:
        value, unit = result["metrics"][metric["name"]]
        assert unit == metric["unit"]
        assert math.isfinite(value) and value > 0, metric["name"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_smoke_run_reports_every_layer(name, tmp_path):
    result = tiny_run(name, tmp_path, trace=True)
    layers = result["layers"]
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["per_layer"]} == set(runner.LAYER_UNITS)
    for metric in bench["per_layer"]:
        assert math.isfinite(layers[metric["name"]]), metric["name"]
    parts = layers["train.forward_s"] + layers["train.negatives_s"] + layers["train.backward_adam_s"]
    assert parts == pytest.approx(layers["train.step_s"], rel=1e-9)
    assert layers["train.forward_s"] > 0 and layers["train.negatives_s"] > 0
    assert layers["model.forward_calls"] > 0 and layers["vocab.encode_calls"] > 0
    assert 0 < layers["vocab.coverage"] <= 1
    assert 0 < layers["train.touched_frac"] <= 1
    assert layers["synthetic.make_task_s"] > 0


def test_host_speed_adjusts_each_span_by_the_probes_around_it():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REF_PROBE_S
    far = 10 * hostspeed.WINDOW_S
    speed.stamps = [0.0, 0.5, far, far + 0.5]
    speed.times = [ref, ref, 2 * ref, 2 * ref]  # the host runs at half speed later on
    early, late, between = speed.adjust([(0.2, 0.3), (far + 0.2, far + 0.3), (far / 2, far / 2 + 0.1)])
    assert early == pytest.approx(0.1)
    assert late == pytest.approx(0.05)
    assert between == pytest.approx(0.1 / 1.5)  # no probe nearby: the median of all


def test_generators_are_pure_functions_of_the_seed():
    pool = C.synthetic.make_task(5, n_roots=40, n_variants=3, n_heldout=1).families
    params = gen.CorpusParams(n_roots=40, train_pairs=30, heldout_pairs=10)
    assert gen.make_corpus(5, pool, params, TINY_SERVE) == gen.make_corpus(5, pool, params, TINY_SERVE)
    assert gen.make_corpus(5, pool, params, TINY_SERVE) != gen.make_corpus(6, pool, params, TINY_SERVE)


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# --- each check family flags an injected fault ----------------------------


@pytest.fixture(scope="module")
def tiny_model():
    vocab = C.build_vocab(["alpha beta", "gamma delta", "beta gamma epsilon"], (2, 3), C.MinCount(1))
    model = C.init_model(vocab, C.TrainConfig(dim=8, seed=1))
    model.weights = np.random.default_rng(0).normal(size=model.weights.shape)
    return model, vocab


def _reference(model, vocab, texts, dense=True):
    route = checks.dense_embeddings if dense else checks.sparse_embeddings
    return route(texts, model.weights, model.bias, model.activation, vocab.index, sorted(vocab.orders))


def test_embedding_check_flags_a_perturbed_row(tiny_model):
    model, vocab = tiny_model
    texts = ["alpha beta", "gamma", "delta epsilon"]
    got = np.stack([C.embed(C.encode(C.normalize(t), vocab), model).values for t in texts])
    want = _reference(model, vocab, texts)
    assert checks.check_embeddings(got, want)[0]
    got[1, 3] += 1e-9
    assert not checks.check_embeddings(got, want)[0]


def test_neighbor_check_flags_a_swapped_or_wrong_neighbor(tiny_model):
    model, vocab = tiny_model
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "alphas", "gamme"]
    wv = C.build_working_vocab(words, model, vocab)
    got = C.nearest_neighbors("alpah", wv, model, vocab, 4)
    expected, all_cos = checks.reference_ranking(
        words, _reference(model, vocab, words, dense=False), _reference(model, vocab, ["alpah"])[0], {"alpah"}, 4
    )
    assert checks.check_ranking(got, expected, all_cos, 4)[0]
    swapped = [got[1], got[0]] + got[2:]
    assert not checks.check_ranking(swapped, expected, all_cos, 4)[0]
    outsider = next(w for w in words if w not in {x for x, _ in got})
    replaced = got[:-1] + [(outsider, all_cos[outsider])]
    assert not checks.check_ranking(replaced, expected, all_cos, 4)[0]


def test_correlation_checks_flag_wrong_values():
    scores = np.array([0.1, 0.5, 0.2, 0.9, 0.4])
    golds = np.array([1.0, 3.0, 1.0, 5.0, 2.0])
    r = float(np.corrcoef(scores, golds)[0, 1])
    assert checks.check_correlation(r, scores, golds)[0]
    assert not checks.check_correlation(r + 1e-6, scores, golds)[0]
    assert not checks.check_correlation(None, scores, golds)[0]
    from scipy import stats

    rho = float(stats.spearmanr(scores, golds)[0])
    assert checks.check_spearman(rho, scores, golds)[0]
    assert not checks.check_spearman(-rho, scores, golds)[0]
    keys = [0, 1, 1, 2, 1]
    good = [C.BinResult("1", 3, float(np.corrcoef(scores[[1, 2, 4]], golds[[1, 2, 4]])[0, 1])),
            C.BinResult(">=3", 0, None)]
    assert checks.check_bins(good, keys, scores, golds)[0]
    assert not checks.check_bins([dataclasses.replace(good[0], n_pairs=2)], keys, scores, golds)[0]
    assert not checks.check_bins([dataclasses.replace(good[0], correlation=0.5)], keys, scores, golds)[0]


def test_roundtrip_check_flags_a_corrupted_file(tiny_model, tmp_path):
    model, vocab = tiny_model
    path = tmp_path / "m.chrg"
    C.save_model(model, vocab, path)
    loaded, loaded_vocab = C.load_model(path)
    assert checks.check_roundtrip(model, vocab, loaded, loaded_vocab)[0]
    loaded.weights[2, 1] = np.nextafter(loaded.weights[2, 1], np.inf)
    assert not checks.check_roundtrip(model, vocab, loaded, loaded_vocab)[0]
    loaded, loaded_vocab = C.load_model(path)
    renamed = C.NGramVocab([("zz", 2, 0)] + loaded_vocab.entries[1:])
    assert not checks.check_roundtrip(model, vocab, loaded, renamed)[0]


def test_training_checks_flag_nan_losses_and_differing_weights(tiny_model):
    model, _ = tiny_model
    curve = C.TrainingCurve()
    curve.add(10, "train_loss", 0.5)
    assert checks.check_finite_losses(curve)[0]
    curve.add(20, "epoch_mean_batch_loss", float("nan"))
    assert not checks.check_finite_losses(curve)[0]
    other = dataclasses.replace(model, weights=model.weights.copy())
    assert checks.check_same_weights(model, other)[0]
    other.weights[0, 0] += 1e-15
    assert not checks.check_same_weights(model, other)[0]


def test_quality_floor_flags_a_low_value():
    assert checks.check_at_least("heldout_gap", 0.31, 0.3)[0]
    assert not checks.check_at_least("heldout_gap", 0.29, 0.3)[0]
    assert not checks.check_at_least("heldout_top1", float("nan"), 0.8)[0]


def test_injected_wrong_neighbor_is_counted_as_a_failed_operation(tmp_path, monkeypatch):
    real = C.nearest_neighbors

    def swapped(*args, **kwargs):
        top = real(*args, **kwargs)
        return [top[1], top[0]] + top[2:] if len(top) > 1 else top

    monkeypatch.setattr(C, "nearest_neighbors", swapped)
    result = tiny_run("train-paper", tmp_path)
    assert result["failed"] >= 1
    assert any(f.startswith("neighbors") for f in result["detail"]["check_failures"])


def test_injected_embedding_error_is_counted_as_a_failed_operation(tmp_path, monkeypatch):
    real = C.embed

    def skewed(cv, model):
        out = real(cv, model)
        out.values = out.values + 1e-9
        return out

    monkeypatch.setattr(C, "embed", skewed)
    result = tiny_run("train-synthetic", tmp_path)
    assert any(f.startswith("embed") for f in result["detail"]["check_failures"])
