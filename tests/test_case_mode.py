"""A model is the one record of how its input text is normalized.

Every path that turns text into a model's input (`encode_matrix`,
evaluation, the working vocabulary and its queries, training and the gradient
audit, the synthetic cosine gap, the `embed` command) normalizes it with
`Model.input_case_mode`:
the case mode the model records, or "lower" for a version-1 file that records
none. The references below normalize by hand with an explicit mode.
"""

import dataclasses
import inspect
import sys

import numpy as np
import pytest

import charngram
from charngram import (
    DataError,
    MinCount,
    PairDataset,
    ReferenceVocab,
    SimDataset,
    TrainConfig,
    WorkingVocab,
    binned_eval,
    build_vocab,
    build_working_vocab,
    embed,
    embed_matrix,
    encode,
    encode_matrix,
    eval_sts,
    eval_word_sim,
    finite_diff_audit,
    load_model,
    load_simset,
    nearest_neighbors,
    normalize,
    save_model,
    train,
)
from charngram import synthetic
from charngram.cli import main
from charngram.evaluate import (
    LENGTH_BINS,
    OOV_BINS,
    max_token_length,
    oov_count,
    pearson,
    spearman,
)
from charngram.model import row_cosines, unit_rows
from charngram.neighbors import _cosines, _rank

from conftest import count_matrix, save_v1

PAIRS = [
    ("The Cat sat", "the CAT sat"),
    ("A Dog barks", "a dog Barks"),
    ("Fish SWIM", "fish swim"),
    ("Birds Fly", "BIRDS fly"),
    ("Cats Nap", "cats NAP"),
    ("Dogs Run", "dogs run"),
]
STS = SimDataset("mixed", [
    ("The Cat", "the cat", 4.5),
    ("A DOG", "a Dog", 4.0),
    ("Fish", "BIRDS", 1.0),
    ("cats Nap", "Dogs run", 2.0),
    ("Birds Fly", "birds fly", 5.0),
    ("The Dog", "a FISH", 0.5),
])
WORDS = ["Cat", "cat", "CAT", "Dog", "dogs", "Fish", "BIRDS", "Nap"]
REFERENCE = ReferenceVocab.from_tokens(["the", "cat", "a", "dog"])


@pytest.fixture(scope="module")
def preserve():
    """(model, vocab) trained with case_mode="preserve", which the model records."""
    corpus = [t for pair in PAIRS for t in pair]
    vocab = build_vocab(corpus, (2, 3), MinCount(1), case_mode="preserve")
    config = TrainConfig(dim=6, batch_size=3, epochs=2, seed=5, case_mode="preserve")
    model, _, _ = train(PairDataset(PAIRS), vocab, config)
    assert model.case_mode == "preserve"
    return model, vocab


@pytest.fixture(scope="module")
def version_1(preserve, tmp_path_factory):
    """The preserve model written as a version-1 file, which records no case mode."""
    path = tmp_path_factory.mktemp("v1") / "v1.bin"
    save_v1(*preserve, path)
    model, vocab = load_model(path)
    assert model.case_mode is None
    return model, vocab


def _scores(model, vocab, items, mode):
    seqs = [normalize(t, mode) for item in items for t in item[:2]]
    values = embed_matrix(encode_matrix(seqs, vocab, model), model)
    return row_cosines(values[0::2], values[1::2])


def _binned_reference(model, vocab, items, mode, key, table):
    scores = _scores(model, vocab, items, mode)
    golds = [gold for _, _, gold in items]
    keys = [key(t1, t2) for t1, t2, _ in items]
    results = []
    for label, lo, hi in table:
        picked = [i for i, k in enumerate(keys) if lo <= k <= hi]
        try:
            corr = pearson([scores[i] for i in picked], [golds[i] for i in picked])
        except DataError:  # fewer than two pairs, or constant scores
            corr = None
        results.append((label, len(picked), corr))
    return results


def _as_tuples(results):
    return [(r.label, r.n_pairs, r.correlation) for r in results]


def _neighbors_reference(query, wv, model, vocab, k, mode):
    padded = normalize(query, mode)
    q = embed(encode(padded, vocab), model).values
    cosines = _cosines(wv.embeddings, q, np.sqrt(np.vdot(q, q)), wv.index.norms, np.matmul)
    return _rank(wv.words.__getitem__, cosines, {padded[1:-1]}, k)


@pytest.mark.parametrize("fixture, mode", [("preserve", "preserve"), ("version_1", "lower")])
def test_every_text_path_uses_the_model_case_mode(request, fixture, mode):
    model, vocab = request.getfixturevalue(fixture)
    golds = [gold for _, _, gold in STS.items]

    assert eval_word_sim(model, vocab, STS) == spearman(_scores(model, vocab, STS.items, mode),
                                                        golds)
    assert eval_sts(model, vocab, [STS]).per_dataset == {
        "mixed": pearson(_scores(model, vocab, STS.items, mode), golds)
    }
    length = binned_eval(model, vocab, [STS], "length")
    assert _as_tuples(length) == _binned_reference(
        model, vocab, STS.items, mode, max_token_length, LENGTH_BINS
    )
    oov = binned_eval(model, vocab, [STS], "oov", reference=REFERENCE)
    assert _as_tuples(oov) == _binned_reference(
        model, vocab, STS.items, mode, lambda a, b: oov_count(a, b, REFERENCE), OOV_BINS
    )
    assert sum(r.correlation is not None for r in length + oov) >= 3

    wv = build_working_vocab(WORDS, model, vocab)
    padded = list(dict.fromkeys(normalize(w, mode) for w in WORDS))
    assert wv.words == [seq[1:-1] for seq in padded]
    assert np.array_equal(wv.embeddings,
                          embed_matrix(encode_matrix(padded, vocab, model), model))
    for query in ("Cat", "DOGS", "fish"):
        assert nearest_neighbors(query, wv, model, vocab, 3) == _neighbors_reference(
            query, wv, model, vocab, 3, mode
        )


def test_input_case_mode_is_the_recorded_mode_else_lower(preserve, version_1):
    assert preserve[0].input_case_mode == "preserve"
    assert version_1[0].input_case_mode == "lower"


def test_a_case_mode_assigned_later_is_checked_and_aliased(version_1, tmp_path):
    model = dataclasses.replace(version_1[0])
    model.case_mode = "lowercase"  # the accepted alias of "lower"
    assert model.case_mode == "lower"
    save_model(model, version_1[1], tmp_path / "alias.bin")
    assert load_model(tmp_path / "alias.bin")[0].case_mode == "lower"
    with pytest.raises(ValueError, match="case_mode must be one of"):
        model.case_mode = "bogus"
    assert model.case_mode == "lower"
    model.case_mode = None  # not recorded, as a version-1 file loads
    assert model.input_case_mode == "lower"


def test_preserve_and_lower_differ_on_these_texts(preserve, version_1):
    # the test above would show nothing if case made no difference here
    model, vocab = preserve
    assert not np.array_equal(_scores(model, vocab, STS.items, "preserve"),
                              _scores(model, vocab, STS.items, "lower"))
    assert build_working_vocab(WORDS, model, vocab).words != build_working_vocab(
        WORDS, *version_1
    ).words


def test_training_and_the_audit_encode_in_the_model_case_mode(preserve, monkeypatch):
    train_mod = sys.modules["charngram.train"]  # the package rebinds `train` to the function
    seen = []
    real = train_mod._encode_pairs

    def spy(pairs, vocab, model):
        counts, text_ids = real(pairs, vocab, model)
        seen.append((counts.toarray().tolist(), text_ids.tolist()))
        return counts, text_ids

    monkeypatch.setattr(train_mod, "_encode_pairs", spy)
    model, vocab = preserve
    # the two phrases of each pair differ only in case: one row each, which
    # "lower" would have merged
    phrases = [normalize(t, "preserve") for pair in PAIRS[:4] for t in pair]
    want = (count_matrix([encode(p, vocab) for p in phrases], model).toarray().tolist(),
            [[0, 1], [2, 3], [4, 5], [6, 7]])
    # the config's case mode is not read: the model's is
    worst = finite_diff_audit(model, vocab, PAIRS[:4], TrainConfig(dim=model.dim, seed=1))
    assert seen == [want] and worst < 1e-4

    seen.clear()
    trained, _, _ = train(PairDataset(PAIRS[:4]), vocab,
                          TrainConfig(dim=4, batch_size=2, case_mode="preserve"))
    assert trained.case_mode == "preserve" and seen == [want]


def test_cosine_gap_uses_the_model_case_mode(preserve, version_1):
    task = synthetic.SyntheticTask(
        seed=0,
        families=(("Cat", "CAT"), ("Dog", "dogs")),
        train_words=(("Cat",), ("Dog",)),
        heldout_words=(("Cat", "CAT", "cat"), ("Dog", "dogs")),
    )
    words = [w for ws in task.heldout_words for w in ws]
    roots = np.array([0, 0, 0, 1, 1])
    i, j = np.triu_indices(len(words), k=1)
    same = roots[i] == roots[j]
    for (model, vocab), mode in ((preserve, "preserve"), (version_1, "lower")):
        counts = encode_matrix([normalize(w, mode) for w in words], vocab, model)
        units = unit_rows(embed_matrix(counts, model))
        cosines = np.einsum("ij,ij->i", units[i], units[j])
        want = float(np.mean(cosines[same]) - np.mean(cosines[~same]))
        assert synthetic.cosine_gap(model, vocab, task) == want


def test_cli_prints_what_the_python_calls_return(preserve, tmp_path, capsys):
    path = tmp_path / "preserve.bin"
    save_model(*preserve, path)
    model, vocab = load_model(path)
    sts = tmp_path / "sts"
    sts.mkdir()
    (sts / "mixed.tsv").write_text("".join(f"{a}\t{b}\t{g}\n" for a, b, g in STS.items))

    assert main(["eval", "sts", "--model", str(path), "--datasets", str(sts)]) == 0
    report = eval_sts(model, vocab, [load_simset(sts / "mixed.tsv", scale=(0.0, 5.0))])
    assert capsys.readouterr().out.splitlines() == report.to_tsv_lines()

    texts = ["The CAT sat", "a Dog"]
    assert main(["embed", "--model", str(path), *texts]) == 0
    seqs = [normalize(t, "preserve") for t in texts]
    values = embed_matrix(encode_matrix(seqs, vocab, model), model)
    assert capsys.readouterr().out.splitlines() == [
        "\t".join(f"{x:.9g}" for x in row) for row in values
    ]
    assert seqs != [normalize(t) for t in texts]


def test_no_public_callable_that_takes_a_model_takes_a_case_mode():
    takes_model, offenders = set(), []
    for name in charngram.__all__:
        obj = getattr(charngram, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # no signature to read
            continue
        if "model" in params:
            takes_model.add(name)
            if "case_mode" in params:
                offenders.append(name)
    assert offenders == []
    # the guard looks at the functions it is about
    assert {"eval_sts", "eval_word_sim", "binned_eval", "build_working_vocab",
            "nearest_neighbors", "finite_diff_audit"} <= takes_model
    assert "case_mode" not in {f.name for f in dataclasses.fields(WorkingVocab)}
