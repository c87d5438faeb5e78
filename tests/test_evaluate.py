import numpy as np
import pytest

from charngram import (
    DataError,
    BinResult,
    EvalReport,
    ReferenceVocab,
    SimDataset,
    binned_eval,
    embed,
    encode,
    eval_sts,
    eval_word_sim,
    max_token_length,
    normalize,
    oov_count,
    pearson,
    spearman,
)
from charngram.evaluate import LENGTH_BINS, OOV_BINS
from charngram.model import cosine

from conftest import pearson_ref, random_model, spearman_ref


# --- correlation coefficients ------------------------------------------------


def test_spearman_with_tie_worked_example():
    assert spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(0.9487, abs=1e-4)


def test_pearson_worked_example():
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_perfect_and_reversed():
    x = [3.0, 1.0, 4.0, 1.5, 9.0]
    assert spearman(x, x) == pytest.approx(1.0, abs=1e-12)
    assert spearman(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)
    assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)


def test_monotone_map_gives_rank_one():
    x = np.linspace(-2.0, 2.0, 17)
    y = 2 * x + x**3 + np.exp(x)  # strictly increasing, nonlinear
    assert spearman(x, y) == pytest.approx(1.0, abs=1e-12)
    assert pearson(x, y) < 0.999


def test_pearson_affine_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=40)
    assert pearson(x, 2.5 * x + 7) == pytest.approx(1.0, abs=1e-12)
    assert pearson(x, -0.3 * x + 1) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("func", [pearson, spearman])
def test_correlation_symmetry(func):
    rng = np.random.default_rng(10)
    x, y = rng.normal(size=30), rng.normal(size=30)
    assert func(x, y) == pytest.approx(func(y, x), abs=1e-15)


@pytest.mark.parametrize("func", [pearson, spearman])
def test_degenerate_inputs_rejected(func, small_model, small_vocab):
    with pytest.raises(DataError, match="degenerate"):
        func([1.0], [2.0])
    with pytest.raises(DataError, match="degenerate"):
        func([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DataError, match="degenerate"):
        func([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    with pytest.raises(DataError, match="equal-length"):
        func([1.0, 2.0], [1.0, 2.0, 3.0])
    # the evaluation that correlates with it names the dataset
    evaluate = {
        pearson: lambda ds: eval_sts(small_model, small_vocab, [ds]),
        spearman: lambda ds: eval_word_sim(small_model, small_vocab, ds),
    }[func]
    for items in ([("the cat", "a cat", 3.0), ("dogs bark", "fish", 3.0)], [("cat", "dog", 1.0)]):
        with pytest.raises(DataError, match="^flat: degenerate input$"):
            evaluate(SimDataset("flat", items))


def test_correlations_match_brute_force():
    rng = np.random.default_rng(77)
    for trial in range(50):
        n = int(rng.integers(2, 60))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        if trial % 2:  # force ties into half the trials
            x = np.round(x, 1)
            y = np.round(y, 1)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue
        assert pearson(x, y) == pytest.approx(pearson_ref(x, y), abs=1e-12)
        assert spearman(x, y) == pytest.approx(spearman_ref(x, y), abs=1e-12)
        assert abs(pearson(x, y)) <= 1 + 1e-12
        assert abs(spearman(x, y)) <= 1 + 1e-12


# --- datasets and scoring ----------------------------------------------------


def test_simdataset_scale_enforced():
    with pytest.raises(DataError, match="outside scale"):
        SimDataset("bad", [("a", "b", 7.0)], score_scale=(0.0, 5.0))
    ds = SimDataset("ok", [("a", "b", 5.0), ("c", "d", 0.0)])
    assert ds.score_scale == (0.0, 5.0)


def _scored_pairs(model, vocab, texts):
    """Pairs labeled with their own cosines, so rank agreement is perfect."""
    items = []
    for t1, t2 in texts:
        e1 = embed(encode(normalize(t1), vocab), model)
        e2 = embed(encode(normalize(t2), vocab), model)
        items.append((t1, t2, cosine(e1.values, e2.values)))
    return items


WORD_PAIRS = [
    ("cat", "cats"),
    ("cat", "dog"),
    ("black", "bark"),
    ("swim", "deep"),
    ("fish", "fishes"),
    ("loud", "louder"),
]


def test_eval_word_sim_self_consistent(small_vocab):
    model = random_model(np.random.default_rng(1), small_vocab, dim=7)
    items = _scored_pairs(model, small_vocab, WORD_PAIRS)
    ds = SimDataset("self", items, score_scale=(-1.0, 1.0))
    assert eval_word_sim(model, small_vocab, ds) == pytest.approx(1.0, abs=1e-12)
    flipped = SimDataset(
        "anti", [(a, b, -g) for a, b, g in items], score_scale=(-1.0, 1.0)
    )
    assert eval_word_sim(model, small_vocab, flipped) == pytest.approx(-1.0, abs=1e-12)


def test_eval_word_sim_two_pairs_is_sign(small_vocab):
    model = random_model(np.random.default_rng(2), small_vocab, dim=5)
    ds = SimDataset("two", [("cat", "cats", 4.0), ("cat", "deep", 1.0)])
    assert abs(eval_word_sim(model, small_vocab, ds)) == pytest.approx(1.0, abs=1e-12)


def test_eval_sts_groups_and_average(small_vocab):
    model = random_model(np.random.default_rng(4), small_vocab, dim=6)
    datasets = []
    for i, name in enumerate(["alpha", "beta", "gamma"]):
        pairs = WORD_PAIRS[i : i + 3]
        items = [
            (a, b, g + 0.01 * j)  # affine-ish jitter keeps golds non-constant
            for j, (a, b, g) in enumerate(_scored_pairs(model, small_vocab, pairs))
        ]
        datasets.append(SimDataset(name, items, score_scale=(-2.0, 2.0)))
    grouping = {"alpha": "news", "beta": "news"}
    report = eval_sts(model, small_vocab, datasets, grouping=grouping)

    assert set(report.per_dataset) == {"alpha", "beta", "gamma"}
    news = [report.per_dataset["alpha"], report.per_dataset["beta"]]
    assert report.group_averages["news"] == pytest.approx(np.mean(news), abs=1e-15)
    assert report.group_averages["Average"] == pytest.approx(
        np.mean(list(report.per_dataset.values())), abs=1e-15
    )
    assert set(report.group_averages) == {"news", "Average"}


def test_a_grouped_dataset_not_among_the_datasets_is_a_data_error(small_vocab):
    model = random_model(np.random.default_rng(4), small_vocab, dim=6)
    ds = SimDataset("alpha", [("the cat", "a cat", 4.0), ("deep fish", "loud dogs", 1.0)])
    with pytest.raises(DataError, match="grouped dataset 'alhpa' is not among the datasets"):
        eval_sts(model, small_vocab, [ds], grouping={"alpha": "news", "alhpa": "forum"})


def test_a_group_named_average_is_a_data_error(small_vocab):
    # the overall mean is reported as "Average", and would overwrite the group's
    model = random_model(np.random.default_rng(4), small_vocab, dim=6)
    ds = SimDataset("alpha", [("the cat", "a cat", 4.0), ("deep fish", "loud dogs", 1.0)])
    with pytest.raises(DataError, match="group 'Average'"):
        eval_sts(model, small_vocab, [ds], grouping={"alpha": "Average"})


def test_report_tsv_ordering():
    report = EvalReport(
        per_dataset={"zeta": 0.25, "alpha": 0.5},
        group_averages={"web": 0.3, "Average": 0.375, "forums": 0.45},
    )
    assert report.to_tsv_lines() == [
        "alpha\tpearson\t0.500000",
        "zeta\tpearson\t0.250000",
        "forums\taverage_pearson\t0.450000",
        "web\taverage_pearson\t0.300000",
        "Average\taverage_pearson\t0.375000",
    ]


# --- binning -----------------------------------------------------------------


def _label_holds(label: str, k: int) -> bool:
    """Whether key k falls in the bin a label names: "N", ">=N", "<=N" or "A-B"."""
    if label.startswith(">="):
        return k >= int(label[2:])
    if label.startswith("<="):
        return k <= int(label[2:])
    if "-" in label:
        lo, hi = label.split("-")
        return int(lo) <= k <= int(hi)
    return k == int(label)


def test_bin_label_shapes():
    # each bin of the paper's tables holds exactly the keys its label names
    assert [label for label, _, _ in OOV_BINS] == ["0", "1", "2", ">=1", ">=0"]
    assert [label for label, _, _ in LENGTH_BINS] == [
        "<=4", "5", "6", "7", "8", "9", "10", "11-15", "16-20", ">=21"
    ]
    for label, lo, hi in OOV_BINS + LENGTH_BINS:
        assert [lo <= k <= hi for k in range(40)] == [_label_holds(label, k) for k in range(40)]
    # the length bins partition the lengths
    assert all(sum(lo <= k <= hi for _, lo, hi in LENGTH_BINS) == 1 for k in range(40))


def test_oov_count_and_token_length():
    ref = ReferenceVocab.from_tokens(["The", "CAT", "sat"])
    assert oov_count("the cat", "sat sat", ref) == 0
    assert oov_count("the dog", "a cat", ref) == 2
    assert oov_count("dog dog dog", "cat", ref) == 3  # each occurrence counts
    assert max_token_length("a b c d e", "x") == 5
    assert max_token_length("one", "two three") == 2


OOV_ITEMS = [
    ("the cat", "the cat sat", 1.0),  # 0 unknown
    ("sat the", "cat sat", 2.0),  # 0
    ("the dog", "cat sat", 3.0),  # 1
    ("pig cat", "the the", 4.0),  # 1
    ("dog pig", "the cat", 0.0),  # 2
    ("dog pig", "hen cat", 5.0),  # 3: lands only in the >= bins
]


@pytest.fixture(scope="module")
def oov_reference():
    return ReferenceVocab.from_tokens(["the", "cat", "sat"])


def test_oov_bin_populations(small_vocab, oov_reference):
    model = random_model(np.random.default_rng(5), small_vocab, dim=6)
    results = binned_eval(
        model, small_vocab, [SimDataset("pool", OOV_ITEMS)], by="oov", reference=oov_reference
    )
    counts = {r.label: r.n_pairs for r in results}
    assert counts == {"0": 2, "1": 2, "2": 1, ">=1": 4, ">=0": 6}
    assert counts[">=0"] == len(OOV_ITEMS)
    assert counts[">=1"] == len(OOV_ITEMS) - counts["0"]
    by_label = {r.label: r for r in results}
    assert by_label["2"].correlation is None  # single pair: undefined
    for label in ("0", "1", ">=1", ">=0"):
        assert by_label[label].correlation is not None


def test_binned_eval_pools_its_datasets(small_vocab, oov_reference):
    model = random_model(np.random.default_rng(5), small_vocab, dim=6)
    pooled = binned_eval(
        model, small_vocab, [SimDataset("pool", OOV_ITEMS)], by="oov", reference=oov_reference
    )
    split = [SimDataset("head", OOV_ITEMS[:2]), SimDataset("tail", OOV_ITEMS[2:])]
    assert binned_eval(model, small_vocab, split, by="oov", reference=oov_reference) == pooled


def test_degenerate_bin_reports_none(small_vocab, oov_reference):
    model = random_model(np.random.default_rng(6), small_vocab, dim=5)
    # two pairs with two unknown tokens each, and the same gold
    items = [("dog pig", "the cat", 2.0), ("pig hen", "cat sat", 2.0)]
    results = binned_eval(
        model, small_vocab, [SimDataset("flat", items)], by="oov", reference=oov_reference
    )
    by_label = {r.label: r for r in results}
    assert by_label["2"] == BinResult("2", 2, None)  # constant golds: correlation undefined
    assert by_label["0"] == BinResult("0", 0, None)


def test_length_binning(small_vocab):
    model = random_model(np.random.default_rng(7), small_vocab, dim=5)
    items = [
        ("a b c d e", "x", 1.0),
        ("one two", "three", 2.0),
        ("a b c d e f g h i j k l", "x", 3.0),
    ]
    results = binned_eval(model, small_vocab, [SimDataset("lengths", items)], by="length")
    counts = {r.label: r.n_pairs for r in results}
    assert counts["5"] == 1
    assert counts["<=4"] == 1
    assert counts["11-15"] == 1
    assert sum(counts.values()) == 3  # length bins partition the pairs


def test_binned_eval_errors(small_vocab, oov_reference):
    model = random_model(np.random.default_rng(8), small_vocab, dim=5)
    pool = [SimDataset("pool", OOV_ITEMS)]
    with pytest.raises(DataError, match="reference"):
        binned_eval(model, small_vocab, pool, by="oov")
    with pytest.raises(ValueError, match="unknown binning"):
        binned_eval(model, small_vocab, pool, by="size")
    with pytest.raises(DataError, match="empty dataset"):
        binned_eval(model, small_vocab, [], by="length")
    with pytest.raises(DataError, match="reference"):
        binned_eval(
            model,
            small_vocab,
            pool,
            by="oov",
            reference=ReferenceVocab(frozenset()),
        )
