"""Seeded input generators for the benchmark workloads.

Every function here is a pure function of its seed and parameters: the same
seed always yields the same pairs, similarity sets, word lists and query
streams. The program under test only ever receives the generated inputs.

Phrases are built from word families: a random lowercase root plus a few
surface variants (suffixes and single-character edits), as drawn by
`charngram.synthetic.make_task`. A paraphrase pair is one choice of roots
written twice with independently drawn variants, so character n-gram overlap
carries the paraphrase signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LETTERS = "abcdefghijklmnopqrstuvwxyz"
SUFFIXES = ("s", "es", "ed", "ing", "er", "ly", "ness", "ment", "tion", "able")

PAPER_PHRASE_WORDS = (2, 5)  # inclusive words per phrase, train-paper
SYNTHETIC_PHRASE_WORDS = (1, 3)  # the same for train-synthetic's serving texts
OOV_TEXT_FRAC = 0.02  # stream texts made of characters outside the vocabulary
MISSPELL_FRAC = 0.5  # share of nn queries that are misspellings


@dataclass(frozen=True)
class CorpusParams:
    """Size of train-paper's generated phrase corpus."""

    n_roots: int = 3400  # word pool: random root words
    train_pairs: int = 2000
    heldout_pairs: int = 200


@dataclass(frozen=True)
class ServeParams:
    """Size of the serving inputs: similarity sets and query streams."""

    sim_sets: int = 4  # similarity datasets for eval_sts
    sim_items: int = 250  # scored pairs per similarity dataset
    stream_texts: int = 2000  # texts in the embed stream
    nn_queries: int = 200  # nearest-neighbour query stream length
    ngram_queries: int = 100  # n-gram neighbour query stream length


def rng_for(seed: int, *domain: int) -> np.random.Generator:
    """Independent stream per (seed, domain), so inputs never share draws."""
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, *domain]))


def misspell(word: str, rng: np.random.Generator) -> str:
    """One substitution, deletion, insertion or suffix; never returns `word`."""
    while True:
        op = int(rng.integers(0, 4))
        if op == 0:
            out = word + SUFFIXES[int(rng.integers(0, len(SUFFIXES)))]
        elif op == 1:
            pos = int(rng.integers(0, len(word)))
            out = word[:pos] + LETTERS[int(rng.integers(0, 26))] + word[pos + 1 :]
        elif op == 2 and len(word) > 3:
            pos = int(rng.integers(0, len(word)))
            out = word[:pos] + word[pos + 1 :]
        else:
            pos = int(rng.integers(0, len(word) + 1))
            out = word[:pos] + LETTERS[int(rng.integers(0, 26))] + word[pos:]
        if out != word:
            return out


@dataclass
class ServeInputs:
    """What the serving phase receives: texts, scored pairs, words, queries."""

    stream: list[str]  # texts to embed, in request order
    sim_sets: list[tuple[str, list[tuple[str, str, float]]]]  # (name, items)
    reference_tokens: list[str]  # tokens that count as known for OOV binning
    wordlist: list[str]  # working vocabulary for nearest-neighbour queries
    nn_queries: list[str]  # in-list words and misspellings


@dataclass
class PhraseCorpus:
    """Generated paper-shape inputs for one seed."""

    train_pairs: list[tuple[str, str]]
    heldout_pairs: list[tuple[str, str]]
    serve: ServeInputs


def _phrase(families, roots, rng) -> str:
    return " ".join(families[r][int(rng.integers(len(families[r])))] for r in roots)


def _pair(families, rng, words: tuple[int, int]) -> tuple[list[int], str, str]:
    k = int(rng.integers(words[0], words[1] + 1))
    roots = [int(r) for r in rng.choice(len(families), size=k, replace=False)]
    return roots, _phrase(families, roots, rng), _phrase(families, roots, rng)


def serve_inputs(
    seed: int,
    families: list[list[str]],
    texts: list[str],
    wordlist: list[str],
    reference_tokens: list[str],
    words: tuple[int, int],
    params: ServeParams,
) -> ServeInputs:
    """Serving inputs over word `families` (paraphrase groups) and a text pool."""
    # Similarity sets: gold is the share of roots the two phrases have in
    # common, scaled to [0, 5], so gold scores vary and are never constant.
    sim_rng = rng_for(seed, 2)
    sim_sets = []
    for s in range(params.sim_sets):
        items = []
        for _ in range(params.sim_items):
            roots1, t1, _ = _pair(families, sim_rng, words)
            keep = int(sim_rng.integers(0, len(roots1) + 1))
            roots2 = roots1[:keep]
            while len(roots2) < len(roots1):
                r = int(sim_rng.integers(len(families)))
                if r not in roots1 and r not in roots2:
                    roots2.append(r)
            # Identical texts would score a cosine of 1 up to float noise, and
            # ties that noise makes or breaks move Spearman's ranks.
            t2 = t1
            while t2 == t1:
                t2 = _phrase(families, roots2, sim_rng)
            items.append((t1, t2, 5.0 * keep / len(roots1)))
        sim_sets.append((f"sim-{s}", items))

    stream_rng = rng_for(seed, 3)
    stream = []
    for _ in range(params.stream_texts):
        if stream_rng.random() < OOV_TEXT_FRAC:
            stream.append(" ".join(str(int(d)) for d in stream_rng.integers(0, 10, size=3)))
            continue
        words = texts[int(stream_rng.integers(len(texts)))].split()
        if stream_rng.random() < 0.5:
            pos = int(stream_rng.integers(len(words)))
            words[pos] = misspell(words[pos], stream_rng)
        stream.append(" ".join(words))

    nn_rng = rng_for(seed, 4)
    nn_queries = []
    for _ in range(params.nn_queries):
        word = wordlist[int(nn_rng.integers(len(wordlist)))]
        if nn_rng.random() < MISSPELL_FRAC:
            word = misspell(word, nn_rng)
        nn_queries.append(word)
    return ServeInputs(stream, sim_sets, reference_tokens, wordlist, nn_queries)


def make_corpus(
    seed: int, families, corpus: CorpusParams = CorpusParams(), serve: ServeParams = ServeParams()
) -> PhraseCorpus:
    """Paraphrase pairs over word `families`, plus serving inputs, from `seed`."""
    families = [list(fam) for fam in families]
    pair_rng = rng_for(seed, 1)
    words = PAPER_PHRASE_WORDS
    train_pairs = [_pair(families, pair_rng, words)[1:] for _ in range(corpus.train_pairs)]
    heldout_pairs = [_pair(families, pair_rng, words)[1:] for _ in range(corpus.heldout_pairs)]
    # The working vocabulary holds each root and its first variant; known
    # tokens for OOV binning are the same words, so the other variants and
    # all misspellings count as unknown.
    known = [w for fam in families for w in fam[:2]]
    texts = [t for pair in train_pairs + heldout_pairs for t in pair]
    inputs = serve_inputs(seed, families, texts, known, known, words, serve)
    return PhraseCorpus(train_pairs, heldout_pairs, inputs)


def synthetic_serve_inputs(seed: int, task, params: ServeParams = ServeParams()) -> ServeInputs:
    """Serving inputs over a `charngram.synthetic` task's word families."""
    families = [list(fam) for fam in task.families]
    train_words = [w for ws in task.train_words for w in ws]
    return serve_inputs(
        seed, families, train_words, train_words, train_words, SYNTHETIC_PHRASE_WORDS, params
    )


def ngram_queries(seed: int, ngrams: list[str], count: int) -> list[str]:
    """`count` vocabulary n-grams drawn with replacement from `ngrams`."""
    rng = rng_for(seed, 5)
    return [ngrams[int(i)] for i in rng.integers(0, len(ngrams), size=count)]
