"""Span tracing around calls into charngram's public functions.

`Tracer.installed()` replaces each traced function in every charngram module
namespace that holds it, so calls made by one charngram module into another
(for example `evaluate` calling `embed`, which it imported by name) are timed
too. The training module is reached through `sys.modules["charngram.train"]`,
because the package re-exports the function `train` under the module's name.

Spans are kept in memory as tuples (name, start, end, parent, run_id) and
written out once the run is over. Nothing inside the program is changed; the
wrappers only read the clock and count work around each call.
"""

from __future__ import annotations

import json
import sys
import time
from bisect import bisect_left
from collections import Counter, defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, RUN_ID = range(5)

FORWARD = frozenset({"model.preactivation", "model.apply_activation", "model.embed"})
ENCODE = frozenset({"vocab.normalize", "vocab.encode"})
EVAL = frozenset({"evaluate.eval_sts", "evaluate.binned_eval", "evaluate.eval_word_sim"})
NN_QUERY = frozenset({"neighbors.nearest_neighbors", "neighbors.ngram_neighbors"})


def _count_encode(counts, args, kwargs, result):
    seq = args[0]
    vocab = args[1] if len(args) > 1 else kwargs["vocab"]
    counts["encode_calls"] += 1
    counts["ngrams_extracted"] += sum(max(0, len(seq) - n + 1) for n in vocab.orders)
    counts["ngrams_in_vocab"] += sum(result.values())
    counts["encode_empty"] += not result


def _count_preactivation(counts, args, kwargs, result):
    counts["forward_calls"] += 1
    counts["rows_gathered"] += len(args[0])


def _count_eval(counts, args, kwargs, result):
    datasets = args[2] if len(args) > 2 else kwargs["datasets"]
    counts["pairs_scored"] += sum(len(ds.items) for ds in datasets)


def _count_binned(counts, args, kwargs, result):
    items = args[2] if len(args) > 2 else kwargs["items"]
    if hasattr(items, "items"):  # one SimDataset
        items = [items]
    counts["pairs_scored"] += sum(len(e.items) if hasattr(e, "items") else 1 for e in items)


def _count_word_sim(counts, args, kwargs, result):
    dataset = args[2] if len(args) > 2 else kwargs["dataset"]
    counts["pairs_scored"] += len(dataset.items)


def _count_nn(counts, args, kwargs, result):
    wv = args[1] if len(args) > 1 else kwargs["wv"]
    counts["candidates_scanned"] += len(wv.words)


def _count_ngram_nn(counts, args, kwargs, result):
    model = args[1] if len(args) > 1 else kwargs["model"]
    counts["candidates_scanned"] += model.vocab_size


# (defining module, function, counter, modules whose own calls stay untraced)
TARGETS = (
    ("vocab", "build_vocab", None, ()),
    ("vocab", "normalize", None, ("vocab",)),  # build_vocab's per-text calls
    ("vocab", "encode", _count_encode, ()),
    ("model", "preactivation", _count_preactivation, ()),
    ("model", "apply_activation", None, ()),
    ("model", "embed", None, ()),
    ("train", "init_model", None, ()),
    ("train", "select_negatives", None, ()),
    ("train", "train", None, ()),
    ("evaluate", "eval_sts", _count_eval, ()),
    ("evaluate", "binned_eval", _count_binned, ()),
    ("evaluate", "eval_word_sim", _count_word_sim, ()),
    ("neighbors", "build_working_vocab", None, ()),
    ("neighbors", "nearest_neighbors", _count_nn, ()),
    ("neighbors", "ngram_neighbors", _count_ngram_nn, ()),
    ("io", "save_model", None, ()),
    ("io", "load_model", None, ()),
    ("synthetic", "make_task", None, ()),
)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self.paused = False
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, name, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. one closed-loop request."""
        if self.paused:
            yield
            return
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = (name, start, time.perf_counter(), parent, self.run_id)

    @contextmanager
    def request(self, name):
        """A new closed-loop request: a fresh run id shared by all its spans."""
        self.run_id += 1
        with self.span(name):
            yield

    @contextmanager
    def pause(self):
        saved, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = saved

    @contextmanager
    def installed(self):
        """Patch every charngram namespace that holds a traced function."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "charngram" or name.startswith("charngram."))
        }
        try:
            for module_name, func_name, counter, skip in TARGETS:
                original = getattr(modules[f"charngram.{module_name}"], func_name)
                wrapper = self.wrap(f"{module_name}.{func_name}", original, counter)
                skipped = {f"charngram.{s}" for s in skip}
                for mod_name, mod in modules.items():
                    if mod_name in skipped:
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
            yield self
        finally:
            while self._patched:
                mod, attr, original = self._patched.pop()
                setattr(mod, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _children(spans):
    kids = defaultdict(list)
    for idx, span in enumerate(spans):
        kids[span[PARENT]].append(idx)
    return kids


def _dur(span) -> float:
    return span[END] - span[START]


def self_time(spans, kids, idx) -> float:
    """Span duration minus the part covered by its (sequential) children."""
    return _dur(spans[idx]) - sum(_dur(spans[c]) for c in kids.get(idx, ()))


def step_breakdown(spans, steps) -> dict:
    """Split training steps into forward, negative selection and the rest.

    `steps` holds one (start, end) interval per counted step. Forward and
    negative-selection spans are the direct children of the enclosing
    `train.train` span that start inside a step; what is left of the step is
    its self time: the backward pass and the Adam update.
    """
    kids = _children(spans)
    calls = [i for i, s in enumerate(spans) if s[NAME] == "train.train"]
    starts = {i: [spans[c][START] for c in kids.get(i, ())] for i in calls}
    total = {"step_s": 0.0, "forward_s": 0.0, "negatives_s": 0.0}
    for a, b in steps:
        call = next(i for i in calls if spans[i][START] <= a <= spans[i][END])
        inside = kids[call][bisect_left(starts[call], a) : bisect_left(starts[call], b)]
        total["step_s"] += b - a
        for c in inside:
            if spans[c][NAME] in FORWARD:
                total["forward_s"] += _dur(spans[c])
            elif spans[c][NAME] == "train.select_negatives":
                total["negatives_s"] += _dur(spans[c])
    total["backward_adam_s"] = total["step_s"] - total["forward_s"] - total["negatives_s"]
    return total


def train_init_s(spans) -> float:
    """Per `train` call: time from entry to its first forward pass (or to its end)."""
    kids = _children(spans)
    total = 0.0
    for idx, span in enumerate(spans):
        if span[NAME] != "train.train":
            continue
        first_forward = min(
            (spans[c][START] for c in kids.get(idx, ()) if spans[c][NAME] in FORWARD),
            default=span[END],
        )
        total += first_forward - span[START]
    return total


def layer_totals(spans, counts) -> dict:
    """Busy time and work counts per layer, from the spans of one run."""
    kids = _children(spans)
    names = [s[NAME] for s in spans]

    def total(name):
        return sum(_dur(s) for s in spans if s[NAME] == name)

    def parent_name(span):
        return names[span[PARENT]] if span[PARENT] >= 0 else None

    forward_s = sum(
        _dur(s) for s in spans if s[NAME] in FORWARD and parent_name(s) not in FORWARD
    )
    encode_s = sum(
        _dur(s)
        for s in spans
        if s[NAME] in ENCODE and parent_name(s) not in ENCODE | {"vocab.build_vocab"}
    )
    eval_self = sum(self_time(spans, kids, i) for i, n in enumerate(names) if n in EVAL)
    query_self = sum(self_time(spans, kids, i) for i, n in enumerate(names) if n in NN_QUERY)
    extracted = counts["ngrams_extracted"]
    encodes = counts["encode_calls"]
    return {
        "vocab.build_s": total("vocab.build_vocab"),
        "vocab.encode_s": encode_s,
        "vocab.encode_calls": encodes,
        "vocab.ngrams_extracted": extracted,
        "vocab.coverage": counts["ngrams_in_vocab"] / extracted if extracted else 0.0,
        "vocab.oov_fallback_frac": counts["encode_empty"] / encodes if encodes else 0.0,
        "model.forward_s": forward_s,
        "model.forward_calls": counts["forward_calls"],
        "model.rows_gathered": counts["rows_gathered"],
        "train.init_s": train_init_s(spans),
        "evaluate.eval_s": eval_self,
        "evaluate.pairs_scored": counts["pairs_scored"],
        "neighbors.build_s": total("neighbors.build_working_vocab"),
        "neighbors.query_self_s": query_self,
        "neighbors.candidates_scanned": counts["candidates_scanned"],
        "io.save_s": total("io.save_model"),
        "io.load_s": total("io.load_model"),
        "synthetic.make_task_s": total("synthetic.make_task"),
    }
