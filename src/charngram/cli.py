"""Command-line surface.

Exit codes: 0 success, 1 usage error (a bad flag or setting, or running out
of memory), 2 data error (bad files or datasets, or an output path that is
not a regular file), 3 numerical failure during training, 130 after SIGINT
and 143 after SIGTERM. A closed stdout pipe ends a command silently, by
SIGPIPE, as it ends Unix tools. Results go to stdout; progress, timing, and
the effective configuration go to stderr, so stdout is reproducible for a
fixed seed.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError
from .evaluate import binned_eval, eval_sts, eval_word_sim
from .io import (
    RunConfig,
    config_key,
    escape_ngram,
    load_groups,
    load_model,
    load_pairs,
    load_reference_vocab,
    load_run_config,
    load_simset,
    load_vocab,
    load_wordlist,
    save_curve,
    save_model,
    save_vocab,
    unescape_ngram,
)
from .model import embed_matrix, encode_matrix, row_cosines
from .neighbors import build_working_vocab, nearest_neighbors, ngram_neighbors
from .train import TrainConfig, finite_diff_audit, train
from .vocab import CASE_MODES, MinCount, TopKPerOrder, _encodable, build_vocab, check_orders


# the training settings, by RunConfig field name
_KNOBS = {f.name: f for f in fields(RunConfig)}


class UsageError(Exception):
    """Command-line level mistake discovered after argument parsing."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; the contract reserves 2 for data
    # errors, so usage problems are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def parse_orders(text: str) -> tuple[int, ...]:
    try:
        orders = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as err:
        raise ValueError(f"bad orders {text!r}; expected comma-separated integers") from err
    if not orders:
        raise ValueError(f"bad orders {text!r}; expected comma-separated integers")
    return check_orders(orders)


def parse_policy(text: str):
    kind, _, arg = text.partition(":")
    try:
        if kind == "mincount":
            return MinCount(int(arg))
        if kind == "topk":
            return TopKPerOrder(int(arg))
    except ValueError as err:
        raise ValueError(f"bad policy {text!r}: {err}") from err
    raise ValueError(f"bad policy {text!r}; expected mincount:C or topk:K")


def parse_scale(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError as err:
        raise ValueError(f"bad scale {text!r}; expected LO:HI") from err
    if not lo < hi:
        raise ValueError(f"bad scale {text!r}; expected LO < HI")
    return lo, hi


def _arg_type(fn):
    def convert(text):
        try:
            return fn(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from err

    return convert


def _cmd_build_vocab(args) -> int:
    pairs = load_pairs(args.input)
    corpus = [text for pair in pairs.pairs for text in pair]
    vocab = build_vocab(corpus, args.orders, args.policy, case_mode=args.case)
    if len(vocab) == 0:
        # load_vocab rejects an empty file, so none is written
        raise DataError(f"{args.policy} keeps no n-gram of {args.input}; nothing written")
    save_vocab(vocab, args.out)
    print(f"vocabulary: {len(vocab)} n-grams -> {args.out}", file=sys.stderr)
    return 0


def _cmd_train(args) -> int:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    # every RunConfig field has a same-named train flag that overrides it when given
    for name in _KNOBS:
        value = getattr(args, name)
        if value is not None:
            setattr(cfg, name, value)
    for required in ("pairs", "out"):
        if getattr(cfg, required) is None:
            raise DataError(f"missing required setting: {required}")
    tcfg = cfg.to_train_config()
    # a bad setting is a usage error, reported before any data is read
    tcfg.validate()
    orders, policy = parse_orders(cfg.orders), parse_policy(cfg.policy)
    cfg.validate_paths()
    for line in cfg.to_lines():
        print(line, file=sys.stderr)

    dataset = load_pairs(cfg.pairs)
    if cfg.vocab is not None:
        vocab = load_vocab(cfg.vocab)
    else:
        corpus = [text for pair in dataset.pairs for text in pair]
        vocab = build_vocab(corpus, orders, policy, case_mode=cfg.case)

    hook = None
    if cfg.eval_pairs is not None:
        dev_texts = [t for pair in load_pairs(cfg.eval_pairs).pairs for t in pair]
        dev_counts = None

        def hook(model, examples_seen):
            nonlocal dev_counts
            if dev_counts is None:  # built once, at the first curve point
                dev_counts = encode_matrix(dev_texts, vocab, model)
            values = embed_matrix(dev_counts, model)
            return {"dev_mean_cosine": float(np.mean(row_cosines(values[0::2], values[1::2])))}

    started = time.perf_counter()
    model, _, curve = train(dataset, vocab, tcfg, eval_hook=hook)
    print(f"trained in {time.perf_counter() - started:.1f}s", file=sys.stderr)

    save_model(model, vocab, cfg.out)
    if cfg.curve is not None:
        save_curve(curve, cfg.curve)
    epoch_losses = [v for _, metric, v in curve.points if metric == "epoch_mean_batch_loss"]
    for epoch, value in enumerate(epoch_losses, start=1):
        print(f"epoch {epoch}\tmean_batch_loss\t{value:.9g}")
    return 0


def _load_dataset_dir(directory, scale) -> list:
    paths = sorted(Path(directory).glob("*.tsv"))
    if not paths:
        raise DataError(f"{directory}: no .tsv datasets found")
    return [load_simset(p, scale=scale) for p in paths]


def _load_model(args):
    """The model and vocabulary named by --model; --case must agree with the case mode
    the model records, and a model that records none (version 1) takes it, default lower."""
    model, vocab = load_model(args.model)
    if model.case_mode is None:
        model.case_mode = args.case or "lower"
    elif args.case is not None and args.case != model.case_mode:
        raise UsageError(
            f"--case {args.case} disagrees with the case mode {model.case_mode!r} "
            f"recorded in {args.model}"
        )
    return model, vocab


def _cmd_eval(args) -> int:
    model, vocab = _load_model(args)
    if args.task == "word":
        dataset = load_simset(args.dataset, scale=args.scale)
        rho = eval_word_sim(model, vocab, dataset)
        print(f"{dataset.name}\tspearman\t{rho:.6f}")
        return 0
    datasets = _load_dataset_dir(args.datasets, args.scale)
    if args.task == "sts":
        grouping = load_groups(args.groups) if args.groups else None
        report = eval_sts(model, vocab, datasets, grouping=grouping)
        for line in report.to_tsv_lines():
            print(line)
        return 0
    # bins
    if args.by == "length":
        results = binned_eval(model, vocab, datasets, by="length")
    elif args.by.startswith("oov:"):
        reference = load_reference_vocab(args.by[len("oov:") :])
        results = binned_eval(model, vocab, datasets, by="oov", reference=reference)
    else:
        raise UsageError(f"bad --by value {args.by!r}; expected oov:VOCABFILE or length")
    for res in results:
        shown = "NA" if res.correlation is None else f"{res.correlation:.6f}"
        print(f"{res.label}\t{res.n_pairs}\t{shown}")
    return 0


def _check_utf8(named_texts) -> None:
    """DataError naming the first of (name, text) whose text is not valid UTF-8."""
    # under a POSIX locale, Python reads such stdin and argv bytes as lone surrogates
    for name, text in named_texts:
        if not _encodable(text):
            raise DataError(f"{name}: not valid UTF-8")


def _cmd_embed(args) -> int:
    model, vocab = _load_model(args)
    if args.stdin:
        try:  # under a strict UTF-8 locale, reading stdin raises instead
            texts = [line.rstrip("\n") for line in sys.stdin]
        except UnicodeDecodeError as err:
            raise DataError(f"stdin: not valid UTF-8 ({err})") from err
        _check_utf8((f"stdin:{i}", t) for i, t in enumerate(texts, start=1))
    elif args.text:
        texts = args.text
        _check_utf8((f"argument {t!r}", t) for t in texts)
    else:
        raise UsageError("embed requires TEXT arguments or --stdin")
    counts = encode_matrix(texts, vocab, model)
    for row in embed_matrix(counts, model):
        print("\t".join(f"{x:.9g}" for x in row))
    return 0


def _cmd_nn(args) -> int:
    model, vocab = _load_model(args)
    _check_utf8((f"query {q!r}", q) for q in args.query)
    # each output line echoes its query as its first TSV field
    for query in args.query:
        if not query.split():
            raise DataError(f"query {query!r}: empty")
        if "\t" in query or query.splitlines() != [query]:
            raise DataError(f"query {query!r}: holds a tab or a line break")
    working = build_working_vocab(load_wordlist(args.wordlist), model, vocab)
    for query in args.query:
        for rank, (word, cos) in enumerate(
            nearest_neighbors(query, working, model, vocab, args.k), start=1
        ):
            print(f"{query}\t{rank}\t{word}\t{cos:.6f}")
    return 0


def _cmd_nn_ngram(args) -> int:
    model, vocab = load_model(args.model)
    for raw in args.ngram:
        query = unescape_ngram(raw)
        for rank, (ngram, cos) in enumerate(
            ngram_neighbors(query, model, vocab, args.k), start=1
        ):
            print(f"{escape_ngram(query)}\t{rank}\t{escape_ngram(ngram)}\t{cos:.6f}")
    return 0


def _cmd_audit_grad(args) -> int:
    if args.batch < 2:
        raise UsageError(f"--batch must be at least 2, got {args.batch}")
    model, vocab = _load_model(args)
    pairs = load_pairs(args.pairs)
    batch = pairs.pairs[: args.batch]
    if len(batch) < 2:
        raise DataError("need at least 2 pairs to audit")
    config = TrainConfig(
        dim=model.dim,
        activation=model.activation,
        margin=args.margin,
        sampling=args.sampling,
        seed=args.seed,
        batch_size=len(batch),
    )
    config.validate()
    worst = finite_diff_audit(model, vocab, batch, config, step=args.step)
    print(f"max_relative_error\t{worst:.6e}")
    return 0


def _add_knob(parser, knob, **overrides) -> None:
    """Add the flag a RunConfig field declares; `train` reads its default None as not given."""
    meta = knob.metadata
    kwargs = {"dest": knob.name, "default": None, "help": meta["help"], **overrides}
    if isinstance(knob.default, bool):
        kwargs["action"] = argparse.BooleanOptionalAction
    else:
        kwargs.update(type=meta["parse"], choices=meta["choices"])
    parser.add_argument("--" + config_key(knob).replace("_", "-"), **kwargs)


def _add_case(parser) -> None:
    """--case for a command that reads a model: the model's recorded mode is the default."""
    parser.add_argument(
        "--case", choices=CASE_MODES, default=None,
        help="text case handling (default: the mode the model records, else lower)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="charngram", description=__doc__)
    defaults = RunConfig()
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("build-vocab", help="count n-grams over pair text and write a vocabulary")
    p.add_argument("--input", required=True, help="training pairs file (both sides are counted)")
    # argparse parses a string default as if it were given
    p.add_argument("--orders", type=_arg_type(parse_orders), default=defaults.orders,
                   help=f"comma-separated n-gram orders (default: {defaults.orders})")
    p.add_argument("--policy", type=_arg_type(parse_policy), default=defaults.policy,
                   help=f"mincount:C or topk:K (default: {defaults.policy})")
    p.add_argument("--case", choices=CASE_MODES, default=defaults.case,
                   help=f"text case handling (default: {defaults.case})")
    p.add_argument("--out", required=True, help="output vocabulary TSV")
    p.set_defaults(func=_cmd_build_vocab)

    p = sub.add_parser("train", help="train a model on paraphrase pairs")
    p.add_argument("--config", help="key=value file; explicit flags override it")
    # --case comes last, as in every other command
    for knob in sorted(_KNOBS.values(), key=lambda f: f.name == "case"):
        _add_knob(p, knob)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a model on similarity datasets")
    tasks = p.add_subparsers(dest="task", required=True, metavar="TASK")

    t = tasks.add_parser("word", help="Spearman on a word similarity TSV")
    t.add_argument("--model", required=True)
    t.add_argument("--dataset", required=True)
    t.add_argument("--scale", type=_arg_type(parse_scale), default=(0.0, 10.0),
                   help="gold score range LO:HI (default: 0:10)")
    _add_case(t)
    t.set_defaults(func=_cmd_eval)

    t = tasks.add_parser("sts", help="Pearson per dataset directory, with group averages")
    t.add_argument("--model", required=True)
    t.add_argument("--datasets", required=True, help="directory of *.tsv datasets")
    t.add_argument("--groups", help="dataset<TAB>group file for group averages")
    t.add_argument("--scale", type=_arg_type(parse_scale), default=(0.0, 5.0),
                   help="gold score range LO:HI (default: 0:5)")
    _add_case(t)
    t.set_defaults(func=_cmd_eval)

    t = tasks.add_parser("bins", help="per-bin Pearson by OOV count or token length")
    t.add_argument("--model", required=True)
    t.add_argument("--datasets", required=True, help="directory of *.tsv datasets (pooled)")
    t.add_argument("--by", required=True, help="oov:VOCABFILE or length")
    t.add_argument("--scale", type=_arg_type(parse_scale), default=(0.0, 5.0))
    _add_case(t)
    t.set_defaults(func=_cmd_eval)

    p = sub.add_parser("embed", help="print the embedding of each input text")
    p.add_argument("--model", required=True)
    p.add_argument("--stdin", action="store_true", help="read one text per stdin line")
    p.add_argument("text", nargs="*", metavar="TEXT")
    _add_case(p)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("nn", help="nearest neighbors of queries in a word list")
    p.add_argument("--model", required=True)
    p.add_argument("--wordlist", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("query", nargs="+", metavar="QUERY")
    _add_case(p)
    p.set_defaults(func=_cmd_nn)

    p = sub.add_parser("nn-ngram", help="nearest vocabulary n-grams of query n-grams")
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("ngram", nargs="+", metavar="NGRAM",
                   help="query n-gram; spaces may be written as \\s")
    p.set_defaults(func=_cmd_nn_ngram)

    p = sub.add_parser("audit-grad", help="compare analytic and numeric gradients")
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--batch", type=int, default=5, help="pairs taken from the top of the file")
    for name in ("margin", "sampling", "seed"):
        _add_knob(p, _KNOBS[name], default=getattr(defaults, name), help=None)
    p.add_argument("--step", type=float, default=1e-5)
    _add_case(p)
    p.set_defaults(func=_cmd_audit_grad)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericalError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except DataError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        # e.g. a --dim too large to allocate; numpy's message names the shape
        print(f"error: out of memory: {err or 'allocation failed'}", file=sys.stderr)
        return 1


class _Terminated(BaseException):
    """Raised by the SIGTERM handler, so that cleanup runs as for Ctrl-C."""


def _terminate(signum, frame):
    raise _Terminated


def entry() -> None:
    """The `charngram` script: `main` with the process's signals handled.

    A closed stdout pipe ends the command silently, by the default SIGPIPE
    action, as it ends Unix tools (the shell reports 141). SIGINT and SIGTERM
    end it with one line, exit 130 and 143; both arrive as exceptions, so a
    half-written output file is removed first.
    """
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        code = main(sys.argv[1:])
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        code = 130
    except _Terminated:
        print("error: terminated", file=sys.stderr)
        code = 143
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
