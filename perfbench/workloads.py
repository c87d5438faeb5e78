"""The benchmark workloads and the pipeline every run goes through.

A run is one process, one client, closed loop: each call into charngram starts
only after the previous one returned. The pipeline is

1. set-up: inputs from the seed, the vocabulary, `train` with zero epochs
   (model initialization and encoding the dataset) and the working
   vocabulary for neighbour queries. It runs `setup_repeats` times: once
   here, and again at evenly spaced points of the timed section;
2. the timed section, `--seconds` long: whole training jobs, as many as fit
   in the training share, with requests run from the per-batch `eval_hook`:
   serving on the set-up model, and `save_model` plus `load_model` of the
   model being trained. Every metric so samples the whole section rather
   than one window of it (the host's speed drifts over seconds). Requests
   continue after the last job until the section is over;
3. held-out quality of the trained model;
4. output checks (untimed).

A step time is the gap between one hook call's return and the next hook
call, so it excludes the requests and set-ups run inside the hook. Between
requests, and at each hook call, a fixed probe (`hostspeed`) is timed; every
timed metric is computed from samples adjusted by the probes around them.
"""

from __future__ import annotations

import resource
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

import charngram as C
from charngram import synthetic as S

import checks
import gen
import hostspeed
from tracing import Tracer, layer_totals, step_breakdown

clock = time.perf_counter

# eval_every small enough that train() calls the hook after every batch.
EVERY_BATCH = 1e-12


# Fractions of `--seconds` for training and for each kind of serving request.
TRAIN_SHARE = 0.6
REQUEST_SHARES = {"embed": 0.06, "eval": 0.09, "nn": 0.09, "ngram": 0.1, "io": 0.06}
EMBED_CHUNK = 20  # stream texts per embed request, each its own embed call
MIN_IO = 13  # save-and-load requests per run, at least
NN_K = 10

# train-paper: the paper's training configuration
PAPER_FAMILY_SIZE = 3  # surface forms per word-pool root, the root included
PAPER_ORDERS = (2, 3, 4)
PAPER_MIN_COUNT = 1
PAPER_ACTIVATION = "tanh"
PAPER_SAMPLING = "max"
PAPER_NEGATIVE_POOL = "same-side"
PAPER_EPOCHS = 1

SYNTHETIC_HELDOUT = 2  # held-out variants per root in train-synthetic's task


@dataclass(frozen=True)
class RunSpec:
    """Run settings every workload has; the workload specs override defaults."""

    min_train_jobs: int = 1
    gap_floor: float = 0.0  # quality floors checked on the trained model
    top1_floor: float = 0.0
    setup_repeats: int = 7  # set-ups per run, spread over the run
    check_texts: int = 48  # outputs compared with the reference routes
    check_queries: int = 16
    check_ngram_queries: int = 4
    probe_texts: int = 200  # size of the tracing-overhead probe
    probe_pairs: int = 200
    serving: gen.ServeParams = gen.ServeParams()


@dataclass(frozen=True)
class PaperSpec(RunSpec):
    """train-paper: the paper's training shape on generated phrase pairs."""

    corpus: gen.CorpusParams = gen.CorpusParams()
    dim: int = 300
    batch_size: int = 100
    determinism_pairs: int = 300  # pairs in the short same-seed training check
    min_train_jobs: int = 2
    gap_floor: float = 0.1
    top1_floor: float = 0.5


@dataclass(frozen=True)
class SyntheticSpec(RunSpec):
    """train-synthetic: `charngram.synthetic`'s reference task and trainer."""

    n_roots: int = 50
    n_variants: int = 10
    epochs: int = 20  # train_on_task's default
    gap_floor: float = 0.3  # acceptance-suite thresholds
    top1_floor: float = 0.8
    setup_repeats: int = 15
    probe_pairs: int = 100


@dataclass
class State:
    """Everything set-up produced; the program only sees what is in here."""

    vocab: C.NGramVocab
    dataset: C.PairDataset
    config: C.TrainConfig | None  # train-synthetic: filled in by its first job
    serve: gen.ServeInputs
    ngram_queries: list[str]
    model: C.Model  # freshly initialized; serving runs on it
    wv: C.WorkingVocab
    heldout_pairs: list = field(default_factory=list)
    task: object = None


# --- the two workloads ------------------------------------------------------


class Paper:
    def __init__(self, spec: PaperSpec = PaperSpec()):
        self.spec = spec

    def setup(self, seed: int) -> State:
        sp = self.spec
        pool = S.make_task(seed, n_roots=sp.corpus.n_roots, n_variants=PAPER_FAMILY_SIZE, n_heldout=1)
        corpus = gen.make_corpus(seed, pool.families, sp.corpus, sp.serving)
        texts = [t for pair in corpus.train_pairs for t in pair]
        vocab = C.build_vocab(texts, PAPER_ORDERS, C.MinCount(PAPER_MIN_COUNT))
        config = C.TrainConfig(
            dim=sp.dim, activation=PAPER_ACTIVATION, batch_size=sp.batch_size,
            sampling=PAPER_SAMPLING, negative_pool=PAPER_NEGATIVE_POOL, epochs=PAPER_EPOCHS,
            seed=seed, eval_every=EVERY_BATCH,
        )
        dataset = C.PairDataset(corpus.train_pairs)
        model = C.train(dataset, vocab, replace(config, epochs=0))[0]
        wv = C.build_working_vocab(corpus.serve.wordlist, model, vocab)
        ngrams = gen.ngram_queries(seed, [e[0] for e in vocab.entries], sp.serving.ngram_queries)
        return State(vocab, dataset, config, corpus.serve, ngrams, model, wv, corpus.heldout_pairs)

    def train_job(self, state: State, hook):
        model, _, curve = C.train(state.dataset, state.vocab, state.config, eval_hook=hook)
        return model, state.vocab, curve

    def short_job(self, state: State):
        head = C.PairDataset(state.dataset.pairs[: self.spec.determinism_pairs])
        return C.train(head, state.vocab, state.config)[0]

    def quality(self, state: State, model, vocab) -> tuple[float, float]:
        """Held-out paraphrase gap and top-1 retrieval of the partner phrase."""
        def embed_all(texts):
            return np.stack([C.embed(C.encode(C.normalize(t), vocab), model).values for t in texts])

        a = embed_all([p[0] for p in state.heldout_pairs])
        b = embed_all([p[1] for p in state.heldout_pairs])
        na = np.linalg.norm(a, axis=1, keepdims=True)
        nb = np.linalg.norm(b, axis=1, keepdims=True)
        cos = (a / na) @ (b / nb).T
        n = len(cos)
        same = float(np.trace(cos)) / n
        cross = (float(cos.sum()) - float(np.trace(cos))) / (n * n - n)
        top1 = float(np.mean(np.argmax(cos, axis=1) == np.arange(n)))
        return same - cross, top1


class Synthetic:
    def __init__(self, spec: SyntheticSpec = SyntheticSpec()):
        self.spec = spec

    def setup(self, seed: int) -> State:
        sp = self.spec
        task = S.make_task(seed, n_roots=sp.n_roots, n_variants=sp.n_variants, n_heldout=SYNTHETIC_HELDOUT)
        model, vocab, _ = S.train_on_task(task, epochs=0)
        serve = gen.synthetic_serve_inputs(seed, task, sp.serving)
        wv = C.build_working_vocab(serve.wordlist, model, vocab)
        ngrams = gen.ngram_queries(seed, [e[0] for e in vocab.entries], sp.serving.ngram_queries)
        return State(vocab, S.training_pairs(task), None, serve, ngrams, model, wv, task=task)

    def train_job(self, state: State, hook):
        """`train_on_task`, with its call to `train` firing `hook` after every batch.

        Only the curve's reporting interval and the hook change; the weights
        do not depend on either. The config it trains with is kept in `state`.
        """
        inner = S.train

        def train_with_hook(dataset, vocab, config, **kwargs):
            state.config = config
            return inner(dataset, vocab, replace(config, eval_every=EVERY_BATCH), eval_hook=hook, **kwargs)

        S.train = train_with_hook
        try:
            return S.train_on_task(state.task, epochs=self.spec.epochs)
        finally:
            S.train = inner

    def short_job(self, state: State):
        return S.train_on_task(state.task, epochs=1)[0]

    def quality(self, state: State, model, vocab) -> tuple[float, float]:
        return (
            S.cosine_gap(model, vocab, state.task),
            S.top1_same_root_accuracy(model, vocab, state.task),
        )


WORKLOADS = {"train-paper": Paper, "train-synthetic": Synthetic}


# --- measurement helpers ----------------------------------------------------


TAIL_CAP = 90.0


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with 10 samples beyond it, at most p90.

    Without the cap, thousands of samples would put the tail at p99.8, which
    on a shared host measures the host's stalls rather than the program.
    """
    xs = sorted(samples)
    if len(xs) < 11:
        return xs[-1], 100.0
    index = min(len(xs) - 11, int(TAIL_CAP / 100.0 * len(xs)))
    return xs[index], 100.0 * index / len(xs)


def median(samples) -> float:
    return float(np.median(samples))


class _NoTrace:
    """Stands in for a Tracer when tracing is off."""

    def request(self, name):
        return nullcontext()

    def pause(self):
        return nullcontext()


class Ops:
    """Closed-loop operations attempted and failed (raised an error)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @contextmanager
    def critical(self):
        """An operation the rest of the run depends on: errors end the run."""
        self.attempted += 1
        yield

    @contextmanager
    def op(self):
        self.attempted += 1
        try:
            yield
        except Exception:  # a failed request is counted, the run goes on
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(traceback.format_exc())


class Server:
    """Requests and repeated set-ups interleaved with training.

    Serving kinds (embed, eval, nn, ngram) run on the set-up model; an io
    request saves the model being trained and loads it back. `serve(seconds)`
    runs requests until that much more time went to them, each time from the
    kind furthest behind its share. Every kind cycles through its inputs.
    Set-up runs again at evenly spaced points of the timed section, so that
    its samples too are spread over the run. Every timing is kept as a
    (start, end) span, for `HostSpeed.adjust`; the host-speed probe runs
    after each request and around each set-up.
    """

    def __init__(self, state: State, setup, sp, ops: "Ops", tr, path: Path, speed: hostspeed.HostSpeed):
        model, vocab, wv = state.model, state.vocab, state.wv
        self.datasets = [C.SimDataset(name, items) for name, items in state.serve.sim_sets]
        reference = C.ReferenceVocab.from_tokens(state.serve.reference_tokens)
        pool = sum(len(ds.items) for ds in self.datasets)
        eval_units = [
            *((lambda ds=ds: C.eval_sts(model, vocab, [ds]), len(ds.items)) for ds in self.datasets),
            (lambda: C.binned_eval(model, vocab, self.datasets, "length"), pool),
            (lambda: C.binned_eval(model, vocab, self.datasets, "oov", reference=reference), pool),
            (lambda: C.eval_word_sim(model, vocab, self.datasets[0]), len(self.datasets[0].items)),
        ]
        stream = state.serve.stream
        chunks = [stream[i : i + EMBED_CHUNK] for i in range(0, len(stream), EMBED_CHUNK)]
        # kind -> (inputs, request, work done by one request)
        self.kinds = {
            "embed": (chunks, lambda texts: [C.embed(C.encode(C.normalize(t), vocab), model) for t in texts], len),
            "eval": (eval_units, lambda unit: unit[0](), lambda unit: unit[1]),
            "nn": (state.serve.nn_queries, lambda q: C.nearest_neighbors(q, wv, model, vocab, NN_K), lambda q: 1),
            "ngram": (state.ngram_queries, lambda q: C.ngram_neighbors(q, model, vocab, NN_K), lambda q: 1),
            "io": ([None], lambda _: self._save_and_load(), lambda _: 1),
        }
        self.minimum = {
            "embed": -(-sp.check_texts // EMBED_CHUNK),
            "eval": len(eval_units),
            "nn": max(11, sp.check_queries),
            "ngram": sp.check_ngram_queries,
            "io": MIN_IO,
        }
        self.setup, self.setup_repeats = setup, sp.setup_repeats
        self.setup_spans: list[tuple[float, float]] = []
        self.setup_marks: list[float] = []
        self.vocab = vocab
        self.path = path
        self.current = model  # the model being trained, as last seen by the hook
        self.save_spans: list[tuple[float, float]] = []
        self.load_spans: list[tuple[float, float]] = []
        self.busy = dict.fromkeys(self.kinds, 0.0)
        self.requests = dict.fromkeys(self.kinds, 0)
        self.spans = {kind: [] for kind in self.kinds}  # (start, end) per request
        self.work = {kind: [] for kind in self.kinds}  # work done, per request
        self.inputs = {kind: [] for kind in self.kinds}  # input index, per request
        self.first_pass = {kind: [] for kind in self.kinds}
        self.ops, self.tr, self.speed = ops, tr, speed
        self.used = 0.0  # time spent in requests
        self.setup_used = 0.0  # time spent in set-ups after the first

    def start(self, seconds: float) -> None:
        """Schedule the remaining set-ups over a timed section `seconds` long."""
        now, n = clock(), self.setup_repeats
        self.setup_marks = [now + seconds * i / n for i in range(1, n)]

    def set_up(self) -> None:
        self.speed.maybe_probe()
        with self.tr.request("bench.setup"):
            t0 = clock()
            self.setup()
            t1 = clock()
        self.speed.probe()
        self.setup_spans.append((t0, t1))
        self.setup_used += t1 - t0

    def _set_up_if_due(self) -> None:
        if self.setup_marks and clock() >= self.setup_marks[0]:
            self.setup_marks.pop(0)
            self.set_up()

    def _save_and_load(self) -> None:
        t0 = clock()
        C.save_model(self.current, self.vocab, self.path)
        t1 = clock()
        C.load_model(self.path)
        self.save_spans.append((t0, t1))
        self.load_spans.append((t1, clock()))

    def request(self, kind: str) -> None:
        inputs, call, work = self.kinds[kind]
        i = self.requests[kind]
        item = inputs[i % len(inputs)]
        result = t1 = None
        t0 = clock()
        with self.ops.op(), self.tr.request(f"bench.{kind}"):
            t0 = clock()
            result = call(item)
            t1 = clock()
        if t1 is None:  # it raised: its time counts toward its share, no sample
            spent = clock() - t0
        else:
            spent = t1 - t0
            self.spans[kind].append((t0, t1))
            self.work[kind].append(work(item))
            self.inputs[kind].append(i % len(inputs))
        self.speed.maybe_probe()
        self.busy[kind] += spent
        self.used += spent
        self.requests[kind] += 1
        if i < len(inputs):
            self.first_pass[kind].append(result)

    def serve(self, seconds: float) -> None:
        target = self.used + seconds
        self._set_up_if_due()
        while self.used < target:
            self.request(min(self.kinds, key=lambda kind: self.busy[kind] / REQUEST_SHARES[kind]))
            self._set_up_if_due()

    def finish(self) -> None:
        """Top up set-ups and every kind to the counts the metrics and checks need."""
        while len(self.setup_spans) < self.setup_repeats:
            self.set_up()
        for kind, count in self.minimum.items():
            while self.requests[kind] < count:
                self.request(kind)


# --- the run ----------------------------------------------------------------


def run(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One benchmark run; returns metrics, per-layer numbers and check results."""
    sp = workload.spec
    tracer = Tracer() if trace else None
    tr = tracer if trace else _NoTrace()
    ops = Ops()
    log = checks.CheckLog()
    speed = hostspeed.HostSpeed()

    with tracer.installed() if trace else nullcontext():
        # 1. set-up; it runs again during the timed section
        speed.probe()
        with tr.request("bench.setup"):
            t0 = clock()
            state = workload.setup(seed)
            first_setup = (t0, clock())
        speed.probe()
        path = workdir / "model.chrg"
        server = Server(state, lambda: workload.setup(seed), sp, ops, tr, path, speed)
        server.setup_spans.append(first_setup)

        # 2. training jobs, as many as fit in the training share (at least
        # `min_train_jobs`), with requests and set-ups run from the hook
        ratio = (1.0 - TRAIN_SHARE) / TRAIN_SHARE
        server.start(seconds)
        t_start = clock()

        def training_time() -> float:
            return clock() - t_start - server.used - server.setup_used - speed.used

        jobs = []  # per job: (hook entry, hook exit, examples seen) per batch
        first = None
        while True:
            stamps = []

            def hook(model, seen, stamps=stamps):
                entered = clock()
                speed.maybe_probe()
                server.current = model
                server.serve(ratio * training_time() - server.used)
                stamps.append((entered, clock(), seen))

            t0 = training_time()
            with ops.critical(), tr.request("bench.train"):
                model, vocab, curve = workload.train_job(state, hook)
            job_time = training_time() - t0
            jobs.append(stamps)
            log.record("training", checks.check_finite_losses(curve))
            if first is None:
                first = (model, vocab, curve)
            else:
                log.record("training", checks.check_same_weights(first[0], model))
            server.current = first[0]
            del model
            done = training_time()
            if len(jobs) >= sp.min_train_jobs and done + job_time > TRAIN_SHARE * seconds:
                break
        # set-ups lengthen the section rather than displace requests
        server.serve(max(ratio * done - server.used, seconds - (training_time() + server.used)))
        server.finish()
        model, vocab, curve = first
        steps = [
            (out_a, in_b, seen_b - seen_a)
            for stamps in jobs
            for (_, out_a, seen_a), (in_b, _, seen_b) in zip(stamps, stamps[1:])
        ]
        losses = [v for _, name, v in curve.points if name == "epoch_mean_batch_loss"]

        # 3. held-out quality
        with ops.critical(), tr.request("bench.quality"):
            gap, top1 = workload.quality(state, model, vocab)

        # 4. checks
        with tr.pause():
            file_bytes = 0
            with log.guard("io"):
                C.save_model(model, vocab, path)
                file_bytes = path.stat().st_size
                log.record("io", checks.check_roundtrip(model, vocab, *C.load_model(path)))
            _check_serving(log, sp, state, server)
            log.record("quality", checks.check_at_least("heldout_gap", gap, sp.gap_floor))
            log.record("quality", checks.check_at_least("heldout_top1", top1, sp.top1_floor))
            if len(jobs) < 2:
                with log.guard("training"):
                    same = checks.check_same_weights(workload.short_job(state), workload.short_job(state))
                    log.record("training", same)
            touched = _touched_rows(state, vocab, jobs) if trace else None

    # every timed metric is taken from samples at the reference host speed
    gaps = speed.adjust([(a, b) for a, b, _ in steps])
    step_tail, step_pct = tail(gaps)
    nn_lat = speed.adjust(server.spans["nn"])
    nn_tail, nn_pct = tail(nn_lat)
    setups = speed.adjust(server.setup_spans)

    def unit_rate(kind: str) -> float:
        """Work per second: 1 over the median request time per unit of work."""
        times = speed.adjust(server.spans[kind])
        return 1.0 / median([t / w for t, w in zip(times, server.work[kind])])

    def pass_rate(kind: str) -> float:
        """Work per second over one pass of the kind's inputs, each input
        timed by its median. For inputs that differ in cost per unit of work
        (`binned_eval` pools every set), a median over all requests would
        jump between inputs as their request counts vary."""
        by_input = {}
        for t, i, w in zip(speed.adjust(server.spans[kind]), server.inputs[kind], server.work[kind]):
            by_input.setdefault(i, (w, []))[1].append(t)
        return sum(w for w, _ in by_input.values()) / sum(median(ts) for _, ts in by_input.values())

    metrics = {
        "setup_s": (median(setups), "s"),
        "train_pairs_per_s": (1.0 / median([t / n for t, (_, _, n) in zip(gaps, steps)]), "pairs/s"),
        "train_step_ms_p50": (1e3 * median(gaps), "ms"),
        "train_step_ms_tail": (1e3 * step_tail, "ms"),
        "train_loss_last": (losses[-1], "loss"),
        "heldout_gap": (gap, "cosine"),
        "heldout_top1": (top1, "fraction"),
        "model_save_s": (median(speed.adjust(server.save_spans)), "s"),
        "model_load_s": (median(speed.adjust(server.load_spans)), "s"),
        "embed_texts_per_s": (unit_rate("embed"), "texts/s"),
        "eval_pairs_per_s": (pass_rate("eval"), "pairs/s"),
        "nn_query_ms_p50": (1e3 * median(nn_lat), "ms"),
        "nn_query_ms_tail": (1e3 * nn_tail, "ms"),
        "ngram_nn_queries_per_s": (unit_rate("ngram"), "queries/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    attempted = ops.attempted + log.attempted
    failed = ops.failed + log.failed
    detail = {
        # Unadjusted medians and the probe's own figures; kept for reading,
        # not gated. host_speed is REF_PROBE_S over the median probe time.
        "raw": {
            "setup_s_p50": median([b - a for a, b in server.setup_spans]),
            "train_step_ms_p50": 1e3 * median([b - a for a, b, _ in steps]),
            "nn_query_ms_p50": 1e3 * median([b - a for a, b in server.spans["nn"]]),
            "probe_ms_p50": 1e3 * median(speed.times),
            "host_speed": hostspeed.REF_PROBE_S / median(speed.times),
        },
        "samples": {
            "setup_repeats": len(server.setup_spans),
            "train_jobs": len(jobs),
            "train_steps": len(gaps),
            "train_step_tail_percentile": round(step_pct, 2),
            **{f"{kind}_requests": n for kind, n in server.requests.items()},
            **{f"{kind}_busy_s": round(t, 3) for kind, t in server.busy.items()},
            "setup_busy_s": round(sum(b - a for a, b in server.setup_spans), 3),
            "probes": len(speed.times),
            "probe_busy_s": round(speed.used, 3),
            "nn_query_tail_percentile": round(nn_pct, 2),
        },
        "vocab_rows": len(vocab),
        "failed_ops_frac": failed / attempted,
        "check_failures": log.failures(),
        "errors": ops.errors,
    }
    result = {"metrics": metrics, "attempted": attempted, "failed": failed, "detail": detail}
    if trace:
        layers = layer_totals(tracer.spans, tracer.counts)
        split = step_breakdown(tracer.spans, [(a, b) for a, b, _ in steps])
        layers.update({
            "train.step_s": split["step_s"],
            "train.forward_s": split["forward_s"],
            "train.negatives_s": split["negatives_s"],
            "train.backward_adam_s": split["backward_adam_s"],
            "train.touched_rows_per_step": touched,
            "train.touched_frac": touched / len(vocab),
            "io.bytes_written": file_bytes,
            "io.bytes_read": file_bytes,
            "trace.overhead_frac": _trace_overhead(workload, state, server.datasets),
        })
        result["layers"] = layers
        result["tracer"] = tracer
    return result


def _touched_rows(state: State, vocab, jobs) -> float:
    """Mean distinct vocabulary rows per training batch, rebuilt from outside.

    Batches are recovered with the public `epoch_permutation` and `encode`,
    for as many epochs as the first timed job ran.
    """
    config = state.config
    pairs = state.dataset.pairs
    encoded = [
        set(C.encode(C.normalize(a), vocab)) | set(C.encode(C.normalize(b), vocab))
        for a, b in pairs
    ]
    n, b = len(pairs), config.batch_size
    per_epoch = len([s for s in range(0, n, b) if min(b, n - s) >= 2])
    sizes = []
    for epoch in range(max(1, len(jobs[0]) // per_epoch)):
        order = C.epoch_permutation(config.seed, epoch, n, config.curriculum)
        for s in range(0, n, b):
            idxs = order[s : s + b]
            if len(idxs) >= 2:
                sizes.append(len(set().union(*(encoded[i] for i in idxs))))
    return float(np.mean(sizes))


def _trace_overhead(workload, state: State, datasets) -> float:
    """Traced over untraced wall time of one fixed probe, minus one.

    The probe embeds texts, scores one similarity set, runs neighbour queries
    and a short training job. It runs untraced and traced alternately, three
    times each; the fastest of each side is compared, since interference from
    the host only ever adds time.
    """
    sp = workload.spec
    model, vocab, wv = state.model, state.vocab, state.wv
    texts = state.serve.stream[: sp.probe_texts]
    queries = state.serve.nn_queries[:10]
    head = C.PairDataset(state.dataset.pairs[: sp.probe_pairs])

    def probe():
        t0 = clock()
        for t in texts:
            C.embed(C.encode(C.normalize(t), vocab), model)
        C.eval_sts(model, vocab, datasets[:1])
        for q in queries:
            C.nearest_neighbors(q, wv, model, vocab, NN_K)
        C.train(head, vocab, replace(state.config, epochs=1))
        return clock() - t0

    plain, traced = [], []
    for _ in range(3):
        plain.append(probe())
        with Tracer().installed():
            traced.append(probe())
    return min(traced) / min(plain) - 1.0


def _check_serving(log: checks.CheckLog, sp, state: State, server: Server) -> None:
    """Serving outputs of the first pass over each input list, against references."""
    model, vocab, serve = state.model, state.vocab, state.serve
    orders = sorted(vocab.orders)

    def ref_embed(texts, dense=False):
        route = checks.dense_embeddings if dense else checks.sparse_embeddings
        return route(texts, model.weights, model.bias, model.activation, vocab.index, orders)

    with log.guard("embed"):
        # a seeded sample of the stream vs the dense count-matrix reference
        embedded = [e for chunk in server.first_pass["embed"] for e in chunk]
        rng = gen.rng_for(len(serve.stream), 9)
        size = min(sp.check_texts, len(embedded))
        picks = sorted(int(i) for i in rng.choice(len(embedded), size=size, replace=False))
        got = np.stack([embedded[i].values for i in picks])
        log.record("embed", checks.check_embeddings(got, ref_embed([serve.stream[i] for i in picks], dense=True)))

    with log.guard("neighbors"):
        # nearest neighbours vs a full scan over reference embeddings
        words = list(dict.fromkeys(checks.ref_normalize(w)[1:-1] for w in serve.wordlist))
        log.record("neighbors", (sorted(words) == sorted(state.wv.words), "working vocabulary words"))
        word_emb = ref_embed(words)
        for q, got in list(zip(serve.nn_queries, server.first_pass["nn"]))[: sp.check_queries]:
            exclude = {checks.ref_normalize(q)[1:-1]}
            expected, all_cos = checks.reference_ranking(words, word_emb, ref_embed([q])[0], exclude, NN_K)
            log.record("neighbors", checks.check_ranking(got, expected, all_cos, NN_K))
        ngrams = [e[0] for e in vocab.entries]
        for q, got in list(zip(state.ngram_queries, server.first_pass["ngram"]))[: sp.check_ngram_queries]:
            row = model.weights[vocab.index[q]]
            expected, all_cos = checks.reference_ranking(ngrams, model.weights, row, {q}, NN_K)
            log.record("neighbors", checks.check_ranking(got, expected, all_cos, NN_K))

    with log.guard("evaluate"):
        # correlations recomputed with scipy from reference cosines
        datasets = server.datasets
        results = server.first_pass["eval"]
        pool = [item for ds in datasets for item in ds.items]
        left = ref_embed([t1 for t1, _, _ in pool])
        scores = checks.pair_cosines(left, ref_embed([t2 for _, t2, _ in pool]))
        golds = np.array([g for _, _, g in pool])
        start = 0
        for ds, report in zip(datasets, results):
            end = start + len(ds.items)
            got_r = report.per_dataset.get(ds.name)
            log.record("evaluate", checks.check_correlation(got_r, scores[start:end], golds[start:end]))
            start = end
        by_length, by_oov, word_rho = results[len(datasets):]
        known = {t.lower() for t in serve.reference_tokens}
        lengths = [max(len(t1.split()), len(t2.split())) for t1, t2, _ in pool]
        oov = [sum(tok.lower() not in known for tok in t1.split() + t2.split()) for t1, t2, _ in pool]
        log.record("evaluate", checks.check_bins(by_length, lengths, scores, golds))
        log.record("evaluate", checks.check_bins(by_oov, oov, scores, golds))
        n0 = len(datasets[0].items)
        log.record("evaluate", checks.check_spearman(word_rho, scores[:n0], golds[:n0]))


def spec_record(spec) -> dict:
    """The workload's generator and training parameters, for the run record."""
    constants = {
        "train_share": TRAIN_SHARE,
        "request_shares": REQUEST_SHARES,
        "embed_chunk": EMBED_CHUNK,
        "min_io": MIN_IO,
        "nn_k": NN_K,
        "oov_text_frac": gen.OOV_TEXT_FRAC,
        "misspell_frac": gen.MISSPELL_FRAC,
    }
    if isinstance(spec, PaperSpec):
        constants.update(
            family_size=PAPER_FAMILY_SIZE, phrase_words=gen.PAPER_PHRASE_WORDS,
            orders=PAPER_ORDERS, min_count=PAPER_MIN_COUNT, activation=PAPER_ACTIVATION,
            sampling=PAPER_SAMPLING, negative_pool=PAPER_NEGATIVE_POOL, epochs=PAPER_EPOCHS,
        )
    else:
        constants.update(phrase_words=gen.SYNTHETIC_PHRASE_WORDS, n_heldout=SYNTHETIC_HELDOUT)
    return {**asdict(spec), **constants}
