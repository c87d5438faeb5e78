#!/usr/bin/env python3
"""Run one benchmark workload against the charngram sources in this checkout.

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 30 --trace 0

Prints the environment, every metric with its unit and the check summary,
then, as the last line, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
A record of the run goes to .perfbench_out/ at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import envinfo

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"

LAYER_UNITS = {
    "vocab.build_s": "s",
    "vocab.encode_s": "s",
    "vocab.encode_calls": "count",
    "vocab.ngrams_extracted": "count",
    "vocab.coverage": "fraction",
    "vocab.oov_fallback_frac": "fraction",
    "model.forward_s": "s",
    "model.forward_calls": "count",
    "model.rows_gathered": "count",
    "train.init_s": "s",
    "train.step_s": "s",
    "train.forward_s": "s",
    "train.negatives_s": "s",
    "train.backward_adam_s": "s",
    "train.touched_rows_per_step": "rows",
    "train.touched_frac": "fraction",
    "evaluate.eval_s": "s",
    "evaluate.pairs_scored": "count",
    "neighbors.build_s": "s",
    "neighbors.query_self_s": "s",
    "neighbors.candidates_scanned": "count",
    "io.save_s": "s",
    "io.bytes_written": "bytes",
    "io.load_s": "s",
    "io.bytes_read": "bytes",
    "synthetic.make_task_s": "s",
    "trace.overhead_frac": "fraction",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train-paper", "train-synthetic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package = SRC / "charngram"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no charngram sources at {package}", file=sys.stderr)
        return 2
    envinfo.cap_blas_threads()  # before NumPy is first imported
    sys.path.insert(0, str(SRC))
    import charngram

    if Path(charngram.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported charngram from {charngram.__file__}", file=sys.stderr)
        return 2
    import workloads

    env = envinfo.environment()
    for key, value in env.items():
        print(f"# env {key}: {value}")

    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload]()
        result = workloads.run(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = {name: (result["layers"][name], unit) for name, unit in LAYER_UNITS.items()}
    else:
        metrics = result["metrics"]
    detail = result["detail"]
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_ops_frac = {detail['failed_ops_frac']:.6g} fraction "
          f"({result['failed']} of {result['attempted']} operations)")
    for key, value in detail["raw"].items():
        print(f"# raw {key}: {value:.6g}")
    for key, value in detail["samples"].items():
        print(f"# samples {key}: {value}")
    for line in detail["check_failures"] + detail["errors"]:
        print(f"# FAILED {line}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "spec": workloads.spec_record(workload.spec),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "detail": detail,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        result["tracer"].write(OUT / f"spans-{args.workload}.jsonl")

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": float(v), "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
