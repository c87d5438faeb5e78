#!/usr/bin/env python3
"""Compare a parent checkout and a change on one workload, in alternating pairs.

    python3 perfbench/compare.py --parent ../parent --change . --workload train-paper

Both checkouts must hold the same perfbench/ files (copy the change's
perfbench/ and BENCHMARK.json into the parent first). Pair i runs seed
`--seed-base + i` on both sides, parent first on even i and change first on
odd i. For every end-to-end metric the report gives each side's quartiles
and how many pairs the change won; judging them is left to the reader.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "perfbench").glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


def _run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{root}: seed {seed} failed {result['failed']} checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _wins(metric: dict, parent: list[float], change: list[float]) -> int:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)

    if _digest(args.parent) != _digest(args.change):
        raise SystemExit("the two checkouts hold different perfbench/ code")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            root = args.parent if side == "parent" else args.change
            runs[side].append(_run(root, args.workload, args.seed_base + i, seconds))
            print(f"pair {i} {side} done", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs of {seconds}s runs")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        wins = _wins(metric, parent, change)
        pq = statistics.quantiles(parent, n=4)
        cq = statistics.quantiles(change, n=4)
        print(
            f"{name:24s} parent {pq[1]:.5g} [{pq[0]:.5g}, {pq[2]:.5g}]  "
            f"change {cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}] {metric['unit']}  "
            f"wins {wins}/{args.pairs}  bound {metric['bound']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
