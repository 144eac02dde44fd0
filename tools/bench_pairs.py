"""Run the benchmark in two checkouts, in alternating order, and compare their end-to-end metrics.

    python3 tools/bench_pairs.py OLD NEW WORKLOAD [--pairs 10] [--seconds 10] [--seed 1]

OLD and NEW are the roots of two checkouts. Each pair runs

    python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0

once in each checkout's root, one run after the other: OLD first in odd pairs, NEW first in
even ones, so a drift in the machine's speed falls on both sides alike. For each end-to-end
metric of NEW's BENCHMARK.json it prints every run's value, the median of each side, the
interquartile range of OLD's runs, and how many pairs NEW won (a strictly better value in the
metric's direction). A median gap wider than OLD's interquartile range is marked. The seed
defaults to 1; perfbench/README.md holds seed 7919 back for confirming a claim, which
--seed 7919 runs through the same pairs. The exit code is 1 if any run failed or did not
report "correct": true, else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(root: Path, workload: str, seconds: float, seed: int) -> dict:
    """One benchmark run in root: its last stdout line, parsed, or {"correct": False}."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False}
    if proc.returncode != 0 or result.get("correct") is not True:
        sys.stderr.write(f"{root}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result["correct"] = False
    return result


def quartiles(values: list) -> tuple:
    """The first and third quartiles, interpolated linearly (numpy's default method)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.new / "BENCHMARK.json").read_text())

    runs = {"old": [], "new": []}
    for i in range(args.pairs):
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        for side in order:
            runs[side].append(run(getattr(args, side), args.workload, args.seconds, args.seed))
        print(f"pair {i + 1}: {' then '.join(order)}", flush=True)

    correct = all(r["correct"] for side in runs.values() for r in side)
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s at seed {args.seed}; "
          f"every run correct: {correct}")
    if not correct:
        return 1
    for entry in spec["end_to_end"]:
        name, higher = entry["name"], entry["better"] == "higher"
        old, new = ([r["metrics"][name]["value"] for r in runs[side]] for side in ("old", "new"))
        wins = sum((n > o) if higher else (n < o) for o, n in zip(old, new))
        q1, q3 = quartiles(old)
        gap = abs(statistics.median(new) - statistics.median(old))
        print(f"{name} ({entry['unit']}, {entry['better']} is better)")
        print("  old: " + " ".join(f"{v:.6g}" for v in old))
        print("  new: " + " ".join(f"{v:.6g}" for v in new))
        print(f"  median old {statistics.median(old):.6g}  new {statistics.median(new):.6g}  "
              f"old IQR {q3 - q1:.6g}{'  (gap > IQR)' if gap > q3 - q1 else ''}  "
              f"new won {wins} of {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
