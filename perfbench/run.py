"""elsakit benchmark: one seeded workload, closed loop, one client, one process.

    python3 perfbench/run.py --workload ridge-small --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. With --trace 0 it times verified requests
and prints the end-to-end metrics; with --trace 1 it runs each request
untraced and then traced, and prints the per-layer metrics. Metric names and
units come from BENCHMARK.json. The last line of standard output is one
strict JSON object; the exit code is 0 only if every check held.
"""

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "elsakit" / "__init__.py").is_file():
        print(f"no elsakit sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy is first imported, so pin it first.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harness  # imports numpy, scipy and elsakit: part of set-up time

    return harness.main(args, ROOT, time.perf_counter() - t_start)


if __name__ == "__main__":
    sys.exit(main())
