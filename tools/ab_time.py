"""Time two checkouts of elsakit against each other in one process, round by round.

    python3 tools/ab_time.py OLD NEW {ridge-small,ridge-wide,gauss-exact,gauss-relu}

OLD and NEW are the roots of two checkouts. Both trees' src/elsakit are
loaded into this process under distinct module names, so both run in the
same process with the same allocator, caches and CPU speed. This cancels the
speed shifts of up to ~2x that some machines show between processes.

The tool first checks that the two trees give bitwise equal outputs (w
traces, predictions and reports; solutions and reports) on a few requests,
and stops with exit code 1 if they do not. A ridge workload checks one more,
whose descent overflows at its last step (eta 1e12 times the auto eta), its
final prompts included. A gauss workload checks two more systems, which
reach the table divider's other branches in relu mode: a dominant one with
signed pivots, whose negative pivots run apply's map through invsqr_eval,
and F = L U with U's diagonal 10**linspace(-5, 5), whose pivots run from
below the default table's first knot to past its cutoff. A request that
raises a named error (an ArithmeticError or ValueError) gives its class and
message as its output, so an error must match too.

It then runs ROUNDS rounds. Each round times the same REQUESTS requests on
each tree, in an order that alternates from round to round, and prints the
process-time ratio NEW / OLD; below 1 means NEW is faster. The last line
gives the median ratio and the number of rounds NEW won. As in the
benchmark, a timed request is the run alone: the outputs are turned into
bytes only for the check.

The requests follow the benchmark's workloads: ridge runs run_pipeline for
both forms on one problem (lambda = 0.5, eta auto, n=20 d=4 T=200 or n=100
d=8 T=50), gauss runs solve on a diagonally dominant system (exact m=64 or
relu m=24). This file imports nothing from the benchmark harness.
"""

import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

# BLAS reads its thread count when numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROUNDS = 20
CHECKED = 4  # requests compared bit for bit before timing
WORKLOADS = {  # name: (kind, shape, requests per round)
    "ridge-small": ("ridge", (20, 4, 200), 40),
    "ridge-wide": ("ridge", (100, 8, 50), 40),
    "gauss-exact": ("gauss", (64, "exact"), 40),
    "gauss-relu": ("gauss", (24, "relu"), 60),
}


def load(root: Path, name: str):
    """The elsakit package under root/src, imported as the module `name`."""
    package = root / "src" / "elsakit"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    if spec is None:
        raise SystemExit(f"no elsakit package under {root}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def inputs(kind: str, shape: tuple, index: int, variant: str = "") -> tuple:
    """Request index's arrays; a gauss variant "signed" or "wide" is one of the checked systems."""
    rng = np.random.default_rng([7, index])
    if kind == "ridge":
        n, d, _ = shape
        x = rng.normal(size=(n, d))
        y = x @ rng.normal(size=(d, 1)) + 0.1 * rng.normal(size=(n, 1))
        return x, y, rng.normal(size=(d, 1))
    m, _ = shape
    if variant == "wide":
        lower = np.tril(rng.uniform(-1.0, 1.0, size=(m, m)), -1) + np.eye(m)
        pivots = 10.0 ** np.linspace(-5.0, 5.0, m)
        upper = np.triu(rng.uniform(-1.0, 1.0, size=(m, m)), 1) + np.diag(pivots)
        return lower @ upper, rng.uniform(-1.0, 1.0, size=(m, 1))
    f = rng.uniform(-1.0, 1.0, size=(m, m))
    diag = np.sum(np.abs(f), axis=1) - np.abs(np.diag(f)) + 1.0 + rng.uniform(size=m)
    if variant == "signed":
        diag *= rng.choice([-1.0, 1.0], size=m)
    np.fill_diagonal(f, diag)
    return f, rng.uniform(-1.0, 1.0, size=(m, 1))


def request(lib, kind: str, shape: tuple, arrays: tuple, variant: str = "") -> list:
    """Run one request on lib; its outputs: both forms' runs, or the solution and report.

    With variant "overflow", a ridge request runs at 1e12 times the auto eta, so that it
    diverges, up to the descent's first non-finite step, and adds each form's final prompt
    from run_program.
    """
    overflow = variant == "overflow"
    if kind == "ridge":
        x, y, u = (lib.Matrix(a) for a in arrays)
        p = lib.make_problem(x, y, u, 0.5, eta="auto", steps=shape[2])
        if overflow:
            # Stop at the descent's first non-finite step, where the final prompt still shows
            # which entries overflowed.
            p = lib.make_problem(x, y, u, 0.5, eta=1e12 * p.eta, steps=shape[2])
            p = lib.make_problem(x, y, u, 0.5, eta=p.eta, steps=min(p.steps, len(lib.gd_run(p))))
        outputs = [lib.run_pipeline(p, form) for form in ("lsa", "elsa")]
        if overflow:
            # The w traces end before the first non-finite w; the final prompts hold the rest.
            for build, prompt in ((lib.build_designed_weights, lib.build_designed_input),
                                  (lib.build_enumerated_weights, lib.build_enumerated_input)):
                outputs.append(lib.run_program(build(p.n, p.d), prompt(p), p.steps)[1])
        return outputs
    f, alpha = arrays
    return list(lib.solve(lib.LinearSystem(f=lib.Matrix(f), alpha=lib.Matrix(alpha)),
                          mode=shape[1]))


def checked(lib, kind: str, shape: tuple, arrays: tuple, variant: str) -> bytes:
    """A checked request's outputs as bytes, or its named error's class and message."""
    try:
        return as_bytes(kind, request(lib, kind, shape, arrays, variant))
    except (ArithmeticError, ValueError) as exc:  # every elsakit error a run raises is one
        return f"{type(exc).__name__}: {exc}".encode()


def as_bytes(kind: str, outputs: list) -> bytes:
    """A request's outputs as bytes, the sign of zero included."""
    if kind == "gauss":
        solution, report = outputs
        return solution.array.tobytes() + json.dumps(report).encode()
    parts = []
    for run in outputs[:2]:
        parts += [w.array.tobytes() for w in run.w_trace]
        parts += [np.float64(run.prediction).tobytes(), json.dumps(run.report).encode()]
    return b"".join(parts + [final.array.tobytes() for final in outputs[2:]])


def timed(lib, kind: str, shape: tuple, batch: list) -> float:
    t0 = time.process_time()
    for arrays in batch:
        request(lib, kind, shape, arrays)
    return time.process_time() - t0


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[2] not in WORKLOADS:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    libs = {"old": load(Path(argv[0]), "elsakit_old"), "new": load(Path(argv[1]), "elsakit_new")}
    kind, shape, requests = WORKLOADS[argv[2]]
    extra = ["overflow"] if kind == "ridge" else ["signed", "wide"]
    checks = [(i, "") for i in range(CHECKED)] + [(CHECKED + j, v) for j, v in enumerate(extra)]
    for i, variant in checks:
        arrays = inputs(kind, shape, i, variant)
        if len({checked(lib, kind, shape, arrays, variant) for lib in libs.values()}) != 1:
            print(f"outputs differ on request {i} {variant}; not timing", file=sys.stderr)
            return 1
    print(f"{argv[2]}: outputs bitwise equal on {len(checks)} requests", flush=True)
    batch = [inputs(kind, shape, CHECKED + i) for i in range(requests)]
    for lib in libs.values():  # warm both trees: caches, compiled programs
        timed(lib, kind, shape, batch)
    ratios = []
    for r in range(ROUNDS):
        order = ("old", "new") if r % 2 == 0 else ("new", "old")
        t = {side: timed(libs[side], kind, shape, batch) for side in order}
        ratios.append(t["new"] / t["old"])
        print(f"round {r + 1:2d}: old {1e3 * t['old'] / requests:7.3f} ms  "
              f"new {1e3 * t['new'] / requests:7.3f} ms  ratio {ratios[-1]:.3f}", flush=True)
    wins = sum(q < 1.0 for q in ratios)
    print(f"median ratio {statistics.median(ratios):.3f}; new faster in {wins} of {ROUNDS} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
