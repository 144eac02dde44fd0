"""The four benchmark workloads, the harness's own oracles, and the trace counts.

A workload turns (seed, request index) into plain numpy arrays, runs one
request through elsakit's public entry points, and checks the result against
an oracle written here, independent of the library's own pass logic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

import numpy as np

from elsakit import gauss, pipeline, ridge
from elsakit.matrix import Matrix
from tracer import Tally

STEP_TOL = 1e-10  # per-step deviation of the prompt's w column from the recurrence
EXACT_TOL = 1e-8  # relative error of an exact-division solve
RELU_TOL = 5e-2  # relative error of a ReLU-division solve


@dataclass(frozen=True)
class Check:
    ok: bool
    deviation: float  # ridge: max per-step deviation; gauss: relative error


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "ridge" or "gauss"
    make_inputs: Callable[[np.random.Generator], tuple]
    request: Callable[[tuple], object]
    check: Callable[[tuple, object], Check]
    fingerprint: Callable[[object], bytes]
    floor_ns: Callable[[tuple, object], float]

    def inputs(self, seed: int, stream: int, index: int) -> tuple:
        """Inputs of request `index` in `stream` (0 timed, 1 warm-up), fixed by the seed."""
        return self.make_inputs(np.random.default_rng([seed, stream, index]))


# ---------------------------------------------------------------------------
# ridge: the `elsakit ridge` problem distribution, both prompt forms per request
# ---------------------------------------------------------------------------


def _ridge_inputs(n: int, d: int):
    def make(rng: np.random.Generator) -> tuple:
        x = rng.normal(size=(n, d))
        w_true = rng.normal(size=(d, 1))
        y = x @ w_true + 0.1 * rng.normal(size=(n, 1))
        u = rng.normal(size=(d, 1))
        return x, y, u

    return make


def _ridge_request(lam: float, steps: int):
    def run(inputs: tuple):
        x, y, u = inputs
        problem = ridge.make_problem(Matrix(x), Matrix(y), Matrix(u), lam, eta="auto", steps=steps)
        return problem, pipeline.run_pipeline(problem, "lsa"), pipeline.run_pipeline(problem, "elsa")

    return run


def _descent_trace(x, y, lam, eta, steps) -> list[np.ndarray]:
    """w_0 .. w_T of w <- w - eta * (-X^T y + X^T (X w) + lam w), from w_0 = 0."""
    w = np.zeros((x.shape[1], 1))
    xty = x.T @ y
    out = [w]
    for _ in range(steps):
        w = w - eta * (-xty + x.T @ (x @ w) + lam * w)
        out.append(w)
    return out


def _ridge_check(lam: float, steps: int):
    def check(inputs: tuple, out) -> Check:
        x, y, u = inputs
        problem, *runs = out
        eig = np.linalg.eigvalsh(x.T @ x) + lam
        # The chosen eta must make the descent map contract.
        ok = float(np.max(np.abs(1.0 - problem.eta * eig))) < 1.0
        oracle = _descent_trace(x, y, lam, problem.eta, steps)
        target = float(u[:, 0] @ oracle[-1][:, 0])
        worst = 0.0
        for run in runs:
            if len(run.w_trace) != steps + 1:
                return Check(False, math.nan)
            dev = np.array([np.max(np.abs(w.array - o)) / max(1.0, np.max(np.abs(o)))
                            for w, o in zip(run.w_trace, oracle)])
            step_dev = float(np.max(dev))  # np.max propagates NaN, unlike max()
            pred_dev = abs(run.prediction - target) / max(1.0, abs(target))
            ok = ok and math.isfinite(run.prediction) and step_dev <= STEP_TOL and pred_dev <= STEP_TOL
            worst = float(np.max([worst, step_dev]))
        return Check(bool(ok), worst)

    return check


def _ridge_fingerprint(out) -> bytes:
    problem, *runs = out
    parts = [np.float64(problem.eta).tobytes()]
    for run in runs:
        parts.append(np.float64(run.prediction).tobytes())
        parts.extend(w.array.tobytes() for w in run.w_trace)
    return b"".join(parts)


def _gd_floor(inputs: tuple, out) -> float:
    """Nanoseconds per step of the library's plain descent on the request's problem."""
    problem = out[0]
    t0 = perf_counter_ns()
    ridge.gd_run(problem)
    return (perf_counter_ns() - t0) / max(1, problem.steps)


def _ridge(name: str, n: int, d: int, lam: float, steps: int) -> Workload:
    return Workload(name, "ridge", _ridge_inputs(n, d), _ridge_request(lam, steps),
                    _ridge_check(lam, steps), _ridge_fingerprint, _gd_floor)


# ---------------------------------------------------------------------------
# gauss: the `elsakit gauss` diagonally dominant systems
# ---------------------------------------------------------------------------


def _gauss_inputs(m: int):
    def make(rng: np.random.Generator) -> tuple:
        f = rng.uniform(-1.0, 1.0, size=(m, m))
        row_sums = np.sum(np.abs(f), axis=1) - np.abs(np.diag(f))
        np.fill_diagonal(f, row_sums + 1.0 + rng.uniform(0.0, 1.0, size=m))
        alpha = rng.uniform(-1.0, 1.0, size=(m, 1))
        return f, alpha

    return make


def _gauss_request(mode: str):
    def run(inputs: tuple):
        f, alpha = inputs
        x, _ = gauss.solve(gauss.LinearSystem(f=Matrix(f), alpha=Matrix(alpha)), mode=mode)
        return x

    return run


def _gauss_check(tol: float):
    def check(inputs: tuple, out) -> Check:
        f, alpha = inputs
        reference = np.linalg.solve(f, alpha)
        x = out.array
        if x.shape != reference.shape or not np.all(np.isfinite(x)):
            return Check(False, math.nan)
        rel = float(np.max(np.abs(x - reference)) / max(1.0, np.max(np.abs(reference))))
        return Check(rel <= tol, rel)

    return check


def _solve_floor(inputs: tuple, out, reps: int = 9) -> float:
    """Median nanoseconds of np.linalg.solve on the request's own system."""
    f, alpha = inputs
    times = []
    for _ in range(reps):
        t0 = perf_counter_ns()
        np.linalg.solve(f, alpha)
        times.append(perf_counter_ns() - t0)
    return float(np.median(times))


def _gauss(name: str, m: int, mode: str, tol: float) -> Workload:
    return Workload(name, "gauss", _gauss_inputs(m), _gauss_request(mode), _gauss_check(tol),
                    lambda x: x.array.tobytes(), _solve_floor)


WORKLOADS = {
    w.name: w
    for w in (
        _ridge("ridge-small", n=20, d=4, lam=0.5, steps=200),
        _ridge("ridge-wide", n=100, d=8, lam=0.5, steps=50),
        _gauss("gauss-exact", m=64, mode="exact", tol=EXACT_TOL),
        _gauss("gauss-relu", m=24, mode="relu", tol=RELU_TOL),
    )
}


# ---------------------------------------------------------------------------
# Computed counts, taken from operand shapes at the wrapped boundaries
# ---------------------------------------------------------------------------


def _result_bytes(tally: Tally, args, kwargs, out) -> None:
    if isinstance(out, Matrix):
        tally.counts["matrix.result_bytes"] += out.array.nbytes


def _head(tally: Tally, args, kwargs, out) -> None:
    h, p = args
    m, n = h.shape
    # Five dense products per head: three projections, t1^T t2, and t3 (t1^T t2).
    tally.counts["attention.flop"] += 10 * m * n * n
    # Step weights are shared across steps, so test each parameter set once;
    # the memo keeps p alive for the request, so its id is not reused.
    key = id(p)
    if key not in tally.memo:
        tally.memo[key] = (p, any(np.any(w.array) for w in vars(p).values()))
    tally.counts["attention.useful_heads"] += tally.memo[key][1]


def _component(tally: Tally, args, kwargs, out) -> None:
    comp = args[1]
    if comp.activation == "invsqr":
        tally.counts["netcomp.invsqr_useful"] += sum(int(np.count_nonzero(v.array)) for v in comp.v)


def _invsqr(tally: Tally, args, kwargs, out) -> None:
    table, x = args
    points = int(np.size(x))
    counts = tally.counts
    counts["netcomp.invsqr_points"] += points
    # One (points, intervals) float64 temporary of the paired-ReLU sum.
    temp = points * (len(table.knots) - 1) * 8
    counts["netcomp.invsqr_temp_bytes"] = max(counts["netcomp.invsqr_temp_bytes"], temp)


def _skip_mul(tally: Tally, args, kwargs, out) -> None:
    m, a = args[0], args[1]
    side = kwargs.get("side", args[2] if len(args) > 2 else None)
    left, right = (m, a) if side == "left" else (a, m)
    tally.counts["netcomp.skip_mul_flop"] += 2 * left.rows * left.cols * right.cols


MATRIX_RESULTS = ("identity", "zeros", "ones", "matmul", "transpose", "add", "scale",
                  "hadamard", "block_read", "block_write")
HOOKS = {
    **{f"matrix.{f}": _result_bytes for f in MATRIX_RESULTS},
    "attention.lsa_forward": _head,
    "attention.elsa_forward": _head,
    "netcomp.component_forward": _component,
    "netcomp.invsqr_eval": _invsqr,
    "netcomp.skip_mul": _skip_mul,
}
COPIES = ("matrix.transpose", "matrix.block_read", "matrix.block_write")
