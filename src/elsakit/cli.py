"""Command-line front end: verification suites, pipeline runs, knot sweeps.

All randomness flows from one splittable counter-based generator seeded by
--seed (default overridable through the ELSA_WB_SEED environment variable),
so identical configurations produce byte-identical reports. Each command
returns its report (invsqr returns CSV text) and main alone writes it and
picks the exit status: 0 exactly when the report's "passed" is True (CSV
always exits 0); 1 when a check failed or the input was bad (INPUT_ERRORS
become {"command", "error", "message"}); 2 for a usage error or an
unreadable or unwritable file, on stderr. JSON reports are strict: a
non-finite value is written as null.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import attention, gauss, maskmove, netcomp, pipeline, ridge
from .matrix import Matrix, ShapeMismatch

ENV_SEED = "ELSA_WB_SEED"
# Bad input that main reports as {command, error, message} with exit 1.
INPUT_ERRORS = (ridge.BadProblemFile, ridge.SingularSystem, gauss.BadSystemFile,
                gauss.SingularDetected, netcomp.BadKnotSpec, ShapeMismatch)
# A zero eigenvalue at lambda = 0 gives a contraction factor of 1 up to
# rounding, the one equality case of ridge.stable_eta_for.
CONTRACTION_SLACK = 1e-12


def _default_seed() -> int:
    return int(os.environ.get(ENV_SEED, "0"))


def _spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _finite_or_null(value):
    """Copy of a report with every non-finite float replaced by None."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit_json(doc: dict, out: Optional[str]) -> None:
    text = json.dumps(_finite_or_null(doc), sort_keys=True, indent=2, allow_nan=False)
    _emit(text + "\n", out)


# ---------------------------------------------------------------------------
# verify-lemmas
# ---------------------------------------------------------------------------


def _copy_move_reference(a: np.ndarray, spec: maskmove.MskMovSpec) -> np.ndarray:
    """Definitional copy loop for the mask-and-move operation."""
    out = np.zeros_like(a)
    for r in range(spec.i, spec.j + 1):
        for c in range(spec.k, spec.l + 1):
            out[r + spec.a - 1, c + spec.b - 1] = a[r - 1, c - 1]
    return out


def _dims(args: argparse.Namespace, rng: np.random.Generator, count: int) -> list[int]:
    return [int(rng.integers(1, args.max_dim + 1)) for _ in range(count)]


# One trial of each capability suite: (args, rng) -> whether it held.
def _mask_move_trial(args: argparse.Namespace, rng: np.random.Generator) -> bool:
    m, n = _dims(args, rng, 2)
    i = int(rng.integers(1, m + 1))
    j = int(rng.integers(i, m + 1))
    k = int(rng.integers(1, n + 1))
    l = int(rng.integers(k, n + 1))
    a_off = int(rng.integers(1 - i, m - j + 1))
    b_off = int(rng.integers(1 - k, n - l + 1))
    spec = maskmove.MskMovSpec(i=i, j=j, k=k, l=l, m=m, n=n, a=a_off, b=b_off)
    mat = rng.uniform(-1.0, 1.0, size=(m, n))
    got = maskmove.mskmov(Matrix.from_array(mat), spec).array
    return np.array_equal(got, _copy_move_reference(mat, spec))


def _const_trial(args: argparse.Namespace, rng: np.random.Generator) -> bool:
    m, n = _dims(args, rng, 2)
    c = Matrix.from_array(rng.uniform(-1.0, 1.0, size=(m, n)))
    h = Matrix.from_array(rng.uniform(-1.0, 1.0, size=(m, n)))
    params = attention.const_params(c, (m, n))
    if args.perturb:
        flipped = params.b1.to_array()
        flipped[0, 0] = -1.0 if flipped[0, 0] == 1.0 else 1.0
        params = dataclasses.replace(params, b1=Matrix.from_array(flipped))
    return attention.elsa_forward(h, params) == c


def _skip_trial(args: argparse.Namespace, rng: np.random.Generator) -> bool:
    m, n = _dims(args, rng, 2)
    h = Matrix.from_array(rng.uniform(-1.0, 1.0, size=(m, n)))
    return attention.elsa_forward(h, attention.skip_params((m, n))) == h


def _matmul_trial(build, args: argparse.Namespace, rng: np.random.Generator) -> bool:
    r, s, t = _dims(args, rng, 3)
    a = rng.uniform(-1.0, 1.0, size=(r, s))
    b = rng.uniform(-1.0, 1.0, size=(s, t))
    pack, params, blk = build(r, s, t)
    packed = pack(Matrix.from_array(a), Matrix.from_array(b))
    out = attention.elsa_forward(packed, params).to_array()
    rows, cols = slice(blk.row_lo - 1, blk.row_hi), slice(blk.col_lo - 1, blk.col_hi)
    block = out[rows, cols].copy()
    out[rows, cols] = 0.0
    # A NaN error fails the comparison.
    return np.max(np.abs(block - a @ b)) <= args.tol and not np.any(out)


# Each suite draws from its own child generator, spawned in this order.
SUITES = {
    "mask_move": _mask_move_trial,
    "const": _const_trial,
    "skip": _skip_trial,
    "matmul_v1": lambda args, rng: _matmul_trial(attention.matmul_params_v1, args, rng),
    "matmul_v2": lambda args, rng: _matmul_trial(attention.matmul_params_v2, args, rng),
}


def cmd_verify_lemmas(args: argparse.Namespace) -> dict:
    suites = {
        name: {"trials": args.trials,
               "failures": sum(not trial(args, rng) for _ in range(args.trials))}
        for (name, trial), rng in zip(SUITES.items(), _spawn_rngs(args.seed, len(SUITES)))
    }
    failing = sorted(name for name, res in suites.items() if res["failures"] > 0)
    report = {
        "command": "verify-lemmas",
        "seed": args.seed,
        "trials": args.trials,
        "max_dim": args.max_dim,
        "tol": args.tol,
        "perturb": args.perturb,
        "suites": suites,
        "failing_suites": failing,
        "passed": not failing,
    }
    if args.trials == 0:
        report["warnings"] = ["trials=0: nothing was checked"]
    return report


# ---------------------------------------------------------------------------
# ridge
# ---------------------------------------------------------------------------


def _generate_problem(
    rng: np.random.Generator, n: int, d: int, lam: float, eta, steps: int
) -> ridge.RidgeProblem:
    x = Matrix.from_array(rng.normal(size=(n, d)))
    w_true = rng.normal(size=(d, 1))
    y = Matrix.from_array(x.array @ w_true + 0.1 * rng.normal(size=(n, 1)))
    u = Matrix.from_array(rng.normal(size=(d, 1)))
    return ridge.make_problem(x, y, u, lam, eta=eta, steps=steps)


def cmd_ridge(args: argparse.Namespace) -> dict:
    if args.problem:
        problem = ridge.load_problem(args.problem)
        if args.steps is not None:
            problem = dataclasses.replace(problem, steps=args.steps)
    else:
        (rng,) = _spawn_rngs(args.seed, 1)
        problem = _generate_problem(
            rng,
            n=args.n,
            d=args.d,
            lam=args.lam,
            eta=args.eta,
            steps=args.steps if args.steps is not None else 200,
        )
    run = pipeline.run_pipeline(problem, args.form)
    report = dict(run.report)
    report["command"] = "ridge"
    report["seed"] = args.seed
    if report["closed_form_prediction"] is not None:
        gap = abs(report["prediction"] - report["closed_form_prediction"])
        report["closed_form_gap"] = gap / (1.0 + abs(report["closed_form_prediction"]))
    report["contraction"] = ridge.contraction(problem)
    # A NaN deviation fails the comparison; the prediction must be finite too.
    passed = (
        report["diverged_at"] is None
        and report["max_step_deviation"] <= args.tol
        and math.isfinite(report["prediction"])
        and report["contraction"] <= 1.0 + CONTRACTION_SLACK
    )
    report["step_tol"] = args.tol
    report["passed"] = passed
    return report


# ---------------------------------------------------------------------------
# gauss
# ---------------------------------------------------------------------------


def _generate_dd_system(rng: np.random.Generator, m: int) -> gauss.LinearSystem:
    """Diagonally dominant coefficient matrix: pivots stay away from zero."""
    f = rng.uniform(-1.0, 1.0, size=(m, m))
    row_sums = np.sum(np.abs(f), axis=1) - np.abs(np.diag(f))
    np.fill_diagonal(f, row_sums + 1.0 + rng.uniform(0.0, 1.0, size=m))
    alpha = rng.uniform(-1.0, 1.0, size=(m, 1))
    return gauss.LinearSystem(f=Matrix.from_array(f), alpha=Matrix.from_array(alpha))


def cmd_gauss(args: argparse.Namespace) -> dict:
    if args.system:
        system = gauss.load_system(args.system)
    else:
        if args.size < 2:
            raise ShapeMismatch(f"--size must be at least 2, got {args.size}")
        (rng,) = _spawn_rngs(args.seed, 1)
        system = _generate_dd_system(rng, args.size)
    table = netcomp.build_invsqr(args.knots)
    mode = "relu" if args.sweep else args.mode
    tol = args.tol if args.tol is not None else (1e-8 if mode == "exact" else 5e-2)

    if args.sweep:
        lo, hi = table.interior_knots[0], table.interior_knots[-1]
        rows = []
        for n_knots in (64, 128, 256):
            refined = netcomp.build_invsqr(np.geomspace(lo, hi, n_knots + 1))
            _, report = gauss.solve(system, mode="relu", table=refined)
            rows.append({"knots": n_knots, "rel_error_vs_oracle": report["rel_error_vs_oracle"]})
        errs = [row["rel_error_vs_oracle"] for row in rows]
        passed = None not in errs and errs[0] >= errs[1] >= errs[2] and errs[2] <= tol
        return {
            "command": "gauss",
            "seed": args.seed,
            "mode": "relu",
            "m": system.m,
            "sweep": rows,
            "tol": tol,
            "passed": passed,
        }

    _, report = gauss.solve(system, mode=mode, table=table if mode == "relu" else None)
    report["command"] = "gauss"
    report["seed"] = args.seed
    passed = (
        report["rel_error_vs_oracle"] is not None
        and report["rel_error_vs_oracle"] <= tol
    )
    report["tol"] = tol
    report["passed"] = passed
    return report


# ---------------------------------------------------------------------------
# invsqr
# ---------------------------------------------------------------------------


def cmd_invsqr(args: argparse.Namespace) -> str:
    table = netcomp.build_invsqr(args.knots)
    span = 2.0 * table.cutoff
    xs = np.linspace(-span, span, args.samples)
    sig = netcomp.invsqr_eval(table, xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        truth = np.where(xs != 0.0, 1.0 / (xs * xs), np.inf)
        abs_err = np.abs(sig - truth)
        rel_err = np.where(truth != 0.0, abs_err / truth, np.nan)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x", "sigma_invsqr", "inv_square", "abs_err", "rel_err"])
    for row in zip(xs, sig, truth, abs_err, rel_err):
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _at_least(kind: type, lo):
    """argparse type: a finite kind (int or float) no smaller than lo, else a usage error."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not lo <= value < math.inf:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be finite and at least {lo}, got {text!r}")
        return value

    return parse


def _eta(text: str):
    return text if text == "auto" else _at_least(float, 0.0)(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elsakit",
        description="Verification suites and runners for attention-built matrix programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _default_seed()

    p_verify = sub.add_parser("verify-lemmas", help="run the capability property suites")
    p_verify.add_argument("--trials", type=_at_least(int, 0), default=100)
    p_verify.add_argument("--max-dim", type=_at_least(int, 1), default=6)
    p_verify.add_argument("--seed", type=int, default=seed)
    p_verify.add_argument("--tol", type=_at_least(float, 0.0), default=1e-12)
    p_verify.add_argument("--perturb", action="store_true",
                          help="flip one bias entry as a negative control")
    p_verify.add_argument("--report", default=None)
    p_verify.set_defaults(run=cmd_verify_lemmas)

    p_ridge = sub.add_parser("ridge", help="run an in-context descent pipeline")
    p_ridge.add_argument("--form", choices=["lsa", "elsa"], default="lsa")
    p_ridge.add_argument("--n", type=_at_least(int, 1), default=20)
    p_ridge.add_argument("--d", type=_at_least(int, 1), default=4)
    p_ridge.add_argument("--lambda", dest="lam", type=_at_least(float, 0.0), default=0.5)
    p_ridge.add_argument("--eta", type=_eta, default="auto",
                         help='learning rate, a float or "auto"')
    p_ridge.add_argument("--steps", type=_at_least(int, 0), default=None)
    p_ridge.add_argument("--seed", type=int, default=seed)
    p_ridge.add_argument("--tol", type=_at_least(float, 0.0), default=1e-9,
                         help="pass threshold on the per-step oracle deviation")
    p_ridge.add_argument("--problem", default=None, help="ridge problem JSON file")
    p_ridge.add_argument("--report", default=None)
    p_ridge.set_defaults(run=cmd_ridge)

    p_gauss = sub.add_parser("gauss", help="solve linear systems through the component pipeline")
    p_gauss.add_argument("--mode", choices=["exact", "relu"], default="exact")
    p_gauss.add_argument("--size", type=int, default=6)
    p_gauss.add_argument("--knots", default=netcomp.DEFAULT_KNOT_SPEC)
    p_gauss.add_argument("--system", default=None, help="system JSON file")
    p_gauss.add_argument("--sweep", action="store_true",
                         help="relu-mode knot refinement sweep (64/128/256)")
    p_gauss.add_argument("--seed", type=int, default=seed)
    p_gauss.add_argument("--tol", type=_at_least(float, 0.0), default=None,
                         help="pass threshold on rel. error (default 1e-8 exact, 5e-2 relu)")
    p_gauss.add_argument("--report", default=None)
    p_gauss.set_defaults(run=cmd_gauss)

    p_inv = sub.add_parser("invsqr", help="dump division-approximator samples as CSV")
    p_inv.add_argument("--knots", default=netcomp.DEFAULT_KNOT_SPEC)
    p_inv.add_argument("--samples", type=_at_least(int, 0), default=1001)
    p_inv.add_argument("--report", default=None)
    p_inv.set_defaults(run=cmd_invsqr)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command, write its output, and return the exit status.

    A command returns CSV text (exit 0) or a report (exit 0 only when
    "passed" is True); bad input becomes an error report without "passed".
    """
    args = _build_parser().parse_args(argv)
    try:
        try:
            result = args.run(args)
        except INPUT_ERRORS as exc:
            result = {"command": args.command, "error": type(exc).__name__, "message": str(exc)}
        if isinstance(result, str):
            _emit(result, args.report)
            return 0
        _emit_json(result, args.report)
        return 0 if result.get("passed") is True else 1
    except OSError as exc:
        sys.stderr.write(f"elsakit: io error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
