"""Seeded SHA-256 digests of elsakit's outputs, to show a refactor changes no bit.

Run from the repository root:

    PYTHONPATH=src python3 tools/bitwise_digest.py

Each line is "<sha256>  <name>". A digest hashes raw float64 bytes, so the
sign of zero counts, and reports as json.dumps(report, sort_keys=True):

* solves: 84 gauss solves, the solution bytes and then the report of each;
  seeds 0-11 outermost, then relu m in (5, 12, 24, 30) and exact m in
  (7, 16, 30), each system random_dd_system(default_rng([seed, m]), m,
  signed=True) from tests/oracles.py;
* step-states: every state of step-by-step solves, m in {2, 3, 9, 33, 64,
  100, 129}, both modes, each system as drawn and again with -0.0 in about
  20% of F's off-diagonal and 30% of alpha;
* run-pipeline: run_pipeline's w trace, prediction and report, both forms,
  (n, d) in {(1, 1), (3, 2), (2, 3), (20, 4), (100, 8)}, lambda in
  {0, 0.5}, T = 30, every shape run twice so the cached view is reused;
* run-program: run_program's trace, final prompt and prediction for the
  designed, enumerated and zero-bias wrapped programs of the same problems;
* run-program-signed: the same for every shape with -0.0 in about 30% of
  the entries of X, y and a random w0, at lambda in {0.5, 2} with the auto
  eta (an X of zeros has no auto eta at lambda = 0), and at lambda = 0.5
  with the divergent explicit eta 1e12 / (lambda_max(X^T X) + lambda),
  whose trace ends at its first non-finite step;
* run-pipeline-signed: run_pipeline's w trace, prediction and report for
  both forms, run one after the other on the same problem object, for every
  problem of run-program-signed, the divergent eta included;
* run-program-plans: run_program's trace, final prompt and prediction for
  the step programs beyond the three builders in tests/oracles.py: the
  two-block program and the w1 and w3 written-column readers, on the
  designed prompts of the run-program problems and then of the
  run-program-signed ones;
* compiled-forward: compiled_forward on every step and readout block of
  the designed, enumerated and zero-bias wrapped programs and of the
  two-block and w1 and w3 reader programs, then step() and readout() on
  the whole prompt, for every (n, d) of run-pipeline, each on three seeded
  normal prompts of the layout's shape, scaled by 10**U(-3, 3), with -0.0
  in about 30% of their entries;
* solves-wide-pivots: solves in both modes of F = L U, m in (2, 3, 5, 9,
  17, 24), seeds 0-4, whose pivots have both signs and magnitudes from 1e-5
  to 1e5 (below the default table's first knot and past its cutoff), with
  -0.0 as in step-states;
* invsqr-extreme: invsqr_eval on the tables of INVSQR_SPECS, for each a
  pool of 3,013 points (+-0, +-inf, NaN, +-1e308, subnormals, every knot
  and its neighbouring floats, then seeded draws over many scales): each
  point as a float64 scalar, a 0-d array and a Python float, with the
  result's type name; then prefixes of the pool of INVSQR_SIZES points, a
  2-D grid and its transpose;
* masked-components: component_forward of the mask, the exact divider, the
  default-table divider and an affine unit with a matrix C (gamma the mask
  and gamma -2.5), under MaskSpec masks and anti-masks of several blocks,
  on seeded grids of MASKED_SHAPES with about 30% of their entries drawn
  from extremes (+-0, +-inf, NaN, +-1e308, +-1e+-160, subnormals);
* solve-errors: the systems that solve refuses, both modes, each as written
  and again with every zero entry of F and alpha made -0.0: the OVERFLOWS
  and REFUSED systems of tests/test_gauss.py (zero pivots, pivots below
  tolerance after elimination and pivots whose square overflows, at forward
  and backward steps). For each, solve's exception class and message (or its solution and
  report, where relu division solves it) and the input bytes after it; then
  the step loop's failing step, exception class and message, and the bytes
  of the state that step was given;
* solves-underflow: signed dominant systems whose off-diagonal entries are
  scaled by 10**U(-200, -150), with -0.0 in about 30% of the off-diagonal
  and alpha entries of rows 2..m (underflow_system in tests/test_gauss.py),
  m in (3, 9, 64), seeds 0-3, both modes: each solution and report, then
  every state of the step loop; last, solve's exception class and message
  in both modes on NEGATIVE_ZERO_PIVOT of tests/test_gauss.py,
  whose second pivot is -0.0 plus an underflowed negative product;
* solves-bench-sizes: solves at the benchmark's sizes and beyond, exact m
  in (64, 100) and relu m in (24, 64), seeds 0-2, each of four systems:
  signed dominant as in solves, the same with -0.0 as in step-states, F = L U
  as in solves-wide-pivots and underflow_system; the solution bytes and then
  the report of each;
* run-program-zeros: run_program's trace, final prompt and prediction for
  the designed, enumerated and zero-bias wrapped programs and the
  two-block and w1 and w3 reader programs, at T in (0, 1, 2, 12), on the
  prompts of zero_feature_arrays in tests/oracles.py: for every (n, d) of
  run-pipeline, an X whose first feature (and last, when d > 2) is a column
  of signed zeros, and w0 = -0.0, at lambda 0.5 and, when X has a nonzero
  feature, at lambda 0; so the state columns hold -0.0 and the last step
  block's terms are signed zeros;
* solves-zero-multipliers: the two systems of zero_multiplier_systems in
  tests/test_gauss.py, m in (2, 3, 9, 64), seeds 0-3, both modes: signed
  dominant systems with +0.0 in about 40% of the entries below the
  diagonal (all of row m's in some), so that multiplier columns hold
  +-0.0 and some one-row spreads multiply by zero, then the same with
  -0.0 there and in alpha; each solution and report, then every state of
  the step loop;
* divider-calls: the pivot divider gauss._pivot_divider(table) called on
  each invsqr_points point of invsqr-extreme, as a float64 scalar and as a
  0-d array, with the result's type name, for the tables of INVSQR_SPECS
  and then UNDERFLOWED_SLOPE_SPEC, whose last slope underflows to -0.0;
* solves-reused-workspace: reuse_sequence of tests/test_gauss.py, m in
  (2, 3, 24, 64) interleaved over two rounds, both modes, each signed
  dominant system followed by a PivotBelowTolerance and an
  EliminationOverflow system embedded at the same size: each solution and
  report, or the exception class and message (solve_outcome);
* programs: the designed, enumerated and zero-bias wrapped programs
  themselves, (n, d) in PROGRAM_SHAPES: each layout's shape and the
  prediction cell, then per module its block sizes and, head by head, the
  head's type and each weight and bias array's shape and raw bytes;
* run-program-nonfinite: run_program's trace, final prompt and prediction
  for the designed, enumerated, zero-bias wrapped and two-block programs,
  for every (n, d) of run-pipeline, on nonfinite_ridge_problems in
  tests/oracles.py: explicit-eta problems whose state overflows at step 1,
  mid-run and at step T, and one whose X is near 1e200. Each equals the
  step() loop; where a state holds an inf, a head whose t3 is the bias
  identity adds t1^T t2 itself, not I (t1^T t2) with NaN spread across it
  (see attention.compile_head).
"""

import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles import (  # noqa: E402
    nonfinite_ridge_problems,
    random_dd_system,
    random_ridge_arrays,
    reader_program,
    two_block_program,
    zero_feature_arrays,
)
from test_gauss import (  # noqa: E402
    NEGATIVE_ZERO_PIVOT,
    OVERFLOWS,
    REFUSED,
    reuse_sequence,
    solve_outcome,
    underflow_system,
    zero_multiplier_systems,
)

from elsakit import gauss  # noqa: E402
from elsakit import (  # noqa: E402
    DEFAULT_KNOT_SPEC,
    BlockSpec,
    LinearSystem,
    MaskSpec,
    Matrix,
    PipelineState,
    SingularDetected,
    backward_substitute_step,
    build_designed_input,
    build_designed_weights,
    build_enumerated_input,
    build_enumerated_weights,
    build_invsqr,
    compiled_forward,
    component_forward,
    default_invsqr,
    embed_system,
    forward_eliminate_step,
    invsqr_eval,
    make_affine_component,
    make_divider_component,
    make_mask_component,
    make_problem,
    readout,
    run_pipeline,
    run_program,
    solve,
    stable_eta_for,
    step,
    wrap_designed_as_elsa,
)

SOLVE_SIZES = [("relu", m) for m in (5, 12, 24, 30)] + [("exact", m) for m in (7, 16, 30)]
STEP_SIZES = (2, 3, 9, 33, 64, 100, 129)
WIDE_PIVOT_SIZES = (2, 3, 5, 9, 17, 24)
UNDERFLOW_SIZES = (3, 9, 64)
ZERO_MULTIPLIER_SIZES = (2, 3, 9, 64)
BENCH_SIZES = [("exact", m) for m in (64, 100)] + [("relu", m) for m in (24, 64)]
RIDGE_SHAPES = ((1, 1), (3, 2), (2, 3), (20, 4), (100, 8))
RIDGE_STEPS = 30
INVSQR_SPECS = ("geometric:x1=1e-2,xmax=1e2,n=1", DEFAULT_KNOT_SPEC,
                "geometric:x1=1e-2,xmax=1e2,n=300", "explicit:1,2")
# A valid table whose last slope, -1e-308 / 1e308, underflows to -0.0.
UNDERFLOWED_SLOPE_SPEC = "explicit:1,1e154"
# Fixed sizes that straddle 64- and 256-point blocks.
INVSQR_SIZES = (0, 1, 2, 63, 64, 65, 197, 255, 256, 257, 773, 3013)
PROGRAM_SHAPES = tuple((n, d) for n in (1, 2, 3, 7, 20, 100) for d in (1, 2, 4, 8))
MASKED_SHAPES = ((1, 1), (1, 4), (3, 1), (2, 3), (5, 5), (7, 4), (12, 9))
MASKED_EXTREMES = (0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 1e160, -1e160,
                   1e-160, -1e-160, 5e-324, -5e-324, np.finfo(np.float64).tiny, 1e-310)


def with_negative_zeros(rng, f, alpha):
    m = f.shape[0]
    f[~np.eye(m, dtype=bool) & (rng.random((m, m)) < 0.2)] = -0.0
    alpha[rng.random((m, 1)) < 0.3] = -0.0


def dd_system(seed, m, negative_zeros=False):
    rng = np.random.default_rng([seed, m])
    f, alpha = random_dd_system(rng, m, signed=True)
    if negative_zeros:
        with_negative_zeros(rng, f, alpha)
    return LinearSystem(f=Matrix.from_array(f), alpha=Matrix.from_array(alpha))


def wide_pivot_system(seed, m):
    """F = L U, L unit lower and U upper triangular, U's diagonal of signed 10**U(-5, 5)."""
    rng = np.random.default_rng([seed, m, 5])
    pivots = rng.choice([-1.0, 1.0], size=m) * 10.0 ** rng.uniform(-5.0, 5.0, size=m)
    lower = np.tril(rng.uniform(-1.0, 1.0, size=(m, m)), -1) + np.eye(m)
    upper = np.triu(rng.uniform(-1.0, 1.0, size=(m, m)), 1) + np.diag(pivots)
    f, alpha = lower @ upper, rng.uniform(-1.0, 1.0, size=(m, 1))
    with_negative_zeros(rng, f, alpha)
    return LinearSystem(f=Matrix.from_array(f), alpha=Matrix.from_array(alpha))


def refused_systems():
    systems = [(f, alpha) for f, alpha, _ in OVERFLOWS.values()] + list(REFUSED.values())
    for rows, column in systems:
        for signed in (False, True):
            f, alpha = np.array(rows, dtype=float), np.array(column, dtype=float)[:, None]
            if signed:
                f[f == 0.0] = -0.0
                alpha[alpha == 0.0] = -0.0
            yield LinearSystem(f=Matrix.from_array(f), alpha=Matrix.from_array(alpha))


def digest_error(h, exc):
    h.update(f"{type(exc).__name__}: {exc}".encode())


def digest_solve_errors(h):
    for system in refused_systems():
        for mode in ("exact", "relu"):
            try:
                x, report = solve(system, mode=mode)
                h.update(x.array.tobytes())
                h.update(json.dumps(report, sort_keys=True).encode())
            except SingularDetected as exc:
                digest_error(h, exc)
            h.update(system.f.array.tobytes())
            h.update(system.alpha.array.tobytes())
            state = embed_system(system, mode=mode)
            steps = [(forward_eliminate_step, k) for k in range(1, system.m)]
            steps += [(backward_substitute_step, t) for t in range(system.m, 0, -1)]
            for run, i in steps:
                try:
                    state = run(state, i)
                except SingularDetected as exc:
                    h.update(f"{run.__name__} {i}".encode())
                    digest_error(h, exc)
                    break
            h.update(state.p.array.tobytes())


def digest_solves(h):
    for seed in range(12):
        for mode, m in SOLVE_SIZES:
            x, report = solve(dd_system(seed, m), mode=mode)
            h.update(x.array.tobytes())
            h.update(json.dumps(report, sort_keys=True).encode())


def digest_wide_pivot_solves(h):
    for seed in range(5):
        for m in WIDE_PIVOT_SIZES:
            for mode in ("exact", "relu"):
                x, report = solve(wide_pivot_system(seed, m), mode=mode)
                h.update(x.array.tobytes())
                h.update(json.dumps(report, sort_keys=True).encode())


def digest_bench_size_solves(h):
    for seed in range(3):
        for mode, m in BENCH_SIZES:
            systems = (dd_system(seed, m), dd_system(seed, m, negative_zeros=True),
                       wide_pivot_system(seed, m),
                       underflow_system(np.random.default_rng([seed, m, 64]), m))
            for system in systems:
                x, report = solve(system, mode=mode)
                h.update(x.array.tobytes())
                h.update(json.dumps(report, sort_keys=True).encode())


def digest_step_loop(h, system, mode):
    state = embed_system(system, mode=mode)
    for k in range(1, system.m):
        state = forward_eliminate_step(state, k)
        h.update(state.p.array.tobytes())
    for t in range(system.m, 0, -1):
        state = backward_substitute_step(state, t)
        h.update(state.p.array.tobytes())


def digest_underflow_solves(h):
    for seed in range(4):
        for m in UNDERFLOW_SIZES:
            system = underflow_system(np.random.default_rng([seed, m, 27]), m)
            for mode in ("exact", "relu"):
                x, report = solve(system, mode=mode)
                h.update(x.array.tobytes())
                h.update(json.dumps(report, sort_keys=True).encode())
                digest_step_loop(h, system, mode)
    f, alpha = NEGATIVE_ZERO_PIVOT
    system = LinearSystem(f=Matrix(f), alpha=Matrix.column(alpha))
    for mode in ("exact", "relu"):
        try:
            solve(system, mode=mode)
        except SingularDetected as exc:
            digest_error(h, exc)


def digest_zero_multiplier_solves(h):
    for seed in range(4):
        for m in ZERO_MULTIPLIER_SIZES:
            for system in zero_multiplier_systems(np.random.default_rng([seed, m, 30]), m):
                for mode in ("exact", "relu"):
                    x, report = solve(system, mode=mode)
                    h.update(x.array.tobytes())
                    h.update(json.dumps(report, sort_keys=True).encode())
                    digest_step_loop(h, system, mode)


def digest_reused_workspace(h):
    for system, mode in reuse_sequence():
        for part in solve_outcome(system, mode):
            h.update(part if isinstance(part, bytes) else part.encode())


def digest_step_states(h):
    for m in STEP_SIZES:
        for mode in ("exact", "relu"):
            for negative_zeros in (False, True):
                system = dd_system(100 + m, m, negative_zeros)
                h.update(embed_system(system, mode=mode).p.array.tobytes())
                digest_step_loop(h, system, mode)


def ridge_problems():
    for repeat in range(2):
        for n, d in RIDGE_SHAPES:
            for lam in (0.0, 0.5):
                rng = np.random.default_rng([n, d, int(lam * 10)])
                x, y, u = random_ridge_arrays(rng, n, d)
                yield make_problem(Matrix.from_array(x), Matrix.from_array(y),
                                   Matrix.from_array(u), lam, steps=RIDGE_STEPS)


def digest_run_pipeline(h, problems=ridge_problems):
    for p in problems():
        for form in ("lsa", "elsa"):
            run = run_pipeline(p, form)
            for w in run.w_trace:
                h.update(w.array.tobytes())
            h.update(np.float64(run.prediction).tobytes())
            h.update(json.dumps(run.report, sort_keys=True).encode())


def signed_ridge_problems():
    for n, d in RIDGE_SHAPES:
        rng = np.random.default_rng([n, d, 7])
        x, y, u = random_ridge_arrays(rng, n, d)
        w0 = rng.normal(size=(d, 1))
        for a in (x, y, w0):
            a[rng.random(a.shape) < 0.3] = -0.0
        x, y, u, w0 = (Matrix.from_array(a) for a in (x, y, u, w0))
        for lam, eta in ((0.5, "auto"), (2.0, "auto"), (0.5, 1e12 * stable_eta_for(x, 0.5))):
            yield make_problem(x, y, u, lam, eta=eta, steps=RIDGE_STEPS, w0=w0)


def digest_run_program(h, problems=ridge_problems):
    for p in problems():
        designed = build_designed_weights(p.n, p.d)
        programs = (
            (designed, build_designed_input(p)),
            (build_enumerated_weights(p.n, p.d), build_enumerated_input(p)),
            (wrap_designed_as_elsa(designed), build_designed_input(p)),
        )
        for prog, state in programs:
            trace, final, prediction = run_program(prog, state, p.steps)
            for w in trace:
                h.update(w.array.tobytes())
            h.update(final.array.tobytes())
            h.update(np.float64(prediction).tobytes())


ZERO_FEATURE_STEPS = (0, 1, 2, 12)


def zero_feature_problems():
    for n, d in RIDGE_SHAPES:
        x, y, u, w0 = (Matrix.from_array(a) for a in
                       zero_feature_arrays(np.random.default_rng([n, d, 29]), n, d))
        for lam in (0.5, 0.0) if d > 1 else (0.5,):
            for steps in ZERO_FEATURE_STEPS:
                yield make_problem(x, y, u, lam, steps=steps, w0=w0)


def digest_run_program_zeros(h):
    for p in zero_feature_problems():
        designed = build_designed_weights(p.n, p.d)
        programs = ((build_enumerated_weights(p.n, p.d), build_enumerated_input(p)),
                    *((prog, build_designed_input(p)) for prog in (
                        designed, wrap_designed_as_elsa(designed), two_block_program(p.n, p.d),
                        reader_program(p.n, p.d, "w1"), reader_program(p.n, p.d, "w3"))))
        for prog, state in programs:
            trace, final, prediction = run_program(prog, state, p.steps)
            for w in trace:
                h.update(w.array.tobytes())
            h.update(final.array.tobytes())
            h.update(np.float64(prediction).tobytes())


def digest_run_program_plans(h):
    for problems in (ridge_problems, signed_ridge_problems):
        for p in problems():
            for prog in (two_block_program(p.n, p.d), reader_program(p.n, p.d, "w1"),
                         reader_program(p.n, p.d, "w3")):
                trace, final, prediction = run_program(prog, build_designed_input(p), p.steps)
                for w in trace:
                    h.update(w.array.tobytes())
                h.update(final.array.tobytes())
                h.update(np.float64(prediction).tobytes())


def digest_run_program_nonfinite(h):
    for n, d in RIDGE_SHAPES:
        for p in nonfinite_ridge_problems(n, d):
            designed = build_designed_weights(n, d)
            programs = ((build_enumerated_weights(n, d), build_enumerated_input(p)),
                        *((prog, build_designed_input(p)) for prog in (
                            designed, wrap_designed_as_elsa(designed), two_block_program(n, d))))
            for prog, state in programs:
                trace, final, prediction = run_program(prog, state, p.steps)
                for w in trace:
                    h.update(w.array.tobytes())
                h.update(final.array.tobytes())
                h.update(np.float64(prediction).tobytes())


def digest_compiled_forward(h):
    for n, d in RIDGE_SHAPES:
        designed = build_designed_weights(n, d)
        programs = (designed, build_enumerated_weights(n, d), wrap_designed_as_elsa(designed),
                    two_block_program(n, d), reader_program(n, d, "w1"),
                    reader_program(n, d, "w3"))
        for i, prog in enumerate(programs):
            rng = np.random.default_rng([n, d, i, 25])
            for _ in range(3):
                x = rng.normal(size=prog.layout.shape) * 10.0 ** rng.uniform(-3.0, 3.0)
                x[rng.random(x.shape) < 0.3] = -0.0
                for block in prog.compiled.step + prog.compiled.readout:
                    h.update(compiled_forward(x, block).tobytes())
                state = PipelineState(Matrix.from_array(x), prog.layout)
                h.update(step(state, prog).h.array.tobytes())
                final, prediction = readout(state, prog)
                h.update(final.array.tobytes())
                h.update(np.float64(prediction).tobytes())


def digest_programs(h):
    for n, d in PROGRAM_SHAPES:
        designed = build_designed_weights(n, d)
        for prog in (designed, build_enumerated_weights(n, d), wrap_designed_as_elsa(designed)):
            h.update(repr((prog.layout.shape, prog.cell)).encode())
            for module in (prog.step, prog.readout):
                h.update(repr([len(block) for block in module]).encode())
                for head in (head for block in module for head in block):
                    h.update(type(head).__name__.encode())
                    for field in fields(head):
                        a = getattr(head, field.name).array
                        h.update(repr(a.shape).encode())
                        h.update(a.tobytes())


def invsqr_points(table, seed):
    """3,013 points: extremes, every knot and its neighbours, then seeded draws."""
    tiny = np.finfo(np.float64).tiny
    extremes = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e308, -1e308,
                np.finfo(np.float64).max, 5e-324, -5e-324, tiny, -tiny, tiny / 3, 1e-300]
    knots = table.knots
    near = np.concatenate([knots, np.nextafter(knots, 0.0), np.nextafter(knots, np.inf),
                           0.5 * (knots[:-1] + knots[1:])])
    rng = np.random.default_rng([seed, 21])
    fill = 3013 - len(extremes) - 2 * near.size
    draws = rng.choice([-1.0, 1.0], size=fill) * 10.0 ** rng.uniform(-6.0, 6.0, size=fill)
    points = np.concatenate([extremes, near, -near, draws])[:3013]
    rng.shuffle(points[len(extremes):])
    return points


def digest_invsqr_extreme(h):
    with np.errstate(all="ignore"):
        for seed, spec in enumerate(INVSQR_SPECS):
            table = build_invsqr(spec)
            points = invsqr_points(table, seed)
            for v in points:
                for x in (v, np.array(v), float(v)):
                    out = invsqr_eval(table, x)
                    h.update(type(out).__name__.encode())
                    h.update(np.asarray(out).tobytes())
            for size in INVSQR_SIZES:
                h.update(invsqr_eval(table, points[:size]).tobytes())
            grid = points[:3012].reshape(12, 251)
            for x in (grid, grid.T):
                out = invsqr_eval(table, x)
                h.update(repr(out.shape).encode())
                h.update(out.tobytes())


def digest_divider_calls(h):
    with np.errstate(all="ignore"):
        for seed, spec in enumerate(INVSQR_SPECS + (UNDERFLOWED_SLOPE_SPEC,)):
            table = build_invsqr(spec)
            divide = gauss._pivot_divider(table)
            for v in invsqr_points(table, seed):
                for x in (v, np.array(v)):
                    out = divide(x)
                    h.update(type(out).__name__.encode())
                    h.update(np.asarray(out).tobytes())


def masked_grid(rng, shape):
    """Signed draws over 12 decades, about 30% of them replaced by extremes."""
    grid = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-6.0, 6.0, size=shape)
    hit = rng.random(shape) < 0.3
    grid[hit] = rng.choice(MASKED_EXTREMES, size=int(hit.sum()))
    return Matrix.from_array(grid)


def digest_masked_components(h):
    table = default_invsqr()
    with np.errstate(all="ignore"):
        for m, n in MASKED_SHAPES:
            rng = np.random.default_rng([m, n, 24])
            for _ in range(3):
                rows = np.sort(rng.integers(1, m + 1, size=2))
                cols = np.sort(rng.integers(1, n + 1, size=2))
                block = BlockSpec(int(rows[0]), int(rows[1]), int(cols[0]), int(cols[1]))
                for anti in (False, True):
                    spec = MaskSpec(block, m, n, anti=anti)
                    masking = make_mask_component(spec)
                    comps = (masking, make_divider_component(spec, None),
                             make_divider_component(spec, table),
                             make_affine_component(masking.v[0], masked_grid(rng, (m, n))),
                             make_affine_component(-2.5, masked_grid(rng, (m, n))))
                    for _ in range(2):
                        x = masked_grid(rng, (m, n))
                        for comp in comps:
                            h.update(component_forward(x, comp).array.tobytes())


def main():
    for name, fill in (("solves", digest_solves), ("step-states", digest_step_states),
                       ("run-pipeline", digest_run_pipeline),
                       ("run-program", digest_run_program),
                       ("run-program-signed",
                        lambda h: digest_run_program(h, signed_ridge_problems)),
                       ("run-pipeline-signed",
                        lambda h: digest_run_pipeline(h, signed_ridge_problems)),
                       ("run-program-plans", digest_run_program_plans),
                       ("compiled-forward", digest_compiled_forward),
                       ("solves-wide-pivots", digest_wide_pivot_solves),
                       ("invsqr-extreme", digest_invsqr_extreme),
                       ("masked-components", digest_masked_components),
                       ("solve-errors", digest_solve_errors),
                       ("solves-underflow", digest_underflow_solves),
                       ("solves-bench-sizes", digest_bench_size_solves),
                       ("run-program-zeros", digest_run_program_zeros),
                       ("solves-zero-multipliers", digest_zero_multiplier_solves),
                       ("divider-calls", digest_divider_calls),
                       ("solves-reused-workspace", digest_reused_workspace),
                       ("programs", digest_programs),
                       ("run-program-nonfinite", digest_run_program_nonfinite)):
        h = hashlib.sha256()
        fill(h)
        print(f"{h.hexdigest()}  {name}", flush=True)


if __name__ == "__main__":
    main()
