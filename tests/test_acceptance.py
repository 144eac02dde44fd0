"""Acceptance gate: every shipped property at its pinned tolerance.

Each criterion prints one PASS/FAIL line (run with -s to see them live).
All randomness is seeded, so reruns are exactly reproducible.
"""

import time

import numpy as np

from elsakit import (
    LinearSystem,
    Matrix,
    build_designed_weights,
    build_invsqr,
    const_params,
    elsa_forward,
    embed_system,
    backward_substitute_step,
    forward_eliminate_step,
    build_designed_input,
    gd_run,
    gradient,
    invsqr_eval,
    make_problem,
    matmul_params_v1,
    matmul_params_v2,
    mskmov,
    MskMovSpec,
    predict,
    readout,
    ridge_closed_form,
    ridge_via_gauss,
    run_pipeline,
    run_program,
    skip_params,
    solve,
    step,
    wrap_designed_as_elsa,
    build_enumerated_input,
    build_enumerated_weights,
    extract_w,
)
from oracles import (
    copy_move,
    fd_gradient,
    piecewise_invsqr,
    random_dd_system,
    random_ridge_arrays,
    shadow_backward_step,
    shadow_forward_step,
)


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({detail}; {elapsed:.2f}s <= {budget:.0f}s)")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed <= budget, f"criterion {num} exceeded runtime budget: {elapsed:.2f}s"


def test_criterion_1_capability_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_block = 0.0
    exact_failures = 0
    trials = 100
    for m in range(1, 7):
        for n in range(1, 7):
            for _ in range(trials):
                c = Matrix.from_array(rng.uniform(-1, 1, size=(m, n)))
                h = Matrix.from_array(rng.uniform(-1, 1, size=(m, n)))
                if elsa_forward(h, const_params(c, (m, n))) != c:
                    exact_failures += 1
                if elsa_forward(h, skip_params((m, n))) != h:
                    exact_failures += 1
    outside_nonzero = 0
    for builder in (matmul_params_v1, matmul_params_v2):
        for r in range(1, 7):
            for s in range(1, 7):
                for t in range(1, 7):
                    pack, params, blk = builder(r, s, t)
                    for _ in range(trials):
                        a = rng.uniform(-1, 1, size=(r, s))
                        b = rng.uniform(-1, 1, size=(s, t))
                        out = elsa_forward(
                            pack(Matrix.from_array(a), Matrix.from_array(b)), params
                        ).array
                        block = out[blk.row_lo - 1 : blk.row_hi, blk.col_lo - 1 : blk.col_hi]
                        worst_block = max(worst_block, float(np.abs(block - a @ b).max()))
                        rest = out.copy()
                        rest[blk.row_lo - 1 : blk.row_hi, blk.col_lo - 1 : blk.col_hi] = 0.0
                        if np.any(rest != 0.0):
                            outside_nonzero += 1
    elapsed = time.perf_counter() - start
    ok = exact_failures == 0 and outside_nonzero == 0 and worst_block <= 1e-12
    _report(
        1, "constant/skip/product capability suite", ok,
        f"exact failures {exact_failures}, nonzero-outside {outside_nonzero}, "
        f"max block dev {worst_block:.2e} <= 1e-12",
        elapsed, 10.0,
    )


def test_criterion_2_mask_and_move_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    failures = 0
    for _ in range(200):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        i = int(rng.integers(1, m + 1))
        j = int(rng.integers(i, m + 1))
        k = int(rng.integers(1, n + 1))
        l = int(rng.integers(k, n + 1))
        a_off = int(rng.integers(1 - i, m - j + 1))
        b_off = int(rng.integers(1 - k, n - l + 1))
        arr = rng.uniform(-1, 1, size=(m, n))
        spec = MskMovSpec(i=i, j=j, k=k, l=l, m=m, n=n, a=a_off, b=b_off)
        got = mskmov(Matrix.from_array(arr), spec).array
        if not np.array_equal(got, copy_move(arr, i, j, k, l, a_off, b_off)):
            failures += 1
    elapsed = time.perf_counter() - start
    _report(2, "mask-and-move bitwise oracle equivalence", failures == 0,
            f"{failures} mismatches in 200 draws", elapsed, 1.0)


def test_criterion_3_pipeline_step_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_step = 0.0
    worst_readout = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 33))
        d = int(rng.integers(1, 7))
        x, y, u = random_ridge_arrays(rng, n, d)
        lam = float(rng.uniform(0.0, 2.0))
        p = make_problem(Matrix.from_array(x), Matrix.from_array(y),
                         Matrix.from_array(u), lam, eta="auto", steps=200)
        oracle_trace = gd_run(p)
        for form, build in (
            ("designed", build_designed_input),
            ("enumerated", build_enumerated_input),
        ):
            weights = (build_designed_weights(n, d) if form == "designed"
                       else build_enumerated_weights(n, d))
            state = build(p)
            for t in range(1, 201):
                state = step(state, weights)
                dev = np.abs(extract_w(state).array - oracle_trace[t].array).max()
                rel = dev / max(1.0, np.abs(oracle_trace[t].array).max())
                worst_step = max(worst_step, float(rel))
            _, pred = readout(state, weights)
            expected = predict(extract_w(state), p.u)
            worst_readout = max(
                worst_readout, abs(pred - expected) / (1.0 + abs(expected))
            )
    elapsed = time.perf_counter() - start
    ok = worst_step <= 1e-10 and worst_readout <= 1e-11
    _report(3, "per-step descent exactness (both forms)", ok,
            f"max step dev {worst_step:.2e} <= 1e-10, "
            f"max readout dev {worst_readout:.2e} <= 1e-11",
            elapsed, 30.0)


def test_criterion_4_convergence_to_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    x, y, u = random_ridge_arrays(rng, 20, 4)
    p = make_problem(Matrix.from_array(x), Matrix.from_array(y), Matrix.from_array(u),
                     0.5, eta="auto", steps=5000)
    target = predict(ridge_closed_form(p), p.u)
    gaps = {}
    for form in ("lsa", "elsa"):
        run = run_pipeline(p, form)
        gaps[form] = abs(run.prediction - target) / (1.0 + abs(target))
    elapsed = time.perf_counter() - start
    ok = all(g <= 1e-6 for g in gaps.values())
    _report(4, "5000-step convergence to the closed form", ok,
            f"gaps designed {gaps['lsa']:.2e}, enumerated {gaps['elsa']:.2e} <= 1e-6",
            elapsed, 10.0)


def test_criterion_5_division_approximator():
    start = time.perf_counter()
    worst_knot = 0.0
    for spec in ("geometric:x1=1e-2,xmax=1e2,n=128",
                 "geometric:x1=1,xmax=100,n=128",
                 "explicit:1,2,4,8"):
        t = build_invsqr(spec)
        got = invsqr_eval(t, t.interior_knots)
        want = 1.0 / t.interior_knots**2
        worst_knot = max(worst_knot, float(np.abs((got - want) / want).max()))

    # O(1)-scaled table so the paired-ReLU sum telescopes at float64 resolution.
    t = build_invsqr("geometric:x1=1,xmax=100,n=128")
    rng = np.random.default_rng(505)
    xs = rng.uniform(-2 * t.cutoff, 2 * t.cutoff, size=10_000)
    sum_dev = float(np.abs(invsqr_eval(t, xs) - piecewise_invsqr(t.knots, t.values, xs)).max())
    grid = np.linspace(0.0, 2 * t.cutoff, 5001)
    sym_dev = float(np.abs(invsqr_eval(t, grid) - invsqr_eval(t, -grid)).max())
    cap_grid = np.linspace(-t.knots[0], t.knots[0], 2001)
    cap_dev = float(np.abs(invsqr_eval(t, cap_grid) - t.values[0]).max())

    elapsed = time.perf_counter() - start
    ok = (worst_knot <= 1e-9 and sum_dev <= 1e-10 and sym_dev <= 1e-12
          and cap_dev <= 1e-12)
    _report(5, "ReLU division approximator", ok,
            f"knot rel {worst_knot:.2e} <= 1e-9, relu-vs-piecewise {sum_dev:.2e} <= 1e-10, "
            f"symmetry {sym_dev:.2e} <= 1e-12, flat cap {cap_dev:.2e} <= 1e-12",
            elapsed, 5.0)


def test_criterion_6_elimination_exact_mode():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    worst_rel = 0.0
    worst_shadow = 0.0
    pad_violations = 0
    for trial in range(100):
        m = int(rng.integers(2, 13))
        f, alpha = random_dd_system(rng, m)
        sys = LinearSystem(f=Matrix.from_array(f), alpha=Matrix.from_array(alpha))
        state = embed_system(sys, mode="exact")
        shadow = state.p.to_array()
        for k in range(1, m):
            state = forward_eliminate_step(state, k)
            shadow = shadow_forward_step(shadow, k)
            if np.any(state.p.array[m, :] != 0.0):
                pad_violations += 1
            scale = max(1.0, np.abs(shadow).max())
            worst_shadow = max(
                worst_shadow, float(np.abs(state.p.array - shadow).max() / scale)
            )
        for t in range(m, 0, -1):
            state = backward_substitute_step(state, t)
            shadow = shadow_backward_step(shadow, t)
            if np.any(state.p.array[m, :] != 0.0):
                pad_violations += 1
            scale = max(1.0, np.abs(shadow).max())
            worst_shadow = max(
                worst_shadow, float(np.abs(state.p.array - shadow).max() / scale)
            )
        x = state.p.array[:m, m]
        ref = np.linalg.solve(f, alpha)[:, 0]
        worst_rel = max(worst_rel, float(np.abs(x - ref).max() / max(1.0, np.abs(ref).max())))
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-8 and worst_shadow <= 1e-12 and pad_violations == 0
    _report(6, "component elimination, exact division", ok,
            f"max rel err {worst_rel:.2e} <= 1e-8, shadow gap {worst_shadow:.2e} <= 1e-12, "
            f"pad violations {pad_violations}",
            elapsed, 20.0)


def test_criterion_7_relu_division_refinement():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    f, alpha = random_dd_system(rng, 6, spread=0.3)
    sys = LinearSystem(f=Matrix.from_array(f), alpha=Matrix.from_array(alpha))
    ref = np.linalg.solve(f, alpha)
    sys_errs = []
    for n in (64, 128, 256):
        table = build_invsqr(f"geometric:x1=1e-2,xmax=1e2,n={n}")
        x, _ = solve(sys, mode="relu", table=table)
        sys_errs.append(float(np.abs(x.array - ref).max() / max(1.0, np.abs(ref).max())))

    xr, yr, ur = random_ridge_arrays(rng, 12, 3)
    p = make_problem(Matrix.from_array(xr), Matrix.from_array(yr), Matrix.from_array(ur),
                     1.0, eta=0.05)
    w_star = ridge_closed_form(p).array
    ridge_errs = []
    for n in (64, 128, 256):
        table = build_invsqr(f"geometric:x1=1e-2,xmax=1e2,n={n}")
        w, _ = ridge_via_gauss(p, mode="relu", table=table)
        ridge_errs.append(float(np.abs(w.array - w_star).max() / max(1.0, np.abs(w_star).max())))
    elapsed = time.perf_counter() - start
    ok = (sys_errs[0] >= sys_errs[1] >= sys_errs[2] and sys_errs[2] <= 1e-2
          and ridge_errs[0] >= ridge_errs[1] >= ridge_errs[2])
    _report(7, "ReLU division refinement", ok,
            f"system errs {sys_errs[0]:.2e} >= {sys_errs[1]:.2e} >= {sys_errs[2]:.2e} "
            f"(last <= 1e-2), ridge errs {ridge_errs[0]:.2e} >= {ridge_errs[1]:.2e} "
            f">= {ridge_errs[2]:.2e}",
            elapsed, 10.0)


def test_criterion_8_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 16))
        d = int(rng.integers(1, 6))
        x, y, _ = random_ridge_arrays(rng, n, d)
        lam = float(rng.uniform(0.0, 2.0))
        p = make_problem(Matrix.from_array(x), Matrix.from_array(y),
                         Matrix.from_array(np.zeros((d, 1))), lam, eta=0.1, steps=1)
        w = rng.normal(size=(d, 1))
        delta = gradient(p, Matrix.from_array(w)).array
        ref = fd_gradient(x, y, lam, w, step=1e-5)
        worst = max(worst, float(np.abs(delta - ref).max() / max(1.0, np.abs(ref).max())))
    elapsed = time.perf_counter() - start
    _report(8, "descent direction vs central differences", worst <= 1e-6,
            f"max rel dev {worst:.2e} <= 1e-6", elapsed, 1.0)


def test_criterion_9_extended_form_subsumes_plain():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 12))
        d = int(rng.integers(1, 5))
        x, y, u = random_ridge_arrays(rng, n, d)
        p = make_problem(Matrix.from_array(x), Matrix.from_array(y),
                         Matrix.from_array(u), float(rng.uniform(0, 2)),
                         eta="auto", steps=25)
        plain = run_pipeline(p, "lsa")
        wrapped = wrap_designed_as_elsa(build_designed_weights(p.n, p.d))
        wrapped_trace, _, wrapped_pred = run_program(wrapped, build_designed_input(p), p.steps)
        for a, b in zip(wrapped_trace, plain.w_trace):
            worst = max(worst, float(np.abs(a.array - b.array).max()))
        worst = max(worst, abs(wrapped_pred - plain.prediction))
    elapsed = time.perf_counter() - start
    _report(9, "zero-bias wrap reproduces the plain-form trace", worst <= 1e-12,
            f"max trace dev {worst:.2e} <= 1e-12", elapsed, 5.0)
