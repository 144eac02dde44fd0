"""Ridge oracle: closed form, descent recurrence, stability helper, JSON."""

import json
import warnings

import numpy as np
import pytest

from elsakit import (
    BadProblemFile,
    Matrix,
    RidgeProblem,
    SingularSystem,
    contraction,
    gd_run,
    gd_step,
    gradient,
    identity,
    make_problem,
    predict,
    problem_from_json,
    problem_to_json,
    ridge_closed_form,
    stable_eta_for,
    zeros,
)
from oracles import fd_gradient, random_ridge_arrays, ridge_cost


def problem_from_arrays(x, y, u, lam, eta="auto", steps=0):
    return make_problem(
        Matrix.from_array(x), Matrix.from_array(y), Matrix.from_array(u),
        lam, eta=eta, steps=steps,
    )


def tiny_problem(lam=1.0, eta=0.1, steps=1):
    return make_problem(
        Matrix([[1.0], [2.0]]), Matrix([[1.0], [2.0]]), Matrix([[3.0]]),
        lam, eta=eta, steps=steps,
    )


class TestClosedForm:
    def test_single_coefficient_by_hand(self):
        # (1 + 4)^-1 (1 + 4) = 1
        p = make_problem(
            Matrix([[1.0], [2.0]]), Matrix([[1.0], [2.0]]), Matrix([[1.0]]),
            lam=0.0, eta=0.1,
        )
        assert np.allclose(ridge_closed_form(p).array, [[1.0]], atol=1e-14)

    def test_identity_design(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=(4, 1))
        p = problem_from_arrays(np.eye(4), y, np.zeros((4, 1)), lam=0.0)
        assert np.allclose(ridge_closed_form(p).array, y, atol=1e-13)

    def test_large_ridge_shrinks_to_zero(self):
        rng = np.random.default_rng(1)
        x, y, u = random_ridge_arrays(rng, 6, 3)
        p = problem_from_arrays(x, y, u, lam=1e12)
        w = ridge_closed_form(p).array
        bound = np.abs(x.T @ y).max() / 1e12
        assert np.abs(w).max() <= bound * (1 + 1e-9)

    def test_residual_of_normal_equations(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            d = int(rng.integers(1, 6))
            x, y, u = random_ridge_arrays(rng, n, d)
            lam = float(rng.uniform(1e-6, 2.0))
            p = problem_from_arrays(x, y, u, lam=lam)
            w = ridge_closed_form(p).array
            lhs = (x.T @ x + lam * np.eye(d)) @ w
            rhs = x.T @ y
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(1e-30, np.abs(rhs).max())

    def test_singular_system_raises(self):
        p = problem_from_arrays(
            np.array([[1.0, 1.0], [1.0, 1.0]]),
            np.array([[1.0], [2.0]]),
            np.zeros((2, 1)),
            lam=0.0,
            eta=0.1,
        )
        with pytest.raises(SingularSystem):
            ridge_closed_form(p)


class TestGdStep:
    def test_hand_recurrence(self):
        p = tiny_problem(lam=1.0, eta=0.1, steps=1)
        assert gradient(p, zeros(1, 1)).array[0, 0] == -5.0
        assert gd_step(p, zeros(1, 1)).array[0, 0] == 0.5

    def test_closed_form_is_fixed_point(self):
        rng = np.random.default_rng(3)
        x, y, u = random_ridge_arrays(rng, 8, 3)
        p = problem_from_arrays(x, y, u, lam=0.5, steps=1)
        w_star = ridge_closed_form(p)
        assert np.abs(gradient(p, w_star).array).max() <= 1e-12
        assert np.abs(gd_step(p, w_star).array - w_star.array).max() <= 1e-12

    def test_zero_rate_freezes_coefficients(self):
        p = tiny_problem(lam=1.0, eta=0.0, steps=1)
        assert gd_step(p, zeros(1, 1)) == zeros(1, 1)
        assert gradient(p, zeros(1, 1)).array[0, 0] == -5.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            d = int(rng.integers(1, 5))
            x, y, _ = random_ridge_arrays(rng, n, d)
            lam = float(rng.uniform(0.0, 2.0))
            p = problem_from_arrays(x, y, np.zeros((d, 1)), lam=lam, steps=1)
            w = rng.normal(size=(d, 1))
            dw = gradient(p, Matrix.from_array(w)).array
            ref = fd_gradient(x, y, lam, w)
            denom = max(1.0, np.abs(ref).max())
            assert np.abs(dw - ref).max() / denom <= 1e-6


class TestGdRun:
    def test_divergent_rate_ends_before_first_overflow(self):
        p = make_problem(Matrix([[1e100, 1.0], [2.0, 3.0]]), Matrix.column([1.0, 2.0]),
                         Matrix.column([1.0, 1.0]), 0.5, eta=0.1, steps=5)
        trace = gd_run(p)
        assert len(trace) == 3
        assert all(np.all(np.isfinite(w.array)) for w in trace)
        assert trace == [p.w0, gd_step(p, p.w0), gd_step(p, gd_step(p, p.w0))]

    def test_zero_steps(self):
        p = tiny_problem(steps=0)
        assert gd_run(p) == [p.w0]

    def test_single_step_composition(self):
        p = tiny_problem(steps=1)
        assert gd_run(p) == [p.w0, gd_step(p, p.w0)]

    def test_converges_to_closed_form(self):
        rng = np.random.default_rng(5)
        x, y, u = random_ridge_arrays(rng, 12, 4)
        p = problem_from_arrays(x, y, u, lam=0.3, eta="auto", steps=10_000)
        w_star = ridge_closed_form(p).array
        err = np.abs(gd_run(p)[-1].array - w_star).max()
        assert err <= 1e-8 * (1.0 + np.abs(w_star).max())

    def test_monotone_descent_under_stable_rate(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(3, 16))
            d = int(rng.integers(1, 5))
            x, y, u = random_ridge_arrays(rng, n, d)
            p = problem_from_arrays(x, y, u, lam=float(rng.uniform(0, 2)),
                                    eta="auto", steps=60)
            trace = gd_run(p)
            costs = [ridge_cost(x, y, p.lam, w.array) for w in trace]
            assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))


class TestStableEta:
    def test_identity_design(self):
        p = problem_from_arrays(np.eye(2), np.ones((2, 1)), np.ones((2, 1)),
                                lam=0.0, eta=1.0)
        assert stable_eta_for(p.x, p.lam) == pytest.approx(1.0, rel=1e-9)

    def test_scalar_design_by_hand(self):
        p = problem_from_arrays(np.array([[2.0]]), np.ones((1, 1)), np.ones((1, 1)),
                                lam=0.0, eta=1.0)
        assert stable_eta_for(p.x, p.lam) == pytest.approx(0.25, rel=1e-12)

    def test_descent_map_contracts(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            d = int(rng.integers(1, 6))
            x, y, u = random_ridge_arrays(rng, n, d)
            lam = float(rng.uniform(1e-3, 2.0))
            p = problem_from_arrays(x, y, u, lam=lam, eta="auto")
            g = x.T @ x + lam * np.eye(d)
            eigs = np.linalg.eigvalsh(np.eye(d) - p.eta * g)
            assert np.abs(eigs).max() < 1.0

    @pytest.mark.parametrize("seed,kind", enumerate(["full", "wide", "repeated_column", "lam_zero"]))
    def test_power_estimate_is_below_eigvalsh(self, seed, kind):
        # eta = 1/(lambda_max + lam) never overshoots the eigvalsh-based rate,
        # so the descent map contracts, on rank-deficient X and at lam = 0 too.
        rng = np.random.default_rng(seed)
        for _ in range(40):
            d = int(rng.integers(1, 7))
            n = int(rng.integers(1, d + 1)) if kind == "wide" else int(rng.integers(d, 25))
            x, y, u = random_ridge_arrays(rng, n, d)
            if kind == "repeated_column" and d > 1:
                x[:, -1] = x[:, 0]
            lam = 0.0 if kind in ("wide", "lam_zero") else float(rng.uniform(0.0, 2.0))
            p = problem_from_arrays(x, y, u, lam=lam, eta="auto")
            lam_max = float(np.linalg.eigvalsh(x.T @ x).max())
            assert 1.0 / p.eta - lam <= lam_max * (1.0 + 1e-12)
            assert contraction(p) <= 1.0 + 1e-12


    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("sigma", [(1.0, 0.999, 0.5, 0.1), (1.0, 1.0 - 1e-9, 0.3)])
    def test_eta_is_the_eigvalsh_formula(self, sigma, lam):
        # A close top pair is where an iterative estimate of lambda_max is slow.
        rng = np.random.default_rng(len(sigma))
        d = len(sigma)
        u_basis, _ = np.linalg.qr(rng.normal(size=(d + 3, d)))
        v_basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
        x = u_basis @ np.diag(sigma) @ v_basis.T
        want = 1.0 / (np.linalg.eigvalsh(x.T @ x)[-1] + lam)
        got = stable_eta_for(Matrix.from_array(x), lam)
        assert abs(got - want) <= 4 * np.spacing(want)

    def test_overflowing_gram_matrix_is_named(self):
        x = Matrix([[1e200, 1.0], [2.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Gram matrix"):
                stable_eta_for(x, 0.5)
            assert np.isnan(contraction(make_problem(x, zeros(2, 1), zeros(2, 1), 0.5, eta=0.1)))


class TestPredict:
    def test_zero_query(self):
        assert predict(Matrix([[1.0], [2.0]]), zeros(2, 1)) == 0.0

    def test_coordinate_extraction(self):
        w = Matrix([[4.0], [7.0]])
        e1 = Matrix([[1.0], [0.0]])
        assert predict(w, e1) == 4.0

    def test_hand_dot(self):
        assert predict(Matrix([[1.0]]), Matrix([[3.0]])) == 3.0


class TestProblemJson:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        x, y, u = random_ridge_arrays(rng, 5, 2)
        p = problem_from_arrays(x, y, u, lam=0.7, eta=0.05, steps=12)
        q = problem_from_json(problem_to_json(p))
        assert q.x == p.x and q.y == p.y and q.u == p.u
        assert q.lam == p.lam and q.eta == p.eta and q.steps == p.steps
        assert q.w0 == p.w0

    def test_auto_and_zero_conventions(self):
        doc = {
            "X": [[1.0], [2.0]], "y": [1.0, 2.0], "u": [1.0],
            "lambda": 0.5, "eta": "auto", "steps": 3, "w0": "zero",
        }
        p = problem_from_json(json.dumps(doc))
        assert p.w0 == zeros(1, 1)
        assert p.eta == pytest.approx(1.0 / 5.5, rel=1e-9)

    def test_malformed_rejected(self):
        with pytest.raises(BadProblemFile):
            problem_from_json("{\"X\": [[1.0]]}")
        with pytest.raises(BadProblemFile):
            problem_from_json("not json")

    def test_lambda_checked_before_auto_eta(self):
        # At lam = -1 the auto eta of X = I would find no positive spectrum.
        with pytest.raises(ValueError, match="ridge parameter"):
            make_problem(identity(2), zeros(2, 1), zeros(2, 1), -1.0, eta="auto")

    def test_validation(self):
        with pytest.raises(Exception):
            RidgeProblem(
                x=identity(2), y=zeros(2, 1), u=zeros(2, 1),
                lam=-1.0, eta=0.1, steps=0, w0=zeros(2, 1),
            )
        with pytest.raises(Exception):
            RidgeProblem(
                x=identity(2), y=zeros(3, 1), u=zeros(2, 1),
                lam=0.0, eta=0.1, steps=0, w0=zeros(2, 1),
            )
