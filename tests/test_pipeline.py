"""In-context descent pipelines against the ridge oracle."""

import copy
import math

import numpy as np
import pytest

from elsakit import (
    GdState,
    LayoutMismatch,
    Matrix,
    build_designed_input,
    build_designed_weights,
    build_enumerated_input,
    build_enumerated_weights,
    elsa_forward,
    extract_w,
    gd_run,
    gd_step,
    make_problem,
    matmul,
    multihead_forward,
    predict,
    readout,
    ridge_closed_form,
    run_pipeline,
    run_program,
    step,
    transpose,
    wrap_designed_as_elsa,
    zeros,
)
from oracles import random_ridge_arrays


def problem(rng, n, d, lam=0.5, eta="auto", steps=5, w0=None):
    x, y, u = random_ridge_arrays(rng, n, d)
    kwargs = {}
    if w0 is not None:
        kwargs["w0"] = Matrix.from_array(w0)
    return make_problem(
        Matrix.from_array(x), Matrix.from_array(y), Matrix.from_array(u),
        lam, eta=eta, steps=steps, **kwargs,
    )


def rel_dev(a: Matrix, b: Matrix) -> float:
    return float(np.abs(a.array - b.array).max() / max(1.0, np.abs(b.array).max()))


class TestDesignedInput:
    def test_shape(self):
        rng = np.random.default_rng(0)
        p = problem(rng, n=2, d=1)
        state = build_designed_input(p)
        assert state.h.shape == (2, 8)  # (d+1) x (2n+d+3)

    def test_scaled_design_block(self):
        rng = np.random.default_rng(1)
        p = problem(rng, n=4, d=3)
        h = build_designed_input(p).h.array
        assert np.array_equal(h[:3, :4], math.sqrt(p.eta) * p.x.array.T)
        assert np.array_equal(h[3, 4:8], math.sqrt(p.eta) * p.y.array[:, 0])
        assert h[3, 8] == 1.0
        assert np.array_equal(h[:3, 12], p.u.array[:, 0])

    def test_zero_ridge_zeroes_identity_block(self):
        rng = np.random.default_rng(2)
        p = problem(rng, n=3, d=2, lam=0.0)
        h = build_designed_input(p).h.array
        assert np.all(h[:2, 7:9] == 0.0)


class TestDesignedWeights:
    def test_head1_intermediate_extracts_targets(self):
        rng = np.random.default_rng(3)
        p = problem(rng, n=3, d=2, w0=rng.normal(size=(2, 1)))
        h = build_designed_input(p).h
        head1 = build_designed_weights(p.n, p.d).step[0].heads[0]
        mid = matmul(transpose(matmul(h, head1.w1)), matmul(h, head1.w2)).array
        s = 2 * p.n + p.d + 3
        expected = np.zeros((s, s))
        expected[: p.n, s - 1] = math.sqrt(p.eta) * p.y.array[:, 0]
        assert np.array_equal(mid, expected)

    def test_head_sum_is_negated_scaled_gradient(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, 5))
            p = problem(rng, n=n, d=d, lam=float(rng.uniform(0, 2)),
                        w0=rng.normal(size=(d, 1)), steps=1)
            state = build_designed_input(p)
            weights = build_designed_weights(n, d)
            p_t = multihead_forward(state.h, weights.step[0]).array
            delta = gd_step(p, GdState(t=0, w=p.w0)).delta.array
            s = 2 * n + d + 3
            expected_col = -p.eta * delta[:, 0]
            assert np.abs(p_t[:d, s - 1] - expected_col).max() <= 1e-11 * max(
                1.0, np.abs(expected_col).max()
            )
            rest = p_t.copy()
            rest[:, s - 1] = 0.0
            assert np.all(rest == 0.0)

    def test_gradient_vanishes_at_closed_form(self):
        rng = np.random.default_rng(5)
        p = problem(rng, n=8, d=3, lam=0.8, steps=1)
        w_star = ridge_closed_form(p)
        p_star = make_problem(p.x, p.y, p.u, p.lam, eta=p.eta, steps=1, w0=w_star)
        state = build_designed_input(p_star)
        p_t = multihead_forward(state.h, build_designed_weights(8, 3).step[0])
        assert np.abs(p_t.array[:, -1]).max() <= 1e-12


class TestDesignedStep:
    def test_step_matches_descent_oracle(self):
        rng = np.random.default_rng(6)
        p = problem(rng, n=6, d=3, steps=1, w0=rng.normal(size=(3, 1)))
        state = step(build_designed_input(p), build_designed_weights(6, 3))
        oracle = gd_step(p, GdState(t=0, w=p.w0))
        assert rel_dev(extract_w(state), oracle.w) <= 1e-10

    def test_non_coefficient_columns_unchanged(self):
        rng = np.random.default_rng(7)
        p = problem(rng, n=5, d=2, steps=1, w0=rng.normal(size=(2, 1)))
        before = build_designed_input(p)
        after = step(before, build_designed_weights(5, 2))
        assert np.array_equal(after.h.array[:, :-1], before.h.array[:, :-1])

    def test_two_steps_match_run_trace(self):
        rng = np.random.default_rng(8)
        p = problem(rng, n=4, d=2, steps=2)
        weights = build_designed_weights(4, 2)
        state = build_designed_input(p)
        _, trace = gd_run(p)
        for t in (1, 2):
            state = step(state, weights)
            assert rel_dev(extract_w(state), trace[t]) <= 1e-10

    def test_layout_guard(self):
        rng = np.random.default_rng(9)
        p = problem(rng, n=3, d=2)
        with pytest.raises(LayoutMismatch):
            step(build_enumerated_input(p), build_designed_weights(3, 2))


class TestDesignedReadout:
    def test_prediction_is_dot_product(self):
        rng = np.random.default_rng(10)
        p = problem(rng, n=5, d=3, steps=4)
        weights = build_designed_weights(5, 3)
        state = build_designed_input(p)
        for _ in range(p.steps):
            state = step(state, weights)
        h_final, pred = readout(state, weights)
        expected = predict(extract_w(state), p.u)
        assert abs(pred - expected) <= 1e-11 * (1.0 + abs(expected))

    def test_zero_query_predicts_zero(self):
        rng = np.random.default_rng(11)
        x, y, _ = random_ridge_arrays(rng, 4, 2)
        p = make_problem(Matrix.from_array(x), Matrix.from_array(y), zeros(2, 1),
                         0.5, eta="auto", steps=2)
        weights = build_designed_weights(4, 2)
        state = build_designed_input(p)
        for _ in range(2):
            state = step(state, weights)
        _, pred = readout(state, weights)
        assert pred == 0.0

    def test_only_bottom_right_cell_changes(self):
        rng = np.random.default_rng(12)
        p = problem(rng, n=4, d=2, steps=1)
        weights = build_designed_weights(4, 2)
        state = step(build_designed_input(p), weights)
        h_final, _ = readout(state, weights)
        diff = h_final.array != state.h.array
        diff[-1, -1] = False
        assert not diff.any()


class TestEnumeratedInput:
    def test_shape(self):
        rng = np.random.default_rng(13)
        p = problem(rng, n=2, d=2)
        assert build_enumerated_input(p).h.shape == (2, 11)  # d x (2n+2d+3)

    def test_padded_target_block(self):
        # The target block holds y across its last row; rows above are padding.
        rng = np.random.default_rng(14)
        p = problem(rng, n=4, d=3)
        h = build_enumerated_input(p).h.array
        assert np.array_equal(h[2, 4:8], p.y.array[:, 0])
        assert np.all(h[:2, 4:8] == 0.0)

    def test_width_one_target_block(self):
        rng = np.random.default_rng(15)
        p = problem(rng, n=3, d=1)
        h = build_enumerated_input(p).h.array
        assert np.array_equal(h[0, 3:6], p.y.array[:, 0])

    def test_scratch_column_starts_empty(self):
        rng = np.random.default_rng(16)
        p = problem(rng, n=3, d=2)
        h = build_enumerated_input(p).h.array
        assert np.all(h[:, -2] == 0.0)


class TestEnumeratedWeights:
    def test_ridge_head_output(self):
        rng = np.random.default_rng(17)
        p = problem(rng, n=4, d=3, lam=1.3, w0=rng.normal(size=(3, 1)))
        h = build_enumerated_input(p).h
        head2 = build_enumerated_weights(4, 3).step[0].heads[1]
        out = elsa_forward(h, head2).array
        expected = np.zeros_like(out)
        expected[:, -1] = p.lam * p.w0.array[:, 0]
        assert np.array_equal(out, expected)

    def test_cross_term_head_output(self):
        rng = np.random.default_rng(18)
        p = problem(rng, n=5, d=2, w0=rng.normal(size=(2, 1)))
        h = build_enumerated_input(p).h
        head3 = build_enumerated_weights(5, 2).step[0].heads[2]
        out = elsa_forward(h, head3).array
        expected_col = -(p.x.array.T @ p.y.array)[:, 0]
        assert np.allclose(out[:, -1], expected_col, atol=1e-12)
        rest = out.copy()
        rest[:, -1] = 0.0
        assert np.all(rest == 0.0)

    def test_block_outputs_assemble_update(self):
        rng = np.random.default_rng(19)
        p = problem(rng, n=6, d=3, lam=0.9, steps=1, w0=rng.normal(size=(3, 1)))
        h = build_enumerated_input(p).h
        weights = build_enumerated_weights(6, 3)
        p1 = multihead_forward(h, weights.step[0]).array
        delta = gd_step(p, GdState(t=0, w=p.w0)).delta.array
        s = 2 * 6 + 2 * 3 + 3
        assert np.abs(p1[:, -1] - delta[:, 0]).max() <= 1e-11 * max(1.0, np.abs(delta).max())
        marker = p1[:, 2 * 6 + 3 : 2 * 6 + 6]
        assert np.array_equal(marker, -p.eta * np.eye(3))
        p2 = multihead_forward(multihead_forward(h, weights.step[0]), weights.step[1]).array
        assert np.abs(p2[:, -1] + p.eta * delta[:, 0]).max() <= 1e-11 * max(
            1.0, np.abs(p.eta * delta).max()
        )
        rest = p2.copy()
        rest[:, -1] = 0.0
        assert np.all(rest == 0.0)


class TestEnumeratedStep:
    def test_trace_matches_run(self):
        rng = np.random.default_rng(20)
        p = problem(rng, n=5, d=2, steps=6)
        weights = build_enumerated_weights(5, 2)
        state = build_enumerated_input(p)
        _, trace = gd_run(p)
        for t in range(1, 7):
            state = step(state, weights)
            assert rel_dev(extract_w(state), trace[t]) <= 1e-10

    def test_zero_rate_freezes_coefficients(self):
        rng = np.random.default_rng(21)
        p = problem(rng, n=4, d=2, eta=0.0, steps=1, w0=rng.normal(size=(2, 1)))
        weights = build_enumerated_weights(4, 2)
        state = step(build_enumerated_input(p), weights)
        assert extract_w(state) == p.w0

    def test_non_coefficient_columns_unchanged(self):
        rng = np.random.default_rng(22)
        p = problem(rng, n=4, d=3, steps=1, w0=rng.normal(size=(3, 1)))
        before = build_enumerated_input(p)
        after = step(before, build_enumerated_weights(4, 3))
        assert np.array_equal(after.h.array[:, :-1], before.h.array[:, :-1])

    def test_layout_guard(self):
        rng = np.random.default_rng(23)
        p = problem(rng, n=3, d=2)
        with pytest.raises(LayoutMismatch):
            step(build_designed_input(p), build_enumerated_weights(3, 2))


class TestEnumeratedReadout:
    def test_prediction_is_dot_product(self):
        rng = np.random.default_rng(24)
        p = problem(rng, n=6, d=3, steps=5)
        weights = build_enumerated_weights(6, 3)
        state = build_enumerated_input(p)
        for _ in range(p.steps):
            state = step(state, weights)
        _, pred = readout(state, weights)
        expected = predict(extract_w(state), p.u)
        assert abs(pred - expected) <= 1e-11 * (1.0 + abs(expected))

    def test_zero_coefficients_predict_zero(self):
        rng = np.random.default_rng(25)
        p = problem(rng, n=4, d=2, steps=0)
        weights = build_enumerated_weights(4, 2)
        _, pred = readout(build_enumerated_input(p), weights)
        assert pred == 0.0

    def test_forms_agree(self):
        rng = np.random.default_rng(26)
        p = problem(rng, n=8, d=3, steps=100)
        run_l = run_pipeline(p, "designed")
        run_e = run_pipeline(p, "enumerated")
        assert abs(run_l.prediction - run_e.prediction) <= 1e-9 * (
            1.0 + abs(run_l.prediction)
        )


class TestRunPipeline:
    def test_zero_steps_predicts_from_initial(self):
        rng = np.random.default_rng(27)
        w0 = rng.normal(size=(3, 1))
        p = problem(rng, n=5, d=3, steps=0, w0=w0)
        for form in ("lsa", "elsa"):
            run = run_pipeline(p, form)
            expected = float(p.u.array[:, 0] @ w0[:, 0])
            assert abs(run.prediction - expected) <= 1e-12 * (1 + abs(expected))

    def test_step_deviation_stays_tiny(self):
        rng = np.random.default_rng(28)
        p = problem(rng, n=10, d=4, steps=200)
        for form in ("designed", "enumerated"):
            run = run_pipeline(p, form)
            assert run.report["max_step_deviation"] <= 1e-9

    def test_report_fields(self):
        rng = np.random.default_rng(29)
        p = problem(rng, n=4, d=2, steps=3)
        report = run_pipeline(p, "elsa").report
        for key in ("form", "n", "d", "lambda", "eta", "T", "prediction",
                    "oracle_prediction", "closed_form_prediction",
                    "max_step_deviation", "per_step_deviation"):
            assert key in report
        assert report["form"] == "enumerated"
        assert len(report["per_step_deviation"]) == 4

    def test_unknown_form_rejected(self):
        rng = np.random.default_rng(30)
        p = problem(rng, n=3, d=2)
        with pytest.raises(ValueError):
            run_pipeline(p, "softmax")


class TestStructuralInvariants:
    def test_weight_sharing_reuse_is_bitwise_stable(self):
        rng = np.random.default_rng(31)
        p = problem(rng, n=5, d=2, steps=8)
        weights = build_enumerated_weights(5, 2)
        cloned = copy.deepcopy(weights)
        state_a = build_enumerated_input(p)
        state_b = build_enumerated_input(p)
        for _ in range(8):
            state_a = step(state_a, weights)
            state_b = step(state_b, cloned)
            assert np.array_equal(state_a.h.array, state_b.h.array)

    def test_wrapped_designed_reproduces_plain_trace(self):
        rng = np.random.default_rng(32)
        for _ in range(2):
            p = problem(rng, n=6, d=3, steps=10)
            plain = run_pipeline(p, "designed")
            wrapped = wrap_designed_as_elsa(build_designed_weights(p.n, p.d))
            wrapped_trace, _, wrapped_pred = run_program(wrapped, build_designed_input(p), p.steps)
            for a, b in zip(wrapped_trace, plain.w_trace):
                assert np.abs(a.array - b.array).max() <= 1e-12
            assert abs(wrapped_pred - plain.prediction) <= 1e-12
