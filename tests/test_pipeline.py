"""In-context descent pipelines against the ridge oracle."""

import copy
import gc
import json
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elsakit import pipeline
from elsakit import (
    BlockSpec,
    DesignedLayout,
    DimensionMismatch,
    EnumeratedLayout,
    LayoutMismatch,
    LsaParams,
    Matrix,
    PipelineState,
    Program,
    RidgeProblem,
    build_designed_input,
    build_designed_weights,
    build_enumerated_input,
    build_enumerated_weights,
    elsa_forward,
    extract_w,
    eye_block,
    gd_run,
    gd_step,
    gradient,
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
from oracles import literal_run_module, random_ridge_arrays


def problem(rng, n, d, lam=0.5, eta="auto", steps=5, w0=None):
    x, y, u = random_ridge_arrays(rng, n, d)
    kwargs = {}
    if w0 is not None:
        kwargs["w0"] = Matrix.from_array(w0)
    return make_problem(
        Matrix.from_array(x), Matrix.from_array(y), Matrix.from_array(u),
        lam, eta=eta, steps=steps, **kwargs,
    )


def same_index(a, b) -> bool:
    """Two compiled index sets (a slice or an index array) are the same."""
    if isinstance(a, slice) or isinstance(b, slice):
        return a == b
    return np.array_equal(a, b)


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
        head1 = build_designed_weights(p.n, p.d).step[0][0]
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
            delta = gradient(p, p.w0).array
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
        assert rel_dev(extract_w(state), gd_step(p, p.w0)) <= 1e-10

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
        trace = gd_run(p)
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
        head2 = build_enumerated_weights(4, 3).step[0][1]
        out = elsa_forward(h, head2).array
        expected = np.zeros_like(out)
        expected[:, -1] = p.lam * p.w0.array[:, 0]
        assert np.array_equal(out, expected)

    def test_cross_term_head_output(self):
        rng = np.random.default_rng(18)
        p = problem(rng, n=5, d=2, w0=rng.normal(size=(2, 1)))
        h = build_enumerated_input(p).h
        head3 = build_enumerated_weights(5, 2).step[0][2]
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
        delta = gradient(p, p.w0).array
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
        trace = gd_run(p)
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
        run_l = run_pipeline(p, "lsa")
        run_e = run_pipeline(p, "elsa")
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
        for form in ("lsa", "elsa"):
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
        for form in ("softmax", "designed", "enumerated"):
            with pytest.raises(ValueError):
                run_pipeline(p, form)

    def test_divergent_rate_ends_the_deviations(self):
        rng = np.random.default_rng(33)
        assert run_pipeline(problem(rng, n=4, d=2, steps=3), "lsa").report["diverged_at"] is None
        p = make_problem(Matrix([[1e100, 1.0], [2.0, 3.0]]), Matrix.column([1.0, 2.0]),
                         Matrix.column([1.0, 1.0]), 0.5, eta=0.1, steps=5)
        for form in ("lsa", "elsa"):
            run = run_pipeline(p, form)
            assert run.report["diverged_at"] == 3
            assert len(run.report["per_step_deviation"]) == 3
            assert len(run.w_trace) == 3
            assert math.isnan(run.report["oracle_prediction"])

    def test_overflowing_gram_matrix_has_no_closed_form(self):
        # X^T X overflows, so the closed form is singular and the descent diverges at step 2
        p = RidgeProblem(x=Matrix([[1e200, 1.0], [2.0, 3.0]]), y=Matrix.column([1.0, 2.0]),
                         u=Matrix.column([1.0, 1.0]), lam=0.5, eta=0.1, steps=3, w0=zeros(2, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for form in ("lsa", "elsa"):
                report = run_pipeline(p, form).report
                assert report["closed_form_prediction"] is None
                assert report["diverged_at"] == 2


class TestProgramCache:
    """run_pipeline reuses one compiled view per form and shape."""

    @pytest.mark.parametrize("n,d", [(3, 2), (2, 3)])
    def test_cached_runs_are_fresh_program_runs(self, n, d):
        rng = np.random.default_rng(70 + n)
        p = problem(rng, n, d, steps=20, w0=rng.normal(size=(d, 1)))
        fresh = {
            "lsa": (build_designed_weights(n, d), build_designed_input(p)),
            "elsa": (build_enumerated_weights(n, d), build_enumerated_input(p)),
        }
        for form, (prog, state) in fresh.items():
            first, second = run_pipeline(p, form), run_pipeline(p, form)
            trace, _, prediction = run_program(prog, state, p.steps)
            for run in (first, second):
                assert [w.array.tobytes() for w in run.w_trace] == [
                    w.array.tobytes() for w in trace
                ], form
                assert np.float64(run.prediction).tobytes() == np.float64(prediction).tobytes()
            assert json.dumps(first.report) == json.dumps(second.report), form

    def test_one_view_per_form_and_shape(self):
        view = pipeline._compiled_program("lsa", 3, 2)
        assert pipeline._compiled_program("lsa", 3, 2) is view
        assert view.layout == DesignedLayout(3, 2)
        assert pipeline._compiled_program("lsa", 2, 3).layout == DesignedLayout(2, 3)
        assert pipeline._compiled_program("elsa", 3, 2).layout == EnumeratedLayout(3, 2)


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
            plain = run_pipeline(p, "lsa")
            wrapped = wrap_designed_as_elsa(build_designed_weights(p.n, p.d))
            wrapped_trace, _, wrapped_pred = run_program(wrapped, build_designed_input(p), p.steps)
            for a, b in zip(wrapped_trace, plain.w_trace):
                assert np.abs(a.array - b.array).max() <= 1e-12
            assert abs(wrapped_pred - plain.prediction) <= 1e-12

    @pytest.mark.parametrize("n,d", [(1, 1), (3, 2), (7, 4), (20, 4)])
    def test_no_padding_heads_and_pinned_head_counts(self, n, d):
        rng = np.random.default_rng(100 * n + d)
        designed = build_designed_weights(n, d)
        programs = {
            "designed": (designed, [3], [1]),
            "enumerated": (build_enumerated_weights(n, d), [4, 1], [1]),
            "wrapped": (wrap_designed_as_elsa(designed), [3], [1]),
        }
        for name, (prog, step_counts, readout_counts) in programs.items():
            assert [len(block) for block in prog.step] == step_counts, name
            assert [len(block) for block in prog.readout] == readout_counts, name
            h = Matrix.from_array(rng.normal(size=prog.layout.shape))
            for block in prog.step + prog.readout:
                for head in block:
                    assert any(np.any(m.array) for m in vars(head).values()), name
                # The module adds its input back itself; a block must do work.
                assert multihead_forward(h, block) != h, name

    @pytest.mark.parametrize("n,d", [(1, 1), (3, 2), (20, 4), (100, 8)])
    def test_zero_bias_wrap_is_the_designed_program(self, n, d):
        designed = build_designed_weights(n, d)
        wrapped = wrap_designed_as_elsa(designed)
        plain, wrap = designed.compiled, wrapped.compiled
        assert (plain.layout, plain.cell) == (wrap.layout, wrap.cell)
        modules = ((plain.step, wrap.step), (plain.readout, wrap.readout))
        for plain_module, wrapped_module in modules:
            assert len(plain_module) == len(wrapped_module)
            for plain_block, wrapped_block in zip(plain_module, wrapped_module):
                assert len(plain_block) == len(wrapped_block)
                for a, b in zip(plain_block, wrapped_block):
                    for pa, pb in zip((a.p1, a.p2, a.p3), (b.p1, b.p2, b.p3)):
                        assert same_index(pa.rows, pb.rows) and same_index(pa.cols, pb.cols)
                        assert np.array_equal(pa.w, pb.w)
                        assert pa.b is None and pb.b is None
                    assert same_index(a.k1, b.k1) and same_index(a.k3, b.k3)
                    assert a.input_shape[1] == b.input_shape[1]
        rng = np.random.default_rng(50 + n)
        p = problem(rng, n, d, steps=20, w0=rng.normal(size=(d, 1)))
        plain_trace, plain_h, plain_pred = run_program(designed, build_designed_input(p), p.steps)
        trace, h, pred = run_program(wrapped, build_designed_input(p), p.steps)
        assert all(np.array_equal(a.array, b.array) for a, b in zip(trace, plain_trace))
        assert len(trace) == len(plain_trace)
        assert np.array_equal(h.array, plain_h.array)
        assert pred == plain_pred


class TestCompiledProgram:
    """The run loop executes compiled heads; the literal dense module is the oracle."""

    @staticmethod
    def programs(p):
        designed = build_designed_weights(p.n, p.d)
        return {
            "designed": (designed, build_designed_input(p)),
            "enumerated": (build_enumerated_weights(p.n, p.d), build_enumerated_input(p)),
            "wrapped": (wrap_designed_as_elsa(designed), build_designed_input(p)),
        }

    @pytest.mark.parametrize("n,d", [(1, 1), (3, 2), (20, 4), (100, 8)])
    def test_steps_and_readout_match_literal_module(self, n, d):
        rng = np.random.default_rng(40 + n)
        p = problem(rng, n, d, steps=60, w0=rng.normal(size=(d, 1)))
        for name, (prog, state) in self.programs(p).items():
            w_col = prog.layout.w_col - 1
            for _ in range(p.steps):
                got = step(state, prog).h.array
                want = literal_run_module(state.h, prog.step).array
                assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want))), name
                others = np.arange(got.shape[1]) != w_col
                assert np.array_equal(got[:, others], state.h.array[:, others]), name
                state = PipelineState(h=Matrix.from_array(got), layout=state.layout)
            h_final, pred = readout(state, prog)
            want = literal_run_module(state.h, prog.readout).get(*prog.cell)
            assert abs(pred - want) <= 1e-14 * max(1.0, abs(want)), name
            changed = h_final.array != state.h.array
            changed[prog.cell[0] - 1, prog.cell[1] - 1] = False
            assert not changed.any(), name

    @staticmethod
    def step_loop(prog, state, steps):
        """What run_program returns, taken one literal step() at a time."""
        trace = [extract_w(state)]
        for _ in range(steps):
            state = step(state, prog)
            trace.append(extract_w(state))
        h_final, pred = readout(state, prog)
        return trace, h_final, pred

    @staticmethod
    def assert_same_run(got, want, name):
        (trace, h, pred), (want_trace, want_h, want_pred) = got, want
        assert [w.array.tobytes() for w in trace] == [w.array.tobytes() for w in want_trace], name
        assert h.array.tobytes() == want_h.array.tobytes(), name
        assert np.float64(pred).tobytes() == np.float64(want_pred).tobytes(), name

    @pytest.mark.parametrize("n,d", [(1, 1), (3, 2), (20, 4), (100, 8)])
    def test_bound_loop_is_the_step_loop(self, n, d):
        rng = np.random.default_rng(60 + n)
        for lam in (0.0, 0.5, 2.0):
            p = problem(rng, n, d, lam=lam, steps=60, w0=rng.normal(size=(d, 1)))
            for name, (prog, state) in self.programs(p).items():
                got = run_program(prog, state, p.steps)
                self.assert_same_run(got, self.step_loop(prog, state, p.steps), name)

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        n=st.integers(1, 6),
        d=st.integers(1, 4),
        lam=st.just(0.0) | st.floats(0.0, 4.0),
        steps=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bound_loop_is_the_step_loop_property(self, n, d, lam, steps, seed):
        rng = np.random.default_rng(seed)
        p = problem(rng, n, d, lam=lam, steps=steps, w0=rng.normal(size=(d, 1)))
        for name, (prog, state) in self.programs(p).items():
            got = run_program(prog, state, p.steps)
            self.assert_same_run(got, self.step_loop(prog, state, p.steps), name)

    def test_negative_zeros_keep_their_sign(self):
        rng = np.random.default_rng(61)
        p = problem(rng, n=5, d=3, steps=8, w0=rng.normal(size=(3, 1)))
        for name, (prog, state) in self.programs(p).items():
            h = state.h.to_array()
            unwritten = h[:, : prog.layout.w_col - 1]
            unwritten[unwritten == 0.0] = -0.0
            unwritten[0, :2] = -0.0  # two entries of X
            unwritten[-1, prog.layout.w_col - 2] = -0.0  # an entry of u or the scratch column
            h[0, prog.layout.w_col - 1] = -0.0  # and one of w0
            assert np.signbit(h).any(), name
            state = PipelineState(h=Matrix.from_array(h), layout=state.layout)
            got = run_program(prog, state, p.steps)
            want = self.step_loop(prog, state, p.steps)
            assert np.array_equal(np.signbit(got[1].array), np.signbit(want[1].array)), name
            for w, want_w in zip(got[0], want[0]):
                assert np.array_equal(np.signbit(w.array), np.signbit(want_w.array)), name
            self.assert_same_run(got, want, name)

    def test_foreign_state_is_refused(self):
        rng = np.random.default_rng(62)
        p = problem(rng, n=3, d=2, steps=2)
        with pytest.raises(LayoutMismatch):
            run_program(build_designed_weights(3, 2), build_enumerated_input(p), p.steps)
        with pytest.raises(LayoutMismatch):
            run_program(build_enumerated_weights(3, 2), build_designed_input(p), 0)
        wider = build_designed_weights(4, 2)
        prog = Program(DesignedLayout(3, 2), wider.step, wider.readout, wider.cell)
        with pytest.raises(DimensionMismatch):
            run_program(prog, build_designed_input(p), p.steps)

    @pytest.mark.parametrize("reader", ["w1", "w3"])
    def test_head_reading_the_written_column_runs_each_step(self, reader):
        rng = np.random.default_rng(63)
        n, d = 4, 2
        p = problem(rng, n, d, steps=12, w0=rng.normal(size=(d, 1)))
        designed = build_designed_weights(n, d)
        s = designed.layout.s
        # The extra head adds t3 (t1^T t2) to the w column s, with t1 = t3 = H[:, 1] and
        # t2 = -0.1 H[:, 1], except that the reader projection takes the w column H[:, s].
        x_col = eye_block(s, s, BlockSpec(1, 1, 1, 1))
        weights = {"w1": x_col, "w3": x_col, reader: eye_block(s, s, BlockSpec(s, s, 1, 1))}
        w2 = eye_block(s, s, BlockSpec(1, 1, s, s), -0.1)
        head = LsaParams(w1=weights["w1"], w2=w2, w3=weights["w3"])
        step_block = (*designed.step[0], head)
        prog = Program(designed.layout, (step_block,), designed.readout, designed.cell)
        state = build_designed_input(p)
        got = run_program(prog, state, p.steps)
        assert got[0][-1] != run_program(designed, state, p.steps)[0][-1]
        self.assert_same_run(got, self.step_loop(prog, state, p.steps), reader)

    def test_compiled_view_dies_with_program(self):
        rng = np.random.default_rng(44)
        p = problem(rng, n=4, d=2, steps=3)
        prog = build_enumerated_weights(p.n, p.d)
        assert prog.compiled is prog.compiled
        head = weakref.ref(prog.step[0][0])
        compiled_weights = weakref.ref(prog.compiled.step[0][0].p1.w)
        run_program(prog, build_enumerated_input(p), p.steps)
        del prog
        gc.collect()
        assert head() is None
        assert compiled_weights() is None
