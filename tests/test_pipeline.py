"""In-context descent pipelines against the ridge oracle."""

import copy
import dataclasses
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
    BadProblemFile,
    DesignedLayout,
    DimensionMismatch,
    EmptyHeads,
    EnumeratedLayout,
    LayoutMismatch,
    Matrix,
    MatrixStack,
    NotDesignedProgram,
    PipelineState,
    Program,
    RidgeProblem,
    build_designed_input,
    build_designed_weights,
    build_enumerated_input,
    build_enumerated_weights,
    block_read,
    compile_head,
    compiled_forward,
    const_params,
    elsa_forward,
    extract_w,
    gd_run,
    gd_step,
    gradient,
    identity,
    make_problem,
    matmul,
    multihead_forward,
    predict,
    readout,
    ridge_closed_form,
    run_pipeline,
    run_program,
    stable_eta_for,
    step,
    transpose,
    wrap_designed_as_elsa,
    zeros,
)
from oracles import (
    block_write_designed_prompt,
    block_write_enumerated_prompt,
    literal_run_module,
    nonfinite_ridge_problems,
    random_ridge_arrays,
    reader_program,
    selector,
    two_block_program,
    zero_feature_arrays,
)


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

    def test_overflowing_scaled_prompt_is_a_bad_problem(self):
        # sqrt(eta) * y = 1e150 * -1e308 overflows; the enumerated prompt scales no data.
        p = make_problem(identity(2), Matrix.column([-1e308, 1.0]), Matrix.column([1.0, 1.0]),
                         0.5, eta=1e300, steps=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadProblemFile, match="designed prompt"):
                build_designed_input(p)
            assert np.all(np.isfinite(build_enumerated_input(p).h.array))


class TestPromptAssembly:
    """The builders write every block into one array; the block_write prompts are the reference."""

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_prompts_are_the_block_write_prompts(self, n, d):
        rng = np.random.default_rng([n, d, 76])
        # eta = 0 scales X and y to signed zeros; lam = 0 makes the ridge block 0 * I.
        for lam, eta in ((0.0, "auto"), (0.5, "auto"), (2.0, 0.0), (0.5, 1e-3)):
            x, y, u = random_ridge_arrays(rng, n, d)
            w0 = rng.normal(size=(d, 1))
            for a in (x, y, u, w0):
                a[rng.random(a.shape) < 0.3] = -0.0
            x, y, u, w0 = (Matrix.from_array(a) for a in (x, y, u, w0))
            p = make_problem(x, y, u, lam, eta=eta, steps=1, w0=w0)
            for build, reference in ((build_designed_input, block_write_designed_prompt),
                                     (build_enumerated_input, block_write_enumerated_prompt)):
                got = build(p).h.array
                assert got.tobytes() == reference(p).array.tobytes(), (build.__name__, lam, eta)
                assert got.flags.c_contiguous and not got.flags.writeable

    def test_overflow_keeps_its_message(self):
        one = Matrix.column([1.0, 1.0])
        cases = (
            (identity(2), Matrix.column([-1e308, 1.0]), 0.5, 1e300),  # sqrt(eta) y
            (Matrix([[1.0, -1e308], [0.0, 1.0]]), one, 0.0, 1e300),  # sqrt(eta) X
        )
        for x, y, lam, eta in cases:
            p = make_problem(x, y, one, lam, eta=eta, steps=1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(BadProblemFile) as got:
                    build_designed_input(p)
                with pytest.raises(BadProblemFile) as want:
                    block_write_designed_prompt(p)
                assert str(got.value) == str(want.value)
                assert (build_enumerated_input(p).h.array.tobytes()
                        == block_write_enumerated_prompt(p).array.tobytes())


REGION_SHAPES = [(1, 1), (3, 2), (2, 5), (20, 4)]


class TestRegions:
    """Each layout is its declared regions; the prompt writers fill them by name."""

    @pytest.mark.parametrize("n,d", REGION_SHAPES)
    def test_regions_tile_the_columns_in_order(self, n, d):
        layouts = {
            DesignedLayout(n, d): (["x", "y", "one", "ridge", "u", "w"], (d + 1, 2 * n + d + 3)),
            EnumeratedLayout(n, d): (["x", "y", "lam", "eta", "u", "z", "w"],
                                     (d, 2 * n + 2 * d + 3)),
        }
        for layout, (names, shape) in layouts.items():
            regions = layout.regions
            assert list(regions) == names
            assert layout.shape == shape and layout.s == shape[1]
            blocks = list(regions.values())
            assert blocks[0].col_lo == 1 and blocks[-1].col_hi == layout.s
            assert all(b.col_lo == a.col_hi + 1 for a, b in zip(blocks, blocks[1:]))
            covered = np.zeros(layout.shape, dtype=int)
            for b in blocks:
                b.check_host(*layout.shape)
                covered[b.index] += 1
            assert covered.max() == 1 and covered.any(axis=0).all()
            assert max(b.row_hi for b in blocks) == layout.shape[0]
            assert layout.w_col == regions["w"].col_lo == layout.s
        enumerated = EnumeratedLayout(n, d)
        assert enumerated.z_col == enumerated.regions["z"].col_lo == enumerated.s - 1

    def test_layouts_keep_their_fields_and_equality(self):
        assert DesignedLayout(3, 2) == DesignedLayout(n=3, d=2) != EnumeratedLayout(3, 2)
        assert hash(DesignedLayout(3, 2)) == hash(DesignedLayout(3, 2))
        assert repr(EnumeratedLayout(3, 2)) == "EnumeratedLayout(n=3, d=2)"
        assert [f.name for f in dataclasses.fields(DesignedLayout)] == ["n", "d"]
        # One table per (n, d): a prompt writer does no per-region work.
        assert DesignedLayout(3, 2).regions is DesignedLayout(3, 2).regions
        assert DesignedLayout(3, 2).regions is not EnumeratedLayout(3, 2).regions

    @pytest.mark.parametrize("n,d", REGION_SHAPES)
    def test_each_region_holds_its_content(self, n, d):
        rng = np.random.default_rng([n, d, 35])
        p = problem(rng, n, d, w0=rng.normal(size=(d, 1)))
        sqrt_eta = math.sqrt(p.eta)
        state = build_designed_input(p)
        want = {"x": sqrt_eta * p.x.array.T, "y": sqrt_eta * p.y.array.T, "one": [[1.0]],
                "ridge": sqrt_eta * math.sqrt(p.lam) * np.eye(d), "u": p.u.array,
                "w": p.w0.array}
        for name, block in state.layout.regions.items():
            assert np.array_equal(block_read(state.h, block).array, want[name]), name
        state = build_enumerated_input(p)
        y = np.zeros((d, n))
        y[-1] = p.y.array[:, 0]
        want = {"x": p.x.array.T, "y": y, "lam": p.lam * np.eye(d),
                "eta": sqrt_eta * np.eye(d), "u": p.u.array, "z": np.zeros((d, 1)),
                "w": p.w0.array}
        for name, block in state.layout.regions.items():
            assert np.array_equal(block_read(state.h, block).array, want[name]), name
        assert extract_w(state) == p.w0


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

    def test_w_trace_is_a_lazy_read_only_stack(self):
        rng = np.random.default_rng(31)
        p = problem(rng, n=5, d=3, steps=6, w0=rng.normal(size=(3, 1)))
        pairs = (("lsa", build_designed_weights, build_designed_input),
                 ("elsa", build_enumerated_weights, build_enumerated_input))
        for form, build, prompt in pairs:
            trace = run_pipeline(p, form).w_trace
            eager = run_program(build(p.n, p.d), prompt(p), p.steps)[0]
            assert isinstance(trace, MatrixStack) and trace == eager
            assert trace[-1] == eager[-1] and trace[2:4] == eager[2:4]
            assert all(not w.array.flags.writeable for w in trace)

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

    def test_overflowing_xty_runs_without_a_warning(self):
        # X^T X is finite but X^T y overflows: the bound step terms, the oracle's X^T y and the
        # normal equations are inf, and the trace ends at step 1.
        p = make_problem(Matrix([[1e150, 0.0], [0.0, 1.0]]), Matrix.column([1e300, 1.0]),
                         Matrix.column([1.0, 1.0]), 0.5, eta=1.0, steps=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for form in ("lsa", "elsa"):
                run = run_pipeline(p, form)
                assert run.report["diverged_at"] == 1
                assert run.w_trace == [p.w0]
                assert not math.isfinite(run.prediction)


class TestSharedOracle:
    """run_pipeline computes a problem's descent and closed form once; both forms read them."""

    @staticmethod
    def signed_problems():
        """Problems with -0.0 in X, y and w0, at the auto eta and at a divergent explicit eta."""
        rng = np.random.default_rng(90)
        for n, d in ((1, 1), (3, 2), (2, 3), (20, 4)):
            x, y, u = random_ridge_arrays(rng, n, d)
            w0 = rng.normal(size=(d, 1))
            for a in (x, y, w0):
                a[rng.random(a.shape) < 0.3] = -0.0
            x, y, u, w0 = (Matrix.from_array(a) for a in (x, y, u, w0))
            for eta in ("auto", 1e12 * stable_eta_for(x, 0.5)):
                yield make_problem(x, y, u, 0.5, eta=eta, steps=30, w0=w0)

    @staticmethod
    def run_bytes(run):
        return ([w.array.tobytes() for w in run.w_trace], np.float64(run.prediction).tobytes(),
                json.dumps(run.report, sort_keys=True))

    def test_forms_on_one_problem_are_runs_on_fresh_copies(self):
        diverged = 0
        for p in self.signed_problems():
            shared = [run_pipeline(p, form) for form in ("lsa", "elsa")]
            fresh = [run_pipeline(dataclasses.replace(p), form) for form in ("lsa", "elsa")]
            assert [self.run_bytes(r) for r in shared] == [self.run_bytes(r) for r in fresh]
            for report in (run.report for run in shared if run.report["diverged_at"] is not None):
                diverged += 1
                assert math.isnan(report["oracle_prediction"])
                assert not math.isfinite(report["prediction"])
        assert diverged == 8  # both forms of the four divergent-eta problems

    def test_oracle_is_computed_once_and_read_only(self):
        rng = np.random.default_rng(91)
        p = problem(rng, n=5, d=3, steps=20)
        assert "_oracle" not in vars(p)
        lsa = run_pipeline(p, "lsa")
        oracle = p._oracle
        elsa = run_pipeline(p, "elsa")
        assert p._oracle is oracle
        assert oracle.trace.shape == (21, 3, 1)
        assert lsa.report["oracle_prediction"] == elsa.report["oracle_prediction"]
        assert lsa.report["closed_form_prediction"] == elsa.report["closed_form_prediction"]
        stacks = [oracle.trace] + [w.array for run in (lsa, elsa) for w in run.w_trace]
        for a in stacks:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        assert [w.array.tobytes() for w in gd_run(p)] == [w.tobytes() for w in oracle.trace]
        assert dataclasses.replace(p)._oracle is not oracle

    def test_replaced_steps_get_their_own_oracle(self):
        # The CLI's --steps runs dataclasses.replace(problem, steps=...).
        rng = np.random.default_rng(92)
        p = problem(rng, n=6, d=2, steps=4)
        before = run_pipeline(p, "lsa").report
        longer = dataclasses.replace(p, steps=9)
        report = run_pipeline(longer, "lsa").report
        assert len(before["per_step_deviation"]) == 5
        assert len(report["per_step_deviation"]) == 10
        assert len(p._oracle.trace) == 5 and len(longer._oracle.trace) == 10
        assert report["oracle_prediction"] == predict(gd_run(longer)[-1], p.u)
        assert report["oracle_prediction"] != before["oracle_prediction"]


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

    def test_wrap_refuses_a_program_with_biases(self):
        # Wrapping rebuilds every head with zero biases, so it takes plain designed heads only.
        with pytest.raises(NotDesignedProgram, match="EnumeratedLayout"):
            wrap_designed_as_elsa(build_enumerated_weights(3, 2))
        designed = build_designed_weights(3, 2)
        wrapped = wrap_designed_as_elsa(designed)
        with pytest.raises(NotDesignedProgram, match="ElsaParams"):
            wrap_designed_as_elsa(wrapped)
        mixed = Program(designed.layout, designed.step, wrapped.readout, designed.cell)
        with pytest.raises(NotDesignedProgram, match="ElsaParams"):
            wrap_designed_as_elsa(mixed)

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
                        assert pa.transposed == pb.transposed
                    assert same_index(a.p1.k, b.p1.k) and same_index(a.p3.k, b.p3.k)
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
        n, d = 5, 3
        for w0 in (rng.normal(size=(d, 1)), np.full((d, 1), -0.0)):
            p = problem(rng, n, d, steps=8, w0=w0)
            programs = self.programs(p)
            designed_input = build_designed_input(p)
            programs["two-block"] = (two_block_program(n, d), designed_input)
            for reader in ("w1", "w3"):
                programs[reader] = (reader_program(n, d, reader), designed_input)
            for name, (prog, state) in programs.items():
                h = state.h.to_array()
                unwritten = h[:, : prog.layout.w_col - 1]
                unwritten[unwritten == 0.0] = -0.0
                unwritten[0, :2] = -0.0  # two entries of X
                unwritten[:d, 0] = -0.0  # X's column 1, which the two-block state holds
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

    @pytest.mark.parametrize("steps", [0, 1, 2, 12])
    def test_zero_features_keep_the_step_loop_bits(self, steps):
        for n, d in ((1, 1), (3, 2), (2, 3), (20, 4)):
            x, y, u, w0 = (Matrix.from_array(a) for a in
                           zero_feature_arrays(np.random.default_rng([n, d, 75]), n, d))
            for lam in (0.5, 0.0) if d > 1 else (0.5,):
                p = make_problem(x, y, u, lam, steps=steps, w0=w0)
                programs = self.programs(p)
                designed_input = build_designed_input(p)
                programs["two-block"] = (two_block_program(n, d), designed_input)
                for reader in ("w1", "w3"):
                    programs[reader] = (reader_program(n, d, reader), designed_input)
                for name, (prog, state) in programs.items():
                    h = state.h.array
                    held = h[:, prog.compiled.plan.cols]
                    assert np.signbit(held[held == 0.0]).any(), name
                    # The last block's terms of step 1 hold signed zeros: a zero feature's rows.
                    out = h
                    for block in prog.compiled.step[:-1]:
                        out = compiled_forward(out, block)
                    terms = [c.p3.apply(out) @ (c.p1.apply(out) @ c.p2.apply(out))
                             for c in prog.compiled.step[-1]]
                    assert any((t == 0.0).any() for t in terms), name
                    got = run_program(prog, state, steps)
                    want = self.step_loop(prog, state, steps)
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
        # Heads as wide as the (3, 11) prompt, with biases of 5 rows.
        taller = wrap_designed_as_elsa(build_designed_weights(2, 4))
        prog = Program(DesignedLayout(3, 2), taller.step, taller.readout, taller.cell)
        state = build_designed_input(p)
        refused = r"\(5, 11\) != layout \(3, 11\)"
        for steps in (0, 3):
            with pytest.raises(DimensionMismatch, match=refused):
                run_program(prog, state, steps)
        with pytest.raises(DimensionMismatch, match=refused):
            step(state, prog)

    def test_empty_modules_and_blocks_are_refused(self):
        designed = build_designed_weights(3, 2)
        layout, step_module, readout_module, cell = (designed.layout, designed.step,
                                                     designed.readout, designed.cell)
        # An empty step module, step block, readout module and readout block.
        for modules in (((), readout_module), (((),), readout_module), (step_module, ()),
                        (step_module, ((),))):
            with pytest.raises(EmptyHeads):
                Program(layout, *modules, cell)

    @pytest.mark.parametrize("reader", ["w1", "w3"])
    def test_head_reading_the_written_column_runs_each_step(self, reader):
        rng = np.random.default_rng(63)
        n, d = 4, 2
        p = problem(rng, n, d, steps=12, w0=rng.normal(size=(d, 1)))
        prog = reader_program(n, d, reader)
        state = build_designed_input(p)
        got = run_program(prog, state, p.steps)
        assert got[0][-1] != run_program(build_designed_weights(n, d), state, p.steps)[0][-1]
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


class TestStepPlan:
    """The run loop's constness pass: which projections and columns vary from step to step."""

    @staticmethod
    def varying_reads(block):
        """Per head i, which of its t1, t2 and t3 slots (3i, 3i+1 and 3i+2) vary at every step."""
        heads = range(len(block.slots) // 3)
        return [tuple(r in block.varying for r in range(3 * i, 3 * i + 3)) for i in heads]

    @pytest.mark.parametrize("n,d", [(1, 1), (3, 2), (20, 4), (100, 8)])
    def test_designed_step_evaluates_one_shared_projection(self, n, d):
        designed = build_designed_weights(n, d)
        for prog in (designed, wrap_designed_as_elsa(designed)):
            plan = prog.compiled.plan
            (block,) = plan.blocks
            assert self.varying_reads(block) == [(False, False, False), (False, True, False),
                                                 (False, True, False)]
            # Heads 2 and 3 read w through unit slots, so the kernel reads both as its input.
            assert all(pipeline._unit(block.slots[i]) for i in block.varying)
            s = prog.layout.s
            assert np.array_equal(np.arange(s)[plan.cols], [s - 1])
            assert np.array_equal(np.arange(s)[block.cols], [s - 1])

    @pytest.mark.parametrize("n,d", [(1, 1), (3, 2), (20, 4), (100, 8)])
    def test_builders_compile_their_unit_slots_away(self, n, d):
        p = problem(np.random.default_rng(70 + n), n, d)
        for name, (prog, state) in TestCompiledProgram.programs(p).items():
            plan = prog.compiled.plan
            assert all(pipeline._unit(b.slots[i]) for b in plan.blocks for i in b.varying), name
            run = pipeline._bind(plan, state.h.array + 0.0)
            # The run evaluates no slot: its only locals are its input, the trace and the step's
            # row of it, and no apply is among its globals.
            assert run.__code__.co_varnames == ("x", "hs", "out"), name
            assert not any(getattr(g, "__name__", "") == "apply"
                           for g in run.__globals__.values()), name

    def test_slots_are_the_heads_own_projections(self):
        p = problem(np.random.default_rng(73), 3, 2)
        programs = {name: prog for name, (prog, _) in TestCompiledProgram.programs(p).items()}
        programs["two-block"] = two_block_program(p.n, p.d)
        for name, prog in programs.items():
            for block, plan_block in zip(prog.compiled.step, prog.compiled.plan.blocks):
                projections = [q for c in block for q in (c.p1, c.p2, c.p3)]
                assert len(plan_block.slots) == len(projections), name
                for slot, q in zip(plan_block.slots, projections):
                    # The compiled arrays themselves, not copies.
                    assert slot.w is q.w and slot.b is q.b and slot.cols is q.cols, name
                    assert slot.transposed == q.transposed, name

    @pytest.mark.parametrize("n,d", [(1, 1), (3, 2), (20, 4), (100, 8)])
    def test_enumerated_step_binds_the_contraction(self, n, d):
        prog = build_enumerated_weights(n, d)
        first, second = prog.compiled.plan.blocks
        assert self.varying_reads(first) == [(False, True, False), (False, True, False),
                                             (False, False, False), (False, False, False)]
        # The contraction's t1 reads the marker columns and its t3 is a bias: both are bound.
        assert len(second.varying) == 1
        assert self.varying_reads(second) == [(False, True, False)]
        s = prog.layout.s
        for cols in (prog.compiled.plan.cols, first.cols, second.cols):
            assert np.array_equal(np.arange(s)[cols], [s - 1])

    def test_two_block_program_plan(self):
        prog = two_block_program(4, 2)
        s = prog.layout.s
        plan = prog.compiled.plan
        first, second = plan.blocks
        # The state holds u and w, which the last block writes, and X's column 1.
        assert np.array_equal(np.arange(s)[plan.cols], [0, s - 2, s - 1])
        assert self.varying_reads(first) == [(False, False, False), (False, True, False),
                                             (False, True, False), (False, False, False),
                                             (False, True, False)]
        # Block 1's accumulator holds w and column 2, which block 2's varying t2 reads.
        assert np.array_equal(np.arange(s)[first.cols], [1, s - 1])
        assert self.varying_reads(second) == [(False, True, False), (False, False, False)]
        # Each block's varying t2 slots read columns with weights other than [[1.0]], so the
        # run evaluates them into locals of its own, one per head: v<block>_<slot>.
        run = pipeline._bind(plan, np.ones(prog.layout.shape))
        assert run.__code__.co_varnames == ("x", "hs", "out", "v0_4", "v0_7", "v0_13", "v1_1")
        # Block 2's constant head writes w, which varies, so each step adds its term.
        assert "c1_1" in run.__code__.co_freevars

    def test_kernels_are_made_once_per_program(self, monkeypatch):
        made, factory = [], pipeline._factory

        def counted(*args):
            made.append(factory(*args))
            return made[-1]

        monkeypatch.setattr(pipeline, "_factory", counted)
        p = problem(np.random.default_rng(72), 3, 2, steps=4)
        programs = TestCompiledProgram.programs(p)
        programs["two-block"] = (two_block_program(p.n, p.d), build_designed_input(p))
        for name, (prog, state) in programs.items():
            made.clear()
            assert made == [prog.compiled.plan.bind], name
            for _ in range(3):
                run_program(prog, state, p.steps)
            assert made == [prog.compiled.plan.bind], name
        binds = {form: pipeline._compiled_program(form, p.n, p.d).plan.bind
                 for form in ("lsa", "elsa")}
        made.clear()
        for form in ("lsa", "elsa", "lsa", "elsa"):
            run_pipeline(p, form)
        assert made == []
        for form, bind in binds.items():
            assert pipeline._compiled_program(form, p.n, p.d).plan.bind is bind, form

    @pytest.mark.parametrize("n,d", [(1, 1), (3, 2), (20, 4)])
    def test_every_all_zero_start_is_dropped(self, n, d):
        p = problem(np.random.default_rng(74), n, d)
        programs = TestCompiledProgram.programs(p)
        programs["two-block"] = (two_block_program(n, d), build_designed_input(p))
        # The run reads block b's start s<b> unless the plan dropped it: both enumerated
        # blocks start at +0.0, and the designed one at its constant term.
        read = {"designed": ["s0"], "wrapped": ["s0"], "enumerated": [],
                "two-block": ["s0", "s1"]}
        for name, (prog, state) in programs.items():
            run = pipeline._bind(prog.compiled.plan, state.h.array + 0.0)
            starts = [v for v in run.__code__.co_freevars if v.startswith("s")]
            assert sorted(starts) == read[name], name

    @pytest.mark.parametrize("n,d", [(1, 1), (3, 2), (20, 4), (100, 8)])
    def test_the_bias_identities_take_no_product(self, n, d):
        p = problem(np.random.default_rng(76), n, d)
        programs = TestCompiledProgram.programs(p)
        programs["two-block"] = (two_block_program(n, d), build_designed_input(p))
        for name, (prog, state) in programs.items():
            eyes = {f"b{b}_{3 * i + 2}" for b, block in enumerate(prog.compiled.step)
                    for i, c in enumerate(block) if c.eye}
            run = pipeline._bind(prog.compiled.plan, state.h.array + 0.0)
            names = set(run.__code__.co_freevars)
            if name == "enumerated":
                # The ridge head's t3 and the contraction's, both I; the contraction's t1^T t2
                # lands in the accumulator itself.
                assert eyes == {"b0_5", "b1_2"}
                assert names == {"acc0", "acc1", "b0_0", "b0_2", "b0_3", "b1_0", "c0_2",
                                 "m0_0", "m0_1"}
                continue
            assert eyes == set(), name
            if name != "two-block":
                # Seven calls a step, as before: two products per varying head, the start,
                # the second term and the skip.
                assert names == {"s0", "acc0", "m0_1", "b0_3", "b0_5", "m0_2", "b0_6", "b0_8",
                                 "t0_2"}, name

    @pytest.mark.parametrize("n,d", [(1, 1), (3, 2), (20, 4)])
    def test_one_column_loops_run_on_vectors(self, n, d):
        p = problem(np.random.default_rng(77), n, d)
        programs = TestCompiledProgram.programs(p)
        programs["two-block"] = (two_block_program(n, d), build_designed_input(p))
        for name, (prog, state) in programs.items():
            run = pipeline._bind(prog.compiled.plan, state.h.array + 0.0)
            cells = dict(zip(run.__code__.co_freevars, (c.cell_contents for c in run.__closure__)))
            ndim = {cells[v].ndim for v in cells if v.startswith(("acc", "m", "t"))}
            assert ndim == ({2} if name == "two-block" else {1}), name

    @pytest.mark.parametrize("steps", [0, 1, 12])
    def test_two_block_program_is_the_step_loop(self, steps):
        rng = np.random.default_rng(64 + steps)
        n, d = 4, 2
        p = problem(rng, n, d, steps=steps, w0=rng.normal(size=(d, 1)))
        prog = two_block_program(n, d)
        h = build_designed_input(p).h.to_array()
        h[rng.random(h.shape) < 0.3] = -0.0
        h[0, 0] = -0.0  # an entry of X's column 1, which the state holds
        assert np.signbit(h).any()
        state = PipelineState(h=Matrix.from_array(h), layout=prog.layout)
        got = run_program(prog, state, steps)
        want = TestCompiledProgram.step_loop(prog, state, steps)
        if steps:
            assert got[0][-1] != run_program(build_designed_weights(n, d), state, steps)[0][-1]
        TestCompiledProgram.assert_same_run(got, want, steps)

    def test_a_constant_only_step_is_the_step_loop(self):
        # One const_params head writing the w column: the plan has no varying slot, so the
        # block's accumulator is its start, the constant term bound once, and each step
        # adds it to x.
        p = problem(np.random.default_rng(75), 3, 2, steps=5)
        enumerated = build_enumerated_weights(p.n, p.d)
        layout = enumerated.layout
        c = np.zeros(layout.shape)
        c[:, layout.w_col - 1] = 0.25 * np.arange(1, layout.shape[0] + 1)
        head = const_params(Matrix.from_array(c), layout.shape)
        prog = Program(layout, ((head,),), enumerated.readout, enumerated.cell)
        assert all(not block.varying for block in prog.compiled.plan.blocks)
        state = build_enumerated_input(p)
        run = pipeline._bind(prog.compiled.plan, state.h.array + 0.0)
        assert run.__code__.co_freevars == ("acc0",)
        got = run_program(prog, state, p.steps)
        want = TestCompiledProgram.step_loop(prog, state, p.steps)
        TestCompiledProgram.assert_same_run(got, want, "constant")
        assert np.array_equal(got[0][-1].array[:, 0],
                              state.h.array[:, layout.w_col - 1] + p.steps * c[:, layout.w_col - 1])


class TestBiasIdentity:
    """compile_head marks a head whose t3 is the bias identity +I; its term skips the product."""

    @pytest.mark.parametrize("n,d", [(1, 1), (3, 2), (2, 3), (20, 4)])
    def test_the_flag_marks_exactly_the_identity_heads(self, n, d):
        def flags(prog):
            return [[[c.eye for c in block] for block in module]
                    for module in (prog.compiled.step, prog.compiled.readout)]

        enumerated, designed = build_enumerated_weights(n, d), build_designed_weights(n, d)
        # The lambda w head and the contraction, not the -I marker head; the readout's
        # t3 is I_1 in row 1, the identity only at d = 1.
        assert flags(enumerated) == [[[False, True, False, False], [True]], [[d == 1]]]
        for prog in (designed, wrap_designed_as_elsa(designed)):
            assert flags(prog) == [[[False] * 3], [[False]]]
        # The lambda w head's bias is I, but a t3 that also reads a row is not the identity.
        lam_head = enumerated.step[0][1]
        head = dataclasses.replace(lam_head, w3=selector(enumerated.layout.s, (1, 1, 1.0)))
        assert compile_head(lam_head).eye and not compile_head(head).eye

    @settings(max_examples=60, deadline=None, database=None)
    @given(n=st.integers(1, 6), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_the_flag_changes_no_bit_on_finite_prompts(self, n, d, seed):
        rng = np.random.default_rng(seed)
        prog = build_enumerated_weights(n, d)
        h = rng.normal(size=prog.layout.shape) * 10.0 ** rng.uniform(-3, 3, prog.layout.shape)
        h[rng.random(h.shape) < 0.3] = -0.0
        for block in prog.compiled.step + prog.compiled.readout:
            cleared = tuple(c._replace(eye=False) for c in block)
            assert compiled_forward(h, block).tobytes() == compiled_forward(h, cleared).tobytes()


class TestOverflowingRuns:
    """A run whose state goes non-finite is still the step() loop, bit for bit (_factory)."""

    @pytest.mark.parametrize("n,d", [(1, 1), (3, 2), (2, 3), (20, 4), (100, 8)])
    def test_an_overflowing_run_is_the_step_loop(self, n, d):
        for p in nonfinite_ridge_problems(n, d):
            programs = TestCompiledProgram.programs(p)
            programs["two-block"] = (two_block_program(p.n, p.d), build_designed_input(p))
            for name, (prog, state) in programs.items():
                with np.errstate(over="ignore", invalid="ignore"):
                    trace, *want = TestCompiledProgram.step_loop(prog, state, p.steps)
                # run_program's trace ends before the first non-finite w.
                finite = [bool(np.isfinite(w.array).all()) for w in trace]
                want = (trace[: finite.index(False) if False in finite else None], *want)
                TestCompiledProgram.assert_same_run(run_program(prog, state, p.steps), want, name)
