"""Component-built elimination against hand values, a dense solver, and the shadow."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elsakit import gauss, netcomp
from elsakit import (
    BlockSpec,
    EliminationOverflow,
    LinearSystem,
    Matrix,
    PivotBelowTolerance,
    backward_substitute_step,
    block_read,
    build_invsqr,
    default_invsqr,
    embed_system,
    forward_eliminate_step,
    identity,
    invsqr_eval,
    make_problem,
    predict,
    ridge_closed_form,
    ridge_via_gauss,
    solve,
    system_from_json,
    system_to_json,
    zeros,
)
from oracles import (
    dense_component_forward,
    literal_backward_step,
    literal_forward_step,
    random_dd_system,
    random_ridge_arrays,
    shadow_backward_step,
    shadow_forward_step,
)

TWO_BY_TWO = LinearSystem(f=Matrix([[2.0, 1.0], [1.0, 3.0]]), alpha=Matrix([[3.0], [5.0]]))
# Solution [1, 1]; the first pivot's square overflows float64.
HUGE_PIVOT = LinearSystem(f=Matrix([[1e160, 0.0], [0.0, 1.0]]), alpha=Matrix([[1e160], [1.0]]))


def dd_system(rng, m, spread=1.0, signed=False):
    f, alpha = random_dd_system(rng, m, spread, signed=signed)
    return LinearSystem(f=Matrix.from_array(f), alpha=Matrix.from_array(alpha))


def assert_states_match_literal(sys, mode):
    """Run a solve step by step; each state must be bitwise the dense step's from the same state."""
    state = embed_system(sys, mode=mode)
    for k in range(1, sys.m):
        nxt = forward_eliminate_step(state, k)
        ref = literal_forward_step(state, k)
        assert nxt.p.array.tobytes() == ref.p.array.tobytes(), f"forward step {k}"
        assert nxt.stage == ref.stage
        state = nxt
    for t in range(sys.m, 0, -1):
        nxt = backward_substitute_step(state, t)
        ref = literal_backward_step(state, t)
        assert nxt.p.array.tobytes() == ref.p.array.tobytes(), f"backward step {t}"
        assert nxt.stage == ref.stage
        state = nxt


# Finite systems whose elimination overflows float64, with the module that overflows.
OVERFLOWS = {
    "pivot_2x2": ([[1.0, 1e300], [1e300, 1.0]], [1.0, 1.0], "forward step 1"),
    "off_pivot": ([[1.0, 1.0, 1e300], [1e300, 1.0, 1.0], [0.0, 0.0, 1.0]], [1.0, 1.0, 1.0],
                  "forward step 1"),
    "right_hand_side": ([[1.0, 0.0], [1e300, 1.0]], [1e300, 1.0], "forward step 1"),
    "column_3": ([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1e300],
                  [0.0, 0.0, 1e300, 1.0]], [1.0, 1.0, 1.0, 1.0], "forward step 3"),
    "fold": ([[1.0, 1e300], [0.0, 1.0]], [1.0, 1e300], "backward step 1"),
    "row_scale": ([[0.02, 0.0], [0.0, 1.0]], [1e307, 1.0], "backward step 1"),
}


class TestEmbed:
    def test_layout(self):
        state = embed_system(TWO_BY_TWO)
        assert state.p == Matrix([[2.0, 1.0, 3.0], [1.0, 3.0, 5.0], [0.0, 0.0, 0.0]])
        assert state.stage == ("forward", 0)

    def test_shape(self):
        assert embed_system(TWO_BY_TWO).p.shape == (3, 3)

    def test_round_trip(self):
        state = embed_system(TWO_BY_TWO)
        assert block_read(state.p, BlockSpec(1, 2, 1, 2)) == TWO_BY_TWO.f
        assert block_read(state.p, BlockSpec(1, 2, 3, 3)) == TWO_BY_TWO.alpha

    def test_system_validation(self):
        with pytest.raises(Exception):
            LinearSystem(f=Matrix([[1.0]]), alpha=Matrix([[1.0]]))
        with pytest.raises(Exception):
            LinearSystem(f=identity(2), alpha=zeros(3, 1))

    def test_exact_mode_rejects_a_table(self):
        table = build_invsqr("explicit:1,2")
        with pytest.raises(ValueError, match="no knot table"):
            embed_system(TWO_BY_TWO, mode="exact", table=table)
        with pytest.raises(ValueError, match="no knot table"):
            solve(TWO_BY_TWO, mode="exact", table=table)


class TestForwardStep:
    def test_first_column_by_hand(self):
        state = forward_eliminate_step(embed_system(TWO_BY_TWO), 1)
        assert np.allclose(state.p.array[1], [0.0, 2.5, 3.5], atol=1e-14)
        assert np.array_equal(state.p.array[0], [2.0, 1.0, 3.0])
        assert state.stage == ("forward", 1)

    def test_already_eliminated_column_is_identity(self):
        state = forward_eliminate_step(embed_system(TWO_BY_TWO), 1)
        again = forward_eliminate_step(state, 1)
        assert again.p == state.p

    def test_full_pass_gives_upper_triangle(self):
        rng = np.random.default_rng(0)
        sys = dd_system(rng, 4)
        state = embed_system(sys)
        for k in range(1, 4):
            state = forward_eliminate_step(state, k)
        below = np.tril(state.p.array[:4, :4], k=-1)
        assert np.abs(below).max() <= 1e-12

    def test_pivot_guard(self):
        singular = LinearSystem(
            f=Matrix([[0.0, 1.0], [1.0, 1.0]]), alpha=Matrix([[1.0], [1.0]])
        )
        with pytest.raises(PivotBelowTolerance):
            forward_eliminate_step(embed_system(singular), 1)

    def test_stage_discipline(self):
        state = embed_system(dd_system(np.random.default_rng(1), 4))
        with pytest.raises(ValueError):
            forward_eliminate_step(state, 2)  # column 1 not eliminated yet


class TestBackwardStep:
    def upper_state(self):
        state = forward_eliminate_step(embed_system(TWO_BY_TWO), 1)
        return state

    def test_solves_last_then_first(self):
        state = self.upper_state()
        state = backward_substitute_step(state, 2)
        assert state.p.get(2, 3) == pytest.approx(1.4, abs=1e-14)
        assert state.p.get(2, 2) == 0.0
        state = backward_substitute_step(state, 1)
        assert state.p.get(1, 3) == pytest.approx(0.8, abs=1e-14)
        assert state.p.get(2, 3) == pytest.approx(1.4, abs=1e-14)

    def test_diagonal_system(self):
        diag = LinearSystem(
            f=Matrix([[2.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 8.0]]),
            alpha=Matrix([[2.0], [2.0], [2.0]]),
        )
        state = embed_system(diag)
        for k in (1, 2):
            state = forward_eliminate_step(state, k)
        for t in (3, 2, 1):
            state = backward_substitute_step(state, t)
        x = block_read(state.p, BlockSpec(1, 3, 4, 4)).array[:, 0]
        assert np.allclose(x, [1.0, 0.5, 0.25], atol=1e-14)

    def test_anti_mask_preserves_solved_entries(self):
        # The cleared pivot cell is what keeps a solved entry from being
        # scaled again; later folds may touch it only through the float-level
        # residue left below the diagonal by forward elimination.
        rng = np.random.default_rng(2)
        sys = dd_system(rng, 5)
        state = embed_system(sys)
        for k in range(1, 5):
            state = forward_eliminate_step(state, k)
        solved = {}
        for t in range(5, 0, -1):
            state = backward_substitute_step(state, t)
            solved[t] = state.p.get(t, 6)
            assert state.p.get(t, t) == 0.0
            for prev, value in solved.items():
                drift = abs(state.p.get(prev, 6) - value)
                assert drift <= 1e-12 * max(1.0, abs(value))

    def test_stage_discipline(self):
        state = self.upper_state()
        with pytest.raises(ValueError):
            backward_substitute_step(state, 1)  # variable 2 not solved yet


class TestSolve:
    def test_hand_example(self):
        x, report = solve(TWO_BY_TWO, mode="exact")
        assert np.allclose(x.array[:, 0], [0.8, 1.4], atol=1e-12)
        assert report["residual_inf"] <= 1e-12
        assert report["mode"] == "exact" and report["m"] == 2

    def test_identity_system(self):
        rng = np.random.default_rng(3)
        alpha = Matrix.from_array(rng.uniform(-1, 1, size=(4, 1)))
        x, _ = solve(LinearSystem(f=identity(4), alpha=alpha))
        assert x == alpha

    def test_exact_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = int(rng.integers(2, 13))
            sys = dd_system(rng, m)
            x, report = solve(sys, mode="exact")
            ref = np.linalg.solve(sys.f.array, sys.alpha.array)
            rel = np.abs(x.array - ref).max() / max(1.0, np.abs(ref).max())
            assert rel <= 1e-8
            assert report["rel_error_vs_oracle"] <= 1e-8

    def test_relu_mode_on_moderate_system(self):
        rng = np.random.default_rng(5)
        sys = dd_system(rng, 6, spread=0.3)
        _, report = solve(sys, mode="relu")  # default knot table
        assert report["rel_error_vs_oracle"] <= 1e-2
        errs = [report["rel_error_vs_oracle"]]
        for n in (256, 512):
            table = build_invsqr(f"geometric:x1=1e-2,xmax=1e2,n={n}")
            _, rep = solve(sys, mode="relu", table=table)
            errs.append(rep["rel_error_vs_oracle"])
        assert errs[0] >= errs[1] >= errs[2]

    def test_relu_mode_handles_negative_pivots(self):
        # The division table is even, so signed pivots divide just as well.
        rng = np.random.default_rng(11)
        sys = dd_system(rng, 5, spread=0.3, signed=True)
        _, report = solve(sys, mode="relu")
        assert report["rel_error_vs_oracle"] <= 1e-2
        assert any(p < 0 for p in report["pivots"])

    def test_relu_flags_out_of_range_pivot(self):
        table = build_invsqr("geometric:x1=1,xmax=10,n=8")
        sys = LinearSystem(
            f=Matrix([[100.0, 1.0], [1.0, 100.0]]), alpha=Matrix([[1.0], [1.0]])
        )
        _, report = solve(sys, mode="relu", table=table)
        assert any("pivot_out_of_table_range" in flag for flag in report["flags"])

    def test_singular_raises(self):
        singular = LinearSystem(
            f=Matrix([[1.0, 2.0], [1.0, 2.0]]), alpha=Matrix([[1.0], [1.0]])
        )
        with pytest.raises(PivotBelowTolerance):
            solve(singular)

    def test_exact_mode_names_a_pivot_whose_square_overflows(self):
        with pytest.raises(gauss.SingularDetected, match="forward step 1"):
            solve(HUGE_PIVOT, mode="exact")

    def test_relu_mode_flags_a_huge_pivot(self):
        _, report = solve(HUGE_PIVOT, mode="relu")
        assert "pivot_out_of_table_range:FE1:1e+160" in report["flags"]

    def test_pad_row_stays_zero_through_all_stages(self):
        rng = np.random.default_rng(6)
        sys = dd_system(rng, 6)
        state = embed_system(sys)
        for k in range(1, 6):
            state = forward_eliminate_step(state, k)
            assert np.all(state.p.array[6, :] == 0.0)
        for t in range(6, 0, -1):
            state = backward_substitute_step(state, t)
            assert np.all(state.p.array[6, :] == 0.0)


class TestShadowEquivalence:
    @pytest.mark.parametrize("mode", ["exact", "relu"])
    def test_componentwise_states_match_direct_arithmetic(self, mode):
        rng = np.random.default_rng(7)
        table = build_invsqr("geometric:x1=1e-2,xmax=1e2,n=128")
        for _ in range(5):
            m = int(rng.integers(2, 9))
            sys = dd_system(rng, m)
            state = embed_system(sys, mode=mode, table=table if mode == "relu" else None)
            shadow = state.p.to_array()
            for k in range(1, m):
                state = forward_eliminate_step(state, k)
                if mode == "exact":
                    shadow = shadow_forward_step(shadow, k)
                    scale = max(1.0, np.abs(shadow).max())
                    assert np.abs(state.p.array - shadow).max() <= 1e-12 * scale
            if mode == "relu":
                shadow = state.p.to_array()
            for t in range(m, 0, -1):
                state = backward_substitute_step(state, t)
                if mode == "exact":
                    shadow = shadow_backward_step(shadow, t)
                    scale = max(1.0, np.abs(shadow).max())
                    assert np.abs(state.p.array - shadow).max() <= 1e-12 * scale


class TestLiteralOracle:
    """Block evaluation against every module evaluated densely over the padded state."""

    @pytest.mark.parametrize("mode", ["exact", "relu"])
    @pytest.mark.parametrize("m", [2, 3, 9, 33, 64])
    def test_every_state_is_bitwise_the_dense_steps(self, m, mode):
        assert_states_match_literal(dd_system(np.random.default_rng([14, m]), m, signed=True), mode)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_signed_zero_inputs(self, data):
        # -0.0 in F and alpha: the dense products turn it into +0.0 everywhere.
        m = data.draw(st.integers(2, 12), label="m")
        entry = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))
        f = np.array(data.draw(st.lists(entry, min_size=m * m, max_size=m * m), label="F"))
        f = f.reshape(m, m)
        signs = np.array(data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=m,
                                            max_size=m), label="signs"))
        np.fill_diagonal(f, signs * (np.abs(f).sum(axis=1) - np.abs(np.diag(f)) + 1.0))
        alpha = np.array(data.draw(st.lists(entry, min_size=m, max_size=m), label="alpha"))
        mode = data.draw(st.sampled_from(["exact", "relu"]), label="mode")
        sys = LinearSystem(f=Matrix(f), alpha=Matrix.column(alpha))
        assert_states_match_literal(sys, mode)

    def test_no_product_or_component_spans_the_state(self, monkeypatch):
        # The dense path multiplied (m+1)x(m+1) matrices three times per module.
        # Every component runs through NetworkComponent.apply and every skip
        # through skip_product; z5 = z4 @ z3 multiplies two of their outputs.
        m = 40
        full = (m + 1, m + 1)
        products, components = [], []
        apply = netcomp.NetworkComponent.apply

        def record_product(a, b, side, gamma):
            products.append((a.shape, b.shape))
            return netcomp.skip_product(a, b, side, gamma)

        def record_component(comp, x):
            components.append((x.shape, comp.shape))
            return apply(comp, x)

        monkeypatch.setattr(gauss, "skip_product", record_product)
        monkeypatch.setattr(netcomp.NetworkComponent, "apply", record_component)
        for mode in ("exact", "relu"):
            solve(dd_system(np.random.default_rng(15), m, signed=True), mode=mode)
        assert len(products) == 2 * (2 * (m - 1) + 3 * m - 1)
        # No operand is the whole state, so no product has it on both sides.
        assert not [p for p in products if full in p]
        assert len(components) == 2 * (4 * (m - 1) + 4 * m + 2 * (m - 1))
        assert not [c for c in components if full in c]


class TestOverflow:
    @pytest.mark.parametrize("mode", ["exact", "relu"])
    @pytest.mark.parametrize("name", OVERFLOWS)
    def test_named_at_the_overflowing_module(self, name, mode):
        f, alpha, where = OVERFLOWS[name]
        sys = LinearSystem(f=Matrix(f), alpha=Matrix.column(alpha))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EliminationOverflow, match=f"^{where} overflows float64"):
                solve(sys, mode=mode)
        assert issubclass(EliminationOverflow, gauss.SingularDetected)


def with_negative_zeros(sys, rng):
    """sys with -0.0 in about 20% of the off-diagonal of F and 30% of alpha, and at (1, 2) and m."""
    f, alpha = sys.f.to_array(), sys.alpha.to_array()
    m = sys.m
    f[~np.eye(m, dtype=bool) & (rng.random((m, m)) < 0.2)] = -0.0
    alpha[rng.random((m, 1)) < 0.3] = -0.0
    f[0, 1] = alpha[-1, 0] = -0.0
    return LinearSystem(f=Matrix(f), alpha=Matrix(alpha))


def step_loop(sys, mode, forward, backward):
    """(solution, pivots) of a solve taken one step function at a time."""
    state = embed_system(sys, mode=mode)
    pivots = []
    for k in range(1, sys.m):
        pivots.append(state.p.get(k, k))
        state = forward(state, k)
    for t in range(sys.m, 0, -1):
        pivots.append(state.p.get(t, t))
        state = backward(state, t)
    return block_read(state.p, BlockSpec(1, sys.m, sys.m + 1, sys.m + 1)), pivots


class TestInPlaceKernels:
    """solve runs the modules in place on one buffer; the steps and the dense steps agree."""

    @pytest.mark.parametrize("negative_zeros", [False, True], ids=["plain", "negzero"])
    @pytest.mark.parametrize("mode", ["exact", "relu"])
    @pytest.mark.parametrize("m", [2, 3, 5, 9, 24])
    def test_solve_is_the_step_loop_and_the_literal_steps(self, m, mode, negative_zeros):
        rng = np.random.default_rng([15, m])
        sys = dd_system(rng, m, signed=True)
        if negative_zeros:
            sys = with_negative_zeros(sys, rng)
        assert_states_match_literal(sys, mode)
        x, report = solve(sys, mode=mode)
        for forward, backward in ((forward_eliminate_step, backward_substitute_step),
                                  (literal_forward_step, literal_backward_step)):
            want_x, want_pivots = step_loop(sys, mode, forward, backward)
            assert x.array.tobytes() == want_x.array.tobytes()
            assert np.array(report["pivots"]).tobytes() == np.array(want_pivots).tobytes()
        assert any(p < 0 for p in report["pivots"]) or m == 2
        reference = np.linalg.solve(sys.f.array, sys.alpha.array)
        want = {
            "mode": mode,
            "m": m,
            "residual_inf": float(np.max(np.abs(sys.f.array @ x.array - sys.alpha.array))),
            "rel_error_vs_oracle": float(
                np.max(np.abs(x.array - reference)) / max(1.0, np.max(np.abs(reference)))
            ),
            "pivots": report["pivots"],
            "flags": [],
        }
        assert json.dumps(report) == json.dumps(want)

    @pytest.mark.parametrize("mode", ["exact", "relu"])
    @pytest.mark.parametrize("name", OVERFLOWS)
    def test_overflow_changes_no_input(self, name, mode):
        f, alpha, where = OVERFLOWS[name]
        sys = LinearSystem(f=Matrix(f), alpha=Matrix.column(alpha))
        saved = sys.f.array.tobytes(), sys.alpha.array.tobytes()
        with pytest.raises(EliminationOverflow):
            solve(sys, mode=mode)
        assert (sys.f.array.tobytes(), sys.alpha.array.tobytes()) == saved
        state = embed_system(sys, mode=mode)
        steps = [(forward_eliminate_step, k) for k in range(1, sys.m)]
        steps += [(backward_substitute_step, t) for t in range(sys.m, 0, -1)]
        for run, i in steps:
            before = state.p.array.tobytes()
            try:
                state = run(state, i)
            except EliminationOverflow as exc:
                assert str(exc).startswith(where)
                assert state.p.array.tobytes() == before
                assert not state.p.array.flags.writeable
                break
        else:
            pytest.fail("no step overflowed")

    @pytest.mark.parametrize("mode", ["exact", "relu"])
    def test_steps_never_share_a_buffer(self, mode):
        sys = dd_system(np.random.default_rng(16), 6, signed=True)
        state = embed_system(sys, mode=mode)
        states = [state]
        for k in range(1, 6):
            states.append(forward_eliminate_step(states[-1], k))
        states.append(forward_eliminate_step(states[-1], 5))  # a column already eliminated
        for t in range(6, 0, -1):
            states.append(backward_substitute_step(states[-1], t))
        buffers = [s.p.array for s in states] + [sys.f.array, sys.alpha.array]
        for i, a in enumerate(buffers):
            assert not a.flags.writeable
            for b in buffers[i + 1 :]:
                assert not np.shares_memory(a, b)

    def test_default_relu_solves_share_one_divider(self):
        assert default_invsqr() is default_invsqr()
        sys = dd_system(np.random.default_rng(17), 4)
        solve(sys, mode="relu")
        before = gauss._pivot_divider.cache_info()
        solve(sys, mode="relu")
        after = gauss._pivot_divider.cache_info()
        assert after.misses == before.misses
        assert after.hits > before.hits


class TestDenseComponentEquivalence:
    """Solves are bitwise equal with every component evaluated densely."""

    @pytest.mark.parametrize("mode, m", [("relu", 24), ("exact", 16)])
    def test_solution_matches_dense_components(self, monkeypatch, mode, m):
        sys = dd_system(np.random.default_rng(8), m, signed=True)
        x_fast, _ = solve(sys, mode=mode)

        def dense(comp, x):
            return dense_component_forward(x, comp, invsqr_eval)

        monkeypatch.setattr(netcomp.NetworkComponent, "apply", dense)
        x_dense, _ = solve(sys, mode=mode)
        assert np.array_equal(x_fast.array, x_dense.array)

    @pytest.mark.parametrize("mode", ["relu", "exact"])
    def test_components_store_one_matrix(self, monkeypatch, mode):
        # Masks and dividers store only their mask V, the affine units
        # (gain +/-1) only their constant C; the rest are broadcast floats.
        seen = []
        apply = netcomp.NetworkComponent.apply

        def record(comp, x):
            seen.append(comp)
            return apply(comp, x)

        monkeypatch.setattr(netcomp.NetworkComponent, "apply", record)
        solve(dd_system(np.random.default_rng(9), 5, signed=True), mode=mode)
        assert "relu" in {comp.activation for comp in seen}
        for comp in seen:
            varying = comp.c[0] if comp.activation == "relu" else comp.v[0]
            params = comp.w + comp.v + comp.b + comp.c
            assert [p for p in params if isinstance(p, Matrix)] == [varying]


class TestRidgeBridge:
    def test_exact_matches_closed_form(self):
        rng = np.random.default_rng(8)
        x, y, u = random_ridge_arrays(rng, 10, 4)
        p = make_problem(Matrix.from_array(x), Matrix.from_array(y),
                         Matrix.from_array(u), 0.8, eta=0.1)
        w, pred = ridge_via_gauss(p, mode="exact")
        w_star = ridge_closed_form(p)
        rel = np.abs(w.array - w_star.array).max() / max(1.0, np.abs(w_star.array).max())
        assert rel <= 1e-10
        assert pred == pytest.approx(predict(w_star, p.u), rel=1e-9, abs=1e-12)

    def test_identity_design_recovers_targets(self):
        rng = np.random.default_rng(9)
        y = rng.uniform(-1, 1, size=(3, 1))
        p = make_problem(identity(3), Matrix.from_array(y), zeros(3, 1), 0.0, eta=0.5)
        w, _ = ridge_via_gauss(p, mode="exact")
        assert np.allclose(w.array, y, atol=1e-12)

    def test_relu_error_shrinks_with_refinement(self):
        rng = np.random.default_rng(10)
        x, y, u = random_ridge_arrays(rng, 12, 3)
        p = make_problem(Matrix.from_array(x), Matrix.from_array(y),
                         Matrix.from_array(u), 1.0, eta=0.1)
        w_star = ridge_closed_form(p).array
        errs = []
        for n in (64, 128, 256):
            table = build_invsqr(f"geometric:x1=1e-2,xmax=1e2,n={n}")
            w, _ = ridge_via_gauss(p, mode="relu", table=table)
            errs.append(np.abs(w.array - w_star).max() / max(1.0, np.abs(w_star).max()))
        assert errs[0] >= errs[1] >= errs[2]


class TestSystemJson:
    def test_round_trip(self):
        text = system_to_json(TWO_BY_TWO)
        sys = system_from_json(text)
        assert sys.f == TWO_BY_TWO.f and sys.alpha == TWO_BY_TWO.alpha
