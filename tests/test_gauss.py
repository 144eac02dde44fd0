"""Component-built elimination against hand values, a dense solver, and the shadow."""

import json
import threading
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

# Finite systems whose report overflows: the residual and the oracle gap
# (exact mode), or the gap alone.
REFERENCE_OVERFLOWS = {
    "residual": ([[1e154, 0.5], [-1e308, -1e154]], [-1e154, 0.5]),
    "gap": ([[1e154, -0.0, -1e154], [1e154, 3.0, -1e308], [-1e308, 1e-300, 0.5]],
            [1e300, -1e300, -1e154]),
}


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

# Systems that solve refuses, as (F, alpha): a zero pivot at the first and the
# last step, a pivot below tolerance after elimination at a forward and a
# backward step, and a pivot whose square overflows at each end (exact mode;
# relu division solves them).
REFUSED = {
    "zero_first": ([[0.0, 1.0], [1.0, 1.0]], [1.0, 0.0]),
    "zero_last": ([[1.0, -2.0], [0.0, 0.0]], [1.0, 1.0]),
    "tiny_forward": ([[1.0, 2.0, 0.0], [1.0, 2.0 + 1e-12, 1.0], [0.0, 1.0, 1.0]],
                     [1.0, 0.0, 1.0]),
    "tiny_backward": ([[1.0, 2.0], [1.0, 2.0 + 1e-11]], [0.0, 1.0]),
    "huge_first": ([[1e160, 0.0], [0.0, 1.0]], [1e160, 1.0]),
    "huge_last": ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1e160]], [1.0, 0.0, 1.0]),
}
# Forward step 1 adds -1e-200 * 1e-200, which the spread's outer product
# keeps as -0.0, to the -0.0 at (2, 2); the dense step leaves +0.0 there, and
# solve refuses that.
NEGATIVE_ZERO_PIVOT = ([[1.0, 1e-200, 0.0], [1e-200, -0.0, 1.0], [0.0, 1.0, 1.0]],
                       [1.0, 1.0, 1.0])

REUSE_SIZES = (2, 3, 24, 64)


def embedded(f, alpha, m):
    """F in the last rows and columns of I_m, alpha under ones: it fails as F does, later."""
    k = len(f)
    big, column = np.eye(m), np.ones((m, 1))
    big[m - k :, m - k :] = f
    column[m - k :, 0] = alpha
    return LinearSystem(f=Matrix.from_array(big), alpha=Matrix.from_array(column))


def reuse_sequence():
    """(system, mode) pairs that solve each size again after failures of that size.

    Two rounds over REUSE_SIZES, both modes: a signed dominant system, then
    REFUSED's tiny_backward (PivotBelowTolerance) and OVERFLOWS' pivot_2x2
    (EliminationOverflow), each embedded at the same size.
    """
    for seed in range(2):
        for m in REUSE_SIZES:
            for mode in ("exact", "relu"):
                yield dd_system(np.random.default_rng([seed, m, 32]), m, signed=True), mode
                yield embedded(*REFUSED["tiny_backward"], m), mode
                yield embedded(*OVERFLOWS["pivot_2x2"][:2], m), mode


def solve_outcome(sys, mode):
    """solve's solution bytes and JSON report, or its error's class name and message."""
    try:
        x, report = solve(sys, mode=mode)
    except gauss.SingularDetected as exc:
        return type(exc).__name__, str(exc)
    return x.array.tobytes(), json.dumps(report, sort_keys=True)


def record_kernels(monkeypatch):
    """Run both sweep kernels one index at a time; each index appends
    (kernel, index, check, error, finite after).

    error is the message of the SingularDetected the index raised, or None.
    """
    calls = []
    for kind in ("forward", "backward"):
        name = f"_{kind}_sweep"

        def run(w, indices, *args, check, _kernel=getattr(gauss, name), _kind=kind):
            outputs = []
            for i in indices:
                error = None
                try:
                    outputs.append(_kernel(w, (i,), *args, check=check))
                except gauss.SingularDetected as exc:
                    error = str(exc)
                    raise
                finally:
                    calls.append((_kind, i, check, error, bool(np.isfinite(w.p).all())))
            if _kind == "forward":  # (pivots, rs) per index
                return tuple(sum(lists, []) for lists in zip(*outputs))
            return sum(outputs, [])

        monkeypatch.setattr(gauss, name, run)
    return calls


def sweep_calls(m, check):
    """The (kernel, index, check) of each module of a solve, in order."""
    calls = [("forward", k, check) for k in range(1, m)]
    return calls + [("backward", t, check) for t in range(m, 0, -1)]


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

    def test_anti_mask_zero_weight_keeps_an_overflow(self):
        # Between knots 1e-100 and 1e100 the table's sigma(1e99) is ~9e199, so
        # z7 is finite but the scaled pivot z7 * 1e99 is not. The anti-mask
        # weighs it by 0 and gets NaN, so the step overflows, although every
        # other entry of the row is finite.
        table = build_invsqr("explicit:1e-100,1e100")
        sys = LinearSystem(f=Matrix([[1e99, 0.0], [0.0, 1e99]]),
                           alpha=Matrix([[1e-300], [1e-300]]))
        with pytest.raises(EliminationOverflow, match="^backward step 2 overflows float64"):
            solve(sys, mode="relu", table=table)

    @pytest.mark.parametrize("mode", ["exact", "relu"])
    def test_a_fold_overflow_comes_before_a_refused_pivot(self, mode):
        # Pivot 1 is below tolerance, and folding xi_2 = -1e300 through
        # F[1, 2] = 1e300 overflows column m+1: the step divides after its
        # fold, so the fold's error is the one raised.
        table = default_invsqr() if mode == "relu" else None
        p = Matrix([[1e-12, 1e300, 1.0], [0.0, 0.0, -1e300], [0.0, 0.0, 0.0]])
        state = gauss.EliminationState(p, ("backward", 2), table)
        with pytest.raises(EliminationOverflow) as raised:
            backward_substitute_step(state, 1)
        assert str(raised.value) == ("backward step 1 overflows float64 in rows 1..3, "
                                     "columns 3..3")


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

    def test_relu_flags_tag_each_out_of_range_pivot_by_its_step(self):
        # The pivots are forward steps 1..m-1, then backward steps m..1.
        m = 9
        sys = wide_pivot_system(np.random.default_rng([31, m]), m)
        _, report = solve(sys, mode="relu")
        lo, hi = default_invsqr().interior_knots[[0, -1]]
        tags = [f"FE{k}" for k in range(1, m)] + [f"BS{t}" for t in range(m, 0, -1)]
        want = [f"pivot_out_of_table_range:{tag}:{value!r}"
                for tag, value in zip(tags, report["pivots"]) if not lo <= abs(value) <= hi]
        assert [flag for flag in report["flags"] if flag.startswith("pivot_")] == want
        assert 0 < len(want) < 2 * m - 1
        assert any(":FE" in flag for flag in want) and any(":BS" in flag for flag in want)

    def test_singular_raises(self):
        singular = LinearSystem(
            f=Matrix([[1.0, 2.0], [1.0, 2.0]]), alpha=Matrix([[1.0], [1.0]])
        )
        with pytest.raises(PivotBelowTolerance):
            solve(singular)

    @pytest.mark.parametrize("mode", ["exact", "relu"])
    def test_zero_pivot_is_named_as_the_steps_name_it(self, mode):
        # Forward step 1 adds a zero product (0.0 times row 1) to the -0.0 at
        # (2, 2); solve names that pivot +0.0, as the dense step and the step
        # functions leave it.
        sys = LinearSystem(f=Matrix([[1.0, -2.0], [0.0, -0.0]]), alpha=Matrix([[1.0], [1.0]]))
        state = forward_eliminate_step(embed_system(sys, mode=mode), 1)
        with pytest.raises(PivotBelowTolerance) as stepped:
            backward_substitute_step(state, 2)
        with pytest.raises(PivotBelowTolerance, match="^pivot 0.000e") as solved:
            solve(sys, mode=mode)
        assert str(solved.value) == str(stepped.value)

    def test_exact_mode_names_a_pivot_whose_square_overflows(self):
        with pytest.raises(gauss.SingularDetected, match="forward step 1"):
            solve(HUGE_PIVOT, mode="exact")

    def test_relu_mode_flags_a_huge_pivot(self):
        _, report = solve(HUGE_PIVOT, mode="relu")
        assert "pivot_out_of_table_range:FE1:1e+160" in report["flags"]

    @pytest.mark.parametrize("name, mode", [("residual", "exact"), ("residual", "relu"),
                                            ("gap", "relu")])
    def test_overflowing_report_is_null_not_a_warning(self, name, mode):
        f, alpha = REFERENCE_OVERFLOWS[name]
        sys = LinearSystem(f=Matrix(f), alpha=Matrix.column(alpha))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, report = solve(sys, mode=mode)
        assert np.isfinite(x.array).all()
        assert report["rel_error_vs_oracle"] is None
        assert report["flags"][-1] == "reference_solve_failed"

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
        # The kernels write each module's products out on its blocks: the
        # forward spread on the rows below the pivot, the fold on column m+1
        # and the row scale on row t, seen here as the blocks a checked kernel,
        # run one index at a time, tests for overflow. The divider runs as its
        # component; the other components' views and the 0-d skips on the
        # pivot are written out in the kernels.
        m = 40
        full = (m + 1, m + 1)
        blocks, components = [], []
        call, finite = netcomp.NetworkComponent.__call__, gauss._finite

        def record_block(a):
            blocks.append(a.shape)
            return finite(a)

        def record_component(comp, x):
            components.append((x.shape, comp.shape, comp))
            return call(comp, x)

        systems = {mode: dd_system(np.random.default_rng(15), m, signed=True)
                   for mode in ("exact", "relu")}
        monkeypatch.setattr(netcomp.NetworkComponent, "__call__", record_component)
        for mode, sys in systems.items():
            solve(sys, mode=mode)
        monkeypatch.undo()
        monkeypatch.setattr(gauss, "_finite", record_block)
        for mode, sys in systems.items():
            state = embed_system(sys, mode=mode)
            w, rs = gauss._Workspace(state.p.to_array()), []
            with np.errstate(over="ignore", invalid="ignore"):
                for k in range(1, m):
                    rs += gauss._forward_sweep(w, (k,), state.table, check=True)[1]
                for t in range(m, 0, -1):
                    gauss._backward_sweep(w, (t,), state.table, rs, check=True)
        # Per mode: the fold m-1 times and the row scale m, each on m+1 entries.
        assert blocks.count((m + 1,)) == 2 * ((m - 1) + m)
        # Per mode: forward step k spreads over rows k+1..m, (m-k)x1 times 1x(m+1).
        assert [b for b in blocks if len(b) == 2] == 2 * [(m - k, m + 1) for k in range(1, m)]
        # No module writes the whole state.
        assert full not in blocks
        # Per mode: the divider once per pivot, the forward output reused.
        assert len(components) == 2 * m
        dividers = [gauss._pivot_divider(None)] * m + [gauss._pivot_divider(default_invsqr())] * m
        assert [c[2] for c in components] == dividers
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

    @pytest.mark.parametrize("block,overflows", [
        ([[1e308, 1e308]], False),
        ([[-1e308], [-1e308], [1.0]], False),
        ([[1.0, np.inf]], True),
        ([[-np.inf, 1.0]], True),
        ([[np.nan]], True),
        ([[1e308, 1e308, np.nan]], True),
    ])
    def test_update_raises_only_on_a_non_finite_entry(self, block, overflows):
        # The finite sum is a first test; a sum that overflows from finite
        # entries is decided entry by entry. Column 3 is zero below the pivot,
        # so forward step 3 adds a spread of +0.0 to rows 4.., and the entries
        # its check sees are block's and zeros.
        value = np.array(block)
        rows, cols = value.shape
        size = 4 + max(rows, cols)
        p = np.zeros((size, size))
        p[2, 2] = 1.0
        p[3 : 3 + rows, 3 : 3 + cols] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                if overflows:
                    with pytest.raises(EliminationOverflow,
                                       match="^forward step 3 overflows float64"):
                        gauss._forward_sweep(gauss._Workspace(p), (3,), None, check=True)
                else:
                    gauss._forward_sweep(gauss._Workspace(p), (3,), None, check=True)
                    assert p[3 : 3 + rows, 3 : 3 + cols].tobytes() == value.tobytes()


class TestCheckedReplay:
    """solve checks its finished state once and replays a failed sweep checked."""

    @pytest.mark.parametrize("mode", ["exact", "relu"])
    def test_a_finite_solve_runs_each_kernel_once_unchecked(self, mode, monkeypatch):
        m = 9
        calls = record_kernels(monkeypatch)
        solve(dd_system(np.random.default_rng([21, m]), m, signed=True), mode=mode)
        assert [c[:3] for c in calls] == sweep_calls(m, False)
        assert [c[3:] for c in calls] == [(None, True)] * (2 * m - 1)

    def test_an_overflowed_pivot_stops_the_unchecked_pass(self, monkeypatch):
        # pivot_2x2: forward step 1 makes pivot 2 -inf, which the backward
        # pivot check refuses; the replay names forward step 1.
        f, alpha, where = OVERFLOWS["pivot_2x2"]
        calls = record_kernels(monkeypatch)
        with pytest.raises(EliminationOverflow, match=f"^{where} overflows float64"):
            solve(LinearSystem(f=Matrix(f), alpha=Matrix.column(alpha)), mode="exact")
        assert calls[0] == ("forward", 1, False, None, False)
        assert calls[1][:3] == ("backward", 2, False)
        assert calls[1][3].startswith("pivot -inf at backward step 2 squares to inf")
        assert calls[2][:3] == ("forward", 1, True)
        assert calls[2][3].startswith(f"{where} overflows float64")
        assert len(calls) == 3

    @pytest.mark.parametrize("mode", ["exact", "relu"])
    @pytest.mark.parametrize("name", ["right_hand_side", "fold"])
    def test_a_non_finite_state_is_replayed_checked(self, name, mode, monkeypatch):
        f, alpha, where = OVERFLOWS[name]
        m = len(f)
        calls = record_kernels(monkeypatch)
        with pytest.raises(EliminationOverflow, match=f"^{where} overflows float64"):
            solve(LinearSystem(f=Matrix(f), alpha=Matrix.column(alpha)), mode=mode)
        unchecked, replay = calls[: 2 * m - 1], calls[2 * m - 1 :]
        assert [c[:3] for c in unchecked] == sweep_calls(m, False)
        assert [c[3] for c in unchecked] == [None] * (2 * m - 1)
        assert not unchecked[-1][4]
        assert [c[:3] for c in replay] == sweep_calls(m, True)[: len(replay)]
        assert replay[-1][3].startswith(f"{where} overflows float64")

    @pytest.mark.parametrize("mode", ["exact", "relu"])
    def test_a_skipped_zero_multiplier_still_replays(self, mode, monkeypatch):
        # Forward step 1 puts -inf at (3, 4), in pivot row m - 1; the last,
        # one-row spread multiplies that row by -0.0, which np.dot skips, so
        # row m stays finite where a multiply would put NaN at (4, 4). Row 3
        # stays non-finite, and the replay names forward step 1.
        f = [[1.0, 0.0, 0.0, 1e300], [0.0, 1.0, 0.0, 0.0], [1e300, 0.0, 1.0, 0.0],
             [0.0, 0.0, 0.0, 1.0]]
        sys = LinearSystem(f=Matrix(f), alpha=Matrix.column([1.0] * 4))
        state = embed_system(sys, mode=mode)
        p = state.p.to_array()
        with np.errstate(over="ignore", invalid="ignore"):
            gauss._forward_sweep(gauss._Workspace(p), range(1, 4), state.table, check=False)
        assert p[2, 3] == -np.inf and p[3, 2] == 0.0
        assert np.isfinite(p[3]).all()
        calls = record_kernels(monkeypatch)
        with pytest.raises(EliminationOverflow) as raised:
            solve(sys, mode=mode)
        assert str(raised.value) == "forward step 1 overflows float64 in rows 2..4, columns 1..5"
        assert [c[:3] for c in calls[:3]] == sweep_calls(4, False)[:3]
        assert calls[-1][:4] == ("forward", 1, True, str(raised.value))

    @pytest.mark.parametrize("name, mode", [
        (name, mode) for name in [*REFUSED, "negative_zero_pivot"] for mode in ("exact", "relu")
        if mode == "exact" or not name.startswith("huge")])
    def test_a_refused_pivot_is_named_as_the_step_loop_names_it(self, name, mode):
        f, alpha = REFUSED.get(name, NEGATIVE_ZERO_PIVOT)
        sys = LinearSystem(f=Matrix(f), alpha=Matrix.column(alpha))
        with pytest.raises(gauss.SingularDetected) as stepped:
            step_loop(sys, mode, forward_eliminate_step, backward_substitute_step)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(gauss.SingularDetected) as solved:
                solve(sys, mode=mode)
        assert type(solved.value) is type(stepped.value)
        assert str(solved.value) == str(stepped.value)
        assert "-0.000e" not in str(solved.value)


def wide_pivot_system(rng, m):
    """F = L U, L unit lower and U upper triangular, U's diagonal of signed 10**U(-5, 5)."""
    pivots = rng.choice([-1.0, 1.0], size=m) * 10.0 ** rng.uniform(-5.0, 5.0, size=m)
    lower = np.tril(rng.uniform(-1.0, 1.0, size=(m, m)), -1) + np.eye(m)
    upper = np.triu(rng.uniform(-1.0, 1.0, size=(m, m)), 1) + np.diag(pivots)
    return LinearSystem(f=Matrix(lower @ upper), alpha=Matrix(rng.uniform(-1.0, 1.0, (m, 1))))


def with_negative_zeros(sys, rng):
    """sys with -0.0 in about 20% of the off-diagonal of F and 30% of alpha, and at (1, 2) and m."""
    f, alpha = sys.f.to_array(), sys.alpha.to_array()
    m = sys.m
    f[~np.eye(m, dtype=bool) & (rng.random((m, m)) < 0.2)] = -0.0
    alpha[rng.random((m, 1)) < 0.3] = -0.0
    f[0, 1] = alpha[-1, 0] = -0.0
    return LinearSystem(f=Matrix(f), alpha=Matrix(alpha))


def underflow_system(rng, m):
    """A signed dominant system, off-diagonal entries scaled by 10**U(-200, -150).

    A product of two off-diagonal entries underflows. About 30% of the
    off-diagonal and alpha entries of rows 2..m are -0.0.
    """
    f, alpha = random_dd_system(rng, m, signed=True)
    off = ~np.eye(m, dtype=bool)
    f[off] *= 10.0 ** rng.uniform(-200.0, -150.0, size=m * m - m)
    f[1:][off[1:] & (rng.random((m - 1, m)) < 0.3)] = -0.0
    alpha[1:][rng.random((m - 1, 1)) < 0.3] = -0.0
    return LinearSystem(f=Matrix(f), alpha=Matrix(alpha))


def zero_multiplier_systems(rng, m):
    """A signed dominant system with zeros below its diagonal, then the same with -0.0.

    About 40% of the entries below the diagonal are zero, and with
    probability 1/2 all of row m's are, so that every spread onto row m,
    the one-row spread of the last forward step among them, has a zero
    multiplier. The second system holds -0.0 at those zeros and in about
    30% of alpha's entries.
    """
    f, alpha = random_dd_system(rng, m, signed=True)
    zero = np.tril(rng.random((m, m)) < 0.4, -1)
    if rng.random() < 0.5:
        zero[m - 1, : m - 1] = True
    f[zero] = 0.0
    signed_f, signed_alpha = f.copy(), alpha.copy()
    signed_f[zero] = -0.0
    signed_alpha[rng.random((m, 1)) < 0.3] = -0.0
    return (LinearSystem(f=Matrix(f), alpha=Matrix(alpha)),
            LinearSystem(f=Matrix(signed_f), alpha=Matrix(signed_alpha)))


def holds_negative_zero(a):
    return bool(np.any(np.signbit(a) & (a == 0.0)))


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

    @pytest.mark.parametrize("kind", ["plain", "negzero", "underflow", "zeros", "signed-zeros"])
    @pytest.mark.parametrize("mode", ["exact", "relu"])
    @pytest.mark.parametrize("m", [2, 3, 5, 9, 24, 64])
    def test_solve_is_the_step_loop_and_the_literal_steps(self, m, mode, kind):
        # In "underflow", forward spreads hold -0.0 where @ gives +0.0 (see
        # test_kernels_write_no_negative_zero), and solve keeps the dense bits.
        # In "zeros" and "signed-zeros", multiplier columns hold +-0.0, and
        # the last, one-row spread can multiply by zero, which np.dot skips.
        rng = np.random.default_rng([15, m])
        if kind == "underflow":
            sys = underflow_system(rng, m)
        elif kind.endswith("zeros"):
            sys = zero_multiplier_systems(rng, m)[kind == "signed-zeros"]
        else:
            sys = dd_system(rng, m, signed=True)
            if kind == "negzero":
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

    @pytest.mark.parametrize("kind", ["signed", "negzero", "wide"])
    @pytest.mark.parametrize("mode", ["exact", "relu"])
    @pytest.mark.parametrize("m", [2, 3, 9, 24])
    def test_each_pivot_is_divided_once(self, m, mode, kind, monkeypatch):
        # Backward step t < m reuses forward step t's 1/x: the pivot keeps its
        # bits from forward step t to backward step t.
        rng = np.random.default_rng([18, m])
        if kind == "wide":
            sys = wide_pivot_system(rng, m)
        else:
            sys = dd_system(rng, m, signed=True)
            if kind == "negzero":
                sys = with_negative_zeros(sys, rng)
        divides = []
        table = default_invsqr() if mode == "relu" else None
        divider, call = gauss._pivot_divider(table), netcomp.NetworkComponent.__call__

        def record(comp, x):
            if comp is divider:
                divides.append(x)
            return call(comp, x)

        monkeypatch.setattr(netcomp.NetworkComponent, "__call__", record)
        x, report = solve(sys, mode=mode)
        monkeypatch.undo()
        assert len(divides) == m
        pivots = report["pivots"]
        forward, backward = pivots[: m - 1], pivots[m - 1 :][::-1]
        assert np.array(forward).tobytes() == np.array(backward[: m - 1]).tobytes()
        want_x, want_pivots = step_loop(sys, mode, forward_eliminate_step,
                                        backward_substitute_step)
        assert x.array.tobytes() == want_x.array.tobytes()
        assert np.array(pivots).tobytes() == np.array(want_pivots).tobytes()

    @pytest.mark.parametrize("mode", ["exact", "relu"])
    @pytest.mark.parametrize("m", [2, 3, 9])
    def test_both_sweeps_divide_through_one_module(self, m, mode, monkeypatch):
        # solve divides pivots 1..m-1 in the forward sweep and only pivot m in
        # the backward one; the step loop divides each pivot in each step.
        sys = dd_system(np.random.default_rng([20, m]), m, signed=True)
        calls, divide_pivot = [], gauss._divide_pivot

        def record(divide, value, step, index):
            calls.append((step, index))
            return divide_pivot(divide, value, step, index)

        monkeypatch.setattr(gauss, "_divide_pivot", record)
        x, _ = solve(sys, mode=mode)
        forward = [("forward step", k) for k in range(1, m)]
        assert calls == forward + [("backward step", m)]
        calls.clear()
        want_x, _ = step_loop(sys, mode, forward_eliminate_step, backward_substitute_step)
        assert calls == forward + [("backward step", t) for t in range(m, 0, -1)]
        assert x.array.tobytes() == want_x.array.tobytes()

    @pytest.mark.parametrize("kind", ["negzero", "wide", "underflow"])
    @pytest.mark.parametrize("mode", ["exact", "relu"])
    @pytest.mark.parametrize("m", [2, 3, 9, 64])
    def test_kernels_write_no_negative_zero(self, m, mode, kind):
        # The forward kernel adds no + 0.0 after an update: x + y is -0.0 only
        # if both are. Its spread, np.dot's outer product, holds -0.0 where a
        # negative product underflows, and it is added to rows that hold
        # none. The backward kernel's fold and row scale are products with no
        # + 0.0, which may leave -0.0 on an entry whose value is zero, and
        # each backward call ends with one + 0.0 on the whole state, so no
        # call leaves one. The kernels run one index at a time on solve's
        # state; -0.0 + v is v, bit for bit, so a module run on a copy that
        # holds -0.0 on its block, but on the entries it reads, leaves there
        # the value it adds, with its sign cleared by the end of the call.
        rng = np.random.default_rng([19, m])
        if kind == "underflow":
            sys = underflow_system(rng, m)
        else:
            sys = wide_pivot_system(rng, m) if kind == "wide" else dd_system(rng, m, signed=True)
            sys = with_negative_zeros(sys, rng)
        state = embed_system(sys, mode=mode)
        p, rs = state.p.to_array(), []
        p[1:m] += 0.0  # as solve does
        w, values, underflows = gauss._Workspace(p), [], []
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, m):
                # The spread on rows k+1..m, but in column k, which z6 reads.
                probe = p.copy()
                probe[k:m, np.arange(m + 1) != k - 1] = -0.0
                gauss._forward_sweep(gauss._Workspace(probe), (k,), state.table, check=False)
                spread = np.delete(probe[k:m], k - 1, axis=1)
                values.append(("forward step", holds_negative_zero(spread)))
                # A -0.0 from a nonzero entry below pivot k times a nonzero
                # entry of row k is a negative product that underflowed, where
                # @ gives +0.0.
                nonzero = np.delete((p[k:m, k - 1 : k] != 0.0) & (p[k - 1 : k] != 0.0),
                                    k - 1, axis=1)
                underflows.append(bool(np.any(nonzero & (spread == 0.0) & np.signbit(spread))))
                rs += gauss._forward_sweep(w, (k,), state.table, check=False)[1]
                assert not holds_negative_zero(p[k:m]), f"rows below pivot {k}"
            for t in range(m, 0, -1):
                if t < m:
                    # The fold on column m+1, but in row t+1, which holds the
                    # xi it reads, and in row t, which the row scale rewrites.
                    probe = p.copy()
                    added = ~np.isin(np.arange(m + 1), (t - 1, t))
                    probe[added, m] = -0.0
                    gauss._backward_sweep(gauss._Workspace(probe), (t,), state.table, rs,
                                          check=False)
                    values.append(("backward step", holds_negative_zero(probe[added, m])))
                gauss._backward_sweep(w, (t,), state.table, rs, check=False)
                values.append(("backward step", holds_negative_zero(p[t - 1])))  # the scaled row
                # Column m+1 is rewritten by the fold, which runs for t < m.
                assert not holds_negative_zero(p[t - 1]), f"row {t}"
                assert t == m or not holds_negative_zero(p[:, m]), f"column m+1 at {t}"
        x, _ = solve(sys, mode=mode)
        assert p[:m, m:].tobytes() == x.array.tobytes()
        assert len(values) == 3 * m - 2
        assert not [step for step, negative in values if negative and step != "forward step"]
        # At m = 2 only one product of the spread pairs two off-diagonal entries.
        assert any(underflows) or kind != "underflow" or m == 2
        want_x, _ = step_loop(sys, mode, forward_eliminate_step, backward_substitute_step)
        assert x.array.tobytes() == want_x.array.tobytes()

    @pytest.mark.parametrize("kind", ["negzero", "wide", "underflow"])
    @pytest.mark.parametrize("mode", ["exact", "relu"])
    @pytest.mark.parametrize("m", [2, 3, 9, 64])
    def test_sweeps_end_in_the_step_loops_state(self, m, mode, kind):
        # Both kernels over all their indices on one workspace, as solve runs
        # them, end in the step loop's whole (m+1)-by-(m+1) state, not just
        # its x: the -0.0 a backward fold or row scale leaves on a zero is
        # cleared by the end of the call. The systems are
        # test_kernels_write_no_negative_zero's.
        rng = np.random.default_rng([19, m])
        if kind == "underflow":
            sys = underflow_system(rng, m)
        else:
            sys = wide_pivot_system(rng, m) if kind == "wide" else dd_system(rng, m, signed=True)
            sys = with_negative_zeros(sys, rng)
        state = embed_system(sys, mode=mode)
        p = state.p.to_array()
        p[1:m] += 0.0  # as solve does
        w = gauss._Workspace(p)
        with np.errstate(over="ignore", invalid="ignore"):
            _, rs = gauss._forward_sweep(w, range(1, m), state.table, check=False)
            gauss._backward_sweep(w, range(m, 0, -1), state.table, rs, check=False)
        for k in range(1, m):
            state = forward_eliminate_step(state, k)
        for t in range(m, 0, -1):
            state = backward_substitute_step(state, t)
        assert p.tobytes() == state.p.array.tobytes()
        assert not holds_negative_zero(p)

    @pytest.mark.parametrize("mode", ["exact", "relu"])
    def test_one_kernel_per_sweep(self, mode, monkeypatch):
        # A solve runs each sweep kernel once over all its indices, unchecked,
        # and a failing one replays both checked; a step function runs the
        # same kernel over its one index. No module calls skip_mul: each
        # writes its products out. The divider runs once per pivot in a solve
        # pass, and once per step in the step loop, where each step divides.
        m = 9
        sys = dd_system(np.random.default_rng([22, m]), m, signed=True)
        f, alpha, _ = OVERFLOWS["fold"]  # overflows at backward step 1
        failing = LinearSystem(f=Matrix(f), alpha=Matrix.column(alpha))
        calls, products, divides = [], [], []
        for kind in ("forward", "backward"):
            name = f"_{kind}_sweep"

            def run(p, indices, *args, check, _kernel=getattr(gauss, name), _kind=kind):
                calls.append((_kind, tuple(indices), check))
                return _kernel(p, indices, *args, check=check)

            monkeypatch.setattr(gauss, name, run)
        product, call = netcomp.skip_mul, netcomp.NetworkComponent.__call__
        divider = gauss._pivot_divider(default_invsqr() if mode == "relu" else None)

        def record_product(*args, **kwargs):
            products.append(args)
            return product(*args, **kwargs)

        def record_call(comp, x):
            if comp is divider:
                divides.append(x)
            return call(comp, x)

        monkeypatch.setattr(netcomp, "skip_mul", record_product)
        monkeypatch.setattr(gauss, "skip_mul", record_product, raising=False)
        monkeypatch.setattr(netcomp.NetworkComponent, "__call__", record_call)
        solve(sys, mode=mode)
        assert calls == [("forward", tuple(range(1, m)), False),
                         ("backward", tuple(range(m, 0, -1)), False)]
        assert len(divides) == m
        calls.clear()
        divides.clear()
        with pytest.raises(EliminationOverflow, match="^backward step 1 overflows float64"):
            solve(failing, mode=mode)
        assert calls == [("forward", (1,), False), ("backward", (2, 1), False),
                         ("forward", (1,), True), ("backward", (2, 1), True)]
        assert len(divides) == 2 * 2
        calls.clear()
        divides.clear()
        step_loop(sys, mode, forward_eliminate_step, backward_substitute_step)
        assert calls == ([("forward", (k,), True) for k in range(1, m)]
                         + [("backward", (t,), True) for t in range(m, 0, -1)])
        assert len(divides) == 2 * m - 1
        assert products == []

    def test_default_relu_solves_share_one_divider(self):
        assert default_invsqr() is default_invsqr()
        sys = dd_system(np.random.default_rng(17), 4)
        solve(sys, mode="relu")
        before = gauss._pivot_divider.cache_info()
        solve(sys, mode="relu")
        after = gauss._pivot_divider.cache_info()
        assert after.misses == before.misses
        assert after.hits > before.hits


class TestWorkspace:
    """solve and the step functions run on pooled per-size workspaces."""

    def test_a_reused_workspace_solves_as_a_fresh_one(self, monkeypatch):
        # Each size's workspace is taken again after failing solves of that
        # size left a refused pivot's state, or inf and NaN, in it.
        fresh = []
        for sys, mode in reuse_sequence():
            gauss._WORKSPACES.clear()
            fresh.append(solve_outcome(sys, mode))
        gauss._WORKSPACES.clear()
        taken, take = [], gauss._take

        def record(m):
            taken.append(take(m))
            return taken[-1]

        monkeypatch.setattr(gauss, "_take", record)
        assert [solve_outcome(sys, mode) for sys, mode in reuse_sequence()] == fresh
        # One workspace per solve, its checked replay included, and one per size.
        assert len(taken) == len(fresh)
        assert len({id(w) for w in taken}) == len(REUSE_SIZES)

    @pytest.mark.parametrize("mode", ["exact", "relu"])
    def test_a_step_after_a_failed_solve(self, mode):
        # A step function takes the pooled workspace of its size, and its
        # state shares no memory with it.
        m = 24
        sys = dd_system(np.random.default_rng([2, m, 32]), m, signed=True)
        gauss._WORKSPACES.clear()
        want = step_loop(sys, mode, forward_eliminate_step, backward_substitute_step)
        with pytest.raises(EliminationOverflow):
            solve(embedded(*OVERFLOWS["pivot_2x2"][:2], m), mode=mode)
        workspace = gauss._WORKSPACES[m]
        state = forward_eliminate_step(embed_system(sys, mode=mode), 1)
        assert gauss._WORKSPACES[m] is workspace
        assert not np.shares_memory(state.p.array, workspace.p)
        x, pivots = step_loop(sys, mode, forward_eliminate_step, backward_substitute_step)
        assert x.array.tobytes() == want[0].array.tobytes()
        assert np.array(pivots).tobytes() == np.array(want[1]).tobytes()

    def test_concurrent_solves_hold_distinct_workspaces(self, monkeypatch):
        m, count = 24, 20
        systems = [[dd_system(np.random.default_rng([i, j, 33]), m, signed=True)
                    for j in range(count)] for i in range(2)]
        modes = ("exact", "relu")
        serial = [[solve_outcome(sys, modes[j % 2]) for j, sys in enumerate(row)]
                  for row in systems]
        take, give = gauss._take, gauss._give
        lock, held, clashes, most = threading.Lock(), set(), [], [0]
        # Each solve waits, holding its workspace, for the other thread's to
        # hold one: the threads solve in pairs, each pair at once.
        both = threading.Barrier(2, timeout=60)

        def record_take(size):
            w = take(size)
            with lock:
                if id(w) in held:
                    clashes.append(id(w))
                held.add(id(w))
                most[0] = max(most[0], len(held))
            both.wait()
            return w

        def record_give(w):
            with lock:
                held.discard(id(w))
            give(w)

        monkeypatch.setattr(gauss, "_take", record_take)
        monkeypatch.setattr(gauss, "_give", record_give)
        results = [None, None]

        def run(i):
            results[i] = [solve_outcome(sys, modes[j % 2]) for j, sys in enumerate(systems[i])]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == serial
        assert clashes == []
        assert most[0] == 2

    def test_the_pool_keeps_one_idle_workspace_per_size_and_eight_sizes(self):
        gauss._WORKSPACES.clear()
        sizes = list(range(2, 14))
        for m in sizes:
            solve(dd_system(np.random.default_rng([m, 34]), m), mode="exact")
        assert list(gauss._WORKSPACES) == sizes[-8:]
        for m, w in gauss._WORKSPACES.items():
            assert isinstance(w, gauss._Workspace) and w.p.shape == (m + 1, m + 1)
        first, second = gauss._take(5), gauss._take(5)
        assert first is not second
        gauss._give(first)
        gauss._give(second)
        assert gauss._WORKSPACES[5] is second
        assert list(gauss._WORKSPACES) == sizes[-7:] + [5]  # size 6, the oldest, is dropped


class TestDenseComponentEquivalence:
    """Solves are bitwise equal with the divider evaluated densely.

    The divider is the one component a solve calls, once per pivot, so the
    hooks replace or record NetworkComponent.__call__ on it alone. The
    kernels write the other components' views out; TestLiteralOracle and
    test_solve_is_the_step_loop_and_the_literal_steps check those against
    the dense modules.
    """

    @pytest.mark.parametrize("mode, m", [("relu", 24), ("exact", 16)])
    def test_solution_matches_dense_components(self, monkeypatch, mode, m):
        sys = dd_system(np.random.default_rng(8), m, signed=True)
        x_fast, _ = solve(sys, mode=mode)

        def dense(comp, x):
            return dense_component_forward(x, comp, invsqr_eval)

        monkeypatch.setattr(netcomp.NetworkComponent, "__call__", dense)
        x_dense, _ = solve(sys, mode=mode)
        assert np.array_equal(x_fast.array, x_dense.array)

    @pytest.mark.parametrize("mode", ["relu", "exact"])
    def test_components_store_one_matrix(self, monkeypatch, mode):
        # On its block every mask and divider keeps all entries and every
        # affine unit (gain +/-1) adds zero, so a solve runs components of
        # broadcast floats alone: none stores a Matrix, and none has a shape.
        # The one it calls is the divider, once per pivot.
        seen = []
        call = netcomp.NetworkComponent.__call__

        def record(comp, x):
            seen.append(comp)
            return call(comp, x)

        monkeypatch.setattr(netcomp.NetworkComponent, "__call__", record)
        solve(dd_system(np.random.default_rng(9), 5, signed=True), mode=mode)
        assert seen == [gauss._pivot_divider(default_invsqr() if mode == "relu" else None)] * 5
        for comp in seen:
            params = comp.w + comp.v + comp.b + comp.c
            assert not [p for p in params if isinstance(p, Matrix)]
            assert comp.shape is None


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
