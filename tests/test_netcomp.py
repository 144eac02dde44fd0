"""Network components, skip combinators, weighted sums, and the division table."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elsakit import gauss, netcomp
from elsakit import (
    BadKnotSpec,
    DEFAULT_KNOT_SPEC,
    BlockSpec,
    DimensionMismatch,
    MaskSpec,
    Matrix,
    NetworkComponent,
    ShapeMismatch,
    approx_reciprocal,
    build_invsqr,
    component_forward,
    default_invsqr,
    hadamard,
    identity,
    invsqr_eval,
    make_affine_component,
    make_divider_component,
    make_mask_component,
    mask_matrix,
    ones,
    scale,
    skip_mul,
    zeros,
)
from oracles import dense_component_forward, literal_invsqr_sum, piecewise_invsqr


def rand(rng, m, n):
    return Matrix.from_array(rng.uniform(-2.0, 2.0, size=(m, n)))


class TestComponentForward:
    def test_affine_identity_instance(self):
        rng = np.random.default_rng(0)
        x = rand(rng, 3, 4)
        comp = make_affine_component(ones(3, 4), zeros(3, 4))
        got = component_forward(x, comp).array
        # relu(x) - relu(-x) recovers x pointwise, negatives included.
        assert np.array_equal(got, np.maximum(0, x.array) - np.maximum(0, -x.array))
        assert np.array_equal(got, x.array)

    def test_zero_gain_gives_constant(self):
        rng = np.random.default_rng(1)
        x = rand(rng, 2, 3)
        c = rand(rng, 2, 3)
        comp = make_affine_component(zeros(2, 3), c)
        assert component_forward(x, comp) == c

    def test_mask_instance_is_hadamard(self):
        rng = np.random.default_rng(2)
        x = rand(rng, 4, 5)
        spec = MaskSpec(BlockSpec(2, 3, 1, 4), 4, 5)
        got = component_forward(x, make_mask_component(spec))
        assert got == hadamard(mask_matrix(spec), x)

    def test_anti_mask_instance(self):
        rng = np.random.default_rng(3)
        x = rand(rng, 3, 3)
        spec = MaskSpec(BlockSpec(1, 1, 1, 1), 3, 3, anti=True)
        got = component_forward(x, make_mask_component(spec))
        assert got == hadamard(mask_matrix(spec), x)

    def test_shape_guard(self):
        comp = make_affine_component(ones(2, 2), zeros(2, 2))
        with pytest.raises(Exception):
            component_forward(zeros(3, 3), comp)

    def test_head_stack_validation(self):
        with pytest.raises(Exception):
            NetworkComponent(w=(), v=(), b=(), c=(), activation="relu")
        with pytest.raises(ValueError):
            NetworkComponent(
                w=(ones(1, 1),), v=(ones(1, 1),), b=(zeros(1, 1),), c=(zeros(1, 1),),
                activation="softmax",
            )
        with pytest.raises(ValueError):
            NetworkComponent(
                w=(ones(1, 1),), v=(ones(1, 1),), b=(zeros(1, 1),), c=(zeros(1, 1),),
                activation="invsqr",
            )


class TestAffineComponent:
    def test_negation_plus_identity(self):
        # The -X + I form used between the multiplier and the final product.
        x = Matrix([[0.25, 0.0], [1.5, -2.0]])
        comp = make_affine_component(scale(ones(2, 2), -1.0), identity(2))
        assert component_forward(x, comp) == Matrix([[0.75, 0.0], [-1.5, 3.0]])

    def test_negative_scalar_passthrough(self):
        comp = make_affine_component(ones(1, 1), zeros(1, 1))
        assert component_forward(Matrix([[-2.0]]), comp) == Matrix([[-2.0]])

    def test_exactness_on_random_grids(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m, n = rng.integers(1, 7, size=2)
            x = rand(rng, m, n)
            gamma = rand(rng, m, n)
            c = rand(rng, m, n)
            got = component_forward(x, make_affine_component(gamma, c)).array
            assert np.abs(got - (gamma.array * x.array + c.array)).max() <= 1e-14


class TestSkipConnections:
    def test_mul_left_with_identity_module(self):
        rng = np.random.default_rng(9)
        a = rand(rng, 3, 4)
        assert skip_mul(identity(3), a, side="left", gamma=1) == a
        assert skip_mul(identity(3), a, side="left", gamma=-1) == scale(a, -1.0)

    def test_mul_composes_pivot_reciprocal(self):
        # Masked pivot times its inverse square, negated: the multiplier column seed.
        z1 = Matrix([[2.0, 0.0], [0.0, 0.0]])
        z2 = Matrix([[0.25, 0.0], [0.0, 0.0]])
        z3 = skip_mul(z2, z1, side="right", gamma=-1)
        assert z3 == Matrix([[-0.5, 0.0], [0.0, 0.0]])

    def test_gamma_validation(self):
        # The shape is checked first, then gamma, then side.
        with pytest.raises(DimensionMismatch, match=r"^cannot multiply \(1, 2\) by \(1, 2\)$"):
            skip_mul(zeros(1, 2), zeros(1, 2), side="middle", gamma=3)
        with pytest.raises(ValueError, match=r"^gamma must be -1 or \+1$"):
            skip_mul(zeros(1, 1), zeros(1, 1), side="middle", gamma=3)
        with pytest.raises(ValueError, match="^side must be 'left' or 'right', got 'middle'$"):
            skip_mul(zeros(1, 1), zeros(1, 1), side="middle", gamma=1)

    @pytest.mark.parametrize("gamma", [1, -1])
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("scalar", ["m", "a", "both"])
    def test_a_0d_operand_is_the_1x1_product_bitwise(self, scalar, side, gamma):
        # The elimination kernels' forms of a product with inner dimension 1
        # (see gauss._forward_sweep) against the 1x1 @ form, over every pair
        # of these values (0 * inf and NaN included); bytes hold the sign of
        # zero and the NaN bits. Two scalars ("both") run gamma * (r * z + 0.0)
        # on Python floats. A scalar s against the other operand, all the
        # values as the column left of the product or the row right of it,
        # runs np.add(np.multiply(v, s), gauss._ZERO) with s a 0-d buffer.
        values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 5e-324, 1.5, -2.0])
        other_on_left = (scalar == "a") == (side == "left")
        others = values if scalar == "both" else [
            values[:, None] if other_on_left else values[None, :]]
        buffer = np.zeros(())

        def as_1x1(x):
            return np.array([[x]]) if np.ndim(x) == 0 else x

        for s in values:
            for other in others:
                m, a = (other, s) if scalar == "a" else (s, other)
                left, right = (m, a) if side == "left" else (a, m)
                with np.errstate(over="ignore", invalid="ignore"):
                    if scalar == "both":
                        got = np.float64(gamma * (float(left) * float(right) + 0.0))
                    else:
                        buffer[()] = s
                        operands = (left, buffer) if other_on_left else (buffer, right)
                        got = np.add(np.multiply(*operands), gauss._ZERO)
                        got = got if gamma == 1 else -1.0 * got
                    want = as_1x1(left) @ as_1x1(right)
                    want = want if gamma == 1 else -1.0 * want
                assert got.shape == (() if scalar == "both" else want.shape)
                assert got.tobytes() == want.tobytes()


class TestBuildInvsqr:
    def test_two_point_table(self):
        t = build_invsqr([1.0, 2.0])
        assert t.knots.tolist() == [1.0, 2.0, 4.0]
        assert t.values.tolist() == [1.0, 0.25, 0.0]

    def test_geometric_spec(self):
        t = build_invsqr("geometric:x1=1e-2,xmax=1e2,n=64")
        assert t.interior_knots.size == 65
        assert t.interior_knots[0] == pytest.approx(1e-2)
        assert t.interior_knots[-1] == pytest.approx(1e2)
        assert np.all(np.diff(t.values) < 0)

    def test_bad_specs_rejected(self):
        with pytest.raises(BadKnotSpec):
            build_invsqr([2.0, 1.0])
        with pytest.raises(BadKnotSpec):
            build_invsqr([1.0])
        with pytest.raises(BadKnotSpec):
            build_invsqr([-1.0, 2.0])
        with pytest.raises(BadKnotSpec):
            build_invsqr("geometric:x1=1,n=4")
        with pytest.raises(BadKnotSpec):
            build_invsqr("quadratic:x1=1,xmax=2,n=4")

    @pytest.mark.parametrize("interior", [
        [1.0, np.nan, 3.0],
        [1.0, 2.0, np.inf],
        [np.inf, np.inf],  # inf - inf is NaN
        [1e-200, 1e-100],  # 1/x^2 overflows to inf
        [1e300, 1e308],  # the cutoff knot overflows to inf
    ], ids=["nan", "inf", "two_inf", "value_overflow", "cutoff_overflow"])
    def test_non_finite_tables_rejected(self, interior):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadKnotSpec, match="finite"):
                build_invsqr(interior)

    @pytest.mark.parametrize("kind", ["geometric", "explicit", "sequence"])
    def test_knot_count_is_capped(self, kind):
        cap = netcomp.MAX_KNOTS

        def spec(intervals):
            if kind == "geometric":
                return f"geometric:x1=1,xmax=2,n={intervals}"
            knots = [1.0 + i for i in range(intervals + 1)]
            return "explicit:" + ",".join(map(str, knots)) if kind == "explicit" else knots

        assert build_invsqr(spec(cap)).slopes.size == cap + 1  # the cutoff adds one
        with pytest.raises(BadKnotSpec, match="MAX_KNOTS"):
            build_invsqr(spec(cap + 1))

    @pytest.mark.parametrize("spec", [
        "geometric:x1=1,xmax=2,n=1000000000",
        "explicit:" + "1," * 10**5 + "2",  # parsing it would take ~4 MiB
    ], ids=["geometric", "explicit"])
    def test_huge_specs_fail_before_allocating(self, spec):
        tracemalloc.start()
        try:
            with pytest.raises(BadKnotSpec, match="MAX_KNOTS"):
                build_invsqr(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_table_itself_checks_finiteness(self):
        with pytest.raises(BadKnotSpec, match="finite"):
            netcomp.PiecewiseInvSqr(knots=np.array([1.0, np.nan, 3.0]),
                                    values=np.array([1.0, 0.5, 0.0]))


class TestInvsqrEval:
    def test_frozen_small_table_values(self):
        t = build_invsqr([1.0, 2.0])
        assert invsqr_eval(t, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert invsqr_eval(t, -2.0) == pytest.approx(0.25, abs=1e-15)
        assert invsqr_eval(t, 1.5) == pytest.approx(0.625, abs=1e-15)

    def test_flat_cap_inside_first_knot(self):
        t = build_invsqr([1.0, 2.0, 4.0])
        for x in (0.0, 0.3, -0.9, 1.0, -1.0):
            assert invsqr_eval(t, x) == pytest.approx(1.0, abs=1e-12)

    def test_zero_beyond_cutoff(self):
        t = build_invsqr([1.0, 2.0])
        assert invsqr_eval(t, 10.0 * t.cutoff) == 0.0
        assert invsqr_eval(t, -10.0 * t.cutoff) == 0.0

    def test_knot_consistency(self):
        for spec in ("geometric:x1=1e-2,xmax=1e2,n=64",
                     "geometric:x1=0.5,xmax=50,n=32",
                     "explicit:1,2,4,8"):
            t = build_invsqr(spec)
            got = invsqr_eval(t, t.interior_knots)
            want = 1.0 / t.interior_knots**2
            assert np.abs((got - want) / want).max() <= 1e-9

    def test_even_symmetry(self):
        # O(1)-scaled table: the paired-ReLU sum telescopes cleanly in float64.
        t = build_invsqr("geometric:x1=1,xmax=100,n=128")
        xs = np.linspace(0.0, 2.0 * t.cutoff, 4001)
        left = invsqr_eval(t, -xs)
        right = invsqr_eval(t, xs)
        assert np.abs(left - right).max() <= 1e-12

    def test_relu_sum_matches_closed_form(self):
        rng = np.random.default_rng(10)
        t = build_invsqr("geometric:x1=1,xmax=100,n=128")
        xs = rng.uniform(-2.0 * t.cutoff, 2.0 * t.cutoff, size=10_000)
        got = invsqr_eval(t, xs)
        want = piecewise_invsqr(t.knots, t.values, xs)
        assert np.abs(got - want).max() <= 1e-10

    def test_relu_sum_noise_scales_with_table_on_wide_grid(self):
        # The steep default table (values up to 1e4) cannot telescope below
        # float64 cancellation far from the support; the deviation must still
        # be negligible relative to the value scale.
        rng = np.random.default_rng(12)
        t = default_invsqr()
        xs = rng.uniform(-2.0 * t.cutoff, 2.0 * t.cutoff, size=10_000)
        got = invsqr_eval(t, xs)
        want = piecewise_invsqr(t.knots, t.values, xs)
        assert np.abs(got - want).max() <= 1e-10 * float(t.values[0])

    def test_chunked_sum_is_bitwise_one_block(self):
        # Each point's paired-ReLU row is summed on its own, so splitting the
        # points into blocks must not change a bit.
        rng = np.random.default_rng(13)
        t = default_invsqr()
        xs = rng.normal(scale=50.0, size=3 * netcomp.INVSQR_CHUNK + 5)
        one_block = literal_invsqr_sum(t, xs)
        assert np.array_equal(invsqr_eval(t, xs), one_block)
        grid = xs[:-5].reshape(3, -1)
        assert np.array_equal(invsqr_eval(t, grid), one_block[:-5].reshape(3, -1))

    def test_memory_stays_bounded(self):
        t = default_invsqr()
        xs = np.linspace(-2.0 * t.cutoff, 2.0 * t.cutoff, 100_000)
        tracemalloc.start()
        try:
            invsqr_eval(t, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_one_block_is_live_at_a_time(self):
        # A block of INVSQR_CHUNK = 64 points on 4,097 intervals is 4 * 64 * 4097 * 8 B, about
        # 8 MiB; 1,001 points make 16 blocks, and holding two at once would peak at 16 MiB.
        t = build_invsqr(f"geometric:x1=1e-2,xmax=1e2,n={netcomp.MAX_KNOTS}")
        _ = t.knot_stack, t.slopes  # the table's own arrays, made before tracing starts
        xs = np.linspace(-2.0 * t.cutoff, 2.0 * t.cutoff, 1001)
        tracemalloc.start()
        try:
            invsqr_eval(t, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


INVSQR_TABLES = {
    "n1": "geometric:x1=1e-2,xmax=1e2,n=1",
    "n128": DEFAULT_KNOT_SPEC,
    "n300": "geometric:x1=1e-2,xmax=1e2,n=300",
    "explicit_1_2": "explicit:1,2",
}
# A valid table whose last slope, -1e-308 / 1e308, underflows to -0.0.
UNDERFLOWED_SLOPE_SPEC = "explicit:1,1e154"
EXTREME_POINTS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e308, -1e308, 1e300,
                  np.finfo(np.float64).max, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-3, 0.37, -1e5]


def literal_points(table, size, seed=0):
    """size points: the extremes, knots and their negatives, then seeded draws over many scales."""
    rng = np.random.default_rng(seed)
    draws = rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(-6.0, 6.0, size=size)
    return np.concatenate([EXTREME_POINTS, table.knots, -table.knots, draws])[:size]


class TestStackedSumIsLiteral:
    """invsqr_eval's stacked, blocked sum is the four-term literal sum, byte for byte."""

    @pytest.mark.parametrize("spec", INVSQR_TABLES.values(), ids=INVSQR_TABLES)
    def test_knot_stack_is_read_only(self, spec):
        t = build_invsqr(spec)
        hi, lo = t.knots[1:], t.knots[:-1]
        assert t.knot_stack.shape == (4, 1, hi.size)
        assert t.knot_stack.tobytes() == np.stack([hi, lo, -hi, -lo]).tobytes()
        assert t.knot_stack is t.knot_stack and not t.knot_stack.flags.writeable

    @pytest.mark.parametrize("spec", INVSQR_TABLES.values(), ids=INVSQR_TABLES)
    def test_scalars(self, spec):
        t = build_invsqr(spec)
        with np.errstate(all="ignore"):
            for v in literal_points(t, 400):
                want = literal_invsqr_sum(t, np.float64(v))
                for x in (np.float64(v), np.array(v), float(v)):
                    got = invsqr_eval(t, x)
                    assert type(got) is np.float64
                    assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None, database=None)
    @given(name=st.sampled_from(sorted(INVSQR_TABLES)), x=st.floats(allow_nan=True))
    def test_any_float(self, name, x):
        t = build_invsqr(INVSQR_TABLES[name])
        with np.errstate(all="ignore"):
            got, want = invsqr_eval(t, x), literal_invsqr_sum(t, x)
        assert type(got) is np.float64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", INVSQR_TABLES.values(), ids=INVSQR_TABLES)
    def test_arrays_across_block_edges(self, spec):
        t = build_invsqr(spec)
        chunk = netcomp.INVSQR_CHUNK
        points = literal_points(t, 3 * chunk + 5, seed=1)
        with np.errstate(all="ignore"):
            for size in (0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
                got = invsqr_eval(t, points[:size])
                assert got.shape == (size,)
                assert got.tobytes() == literal_invsqr_sum(t, points[:size]).tobytes()
            grid = points[: 3 * chunk].reshape(6, -1).T  # 2-D and not contiguous
            got = invsqr_eval(t, grid)
            assert got.shape == grid.shape
            assert got.tobytes() == literal_invsqr_sum(t, grid).tobytes()


class TestApproxReciprocal:
    def test_exact_at_knots(self):
        t = build_invsqr([1.0, 2.0, 4.0])
        assert approx_reciprocal(t, 2.0) == 0.5
        assert approx_reciprocal(t, -4.0) == -0.25

    def test_zero_input_is_graceful(self):
        t = build_invsqr([1.0, 2.0])
        assert approx_reciprocal(t, 0.0) == 0.0

    def test_odd_at_knots(self):
        t = build_invsqr("geometric:x1=1,xmax=10,n=16")
        for x in t.interior_knots:
            lhs = approx_reciprocal(t, -x)
            rhs = -approx_reciprocal(t, x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_refinement_reduces_error(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(1e-2, 1e2, size=2000)
        errs = []
        for n in (64, 128, 256):
            t = build_invsqr(f"geometric:x1=1e-2,xmax=1e2,n={n}")
            rel = np.abs(approx_reciprocal(t, xs) - 1.0 / xs) * xs
            errs.append(rel.max())
        assert errs[0] >= errs[1] >= errs[2]


class TestDividerComponent:
    def test_masked_exact_reciprocal_square(self):
        x = Matrix([[4.0, 7.0], [3.0, 0.0]])
        comp = make_divider_component(MaskSpec(BlockSpec(1, 1, 1, 1), 2, 2), None)
        got = component_forward(x, comp)
        assert got == Matrix([[0.0625, 0.0], [0.0, 0.0]])

    def test_masked_table_reciprocal_square(self):
        t = build_invsqr([1.0, 2.0, 4.0])
        x = Matrix([[2.0, 9.0], [1.0, 5.0]])
        comp = make_divider_component(MaskSpec(BlockSpec(1, 1, 1, 1), 2, 2), t)
        got = component_forward(x, comp)
        assert got == Matrix([[0.25, 0.0], [0.0, 0.0]])

    def test_exact_divider_ignores_masked_out_tiny_entry(self):
        # 1/(1e-200)^2 overflows to inf; evaluated densely, 0 * inf would put
        # NaN at (3, 2) although the mask drops that entry.
        x = Matrix([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1e-200, 0.0]])
        comp = make_divider_component(MaskSpec(BlockSpec(1, 1, 1, 1), 3, 3), None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = component_forward(x, comp)
        assert got == Matrix([[0.25, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


DIVIDER_MASKS = {
    "single_entry": MaskSpec(BlockSpec(3, 3, 2, 2), 5, 6),
    "column_block": MaskSpec(BlockSpec(2, 5, 4, 4), 5, 6),
    "anti_mask": MaskSpec(BlockSpec(3, 3, 2, 2), 5, 6, anti=True),
    "all_ones": MaskSpec(BlockSpec(1, 5, 1, 6), 5, 6),
}


def literal_forward(x, comp):
    return dense_component_forward(x.array, comp, invsqr_eval)


class TestDividerMatchesDenseOracle:
    """The mask-only 1/x^2 evaluation is bitwise the dense literal sum."""

    @pytest.mark.parametrize("exact", [True, False], ids=["invsqr_exact", "invsqr"])
    @pytest.mark.parametrize("mask", DIVIDER_MASKS, ids=str)
    def test_divider_component(self, mask, exact):
        rng = np.random.default_rng(14)
        spec = DIVIDER_MASKS[mask]
        comp = make_divider_component(spec, None if exact else default_invsqr())
        for _ in range(5):
            x = rng.normal(scale=10.0, size=(5, 6)) * rng.choice([1e-2, 1.0, 1e2], size=(5, 6))
            x[rng.random((5, 6)) < 0.2] = 0.0
            x = Matrix.from_array(x)
            assert np.array_equal(component_forward(x, comp).array, literal_forward(x, comp))

    @pytest.mark.parametrize("activation", ["invsqr_exact", "invsqr"])
    def test_two_heads_with_random_affine_parts(self, activation):
        rng = np.random.default_rng(20)
        masks = (mask_matrix(DIVIDER_MASKS["column_block"]),
                 mask_matrix(DIVIDER_MASKS["anti_mask"]))
        comp = NetworkComponent(
            w=tuple(rand(rng, 5, 6) for _ in masks),
            v=masks,
            b=tuple(rand(rng, 5, 6) for _ in masks),
            c=tuple(rand(rng, 5, 6) for _ in masks),
            activation=activation,
            table=default_invsqr(),
        )
        for _ in range(5):
            x = rand(rng, 5, 6)
            assert np.array_equal(component_forward(x, comp).array, literal_forward(x, comp))


def signed_input(rng, m, n):
    """Entries of both signs and magnitudes, with +0.0 and -0.0 among them."""
    x = rng.normal(scale=10.0, size=(m, n)) * rng.choice([1e-2, 1.0, 1e2], size=(m, n))
    x[rng.random((m, n)) < 0.3] = 0.0
    x[rng.random((m, n)) < 0.3] *= -1.0
    return Matrix.from_array(x)


BLOCK = MaskSpec(BlockSpec(2, 4, 3, 3), 5, 6)
COMPONENTS = {
    "affine_float_gain": lambda rng: make_affine_component(-1.0, rand(rng, 5, 6)),
    "affine_matrix_gain": lambda rng: make_affine_component(rand(rng, 5, 6), rand(rng, 5, 6)),
    "affine_zero_gain": lambda rng: make_affine_component(0.0, identity(5)),
    "mask": lambda rng: make_mask_component(BLOCK),
    "anti_mask": lambda rng: make_mask_component(MaskSpec(BlockSpec(2, 4, 3, 3), 5, 6, anti=True)),
    "exact_divider": lambda rng: make_divider_component(BLOCK, None),
    "table_divider": lambda rng: make_divider_component(BLOCK, default_invsqr()),
    "exact_float_v": lambda rng: NetworkComponent(
        w=(rand(rng, 4, 3),), v=(0.5,), b=(0.0,), c=(-2.0,), activation="invsqr_exact"),
    "table_float_v": lambda rng: NetworkComponent(
        w=(rand(rng, 4, 3),), v=(0.5,), b=(0.0,), c=(-2.0,), activation="invsqr",
        table=default_invsqr()),
}


class TestBroadcastParameters:
    """Float parameters broadcast to bitwise the dense literal sum."""

    @pytest.mark.parametrize("name", COMPONENTS, ids=str)
    def test_matches_dense_oracle(self, name):
        rng = np.random.default_rng(21)
        comp = COMPONENTS[name](rng)
        for _ in range(5):
            x = signed_input(rng, *comp.shape)
            got = component_forward(x, comp).array
            want = literal_forward(x, comp)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ShapeMismatch):
            make_affine_component(ones(2, 3), zeros(3, 2))
        with pytest.raises(TypeError):
            NetworkComponent(w=(1,), v=(ones(2, 2),), b=(0.0,), c=(0.0,), activation="relu")

    @pytest.mark.parametrize("name", ["mask", "anti_mask", "exact_divider", "table_divider"])
    def test_mask_and_divider_store_only_the_mask(self, name):
        comp = COMPONENTS[name](None)
        params = comp.w + comp.v + comp.b + comp.c
        assert [p for p in params if isinstance(p, Matrix)] == [comp.v[0]]


# Components of floats alone: the keep-all mask, the +/-1 affine units (C 0.0
# or a drawn float) and the exact and table dividers, all without a shape.
SHAPE_FREE = {
    "keep": lambda c: make_mask_component(None),
    "plus_identity": lambda c: make_affine_component(1.0, 0.0),
    "negate": lambda c: make_affine_component(-1.0, 0.0),
    "plus_c": lambda c: make_affine_component(1.0, c),
    "minus_c": lambda c: make_affine_component(-1.0, c),
    "exact_divider": lambda c: make_divider_component(None, None),
    "table_divider": lambda c: make_divider_component(None, default_invsqr()),
}
EXTREME = st.one_of(
    st.sampled_from([0.0, -0.0, 1e300, -1e300, np.inf, -np.inf]),
    st.floats(-2.2e-308, 2.2e-308),  # subnormals and zeros
    st.floats(-1e3, 1e3),
)


# Components whose float heads name a compiled view, and components that
# run apply: the keep-all mask and the +-1 affine units, which the
# elimination kernels write out themselves (INLINE), a mask with a Matrix V,
# a gain that is not +/-1, a nonzero C and a table divider with a slope that
# underflows to -0.0.
VIEWED = {
    "exact_divider": lambda: make_divider_component(None, None),
    "table_divider": lambda: make_divider_component(None, default_invsqr()),
}
LITERAL = {
    "keep": lambda: make_mask_component(None),
    "plus_identity": lambda: make_affine_component(1.0, 0.0),
    "negate": lambda: make_affine_component(-1.0, 0.0),
    "underflowed_slope_divider": lambda: make_divider_component(
        None, build_invsqr(UNDERFLOWED_SLOPE_SPEC)),
    "matrix_mask": lambda: make_mask_component(MaskSpec(BlockSpec(1, 2, 1, 2), 2, 2)),
    "gain_2": lambda: make_affine_component(2.0, 0.0),
    "nonzero_c": lambda: make_affine_component(1.0, 0.5),
}
# The elimination kernels' Python-float forms of the components above that
# have no view (see gauss._forward_sweep).
INLINE = {
    "keep": lambda x: x + 0.0,
    "plus_identity": lambda x: x + 0.0,
    "negate": lambda x: -1.0 * x + 0.0,
}


class TestShapeFreeComponents:
    """A component of floats alone runs on any shape, bitwise the dense literal sum."""

    def test_has_no_shape_and_takes_any_input(self):
        comp = make_mask_component(None)
        assert comp.shape is None and comp.v == (1.0,)
        x = Matrix([[1.5, -2.0, 0.0]])
        assert component_forward(x, comp) == x

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        name=st.sampled_from(sorted(SHAPE_FREE)),
        c=EXTREME,
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        data=st.data(),
    )
    def test_apply_is_the_dense_sum_bitwise(self, name, c, rows, cols, data):
        comp = SHAPE_FREE[name](c)
        assert comp.shape is None
        entries = data.draw(st.lists(EXTREME, min_size=rows * cols, max_size=rows * cols))
        x = np.array(entries).reshape(rows, cols)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            got = comp.apply(x)
            want = dense_component_forward(x, comp, invsqr_eval)
            # Calling the component runs its view where it has one.
            called = comp(x)
        assert got.shape == want.shape == called.shape
        # Bytes compare the sign of zero and NaN bits too.
        assert got.tobytes() == want.tobytes()
        assert called.tobytes() == got.tobytes()

    @settings(max_examples=200, deadline=None, database=None)
    @given(name=st.sampled_from(sorted(SHAPE_FREE)), c=EXTREME, x=EXTREME)
    # The exact divider's view takes its zero-square branch on these.
    @example(name="exact_divider", c=0.0, x=0.0)
    @example(name="exact_divider", c=0.0, x=-0.0)
    @example(name="exact_divider", c=0.0, x=1e-200)
    def test_a_float64_scalar_is_the_dense_sum_bitwise(self, name, c, x):
        # The elimination runs the pivot path on 0-d float64 entries.
        comp = SHAPE_FREE[name](c)
        x = np.float64(x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            got = comp.apply(x)
            want = dense_component_forward(x, comp, invsqr_eval)
            called = comp(x)
        # A Python float has no shape; each result must keep one, and the view apply's type.
        assert got.shape == want.shape == called.shape == ()
        assert type(called) is type(got)
        assert got.tobytes() == want.tobytes()
        assert called.tobytes() == got.tobytes()
        if name in INLINE:
            assert np.float64(INLINE[name](float(x))).tobytes() == got.tobytes()

    @pytest.mark.parametrize("spec", [
        "explicit:1,2", DEFAULT_KNOT_SPEC,
        # 300 intervals run past numpy's 128-entry pairwise block.
        "geometric:x1=1e-2,xmax=1e2,n=300",
        f"geometric:x1=1e-3,xmax=1e3,n={netcomp.MAX_KNOTS}",
        UNDERFLOWED_SLOPE_SPEC,
    ])
    def test_a_float64_scalar_divides_as_the_dense_sum_at_every_knot(self, spec):
        # The four-term oracle, not invsqr_eval, on the table divider's view.
        table = build_invsqr(spec)
        comp = make_divider_component(None, table)
        knots, tiny = table.knots, np.finfo(np.float64).tiny
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            points = np.concatenate([
                [0.0, np.inf, np.nan, 1e308, 5e-324, tiny / 3, tiny],
                knots, np.nextafter(knots, 0.0), np.nextafter(knots, np.inf),
                table.cutoff * np.array([1.5, 10.0, 1e6]),  # past the cutoff
            ])
            for v in np.concatenate([points, -points]):
                x = np.float64(v)
                got = comp(x)
                want = dense_component_forward(x, comp, literal_invsqr_sum)
                assert type(got) is np.float64
                assert got.tobytes() == want.tobytes(), v

    @pytest.mark.parametrize("name", VIEWED)
    def test_linear_units_and_the_exact_divider_have_a_view(self, name):
        comp = VIEWED[name]()
        assert comp.view is not None
        x = np.array([[1.5, -0.0, -2.0]])
        assert comp(x).tobytes() == comp.apply(x).tobytes()

    @pytest.mark.parametrize("name", LITERAL)
    def test_other_components_run_apply(self, name):
        assert LITERAL[name]().view is None

    def test_exact_divider_of_an_underflowing_square_is_inf_without_a_warning(self):
        # 1e-200 squares to 0.0; its reciprocal is inf, as the activation's.
        comp = make_divider_component(None, None)
        x = np.array([[1e-200, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for got in (comp.apply(x), comp.view(x)):
                assert got.tolist() == [[np.inf, 0.25]]
