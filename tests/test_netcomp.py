"""Network components, skip combinators, weighted sums, and the division table."""

import tracemalloc
import warnings

import numpy as np
import pytest

from elsakit import netcomp
from elsakit import (
    BadKnotSpec,
    BlockSpec,
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
from oracles import dense_component_forward, piecewise_invsqr


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
        with pytest.raises(ValueError):
            skip_mul(zeros(1, 1), zeros(1, 1), side="middle", gamma=1)


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
        t_col = xs[:, None]
        al, lo, hi = t.slopes, t.knots[:-1], t.knots[1:]
        one_block = (
            np.maximum(0.0, al * (t_col - hi))
            - np.maximum(0.0, al * (t_col - lo))
            + np.maximum(0.0, al * (t_col + hi))
            - np.maximum(0.0, al * (t_col + lo))
        ).sum(axis=-1)
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
        with pytest.raises(ShapeMismatch):  # no Matrix gives the shape
            NetworkComponent(w=(1.0,), v=(1.0,), b=(0.0,), c=(0.0,), activation="relu")
        with pytest.raises(ShapeMismatch):
            make_affine_component(1.0, 0.0)
        with pytest.raises(ShapeMismatch):
            make_affine_component(ones(2, 3), zeros(3, 2))
        with pytest.raises(TypeError):
            NetworkComponent(w=(1,), v=(ones(2, 2),), b=(0.0,), c=(0.0,), activation="relu")

    @pytest.mark.parametrize("name", ["mask", "anti_mask", "exact_divider", "table_divider"])
    def test_mask_and_divider_store_only_the_mask(self, name):
        comp = COMPONENTS[name](None)
        params = comp.w + comp.v + comp.b + comp.c
        assert [p for p in params if isinstance(p, Matrix)] == [comp.v[0]]
