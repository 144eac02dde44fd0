"""Core matrix type: construction, block conventions, reference algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from elsakit import (
    BlockSpec,
    DimensionMismatch,
    IndexOutOfRange,
    Matrix,
    MatrixStack,
    ShapeMismatch,
    add,
    block_read,
    block_write,
    eye_block,
    hadamard,
    identity,
    matmul,
    ones,
    scale,
    transpose,
    zeros,
)
from elsakit.matrix import outer_product, product_for
from oracles import naive_matmul


class TestConstruction:
    def test_entry_count_and_shape(self):
        m = Matrix([[1.0, 2.0], [3.0, 4.0]])
        assert m.shape == (2, 2)
        assert m.rows == 2 and m.cols == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Matrix([[1.0, float("nan")]])
        with pytest.raises(ValueError):
            Matrix([[float("inf")]])

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(ShapeMismatch):
            Matrix(np.zeros((0, 3)))
        with pytest.raises((ShapeMismatch, ValueError)):
            Matrix([[1.0], [2.0, 3.0]])

    def test_column_takes_a_flat_sequence(self):
        assert Matrix.column([1.0, 2.0]) == Matrix([[1.0], [2.0]])
        for values in ([[1.0, 2.0]], [[1.0], [2.0]], 3.0, []):
            with pytest.raises(ShapeMismatch):
                Matrix.column(values)

    def test_immutable_storage(self):
        m = Matrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.array[0, 0] = 9.0

    def test_get_is_one_based(self):
        m = Matrix([[1.0, 2.0], [3.0, 4.0]])
        assert m.get(1, 2) == 2.0
        assert m.get(2, 1) == 3.0
        with pytest.raises(IndexOutOfRange):
            m.get(0, 1)
        with pytest.raises(IndexOutOfRange):
            m.get(1, 3)


class TestIdentityZeros:
    def test_identity_trivial(self):
        assert identity(1) == Matrix([[1.0]])
        assert identity(2) == Matrix([[1.0, 0.0], [0.0, 1.0]])

    def test_identity_neutral_for_product(self):
        rng = np.random.default_rng(0)
        a = Matrix.from_array(rng.uniform(-1, 1, size=(3, 4)))
        left = matmul(identity(3), a)
        assert np.array_equal(left.array, naive_matmul(identity(3).array, a.array))
        assert left == a

    def test_zeros(self):
        assert zeros(1, 1) == Matrix([[0.0]])
        assert zeros(2, 3).array.tolist() == [[0.0] * 3, [0.0] * 3]

    def test_zeros_additive_identity(self):
        rng = np.random.default_rng(1)
        a = Matrix.from_array(rng.uniform(-1, 1, size=(2, 3)))
        assert add(zeros(2, 3), a) == a

    def test_size_validation(self):
        with pytest.raises(ShapeMismatch):
            identity(0)
        with pytest.raises(ShapeMismatch):
            zeros(1, 0)


class TestMatmul:
    def test_hand_dot_product(self):
        got = matmul(Matrix([[1.0, 2.0]]), Matrix([[3.0], [4.0]]))
        assert got == Matrix([[11.0]])

    def test_identity_law(self):
        rng = np.random.default_rng(2)
        a = Matrix.from_array(rng.uniform(-1, 1, size=(4, 4)))
        assert matmul(a, identity(4)) == a

    def test_annihilation(self):
        rng = np.random.default_rng(3)
        a = Matrix.from_array(rng.uniform(-1, 1, size=(3, 2)))
        assert matmul(a, zeros(2, 5)) == zeros(3, 5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            matmul(Matrix([[1.0, 2.0]]), Matrix([[1.0, 2.0]]))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            r, s, t = rng.integers(1, 7, size=3)
            a = rng.uniform(-1, 1, size=(r, s))
            b = rng.uniform(-1, 1, size=(s, t))
            got = matmul(Matrix.from_array(a), Matrix.from_array(b)).array
            assert np.allclose(got, naive_matmul(a, b), rtol=1e-13, atol=1e-13)

    def test_associativity(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            dims = rng.integers(1, 9, size=4)
            a = Matrix.from_array(rng.uniform(-1, 1, size=(dims[0], dims[1])))
            b = Matrix.from_array(rng.uniform(-1, 1, size=(dims[1], dims[2])))
            c = Matrix.from_array(rng.uniform(-1, 1, size=(dims[2], dims[3])))
            left = matmul(matmul(a, b), c).array
            right = matmul(a, matmul(b, c)).array
            bound = 1e-12 * max(1.0, np.abs(right).max())
            assert np.abs(left - right).max() <= bound


SPECIAL_ENTRIES = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -2.2e-308,
                   1e-200, -3e-160, 1.0, -1.0)
ENTRIES = st.one_of(st.sampled_from(SPECIAL_ENTRIES), st.floats(-1e300, 1e300, width=64))


@st.composite
def product_operand(draw, rows, cols):
    """A rows-by-cols factor laid out as the step plan and the descent pass them to a product.

    It is C-ordered, a column slice of a wider array, a gather by an index
    array from a C- or F-ordered array, or a transposed view.
    """
    kind = draw(st.sampled_from(("c", "slice", "gather_c", "gather_f", "transposed")))
    if kind == "transposed":
        return draw(hnp.arrays(np.float64, (cols, rows), elements=ENTRIES)).T
    wide = cols if kind == "c" else cols + draw(st.integers(1, 3))
    base = draw(hnp.arrays(np.float64, (rows, wide), elements=ENTRIES))
    if kind == "c":
        return base
    if kind == "slice":
        lo = draw(st.integers(0, wide - cols))
        return base[:, lo : lo + cols]
    index = np.array(draw(st.permutations(range(wide)))[:cols], dtype=np.intp)
    return (base if kind == "gather_c" else np.asfortranarray(base))[:, index]


class TestProductFor:
    """The run loop and the descent multiply through product_for, the oracles with @."""

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(data=st.data(), r=st.integers(1, 6), k=st.integers(0, 6), m=st.integers(1, 4))
    def test_matches_matmul_bytewise(self, data, r, k, m):
        # One-entry factors, one-column by one-row products and one-row factors are where
        # np.dot and @ part ways; product_for must route them all to @'s result.
        a = data.draw(product_operand(r, k))
        b = data.draw(product_operand(k, m))
        with np.errstate(all="ignore"):
            got, want = product_for(r, k)(a, b), a @ b
        assert got.tobytes() == want.tobytes(), (a, b)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(data=st.data(), r=st.sampled_from((2, 3, 5, 9, 21)),
           k=st.sampled_from((2, 3, 4, 8, 20)), m=st.sampled_from((1, 1, 2, 4, 9)))
    def test_np_dot_is_matmul_from_two_rows_and_terms(self, data, r, k, m):
        # Where product_for picks np.dot, a numpy or BLAS change that parts it from @ fails here.
        # np.dot without its __array_function__ dispatch: the same C function.
        assert product_for(r, k) is getattr(np.dot, "_implementation", np.dot)
        a = data.draw(product_operand(r, k))
        b = data.draw(product_operand(k, m))
        with np.errstate(all="ignore"):
            assert np.dot(a, b).tobytes() == (a @ b).tobytes(), (a, b)

    @pytest.mark.parametrize("rows,inner", [(1, 1), (3, 1), (1, 3), (4, 0)])
    def test_other_shapes_take_matmul(self, rows, inner):
        assert product_for(rows, inner) is np.matmul


# Extremes for outer_product's operands: signed zeros, subnormals, factors of
# 1e-200 and 1e-170 whose products underflow, overflow, inf and NaN.
OUTER_EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-200, -1e-200,
                  1e-170, -1e-170, 1e308, -1e308, np.inf, -np.inf, np.nan)


def outer_operand(rng, shape):
    """Signed draws over 12 decades, about 40% of them replaced by extremes."""
    a = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-6.0, 6.0, size=shape)
    hit = rng.random(shape) < 0.4
    a[hit] = rng.choice(OUTER_EXTREMES, size=int(hit.sum()))
    return a


def outer_grid():
    """(column, row) pairs: rows 1-70, each with columns 2, 130 and two seeded counts between."""
    for rows in range(1, 71):
        rng = np.random.default_rng([rows, 30])
        for cols in (2, 130, *rng.integers(3, 130, size=2)):
            yield outer_operand(rng, (rows, 1)), outer_operand(rng, (1, int(cols)))


class TestOuterProduct:
    """The forward spread's contract: outer_product against the broadcast multiply."""

    def test_is_np_dot_without_dispatch(self):
        assert outer_product is getattr(np.dot, "_implementation", np.dot)

    def test_matches_the_multiply_but_for_the_sign_of_a_zero(self):
        # Each entry is a * b rounded once, NaN and inf included; where both
        # results are zeros, only the sign may differ. A one-row column with
        # a zero entry is the one case left out (test_one_row_skips_a_zero).
        signs, underflows = 0, 0
        with np.errstate(all="ignore"):
            for a, b in outer_grid():
                if a.shape[0] == 1 and a[0, 0] == 0.0:
                    continue
                got, want = outer_product(a, b), a * b
                zeros = (got == 0.0) & (want == 0.0)
                same = got.view(np.uint64) == want.view(np.uint64)
                assert (same | zeros).all(), (a, b)
                signs += int((zeros & ~same).sum())
                negative = np.signbit(a) & ~np.signbit(b) & (a != 0.0) & (b != 0.0)
                underflows += int((negative & (got == 0.0) & np.signbit(got)).sum())
        # The grid holds zeros of both signs and negative products that underflow.
        assert signs > 0 and underflows > 0

    def test_one_row_skips_a_zero(self):
        # A one-row column is taken as a scalar, and a zero one is skipped:
        # +0.0 everywhere, where the multiply gives NaN against inf or NaN.
        with np.errstate(all="ignore"):
            for _, b in outer_grid():
                for zero in (0.0, -0.0):
                    got = outer_product(np.array([[zero]]), b)
                    assert got.tobytes() == np.zeros(b.shape).tobytes(), (zero, b)
            b = np.array([[np.inf, -np.inf, np.nan, -0.0, 1.0]])
            assert np.isnan(np.array([[0.0]]) * b).sum() == 3
            assert outer_product(np.array([[-0.0]]), b).tobytes() == np.zeros((1, 5)).tobytes()

    def test_out_is_the_allocating_call(self):
        # The elimination kernel writes the spread into the leading rows of a
        # reused buffer: every entry is written, with the allocating call's
        # bits, also where a one-row zero column is skipped. The buffer starts
        # as a NaN with a payload, which no product makes. The column is also
        # taken as the kernel takes it, a 1-d view with a new axis.
        stale = np.array([0x7FF8DEADBEEF0001], dtype=np.uint64).view(np.float64)[0]
        b = np.array([[np.inf, -np.inf, np.nan, -0.0, 1.0]])
        pairs = [*outer_grid(), *((np.array([[zero]]), b) for zero in (0.0, -0.0))]
        with np.errstate(all="ignore"):
            for a, b in pairs:
                want = outer_product(a, b).tobytes()
                tail = np.full((2, b.shape[1]), stale).tobytes()
                for column in (a, a[:, 0].copy()[:, None]):
                    buffer = np.full((a.shape[0] + 2, b.shape[1]), stale)
                    out = buffer[: a.shape[0]]
                    assert outer_product(column, b, out) is out
                    assert out.tobytes() == want, (a, b)
                    assert buffer[a.shape[0] :].tobytes() == tail


class TestMatrixStack:
    """The lazy sequence of a stack's rows equals the eager list from_stack makes."""

    @staticmethod
    def stack():
        a = np.random.default_rng(9).normal(size=(5, 3, 1))
        a[1, 0, 0] = -0.0
        return a

    def test_indexes_like_the_eager_list(self):
        a = self.stack()
        lazy, eager = MatrixStack(a), Matrix.from_stack(a)
        assert len(lazy) == len(eager) == 5
        for i in range(-5, 5):
            assert lazy[i] == eager[i]
            assert lazy[i].array.tobytes() == eager[i].array.tobytes()
        for i in (5, -6):
            with pytest.raises(IndexError):
                lazy[i]
        assert np.signbit(lazy[1].array[0, 0])

    def test_slices_iterates_and_compares(self):
        a = self.stack()
        lazy, eager = MatrixStack(a), Matrix.from_stack(a)
        for sl in (slice(None), slice(1, 4), slice(None, None, 2), slice(None, None, -1),
                   slice(3, 1)):
            part = lazy[sl]
            assert isinstance(part, MatrixStack)
            assert part == eager[sl] and eager[sl] == part
        assert list(lazy) == eager and lazy == eager and eager == lazy
        assert lazy == tuple(eager) and lazy == MatrixStack(a.copy())
        assert lazy != eager[:-1] and lazy != eager[::-1] and lazy != "not a stack"
        assert MatrixStack(a[:0]) == []

    def test_arrays_are_read_only_views_of_one_array(self):
        lazy = MatrixStack(self.stack()[:, ::-1])  # strided: made contiguous once
        for w in lazy:
            assert not w.array.flags.writeable
            with pytest.raises(ValueError):
                w.array[0, 0] = 1.0
        assert lazy[0].array.base is lazy[4].array.base


class TestBlocks:
    def test_row_extraction(self):
        a = Matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert block_read(a, BlockSpec(2, 2, 1, 3)) == Matrix([[4.0, 5.0, 6.0]])

    def test_write_read_round_trip(self):
        rng = np.random.default_rng(6)
        a = Matrix.from_array(rng.uniform(-1, 1, size=(5, 4)))
        v = Matrix.from_array(rng.uniform(-1, 1, size=(2, 3)))
        spec = BlockSpec(2, 3, 1, 3)
        written = block_write(a, spec, v)
        assert np.array_equal(block_read(written, spec).array, v.array)

    def test_index_is_the_0_based_block(self):
        spec = BlockSpec(2, 3, 4, 4)
        assert spec.index == (slice(1, 3), slice(3, 4))
        assert spec.index is spec.index  # made once per spec
        assert spec == BlockSpec(2, 3, 4, 4) and hash(spec) == hash(BlockSpec(2, 3, 4, 4))
        a = np.arange(20.0).reshape(4, 5)
        assert np.array_equal(block_read(Matrix(a), spec).array, a[1:3, 3:4])

    def test_full_range_read(self):
        a = Matrix([[1.0, 2.0], [3.0, 4.0]])
        assert block_read(a, BlockSpec(1, 2, 1, 2)) == a

    def test_out_of_range(self):
        a = Matrix([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(IndexOutOfRange):
            block_read(a, BlockSpec(1, 3, 1, 2))
        with pytest.raises(IndexOutOfRange):
            BlockSpec(2, 1, 1, 1)

    def test_write_shape_mismatch(self):
        a = Matrix([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ShapeMismatch):
            block_write(a, BlockSpec(1, 1, 1, 1), Matrix([[1.0, 2.0]]))

    def test_write_leaves_original_untouched(self):
        a = Matrix([[1.0, 2.0], [3.0, 4.0]])
        block_write(a, BlockSpec(1, 1, 1, 1), Matrix([[9.0]]))
        assert a.get(1, 1) == 1.0


class TestEyeBlock:
    @pytest.mark.parametrize("value", [1.0, -1.0])
    def test_signed_identity_in_rectangular_host(self, value):
        got = eye_block(4, 6, BlockSpec(2, 3, 4, 5), value)
        expected = np.zeros((4, 6))
        expected[1:3, 3:5] = value * np.eye(2)
        assert got.shape == (4, 6)
        assert np.array_equal(got.array, expected)
        tall = eye_block(5, 2, BlockSpec(1, 2, 1, 2), value)
        assert tall == block_write(zeros(5, 2), BlockSpec(1, 2, 1, 2), scale(identity(2), value))

    def test_negative_block_keeps_negative_zeros(self):
        got = eye_block(4, 5, BlockSpec(2, 4, 3, 5), -1.0).array
        inside = np.zeros((4, 5), dtype=bool)
        inside[1:4, 2:5] = True
        off_diagonal = inside & (got == 0.0)
        assert off_diagonal.sum() == 6
        assert np.all(np.signbit(got[off_diagonal]))
        assert not np.any(np.signbit(got[~inside]))

    def test_non_square_block_rejected(self):
        with pytest.raises(ShapeMismatch):
            eye_block(4, 4, BlockSpec(1, 2, 1, 3))

    def test_block_outside_host_rejected(self):
        with pytest.raises(IndexOutOfRange):
            eye_block(3, 3, BlockSpec(2, 4, 2, 4))


class TestHadamardTranspose:
    def test_hadamard_definition(self):
        a = Matrix([[1.0, 2.0], [3.0, 4.0]])
        b = Matrix([[0.0, 1.0], [1.0, 0.0]])
        assert hadamard(a, b) == Matrix([[0.0, 2.0], [3.0, 0.0]])

    def test_hadamard_ones_and_zeros(self):
        rng = np.random.default_rng(7)
        a = Matrix.from_array(rng.uniform(-1, 1, size=(3, 3)))
        assert hadamard(a, ones(3, 3)) == a
        assert hadamard(a, zeros(3, 3)) == zeros(3, 3)

    def test_hadamard_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            hadamard(Matrix([[1.0]]), Matrix([[1.0, 2.0]]))

    def test_double_transpose_exact(self):
        rng = np.random.default_rng(8)
        a = Matrix.from_array(rng.uniform(-1, 1, size=(4, 7)))
        assert transpose(transpose(a)) == a

