"""Core matrix type: construction, block conventions, reference algebra."""

import numpy as np
import pytest

from elsakit import (
    BlockSpec,
    DimensionMismatch,
    IndexOutOfRange,
    Matrix,
    ShapeMismatch,
    add,
    block_read,
    block_write,
    hadamard,
    identity,
    load_csv,
    matmul,
    ones,
    save_csv,
    transpose,
    zeros,
)
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


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        a = Matrix.from_array(rng.uniform(-1e3, 1e3, size=(4, 3)) * 10.0 ** rng.integers(-8, 8))
        path = tmp_path / "m.csv"
        save_csv(a, str(path))
        assert load_csv(str(path)) == a

    def test_plain_rows_no_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.5e-2,4.0\n")
        assert load_csv(str(path)) == Matrix([[1.0, 2.0], [0.035, 4.0]])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ShapeMismatch):
            load_csv(str(path))
