"""Selector matrices and mask-and-move against the definitional copy oracle."""

import numpy as np
import pytest

from elsakit import (
    BlockSpec,
    DuplicateTargetColumn,
    DuplicateTargetRow,
    IndexOutOfRange,
    IndexPairSet,
    MaskSpec,
    Matrix,
    MskMovSpec,
    SpecOutOfRange,
    add,
    hadamard,
    identity,
    mask_matrix,
    matmul,
    mskmov,
    mskmov_selectors,
    selector_v,
    selector_w,
    zeros,
)
from oracles import copy_move


def random_case(rng, max_dim=8):
    m = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(1, max_dim + 1))
    i = int(rng.integers(1, m + 1))
    j = int(rng.integers(i, m + 1))
    k = int(rng.integers(1, n + 1))
    l = int(rng.integers(k, n + 1))
    a_off = int(rng.integers(1 - i, m - j + 1))
    b_off = int(rng.integers(1 - k, n - l + 1))
    spec = MskMovSpec(i=i, j=j, k=k, l=l, m=m, n=n, a=a_off, b=b_off)
    return rng.uniform(-1.0, 1.0, size=(m, n)), spec


class TestSelectorW:
    def test_single_row_copy(self):
        a = Matrix([[1.0, 2.0], [3.0, 4.0]])
        w = selector_w(IndexPairSet.of([(1, 1)]), 2)
        assert matmul(w, a) == Matrix([[1.0, 2.0], [0.0, 0.0]])

    def test_full_identity_selection(self):
        assert selector_w(IndexPairSet.of([(1, 1), (2, 2)]), 2) == identity(2)

    def test_row_move(self):
        a = Matrix([[1.0, 2.0], [3.0, 4.0]])
        w = selector_w(IndexPairSet.of([(2, 1)]), 2)
        assert matmul(w, a) == Matrix([[0.0, 0.0], [1.0, 2.0]])

    def test_duplicate_target_row(self):
        with pytest.raises(DuplicateTargetRow):
            selector_w(IndexPairSet.of([(1, 1), (1, 2)]), 2)

    def test_error_messages(self):
        with pytest.raises(DuplicateTargetRow, match=r"^target row 1 selected twice$"):
            selector_w(IndexPairSet.of([(1, 1), (1, 2)]), 2)
        with pytest.raises(IndexOutOfRange, match=r"^pair \(3,1\) outside size 2$"):
            selector_w(IndexPairSet.of([(3, 1)]), 2)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            selector_w(IndexPairSet.of([(3, 1)]), 2)

    def test_empty_set_gives_zero_selector(self):
        assert selector_w(IndexPairSet.of([]), 3) == zeros(3, 3)


class TestSelectorV:
    def test_single_column_copy(self):
        a = Matrix([[1.0, 2.0], [3.0, 4.0]])
        v = selector_v(IndexPairSet.of([(1, 2)]), 2)
        assert matmul(a, v) == Matrix([[0.0, 1.0], [0.0, 3.0]])

    def test_full_identity_selection(self):
        assert selector_v(IndexPairSet.of([(1, 1), (2, 2)]), 2) == identity(2)

    def test_empty_set(self):
        a = Matrix([[1.0, 2.0], [3.0, 4.0]])
        v = selector_v(IndexPairSet.of([]), 2)
        assert matmul(a, v) == zeros(2, 2)

    def test_duplicate_target_column(self):
        with pytest.raises(DuplicateTargetColumn):
            selector_v(IndexPairSet.of([(1, 2), (2, 2)]), 2)

    def test_error_messages(self):
        with pytest.raises(DuplicateTargetColumn, match=r"^target column 2 selected twice$"):
            selector_v(IndexPairSet.of([(1, 2), (2, 2)]), 2)
        with pytest.raises(IndexOutOfRange, match=r"^pair \(1,3\) outside size 2$"):
            selector_v(IndexPairSet.of([(1, 3)]), 2)


class TestMskMov:
    def test_identity_move(self):
        rng = np.random.default_rng(0)
        a = Matrix.from_array(rng.uniform(-1, 1, size=(3, 4)))
        spec = MskMovSpec(i=1, j=3, k=1, l=4, m=3, n=4)
        assert mskmov(a, spec) == a

    def test_block_shift(self):
        a = Matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        spec = MskMovSpec(i=1, j=1, k=1, l=2, m=2, n=3, a=1, b=1)
        assert mskmov(a, spec) == Matrix([[0.0, 0.0, 0.0], [0.0, 1.0, 2.0]])

    def test_upper_right_corner_form(self):
        # Move a single entry to the top-right: offsets -(i-1) rows, n-l columns.
        a = Matrix([[1.0, 2.0], [3.0, 4.0]])
        spec = MskMovSpec(i=1, j=1, k=1, l=1, m=2, n=2, a=0, b=1)
        moved = mskmov(a, spec)
        assert moved == Matrix([[0.0, 1.0], [0.0, 0.0]])
        w, v = mskmov_selectors(spec)
        assert matmul(matmul(w, a), v) == moved

    def test_spec_validation(self):
        with pytest.raises(SpecOutOfRange):
            MskMovSpec(i=1, j=2, k=1, l=1, m=2, n=2, a=1, b=0)
        with pytest.raises(SpecOutOfRange):
            MskMovSpec(i=2, j=1, k=1, l=1, m=2, n=2)
        with pytest.raises(SpecOutOfRange):
            mskmov(Matrix([[1.0]]), MskMovSpec(i=1, j=1, k=1, l=1, m=2, n=2))

    def test_matches_copy_oracle_bitwise(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            arr, spec = random_case(rng)
            got = mskmov(Matrix.from_array(arr), spec).array
            expected = copy_move(arr, spec.i, spec.j, spec.k, spec.l, spec.a, spec.b)
            assert np.array_equal(got, expected)

    def test_selectors_are_binary_with_single_targets(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            _, spec = random_case(rng)
            w, v = mskmov_selectors(spec)
            assert set(np.unique(w.array)) <= {0.0, 1.0}
            assert set(np.unique(v.array)) <= {0.0, 1.0}
            assert np.all(w.array.sum(axis=1) <= 1.0)  # one source per target row
            assert np.all(v.array.sum(axis=0) <= 1.0)  # one source per target column

    def test_selectors_equal_pair_set_selectors_bitwise(self):
        # The shifted identity blocks against the general pair-set selectors.
        rng = np.random.default_rng(4)
        for _ in range(200):
            _, s = random_case(rng)
            w, v = mskmov_selectors(s)
            rows = IndexPairSet.of((r + s.a, r) for r in range(s.i, s.j + 1))
            cols = IndexPairSet.of((c, c + s.b) for c in range(s.k, s.l + 1))
            for got, expected in ((w, selector_w(rows, s.m)), (v, selector_v(cols, s.n))):
                assert got.shape == expected.shape
                assert got.array.tobytes() == expected.array.tobytes()

    def test_idempotent_full_block_no_offset(self):
        rng = np.random.default_rng(3)
        a = Matrix.from_array(rng.uniform(-1, 1, size=(4, 5)))
        spec = MskMovSpec(i=1, j=4, k=1, l=5, m=4, n=5)
        once = mskmov(a, spec)
        assert mskmov(once, spec) == once


class TestMaskMatrix:
    def test_mask_definition(self):
        spec = MaskSpec(BlockSpec(1, 1, 1, 1), 2, 2)
        assert mask_matrix(spec) == Matrix([[1.0, 0.0], [0.0, 0.0]])

    def test_anti_mask_complement(self):
        spec = MaskSpec(BlockSpec(1, 1, 1, 1), 2, 2, anti=True)
        assert mask_matrix(spec) == Matrix([[0.0, 1.0], [1.0, 1.0]])

    def test_partition_of_entries(self):
        rng = np.random.default_rng(4)
        a = Matrix.from_array(rng.uniform(-1, 1, size=(4, 6)))
        block = BlockSpec(2, 3, 2, 5)
        m = mask_matrix(MaskSpec(block, 4, 6))
        mb = mask_matrix(MaskSpec(block, 4, 6, anti=True))
        assert add(hadamard(m, a), hadamard(mb, a)) == a

    def test_host_validation(self):
        with pytest.raises(SpecOutOfRange):
            MaskSpec(BlockSpec(1, 3, 1, 1), 2, 2)
