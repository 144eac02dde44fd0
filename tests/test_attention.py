"""Attention forwards and the constructive capability builders."""

import numpy as np
import pytest

from elsakit import (
    BlockSpec,
    DimensionMismatch,
    ElsaParams,
    EmptyHeads,
    LsaParams,
    Matrix,
    MskMovSpec,
    block_write,
    build_designed_weights,
    build_enumerated_weights,
    compile_head,
    compiled_forward,
    const_params,
    elsa_forward,
    identity,
    lsa_forward,
    matmul,
    matmul_params_v1,
    matmul_params_v2,
    mskmov_selectors,
    multihead_forward,
    scale,
    skip_params,
    transpose,
    wrap_designed_as_elsa,
    zeros,
)
from oracles import naive_matmul


def rand(rng, m, n):
    return Matrix.from_array(rng.uniform(-1.0, 1.0, size=(m, n)))


def lsa_params_random(rng, n):
    return LsaParams(w1=rand(rng, n, n), w2=rand(rng, n, n), w3=rand(rng, n, n))


def elsa_params_random(rng, m, n):
    return ElsaParams(
        w1=rand(rng, n, n), w2=rand(rng, n, n), w3=rand(rng, n, n),
        b1=rand(rng, m, n), b2=rand(rng, m, n), b3=rand(rng, m, n),
    )


class TestLsaForward:
    def test_zero_weights_annihilate(self):
        rng = np.random.default_rng(0)
        h = rand(rng, 3, 4)
        p = LsaParams(w1=zeros(4, 4), w2=zeros(4, 4), w3=zeros(4, 4))
        assert lsa_forward(h, p) == zeros(3, 4)

    def test_three_block_product_layout(self):
        # Pack A and B with an extra identity block; a selector pair moves the
        # cross term into the top-right, the third weight keeps only A.
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0], [4.0]])
        r, s, t = 1, 2, 1
        m, n = r + s, 2 * s + t
        h = zeros(m, n)
        h = block_write(h, BlockSpec(1, r, 1, s), Matrix.from_array(a))
        h = block_write(h, BlockSpec(r + 1, r + s, s + 1, s + t), Matrix.from_array(b))
        h = block_write(h, BlockSpec(r + 1, r + s, s + t + 1, n), identity(s))
        w, v = mskmov_selectors(
            MskMovSpec(i=s + t + 1, j=2 * s + t, k=s + 1, l=s + t, m=n, n=n,
                       a=-(s + t), b=s)
        )
        w3 = block_write(zeros(n, n), BlockSpec(1, s, 1, s), identity(s))
        out = lsa_forward(h, LsaParams(w1=transpose(w), w2=v, w3=w3))
        block = out.array[:r, 2 * s : 2 * s + t]
        assert np.allclose(block, naive_matmul(a, b), atol=1e-12)
        rest = out.to_array()
        rest[:r, 2 * s : 2 * s + t] = 0.0
        assert np.all(rest == 0.0)

    def test_transpose_identity(self):
        rng = np.random.default_rng(1)
        h = rand(rng, 3, 5)
        p = lsa_params_random(rng, 5)
        lhs = transpose(lsa_forward(h, p)).array
        ht = transpose(h)
        k = matmul(transpose(p.w2), ht)
        q = matmul(transpose(p.w1), ht)
        v = matmul(transpose(p.w3), ht)
        rhs = matmul(matmul(k, transpose(q)), v).array
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DimensionMismatch):
            lsa_forward(rand(rng, 2, 3), lsa_params_random(rng, 4))


class TestElsaForward:
    def test_zero_bias_reduces_to_plain(self):
        rng = np.random.default_rng(3)
        h = rand(rng, 3, 4)
        w1, w2, w3 = (rand(rng, 4, 4) for _ in range(3))
        z = zeros(3, 4)
        full = elsa_forward(h, ElsaParams(w1=w1, w2=w2, w3=w3, b1=z, b2=z, b3=z))
        plain = lsa_forward(h, LsaParams(w1=w1, w2=w2, w3=w3))
        assert full == plain

    def test_const_of_zero_is_zero(self):
        rng = np.random.default_rng(4)
        h = rand(rng, 2, 3)
        assert elsa_forward(h, const_params(zeros(2, 3), (2, 3))) == zeros(2, 3)

    def test_stacked_product_frozen_example(self):
        pack, params, blk = matmul_params_v1(1, 2, 1)
        h = pack(Matrix([[1.0, 2.0]]), Matrix([[3.0], [4.0]]))
        assert h == Matrix([[1.0, 3.0], [2.0, 4.0], [0.0, 0.0]])
        gram = matmul(transpose(h), h)
        assert gram == Matrix([[5.0, 11.0], [11.0, 25.0]])
        out = elsa_forward(h, params)
        assert out == Matrix([[0.0, 11.0], [0.0, 0.0], [0.0, 0.0]])
        assert (blk.row_lo, blk.row_hi, blk.col_lo, blk.col_hi) == (1, 1, 2, 2)


class TestMultihead:
    def test_single_head(self):
        rng = np.random.default_rng(5)
        h = rand(rng, 3, 4)
        p = elsa_params_random(rng, 3, 4)
        assert multihead_forward(h, (p,)) == elsa_forward(h, p)

    def test_negated_value_head_cancels(self):
        rng = np.random.default_rng(6)
        h = rand(rng, 3, 4)
        p = elsa_params_random(rng, 3, 4)
        neg = ElsaParams(
            w1=p.w1, w2=p.w2, w3=scale(p.w3, -1.0),
            b1=p.b1, b2=p.b2, b3=scale(p.b3, -1.0),
        )
        out = multihead_forward(h, (p, neg))
        assert np.allclose(out.array, 0.0, atol=1e-12)

    def test_empty_heads_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(EmptyHeads):
            multihead_forward(rand(rng, 2, 2), ())


class TestConstBuilder:
    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (1, 1), (1, 4), (5, 1)])
    def test_emits_constant_exactly(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        for _ in range(20):
            c = rand(rng, m, n)
            h = rand(rng, m, n)
            assert elsa_forward(h, const_params(c, (m, n))) == c

    def test_shape_mismatch(self):
        with pytest.raises(Exception):
            const_params(zeros(2, 2), (3, 2))


class TestSkipBuilder:
    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (1, 1), (4, 1), (1, 5)])
    def test_reproduces_input_exactly(self, m, n):
        rng = np.random.default_rng(200 * m + n)
        for _ in range(20):
            h = rand(rng, m, n)
            assert elsa_forward(h, skip_params((m, n))) == h


class TestMatmulBuilders:
    @pytest.mark.parametrize("builder", [matmul_params_v1, matmul_params_v2])
    def test_identity_factor(self, builder):
        rng = np.random.default_rng(9)
        b = rand(rng, 2, 2)
        pack, params, blk = builder(2, 2, 2)
        out = elsa_forward(pack(identity(2), b), params)
        block = out.array[blk.row_lo - 1 : blk.row_hi, blk.col_lo - 1 : blk.col_hi]
        assert np.allclose(block, b.array, atol=1e-12)

    @pytest.mark.parametrize("builder", [matmul_params_v1, matmul_params_v2])
    def test_zero_factor(self, builder):
        rng = np.random.default_rng(10)
        b = rand(rng, 3, 2)
        pack, params, _ = builder(2, 3, 2)
        out = elsa_forward(pack(zeros(2, 3), b), params)
        assert np.all(out.array == 0.0)

    @pytest.mark.parametrize("builder,dims", [
        (matmul_params_v1, (2, 3, 2)),
        (matmul_params_v2, (2, 2, 2)),
        (matmul_params_v1, (1, 1, 1)),
        (matmul_params_v2, (3, 1, 4)),
    ])
    def test_block_matches_reference_product(self, builder, dims):
        r, s, t = dims
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.uniform(-1, 1, size=(r, s))
            b = rng.uniform(-1, 1, size=(s, t))
            pack, params, blk = builder(r, s, t)
            out = elsa_forward(pack(Matrix.from_array(a), Matrix.from_array(b)), params)
            block = out.array[blk.row_lo - 1 : blk.row_hi, blk.col_lo - 1 : blk.col_hi]
            assert np.abs(block - naive_matmul(a, b)).max() <= 1e-12
            rest = out.to_array()
            rest[blk.row_lo - 1 : blk.row_hi, blk.col_lo - 1 : blk.col_hi] = 0.0
            assert np.all(rest == 0.0)

    def test_block_diagonal_frozen_example(self):
        pack, params, blk = matmul_params_v2(1, 2, 1)
        h = pack(Matrix([[1.0, 2.0]]), Matrix([[3.0], [4.0]]))
        assert h == Matrix([[1.0, 2.0, 0.0], [0.0, 0.0, 3.0], [0.0, 0.0, 4.0]])
        out = elsa_forward(h, params)
        assert out == Matrix([[0.0, 0.0, 11.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert (blk.row_lo, blk.row_hi, blk.col_lo, blk.col_hi) == (1, 1, 3, 3)

    def test_pack_validates_shapes(self):
        pack, _, _ = matmul_params_v1(2, 3, 2)
        with pytest.raises(Exception):
            pack(zeros(3, 2), zeros(3, 2))


def compiled_and_literal(h: Matrix, heads) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compiled and literal forwards of one block, and the mask of the compiled output columns."""
    compiled = [compile_head(p) for p in heads]
    out_cols = np.zeros(h.cols, dtype=bool)
    for c in compiled:
        out_cols[c.p2.cols] = True
    return compiled_forward(h.array, compiled), multihead_forward(h, heads).array, out_cols


def assert_compiled_matches(h: Matrix, heads) -> None:
    """Exactly zero outside the output columns, within 1e-14 relative inside them."""
    got, want, out_cols = compiled_and_literal(h, heads)
    assert np.all(got[:, ~out_cols] == 0.0) and np.all(want[:, ~out_cols] == 0.0)
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


class TestCompiledHead:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 2), (5, 8), (8, 5), (8, 8)])
    def test_const_and_skip_heads(self, m, n):
        rng = np.random.default_rng(300 * m + n)
        for _ in range(10):
            h = rand(rng, m, n)
            assert_compiled_matches(h, (const_params(rand(rng, m, n), (m, n)),))
            assert_compiled_matches(h, (skip_params((m, n)),))

    @pytest.mark.parametrize("builder", [matmul_params_v1, matmul_params_v2])
    def test_matmul_heads(self, builder):
        rng = np.random.default_rng(12)
        for _ in range(40):
            r, s, t = rng.integers(1, 9, size=3)
            pack, params, _ = builder(r, s, t)
            h = pack(rand(rng, r, s), rand(rng, s, t))
            assert_compiled_matches(h, (params,))

    def test_full_support_heads_are_bitwise_literal(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m, n = rng.integers(1, 10, size=2)
            heads = (lsa_params_random(rng, n), elsa_params_random(rng, m, n))
            for block in (heads[:1], heads[1:], heads):
                got, want, _ = compiled_and_literal(rand(rng, m, n), block)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("n,d", [(1, 1), (3, 2), (20, 4)])
    def test_every_pipeline_head(self, n, d):
        rng = np.random.default_rng(100 * n + d)
        designed = build_designed_weights(n, d)
        for prog in (designed, build_enumerated_weights(n, d), wrap_designed_as_elsa(designed)):
            for block in prog.step + prog.readout:
                h = rand(rng, *prog.layout.shape)
                assert_compiled_matches(h, block)
                for head in block:
                    assert_compiled_matches(h, (head,))

    def test_shape_checks(self):
        rng = np.random.default_rng(14)
        plain = compile_head(lsa_params_random(rng, 3))
        extended = compile_head(elsa_params_random(rng, 2, 3))
        with pytest.raises(EmptyHeads):
            compiled_forward(np.zeros((2, 3)), ())
        with pytest.raises(DimensionMismatch):
            compiled_forward(np.zeros((2, 4)), (plain,))
        with pytest.raises(DimensionMismatch):
            compiled_forward(np.zeros((1, 3)), (extended,))
        assert compiled_forward(np.zeros((5, 3)), (plain,)).shape == (5, 3)
