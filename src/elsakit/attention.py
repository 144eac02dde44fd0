"""Linear self-attention, its bias-extended form, and capability builders.

The plain form maps an m-by-n input H to (H W3)((H W1)^T (H W2)) with
square n-by-n weights. The extended form adds an m-by-n bias to each of
the three projected inputs. With suitable parameters the extended form
can emit any constant matrix, reproduce its input (a skip connection),
or place the product of two packed submatrices into a designated block;
the builders below construct those parameter sets.

:func:`lsa_forward`, :func:`elsa_forward` and :func:`multihead_forward`
are the literal dense computation and the oracle for everything else.
:func:`compile_head` is a view of the same weights restricted to the
rows and columns they touch; :func:`compiled_forward` runs a block of
such heads on an ndarray and is what the ridge pipelines execute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .matrix import (
    BlockSpec,
    DimensionMismatch,
    Matrix,
    ShapeMismatch,
    add,
    block_write,
    eye_block,
    identity,
    matmul,
    transpose,
    zeros,
)
from .maskmove import MskMovSpec, mskmov_selectors


class EmptyHeads(ValueError):
    """A multi-head forward needs at least one head."""


@dataclass(frozen=True)
class LsaParams:
    """Ordered weight triple (w1, w2, w3), all n-by-n for input width n."""

    w1: Matrix
    w2: Matrix
    w3: Matrix

    def __post_init__(self):
        n = self.w1.rows
        for w in (self.w1, self.w2, self.w3):
            if w.shape != (n, n):
                raise ShapeMismatch("weights must be square and equally sized")


@dataclass(frozen=True)
class ElsaParams:
    """Weight/bias pairs (w_l, b_l): weights n-by-n, biases m-by-n."""

    w1: Matrix
    w2: Matrix
    w3: Matrix
    b1: Matrix
    b2: Matrix
    b3: Matrix

    def __post_init__(self):
        n = self.w1.rows
        for w in (self.w1, self.w2, self.w3):
            if w.shape != (n, n):
                raise ShapeMismatch("weights must be square and equally sized")
        shape = self.b1.shape
        if shape[1] != n:
            raise ShapeMismatch("bias width must match weight size")
        for b in (self.b1, self.b2, self.b3):
            if b.shape != shape:
                raise ShapeMismatch("biases must share one shape")

    @property
    def input_shape(self) -> tuple[int, int]:
        return self.b1.shape


AnyHead = Union[LsaParams, ElsaParams]


def lsa_forward(h: Matrix, p: LsaParams) -> Matrix:
    """(H W3)((H W1)^T (H W2)); output has the shape of H."""
    if h.cols != p.w1.rows:
        raise DimensionMismatch(f"input width {h.cols} != weight size {p.w1.rows}")
    mid = matmul(transpose(matmul(h, p.w1)), matmul(h, p.w2))
    return matmul(matmul(h, p.w3), mid)


def elsa_forward(h: Matrix, p: ElsaParams) -> Matrix:
    """(H W3 + B3)((H W1 + B1)^T (H W2 + B2)); reduces to the plain form at zero bias."""
    if h.shape != p.input_shape:
        raise DimensionMismatch(f"input {h.shape} != parameter shape {p.input_shape}")
    t1 = add(matmul(h, p.w1), p.b1)
    t2 = add(matmul(h, p.w2), p.b2)
    t3 = add(matmul(h, p.w3), p.b3)
    return matmul(t3, matmul(transpose(t1), t2))


def multihead_forward(h: Matrix, heads: Sequence[AnyHead]) -> Matrix:
    """Sum of per-head forwards, evaluated in head order."""
    if not heads:
        raise EmptyHeads("multi-head forward needs at least one head")
    out = None
    for p in heads:
        term = elsa_forward(h, p) if isinstance(p, ElsaParams) else lsa_forward(h, p)
        out = term if out is None else add(out, term)
    return out


Index = Union[np.ndarray, slice]


def _index(ix: np.ndarray) -> Index:
    """A sorted index set, as a slice when it is one contiguous run (a view, not a copy)."""
    if ix.size and ix[-1] - ix[0] + 1 == ix.size:
        return slice(int(ix[0]), int(ix[-1]) + 1)
    return ix


class _Projection(NamedTuple):
    """One projection H W + B restricted to its support."""

    rows: Index  # R: rows of W[:, C] with a nonzero entry
    cols: Index  # C: columns where W or B has a nonzero entry
    w: np.ndarray  # W[R, C]
    b: Optional[np.ndarray]  # B[:, C], or None when B is absent or all zero

    def apply(self, h: np.ndarray) -> np.ndarray:
        t = h[:, self.rows] @ self.w
        return t if self.b is None else t + self.b


def _project(w: Matrix, b: Optional[Matrix]) -> _Projection:
    touched = w.array != 0.0
    used = touched.any(axis=0)
    if b is not None:
        used |= (b.array != 0.0).any(axis=0)
    cols = np.flatnonzero(used)
    rows = np.flatnonzero(touched[:, cols].any(axis=1))
    bias = b.array[:, cols] if b is not None and b.array.any() else None
    return _Projection(_index(rows), _index(cols), w.array[np.ix_(rows, cols)], bias)


class CompiledHead(NamedTuple):
    """A head restricted to the rows and columns its weights touch; see :func:`compile_head`."""

    p1: _Projection
    p2: _Projection
    p3: _Projection
    k1: Index  # positions of K = C1 & C3 within C1
    k3: Index  # positions of K within C3
    input_shape: tuple[Optional[int], int]  # (rows or None for a plain head, width)


def compile_head(p: AnyHead) -> CompiledHead:
    """The support-restricted view of one head, for :func:`compiled_forward`.

    Projection l keeps only the columns C_l where W_l or B_l is nonzero and
    the rows R_l where W_l[:, C_l] is nonzero, so t_l = H[:, R_l] W_l[R_l, C_l]
    (+ B_l[:, C_l]) is the nonzero part of H W_l + B_l. The output is nonzero
    only in the columns C2, and only the columns K = C1 & C3 of t1 and t3
    meet. The products keep the literal forward's parenthesization, so a head
    whose supports are full computes exactly what the literal forward does.
    The view is exact for finite prompts: it skips the 0 * inf terms that
    turn the dense forward's output into NaN, and :class:`Matrix` keeps
    user-built prompts finite.
    """
    biases = (p.b1, p.b2, p.b3) if isinstance(p, ElsaParams) else (None, None, None)
    p1, p2, p3 = (_project(w, b) for w, b in zip((p.w1, p.w2, p.w3), biases))
    n = p.w1.rows
    cols1, cols3 = np.arange(n)[p1.cols], np.arange(n)[p3.cols]
    _, k1, k3 = np.intersect1d(cols1, cols3, assume_unique=True, return_indices=True)
    rows = p.input_shape[0] if isinstance(p, ElsaParams) else None
    return CompiledHead(p1, p2, p3, _index(k1), _index(k3), (rows, n))


def compiled_forward(h: np.ndarray, block: Sequence[CompiledHead]) -> np.ndarray:
    """Sum of the compiled heads' forwards on h, in head order.

    Equals :func:`multihead_forward` of the uncompiled heads on finite h:
    exactly outside the heads' output columns, and to rounding inside them.
    """
    if not block:
        raise EmptyHeads("multi-head forward needs at least one head")
    out = np.zeros(h.shape)
    for c in block:
        rows, width = c.input_shape
        if h.shape[1] != width or rows not in (None, h.shape[0]):
            raise DimensionMismatch(f"input {h.shape} != parameter shape {c.input_shape}")
        t1, t2, t3 = c.p1.apply(h), c.p2.apply(h), c.p3.apply(h)
        out[:, c.p2.cols] += t3[:, c.k3] @ (t1[:, c.k1].T @ t2)
    return out


def const_params(c: Matrix, input_shape: tuple[int, int]) -> ElsaParams:
    """Parameters making the forward emit the constant c for every input of the shape."""
    m, n = input_shape
    if c.shape != (m, n):
        raise ShapeMismatch(f"constant {c.shape} != input shape {input_shape}")
    zn = zeros(n, n)
    eye = eye_block(m, n, BlockSpec(1, min(m, n), 1, min(m, n)))
    if m >= n:
        # b1^T b2 = I_n, then b3 carries c.
        return ElsaParams(zn, zn, zn, eye, eye, c)
    # b3 b1^T = I_m, then b2 carries c.
    return ElsaParams(zn, zn, zn, eye, c, eye)


def skip_params(input_shape: tuple[int, int]) -> ElsaParams:
    """Parameters making the forward the identity map on the shape (a skip connection)."""
    m, n = input_shape
    zn, zm = zeros(n, n), zeros(m, n)
    eye = eye_block(m, n, BlockSpec(1, min(m, n), 1, min(m, n)))
    if m >= n:
        # (H I_n)(b1^T b2) = H.
        return ElsaParams(zn, zn, identity(n), eye, eye, zm)
    # (b3 b1^T)(H I_n) = H.
    return ElsaParams(zn, identity(n), zn, eye, zm, eye)


class MatmulConstruction(NamedTuple):
    """Input packer, parameters, and where the product lands in the output."""

    pack: Callable[[Matrix, Matrix], Matrix]
    params: ElsaParams
    out_block: BlockSpec


def matmul_params_v1(r: int, s: int, t: int) -> MatmulConstruction:
    """Product of an r-by-s A and s-by-t B from the stacked input [[A^T, B], [0, 0]].

    The packed input is (s+r)-by-(r+t); the forward output contains A @ B in
    rows 1..r, columns r+1..r+t and is exactly zero elsewhere.
    """
    m, n = s + r, r + t

    def pack(a: Matrix, b: Matrix) -> Matrix:
        if a.shape != (r, s) or b.shape != (s, t):
            raise ShapeMismatch(f"expected {r}x{s} and {s}x{t}, got {a.shape}, {b.shape}")
        h = block_write(zeros(m, n), BlockSpec(1, s, 1, r), transpose(a))
        return block_write(h, BlockSpec(1, s, r + 1, r + t), b)

    # In H^T H the product sits at rows 1..r, cols r+1..r+t already; the
    # selectors just blank everything else.
    w, v = mskmov_selectors(MskMovSpec(i=1, j=r, k=r + 1, l=r + t, m=n, n=n))
    b3 = eye_block(m, n, BlockSpec(1, r, 1, r))
    params = ElsaParams(transpose(w), v, zeros(n, n), zeros(m, n), zeros(m, n), b3)
    return MatmulConstruction(pack, params, BlockSpec(1, r, r + 1, r + t))


def matmul_params_v2(r: int, s: int, t: int) -> MatmulConstruction:
    """Product of an r-by-s A and s-by-t B from the block-diagonal input [[A, 0], [0, B]].

    The packed input is (r+s)-by-(s+t); the forward output contains A @ B in
    rows 1..r, columns s+1..s+t and is exactly zero elsewhere.
    """
    m, n = r + s, s + t

    def pack(a: Matrix, b: Matrix) -> Matrix:
        if a.shape != (r, s) or b.shape != (s, t):
            raise ShapeMismatch(f"expected {r}x{s} and {s}x{t}, got {a.shape}, {b.shape}")
        h = block_write(zeros(m, n), BlockSpec(1, r, 1, s), a)
        return block_write(h, BlockSpec(r + 1, r + s, s + 1, s + t), b)

    w3 = eye_block(n, n, BlockSpec(1, s, t + 1, t + s))
    w2 = eye_block(n, n, BlockSpec(s + 1, s + t, s + 1, s + t))
    b1 = eye_block(m, n, BlockSpec(r + 1, r + s, t + 1, t + s))
    params = ElsaParams(zeros(n, n), w2, w3, b1, zeros(m, n), zeros(m, n))
    return MatmulConstruction(pack, params, BlockSpec(1, r, s + 1, s + t))
