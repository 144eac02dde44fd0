"""Linear self-attention, its bias-extended form, and capability builders.

The plain form maps an m-by-n input H to (H W3)((H W1)^T (H W2)) with
square n-by-n weights. The extended form adds an m-by-n bias to each of
the three projected inputs. With suitable parameters the extended form
can emit any constant matrix, reproduce its input (a skip connection),
or place the product of two packed submatrices into a designated block;
the builders below construct those parameter sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

from .matrix import (
    BlockSpec,
    DimensionMismatch,
    Matrix,
    ShapeMismatch,
    add,
    block_write,
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


@dataclass(frozen=True)
class MultiHead:
    """A fixed-order collection of heads summed by :func:`multihead_forward`."""

    heads: tuple[AnyHead, ...]


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


def multihead_forward(h: Matrix, heads: MultiHead | Sequence[AnyHead]) -> Matrix:
    """Sum of per-head forwards, evaluated in head order."""
    seq = heads.heads if isinstance(heads, MultiHead) else tuple(heads)
    if not seq:
        raise EmptyHeads("multi-head forward needs at least one head")
    out = None
    for p in seq:
        term = elsa_forward(h, p) if isinstance(p, ElsaParams) else lsa_forward(h, p)
        out = term if out is None else add(out, term)
    return out


def zero_params(input_shape: tuple[int, int]) -> ElsaParams:
    """All-zero head; contributes nothing but keeps the head count uniform."""
    m, n = input_shape
    zn, zm = zeros(n, n), zeros(m, n)
    return ElsaParams(zn, zn, zn, zm, zm, zm)


def _stacked_identity(m: int, n: int) -> Matrix:
    """[I_n; 0] when m > n, [I_m 0] when m < n, I_m when m == n."""
    k = min(m, n)
    return block_write(zeros(m, n), BlockSpec(1, k, 1, k), identity(k))


def const_params(c: Matrix, input_shape: tuple[int, int]) -> ElsaParams:
    """Parameters making the forward emit the constant c for every input of the shape."""
    m, n = input_shape
    if c.shape != (m, n):
        raise ShapeMismatch(f"constant {c.shape} != input shape {input_shape}")
    zn = zeros(n, n)
    eye = _stacked_identity(m, n)
    if m >= n:
        # b1^T b2 = I_n, then b3 carries c.
        return ElsaParams(zn, zn, zn, eye, eye, c)
    # b3 b1^T = I_m, then b2 carries c.
    return ElsaParams(zn, zn, zn, eye, c, eye)


def skip_params(input_shape: tuple[int, int]) -> ElsaParams:
    """Parameters making the forward the identity map on the shape (a skip connection)."""
    m, n = input_shape
    zn, zm = zeros(n, n), zeros(m, n)
    eye = _stacked_identity(m, n)
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
    b3 = block_write(zeros(m, n), BlockSpec(1, r, 1, r), identity(r))
    params = ElsaParams(
        transpose(w), v, zeros(n, n), zeros(m, n), zeros(m, n), b3
    )
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

    w3 = block_write(zeros(n, n), BlockSpec(1, s, t + 1, t + s), identity(s))
    w2 = block_write(zeros(n, n), BlockSpec(s + 1, s + t, s + 1, s + t), identity(t))
    b1 = block_write(zeros(m, n), BlockSpec(r + 1, r + s, t + 1, t + s), identity(s))
    params = ElsaParams(
        zeros(n, n), w2, w3, b1, zeros(m, n), zeros(m, n)
    )
    return MatmulConstruction(pack, params, BlockSpec(1, r, s + 1, s + t))
