"""Dense float64 matrices with 1-based block conventions.

Everything downstream (selector algebra, attention forwards, elimination
states) is carried by :class:`Matrix`. Storage is a read-only numpy array;
all public block operations take 1-based inclusive indices and convert to
0-based here, nowhere else.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class DimensionMismatch(ValueError):
    """Inner dimensions of a product do not agree."""


class ShapeMismatch(ValueError):
    """Operands (or a block and its target) differ in shape."""


class IndexOutOfRange(IndexError):
    """A 1-based index or block falls outside the host matrix."""


class Matrix:
    """Immutable dense real matrix (float64).

    Construction from user data validates that every entry is finite.
    Results of library operations are wrapped through the trusted
    :meth:`from_array` path, which skips that check.
    """

    __slots__ = ("_a",)

    def __init__(self, entries: Sequence[Sequence[float]] | np.ndarray):
        a = np.array(entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ShapeMismatch(f"expected a 2-d matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        a.setflags(write=False)
        self._a = a

    @classmethod
    def from_array(cls, a: np.ndarray) -> "Matrix":
        """Wrap an ndarray without the finiteness check (trusted internal path)."""
        m = object.__new__(cls)
        a = np.ascontiguousarray(a, dtype=np.float64)
        a.setflags(write=False)
        m._a = a
        return m

    @classmethod
    def from_stack(cls, stack: np.ndarray) -> list["Matrix"]:
        """One Matrix per leading index of a (k, rows, cols) stack (trusted internal path).

        The list of :class:`MatrixStack`'s rows: each Matrix is a view of one
        row of the stack, made contiguous and read-only once.
        """
        return list(MatrixStack(stack))

    @classmethod
    def column(cls, values: Sequence[float] | np.ndarray) -> "Matrix":
        """Column vector from a flat (1-d) sequence."""
        a = np.asarray(values, dtype=np.float64)
        if a.ndim != 1:
            raise ShapeMismatch(f"expected a flat sequence, got shape {a.shape}")
        return cls(a.reshape(-1, 1))

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def array(self) -> np.ndarray:
        """Read-only ndarray view of the entries."""
        return self._a

    def to_array(self) -> np.ndarray:
        """Writable copy of the entries."""
        return self._a.copy()

    def get(self, i: int, j: int) -> float:
        """Entry at 1-based position (i, j)."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexOutOfRange(f"({i},{j}) outside {self.rows}x{self.cols}")
        return float(self._a[i - 1, j - 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._a.shape == other._a.shape and bool(
            np.array_equal(self._a, other._a)
        )

    __hash__ = None  # mutable-equality semantics, not hashable

    def __repr__(self) -> str:
        return f"Matrix({self._a.tolist()!r})"


def _view(row: np.ndarray) -> Matrix:
    m = object.__new__(Matrix)
    m._a = row
    return m


class MatrixStack(Sequence):
    """A read-only sequence of the Matrix rows of a (k, rows, cols) stack (trusted internal path).

    The stack is made contiguous and read-only once; a row is wrapped in a
    Matrix, a view of it, only when it is read. Indexing takes negative
    indexes, a slice is a MatrixStack, and a stack equals any list, tuple or
    stack of equal matrices in the same order.
    """

    __slots__ = ("_a",)

    def __init__(self, stack: np.ndarray):
        a = np.ascontiguousarray(stack, dtype=np.float64)
        a.setflags(write=False)
        self._a = a

    def __len__(self) -> int:
        return len(self._a)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return MatrixStack(self._a[i])
        return _view(self._a[i])

    def __iter__(self):
        return map(_view, self._a)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (MatrixStack, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"MatrixStack({self._a.tolist()!r})"


@dataclass(frozen=True)
class BlockSpec:
    """1-based inclusive submatrix bounds: rows row_lo..row_hi, cols col_lo..col_hi."""

    row_lo: int
    row_hi: int
    col_lo: int
    col_hi: int

    def __post_init__(self):
        if not (1 <= self.row_lo <= self.row_hi and 1 <= self.col_lo <= self.col_hi):
            raise IndexOutOfRange(f"malformed block {self}")

    def check_host(self, rows: int, cols: int) -> None:
        if self.row_hi > rows or self.col_hi > cols:
            raise IndexOutOfRange(f"block {self} outside {rows}x{cols} host")

    @property
    def block_rows(self) -> int:
        return self.row_hi - self.row_lo + 1

    @property
    def block_cols(self) -> int:
        return self.col_hi - self.col_lo + 1

    @cached_property
    def index(self) -> tuple[slice, slice]:
        """The 0-based (row slice, column slice) of the block, made once per spec."""
        return slice(self.row_lo - 1, self.row_hi), slice(self.col_lo - 1, self.col_hi)


def json_entries(key: str, value):
    """value, if every leaf of its nested lists is a JSON number; else TypeError.

    File parsers call this first: :class:`Matrix` would coerce true or "1" to a float.
    """
    pending = [value]
    while pending:
        v = pending.pop()
        if isinstance(v, list):
            pending.extend(v)
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            raise TypeError(f"{key} entries must be JSON numbers, got {v!r}")
    return value


def identity(m: int) -> Matrix:
    """The m-by-m identity."""
    if m < 1:
        raise ShapeMismatch("identity size must be >= 1")
    return Matrix.from_array(np.eye(m))


def eye_block(rows: int, cols: int, block: BlockSpec, value: float = 1.0) -> Matrix:
    """rows-by-cols zeros with value * I in a square block (-1 leaves -0.0 off its diagonal)."""
    k = block.block_rows
    if block.block_cols != k:
        raise ShapeMismatch(f"identity block {block} is not square")
    block.check_host(rows, cols)
    out = np.zeros((rows, cols))
    out[block.index] = value * np.eye(k)
    return Matrix.from_array(out)


def zeros(m: int, n: int) -> Matrix:
    """The m-by-n zero matrix."""
    if m < 1 or n < 1:
        raise ShapeMismatch("zero-matrix dimensions must be >= 1")
    return Matrix.from_array(np.zeros((m, n)))


def ones(m: int, n: int) -> Matrix:
    """The m-by-n all-ones matrix."""
    if m < 1 or n < 1:
        raise ShapeMismatch("ones-matrix dimensions must be >= 1")
    return Matrix.from_array(np.ones((m, n)))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product a @ b."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    return Matrix.from_array(a.array @ b.array)


_DOT = getattr(np.dot, "_implementation", np.dot)


def product_for(rows: int, inner: int):
    """np.dot or np.matmul, whichever computes a rows-by-inner times inner-by-k product as @ does.

    From two rows and two inner terms up, np.dot makes the BLAS gemv or gemm
    call that @ makes, with less dispatch, and it is returned. Below that the
    two part ways. np.dot takes a one-entry factor as a scalar: a zero
    product can keep its minus sign, and a zero scalar is skipped, so that
    0 * inf gives 0. It also has BLAS form a one-column by one-row product
    where @ adds each term to 0.0, and sends a one-row factor to another
    gemv. There np.matmul, the function behind @, is returned. np.dot is
    returned as its _implementation where numpy has one: the same C function
    without the __array_function__ dispatch, which no plain ndarray needs.
    """
    return _DOT if rows > 1 and inner > 1 else np.matmul


outer_product = _DOT
"""np.dot, without dispatch as in product_for, on an r-by-1 column and a 1-by-c row.

It makes one BLAS call where a broadcast column * row makes one inner
loop per row, and it is not @: @ adds each product to 0.0. What it
computes differs from the broadcast multiply as follows.

From two rows up, every entry is the product a * b rounded once, and it
can differ from the multiply only in the sign of a zero: 0 * -0.0 gives
+0.0 here and -0.0 there, while a negative product that underflows keeps
its -0.0 in both. NaN and inf land in the same places, 0 * inf is NaN.

With one row, the column is taken as a scalar, and a zero scalar is
skipped: the result is +0.0 everywhere, also against an inf or a NaN,
where the multiply gives NaN. A nonzero scalar behaves as from two rows.

outer_product(a, b, out), with out a C-contiguous r-by-c float64 array that
shares no memory with a or b, writes every entry of out with the bits the
allocating call returns, the skipped zero included, and returns out.
"""


def transpose(a: Matrix) -> Matrix:
    return Matrix.from_array(a.array.T.copy())


def add(a: Matrix, b: Matrix) -> Matrix:
    """Elementwise sum."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"cannot add {a.shape} and {b.shape}")
    return Matrix.from_array(a.array + b.array)


def scale(a: Matrix, c: float) -> Matrix:
    """Scalar multiple c * a."""
    return Matrix.from_array(c * a.array)


def hadamard(a: Matrix, b: Matrix) -> Matrix:
    """Elementwise (Hadamard) product."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"cannot hadamard {a.shape} and {b.shape}")
    return Matrix.from_array(a.array * b.array)


def block_read(a: Matrix, s: BlockSpec) -> Matrix:
    """Copy of the submatrix a[row_lo:row_hi, col_lo:col_hi] (1-based, inclusive)."""
    s.check_host(a.rows, a.cols)
    return Matrix.from_array(a.array[s.index].copy())


def block_write(a: Matrix, s: BlockSpec, v: Matrix) -> Matrix:
    """New matrix equal to a with the block s replaced by v."""
    s.check_host(a.rows, a.cols)
    if v.shape != (s.block_rows, s.block_cols):
        raise ShapeMismatch(f"value shape {v.shape} does not fill block {s}")
    out = a.to_array()
    out[s.index] = v.array
    return Matrix.from_array(out)

