"""Dense float64 matrices with 1-based block conventions.

Everything downstream (selector algebra, attention forwards, elimination
states) is carried by :class:`Matrix`. Storage is a read-only numpy array;
all public block operations take 1-based inclusive indices and convert to
0-based here, nowhere else.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

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
    return Matrix.from_array(
        a.array[s.row_lo - 1 : s.row_hi, s.col_lo - 1 : s.col_hi].copy()
    )


def block_write(a: Matrix, s: BlockSpec, v: Matrix) -> Matrix:
    """New matrix equal to a with the block s replaced by v."""
    s.check_host(a.rows, a.cols)
    if v.shape != (s.block_rows, s.block_cols):
        raise ShapeMismatch(f"value shape {v.shape} does not fill block {s}")
    out = a.to_array()
    out[s.row_lo - 1 : s.row_hi, s.col_lo - 1 : s.col_hi] = v.array
    return Matrix.from_array(out)


def save_csv(a: Matrix, path: str) -> None:
    """Write plain comma-separated rows, no header, '.' decimal point."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in a.array:
            writer.writerow([repr(float(x)) for x in row])


def load_csv(path: str) -> Matrix:
    """Read a matrix written by :func:`save_csv` (scientific notation allowed)."""
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        for record in csv.reader(fh):
            if record:
                rows.append([float(x) for x in record])
    if not rows:
        raise ShapeMismatch(f"no rows in {path}")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ShapeMismatch(f"ragged rows in {path}")
    return Matrix(rows)
