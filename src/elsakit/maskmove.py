"""Selector matrices and the mask-and-move operation.

A row selector W copies chosen rows of A into chosen positions of an
otherwise-zero matrix via W @ A; a column selector V does the same for
columns via A @ V. Composing both moves a whole submatrix to an offset
position: the mask-and-move operation, whose two selectors are shifted
identity blocks (:func:`elsakit.matrix.eye_block`). Selectors are 0/1
matrices, so moved entries are copied bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .matrix import BlockSpec, IndexOutOfRange, Matrix, eye_block, matmul


class DuplicateTargetRow(ValueError):
    """Two pairs in a row-selector set share a target row."""


class DuplicateTargetColumn(ValueError):
    """Two pairs in a column-selector set share a target column."""


class SpecOutOfRange(ValueError):
    """A mask-and-move or mask spec does not fit its host shape."""


@dataclass(frozen=True)
class IndexPairSet:
    """Set of 1-based (row, col) index pairs defining a selector.

    For a row selector the first components are the target rows and must be
    distinct; for a column selector the second components are the target
    columns and must be distinct. The empty set is legal and yields the
    zero selector.
    """

    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, int]]) -> "IndexPairSet":
        return cls(tuple((int(a), int(b)) for a, b in pairs))


@dataclass(frozen=True)
class MskMovSpec:
    """Source block [i:j, k:l] of an m-by-n host, moved by offsets (a, b).

    All four corners of both the source block and the shifted target block
    must lie inside the host.
    """

    i: int
    j: int
    k: int
    l: int
    m: int
    n: int
    a: int = 0
    b: int = 0

    def __post_init__(self):
        ok = (
            1 <= self.i <= self.j <= self.m
            and 1 <= self.k <= self.l <= self.n
            and 1 <= self.i + self.a
            and self.j + self.a <= self.m
            and 1 <= self.k + self.b
            and self.l + self.b <= self.n
        )
        if not ok:
            raise SpecOutOfRange(f"invalid mask-and-move spec {self}")


@dataclass(frozen=True)
class MaskSpec:
    """A 0/1 mask (or its complement) for one block of an m-by-n host."""

    block: BlockSpec
    m: int
    n: int
    anti: bool = False

    def __post_init__(self):
        try:
            self.block.check_host(self.m, self.n)
        except IndexOutOfRange as exc:
            raise SpecOutOfRange(str(exc)) from exc


def _selector(pairs: IndexPairSet, size: int, target: int) -> Matrix:
    """size-by-size 0/1 matrix with a 1 at each 1-based pair; pair[target] must be distinct."""
    noun, duplicate = (("row", DuplicateTargetRow), ("column", DuplicateTargetColumn))[target]
    out = np.zeros((size, size))
    seen: set[int] = set()
    for pair in pairs.pairs:
        i, j = pair
        if not (1 <= i <= size and 1 <= j <= size):
            raise IndexOutOfRange(f"pair ({i},{j}) outside size {size}")
        if pair[target] in seen:
            raise duplicate(f"target {noun} {pair[target]} selected twice")
        seen.add(pair[target])
        out[i - 1, j - 1] = 1.0
    return Matrix.from_array(out)


def selector_w(k_set: IndexPairSet, m: int) -> Matrix:
    """m-by-m row selector: (W @ A) has row i_k equal to A row j_k, rest zero."""
    return _selector(k_set, m, target=0)


def selector_v(j_set: IndexPairSet, n: int) -> Matrix:
    """n-by-n column selector: (A @ V) has column l_j equal to A column k_j, rest zero."""
    return _selector(j_set, n, target=1)


def mskmov_selectors(spec: MskMovSpec) -> tuple[Matrix, Matrix]:
    """The (W, V) pair realizing mask-and-move as W @ A @ V: two shifted identity blocks.

    W is I on rows i+a..j+a x columns i..j, V is I on rows k..l x columns
    k+b..l+b; the spec has already checked that both blocks fit their hosts.
    """
    w = eye_block(spec.m, spec.m, BlockSpec(spec.i + spec.a, spec.j + spec.a, spec.i, spec.j))
    v = eye_block(spec.n, spec.n, BlockSpec(spec.k, spec.l, spec.k + spec.b, spec.l + spec.b))
    return w, v


def mskmov(a: Matrix, spec: MskMovSpec) -> Matrix:
    """Copy a[i:j, k:l] to position [i+a:j+a, k+b:l+b] of a zero matrix."""
    if a.shape != (spec.m, spec.n):
        raise SpecOutOfRange(f"spec host {spec.m}x{spec.n} != matrix {a.shape}")
    w, v = mskmov_selectors(spec)
    return matmul(matmul(w, a), v)


def mask_matrix(spec: MaskSpec) -> Matrix:
    """0/1 matrix that is 1 on the block (mask) or 1 off the block (anti-mask)."""
    out = np.zeros((spec.m, spec.n))
    out[spec.block.index] = 1.0
    if spec.anti:
        out = 1.0 - out
    return Matrix.from_array(out)
