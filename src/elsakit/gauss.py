"""Gaussian elimination executed as a composition of network components.

The augmented system [F | alpha] is padded with a zero row, then driven to
upper-triangular form by per-column forward-elimination modules and solved
by per-variable backward-substitution modules. Every arithmetic move inside
a module is one of the declared primitives: a mask (componentwise unit), the
1/x^2 activation under a mask, a componentwise affine unit, a plain matrix
product, or a multiplicative skip connection. There is no row exchange:
a too-small pivot raises instead of being repaired.

Each module is evaluated on the static support of its intermediates, which
its MaskSpecs fix: a pivot entry, a column block, one row. Off its support a
component outputs its constant for every finite input (+0.0 for a mask or
divider, I for the affine units), so every component runs on its block
alone, and each multiplicative skip, whose left or right operand is I plus
that block, is a row or column update of the state. A solve costs O(m^3)
and is bitwise the dense evaluation of every module over the whole padded
state, sign of zero included; the tests keep that dense evaluation as the
reference. A module whose updated entries overflow float64 raises
EliminationOverflow.

Each module is one kernel that updates a writable padded ndarray in place,
through NetworkComponent.apply and skip_product. solve runs every kernel on
one copy of the system; a step function runs one on a copy of its state.

Division mode "exact" evaluates the activation as exact 1/x^2; mode "relu"
evaluates it through the piecewise-linear ReLU table, which is the one
approximation in the whole pipeline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .matrix import BlockSpec, Matrix, ShapeMismatch, block_write, json_entries, zeros
from .maskmove import MaskSpec
from .netcomp import (
    NetworkComponent,
    PiecewiseInvSqr,
    default_invsqr,
    make_affine_component,
    make_divider_component,
    make_mask_component,
    skip_product,
)
from .ridge import RidgeProblem, normal_equations, predict

PIVOT_TOLERANCE = 1e-10


class SingularDetected(ArithmeticError):
    """The system cannot be solved by this no-pivoting procedure."""


class PivotBelowTolerance(SingularDetected):
    """A pivot magnitude fell below PIVOT_TOLERANCE."""


class EliminationOverflow(SingularDetected):
    """A module's updated entries overflowed float64 (an inf or NaN appeared)."""


class BadSystemFile(ValueError):
    """A linear system JSON file is malformed."""


@dataclass(frozen=True)
class LinearSystem:
    """F x = alpha with square m-by-m F (m >= 2) and m-by-1 right-hand side."""

    f: Matrix
    alpha: Matrix

    def __post_init__(self):
        m = self.f.rows
        if self.f.cols != m or m < 2:
            raise ShapeMismatch(f"coefficient matrix must be square, m >= 2; got {self.f.shape}")
        if self.alpha.shape != (m, 1):
            raise ShapeMismatch(f"right-hand side must be {m}x1, got {self.alpha.shape}")

    @property
    def m(self) -> int:
        return self.f.rows


@dataclass(frozen=True)
class EliminationState:
    """The padded working matrix, progress, and the division's knot table.

    stage ("forward", k) means columns 1..k are eliminated; ("backward", t)
    means solution entries t..m sit in the last column. The padded last row
    stays exactly zero throughout. table None means exact division; a knot
    table means relu division through it.
    """

    p: Matrix
    stage: tuple[str, int]
    table: Optional[PiecewiseInvSqr] = None

    @property
    def m(self) -> int:
        return self.p.rows - 1


def embed_system(
    sys: LinearSystem, mode: str = "exact", table: Optional[PiecewiseInvSqr] = None
) -> EliminationState:
    """Pad [F | alpha] with a zero last row; entry state of the pipeline.

    Mode "relu" divides through table (default_invsqr() if None); mode
    "exact" takes no table.
    """
    if mode == "relu":
        table = default_invsqr() if table is None else table
    elif mode != "exact":
        raise ValueError(f"division mode must be 'exact' or 'relu', got {mode!r}")
    elif table is not None:
        raise ValueError("exact division takes no knot table")
    m = sys.m
    p = zeros(m + 1, m + 1)
    p = block_write(p, BlockSpec(1, m, 1, m), sys.f)
    p = block_write(p, BlockSpec(1, m, m + 1, m + 1), sys.alpha)
    return EliminationState(p=p, stage=("forward", 0), table=table)


# A divide module's pivot and a fold's solved entry are single entries, kept
# by _ENTRY_MASK on their own 1-by-1 block. Each affine unit's constant reads
# 0 on the block it runs on: the fold entry (t+1, m+1) and the column below a
# pivot lie off the diagonal of I, and z7's constant is I with the pivot
# entry zeroed.
_ENTRY = MaskSpec(BlockSpec(1, 1, 1, 1), 1, 1)
_ENTRY_MASK = make_mask_component(_ENTRY)
_NEGATE = make_affine_component(-1.0, zeros(1, 1))
_PLUS_IDENTITY = make_affine_component(1.0, zeros(1, 1))


@lru_cache(maxsize=8)
def _pivot_divider(table: Optional[PiecewiseInvSqr]) -> NetworkComponent:
    """The divider on a pivot block, once per knot table (None: exact division)."""
    return make_divider_component(_ENTRY, table)


@lru_cache(maxsize=1024)
def _column_units(size: int, k: int) -> tuple[NetworkComponent, NetworkComponent]:
    """The mask (z4) and affine unit (z6 = z5 + I) of forward step k, on its
    column block: rows k+1..m of column k.

    Off the block the mask outputs +0.0 and the affine unit its constant I
    for every finite input, so the block is all of them that needs evaluating.
    """
    below = MaskSpec(BlockSpec(k + 1, size - 1, k, k), size, size)
    mask = make_mask_component(below.restrict(below.block))
    return mask, make_affine_component(1.0, zeros(below.block.block_rows, 1))


@lru_cache(maxsize=1024)
def _clear_unit(size: int, t: int) -> NetworkComponent:
    """Backward step t's anti-mask of the pivot (t, t), on row t: the row z7 @ Q changes."""
    clear = MaskSpec(BlockSpec(t, t, t, t), size, size, anti=True)
    return make_mask_component(clear.restrict(BlockSpec(t, t, 1, size)))


def _divide(table: Optional[PiecewiseInvSqr], pivot: np.ndarray, gamma: int) -> np.ndarray:
    """Divide module on a 1-by-1 pivot: mask it (z), 1/z^2 by the divider (r), gamma * (r @ z).

    Returns gamma / x on the pivot block; the rest of the module's output is
    zero. z is already masked to the pivot, so the divider needs no anti-mask
    passing the rest through.
    """
    z = _ENTRY_MASK.apply(pivot)
    r = _pivot_divider(table).apply(z)
    return skip_product(r, z, side="left", gamma=gamma)


def _check_pivot(table: Optional[PiecewiseInvSqr], value: float, where: str) -> None:
    if abs(value) < PIVOT_TOLERANCE:
        raise PivotBelowTolerance(
            f"pivot {value:.3e} below tolerance {PIVOT_TOLERANCE:.1e} at {where}"
        )
    if table is None and not math.isfinite(value * value):
        raise SingularDetected(f"pivot {value:.3e} at {where} squares to inf in exact division")


def _update(p: np.ndarray, block: tuple, value: np.ndarray, where: str, *, add=False) -> None:
    """A module's update of block (1-based, inclusive) of p in place: value replaces it or is added.

    The updated entries must be finite, else EliminationOverflow. The dense
    product a module stands for adds +0.0 terms to each entry, so it turns
    any -0.0 of the state into +0.0; the final + 0.0 does the same and
    changes no other bit.
    """
    row_lo, row_hi, col_lo, col_hi = block
    view = p[row_lo - 1 : row_hi, col_lo - 1 : col_hi]
    if add:
        view += value
    else:
        view[...] = value
    if not np.isfinite(view).all():
        raise EliminationOverflow(
            f"{where} overflows float64 in rows {row_lo}..{row_hi}, columns {col_lo}..{col_hi}"
        )
    p += 0.0


def _forward_module(p: np.ndarray, k: int, table: Optional[PiecewiseInvSqr]) -> None:
    """Forward step k on the padded state p, in place; see forward_eliminate_step."""
    size = p.shape[0]
    where = f"forward step {k}"
    _check_pivot(table, float(p[k - 1, k - 1]), where)
    below_mask, plus_identity = _column_units(size, k)
    with np.errstate(over="ignore", invalid="ignore"):
        z3 = _divide(table, p[k - 1 : k, k - 1 : k], gamma=-1)
        z4 = below_mask.apply(p[k : size - 1, k - 1 : k])
        z6 = plus_identity.apply(z4 @ z3)
        # z6 @ P = P + (z6 - I) @ P, and z6 - I is the column block z6 holds.
        spread = skip_product(z6, p[k - 1 : k], side="left", gamma=1)
        _update(p, (k + 1, size - 1, 1, size), spread, where, add=True)


def _backward_module(q: np.ndarray, t: int, table: Optional[PiecewiseInvSqr]) -> None:
    """Backward step t on the padded state q, in place; see backward_substitute_step."""
    size = q.shape[0]
    where = f"backward step {t}"
    with np.errstate(over="ignore", invalid="ignore"):
        if t < size - 1:
            # Fold xi_{t+1} into the right-hand side: Q (I - xi e_{t+1,m+1}).
            z2 = _NEGATE.apply(_ENTRY_MASK.apply(q[t : t + 1, size - 1 :]))
            # Q z2 = Q + Q (z2 - I), and z2 - I is the one entry z2 holds.
            spread = skip_product(z2, q[:, t : t + 1], side="right", gamma=1)
            _update(q, (1, size, size, size), spread, where, add=True)
        _check_pivot(table, float(q[t - 1, t - 1]), where)

        z6 = _divide(table, q[t - 1 : t, t - 1 : t], gamma=1)
        z7 = _PLUS_IDENTITY.apply(z6)
        scaled = skip_product(z7, q[t - 1 : t], side="left", gamma=1)
        cleared = _clear_unit(size, t).apply(scaled)
    _update(q, (t, t, 1, size), cleared, where)


def forward_eliminate_step(state: EliminationState, k: int) -> EliminationState:
    """Eliminate column k below the diagonal.

    Mask the pivot, invert its square through the activation, recover the
    negated reciprocal by a multiplicative skip (z3), mask the subdiagonal
    column (z4), form the multiplier column z5 = z4 @ z3, add the identity
    (z6 = I + z5), and multiply the state from the left by z6.

    Each module runs on the support its masks give it: z3 is the pivot
    entry; z4, z5 and z6 - I are rows k+1..m of column k. So z6 @ P keeps
    every row but k+1..m and adds z5 times row k to those: a row update
    that never touches the padded row. An update that is not finite raises
    EliminationOverflow.
    """
    m = state.m
    if state.stage[0] != "forward" or not (1 <= k <= m - 1) or state.stage[1] < k - 1:
        raise ValueError(f"cannot run forward step {k} from stage {state.stage}")
    p = state.p.to_array()
    _forward_module(p, k, state.table)
    return EliminationState(Matrix.from_array(p), ("forward", max(state.stage[1], k)), state.table)


def backward_substitute_step(state: EliminationState, t: int) -> EliminationState:
    """Materialize solution entry t in the last column.

    For t == m this is the pure divide module. For t < m the previously
    solved entry t+1 is first folded into the right-hand-side column, then
    the divide module runs at (t, t); an anti-mask keeps earlier solution
    entries in place.

    Each module runs on its support. The fold Q (I - xi e_{t+1,m+1}) adds
    -xi times column t+1 to column m+1 and keeps the rest. The divide
    module's z6 is the pivot entry, so z7 is I with (t, t) replaced, z7 @ Q
    scales row t, and the anti-mask, run on that row, clears (t, t). An
    update that is not finite raises EliminationOverflow.
    """
    m = state.m
    expected = ("forward", m - 1) if t == m else ("backward", t + 1)
    if state.stage != expected:
        raise ValueError(f"cannot solve variable {t} from stage {state.stage}")
    q = state.p.to_array()
    _backward_module(q, t, state.table)
    return EliminationState(Matrix.from_array(q), ("backward", t), state.table)


def solve(
    sys: LinearSystem, mode: str = "exact", table: Optional[PiecewiseInvSqr] = None
) -> tuple[Matrix, dict]:
    """Run the full component pipeline; return the solution and a report.

    The report carries the pivot sequence, the infinity-norm residual, the
    relative gap to a partial-pivot dense solve, and, in relu mode, flags
    for pivots outside the knot table's matched range.
    """
    state = embed_system(sys, mode=mode, table=table)
    m = sys.m
    pivots: list[float] = []
    flags: list[str] = []
    knot_range = None
    if state.table is not None:
        knot_range = (
            float(state.table.interior_knots[0]),
            float(state.table.interior_knots[-1]),
        )

    def note_pivot(value: float, where: str) -> None:
        pivots.append(value)
        if knot_range and not (knot_range[0] <= abs(value) <= knot_range[1]):
            flags.append(f"pivot_out_of_table_range:{where}:{value!r}")

    # One writable copy of the padded system; every module updates it in place.
    p = state.p.to_array()
    for k in range(1, m):
        note_pivot(float(p[k - 1, k - 1]), f"FE{k}")
        _forward_module(p, k, state.table)
    for t in range(m, 0, -1):
        note_pivot(float(p[t - 1, t - 1]), f"BS{t}")
        _backward_module(p, t, state.table)

    x = Matrix.from_array(p[:m, m:].copy())
    residual = float(np.max(np.abs(sys.f.array @ x.array - sys.alpha.array)))
    try:
        reference = np.linalg.solve(sys.f.array, sys.alpha.array)
        rel_error = float(
            np.max(np.abs(x.array - reference)) / max(1.0, np.max(np.abs(reference)))
        )
    except np.linalg.LinAlgError:
        reference = None
        rel_error = None
        flags.append("reference_solve_failed")

    report = {
        "mode": mode,
        "m": m,
        "residual_inf": residual,
        "rel_error_vs_oracle": rel_error,
        "pivots": pivots,
        "flags": flags,
    }
    return x, report


def ridge_via_gauss(
    p: RidgeProblem, mode: str = "exact", table: Optional[PiecewiseInvSqr] = None
) -> tuple[Matrix, float]:
    """Solve the normal equations (X^T X + lam I) w = X^T y with the pipeline."""
    w, _ = solve(LinearSystem(*normal_equations(p)), mode=mode, table=table)
    return w, predict(w, p.u)


def system_to_json(sys: LinearSystem) -> str:
    doc = {"F": sys.f.array.tolist(), "alpha": sys.alpha.array[:, 0].tolist()}
    return json.dumps(doc, sort_keys=True, indent=2)


def system_from_json(text: str) -> LinearSystem:
    """Parse {"F", "alpha"}; every malformed document raises BadSystemFile."""
    try:
        doc = json.loads(text)
        f = Matrix(json_entries("F", doc["F"]))
        return LinearSystem(f=f, alpha=Matrix.column(json_entries("alpha", doc["alpha"])))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BadSystemFile(f"malformed linear system: {exc}") from exc


def load_system(path: str) -> LinearSystem:
    with open(path) as fh:
        return system_from_json(fh.read())
