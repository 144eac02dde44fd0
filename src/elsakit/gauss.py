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
divider, I for the affine units), so every component runs through
component_forward on its block alone, and each multiplicative skip, whose
left or right operand is I plus that block, is a row or column update of
the state. A solve costs O(m^3) and is bitwise the dense evaluation of
every module over the whole padded state, sign of zero included; the tests
keep that dense evaluation as the reference. A module whose updated entries
overflow float64 raises EliminationOverflow.

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

from .matrix import (
    BlockSpec,
    Matrix,
    ShapeMismatch,
    block_read,
    block_write,
    json_entries,
    matmul,
    zeros,
)
from .maskmove import MaskSpec
from .netcomp import (
    NetworkComponent,
    PiecewiseInvSqr,
    component_forward,
    default_invsqr,
    make_affine_component,
    make_divider_component,
    make_mask_component,
    skip_mul,
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
def _column_units(size: int, k: int) -> tuple[BlockSpec, NetworkComponent, NetworkComponent]:
    """Forward step k's column block (rows k+1..m of column k) and the mask
    (z4) and affine unit (z6 = z5 + I) evaluated on it.

    Off the block the mask outputs +0.0 and the affine unit its constant I
    for every finite input, so the block is all of them that needs evaluating.
    """
    below = MaskSpec(BlockSpec(k + 1, size - 1, k, k), size, size)
    mask = make_mask_component(below.restrict(below.block))
    return below.block, mask, make_affine_component(1.0, zeros(below.block.block_rows, 1))


@lru_cache(maxsize=1024)
def _clear_unit(size: int, t: int) -> NetworkComponent:
    """Backward step t's anti-mask of the pivot (t, t), on row t: the row z7 @ Q changes."""
    clear = MaskSpec(BlockSpec(t, t, t, t), size, size, anti=True)
    return make_mask_component(clear.restrict(BlockSpec(t, t, 1, size)))


def _divide(state: EliminationState, x: Matrix, pivot: BlockSpec, gamma: int) -> Matrix:
    """Divide module on the pivot: mask it (z), 1/z^2 by the divider (r), gamma * (r @ z).

    Returns the 1-by-1 pivot block, gamma / x there; the rest of the module's
    output is zero. z is already masked to the pivot, so the divider needs no
    anti-mask passing the rest through.
    """
    z = component_forward(block_read(x, pivot), _ENTRY_MASK)
    r = component_forward(z, _pivot_divider(state.table))
    return skip_mul(r, z, side="left", gamma=gamma)


def _check_pivot(state: EliminationState, value: float, where: str) -> None:
    if abs(value) < PIVOT_TOLERANCE:
        raise PivotBelowTolerance(
            f"pivot {value:.3e} below tolerance {PIVOT_TOLERANCE:.1e} at {where}"
        )
    if state.table is None and not math.isfinite(value * value):
        raise SingularDetected(f"pivot {value:.3e} at {where} squares to inf in exact division")


def _update(p: Matrix, block: BlockSpec, value: Matrix, where: str, *, add: bool = False) -> Matrix:
    """p with a module's update on block: value replaces the block, or is added to it.

    Every entry off the block is p's own; the updated entries must be
    finite, else EliminationOverflow. The dense product a module stands for
    adds +0.0 terms to each entry, so it turns any -0.0 into +0.0; the final
    + 0.0 does the same and changes no other bit.
    """
    out = p.to_array()
    view = out[block.row_lo - 1 : block.row_hi, block.col_lo - 1 : block.col_hi]
    if add:
        view += value.array
    else:
        view[...] = value.array
    if not np.isfinite(view).all():
        raise EliminationOverflow(
            f"{where} overflows float64 in rows {block.row_lo}..{block.row_hi}, "
            f"columns {block.col_lo}..{block.col_hi}"
        )
    out += 0.0
    return Matrix.from_array(out)


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
    size = m + 1
    if state.stage[0] != "forward" or not (1 <= k <= m - 1) or state.stage[1] < k - 1:
        raise ValueError(f"cannot run forward step {k} from stage {state.stage}")
    _check_pivot(state, state.p.get(k, k), f"forward step {k}")

    below, below_mask, plus_identity = _column_units(size, k)
    rows = BlockSpec(k + 1, m, 1, size)
    with np.errstate(over="ignore", invalid="ignore"):
        z3 = _divide(state, state.p, BlockSpec(k, k, k, k), gamma=-1)
        z4 = component_forward(block_read(state.p, below), below_mask)
        z6 = component_forward(matmul(z4, z3), plus_identity)
        # z6 @ P = P + (z6 - I) @ P, and z6 - I is the column block z6 holds.
        pivot_row = block_read(state.p, BlockSpec(k, k, 1, size))
        spread = skip_mul(z6, pivot_row, side="left", gamma=1)
        p_next = _update(state.p, rows, spread, f"forward step {k}", add=True)
    return EliminationState(p_next, ("forward", max(state.stage[1], k)), state.table)


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
    size = m + 1
    expected = ("forward", m - 1) if t == m else ("backward", t + 1)
    if state.stage != expected:
        raise ValueError(f"cannot solve variable {t} from stage {state.stage}")
    q = state.p
    with np.errstate(over="ignore", invalid="ignore"):
        if t < m:
            # Fold xi_{t+1} into the right-hand side: Q (I - xi e_{t+1,m+1}).
            xi = block_read(q, BlockSpec(t + 1, t + 1, size, size))
            z2 = component_forward(component_forward(xi, _ENTRY_MASK), _NEGATE)
            # Q z2 = Q + Q (z2 - I), and z2 - I is the one entry z2 holds.
            solved = block_read(q, BlockSpec(1, size, t + 1, t + 1))
            spread = skip_mul(z2, solved, side="right", gamma=1)
            q = _update(q, BlockSpec(1, size, size, size), spread, f"backward step {t}", add=True)
        _check_pivot(state, q.get(t, t), f"backward step {t}")

        z6 = _divide(state, q, BlockSpec(t, t, t, t), gamma=1)
        z7 = component_forward(z6, _PLUS_IDENTITY)
        row = BlockSpec(t, t, 1, size)
        scaled = skip_mul(z7, block_read(q, row), side="left", gamma=1)
        cleared = component_forward(scaled, _clear_unit(size, t))
    q_next = _update(q, row, cleared, f"backward step {t}")
    return EliminationState(q_next, ("backward", t), state.table)


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

    for k in range(1, m):
        note_pivot(state.p.get(k, k), f"FE{k}")
        state = forward_eliminate_step(state, k)
    for t in range(m, 0, -1):
        note_pivot(state.p.get(t, t), f"BS{t}")
        state = backward_substitute_step(state, t)

    x = block_read(state.p, BlockSpec(1, m, m + 1, m + 1))
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
