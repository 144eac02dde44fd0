"""Gaussian elimination executed as a composition of network components.

The augmented system [F | alpha] is padded with a zero row, then driven to
upper-triangular form by per-column forward-elimination modules and solved
by per-variable backward-substitution modules. Every arithmetic move inside
a module is one of the declared primitives: a mask (componentwise unit), the
1/x^2 activation under a mask, a componentwise affine unit, a plain matrix
product, or a multiplicative skip connection. There is no row exchange:
a too-small pivot raises instead of being repaired.

Division mode "exact" evaluates the activation as exact 1/x^2; mode "relu"
evaluates it through the piecewise-linear ReLU table, which is the one
approximation in the whole pipeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .matrix import (
    BlockSpec,
    Matrix,
    ShapeMismatch,
    block_read,
    block_write,
    identity,
    json_entries,
    matmul,
    zeros,
)
from .maskmove import MaskSpec
from .netcomp import (
    PiecewiseInvSqr,
    component_forward,
    default_invsqr,
    make_affine_component,
    make_divider_component,
    make_mask_component,
    skip_mul,
)
from .ridge import RidgeProblem, predict

PIVOT_TOLERANCE = 1e-10


class SingularDetected(ArithmeticError):
    """The system cannot be solved by this no-pivoting procedure."""


class PivotBelowTolerance(SingularDetected):
    """A pivot magnitude fell below PIVOT_TOLERANCE."""


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


def _divide(state: EliminationState, x: Matrix, pivot: BlockSpec, gamma: int) -> Matrix:
    """Divide module: mask the pivot (z), 1/z^2 by the divider (r), gamma * (r @ z).

    The result is gamma / x at the pivot and zero elsewhere. z is already masked
    to the pivot, so the divider needs no anti-mask passing the rest through.
    """
    size = x.rows
    spec = MaskSpec(pivot, size, size)
    z = component_forward(x, make_mask_component(spec))
    r = component_forward(z, make_divider_component(spec, state.table))
    return skip_mul(r, z, side="left", gamma=gamma)


def _check_pivot(state: EliminationState, value: float, where: str) -> None:
    if abs(value) < PIVOT_TOLERANCE:
        raise PivotBelowTolerance(
            f"pivot {value:.3e} below tolerance {PIVOT_TOLERANCE:.1e} at {where}"
        )
    if state.table is None and not np.isfinite(value * value):
        raise SingularDetected(f"pivot {value:.3e} at {where} squares to inf in exact division")


def _eye_without(size: int, idx: int) -> Matrix:
    """Identity with the (idx, idx) entry zeroed."""
    return block_write(identity(size), BlockSpec(idx, idx, idx, idx), zeros(1, 1))


def forward_eliminate_step(state: EliminationState, k: int) -> EliminationState:
    """Eliminate column k below the diagonal.

    Mask the pivot, invert its square through the activation, recover the
    negated reciprocal by a multiplicative skip, mask the subdiagonal
    column, form the multiplier column, add the identity, and multiply the
    whole state from the left.
    """
    m = state.m
    size = m + 1
    if state.stage[0] != "forward" or not (1 <= k <= m - 1) or state.stage[1] < k - 1:
        raise ValueError(f"cannot run forward step {k} from stage {state.stage}")
    _check_pivot(state, state.p.get(k, k), f"forward step {k}")

    z3 = _divide(state, state.p, BlockSpec(k, k, k, k), gamma=-1)
    z4 = component_forward(
        state.p, make_mask_component(MaskSpec(BlockSpec(k + 1, m, k, k), size, size))
    )
    z5 = matmul(z4, z3)
    z6 = component_forward(z5, make_affine_component(1.0, identity(size)))
    p_next = skip_mul(z6, state.p, side="left", gamma=1)
    return replace(state, p=p_next, stage=("forward", max(state.stage[1], k)))


def backward_substitute_step(state: EliminationState, t: int) -> EliminationState:
    """Materialize solution entry t in the last column.

    For t == m this is the pure divide module. For t < m the previously
    solved entry t+1 is first folded into the right-hand-side column, then
    the divide module runs at (t, t); an anti-mask keeps earlier solution
    entries in place.
    """
    m = state.m
    size = m + 1
    if t == m:
        if state.stage != ("forward", m - 1):
            raise ValueError(f"cannot solve variable {m} from stage {state.stage}")
        q = state.p
    else:
        if state.stage != ("backward", t + 1):
            raise ValueError(f"cannot solve variable {t} from stage {state.stage}")
        # Fold xi_{t+1} into the right-hand side: Q (I - xi e_{t+1,m+1}).
        z1 = component_forward(
            state.p,
            make_mask_component(MaskSpec(BlockSpec(t + 1, t + 1, size, size), size, size)),
        )
        z2 = component_forward(z1, make_affine_component(-1.0, identity(size)))
        q = skip_mul(z2, state.p, side="right", gamma=1)
    _check_pivot(state, q.get(t, t), f"backward step {t}")

    pivot = BlockSpec(t, t, t, t)
    z6 = _divide(state, q, pivot, gamma=1)
    z7 = component_forward(z6, make_affine_component(1.0, _eye_without(size, t)))
    prod = skip_mul(z7, q, side="left", gamma=1)
    q_next = component_forward(prod, make_mask_component(MaskSpec(pivot, size, size, anti=True)))
    return replace(state, p=q_next, stage=("backward", t))


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
    xt = p.x.array.T
    f = Matrix.from_array(xt @ p.x.array + p.lam * np.eye(p.d))
    b = Matrix.from_array(xt @ p.y.array)
    w, _ = solve(LinearSystem(f=f, alpha=b), mode=mode, table=table)
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
