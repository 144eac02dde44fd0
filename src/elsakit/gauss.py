"""Gaussian elimination executed as a composition of network components.

The augmented system [F | alpha] is padded with a zero row, then driven to
upper-triangular form by per-column forward-elimination modules and solved
by per-variable backward-substitution modules. Every arithmetic move inside
a module is one of the declared primitives: a mask (componentwise unit), the
1/x^2 activation under a mask, a componentwise affine unit, a plain matrix
product, or a multiplicative skip connection. There is no row exchange:
a too-small pivot raises instead of being repaired.

Each module is evaluated on the static support of its intermediates, which
its masks fix: a pivot entry, a column block, one row. Off its support a
component outputs its constant for every finite input (+0.0 for a mask or
divider, I for the affine units), so every component runs on its block
alone, and each multiplicative skip, whose left or right operand is I plus
that block, is a row or column update of the state. On its block every
component is a constant: a mask or divider keeps each entry (V = 1) and an
affine unit adds 0 (C = 0), so each is a shape-free component. A solve
costs O(m^3) and is bitwise the dense evaluation of every module over the
whole padded state, sign of zero included; the tests keep that dense
evaluation as the reference. A module whose updated entries overflow
float64 raises EliminationOverflow.

Each sweep is one kernel, _forward_sweep or _backward_sweep, which updates
the padded state of a pooled per-size workspace in place. solve fills that
state from F and alpha itself; a step function copies its state in. The
kernels' docstrings argue that each module's body is bitwise its dense
module. Both divide through one divide module, _divide_pivot. solve checks
for overflow once and checks and divides each pivot once (see solve and
_backward_sweep).

Division mode "exact" evaluates the activation as exact 1/x^2; mode "relu"
evaluates it through the piecewise-linear ReLU table, which is the one
approximation in the whole pipeline.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .matrix import Matrix, ShapeMismatch, json_entries, outer_product
from .netcomp import (
    NetworkComponent,
    PiecewiseInvSqr,
    default_invsqr,
    make_divider_component,
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


def _division_table(mode: str, table: Optional[PiecewiseInvSqr]) -> Optional[PiecewiseInvSqr]:
    """The knot table that division in mode divides through, or None for exact division.

    Mode "relu" takes table, default_invsqr() if None; mode "exact" takes no
    table.
    """
    if mode == "relu":
        return default_invsqr() if table is None else table
    if mode != "exact":
        raise ValueError(f"division mode must be 'exact' or 'relu', got {mode!r}")
    if table is not None:
        raise ValueError("exact division takes no knot table")
    return None


def embed_system(
    sys: LinearSystem, mode: str = "exact", table: Optional[PiecewiseInvSqr] = None
) -> EliminationState:
    """Pad [F | alpha] with a zero last row; entry state of the pipeline.

    Mode "relu" divides through table (default_invsqr() if None); mode
    "exact" takes no table.
    """
    table = _division_table(mode, table)
    m = sys.m
    p = np.zeros((m + 1, m + 1))
    p[:m, :m] = sys.f.array
    p[:m, m:] = sys.alpha.array
    return EliminationState(p=Matrix.from_array(p), stage=("forward", 0), table=table)


@lru_cache(maxsize=8)
def _pivot_divider(table: Optional[PiecewiseInvSqr]) -> NetworkComponent:
    """The divider on a pivot, once per knot table (None: exact division)."""
    return make_divider_component(None, table)


def _divide_pivot(divide: NetworkComponent, value: float, step: str, index: int) -> float:
    """The divide module on a pivot: check it, mask it, 1/x^2 through divide, skip to 1/x.

    A pivot below PIVOT_TOLERANCE raises PivotBelowTolerance; in exact
    division, one whose square is not finite raises SingularDetected.
    """
    if abs(value) < PIVOT_TOLERANCE:
        raise PivotBelowTolerance(
            f"pivot {value:.3e} below tolerance {PIVOT_TOLERANCE:.1e} at {step} {index}"
        )
    if divide.table is None and not math.isfinite(value * value):
        raise SingularDetected(
            f"pivot {value:.3e} at {step} {index} squares to inf in exact division"
        )
    z = value + 0.0  # mask
    r = float(divide(np.float64(z)))
    return r * z + 0.0  # skip product, gamma 1


def _overflow(step: str, index: int, block: tuple) -> EliminationOverflow:
    """The error for a module whose update of block (1-based, inclusive) is not finite."""
    row_lo, row_hi, col_lo, col_hi = block
    return EliminationOverflow(
        f"{step} {index} overflows float64 in rows {row_lo}..{row_hi}, columns {col_lo}..{col_hi}"
    )


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite."""
    # Any inf or NaN entry makes the sum non-finite; a sum that overflows
    # from finite entries is decided by the entrywise test.
    return math.isfinite(np.add.reduce(a, axis=None)) or bool(np.isfinite(a).all())


# The 0-d zero each + 0.0 on an array adds (see _forward_sweep).
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


class _Workspace:
    """A padded state and the views and buffers of both sweep kernels, made once.

    p is a writable C-contiguous (m+1)-by-(m+1) float64 state, which the
    kernels update in place; flat is a 'd' memoryview of it, for reading
    and writing one entry as a Python float; s is the 0-d buffer through
    which a scalar reaches an array ufunc. column is column m+1, which the
    fold adds to through the fold buffer. forward[k - 1] holds forward step
    k's views: the column below pivot k, the multiplier buffer for it, 1-d
    and as a column, pivot row k, the rows below it and the spread buffer
    for them. backward[t - 1] holds backward step t's row t and the column
    t+1 its fold reads (None at t = m, which has no fold).

    A workspace holds about 2(m+1)^2 float64 (the state and the spread
    buffer) and about 8m view objects, which take as much again at m = 64:
    136 KB in all under tracemalloc, 34 KB at m = 24.
    """

    __slots__ = ("p", "flat", "s", "column", "fold", "forward", "backward")

    def __init__(self, p: np.ndarray):
        size = p.shape[0]
        m = size - 1
        multipliers = np.empty(m - 1)
        spread = np.empty((m - 1, size))
        self.p = p
        self.flat = memoryview(p).cast("B").cast("d")
        self.s = np.zeros(())
        self.column = p[:, m]
        self.fold = np.empty(size)
        self.forward = [(p[k:m, k - 1], multipliers[: m - k], multipliers[: m - k][:, None],
                         p[k - 1 : k], p[k:m], spread[: m - k]) for k in range(1, m)]
        self.backward = [(p[t - 1], p[:, t] if t < m else None) for t in range(1, m + 1)]


# Idle workspaces by size, at most one per size and 8 sizes, as
# _pivot_divider's cache, under a lock: a solve takes one out, so no
# concurrent solve can hold it, and gives it back when it ends.
_WORKSPACES: dict[int, _Workspace] = {}
_WORKSPACES_LOCK = threading.Lock()


def _take(m: int) -> _Workspace:
    """An idle workspace for m-by-m systems, or a new one; the caller must _give it back."""
    with _WORKSPACES_LOCK:
        w = _WORKSPACES.pop(m, None)
    return _Workspace(np.empty((m + 1, m + 1))) if w is None else w


def _give(w: _Workspace) -> None:
    """Keep w as its size's idle workspace, and drop the least recently given size past 8."""
    with _WORKSPACES_LOCK:
        m = w.p.shape[0] - 1
        _WORKSPACES.pop(m, None)
        _WORKSPACES[m] = w
        if len(_WORKSPACES) > 8:
            del _WORKSPACES[next(iter(_WORKSPACES))]


def _forward_sweep(w: _Workspace, ks, table: Optional[PiecewiseInvSqr], *,
                   check: bool) -> tuple[list[float], list[float]]:
    """Forward steps ks, in order, on w's state, in place; see forward_eliminate_step.

    Returns each step's pivot x and its 1/x from _divide_pivot, as floats,
    for the backward step that divides the same pivot. With check, each
    update must be finite, else EliminationOverflow names its module. The
    caller holds np.errstate(over="ignore", invalid="ignore"), so an
    overflow is found, here or by solve, and not warned about.

    Why both kernels compute their dense modules' bits:

    1. The components, written out. Each mask keeps all of the block it
       runs on (the pivot, the column below it, the fold's solved entry;
       the backward anti-mask all of row t but the pivot), and each affine
       unit's constant reads 0 there: the fold entry (t+1, m+1) and the
       column below a pivot lie off the diagonal of I, and z7's constant is
       I with the pivot entry zeroed. So the mask and the +1 affine unit
       are a + 0.0, apply's head sum from +0.0, and the -1 unit is
       -1.0 * a + 0.0 (not -a, which flips a NaN's sign bit). A skip
       product has inner dimension 1, where @ adds each entry's one term to
       0.0 ([[-0.0]] @ [[1.0]] is +0.0), and x + 0.0 is 0.0 + x: on two
       scalars it is q = r * z + 0.0, _divide_pivot's 1/x, so z3 is -1.0 * q
       and z7 q + 0.0; with an array operand the broadcast product plus
       0.0. The divider, the one approximation, is the one component a
       kernel calls (in _divide_pivot), on an np.float64, so a recording or
       dense hook on it sees a shape.
    2. Dropped no-ops. The mask on the column below the pivot goes:
       (c + 0.0) * z3 + 0.0 is c * z3 + 0.0, as the two products differ at
       most in the sign of a zero, which the + 0.0 clears. The backward
       kernel drops the mask on its scaled row and the + 0.0 of its fold
       and row scale (see 3).
    3. No -0.0 in solve's state between calls. x + y is -0.0 only if x
       and y both are, a product plus 0.0 never is, and the forward spread
       is added to rows that hold none. solve adds 0.0 to rows 2..m before
       its sweep, which changes no bit: (a + 0.0) + b is a + (b + 0.0), and
       the column below the pivot is read as c * z3 + 0.0. The backward
       kernel drops the + 0.0 of its fold and its row scale. Inside a
       backward call, either may then leave -0.0 only on an entry whose
       value is zero, where its module leaves +0.0. A zero's sign never
       reaches a nonzero entry: x + (-0.0) is x and a zero times anything
       is a zero or NaN. It never reaches a NaN's bits: 0 * inf gives the
       default NaN for either sign. It never reaches a pivot or xi, which
       are read through + 0.0. The call ends by adding 0.0 to the whole
       state, which clears it and changes no other bit. A step function's
       input may hold -0.0 anywhere, so it adds 0.0 to its whole state
       once, after its kernel.
    4. The spread. z6 @ row has inner dimension 1, and is computed as
       matrix.outer_product(z6, row, spread), np.dot's BLAS outer product
       into the spread buffer, for every k: one product per entry, where @
       adds each to 0.0. Each entry is the product rounded once, so it
       differs from @'s only in a zero's sign (a negative product that
       underflows stays -0.0, where @ gives +0.0), which rows free of -0.0
       absorb, by 3. With one row, at k = m - 1, np.dot takes z6 as a
       scalar and skips it where it is zero: 0 * inf gives 0 where @ gives
       NaN. That changes a bit only where pivot row m - 1 already holds an
       inf or NaN, which stays non-finite to the end. In the unchecked
       pass the state then still ends non-finite, and solve replays it. In
       a checked pass that entry came from an earlier checked update,
       which raised first, or from the input, which Matrix refuses.
    5. The multiplier column z6 is c * z3, without the +1 affine unit's
       + 0.0. The two differ only where c * z3 is -0.0, and there each
       spread entry is a zero of either sign (or, from two rows up, the
       NaN of 0 * inf either way; with one row, both zeros are skipped),
       so the sum differs at most in the sign of a zero, which 3 clears.
    6. The workspace's scalars and operands. The chain on the pivot (the
       mask and skip product in _divide_pivot, z3, z7, the fold's xi and
       the anti-mask entry) runs on Python floats: their + and * are the
       IEEE binary64 operations of numpy's float64 scalar math, inf and NaN
       included, and the chain has no division or power, so nothing in it
       raises. A scalar reaches an array ufunc through the 0-d buffer, and
       + 0.0 on an array adds the 0-d _ZERO: numpy makes a scalar operand a
       0-d array itself, so the ufunc runs the same loop on the same bits.
       outer_product with out= computes what the allocating call does, the
       one-row case that skips a zero multiplier included (tested in
       tests/test_matrix.py). A 'd' memoryview read or write moves an
       entry's 8 bytes unchanged. What a workspace held before cannot
       matter: solve fills the whole state, F, alpha and a +0.0 padded row,
       a step function copies its state in whole, and each module writes
       every buffer entry it later reads.
    """
    add, multiply = np.add, np.multiply
    size = w.p.shape[0]
    flat, s, forward = w.flat, w.s, w.forward
    divide = _pivot_divider(table)
    pivots, rs = [], []
    for k in ks:
        value = flat[(k - 1) * (size + 1)]
        pivots.append(value)
        q = _divide_pivot(divide, value, "forward step", k)
        rs.append(q)
        s[()] = -1.0 * q  # z3: the skip product's gamma -1
        column, z6, z6_column, pivot_row, rows, spread = forward[k - 1]
        # z4 @ z3, without the +1 affine unit's + 0.0 (item 5 above).
        multiply(column, s, z6)
        # z6 @ P = P + (z6 - I) @ P, and z6 - I is the column block z6 holds.
        outer_product(z6_column, pivot_row, spread)
        add(rows, spread, rows)
        if check and not _finite(rows):
            raise _overflow("forward step", k, (k + 1, size - 1, 1, size))
    return pivots, rs


def _backward_sweep(w: _Workspace, ts, table: Optional[PiecewiseInvSqr], rs, *,
                    check: bool) -> list[float]:
    """Backward steps ts, in order, on w's state, in place; see backward_substitute_step.

    Returns each step's pivot, as a float. Each module's body is its dense
    module's up to the sign of a zero, by the argument in _forward_sweep's
    docstring. The fold and the row scale are products with no + 0.0, and
    the mask on the scaled row is dropped: each may leave -0.0 where its
    module leaves +0.0, on an entry whose value is zero, and the call ends
    with one + 0.0 on the whole state, which clears every such sign (item
    3). The anti-mask's 0 weight at the pivot can give -0.0, and its + 0.0
    is kept there. The row is scaled in place: each entry is read once, by
    its own product.

    z7 is rs[t - 1] + 0.0, where rs has it, forward step t's 1/x, with no
    second check or divide: the diagonal is final once its row is
    eliminated, as later forward steps write only the rows below, the fold
    only column m+1, and the row scale comes after the divide, so the
    forward step checked and divided this very entry. Any other pivot
    (pivot m in solve, each in a step function) goes through _divide_pivot
    here, after the fold, so a fold that overflows raises first.
    """
    add, multiply, zero = np.add, np.multiply, _ZERO
    size = w.p.shape[0]
    flat, s, column, fold, backward = w.flat, w.s, w.column, w.fold, w.backward
    divide = _pivot_divider(table)
    pivots: list[float] = []
    for t in ts:
        row, folded = backward[t - 1]
        if folded is not None:
            # Fold xi_{t+1} into the right-hand side: Q (I - xi e_{t+1,m+1}).
            s[()] = -1.0 * (flat[t * size + size - 1] + 0.0) + 0.0  # mask, then the -1 affine unit
            # Q z2 = Q + Q (z2 - I), and z2 - I is the one entry z2 holds.
            multiply(folded, s, fold)
            add(column, fold, column)
            if check and not _finite(column):
                raise _overflow("backward step", t, (1, size, size, size))
        i = (t - 1) * (size + 1)
        value = flat[i]
        pivots.append(value)
        q = rs[t - 1] if t <= len(rs) else _divide_pivot(divide, value, "backward step", t)
        s[()] = q + 0.0  # z7: the +1 affine unit
        multiply(s, row, row)
        # The anti-mask's V is 0 at the pivot: 0 times the scaled entry, plus
        # 0.0, or NaN if that entry is not finite.
        flat[i] = flat[i] * 0.0 + 0.0
        if check and not _finite(row):
            raise _overflow("backward step", t, (t, t, 1, size))
    add(w.p, zero, w.p)
    return pivots


def _run_step(state: EliminationState, kernel, *args) -> np.ndarray:
    """Run kernel(w, *args, check=True) on a pooled workspace holding state.

    Returns a new array, the result plus 0.0, which clears any -0.0 (see
    _forward_sweep).
    """
    w = _take(state.m)
    try:
        np.copyto(w.p, state.p.array)
        with np.errstate(over="ignore", invalid="ignore"):
            kernel(w, *args, check=True)
        return np.add(w.p, _ZERO)
    finally:
        _give(w)


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
    p = _run_step(state, _forward_sweep, (k,), state.table)
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
    q = _run_step(state, _backward_sweep, (t,), state.table, ())
    return EliminationState(Matrix.from_array(q), ("backward", t), state.table)


def solve(
    sys: LinearSystem, mode: str = "exact", table: Optional[PiecewiseInvSqr] = None
) -> tuple[Matrix, dict]:
    """Run the full component pipeline; return the solution and a report.

    The report carries the pivot sequence, the infinity-norm residual, the
    relative gap to a partial-pivot dense solve, and, in relu mode, flags
    for pivots outside the knot table's matched range. A gap that is not
    finite, or a dense solve that fails, is None with the flag
    "reference_solve_failed".

    solve takes a workspace of its size from the pool, fills its state from
    F and alpha, with a +0.0 padded row, and runs both kernels under one
    np.errstate, unchecked, dividing each pivot once (see _backward_sweep).
    It then checks the finished state once for inf and NaN. An update is
    made in place from the entries it replaces, so a non-finite entry never
    becomes finite again, and up to its failure the unchecked pass computes
    the checked pass's bits. So if the state ends non-finite, or a pivot is
    refused, solve fills the state in again and replays both sweeps
    checked, which raises a step function's error at the first module that
    overflowed or at the refused pivot.
    """
    table = _division_table(mode, table)
    m = sys.m

    def sweep(check: bool) -> list[float]:
        """Both sweep kernels on the workspace, from the padded system filled in afresh."""
        p = w.p
        p[:m, :m] = sys.f.array
        p[:m, m:] = sys.alpha.array
        p[m] = 0.0  # the padded row, which a failed solve's fold may have left non-finite
        lower = p[1:m]
        np.add(lower, _ZERO, lower)  # rows 2..m free of -0.0; see _forward_sweep
        pivots, rs = _forward_sweep(w, range(1, m), table, check=check)
        return pivots + _backward_sweep(w, range(m, 0, -1), table, rs, check=check)

    # Entries near 1e308 can overflow the residual, the dense solve or the
    # gap; the report carries such a value instead of a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        w = _take(m)
        try:
            try:
                pivots = sweep(check=False)
                failed = not _finite(w.p)
            except SingularDetected:
                failed = True
            if failed:
                pivots = sweep(check=True)
            x = Matrix.from_array(w.p[:m, m:].copy())
        finally:
            _give(w)
        residual = float(np.max(np.abs(sys.f.array @ x.array - sys.alpha.array)))
        try:
            reference = np.linalg.solve(sys.f.array, sys.alpha.array)
            rel_error = float(
                np.max(np.abs(x.array - reference)) / max(1.0, np.max(np.abs(reference)))
            )
        except np.linalg.LinAlgError:
            rel_error = math.nan
    flags = []
    if table is not None:
        lo, hi = float(table.interior_knots[0]), float(table.interior_knots[-1])
        # pivots holds forward steps 1..m-1, then backward steps m..1; only a
        # pivot out of range gets its step's tag.
        for i, value in enumerate(pivots):
            if not lo <= abs(value) <= hi:
                tag = f"FE{i + 1}" if i < m - 1 else f"BS{2 * m - 1 - i}"
                flags.append(f"pivot_out_of_table_range:{tag}:{value!r}")
    if not math.isfinite(rel_error):
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
    """Parse {"F", "alpha"}; every malformed document raises BadSystemFile.

    So does one nested past Python's recursion limit.
    """
    try:
        doc = json.loads(text)
        f = Matrix(json_entries("F", doc["F"]))
        return LinearSystem(f=f, alpha=Matrix.column(json_entries("alpha", doc["alpha"])))
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise BadSystemFile(f"malformed linear system: {exc}") from exc


def load_system(path: str) -> LinearSystem:
    with open(path) as fh:
        return system_from_json(fh.read())
