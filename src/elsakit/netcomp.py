"""One-hidden-layer componentwise units and the ReLU division approximator.

A network component maps an m-by-n matrix X to

    Z = sum_k ( V_k * sigma(W_k * X + B_k) + C_k ),      (* = elementwise)

which is enough to express componentwise affine maps, masks and anti-masks.
Only parameters that vary are matrices; a constant one is a float that numpy
broadcasts with the same per-entry operation, so the result is bitwise the
dense literal sum, and a component of floats alone has no shape and runs on
any input. The multiplicative skip connection rounds out the toolbox; the
additive skip is the pipeline module's own out + h.

Division is approximated by sigma_invsqr, a piecewise-linear even function
built literally as a sum of paired ReLUs (hard sigmoids) that agrees with
1/x^2 at every table knot, holds the first value flat on [-x_1, x_1], and
decays to zero beyond the final cutoff knot. Multiplying by x recovers an
approximation of 1/x. invsqr_eval runs the sum's four ReLU terms as one
ufunc each over the table's stacked knots, for a 0-d pivot and a large
array alike; a table has at most MAX_KNOTS intervals. A divider evaluates
1/x^2 only where its V keeps an entry (see _activate).

The elimination kernels in elsakit.gauss call only the divider component
and write the others out themselves (see gauss._forward_sweep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Sequence, Union

import numpy as np

from .matrix import DimensionMismatch, Matrix, ShapeMismatch, scale
from .maskmove import MaskSpec, mask_matrix


class BadKnotSpec(ValueError):
    """A knot specification is unparsable, non-finite or not increasing/positive."""


@dataclass(frozen=True, eq=False)
class PiecewiseInvSqr:
    """Knot table for the piecewise-linear approximation of 1/x^2.

    knots holds finite x_1 < ... < x_{K}, values the matching finite
    ordinates; the final knot is the cutoff with value 0, every earlier knot
    carries 1/x^2 exactly. x_0 = 0 is implicit and the value is capped at
    values[0] on [-x_1, x_1]. A table compares and hashes by identity, so
    components built from it can be cached per table.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xs, ys = self.knots, self.values
        if xs.ndim != 1 or xs.size < 2 or ys.shape != xs.shape:
            raise BadKnotSpec("need at least two knots with matching values")
        # NaN passes every order comparison below, so check finiteness first.
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise BadKnotSpec("knots and their values must be finite")
        if xs[0] <= 0 or np.any(np.diff(xs) <= 0):
            raise BadKnotSpec("knots must be positive and strictly increasing")
        if np.any(np.diff(ys) >= 0):
            raise BadKnotSpec("knot values must be strictly decreasing")
        if ys[-1] != 0.0:
            raise BadKnotSpec("final knot value must be zero")
        xs.setflags(write=False)
        ys.setflags(write=False)

    @property
    def interior_knots(self) -> np.ndarray:
        """The knots where the table matches 1/x^2 (all but the cutoff)."""
        return self.knots[:-1]

    @property
    def cutoff(self) -> float:
        return float(self.knots[-1])

    @cached_property
    def slopes(self) -> np.ndarray:
        """Per-interval slopes, computed once per table (every divider call reads them)."""
        slopes = np.diff(self.values) / np.diff(self.knots)
        slopes.setflags(write=False)
        return slopes

    @cached_property
    def knot_stack(self) -> np.ndarray:
        """The knots [hi, lo, -hi, -lo] of invsqr_eval's four ReLU terms, shape (4, 1, intervals)."""
        hi, lo = self.knots[1:], self.knots[:-1]
        stack = np.stack([hi, lo, -hi, -lo])[:, None, :]
        stack.setflags(write=False)
        return stack


# The most intervals between f-matched knots a table may have. A block of
# invsqr_eval holds 4 * INVSQR_CHUNK floats per interval (2 KiB), 8 MiB at
# the cap; the gauss sweep's finest table has 256.
MAX_KNOTS = 4096


def build_invsqr(knot_spec: Union[str, Sequence[float]]) -> PiecewiseInvSqr:
    """Build a knot table from a spec string or an explicit knot sequence.

    Accepted forms:

    * "geometric:x1=<f>,xmax=<f>,n=<int>" -- n geometric intervals over
      [x1, xmax], hence n+1 f-matched knots;
    * "explicit:<comma-separated increasing positive floats>";
    * any sequence of floats (same meaning as explicit).

    The zero-valued cutoff knot is appended one ratio step past the last
    f-matched knot. A spec of more than MAX_KNOTS intervals is rejected
    before anything is allocated for it.
    """
    too_many = f"more than MAX_KNOTS = {MAX_KNOTS} knot intervals"
    if isinstance(knot_spec, str):
        kind, _, body = knot_spec.partition(":")
        if kind == "geometric":
            params = {}
            try:
                for item in body.split(","):
                    key, _, value = item.partition("=")
                    params[key.strip()] = value.strip()
                x1 = float(params["x1"])
                xmax = float(params["xmax"])
                n = int(params["n"])
            except (KeyError, ValueError) as exc:
                raise BadKnotSpec(f"bad geometric spec {knot_spec!r}") from exc
            # An infinite xmax would make geomspace warn before the table's check.
            if not (0 < x1 < xmax < math.inf) or n < 1:
                raise BadKnotSpec(f"bad geometric range in {knot_spec!r}")
            if n > MAX_KNOTS:
                raise BadKnotSpec(f"geometric n={n} asks for {too_many}")
            interior = np.geomspace(x1, xmax, n + 1)
        elif kind == "explicit":
            # Each comma separates two knots, so the commas count the intervals.
            if body.count(",") > MAX_KNOTS:
                raise BadKnotSpec(f"explicit spec with {too_many}")
            try:
                interior = np.array([float(v) for v in body.split(",")], dtype=np.float64)
            except ValueError as exc:
                raise BadKnotSpec(f"bad explicit spec {knot_spec!r}") from exc
        else:
            raise BadKnotSpec(f"unknown knot spec kind {kind!r}")
    else:
        if len(knot_spec) > MAX_KNOTS + 1:
            raise BadKnotSpec(f"knot sequence with {too_many}")
        interior = np.asarray(list(knot_spec), dtype=np.float64)

    if interior.size < 2:
        raise BadKnotSpec("need at least two f-matched knots")
    # An inf or NaN made here (overflow, inf - inf) fails the table's finiteness check.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if interior[0] <= 0 or np.any(np.diff(interior) <= 0):
            raise BadKnotSpec("knots must be positive and strictly increasing")
        cutoff = interior[-1] * (interior[-1] / interior[-2])
        values = np.concatenate([1.0 / interior**2, [0.0]])
    return PiecewiseInvSqr(knots=np.concatenate([interior, [cutoff]]), values=values)


DEFAULT_KNOT_SPEC = "geometric:x1=1e-2,xmax=1e2,n=128"


@lru_cache(maxsize=1)
def default_invsqr() -> PiecewiseInvSqr:
    """The table of DEFAULT_KNOT_SPEC, built once and shared (its arrays are read-only)."""
    return build_invsqr(DEFAULT_KNOT_SPEC)


# Points per block in invsqr_eval. A block's stacked temporary holds
# 4 * INVSQR_CHUNK * intervals floats: 264 KiB at the default table's 129
# intervals, which fits in L2.
INVSQR_CHUNK = 64


def invsqr_eval(p: PiecewiseInvSqr, x):
    """Evaluate sigma_invsqr(x) as the literal sum of paired ReLU terms.

    Each knot interval contributes one hard sigmoid on the positive side and
    its mirror on the negative side; no shortcut interpolation is used. The
    four ReLU terms of a point run as one ufunc each on the stacked knots
    K = [hi, lo, -hi, -lo] (t - (-h) is t + h bit for bit), are combined
    as ((r0 - r1) + r2) - r3 and summed over the intervals, row by row.
    Accepts a scalar, which gives a float64 scalar, or an ndarray. Points
    are summed in blocks of INVSQR_CHUNK, so memory stays flat in the number
    of points; each point's sum is independent of the others, so the
    blocking changes no bit.
    """
    arr = np.asarray(x, dtype=np.float64)
    flat = arr.reshape(-1, 1)
    total = np.empty(flat.shape[0])
    stack = p.knot_stack
    al = p.slopes
    for start in range(0, flat.shape[0], INVSQR_CHUNK):
        stop = start + INVSQR_CHUNK
        # In place on one (4, points, intervals) temporary, operands in the sum's order.
        r = flat[start:stop] - stack
        np.multiply(al, r, out=r)
        np.maximum(0.0, r, out=r)
        acc = r[0]
        np.subtract(acc, r[1], out=acc)
        np.add(acc, r[2], out=acc)
        np.subtract(acc, r[3], out=acc)
        acc.sum(axis=-1, out=total[start:stop])
        # Release this block before the next one is allocated, so one block is live at a time.
        del r, acc
    if arr.ndim == 0:
        return total[0]
    return total.reshape(arr.shape)


def approx_reciprocal(p: PiecewiseInvSqr, x):
    """x * sigma_invsqr(x), the multiplicative-skip approximation of 1/x."""
    arr = np.asarray(x, dtype=np.float64)
    out = arr * invsqr_eval(p, arr)
    if arr.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Network components
# ---------------------------------------------------------------------------

ACTIVATIONS = ("relu", "identity_via_relu", "invsqr", "invsqr_exact")


Param = Union[Matrix, float]


@dataclass(frozen=True, slots=True)
class NetworkComponent:
    """Per-head parameters (w, v, b, c) and one activation selector.

    Each parameter is a Matrix of the component's shape or a float that is
    broadcast over it. The matrices share one shape, the component's; a
    component of floats alone has shape None and runs on any input.
    "identity_via_relu" computes x as relu(x) - relu(-x); "invsqr" applies
    the table's ReLU sum pointwise; "invsqr_exact" applies exact 1/x^2 with
    the convention 0 -> 0 so masked-out entries stay finite. Calling a
    component runs its view, the closed form of apply's map that its
    builder gives (see make_divider_component), and apply otherwise.
    """

    w: tuple[Param, ...]
    v: tuple[Param, ...]
    b: tuple[Param, ...]
    c: tuple[Param, ...]
    activation: str
    table: PiecewiseInvSqr | None = None
    # The map apply computes, in closed form, or None.
    view: Callable | None = field(default=None, repr=False, compare=False)
    shape: tuple[int, int] | None = field(init=False, repr=False, compare=False)
    # Per head (w, v, b, c) as the arrays and floats apply combines.
    heads: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = len(self.w)
        if k < 1 or not (len(self.v) == len(self.b) == len(self.c) == k):
            raise ShapeMismatch("per-head parameter stacks must be nonempty and equal")
        raw, shapes = [], set()
        for p in self.w + self.v + self.b + self.c:
            if isinstance(p, Matrix):
                shapes.add(p.shape)
                raw.append(p.array)
            elif isinstance(p, float):
                raw.append(p)
            else:
                raise TypeError("component parameters must be matrices or floats")
        if len(shapes) > 1:
            raise ShapeMismatch("a component needs matrix parameters of one shape")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.activation == "invsqr" and self.table is None:
            raise ValueError("invsqr activation needs a knot table")
        object.__setattr__(self, "shape", shapes.pop() if shapes else None)
        heads = tuple(zip(raw[:k], raw[k : 2 * k], raw[2 * k : 3 * k], raw[3 * k :]))
        object.__setattr__(self, "heads", heads)

    def __call__(self, a: np.ndarray) -> np.ndarray:
        """apply(a), bit for bit: through the component's view where it has one."""
        return self.apply(a) if self.view is None else self.view(a)

    def apply(self, a: np.ndarray) -> np.ndarray:
        """component_forward's body on an ndarray, without its shape check: the head sum from +0.0.

        A view drops a unit w or v and a zero c bit for bit: 1.0 * x is x, NaN
        bits included, and h + 0.0 differs from h only on -0.0, which an
        accumulator that is never -0.0 absorbs.
        """
        acc = 0.0
        for w, v, b, c in self.heads:
            acc = acc + (v * _activate(self, w * a + b, v) + c)
        return acc


def _relu(a: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, a)


def _activate(comp: NetworkComponent, a: np.ndarray, v) -> np.ndarray:
    if comp.activation == "relu":
        return _relu(a)
    if comp.activation == "identity_via_relu":
        return _relu(a) - _relu(-a)
    # The 1/x^2 activations run only where v keeps the result, and write 0
    # elsewhere: exact for a finite sigma, as v * 0 then equals v * sigma.
    # The ReLU units stay dense: on a dense v the gather costs more than the
    # O(1) activation it skips.
    out = np.zeros_like(a)
    keep = np.not_equal(v, 0.0, out=np.empty(a.shape, dtype=bool))
    exact = comp.activation == "invsqr_exact"
    out[keep] = _exact_invsqr(a[keep]) if exact else invsqr_eval(comp.table, a[keep])
    return out


def _exact_invsqr(a: np.ndarray) -> np.ndarray:
    """The exact divider's map: 1/(a*a) where a != 0 (inf, silently, if a*a underflows), else 0.

    A 0-d input gives a float64 scalar, as apply's ufuncs do.
    """
    sq = a * a
    # No zero square, so no division by zero; bool tests a 0-d square in
    # tens of nanoseconds, where .all() takes microseconds.
    if bool(sq) if sq.ndim == 0 else sq.all():
        return 1.0 / sq
    with np.errstate(divide="ignore"):
        out = np.divide(1.0, sq, out=np.zeros(a.shape), where=a != 0.0)
    return out if out.ndim else out[()]


def _table_divider_view(table: PiecewiseInvSqr) -> Callable | None:
    """The keep-all table divider's view, bound to table: apply's map, bit for bit.

    A float64 scalar x > 0 (+inf included) runs two of invsqr_eval's four
    ReLU terms per interval: r = x - [hi; lo], then slopes * r and
    max(zero, .) in place on one (2, intervals) temporary allocated per
    call, then d = r[0] - r[1] in place in row 0, and the sum of that
    contiguous row. slopes is al stacked twice, shape (2, intervals), and
    zero a 0-d +0.0, both read-only and made once per table, so no ufunc
    broadcasts al over r or converts a Python 0.0 per call. Any other input
    (a zero, a negative or NaN pivot, an array) runs apply's map as
    0.0 + invsqr_eval(table, a + 0.0): V = 1 keeps every entry, and the
    unit w and v and the zero c drop out (see apply).

    Exactness for x > 0, when every slope al is below zero. x + h is
    positive or +inf for each knot h > 0, so al * (x + h) is negative, -0.0
    or -inf, never NaN, and the mirror terms r2 and r3 are +0.0
    (np.maximum(0.0, -0.0) is +0.0). r0 and r1 are the same ufuncs on the
    same operands as invsqr_eval's: each entry of slopes is al's entry for
    its interval, and zero is the +0.0 numpy makes of invsqr_eval's 0.0, so
    each entry gets the same IEEE operation on the same bits. They are
    never -0.0, so d = r0 - r1 is never -0.0 and ((d + 0.0) - 0.0) is d,
    a NaN's bits included. The sum adds the same contiguous entries, in the
    same pairwise order, as invsqr_eval's acc.sum(axis=-1), and is not
    -0.0, so apply's leading 0.0 + is a no-op, as is a + 0.0 on x. A slope
    that underflows to -0.0 breaks the argument (-0.0 * (x + h) is NaN where
    x + h overflows), so a table with one has no view and its divider runs
    apply.
    """
    al = table.slopes
    if not np.all(al < 0.0):
        return None
    pair = table.knot_stack[:2, 0]
    slopes, zero = np.stack([al, al]), np.zeros(())
    slopes.setflags(write=False)
    zero.setflags(write=False)
    add, subtract, multiply, maximum = np.add, np.subtract, np.multiply, np.maximum

    def view(a):
        if type(a) is not np.float64 or not a > 0.0:
            return 0.0 + invsqr_eval(table, a + 0.0)
        r = subtract(a, pair)
        multiply(slopes, r, r)
        maximum(zero, r, out=r)  # np.maximum deprecates a positional out
        d = r[0]
        subtract(d, r[1], d)
        return add.reduce(d)

    return view


def component_forward(x: Matrix, comp: NetworkComponent) -> Matrix:
    """Evaluate the component on x (shapes must match, unless the component has none).

    Float parameters are broadcast.
    """
    if comp.shape is not None and x.shape != comp.shape:
        raise ShapeMismatch(f"input {x.shape} != component shape {comp.shape}")
    return Matrix.from_array(comp.apply(x.array))


def make_affine_component(gamma: Param, c: Param) -> NetworkComponent:
    """Component computing Z = gamma * X + C via the paired +/- ReLU trick."""
    neg = scale(gamma, -1.0) if isinstance(gamma, Matrix) else -gamma
    return NetworkComponent(
        w=(1.0, -1.0), v=(gamma, neg), b=(0.0, 0.0), c=(c, 0.0), activation="relu"
    )


def make_mask_component(spec: MaskSpec | None) -> NetworkComponent:
    """Single-head component computing M * X (or the anti-mask complement).

    spec None keeps every entry (V = 1.0), on an input of any shape.
    """
    return NetworkComponent(
        w=(1.0,), v=(1.0 if spec is None else mask_matrix(spec),), b=(0.0,), c=(0.0,),
        activation="identity_via_relu",
    )


def make_divider_component(
    spec: MaskSpec | None, table: PiecewiseInvSqr | None
) -> NetworkComponent:
    """Single-head component applying 1/x^2 under a mask (spec None: every entry).

    table None means exact 1/x^2 ("invsqr_exact"); a knot table means its
    ReLU approximation ("invsqr").
    """
    # The keep-all divider's view is its map. The exact one is _exact_invsqr: V = 1 keeps
    # every entry, apply's unit w and v and zero c drop out (see apply), and the a + 0.0
    # before it and the 0.0 + after it change no bit, since a * a and the map's results are
    # never -0.0. The table one is bound to the table (_table_divider_view).
    view = _exact_invsqr if table is None else _table_divider_view(table)
    return NetworkComponent(
        w=(1.0,), v=(1.0 if spec is None else mask_matrix(spec),), b=(0.0,), c=(0.0,),
        activation="invsqr_exact" if table is None else "invsqr",
        table=table, view=view if spec is None else None,
    )


def skip_mul(m: Matrix, a: Matrix, side: str, gamma: int) -> Matrix:
    """Multiplication-type skip connection; the inner dimensions must agree.

    side "left" computes gamma * (M @ A) (module output on the left),
    side "right" computes gamma * (A @ M).
    """
    left, right = (a, m) if side == "right" else (m, a)
    if left.cols != right.rows:
        raise DimensionMismatch(f"cannot multiply {left.shape} by {right.shape}")
    if gamma not in (-1, 1):
        raise ValueError("gamma must be -1 or +1")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    prod = left.array @ right.array
    return Matrix.from_array(prod if gamma == 1 else -1.0 * prod)
