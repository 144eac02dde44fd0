"""One-hidden-layer componentwise units and the ReLU division approximator.

A network component maps an m-by-n matrix X to

    Z = sum_k ( V_k * sigma(W_k * X + B_k) + C_k ),      (* = elementwise)

which is enough to express componentwise affine maps, masks and anti-masks.
Only parameters that vary are matrices; a constant one is a float that numpy
broadcasts with the same per-entry operation, so the result is bitwise the
dense literal sum. The multiplicative skip connection rounds out the
toolbox; the additive skip is the pipeline module's own out + h.

Division is approximated by sigma_invsqr, a piecewise-linear even function
built literally as a sum of paired ReLUs (hard sigmoids) that agrees with
1/x^2 at every table knot, holds the first value flat on [-x_1, x_1], and
decays to zero beyond the final cutoff knot. Multiplying by x recovers an
approximation of 1/x.

A divider keeps one entry of its input through a 0/1 output weight V, so
a component evaluates the two 1/x^2 activations only where V is nonzero
and writes 0 elsewhere. This is exact for finite activations: a dropped
entry would have contributed 0 * sigma = 0.

A component is evaluated on whatever matrix it is built for. The
elimination modules (elsakit.gauss) build theirs on the block each mask
selects, a pivot entry, a column block or a row, and never on the whole
padded state: off its block a component outputs its constant C for every
finite input, which the module accounts for without evaluating it. It runs
them on ndarrays: NetworkComponent.apply and skip_product are the bodies of
component_forward and skip_mul.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence, Union

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


def build_invsqr(knot_spec: Union[str, Sequence[float]]) -> PiecewiseInvSqr:
    """Build a knot table from a spec string or an explicit knot sequence.

    Accepted forms:

    * "geometric:x1=<f>,xmax=<f>,n=<int>" -- n geometric intervals over
      [x1, xmax], hence n+1 f-matched knots;
    * "explicit:<comma-separated increasing positive floats>";
    * any sequence of floats (same meaning as explicit).

    The zero-valued cutoff knot is appended one ratio step past the last
    f-matched knot.
    """
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
            if not (0 < x1 < xmax) or n < 1:
                raise BadKnotSpec(f"bad geometric range in {knot_spec!r}")
            interior = np.geomspace(x1, xmax, n + 1)
        elif kind == "explicit":
            try:
                interior = np.array([float(v) for v in body.split(",")], dtype=np.float64)
            except ValueError as exc:
                raise BadKnotSpec(f"bad explicit spec {knot_spec!r}") from exc
        else:
            raise BadKnotSpec(f"unknown knot spec kind {kind!r}")
    else:
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


# Points per block in invsqr_eval. It bounds the (points, intervals)
# temporaries; at 129 intervals each block temporary (264 KiB) fits in L2.
INVSQR_CHUNK = 256


def invsqr_eval(p: PiecewiseInvSqr, x):
    """Evaluate sigma_invsqr(x) as the literal sum of paired ReLU terms.

    Each knot interval contributes one hard sigmoid on the positive side and
    its mirror on the negative side; no shortcut interpolation is used.
    Accepts a scalar or an ndarray. Points are summed in blocks of
    INVSQR_CHUNK, so memory stays flat in the number of points; each point's
    sum is independent of the others, so the blocking changes no bit.
    """
    arr = np.asarray(x, dtype=np.float64)
    flat = arr.reshape(-1)
    total = np.empty(flat.shape)
    lo = p.knots[:-1]
    hi = p.knots[1:]
    al = p.slopes
    for start in range(0, flat.size, INVSQR_CHUNK):
        t = flat[start : start + INVSQR_CHUNK, None]
        total[start : start + INVSQR_CHUNK] = (
            np.maximum(0.0, al * (t - hi))
            - np.maximum(0.0, al * (t - lo))
            + np.maximum(0.0, al * (t + hi))
            - np.maximum(0.0, al * (t + lo))
        ).sum(axis=-1)
    if arr.ndim == 0:
        return float(total[0])
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
    broadcast over it; at least one must be a Matrix, and its shape is the
    component's shape. "identity_via_relu" computes x as relu(x) - relu(-x);
    "invsqr" applies the table's ReLU sum pointwise; "invsqr_exact" applies
    exact 1/x^2 with the convention 0 -> 0 so masked-out entries stay finite.
    """

    w: tuple[Param, ...]
    v: tuple[Param, ...]
    b: tuple[Param, ...]
    c: tuple[Param, ...]
    activation: str
    table: PiecewiseInvSqr | None = None
    shape: tuple[int, int] = field(init=False, repr=False, compare=False)
    # Per head (w, v, b, c) as the arrays and floats apply combines; a unit
    # weight w or v and a zero constant c are None (see apply).
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
        if len(shapes) != 1:
            raise ShapeMismatch("a component needs matrix parameters of one shape")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.activation == "invsqr" and self.table is None:
            raise ValueError("invsqr activation needs a knot table")
        object.__setattr__(self, "shape", shapes.pop())
        unit = [None if isinstance(p, float) and p == 1.0 else p for p in raw[: 2 * k]]
        c = [None if isinstance(p, float) and p == 0.0 else p for p in raw[3 * k :]]
        heads = zip(unit[:k], unit[k:], raw[2 * k : 3 * k], c)
        object.__setattr__(self, "heads", tuple(heads))

    def apply(self, a: np.ndarray) -> np.ndarray:
        """component_forward's body on an ndarray of the component's shape, unchecked.

        The head sum starts from +0.0 and skips its exact no-ops: a product by
        a unit w or v, and the addition of a zero c (acc + (h + 0.0) is acc + h,
        as acc is never -0.0).
        """
        acc = 0.0
        for w, v, b, c in self.heads:
            s = _activate(self, (a if w is None else w * a) + b, v)
            h = s if v is None else v * s
            acc = acc + (h if c is None else h + c)
        return acc


def _relu(a: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, a)


def _activate(comp: NetworkComponent, a: np.ndarray, v) -> np.ndarray:
    if comp.activation == "relu":
        return _relu(a)
    if comp.activation == "identity_via_relu":
        return _relu(a) - _relu(-a)
    # The 1/x^2 activations run only where v keeps the result (elsewhere
    # v * 0 equals v * sigma for finite sigma). The ReLU units stay dense:
    # on a dense v the gather costs more than the O(1) activation it skips.
    out = np.zeros_like(a)
    keep = np.not_equal(1.0 if v is None else v, 0.0, out=np.empty(a.shape, dtype=bool))
    if comp.activation == "invsqr":
        out[keep] = invsqr_eval(comp.table, a[keep])
    else:
        # exact reciprocal square; zeros pass through as zeros
        keep = keep & (a != 0.0)
        kept = a[keep]
        out[keep] = 1.0 / (kept * kept)
    return out


def component_forward(x: Matrix, comp: NetworkComponent) -> Matrix:
    """Evaluate the component on x (shapes must match).

    Float parameters are broadcast. The 1/x^2 activations are evaluated only
    where the head's v is nonzero; for a finite activation this is exact,
    since the dropped entries would be multiplied by zero.
    """
    if x.shape != comp.shape:
        raise ShapeMismatch(f"input {x.shape} != component shape {comp.shape}")
    return Matrix.from_array(comp.apply(x.array))


def make_affine_component(gamma: Param, c: Matrix) -> NetworkComponent:
    """Component computing Z = gamma * X + C via the paired +/- ReLU trick."""
    neg = scale(gamma, -1.0) if isinstance(gamma, Matrix) else -gamma
    return NetworkComponent(
        w=(1.0, -1.0), v=(gamma, neg), b=(0.0, 0.0), c=(c, 0.0), activation="relu"
    )


def make_mask_component(spec: MaskSpec) -> NetworkComponent:
    """Single-head component computing M * X (or the anti-mask complement)."""
    return NetworkComponent(
        w=(1.0,), v=(mask_matrix(spec),), b=(0.0,), c=(0.0,),
        activation="identity_via_relu",
    )


def make_divider_component(spec: MaskSpec, table: PiecewiseInvSqr | None) -> NetworkComponent:
    """Single-head component applying 1/x^2 under a mask.

    table None means exact 1/x^2 ("invsqr_exact"); a knot table means its
    ReLU approximation ("invsqr").
    """
    return NetworkComponent(
        w=(1.0,), v=(mask_matrix(spec),), b=(0.0,), c=(0.0,),
        activation="invsqr_exact" if table is None else "invsqr",
        table=table,
    )


def skip_product(m: np.ndarray, a: np.ndarray, side: str, gamma: int) -> np.ndarray:
    """Multiplication-type skip connection on ndarrays; skip_mul's body.

    side "left" computes gamma * (M @ A) (module output on the left),
    side "right" computes gamma * (A @ M).
    """
    if gamma not in (-1, 1):
        raise ValueError("gamma must be -1 or +1")
    if side == "left":
        prod = m @ a
    elif side == "right":
        prod = a @ m
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return prod if gamma == 1 else -1.0 * prod


def skip_mul(m: Matrix, a: Matrix, side: str, gamma: int) -> Matrix:
    """skip_product on matrices; the inner dimensions must agree."""
    left, right = (a, m) if side == "right" else (m, a)
    if left.cols != right.rows:
        raise DimensionMismatch(f"cannot multiply {left.shape} by {right.shape}")
    return Matrix.from_array(skip_product(m.array, a.array, side, gamma))
