"""One-hidden-layer componentwise units and the ReLU division approximator.

A network component maps an m-by-n matrix X to

    Z = sum_k ( V_k * sigma(W_k * X + B_k) + C_k ),      (* = elementwise)

which is enough to express componentwise affine maps, masks and anti-masks.
Two skip-connection combinators (additive and multiplicative) and an
arbitrary-shape weighted-sum map round out the toolbox.

Division is approximated by sigma_invsqr, a piecewise-linear even function
built literally as a sum of paired ReLUs (hard sigmoids) that agrees with
1/x^2 at every table knot, holds the first value flat on [-x_1, x_1], and
decays to zero beyond the final cutoff knot. Multiplying by x recovers an
approximation of 1/x.

A divider keeps one entry of its input through a 0/1 output weight V, so
component_forward evaluates the two 1/x^2 activations only where V is
nonzero and writes 0 elsewhere. This is exact for finite activations:
a dropped entry would have contributed 0 * sigma = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .matrix import Matrix, ShapeMismatch, matmul, ones, scale, zeros
from .maskmove import MaskSpec, mask_matrix


class BadKnotSpec(ValueError):
    """A knot specification is unparsable or not increasing/positive."""


@dataclass(frozen=True)
class PiecewiseInvSqr:
    """Knot table for the piecewise-linear approximation of 1/x^2.

    knots holds x_1 < ... < x_{K}, values the matching ordinates; the final
    knot is the cutoff with value 0, every earlier knot carries 1/x^2
    exactly. x_0 = 0 is implicit and the value is capped at values[0] on
    [-x_1, x_1].
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xs, ys = self.knots, self.values
        if xs.ndim != 1 or xs.size < 2 or ys.shape != xs.shape:
            raise BadKnotSpec("need at least two knots with matching values")
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

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / np.diff(self.knots)


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
    if interior[0] <= 0 or np.any(np.diff(interior) <= 0):
        raise BadKnotSpec("knots must be positive and strictly increasing")
    cutoff = interior[-1] * (interior[-1] / interior[-2])
    knots = np.concatenate([interior, [cutoff]])
    values = np.concatenate([1.0 / interior**2, [0.0]])
    return PiecewiseInvSqr(knots=knots, values=values)


DEFAULT_KNOT_SPEC = "geometric:x1=1e-2,xmax=1e2,n=128"


def default_invsqr() -> PiecewiseInvSqr:
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


@dataclass(frozen=True)
class NetworkComponent:
    """Per-head parameter stacks (w, v, b, c) and one activation selector.

    "identity_via_relu" computes x as relu(x) - relu(-x); "invsqr" applies
    the table's ReLU sum pointwise; "invsqr_exact" applies exact 1/x^2 with
    the convention 0 -> 0 so masked-out entries stay finite.
    """

    w: tuple[Matrix, ...]
    v: tuple[Matrix, ...]
    b: tuple[Matrix, ...]
    c: tuple[Matrix, ...]
    activation: str
    table: PiecewiseInvSqr | None = None

    def __post_init__(self):
        k = len(self.w)
        if k < 1 or not (len(self.v) == len(self.b) == len(self.c) == k):
            raise ShapeMismatch("per-head parameter stacks must be nonempty and equal")
        shape = self.w[0].shape
        for stack in (self.w, self.v, self.b, self.c):
            for m in stack:
                if m.shape != shape:
                    raise ShapeMismatch("all component parameters must share one shape")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.activation == "invsqr" and self.table is None:
            raise ValueError("invsqr activation needs a knot table")

    @property
    def shape(self) -> tuple[int, int]:
        return self.w[0].shape


def _relu(a: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, a)


def _activate(comp: NetworkComponent, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    if comp.activation == "relu":
        return _relu(a)
    if comp.activation == "identity_via_relu":
        return _relu(a) - _relu(-a)
    # The 1/x^2 activations run only where v keeps the result (elsewhere
    # v * 0 equals v * sigma for finite sigma). The ReLU units stay dense:
    # on a dense v the gather costs more than the O(1) activation it skips.
    out = np.zeros_like(a)
    keep = v != 0.0
    if comp.activation == "invsqr":
        out[keep] = invsqr_eval(comp.table, a[keep])
    else:
        # exact reciprocal square; zeros pass through as zeros
        keep &= a != 0.0
        kept = a[keep]
        out[keep] = 1.0 / (kept * kept)
    return out


def component_forward(x: Matrix, comp: NetworkComponent) -> Matrix:
    """Evaluate the component on x (shapes must match).

    The 1/x^2 activations are evaluated only where the head's v is nonzero;
    for a finite activation this is exact, since the dropped entries would
    be multiplied by zero.
    """
    if x.shape != comp.shape:
        raise ShapeMismatch(f"input {x.shape} != component shape {comp.shape}")
    acc = np.zeros(comp.shape)
    for w, v, b, c in zip(comp.w, comp.v, comp.b, comp.c):
        acc += v.array * _activate(comp, w.array * x.array + b.array, v.array) + c.array
    return Matrix.from_array(acc)


def make_affine_component(gamma: Matrix, c: Matrix) -> NetworkComponent:
    """Component computing Z = gamma * X + C via the paired +/- ReLU trick."""
    if gamma.shape != c.shape:
        raise ShapeMismatch(f"gamma {gamma.shape} != constant {c.shape}")
    m, n = gamma.shape
    return NetworkComponent(
        w=(ones(m, n), scale(ones(m, n), -1.0)),
        v=(gamma, scale(gamma, -1.0)),
        b=(zeros(m, n), zeros(m, n)),
        c=(c, zeros(m, n)),
        activation="relu",
    )


def make_mask_component(spec: MaskSpec) -> NetworkComponent:
    """Single-head component computing M * X (or the anti-mask complement)."""
    m, n = spec.m, spec.n
    return NetworkComponent(
        w=(ones(m, n),),
        v=(mask_matrix(spec),),
        b=(zeros(m, n),),
        c=(zeros(m, n),),
        activation="identity_via_relu",
    )


def make_divider_component(
    spec: MaskSpec, exact: bool, table: PiecewiseInvSqr | None = None
) -> NetworkComponent:
    """Single-head component applying the 1/x^2 activation under a mask."""
    m, n = spec.m, spec.n
    return NetworkComponent(
        w=(ones(m, n),),
        v=(mask_matrix(spec),),
        b=(zeros(m, n),),
        c=(zeros(m, n),),
        activation="invsqr_exact" if exact else "invsqr",
        table=table,
    )


def skip_add(m: Matrix, a: Matrix, gamma: int) -> Matrix:
    """Addition-type skip connection: module output plus gamma times the input."""
    if gamma not in (-1, 1):
        raise ValueError("gamma must be -1 or +1")
    if m.shape != a.shape:
        raise ShapeMismatch(f"cannot add skip {a.shape} to output {m.shape}")
    return Matrix.from_array(m.array + gamma * a.array)


def skip_mul(m: Matrix, a: Matrix, side: str, gamma: int) -> Matrix:
    """Multiplication-type skip connection.

    side "left" computes gamma * (M @ A) (module output on the left),
    side "right" computes gamma * (A @ M).
    """
    if gamma not in (-1, 1):
        raise ValueError("gamma must be -1 or +1")
    if side == "left":
        prod = matmul(m, a)
    elif side == "right":
        prod = matmul(a, m)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return prod if gamma == 1 else scale(prod, -1.0)


# ---------------------------------------------------------------------------
# Weighted-sum maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedSumMap:
    """Arbitrary-shape map P[s,t] = SUM(W_{s,t} * A) + b_{s,t}.

    weights has shape (m_o, n_o, m_i, n_i); biases has shape (m_o, n_o).
    """

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        if self.weights.ndim != 4 or self.biases.shape != self.weights.shape[:2]:
            raise ShapeMismatch("weights must be 4-d with matching bias grid")
        self.weights.setflags(write=False)
        self.biases.setflags(write=False)

    @property
    def input_shape(self) -> tuple[int, int]:
        return self.weights.shape[2:]


def weighted_sum_map(a: Matrix, wsm: WeightedSumMap) -> Matrix:
    """Apply the per-cell weighted sums to a."""
    if a.shape != wsm.input_shape:
        raise ShapeMismatch(f"input {a.shape} != map input {wsm.input_shape}")
    out = np.einsum("stij,ij->st", wsm.weights, a.array) + wsm.biases
    return Matrix.from_array(out)


def mskmov_weighted_sum(i: int, j: int, k: int, l: int, m: int, n: int,
                        a: int = 0, b: int = 0) -> WeightedSumMap:
    """Weighted-sum realization of mask-and-move via single-cell selectors."""
    weights = np.zeros((m, n, m, n))
    for src_r in range(i, j + 1):
        for src_c in range(k, l + 1):
            weights[src_r + a - 1, src_c + b - 1, src_r - 1, src_c - 1] = 1.0
    return WeightedSumMap(weights=weights, biases=np.zeros((m, n)))
