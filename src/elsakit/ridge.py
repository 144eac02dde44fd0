"""Ground-truth ridge regression: closed form, gradient descent, prediction.

This is the oracle the attention pipelines are checked against. The descent
recurrence is

    w_t = w_{t-1} - eta * dw_{t-1},
    dw_{t-1} = -X^T y + X^T (X w_{t-1}) + lam * w_{t-1},

with the X^T (X w) association fixed so pipeline and oracle differ only by
floating-point summation order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .matrix import DimensionMismatch, Matrix, ShapeMismatch, json_entries, product_for


# The most steps a problem file may ask for: a trace of MAX_STEPS + 1 states of up to
# 1,000 float64 entries each has fewer than 2**63 bytes, so numpy can index it.
MAX_STEPS = 2**50


class SingularSystem(ArithmeticError):
    """The normal-equations matrix is numerically singular."""


class BadProblemFile(ValueError):
    """A problem JSON file is malformed."""


class _Oracle(NamedTuple):
    """What a problem's pipelines are checked against, computed once per problem object."""

    trace: np.ndarray  # the read-only (k, d, 1) descent stack w_0 .. w_{k-1}
    prediction: float  # u^T w_T, NaN when the descent diverged before step T
    closed_form_prediction: Optional[float]  # None when the normal equations are singular


def _check_nonnegative(name: str, value: float) -> None:
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class RidgeProblem:
    """One ridge regression instance.

    x is the n-by-d design (rows are the examples), y the n-by-1 targets,
    u the d-by-1 query point. A constant term, if wanted, must be supplied
    by the caller as a column of ones in x.
    """

    x: Matrix
    y: Matrix
    u: Matrix
    lam: float
    eta: float
    steps: int
    w0: Matrix

    def __post_init__(self):
        n, d = self.x.shape
        if self.y.shape != (n, 1):
            raise ShapeMismatch(f"y must be {n}x1, got {self.y.shape}")
        if self.u.shape != (d, 1):
            raise ShapeMismatch(f"u must be {d}x1, got {self.u.shape}")
        if self.w0.shape != (d, 1):
            raise ShapeMismatch(f"w0 must be {d}x1, got {self.w0.shape}")
        _check_nonnegative("ridge parameter", self.lam)
        # eta = 0 is admitted so a frozen-coefficient run is expressible.
        _check_nonnegative("learning rate", self.eta)
        if self.steps < 0:
            raise ValueError(f"step count must be >= 0, got {self.steps}")

    @property
    def n(self) -> int:
        return self.x.rows

    @property
    def d(self) -> int:
        return self.x.cols

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """The eigvalsh spectrum of X^T X (:func:`_gram_spectrum`), computed once per problem."""
        return _gram_spectrum(self.x)

    @cached_property
    def _oracle(self) -> _Oracle:
        """The descent stack and both oracle predictions; dataclasses.replace starts afresh."""
        trace = _descent(self)
        try:
            closed_form = predict(ridge_closed_form(self), self.u)
        except SingularSystem:
            closed_form = None
        # A descent cut short has no prediction: NaN, as in a report that diverged.
        diverged = len(trace) <= self.steps
        prediction = math.nan if diverged else predict(Matrix.from_array(trace[-1]), self.u)
        return _Oracle(trace, prediction, closed_form)


def make_problem(
    x: Matrix,
    y: Matrix,
    u: Matrix,
    lam: float,
    eta: float | str = "auto",
    steps: int = 0,
    w0: Matrix | str = "zero",
) -> RidgeProblem:
    """Build a problem, resolving eta="auto" (after checking lam) and w0="zero".

    The spectrum an auto eta reads is kept as the problem's own, for the closed form.
    """
    _check_nonnegative("ridge parameter", lam)
    d = x.cols
    if isinstance(w0, str):
        if w0 != "zero":
            raise BadProblemFile(f"unknown w0 spec {w0!r}")
        w0 = Matrix.from_array(np.zeros((d, 1)))
    spectrum = None
    if isinstance(eta, str):
        if eta != "auto":
            raise BadProblemFile(f"unknown eta spec {eta!r}")
        spectrum = _gram_spectrum(x)
        eta = _stable_eta(spectrum, lam)
    p = RidgeProblem(x=x, y=y, u=u, lam=lam, eta=float(eta), steps=steps, w0=w0)
    if spectrum is not None:
        vars(p)["_spectrum"] = spectrum  # the cached property's value, as it would compute it
    return p


def normal_equations(p: RidgeProblem) -> tuple[Matrix, Matrix]:
    """(X^T X + lam I, X^T y): the ridge normal equations, assembled here only.

    An entry that overflows is inf, without a warning.
    """
    x = p.x.array
    with np.errstate(over="ignore", invalid="ignore"):
        f, b = x.T @ x + p.lam * np.eye(p.d), x.T @ p.y.array
    return Matrix.from_array(f), Matrix.from_array(b)


def ridge_closed_form(p: RidgeProblem) -> Matrix:
    """Solve (X^T X + lam I) w = X^T y by np.linalg.solve (LAPACK gesv).

    Raises SingularSystem unless mu_min > eps * max(1, mu_max) * d for mu = eig(X^T X)
    + lam, the eigvalsh spectrum eta and the contraction share, or if X^T X or mu overflows.
    """
    with np.errstate(over="ignore"):
        mu = p._spectrum + p.lam
    if np.isnan(mu[0]):
        raise SingularSystem("the Gram matrix X^T X is not finite (it overflows)")
    if np.isinf(mu[-1]):
        raise SingularSystem("X^T X + lam I is not finite (adding lam overflows)")
    tol = np.finfo(np.float64).eps * max(1.0, float(mu[-1])) * p.d
    if mu[0] <= tol:
        raise SingularSystem(f"normal equations eigenvalue {mu[0]:.3e} below tolerance {tol:.3e}")
    f, b = normal_equations(p)
    return Matrix.from_array(np.linalg.solve(f.array, b.array))


def gradient(p: RidgeProblem, w: Matrix) -> Matrix:
    """dw = -X^T y + X^T (X w) + lam w."""
    x, w_arr = p.x.array, w.array
    dw = -(x.T @ p.y.array) + x.T @ (x @ w_arr) + p.lam * w_arr
    return Matrix.from_array(dw)


def gd_step(p: RidgeProblem, w: Matrix) -> Matrix:
    """One batch update: w - eta * gradient(p, w)."""
    return Matrix.from_array(w.array - p.eta * gradient(p, w).array)


def finite_prefix(ws: np.ndarray) -> np.ndarray:
    """The leading rows of the stack ws before its first non-finite one (all of it if none is)."""
    finite = np.isfinite(ws).all(axis=(1, 2))
    return ws if finite.all() else ws[: int(np.argmin(finite))]


def _descent(p: RidgeProblem) -> np.ndarray:
    """w_0 .. w_T as a read-only (T+1, d, 1) stack, cut before its first non-finite row.

    Each step computes what :func:`gd_step` does, with -X^T y evaluated once,
    and each product is @'s, by :func:`product_for`, called without numpy's
    __array_function__ dispatch. A step runs every product and sum into a
    buffer made once, in gd_step's order and parenthesisation, and writes
    w_t straight into the stack. It runs on 1-d vectors, which give the bits
    of the (d, 1) columns, with lam and eta as 0-d arrays made once.
    """
    x, eta, lam = p.x.array, np.array(p.eta), np.array(p.lam)
    xt, dot = x.T, product_for(*x.shape)
    add, multiply, subtract = np.add, np.multiply, np.subtract
    ws = np.empty((p.steps + 1, p.d, 1))
    rows = ws[:, :, 0]
    xw, step, lam_w = np.empty(p.n), np.empty(p.d), np.empty(p.d)
    w = rows[0] = p.w0.array[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        neg_xty = -dot(xt, p.y.array[:, 0])
        for out in rows[1:]:
            # w - eta * ((neg_xty + X^T (X w)) + lam * w); each call's last
            # argument is its output (positional: no keyword parsing per call).
            dot(x, w, xw)
            dot(xt, xw, step)
            add(neg_xty, step, step)
            multiply(lam, w, lam_w)
            add(step, lam_w, step)
            multiply(eta, step, step)
            w = subtract(w, step, out)
    ws.setflags(write=False)
    return finite_prefix(ws)


def gd_run(p: RidgeProblem) -> list[Matrix]:
    """Apply the update p.steps times from w0; the trace holds w_0 .. w_T.

    Recomputed on every call. A divergent eta, or an X^T y that overflows,
    overflows silently and the trace ends before its first non-finite iterate.
    """
    return Matrix.from_stack(_descent(p))


def _gram_spectrum(x: Matrix) -> np.ndarray:
    """Ascending eigenvalues of X^T X by np.linalg.eigvalsh; all NaN if X^T X overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = x.array.T @ x.array
    if not np.all(np.isfinite(g)):
        return np.full(x.cols, np.nan)
    return np.linalg.eigvalsh(g)


def stable_eta_for(x: Matrix, lam: float) -> float:
    """eta = 1 / (lambda_max(X^T X) + lam), lambda_max the top of the eigvalsh spectrum.

    Guarantees the descent map contracts: every eigenvalue of
    I - eta (X^T X + lam I) lies in (-1, 1] with equality only for a
    zero eigendirection at lam = 0. Raises ValueError when X^T X is not
    finite.
    """
    return _stable_eta(_gram_spectrum(x), lam)


def _stable_eta(spectrum: np.ndarray, lam: float) -> float:
    """stable_eta_for on the eigvalsh spectrum of X^T X."""
    lam_max = float(spectrum[-1])
    if np.isnan(lam_max):
        raise ValueError("the Gram matrix X^T X is not finite (it overflows); eta undefined")
    denom = lam_max + lam
    if denom <= 0.0:
        raise SingularSystem("X^T X + lam I has no positive spectrum; eta undefined")
    return 1.0 / denom


def contraction(p: RidgeProblem) -> float:
    """max |1 - eta * eig(X^T X + lam I)|, the descent map's contraction factor.

    Reads the same eigvalsh spectrum of X^T X as stable_eta_for (NaN when
    X^T X overflows, NaN or inf without a warning when an eigenvalue does).
    Above 1 the descent diverges along some eigendirection.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(1.0 - p.eta * (p._spectrum + p.lam))))


def predict(w: Matrix, u: Matrix) -> float:
    """Scalar prediction u^T w; inf or NaN, without a warning, when it overflows."""
    if w.shape != u.shape or w.cols != 1:
        raise DimensionMismatch(f"need matching column vectors, got {w.shape}, {u.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return float(u.array[:, 0] @ w.array[:, 0])


def problem_to_json(p: RidgeProblem) -> str:
    doc = {
        "X": p.x.array.tolist(),
        "y": p.y.array[:, 0].tolist(),
        "u": p.u.array[:, 0].tolist(),
        "lambda": p.lam,
        "eta": p.eta,
        "steps": p.steps,
        "w0": p.w0.array[:, 0].tolist(),
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def _typed(key: str, value, kind):
    """value if it has the JSON type kind; true and false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise BadProblemFile(f"{key} has the wrong JSON type: {value!r}")
    return value


def problem_from_json(text: str) -> RidgeProblem:
    """Parse {"X", "y", "u", "lambda", "eta": f|"auto", "steps", "w0": [...]|"zero"}.

    Every entry of X, y, u and w0 must be a JSON number, X^T X and X^T y
    finite, and steps at most MAX_STEPS. Raises BadProblemFile (a document
    nested past Python's recursion limit too), or SingularSystem for
    eta="auto" on no positive spectrum.
    """
    try:
        doc = json.loads(text)
        x = Matrix(json_entries("X", doc["X"]))
        y = Matrix.column(json_entries("y", doc["y"]))
        u = Matrix.column(json_entries("u", doc["u"]))
        lam = float(_typed("lambda", doc["lambda"], (int, float)))
        steps = _typed("steps", doc["steps"], int)
        if steps > MAX_STEPS:
            raise ValueError(f"steps must be at most {MAX_STEPS}, got {steps}")
        eta = doc.get("eta", "auto")
        w0 = doc.get("w0", "zero")
        if not isinstance(w0, str):
            w0 = Matrix.column(json_entries("w0", w0))
        if not isinstance(eta, str):
            eta = float(_typed("eta", eta, (int, float)))
            if np.isnan(_gram_spectrum(x)[-1]):
                raise ValueError("the Gram matrix X^T X is not finite (it overflows)")
        p = make_problem(x, y, u, lam, eta=eta, steps=steps, w0=w0)
        if not np.all(np.isfinite(normal_equations(p)[1].array)):
            raise ValueError("X^T y is not finite (it overflows)")
        return p
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise BadProblemFile(f"malformed ridge problem: {exc}") from exc


def load_problem(path: str) -> RidgeProblem:
    with open(path) as fh:
        return problem_from_json(fh.read())

