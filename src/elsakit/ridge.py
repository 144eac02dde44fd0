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
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .matrix import DimensionMismatch, Matrix, ShapeMismatch, json_entries


class SingularSystem(ArithmeticError):
    """The normal-equations matrix has a pivot below tolerance."""


class BadProblemFile(ValueError):
    """A problem JSON file is malformed."""


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


def make_problem(
    x: Matrix,
    y: Matrix,
    u: Matrix,
    lam: float,
    eta: float | str = "auto",
    steps: int = 0,
    w0: Matrix | str = "zero",
) -> RidgeProblem:
    """Build a problem, resolving eta="auto" (after checking lam) and w0="zero"."""
    _check_nonnegative("ridge parameter", lam)
    d = x.cols
    if isinstance(w0, str):
        if w0 != "zero":
            raise BadProblemFile(f"unknown w0 spec {w0!r}")
        w0 = Matrix.from_array(np.zeros((d, 1)))
    if isinstance(eta, str):
        if eta != "auto":
            raise BadProblemFile(f"unknown eta spec {eta!r}")
        eta = stable_eta_for(x, lam)
    return RidgeProblem(x=x, y=y, u=u, lam=lam, eta=float(eta), steps=steps, w0=w0)


def ridge_closed_form(p: RidgeProblem) -> Matrix:
    """Solve (X^T X + lam I) w = X^T y by a partial-pivot dense factorization."""
    xt = p.x.array.T
    f = xt @ p.x.array + p.lam * np.eye(p.d)
    b = xt @ p.y.array
    with warnings.catch_warnings():
        # the explicit pivot check below covers the singular case
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(f, check_finite=False)
    pivots = np.abs(np.diag(lu))
    tol = np.finfo(np.float64).eps * max(1.0, float(np.max(pivots, initial=0.0))) * p.d
    if np.min(pivots) <= tol:
        raise SingularSystem(
            f"normal equations pivot {np.min(pivots):.3e} below tolerance {tol:.3e}"
        )
    return Matrix.from_array(scipy.linalg.lu_solve((lu, piv), b, check_finite=False))


def gradient(p: RidgeProblem, w: Matrix) -> Matrix:
    """dw = -X^T y + X^T (X w) + lam w."""
    x, w_arr = p.x.array, w.array
    dw = -(x.T @ p.y.array) + x.T @ (x @ w_arr) + p.lam * w_arr
    return Matrix.from_array(dw)


def gd_step(p: RidgeProblem, w: Matrix) -> Matrix:
    """One batch update: w - eta * gradient(p, w)."""
    return Matrix.from_array(w.array - p.eta * gradient(p, w).array)


def finite_prefix(trace: list[Matrix]) -> list[Matrix]:
    """The iterates of trace before its first non-finite one (all of it if none is)."""
    finite = np.isfinite(np.concatenate([w.array for w in trace], axis=1)).all(axis=0)
    return trace if finite.all() else trace[: int(np.argmin(finite))]


def gd_run(p: RidgeProblem) -> list[Matrix]:
    """Apply the update p.steps times from w0; the trace holds w_0 .. w_T.

    A divergent eta overflows silently and the trace ends before its first
    non-finite iterate.
    """
    trace = [p.w0]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(p.steps):
            trace.append(gd_step(p, trace[-1]))
    return finite_prefix(trace)


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
    lam_max = float(_gram_spectrum(x)[-1])
    if np.isnan(lam_max):
        raise ValueError("the Gram matrix X^T X is not finite (it overflows); eta undefined")
    denom = lam_max + lam
    if denom <= 0.0:
        raise SingularSystem("X^T X + lam I has no positive spectrum; eta undefined")
    return 1.0 / denom


def contraction(p: RidgeProblem) -> float:
    """max |1 - eta * eig(X^T X + lam I)|, the descent map's contraction factor.

    Reads the same eigvalsh spectrum of X^T X as stable_eta_for (NaN when
    X^T X overflows). Above 1 the descent diverges along some eigendirection.
    """
    return float(np.max(np.abs(1.0 - p.eta * (_gram_spectrum(p.x) + p.lam))))


def predict(w: Matrix, u: Matrix) -> float:
    """Scalar prediction u^T w."""
    if w.shape != u.shape or w.cols != 1:
        raise DimensionMismatch(f"need matching column vectors, got {w.shape}, {u.shape}")
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

    Every entry of X, y, u and w0 must be a JSON number and X^T X finite.
    Raises BadProblemFile, or SingularSystem for eta="auto" on no positive spectrum.
    """
    try:
        doc = json.loads(text)
        x = Matrix(json_entries("X", doc["X"]))
        y = Matrix.column(json_entries("y", doc["y"]))
        u = Matrix.column(json_entries("u", doc["u"]))
        lam = float(_typed("lambda", doc["lambda"], (int, float)))
        steps = _typed("steps", doc["steps"], int)
        eta = doc.get("eta", "auto")
        w0 = doc.get("w0", "zero")
        if not isinstance(w0, str):
            w0 = Matrix.column(json_entries("w0", w0))
        if not isinstance(eta, str):
            eta = float(_typed("eta", eta, (int, float)))
            if np.isnan(_gram_spectrum(x)[-1]):
                raise ValueError("the Gram matrix X^T X is not finite (it overflows)")
        return make_problem(x, y, u, lam, eta=eta, steps=steps, w0=w0)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BadProblemFile(f"malformed ridge problem: {exc}") from exc


def load_problem(path: str) -> RidgeProblem:
    with open(path) as fh:
        return problem_from_json(fh.read())

