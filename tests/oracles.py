"""Independent reference implementations used as test oracles.

Nothing here imports from the package's computational paths: products are
naive triple loops, the move operation is a literal copy loop, the division
approximator oracle is np.interp on the knot table, the component oracle
applies the activation to every entry before weighting, and the elimination
shadow updates rows with plain scalar arithmetic.
"""

import numpy as np


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop product with ascending inner index."""
    rows, inner = a.shape
    inner2, cols = b.shape
    assert inner == inner2
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for k in range(inner):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def copy_move(a: np.ndarray, i: int, j: int, k: int, l: int,
              a_off: int, b_off: int) -> np.ndarray:
    """Definitional mask-and-move: copy block [i:j, k:l] shifted by (a_off, b_off)."""
    out = np.zeros_like(a)
    for r in range(i, j + 1):
        for c in range(k, l + 1):
            out[r + a_off - 1, c + b_off - 1] = a[r - 1, c - 1]
    return out


def piecewise_invsqr(knots: np.ndarray, values: np.ndarray, x) -> np.ndarray:
    """Closed-form piecewise-linear evaluation of the division approximator.

    Flat at values[0] inside the first knot, linear between knots of |x|,
    and zero past the final (zero-valued) knot. This is the region-by-region
    formula, independent of the ReLU-sum construction.
    """
    ax = np.abs(np.asarray(x, dtype=np.float64))
    return np.interp(ax, knots, values, left=values[0], right=0.0)


def exact_invsqr(a: np.ndarray) -> np.ndarray:
    """1/a^2 on every entry, with 0 -> 0."""
    out = np.zeros_like(a)
    nz = a != 0.0
    out[nz] = 1.0 / (a[nz] * a[nz])
    return out


def dense_component_forward(x: np.ndarray, comp, table_eval) -> np.ndarray:
    """Literal sum_k v_k * sigma(w_k * x + b_k) + c_k, sigma on every entry.

    comp carries per-head stacks w, v, b, c (objects with .array), an
    activation name and a knot table; table_eval(table, a) evaluates the
    "invsqr" activation, so this module imports nothing from the package.
    """
    def relu(a):
        return np.maximum(0.0, a)

    sigma = {
        "relu": relu,
        "identity_via_relu": lambda a: relu(a) - relu(-a),
        "invsqr": lambda a: table_eval(comp.table, a),
        "invsqr_exact": exact_invsqr,
    }[comp.activation]
    acc = np.zeros(x.shape)
    for w, v, b, c in zip(comp.w, comp.v, comp.b, comp.c):
        acc += v.array * sigma(w.array * x + b.array) + c.array
    return acc


def shadow_forward_step(p: np.ndarray, k: int) -> np.ndarray:
    """Direct-arithmetic forward elimination of column k (1-based) on a padded state."""
    out = p.copy()
    m = p.shape[0] - 1
    piv = out[k - 1, k - 1]
    for i in range(k + 1, m + 1):
        gamma = out[i - 1, k - 1] / piv
        out[i - 1, :] = out[i - 1, :] - gamma * out[k - 1, :]
    return out


def shadow_backward_step(q: np.ndarray, t: int) -> np.ndarray:
    """Direct-arithmetic solve of variable t (1-based) on a padded state.

    For t below the last variable the previously solved entry t+1 is first
    folded into the right-hand-side column, exactly as the component
    pipeline does; then row t is scaled by the pivot reciprocal and the
    pivot cell is cleared.
    """
    out = q.copy()
    m = q.shape[0] - 1
    if t < m:
        xi_next = out[t, m]
        out[:, m] = out[:, m] - xi_next * out[:, t]
    piv = out[t - 1, t - 1]
    out[t - 1, :] = out[t - 1, :] / piv
    out[t - 1, t - 1] = 0.0
    return out


def fd_gradient(x: np.ndarray, y: np.ndarray, lam: float, w: np.ndarray,
                step: float = 1e-5) -> np.ndarray:
    """Central finite differences of 0.5||y - Xw||^2 + 0.5*lam*||w||^2."""

    def cost(wv):
        r = y - x @ wv
        return 0.5 * float(r[:, 0] @ r[:, 0]) + 0.5 * lam * float(wv[:, 0] @ wv[:, 0])

    g = np.zeros_like(w)
    for idx in range(w.shape[0]):
        up = w.copy()
        dn = w.copy()
        up[idx, 0] += step
        dn[idx, 0] -= step
        g[idx, 0] = (cost(up) - cost(dn)) / (2.0 * step)
    return g


def random_dd_system(rng: np.random.Generator, m: int, spread: float = 1.0,
                     signed: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Diagonally dominant system; diagonal exceeds off-diagonal row sums by >= 1.

    With signed=True the diagonal entries get random signs (pivots then
    exercise both sides of the division approximator).
    """
    f = rng.uniform(-spread, spread, size=(m, m))
    row_sums = np.sum(np.abs(f), axis=1) - np.abs(np.diag(f))
    diag = row_sums + 1.0 + rng.uniform(0.0, 1.0, size=m)
    if signed:
        diag = diag * rng.choice([-1.0, 1.0], size=m)
    np.fill_diagonal(f, diag)
    alpha = rng.uniform(-1.0, 1.0, size=(m, 1))
    return f, alpha


def random_ridge_arrays(rng: np.random.Generator, n: int, d: int,
                        noise: float = 0.1):
    """Random design/targets/query for a ridge instance."""
    x = rng.normal(size=(n, d))
    w_true = rng.normal(size=(d, 1))
    y = x @ w_true + noise * rng.normal(size=(n, 1))
    u = rng.normal(size=(d, 1))
    return x, y, u
