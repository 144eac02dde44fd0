"""Independent reference implementations used as test oracles.

Nothing here imports from the package's computational paths: products are
naive triple loops, the move operation is a literal copy loop, the division
approximator oracle is np.interp on the knot table, the component oracle
applies the activation to every entry before weighting, and the elimination
shadow updates rows with plain scalar arithmetic. literal_invsqr_sum writes
the paired-ReLU sum of 1/x^2 out term by term over all points at once, the
form the stacked, blocked invsqr_eval must match bitwise. There are two exceptions,
both chaining package components as the literal construction that a fast
path must match: literal_run_module runs the dense attention forwards the
compiled pipeline heads are checked against, and literal_forward_step /
literal_backward_step run every elimination module densely over the whole
padded state, which the block-evaluated steps are checked against bitwise.

The file also builds the ridge step programs beyond the three builders that
the pipeline tests and tools/bitwise_digest.py run: two_block_program and
reader_program; the zero-feature problems both run through them
(zero_feature_arrays); the explicit-eta problems whose descent overflows
(nonfinite_ridge_problems); and the ridge prompts as the pipeline first
assembled them, one block_write per block (block_write_designed_prompt,
block_write_enumerated_prompt), the reference the one-array builders must
match byte for byte.
"""

import math
from dataclasses import replace

import numpy as np

from elsakit import (
    BadProblemFile,
    BlockSpec,
    LsaParams,
    MaskSpec,
    Matrix,
    Program,
    add,
    block_write,
    build_designed_weights,
    component_forward,
    eye_block,
    gd_run,
    identity,
    make_affine_component,
    make_divider_component,
    make_mask_component,
    make_problem,
    matmul,
    multihead_forward,
    scale,
    skip_mul,
    stable_eta_for,
    transpose,
    zeros,
)


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


def literal_invsqr_sum(table, x):
    """The paired-ReLU sum of sigma_invsqr, its four terms one by one, in one block.

    Per interval [lo, hi] with slope al: relu(al (x - hi)) - relu(al (x - lo))
    + relu(al (x + hi)) - relu(al (x + lo)), summed over the intervals. A
    scalar gives a float64 scalar, an ndarray an array of its shape.
    """
    arr = np.asarray(x, dtype=np.float64)
    t = arr.reshape(-1)[:, None]
    al, lo, hi = table.slopes, table.knots[:-1], table.knots[1:]
    total = (
        np.maximum(0.0, al * (t - hi))
        - np.maximum(0.0, al * (t - lo))
        + np.maximum(0.0, al * (t + hi))
        - np.maximum(0.0, al * (t + lo))
    ).sum(axis=-1)
    if arr.ndim == 0:
        return total[0]
    return total.reshape(arr.shape)


def exact_invsqr(a: np.ndarray) -> np.ndarray:
    """1/a^2 on every entry, with 0 -> 0."""
    out = np.zeros_like(a)
    nz = a != 0.0
    out[nz] = 1.0 / (a[nz] * a[nz])
    return out


def dense_component_forward(x: np.ndarray, comp, table_eval) -> np.ndarray:
    """Literal sum_k v_k * sigma(w_k * x + b_k) + c_k, sigma on every entry.

    comp carries per-head parameters w, v, b, c (objects with .array, or
    floats that are expanded here to dense arrays of x's shape), an
    activation name and a knot table; table_eval(table, a) evaluates the
    "invsqr" activation, so this module imports nothing from the package.
    """
    def relu(a):
        return np.maximum(0.0, a)

    def dense(p):
        return np.full(x.shape, p) if isinstance(p, float) else p.array

    sigma = {
        "relu": relu,
        "identity_via_relu": lambda a: relu(a) - relu(-a),
        "invsqr": lambda a: table_eval(comp.table, a),
        "invsqr_exact": exact_invsqr,
    }[comp.activation]
    acc = np.zeros(x.shape)
    for head in zip(comp.w, comp.v, comp.b, comp.c):
        w, v, b, c = map(dense, head)
        acc += v * sigma(w * x + b) + c
    return acc


def literal_run_module(h, blocks):
    """A pipeline module run literally: each block's dense multi-head forward, then the skip."""
    out = h
    for block in blocks:
        out = multihead_forward(out, block)
    return add(out, h)


def _literal_divide(table, x, pivot: BlockSpec, gamma: int):
    """Dense divide module: mask the pivot (z), 1/z^2 by the divider (r), gamma * (r @ z)."""
    size = x.rows
    spec = MaskSpec(pivot, size, size)
    z = component_forward(x, make_mask_component(spec))
    r = component_forward(z, make_divider_component(spec, table))
    return skip_mul(r, z, side="left", gamma=gamma)


def literal_forward_step(state, k: int):
    """Forward elimination of column k with every module dense over the padded state.

    Takes and returns a gauss EliminationState; it checks no pivot or stage.
    """
    size = state.m + 1
    p = state.p
    z3 = _literal_divide(state.table, p, BlockSpec(k, k, k, k), gamma=-1)
    z4 = component_forward(
        p, make_mask_component(MaskSpec(BlockSpec(k + 1, state.m, k, k), size, size))
    )
    z5 = matmul(z4, z3)
    z6 = component_forward(z5, make_affine_component(1.0, identity(size)))
    p_next = skip_mul(z6, p, side="left", gamma=1)
    return replace(state, p=p_next, stage=("forward", max(state.stage[1], k)))


def literal_backward_step(state, t: int):
    """Backward substitution of variable t with every module dense over the padded state.

    Takes and returns a gauss EliminationState; it checks no pivot or stage.
    """
    size = state.m + 1
    q = state.p
    if t < state.m:
        # Fold xi_{t+1} into the right-hand side: Q (I - xi e_{t+1,m+1}).
        z1 = component_forward(
            q, make_mask_component(MaskSpec(BlockSpec(t + 1, t + 1, size, size), size, size))
        )
        z2 = component_forward(z1, make_affine_component(-1.0, identity(size)))
        q = skip_mul(z2, q, side="right", gamma=1)
    pivot = BlockSpec(t, t, t, t)
    z6 = _literal_divide(state.table, q, pivot, gamma=1)
    eye_without = block_write(identity(size), pivot, zeros(1, 1))
    z7 = component_forward(z6, make_affine_component(1.0, eye_without))
    prod = skip_mul(z7, q, side="left", gamma=1)
    q_next = component_forward(prod, make_mask_component(MaskSpec(pivot, size, size, anti=True)))
    return replace(state, p=q_next, stage=("backward", t))


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


def ridge_cost(x: np.ndarray, y: np.ndarray, lam: float, w: np.ndarray) -> float:
    """The regularized cost 0.5||y - Xw||^2 + 0.5*lam*||w||^2."""
    r = y - x @ w
    return 0.5 * float(r[:, 0] @ r[:, 0]) + 0.5 * lam * float(w[:, 0] @ w[:, 0])


def fd_gradient(x: np.ndarray, y: np.ndarray, lam: float, w: np.ndarray,
                step: float = 1e-5) -> np.ndarray:
    """Central finite differences of ridge_cost."""
    g = np.zeros_like(w)
    for idx in range(w.shape[0]):
        up = w.copy()
        dn = w.copy()
        up[idx, 0] += step
        dn[idx, 0] -= step
        g[idx, 0] = (ridge_cost(x, y, lam, up) - ridge_cost(x, y, lam, dn)) / (2.0 * step)
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


def zero_feature_arrays(rng: np.random.Generator, n: int, d: int):
    """x, y, u and w0 whose first feature, and last one when d > 2, is a zero column of X.

    The zero columns hold signed zeros and w0 is -0.0, so the first step's
    gradient terms for those features are signed zeros.
    """
    x, y, u = random_ridge_arrays(rng, n, d)
    zero = [0] + ([d - 1] if d > 2 else [])
    x[:, zero] = rng.choice([0.0, -0.0], size=(n, len(zero)))
    return x, y, u, np.full((d, 1), -0.0)


def nonfinite_ridge_problems(n: int, d: int):
    """Explicit-eta ridge problems whose descent overflows, at lambda 0.5 and a random w0.

    In order: eta 1e308, which overflows at step 1 (the enumerated marker
    is -eta I); eta 1e6 / (lambda_max(X^T X) + lambda), stopped at the
    descent's first non-finite step k, at k + 1 and at 2k, so that the
    overflow comes at step T and mid-run; and an X scaled by 1e200 at eta
    1e-300, whose designed prompt is finite but whose X^T X is not.
    """
    rng = np.random.default_rng([n, d, 36])
    x, y, u = random_ridge_arrays(rng, n, d)
    x, y, u, w0 = (Matrix.from_array(a) for a in (x, y, u, rng.normal(size=(d, 1))))
    yield make_problem(x, y, u, 0.5, eta=1e308, steps=4, w0=w0)
    eta = 1e6 * stable_eta_for(x, 0.5)
    k = len(gd_run(make_problem(x, y, u, 0.5, eta=eta, steps=400, w0=w0)))
    for steps in (k, k + 1, 2 * k):
        yield make_problem(x, y, u, 0.5, eta=eta, steps=steps, w0=w0)
    huge = Matrix.from_array(1e200 * x.array)
    yield make_problem(huge, y, u, 0.5, eta=1e-300, steps=8, w0=w0)


def block_write_designed_prompt(p) -> Matrix:
    """The designed prompt of the ridge problem p, one block_write per block."""
    n, d = p.n, p.d
    s = 2 * n + d + 3
    sqrt_eta = math.sqrt(p.eta)
    sqrt_eta_lam = math.sqrt(p.eta) * math.sqrt(p.lam)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = (scale(transpose(p.x), sqrt_eta), scale(transpose(p.y), sqrt_eta),
                  scale(identity(d), sqrt_eta_lam))
    if not all(np.all(np.isfinite(m.array)) for m in scaled):
        raise BadProblemFile("the designed prompt is not finite: sqrt(eta) X, sqrt(eta) y "
                             "or sqrt(eta lambda) overflows")
    h = zeros(d + 1, s)
    h = block_write(h, BlockSpec(1, d, 1, n), scaled[0])
    h = block_write(h, BlockSpec(d + 1, d + 1, n + 1, 2 * n), scaled[1])
    h = block_write(h, BlockSpec(d + 1, d + 1, 2 * n + 1, 2 * n + 1), Matrix([[1.0]]))
    h = block_write(h, BlockSpec(1, d, 2 * n + 2, 2 * n + d + 1), scaled[2])
    h = block_write(h, BlockSpec(1, d, 2 * n + d + 2, 2 * n + d + 2), p.u)
    return block_write(h, BlockSpec(1, d, s, s), p.w0)


def block_write_enumerated_prompt(p) -> Matrix:
    """The enumerated prompt of the ridge problem p, one block_write per block."""
    n, d = p.n, p.d
    s = 2 * n + 2 * d + 3
    h = zeros(d, s)
    h = block_write(h, BlockSpec(1, d, 1, n), transpose(p.x))
    h = block_write(h, BlockSpec(d, d, n + 1, 2 * n), transpose(p.y))
    h = block_write(h, BlockSpec(1, d, 2 * n + 1, 2 * n + d), scale(identity(d), p.lam))
    h = block_write(
        h, BlockSpec(1, d, 2 * n + d + 1, 2 * n + 2 * d), scale(identity(d), math.sqrt(p.eta))
    )
    h = block_write(h, BlockSpec(1, d, 2 * n + 2 * d + 1, 2 * n + 2 * d + 1), p.u)
    return block_write(h, BlockSpec(1, d, s, s), p.w0)


def selector(s: int, *entries: tuple[int, int, float]) -> Matrix:
    """The s-by-s weight with the given 1-based (row, column, value) entries, zero elsewhere."""
    w = np.zeros((s, s))
    for i, j, v in entries:
        w[i - 1, j - 1] = v
    return Matrix.from_array(w)


def two_block_program(n: int, d: int) -> Program:
    """The designed step plus one head per block, then a second block of two heads.

    1-based columns, s = 2n+d+3: X is 1..n and w is s. Block 1 keeps the designed
    heads, which write w (head 1 is constant, heads 2 and 3 vary), and adds a constant
    head writing column 2 and a varying head whose t2 reads the constant column 1 and w.
    Block 2's first head varies: its t2 reads w, which constant and varying heads both
    wrote, and column 2; its t1 and t3 read column 2. Its second head reads only
    column 2, which only a constant head wrote, and writes u and w.
    """
    designed = build_designed_weights(n, d)
    s = designed.layout.s
    const_head = LsaParams(w1=selector(s, (1, 1, 1.0)), w2=selector(s, (3, 2, 0.5)),
                           w3=selector(s, (4, 1, 1.0)))
    mixed_reader = LsaParams(w1=selector(s, (2, 1, 1.0)),
                             w2=selector(s, (1, s, 0.01), (s, s, 0.01)),
                             w3=selector(s, (2, 1, 1.0)))
    varying = LsaParams(w1=selector(s, (2, 1, 1.0)), w2=selector(s, (s, s, 0.1), (2, s, 0.5)),
                        w3=selector(s, (2, 1, 1.0)))
    constant = LsaParams(w1=selector(s, (2, 1, 1.0)),
                         w2=selector(s, (2, s - 1, 1.0), (2, s, -0.25)),
                         w3=selector(s, (2, 1, 1.0)))
    step_blocks = ((*designed.step[0], const_head, mixed_reader), (varying, constant))
    return Program(designed.layout, step_blocks, designed.readout, designed.cell)


def reader_program(n: int, d: int, reader: str) -> Program:
    """The designed program with a fourth step head whose `reader` projection reads w.

    The extra head adds t3 (t1^T t2) to the w column s, with t1 = t3 = H[:, 1] and
    t2 = -0.1 H[:, 1], except that the reader projection ("w1" or "w3") takes the
    w column H[:, s].
    """
    designed = build_designed_weights(n, d)
    s = designed.layout.s
    x_col = eye_block(s, s, BlockSpec(1, 1, 1, 1))
    weights = {"w1": x_col, "w3": x_col, reader: eye_block(s, s, BlockSpec(s, s, 1, 1))}
    w2 = eye_block(s, s, BlockSpec(1, 1, s, s), -0.1)
    head = LsaParams(w1=weights["w1"], w2=w2, w3=weights["w3"])
    step_block = (*designed.step[0], head)
    return Program(designed.layout, (step_block,), designed.readout, designed.cell)
