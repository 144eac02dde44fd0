"""What a bias-extended linear attention layer can compute by construction.

Three capabilities, each witnessed by explicit parameters rather than
training: emit an arbitrary constant, reproduce the input (a skip
connection), and multiply two matrices packed into the input. The last one
is also shown for plain (bias-free) attention, where it needs an extra
identity block in the prompt.
"""

import numpy as np

from elsakit import (
    BlockSpec,
    LsaParams,
    Matrix,
    MskMovSpec,
    block_write,
    const_params,
    elsa_forward,
    identity,
    lsa_forward,
    matmul_params_v1,
    matmul_params_v2,
    mskmov_selectors,
    skip_params,
    transpose,
    zeros,
)

np.set_printoptions(linewidth=120, suppress=True)
rng = np.random.default_rng(0)

# --- constants and skips -------------------------------------------------------
h = Matrix.from_array(rng.uniform(-1, 1, size=(3, 4)))
c = Matrix([[1.0, 2.0, 3.0, 4.0],
            [5.0, 6.0, 7.0, 8.0],
            [9.0, 10.0, 11.0, 12.0]])

out = elsa_forward(h, const_params(c, (3, 4)))
print("constant emission, independent of the input:", out == c)

out = elsa_forward(h, skip_params((3, 4)))
print("skip connection, output equals input:", out == h)

# --- two-matrix product, stacked packing [[A^T, B], [0, 0]] ---------------------
a = rng.uniform(-1, 1, size=(2, 3))
b = rng.uniform(-1, 1, size=(3, 2))
pack, params, blk = matmul_params_v1(2, 3, 2)
out = elsa_forward(pack(Matrix.from_array(a), Matrix.from_array(b)), params)
got = out.array[blk.index]
print("\nstacked packing: product block error",
      np.abs(got - a @ b).max())

# --- two-matrix product, block-diagonal packing [[A, 0], [0, B]] ----------------
pack, params, blk = matmul_params_v2(2, 3, 2)
out = elsa_forward(pack(Matrix.from_array(a), Matrix.from_array(b)), params)
got = out.array[blk.index]
print("block-diagonal packing: product block error",
      np.abs(got - a @ b).max())

# --- plain attention needs a helper identity block ------------------------------
# Prompt [[A, 0, 0], [0, B, I]]: the Gram matrix then contains B next to an
# identity, a selector pair moves B under A's columns, and the value
# projection keeps only A.
r, s, t = 2, 3, 2
m, n = r + s, 2 * s + t
hp = zeros(m, n)
hp = block_write(hp, BlockSpec(1, r, 1, s), Matrix.from_array(a))
hp = block_write(hp, BlockSpec(r + 1, r + s, s + 1, s + t), Matrix.from_array(b))
hp = block_write(hp, BlockSpec(r + 1, r + s, s + t + 1, n), identity(s))
w, v = mskmov_selectors(
    MskMovSpec(i=s + t + 1, j=2 * s + t, k=s + 1, l=s + t, m=n, n=n, a=-(s + t), b=s)
)
w3 = block_write(zeros(n, n), BlockSpec(1, s, 1, s), identity(s))
out = lsa_forward(hp, LsaParams(w1=transpose(w), w2=v, w3=w3))
got = out.array[:r, 2 * s:2 * s + t]
print("plain attention with identity helper: product block error",
      np.abs(got - a @ b).max())
print("(without biases the prompt must carry that extra identity block;")
print(" the bias-extended layer above did not need it)")
