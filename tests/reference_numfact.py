"""Frozen reference implementations of the numeric kernels' old call shapes.

These are the product rule of ``repro.numfact.kernels.block_product`` and
the body of ``LUFactorization.solve`` as they stood at commit aac34d0,
before the kernels were dispatched on supernode shape: one ``np.multiply``
(plus ``+ 0.0``) or ``np.matmul`` per product, and a per-block forward and
backward sweep with a triangular solve on every diagonal block, ``1 x 1``
ones included.  They are the oracle the tests in ``test_kernel_shapes.py``
compare the live code with, byte for byte: slow, obviously per block, and
not to be "improved".
"""

import numpy as np

from repro.numfact.kernels import unit_lower_solve, upper_solve


def reference_block_product(A, B, out):
    """``out[...] = A @ B``: an elementwise multiply for inner dimension
    1, ``np.matmul`` otherwise."""
    if A.shape[1] == 1:
        np.multiply(A, B, out=out)
        np.add(out, 0.0, out=out)
    else:
        np.matmul(A, B, out=out)
    return out


def reference_solve(lu, b):
    """``A x = b`` for the permuted matrix of ``lu``, one product per
    block and a triangular solve per diagonal block."""
    m = lu.matrix
    part = lu.part
    x = np.asarray(b, dtype=np.float64).copy()
    N = part.N
    bounds = part.bounds
    for K in range(N):
        for r1, r2 in m.pivot_seq[K]:
            if r1 != r2:
                tmp = x[r1].copy() if x.ndim == 2 else x[r1]
                x[r1] = x[r2]
                x[r2] = tmp
        xk = x[bounds[K] : bounds[K + 1]]
        unit_lower_solve(m.blocks[(K, K)], xk)
        for I in lu.bstruct.l_block_rows(K):
            if I > K:
                x[bounds[I] : bounds[I + 1]] -= m.blocks[(I, K)] @ xk
    for K in range(N - 1, -1, -1):
        xk = x[bounds[K] : bounds[K + 1]]
        for J in lu.bstruct.u_block_cols(K):
            xk -= m.blocks[(K, J)] @ x[bounds[J] : bounds[J + 1]]
        upper_solve(m.blocks[(K, K)], xk)
    return x
