"""Frozen reference implementations of the numeric kernels' old call shapes.

These are the product rule of ``repro.numfact.kernels.block_product`` and
the body of ``LUFactorization.solve`` as they stood at commit aac34d0,
before the kernels were dispatched on supernode shape: one ``np.multiply``
(plus ``+ 0.0``) or ``np.matmul`` per product, and a per-block forward and
backward sweep with a triangular solve on every diagonal block, ``1 x 1``
ones included.  The unit lower solve is the row loop every ``L_KK^{-1}``
ran through up to commit f0ab2b9, before the kernels applied an inverted
triangle instead, charge included.  They are the oracle the tests in
``test_kernel_shapes.py`` compare the live code with, byte for byte:
slow, obviously per block, and not to be "improved".
"""

import numpy as np

from repro.numfact.counter import DGEMM, DGEMV, KernelCounter
from repro.numfact.kernels import FLOP_TRSM, upper_solve


def reference_unit_lower_solve(L, B, counter: KernelCounter = None,
                               ncols_structural=None):
    """In-place solve ``L X = B`` with ``L`` unit lower triangular
    (only the strictly-lower part of ``L`` is referenced), one row at a
    time."""
    k = L.shape[0]
    if B.ndim == 1:
        for i in range(1, k):
            B[i] -= L[i, :i] @ B[:i]
    else:
        for i in range(1, k):
            B[i, :] -= L[i, :i] @ B[:i, :]
    if counter is not None:
        ncols = (1 if B.ndim == 1 else B.shape[1]) if ncols_structural is None else ncols_structural
        kernel = DGEMM if ncols >= 2 else DGEMV
        counter.add(kernel, FLOP_TRSM(k, ncols), gran=min(k, ncols) if kernel == DGEMM else k)
    return B


def reference_block_product(A, B, out):
    """``out[...] = A @ B``: an elementwise multiply for inner dimension
    1, ``np.matmul`` otherwise."""
    if A.shape[1] == 1:
        np.multiply(A, B, out=out)
        np.add(out, 0.0, out=out)
    else:
        np.matmul(A, B, out=out)
    return out


def reference_solve(lu, b, lower_solve=reference_unit_lower_solve):
    """``A x = b`` for the permuted matrix of ``lu``, one product per
    block and a triangular solve per diagonal block (``lower_solve(L, xk)``
    in place for the unit lower one)."""
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
        lower_solve(m.blocks[(K, K)], xk)
        for I in lu.bstruct.l_block_rows(K):
            if I > K:
                x[bounds[I] : bounds[I + 1]] -= m.blocks[(I, K)] @ xk
    for K in range(N - 1, -1, -1):
        xk = x[bounds[K] : bounds[K + 1]]
        for J in lu.bstruct.u_block_cols(K):
            xk -= m.blocks[(K, J)] @ x[bounds[J] : bounds[J + 1]]
        upper_solve(m.blocks[(K, K)], xk)
    return x
