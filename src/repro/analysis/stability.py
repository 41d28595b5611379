"""Numerical-stability diagnostics for GEPP factorizations.

Partial pivoting is the whole point of the paper — nonsymmetric systems
need row interchanges for backward stability.  This module quantifies that:

* **element growth factor** ``max|U| / max|A|`` — the classical GEPP
  stability measure (bounded by 2^(n-1) in theory, small in practice);
* **componentwise backward error** of a computed solution
  (Oettli-Prager): ``max_i |Ax - b|_i / (|A||x| + |b|)_i``;
* **iterative refinement** that drives the backward error to roundoff in a
  few extra triangular solves, reusing the factorization.
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSRMatrix, csr_matvec


def growth_factor(A: CSRMatrix, lu_dense_max: float) -> float:
    """Element growth ``max |U| / max |A|`` given the factor's max element."""
    amax = float(np.max(np.abs(A.data))) if A.nnz else 0.0
    if amax == 0.0:
        return float("inf")
    return lu_dense_max / amax


def factor_max_element(lu) -> float:
    """Largest magnitude stored in a BlockLUMatrix-backed factorization."""
    best = 0.0
    for blk in lu.matrix.blocks.values():
        if blk.size:
            best = max(best, float(np.max(np.abs(blk))))
    return best


def backward_error(A: CSRMatrix, x: np.ndarray, b: np.ndarray) -> float:
    """Oettli-Prager componentwise relative backward error."""
    r = csr_matvec(A, x) - b
    absA = CSRMatrix(A.nrows, A.ncols, A.indptr, A.indices, np.abs(A.data))
    denom = csr_matvec(absA, np.abs(x)) + np.abs(b)
    mask = denom > 0
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(r[mask]) / denom[mask]))


def iterative_refinement(
    A: CSRMatrix,
    solve,
    b: np.ndarray,
    max_iters: int = 5,
    tol: float = 1e-14,
):
    """Refine ``x = solve(b)`` with residual corrections.

    ``solve`` is any function mapping a right-hand side to a solution using
    the (fixed) factorization, e.g. ``SStarSolver.solve``.  Returns
    ``(x, history)`` where ``history`` is the backward error per iteration.
    A non-finite backward error ends the iteration: its residual is no
    right-hand side a solve accepts.
    """
    x = solve(b)
    history = [backward_error(A, x, b)]
    for _ in range(max_iters):
        if history[-1] <= tol or not np.isfinite(history[-1]):
            break
        r = b - csr_matvec(A, x)
        x = x + solve(r)
        history.append(backward_error(A, x, b))
    return x, history
