"""1-norm condition estimation (Hager's algorithm).

With the factorization in hand, ``||A^{-1}||_1`` can be estimated from a
handful of solves with A and Aᵀ (Hager 1984 / Higham's CONEST).  Combined
with ``||A||_1`` this gives the classical ``cond_1(A)`` estimate a library
user checks before trusting a solution.
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSRMatrix


def onenorm(A: CSRMatrix) -> float:
    """Exact 1-norm (max absolute column sum) of a sparse matrix."""
    sums = np.zeros(A.ncols)
    np.add.at(sums, A.indices, np.abs(A.data))
    return float(sums.max()) if A.ncols else 0.0


def onenormest_inverse(solve, solve_transpose, n: int) -> float:
    """Estimate ``||A^{-1}||_1`` from solve oracles (Hager's iteration, at
    most 8 steps).

    ``solve(b)`` must return ``A^{-1} b`` and ``solve_transpose(b)``
    ``A^{-T} b``.  The estimate is a lower bound, almost always within a
    small factor of the truth.
    """
    x = np.full(n, 1.0 / n)
    best = 0.0
    for _ in range(8):
        y = solve(x)
        est = float(np.abs(y).sum())
        best = max(best, est)
        xi = np.sign(y)
        xi[xi == 0] = 1.0
        z = solve_transpose(xi)
        j = int(np.argmax(np.abs(z)))
        if np.abs(z[j]) <= z @ x:
            break  # converged
        x = np.zeros(n)
        x[j] = 1.0
    # final refinement with the classic alternating-signs probe
    v = np.array([(-1.0) ** i * (1.0 + i / max(n - 1, 1)) for i in range(n)])
    est2 = 2.0 * float(np.abs(solve(v)).sum()) / (3.0 * n)
    return max(best, est2)


def condest(A: CSRMatrix, solve, solve_transpose) -> float:
    """Estimated 1-norm condition number ``||A||_1 * est(||A^{-1}||_1)``."""
    return onenorm(A) * onenormest_inverse(solve, solve_transpose, A.nrows)
