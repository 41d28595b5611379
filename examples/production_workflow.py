"""Production workflow: threshold pivoting, refinement, condition estimate
and factor reuse via serialization.

Run:  python examples/production_workflow.py
"""

import os
import tempfile

import numpy as np

from repro import SStarSolver
from repro.analysis import (
    backward_error,
    condest,
    iterative_refinement,
)
from repro.matrices import get_matrix, random_nonsymmetric
from repro.numfact import load_factorization, save_factorization
from repro.sparse import csr_matvec


def main():
    A = get_matrix("saylr4", "small")
    n = A.nrows
    rng = np.random.default_rng(42)
    b = rng.uniform(-1, 1, n)

    # 1. threshold pivoting: fewer interchanges, refinement repairs accuracy
    # (shown on a matrix that genuinely needs row interchanges)
    P = random_nonsymmetric(200, density=0.04, seed=9)
    bp = rng.uniform(-1, 1, 200)
    print("== threshold pivoting sweep ==")
    for u in (1.0, 0.1, 0.01):
        s = SStarSolver(pivot_threshold=u).factor(P)
        x = s.solve(bp)
        x_ref, hist = iterative_refinement(P, s.solve, bp)
        print(
            f"  u={u:<5} interchanges={s.factorization.num_interchanges():4d} "
            f"backward error {backward_error(P, x, bp):.2e} -> "
            f"{hist[-1]:.2e} after {len(hist) - 1} refinement step(s)"
        )

    # 2. condition estimate from the factorization (Hager's algorithm)
    s = SStarSolver().factor(A)
    lu = s.factorization

    def solve_perm(v):
        return lu.solve(v)

    def solve_perm_t(v):
        return lu.solve_transpose(v)

    om = s.ordering
    est = condest(om.A, solve_perm, solve_perm_t)
    print(f"\n== condition estimate ==\n  cond_1(A) ~ {est:.3e}")

    # 3. factor once, persist, reload, solve many right-hand sides
    print("\n== factor reuse via serialization ==")
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "factors.npz")
        save_factorization(path, lu)
        size = os.path.getsize(path)
        lu2 = load_factorization(path)
        B = rng.uniform(-1, 1, (n, 4))
        X = lu2.solve(B[om.row_perm])  # permuted coordinates
        resid = 0.0
        for j in range(4):
            xj = np.empty(n)
            xj[om.col_perm] = X[:, j]
            r = np.linalg.norm(csr_matvec(A, xj) - B[:, j])
            resid = max(resid, r)
        print(f"  archive {size/1024:.0f} KiB; worst residual over 4 rhs: {resid:.2e}")


if __name__ == "__main__":
    main()
