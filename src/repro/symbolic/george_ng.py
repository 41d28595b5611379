"""George-Ng static symbolic factorization.

Implements the structure-prediction scheme of Section 3.1 (originally George
& Ng, *Symbolic factorization for sparse Gaussian elimination with partial
pivoting*): at elimination step ``k`` every **candidate pivot row** —
``P_k = { i >= k : a_ik structurally nonzero }`` — has its trailing structure
replaced by the union of the trailing structures of all candidates.  The
resulting structure accommodates the fill of *any* pivot sequence partial
pivoting could choose.

Outputs, per step ``k``:

* ``lcol[k]`` — the candidate set ``P_k`` itself: the static structure of
  column ``k`` of L (row indices, diagonal included), because whichever row
  is chosen as pivot, the multipliers land exactly at the candidate rows.
* ``urow[k]`` — the unioned trailing structure: the static structure of row
  ``k`` of U (column indices ``>= k``, diagonal included).

Implementation note — after step ``k`` all candidate rows share *one
identical* trailing structure, so rows are kept in **groups** holding a single
shared sorted index array, and the groups are kept in ``n`` buckets keyed by
the *first column* of that array.  The invariant that makes this work: at
step ``k`` every live group's structure starts at a column ``>= k`` (a group
holding a column ``j < k`` was a candidate at step ``j`` and was replaced by
the union's tail, which starts after ``j``), so "contains ``k``" is "starts at
``k``" and the candidates of step ``k`` are exactly ``by_first[k]`` — no
membership scan.  Each step unions its candidates, retires row ``k`` and files
the merged tail under its new first column: O(sum |urow|) work overall, up to
the log factor of sorting each union.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse import CSRMatrix, sorted_unique


@dataclass
class SymbolicFactorization:
    """Static L/U structure produced by :func:`static_symbolic_factorization`.

    Attributes
    ----------
    n:
        Matrix order.
    lcol:
        ``lcol[k]`` — sorted row indices of column ``k`` of L (includes the
        diagonal ``k``); equals the candidate pivot set ``P_k``.
    urow:
        ``urow[k]`` — sorted column indices of row ``k`` of U (includes the
        diagonal ``k``).
    """

    n: int
    lcol: list
    urow: list

    @property
    def factor_entries(self) -> int:
        """Total predicted entries of L + U (diagonal counted once)."""
        return sum(len(l) + len(u) - 1 for l, u in zip(self.lcol, self.urow))

    def row_structure(self, i: int) -> np.ndarray:
        """Full structure of row ``i`` of the filled matrix F = L + U.

        The U part is ``urow[i]``; the L part collects every column ``j < i``
        whose candidate set contains ``i``.  O(n log) — intended for tests
        and small examples.
        """
        lpart = [j for j in range(i) if _contains(self.lcol[j], i)]
        return np.concatenate(
            [np.asarray(lpart, dtype=np.int64), self.urow[i]]
        )

    def filled_pattern_dense(self) -> np.ndarray:
        """Dense boolean F = L + U pattern (tests / figures only)."""
        F = np.zeros((self.n, self.n), dtype=bool)
        for k in range(self.n):
            F[self.lcol[k], k] = True
            F[k, self.urow[k]] = True
        return F


class StructuralDiagonalError(ValueError):
    """The input's structural diagonal is not zero-free, so some step has no
    pivot row among its candidates."""


def _contains(sorted_arr: np.ndarray, x: int) -> bool:
    pos = np.searchsorted(sorted_arr, x)
    return bool(pos < len(sorted_arr) and sorted_arr[pos] == x)


def static_symbolic_factorization(A: CSRMatrix) -> SymbolicFactorization:
    """Run the George-Ng scheme on ``A`` (which must have a zero-free
    structural diagonal — run :func:`repro.ordering.prepare_matrix` first).
    """
    n = A.nrows
    if A.ncols != n:
        raise ValueError("square matrix required")
    if n == 0:
        return SymbolicFactorization(0, [], [])

    indptr = A.indptr
    # private copy: the structures handed out below are views into it
    indices = np.array(A.indices, dtype=np.int64)
    if len(indices) and not 0 <= indices.min() <= indices.max() < n:
        raise ValueError("column index out of range")
    rows = np.arange(n, dtype=np.int64)
    has_diag = np.zeros(n, dtype=bool)
    entry_rows = np.repeat(rows, np.diff(indptr))
    has_diag[entry_rows[indices == entry_rows]] = True
    if not has_diag.all():
        raise StructuralDiagonalError(
            f"zero on the structural diagonal at position "
            f"{int(np.argmin(has_diag))}; apply a maximum transversal first"
        )

    # groups are (sorted structure, sorted member rows) pairs, one per row to
    # start with, filed under the structure's first column
    by_first = [[] for _ in range(n)]
    ptr = indptr.tolist()
    for i, first in enumerate(indices[indptr[:-1]].tolist()):
        by_first[first].append((indices[ptr[i]:ptr[i + 1]], rows[i:i + 1]))

    lcol = [None] * n
    urow = [None] * n

    for k in range(n):
        cands = by_first[k]
        if len(cands) == 1:
            union, members = cands[0]
        elif cands:
            union = sorted_unique(np.concatenate([s for s, _ in cands]))
            members = np.concatenate([m for _, m in cands])
            members.sort()
        if not cands or members[0] != k:
            raise StructuralDiagonalError(
                f"step {k}: pivot row {k} not among candidates — diagonal "
                "not zero-free or internal error"
            )
        lcol[k] = members
        urow[k] = union
        # retire row k; the survivors share the union's tail, which starts
        # after k and holds each survivor's own diagonal
        if len(members) > 1:
            by_first[union[1]].append((union[1:], members[1:]))

    return SymbolicFactorization(n, lcol, urow)
