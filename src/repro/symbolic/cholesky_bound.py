"""The classical (looser) structure bound: Cholesky of :math:`A^T A`.

Table 1 compares three structure predictions; this module provides the
``A^T A`` column — the symbolic Cholesky factor :math:`L_c` of the
:math:`A^T A` pattern, whose structure upper-bounds L and U for any pivot
sequence (George & Ng) but usually overshoots badly.

Implementation: the standard column-merge symbolic Cholesky — column
``j``'s structure is its own lower pattern merged into its parent, the
smallest row below the diagonal (the elimination tree is never built as an
array), giving O(|L_c|) total work.
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSRMatrix


def cholesky_ata_structure(pattern: CSRMatrix) -> list:
    """Symbolic Cholesky of a symmetric ``pattern`` (e.g. from
    :func:`repro.sparse.ata_pattern`).

    Returns ``lcol`` where ``lcol[j]`` is the sorted row structure of column
    ``j`` of the Cholesky factor (diagonal included).
    """
    n = pattern.nrows
    colsets = []
    for j in range(n):
        rows = pattern.row_indices(j)  # symmetric: row j's support
        colsets.append(set(int(i) for i in rows if i >= j) | {j})
    for j in range(n):
        below = [i for i in colsets[j] if i > j]
        if below:
            p = min(below)  # etree parent
            colsets[p] |= {i for i in colsets[j] if i > j}
    return [np.asarray(sorted(s), dtype=np.int64) for s in colsets]


def cholesky_factor_entries(lcol: list) -> int:
    """Entries of :math:`L_c + L_c^T` with the diagonal counted once —
    directly comparable with ``SymbolicFactorization.factor_entries``."""
    return sum(2 * len(c) - 1 for c in lcol)
