"""Static structure prediction (Section 3.1 of the paper).

* :mod:`george_ng` — the static symbolic factorization that upper-bounds the
  L/U structure of *every* possible partial-pivoting sequence.
* :mod:`cholesky_bound` — the looser classical bound: the structure of the
  Cholesky factor of :math:`A^T A`.
* :mod:`stats` — factor-entry and operation counts for the Table 1 columns.
"""

from .george_ng import (
    static_symbolic_factorization,
    StructuralDiagonalError,
    SymbolicFactorization,
)
from .cholesky_bound import cholesky_ata_structure, elimination_tree
from .stats import structure_stats, elementwise_ops, FillStats

__all__ = [
    "static_symbolic_factorization",
    "StructuralDiagonalError",
    "SymbolicFactorization",
    "cholesky_ata_structure",
    "elimination_tree",
    "structure_stats",
    "elementwise_ops",
    "FillStats",
]
