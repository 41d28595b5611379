"""Sparse matrix substrate built from scratch on top of numpy.

The S* pipeline never relies on :mod:`scipy.sparse`; everything the paper's
system needs — compressed sparse row/column storage, pattern algebra
(transpose, :math:`A^TA` pattern, unions), structural symmetry statistics and
a Matrix-Market-flavoured I/O layer — is implemented here.
"""

from .csr import CSRMatrix, real_array, rhs_array
from .coo import coo_to_csr, csr_to_coo
from .ops import (
    csr_transpose,
    pattern_transpose,
    ata_pattern,
    aplusat_pattern,
    structural_symmetry,
    csr_matvec,
    csr_to_dense,
    dense_to_csr,
    sorted_unique,
    check_column_indices,
)
from .io import write_matrix_market, read_matrix_market

__all__ = [
    "CSRMatrix",
    "real_array",
    "rhs_array",
    "coo_to_csr",
    "csr_to_coo",
    "csr_transpose",
    "pattern_transpose",
    "ata_pattern",
    "aplusat_pattern",
    "structural_symmetry",
    "csr_matvec",
    "csr_to_dense",
    "dense_to_csr",
    "sorted_unique",
    "check_column_indices",
    "write_matrix_market",
    "read_matrix_market",
]
