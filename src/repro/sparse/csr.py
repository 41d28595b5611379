"""Compressed sparse row (CSR) matrix.

The storage convention follows the classic three-array layout: ``indptr``
(length ``nrows + 1``), ``indices`` (column indices, row-sorted) and ``data``
(values aligned with ``indices``).  Rows are kept sorted by column index and
free of duplicates; :func:`repro.sparse.coo.coo_to_csr` performs the
canonicalisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def real_array(values, what: str = "values") -> np.ndarray:
    """``values`` as a float64 array, refusing what a cast would corrupt.

    ``np.asarray(values, dtype=np.float64)`` drops the imaginary part of a
    complex input with only a ``ComplexWarning`` and parses strings; here a
    dtype that is not bool, integer or real floating raises ``TypeError``
    naming it.  The shared entry check of matrix values and right-hand
    sides."""
    a = np.asarray(values)
    if a.dtype.kind not in "biuf":
        raise TypeError(f"{what} must be real numbers; got dtype {a.dtype}")
    return a.astype(np.float64, copy=False)


def rhs_array(b, n: int) -> np.ndarray:
    """A right-hand side of an ``n x n`` system: :func:`real_array` of
    ``b``, which must have shape ``(n,)`` or ``(n, k)`` (``ValueError``
    otherwise)."""
    b = real_array(b, "rhs")
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"rhs must have shape ({n},) or ({n}, k); got {b.shape}")
    return b


@dataclass
class CSRMatrix:
    """A real ``nrows x ncols`` sparse matrix in CSR form.

    Attributes
    ----------
    nrows, ncols:
        Matrix dimensions.
    indptr:
        ``int64`` array of length ``nrows + 1``; row ``i`` occupies
        ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        Column indices, sorted within each row, no duplicates.
    data:
        ``float64`` values aligned with ``indices``.
    """

    nrows: int
    ncols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.data is None:
            self.data = np.ones(len(self.indices), dtype=np.float64)
        else:
            self.data = real_array(self.data)
        if len(self.indptr) != self.nrows + 1:
            raise ValueError(
                f"indptr has length {len(self.indptr)}, expected {self.nrows + 1}"
            )
        if self.data.shape != self.indices.shape:
            raise ValueError(
                f"indices and data length mismatch: {self.indices.shape} "
                f"indices, data of shape {self.data.shape}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr does not span indices")

    # -- basic queries ----------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indptr[-1])

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    def row(self, i: int) -> tuple:
        """Return ``(indices, data)`` views of row ``i``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def row_indices(self, i: int) -> np.ndarray:
        """Column indices of row ``i`` (a view)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def get(self, i: int, j: int) -> float:
        """Value at ``(i, j)`` (0.0 if not stored).  O(log nnz_row)."""
        cols, vals = self.row(i)
        pos = np.searchsorted(cols, j)
        if pos < len(cols) and cols[pos] == j:
            return float(vals[pos])
        return 0.0

    def has_entry(self, i: int, j: int) -> bool:
        """True when ``(i, j)`` is structurally present."""
        cols = self.row_indices(i)
        pos = np.searchsorted(cols, j)
        return bool(pos < len(cols) and cols[pos] == j)

    def diagonal(self) -> np.ndarray:
        """Dense vector of the stored diagonal (0.0 where absent)."""
        n = min(self.nrows, self.ncols)
        d = np.zeros(n)
        for i in range(n):
            d[i] = self.get(i, i)
        return d

    def has_zero_free_diagonal(self) -> bool:
        """True when every diagonal position is structurally present."""
        n = min(self.nrows, self.ncols)
        return all(self.has_entry(i, i) for i in range(n))

    # -- transformations ---------------------------------------------------

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(
            self.nrows,
            self.ncols,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
        )

    def with_values(self, data) -> "CSRMatrix":
        """Same pattern, new values — the refactorization workload shape."""
        data = real_array(data)
        if data.shape != (self.nnz,):
            raise ValueError(
                f"values must have shape ({self.nnz},); got {data.shape}"
            )
        return CSRMatrix(
            self.nrows,
            self.ncols,
            self.indptr.copy(),
            self.indices.copy(),
            data.copy(),
        )

    def permute(self, row_perm=None, col_perm=None) -> "CSRMatrix":
        """Return ``A[row_perm, :][:, col_perm]`` style permutation.

        ``row_perm[k] = i`` means new row ``k`` is old row ``i``;
        ``col_perm[k] = j`` means new column ``k`` is old column ``j``.
        """
        from .coo import coo_to_csr

        if row_perm is None:
            row_perm = np.arange(self.nrows)
        if col_perm is None:
            col_perm = np.arange(self.ncols)
        row_perm = np.asarray(row_perm, dtype=np.int64)
        col_perm = np.asarray(col_perm, dtype=np.int64)
        # inverse of col_perm: old column j lands at position inv[j]
        col_inv = np.empty(self.ncols, dtype=np.int64)
        col_inv[col_perm] = np.arange(self.ncols)
        # one gather: entry e of new row k is entry starts[k] + e of the old
        # storage, for e < counts[k]
        starts = self.indptr[row_perm]
        counts = self.indptr[row_perm + 1] - starts
        first = np.cumsum(counts) - counts
        rows = np.repeat(np.arange(len(row_perm), dtype=np.int64), counts)
        src = np.arange(len(rows), dtype=np.int64) + np.repeat(starts - first, counts)
        cols = col_inv[self.indices[src]]
        vals = self.data[src]
        return coo_to_csr(self.nrows, self.ncols, rows, cols, vals)

    def pattern_rows(self) -> list:
        """List of per-row column-index arrays (views)."""
        return [self.row_indices(i) for i in range(self.nrows)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
