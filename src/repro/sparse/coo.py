"""COO <-> CSR conversion with canonicalisation (sort + duplicate merge)."""

from __future__ import annotations

import numpy as np

from .csr import CSRMatrix, real_array


def coo_to_csr(nrows, ncols, rows, cols, vals=None, sum_duplicates=True):
    """Build a canonical :class:`CSRMatrix` from triplets.

    Entries are sorted by (row, column); duplicates are summed (the standard
    finite-element assembly convention) unless ``sum_duplicates`` is False in
    which case the last value wins.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if vals is None:
        vals = np.ones(len(rows))
    vals = real_array(vals)
    if not (len(rows) == len(cols) == len(vals)):
        raise ValueError("triplet arrays must have equal length")
    if len(rows) and (rows.min() < 0 or rows.max() >= nrows):
        raise ValueError("row index out of range")
    if len(cols) and (cols.min() < 0 or cols.max() >= ncols):
        raise ValueError("column index out of range")

    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]

    if len(rows):
        key = rows * ncols + cols
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        group = np.cumsum(first) - 1
        urows = rows[first]
        ucols = cols[first]
        if sum_duplicates:
            if first.all():
                # no duplicates: keep values verbatim (bincount's +0.0
                # accumulator would drop the sign of -0.0 entries)
                uvals = vals.copy()
            else:
                uvals = np.bincount(group, weights=vals, minlength=group[-1] + 1)
        else:
            uvals = np.empty(group[-1] + 1)
            uvals[group] = vals  # later entries overwrite earlier ones
    else:
        urows = rows
        ucols = cols
        uvals = vals

    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(urows, minlength=nrows), out=indptr[1:])
    return CSRMatrix(nrows, ncols, indptr, ucols, uvals)


def csr_to_coo(A: CSRMatrix):
    """Return ``(rows, cols, vals)`` triplet arrays of ``A``."""
    counts = np.diff(A.indptr)
    rows = np.repeat(np.arange(A.nrows, dtype=np.int64), counts)
    return rows, A.indices.copy(), A.data.copy()
