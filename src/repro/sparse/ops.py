"""Pattern algebra and small numeric kernels on CSR matrices.

These are the structural operations the S* front-end needs: transposition,
the pattern of :math:`A^T A` (whose graph drives the fill-reducing ordering),
the pattern of :math:`A^T + A`, structural-symmetry statistics (the
``sym(A)`` column of Table 1) and dense/CSR bridges used by tests.
"""

from __future__ import annotations

import numpy as np

from .coo import coo_to_csr, csr_to_coo
from .csr import CSRMatrix, real_array


def csr_transpose(A: CSRMatrix) -> CSRMatrix:
    """Numeric transpose."""
    rows, cols, vals = csr_to_coo(A)
    return coo_to_csr(A.ncols, A.nrows, cols, rows, vals)


def pattern_transpose(A: CSRMatrix) -> CSRMatrix:
    """Structural transpose (all values set to 1)."""
    rows, cols, _ = csr_to_coo(A)
    return coo_to_csr(A.ncols, A.nrows, cols, rows, np.ones(len(rows)))


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of an int array the caller owns: sorts ``values`` in
    place and drops equal neighbours, several times cheaper than
    ``np.unique``'s generic path."""
    values.sort()
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def check_column_indices(A: CSRMatrix) -> None:
    """Raise ``ValueError`` naming the first column index outside
    ``[0, ncols)`` — :class:`CSRMatrix` itself does not range-check."""
    idx, n = A.indices, A.ncols
    if len(idx) and not 0 <= idx.min() <= idx.max() < n:
        bad = int(idx[(idx < 0) | (idx >= n)][0])
        raise ValueError(f"column index {bad} outside [0, {n}) in a matrix of shape {A.shape}")


#: most (j, k) pairs :func:`ata_pattern` expands at once: 2**20 int64 keys
#: and their temporaries stay under ~40 MB however dense a row is
_ATA_PAIR_BUDGET = 1 << 20


def ata_pattern(A: CSRMatrix) -> CSRMatrix:
    """Structural pattern of :math:`A^T A` (``A`` may be rectangular).

    :math:`(A^T A)_{jk} \\ne 0` iff some row of ``A`` holds nonzeros in both
    columns ``j`` and ``k`` — i.e. every row of ``A`` contributes a clique on
    its column support.  Each stored entry ``(i, j)`` is expanded into the
    pairs ``(j, k)`` for every ``k`` of row ``i``, encoded as ``j * n + k``,
    and the pattern is the sorted set of those keys.  Entries are expanded in
    chunks of at most ``_ATA_PAIR_BUDGET`` pairs, so a dense row costs time,
    not memory.

    Raises ``ValueError`` on a column index outside ``[0, ncols)``.
    """
    check_column_indices(A)
    n = A.ncols
    idx = A.indices
    row_len = np.diff(A.indptr)
    # per stored entry: how many pairs it expands to, and where its row starts
    width = np.repeat(row_len, row_len)
    start = np.repeat(A.indptr[:-1], row_len)
    done = np.cumsum(width)
    keys = np.empty(0, dtype=np.int64)
    lo = 0
    while lo < A.nnz:
        base = done[lo] - width[lo]
        hi = max(lo + 1, int(np.searchsorted(done, base + _ATA_PAIR_BUDGET, "right")))
        w = width[lo:hi]
        first = done[lo:hi] - w - base  # entry e owns pairs first[e] .. first[e] + w[e]
        # k side: pair t of entry e reads position start[e] + (t - first[e])
        pos = np.repeat(start[lo:hi] - first, w)
        pos += np.arange(len(pos))
        pairs = np.repeat(idx[lo:hi], w)
        pairs *= n
        pairs += idx[pos]
        keys = sorted_unique(np.concatenate([keys, pairs]) if len(keys) else pairs)
        lo = hi
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return CSRMatrix(n, n, indptr, keys % n)


def aplusat_pattern(A: CSRMatrix) -> CSRMatrix:
    """Structural pattern of :math:`A + A^T` (used by the SuperLU-style
    alternative ordering the paper mentions for ``memplus``)."""
    r1, c1, _ = csr_to_coo(A)
    return coo_to_csr(
        A.nrows,
        A.ncols,
        np.concatenate([r1, c1]),
        np.concatenate([c1, r1]),
        np.ones(2 * len(r1)),
    )


def structural_symmetry(A: CSRMatrix) -> float:
    """The paper's symmetry statistic for Table 1.

    Reported there as ``|A| / sym`` style ratio: we return
    ``nnz(A + A^T) / nnz(A)`` — 1.0 for a structurally symmetric matrix and
    approaching 2.0 for a maximally nonsymmetric one, matching the paper's
    convention that *bigger means more nonsymmetric*.
    """
    both = aplusat_pattern(A)
    return both.nnz / max(A.nnz, 1)


def csr_matvec(A: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product ``A @ x``."""
    x = real_array(x, "x")
    y = np.zeros(A.nrows)
    for i in range(A.nrows):
        cols, vals = A.row(i)
        if len(cols):
            y[i] = vals @ x[cols]
    return y


def csr_to_dense(A: CSRMatrix) -> np.ndarray:
    """Materialise ``A`` as a dense array (tests / small examples only)."""
    D = np.zeros(A.shape)
    for i in range(A.nrows):
        cols, vals = A.row(i)
        D[i, cols] = vals
    return D


def dense_to_csr(D, drop_tol: float = 0.0) -> CSRMatrix:
    """Build a CSR matrix from a dense array, dropping |value| <= drop_tol."""
    D = real_array(D)
    rows, cols = np.nonzero(np.abs(D) > drop_tol)
    return coo_to_csr(D.shape[0], D.shape[1], rows, cols, D[rows, cols])
