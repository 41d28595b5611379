"""Dense micro-kernels, and the charges that price them.

All heavy arithmetic funnels through numpy (which dispatches to the host
BLAS).  The factorization kernels do arithmetic only: what the machine
model prices at T3D/T3E rates is a ``(kernel, gran, flops)`` charge that
depends on shapes alone (:func:`trsm_charge`, and the per-task charges of
:class:`repro.numfact.NumericPlan`).  Only the ABFT checksum kernels below
still report their own flops, to the ledger's counter.
"""

from __future__ import annotations

import numpy as np

from .counter import KernelCounter, DGEMM, DGEMV


#: scratch buffers, keyed by use site.  The simulator runs every rank
#: cooperatively on one host thread, and each use site fully writes its
#: scratch before reading it inside a single yield-free window, so reusing
#: (even clobbering) a slot across calls and ranks is safe.  Growing in
#: place (never shrinking) keeps the hot paths free of large per-call
#: ``np.empty`` allocations, whose mmap + first-touch page faults dominate
#: at bench scale.
_SCRATCH = {}


def scratch_buffer(slot: str, nrows: int, ncols: int = None) -> np.ndarray:
    """An uninitialised float64 scratch of the requested shape, recycled
    per ``slot`` (see :data:`_SCRATCH` for the safety argument)."""
    need = nrows if ncols is None else nrows * ncols
    buf = _SCRATCH.get(slot)
    if buf is None or buf.size < need:
        size = need if buf is None else max(need, 2 * buf.size)
        buf = _SCRATCH[slot] = np.empty(size)
    flat = buf[:need]
    return flat if ncols is None else flat.reshape(nrows, ncols)


def FLOP_TRSM(k: int, n: int) -> float:
    """Flops of a triangular solve with ``k x k`` triangle and ``n`` rhs."""
    return float(k) * k * n


def trsm_charge(k: int, ncols: int) -> tuple:
    """``(kernel, gran, flops)`` of ``L^{-1} B`` with a ``k x k`` unit
    lower triangle and ``ncols`` (structural) right-hand-side columns: the
    paper's TRSM, DGEMM at ``min(k, ncols)`` when two or more columns are
    nonzero, DGEMV at ``k`` otherwise.  :func:`unit_lower_apply` is how the
    host computes it; a ``1 x 1`` triangle costs no arithmetic but keeps
    its charge."""
    if ncols >= 2:
        return DGEMM, min(k, ncols), FLOP_TRSM(k, ncols)
    return DGEMV, k, FLOP_TRSM(k, ncols)


def upper_solve_charge(k: int, ncols: int) -> tuple:
    """``(kernel, gran, flops)`` of :func:`upper_solve` on a ``k x k``
    triangle with ``ncols`` right-hand-side columns (nominal rate)."""
    return DGEMM if ncols >= 2 else DGEMV, None, FLOP_TRSM(k, ncols) + k * ncols


def block_product(A, B, out):
    """``out[...] = A @ B`` — the one rule for the products of the update
    and of the width-1 forward solve, bit-equal to ``np.matmul(A, B)``.

    Products go through ``np.dot``, BLAS's direct entry: at the 2-3-wide
    operands of the benchmark patterns the cost of a product is the call,
    and ``np.matmul``'s gufunc dispatch costs more than the arithmetic
    (DESIGN.md "Numeric kernels by shape").  Inner dimension >= 2 is a
    GEMM/GEMV that must keep the block's own call shape: BLAS picks its
    summation order from the operand shapes, so stacking changes bits
    (DESIGN.md "Host performance").

    Inner dimension 1 (a width-1 supernode: 64-92 % of the block columns of
    the ``service_warm`` patterns) is an outer product: every entry is one
    rounded multiply, so ``A`` may be one L block or a column's whole
    stacked L panel.  ``np.dot`` forms it with a one-deep GEMM whose fused
    ``0 + a*b`` can leave a ``-0.0`` where ``np.matmul`` yields ``+0.0``
    (``[0.0, -0.5] * 5e-324``), hence ``+ 0.0`` after it.  When one side is
    a single row or column, ``np.dot`` takes BLAS's scaled-vector update
    instead, which skips a zero scale and so loses the NaN of ``0 * inf``:
    those products stay with ``np.matmul`` itself.
    """
    m, k = A.shape
    if k == 1 and (m == 1 or B.shape[1] == 1):
        np.matmul(A, B, out=out)
    else:
        np.dot(A, B, out=out)
        if k == 1:
            np.add(out, 0.0, out=out)
    return out


def unit_lower_inverse(L, out=None):
    """``L^{-1}`` for the unit lower triangle of ``L`` (its strictly-lower
    part; the diagonal and upper part are not read), into ``out`` when
    given.  Every ``L_KK^{-1}`` of the factorization and of the solves is
    one product with this matrix (:func:`unit_lower_apply`), so every
    driver that inverts the same diagonal bits applies the same inverse.

    Forward substitution on the identity, one row at a time: row ``i`` is
    ``-L[i, :i] @ X[:i, :i]`` (the multipliers negated once; negation is
    exact, so this is the same sum negated).  The result is exactly unit
    lower triangular — zeros above the diagonal stay exact zeros, which
    LAPACK's pivoting ``inv`` does not guarantee once a multiplier exceeds
    one (threshold pivoting, perturbed pivots) — and carries the
    componentwise error bound of the substitution it replaces."""
    k = L.shape[0]
    X = np.empty((k, k)) if out is None else out
    X[...] = 0.0
    X.flat[:: k + 1] = 1.0
    neg = np.negative(L, out=scratch_buffer("lower-inverse", k, k))
    dot = np.dot
    for i in range(1, k):
        dot(neg[i, :i], X[:i, :i], out=X[i, :i])
    return X


def unit_lower_apply(Linv, B):
    """In place ``B <- L^{-1} B`` for a unit lower ``L`` whose inverse
    (:func:`unit_lower_inverse`) is ``Linv``: one :func:`block_product`.
    A ``1 x 1`` triangle is the identity and ``Linv`` is not read.  It is
    priced as the triangular solve it stands for (:func:`trsm_charge`)."""
    k = B.shape[0]
    if k > 1:
        prod = scratch_buffer("lower-apply", k, None if B.ndim == 1 else B.shape[1])
        block_product(Linv, B, prod)
        B[...] = prod
    return B


def upper_solve(U, B):
    """In-place solve ``U X = B`` with ``U`` upper triangular
    (diagonal included, referenced from the upper part of ``U``); priced
    by :func:`upper_solve_charge`."""
    k = U.shape[0]
    if B.ndim == 1:
        for i in range(k - 1, -1, -1):
            if i + 1 < k:
                B[i] -= U[i, i + 1 :] @ B[i + 1 :]
            B[i] /= U[i, i]
    else:
        for i in range(k - 1, -1, -1):
            if i + 1 < k:
                B[i, :] -= U[i, i + 1 :] @ B[i + 1 :, :]
            B[i, :] /= U[i, i]
    return B


# -- ABFT checksum kernels ---------------------------------------------------
#
# A block ``B`` carries two checksum vectors: its column sums ``ones @ B``
# and its row sums ``B @ ones``.  The point of keeping both is that they
# propagate through the factorization's BLAS-3 kernels at BLAS-2 cost:
#
# * ``C -= A @ B``  =>  cs(C) -= cs(A) @ B   and  rs(C) -= A @ rs(B)
# * ``L X = B``     =>  rs(X) = L^{-1} rs(B)
#
# so a ``b x b`` GEMM (2b^3 flops) costs only ~4b^2 extra flops to protect
# — the <15% ABFT overhead budget (BENCH_abft_overhead.json) follows from
# this ratio at the paper's block size.


def block_checksums(B):
    """Fresh (column-sum, row-sum) checksum pair of a dense block."""
    B = np.asarray(B)
    return B.sum(axis=0), B.sum(axis=1)


def checksum_carry_gemm(cs, rs, A, B, cs_a=None, rs_b=None,
                        counter: KernelCounter = None):
    """Advance ``(cs, rs)`` of a target block across ``C -= A @ B``.

    In place on the checksum vectors; ``A``/``B`` are the operands of the
    GEMM that just ran (or is about to — the carry is independent of C).
    When the caller already holds the operands' own checksums — the
    ledger anchors ``cs(A)`` at Factor time and carries ``rs(B)`` through
    the triangular solve — pass them as ``cs_a``/``rs_b`` to skip the
    two O(b^2) reductions and leave only the border products.

    Accounting: with the operand checksums in hand this is exactly the
    Huang-Abraham augmented multiply ``[A; cs_a] @ [B, rs_b]`` — the
    checksum rows/columns ride as the border of a single DGEMM call — so
    the border flops are priced at DGEMM rate at the protected GEMM's
    granularity.  Only the fallback reductions (operand not in the
    caller's ledger, e.g. a remote L block) are BLAS-2.
    """
    m, k = A.shape
    n = B.shape[1]
    extra = 0.0
    if cs_a is None:
        cs_a = A.sum(axis=0)
        extra += m * k
    if rs_b is None:
        rs_b = B.sum(axis=1)
        extra += k * n
    cs -= cs_a @ B
    rs -= A @ rs_b
    if counter is not None:
        counter.add(DGEMM, float(2 * k * n + 2 * m * k), gran=min(k, n))
        if extra:
            counter.add(DGEMV, float(extra))
    return cs, rs


def checksum_carry_solve(Linv, rs, counter: KernelCounter = None):
    """Advance a row-sum checksum across ``X = L^{-1} B`` (unit lower L,
    ``Linv`` its :func:`unit_lower_inverse`): the same product the solve
    itself is, so the carried sums round like the data.

    Returns the predicted ``rs(X)`` given ``rs = rs(B)``; in place."""
    unit_lower_apply(Linv, rs)
    if counter is not None:
        counter.add(DGEMV, FLOP_TRSM(rs.shape[0], 1))
    return rs
