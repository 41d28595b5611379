"""Dense micro-kernels with FLOP accounting.

All heavy arithmetic funnels through numpy (which dispatches to the host
BLAS); what matters for the reproduction is the *accounting*: each call
reports its flops and kernel class so the machine model can price it at
T3D/T3E rates.
"""

from __future__ import annotations

import threading

import numpy as np

from .counter import KernelCounter, DGEMM, DGEMV


#: per-thread scratch buffers, keyed by use site.  The simulator runs every
#: rank cooperatively on one host thread, and each use site fully writes its
#: scratch before reading it inside a single yield-free window, so reusing
#: (even clobbering) a slot across calls and ranks is safe; the thread
#: backend (:mod:`repro.parallel.shared_memory`) runs updates concurrently,
#: hence one pool per thread.  Growing in place (never shrinking) keeps the
#: hot paths free of large per-call ``np.empty`` allocations, whose mmap +
#: first-touch page faults dominate at bench scale.
_SCRATCH = threading.local()


def scratch_buffer(slot: str, nrows: int, ncols: int = None) -> np.ndarray:
    """An uninitialised float64 scratch of the requested shape, recycled
    per ``slot`` and thread (see :data:`_SCRATCH` for the safety argument)."""
    need = nrows if ncols is None else nrows * ncols
    try:
        pool = _SCRATCH.pool
    except AttributeError:
        pool = _SCRATCH.pool = {}
    buf = pool.get(slot)
    if buf is None or buf.size < need:
        size = need if buf is None else max(need, 2 * buf.size)
        buf = pool[slot] = np.empty(size)
    flat = buf[:need]
    return flat if ncols is None else flat.reshape(nrows, ncols)


def FLOP_TRSM(k: int, n: int) -> float:
    """Flops of a triangular solve with ``k x k`` triangle and ``n`` rhs."""
    return float(k) * k * n


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


def unit_lower_solve(L, B, counter: KernelCounter = None, ncols_structural=None):
    """In-place solve ``L X = B`` with ``L`` unit lower triangular
    (only the strictly-lower part of ``L`` is referenced)."""
    k = L.shape[0]
    if B.ndim == 1:
        for i in range(1, k):
            B[i] -= L[i, :i] @ B[:i]
    else:
        for i in range(1, k):
            B[i, :] -= L[i, :i] @ B[:i, :]
    if counter is not None:
        ncols = (1 if B.ndim == 1 else B.shape[1]) if ncols_structural is None else ncols_structural
        kernel = DGEMM if ncols >= 2 else DGEMV
        counter.add(kernel, FLOP_TRSM(k, ncols), gran=min(k, ncols) if kernel == DGEMM else k)
    return B


def upper_solve(U, B, counter: KernelCounter = None):
    """In-place solve ``U X = B`` with ``U`` upper triangular
    (diagonal included, referenced from the upper part of ``U``)."""
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
    if counter is not None:
        ncols = 1 if B.ndim == 1 else B.shape[1]
        counter.add(DGEMM if ncols >= 2 else DGEMV, FLOP_TRSM(k, ncols) + k * ncols)
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


def checksum_carry_solve(L, rs, counter: KernelCounter = None):
    """Advance a row-sum checksum across ``X = L^{-1} B`` (unit lower L).

    Returns the predicted ``rs(X)`` given ``rs = rs(B)``; in place."""
    unit_lower_solve(L, rs)
    if counter is not None:
        counter.add(DGEMV, FLOP_TRSM(L.shape[0], 1))
    return rs
