"""The two task kinds of the partitioned algorithm (Figs. 7 and 8).

``Factor(K)``
    Panel factorization of block column ``K`` with partial pivoting: the
    pivot for each column is searched over *all* rows of the stacked L panel
    (diagonal block plus every nonzero block below), rows are interchanged
    inside the panel immediately (BLAS-1/2 work), and the resulting pivot
    sequence is recorded for **delayed** application to the rest of the
    matrix — the paper's message-aggregating delayed-pivoting technique.

``Update(K, J)``
    Replays block ``K``'s pivot sequence on block column ``J``, computes
    ``U_KJ <- L_KK^{-1} U_KJ`` and then ``A_IJ -= L_IK U_KJ`` for every
    nonzero ``L_IK`` — the BLAS-3 DGEMM payload that Theorem 1's dense
    subcolumns make possible.

``Factor(K)`` eliminates in place on the contiguous L-panel view of the
arena (:mod:`repro.numfact.blocks`): no pack, no scatter-back.  Updates
consume a :class:`FactoredColumn` — the self-contained result of
``Factor(K)``: the pivot sequence and **one panel**, the diagonal block
with the L blocks stacked below it in ascending block row.  On the owner
the panel is a view of the arena; in the 1D parallel code one copy of it
*is* the message the owner of column ``K`` multicasts, and every receiver
wraps that same buffer with :meth:`FactoredColumn.from_message`.  Where
each L block lies inside the panel is not part of the column: it is read
from the consumer's own :class:`repro.numfact.blocks.NumericPlan`
(``below_diagonal(K)``), compiled once per pattern.

Pivot bookkeeping is LINPACK-style: interchanges are applied to block
columns ``>= K`` only (never retroactively to already-factored columns),
and the triangular solvers replay them in order.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from .blocks import (
    BlockLUMatrix,
    NumericPlan,
    SingularMatrixError,
    StructureViolation,
)
from .counter import KernelCounter, DGEMM, DGEMV, BLAS1
from .kernels import block_product, scratch_buffer, unit_lower_solve

class FactoredColumn:
    """Everything ``Update(*, J)`` needs from a factored block column K."""

    __slots__ = ("K", "pivots", "panel", "diag", "lpanel")

    def __init__(self, K: int, pivots: list, panel: np.ndarray):
        bs = panel.shape[1]
        self.K = K
        self.pivots = pivots  # [(m_pos, t_pos), ...] global position pairs
        #: ``lpanel(K)``: one C-contiguous array, a view of the owner's
        #: arena or the buffer a ``("col", K)`` message carried
        self.panel = panel
        self.diag = panel[:bs]  # the diagonal block (unit-lower L + upper U)
        self.lpanel = panel[bs:]  # the L blocks, stacked in ascending I

    @classmethod
    def from_message(cls, payload: dict, plan: NumericPlan) -> "FactoredColumn":
        """The column a ``("col", K)`` message carries, as views of the
        received panel.  The panel must be exactly the ``lpanel(K)`` of the
        receiver's own ``plan`` — anything else is a
        :class:`StructureViolation`, never a mis-sliced update."""
        K, panel = payload["K"], payload["panel"]
        if not (isinstance(K, int) and 0 <= K < plan.part.N):
            raise StructureViolation(f"column message for block column {K!r}")
        shape = plan.lpanel_shape(K)
        if not (isinstance(panel, np.ndarray) and panel.dtype == np.float64
                and panel.shape == shape):
            raise StructureViolation(
                f"column message {K}: panel is {getattr(panel, 'dtype', None)} "
                f"{getattr(panel, 'shape', None)}, this pattern's L panel "
                f"is float64 {shape}"
            )
        return cls(K, payload["pivots"], panel)


def _panel_position(m: BlockLUMatrix, K: int, r: int) -> int:
    """Global position of row ``r`` of ``lpanel(K)[size(K):]``, the L
    blocks below the diagonal of column K."""
    for I, lo, hi, _ in m.plan.below_diagonal(K):
        if r < hi:
            return m.part.start(I) + r - lo
    raise IndexError(f"row {r} is outside the L panel of column {K}")


def factor_block_column(
    m: BlockLUMatrix,
    K: int,
    counter: KernelCounter = None,
    pivot_threshold: float = 1.0,
    monitor=None,
) -> FactoredColumn:
    """Run ``Factor(K)`` (Fig. 7); records the pivot sequence on ``m`` and
    returns the :class:`FactoredColumn` for downstream updates.

    The panel is eliminated **in place** on the contiguous L-panel view of
    the arena, so a :class:`SingularMatrixError` leaves column ``K`` half
    eliminated: the matrix is then unusable and callers discard it.

    ``pivot_threshold`` is the classical threshold-pivoting parameter
    ``u``: the diagonal is kept whenever ``|a_cc| >= u * max_i |a_ic|``.
    ``u = 1.0`` is pure partial pivoting (the paper's setting); smaller
    values trade a bounded growth-factor increase for fewer interchanges
    (and fewer swap messages in the parallel codes).

    ``monitor`` is an optional :class:`repro.numfact.PivotMonitor`: it
    tracks pivot growth and, when enabled, replaces tiny pivots by
    ``±sqrt(eps)*||A||`` (SuperLU_DIST-style static perturbation) instead
    of letting the elimination divide by them."""
    if not 0.0 < pivot_threshold <= 1.0:
        raise ValueError("pivot_threshold must be in (0, 1]")
    part = m.part
    bs = part.size(K)
    if m.abft is not None:
        # verify the panel at consumption, before the first write: a
        # silently corrupted input block must be caught before its poison
        # spreads into the factors
        for I in m.bstruct.l_block_rows(K):
            m.abft.verify_block(I, K, m.blocks[(I, K)], where=f"factor({K})")
    panel = m.lpanel(K)
    nrows = panel.shape[0]
    srows = int(m.plan.col_srows[K])  # packed rows (accounting)

    pivots = []
    start_K = part.start(K)
    cadd = counter.add if counter is not None else None
    scratch = scratch_buffer("factor-outer", nrows, bs)  # rank-1 + row swaps
    abs_col = scratch_buffer("factor-abs", nrows)
    for c in range(bs):
        gcol = start_K + c
        col = panel[c:, c]
        ab = abs_col[: nrows - c]
        np.abs(col, out=ab)
        t = int(ab.argmax()) + c
        best = float(panel[t, c])  # one read, a Python float from here on
        if not isfinite(best):
            raise SingularMatrixError(
                f"non-finite pivot candidate for global column {gcol} "
                "(earlier tiny pivot overflowed; enable perturbation or "
                "loosen pivot_threshold)",
                pivot_index=gcol,
            )
        if best == 0.0:
            if monitor is None or not monitor.perturb:
                raise SingularMatrixError(
                    f"no nonzero pivot for global column {gcol}",
                    pivot_index=gcol,
                )
            t = c  # numerically dead column: perturb the diagonal below
        elif pivot_threshold < 1.0:
            diag = float(panel[c, c])
            if abs(diag) >= pivot_threshold * abs(best) and diag != 0.0:
                t = c  # keep the diagonal: threshold pivoting
        pivots.append(
            (gcol, start_K + t if t < bs else _panel_position(m, K, t - bs))
        )
        if t != c:
            tmp = scratch[0, :]
            tmp[:] = panel[c, :]
            panel[c, :] = panel[t, :]
            panel[t, :] = tmp
        if monitor is not None:
            panel[c, c] = monitor.consider(gcol, float(panel[c, c]))
        piv = panel[c, c]
        if c + 1 < nrows:
            panel[c + 1 :, c] /= piv
            if cadd is not None:
                cadd(BLAS1, max(srows - c - 1, 0))
        if c + 1 < bs:
            sub = panel[c + 1 :, c + 1 : bs]
            x = panel[c + 1 :, c]
            outer = scratch[1 : nrows - c, 1 : bs - c]
            np.multiply(x[:, None], panel[c, c + 1 : bs], out=outer)
            np.subtract(sub, outer, out=sub)
            if cadd is not None:
                cadd(DGEMV, 2.0 * max(srows - c - 1, 0) * (bs - c - 1), gran=bs)

    if not np.isfinite(panel).all():
        bad = int(np.argwhere(~np.isfinite(panel))[0, 1])
        gcol = part.start(K) + min(bad, bs - 1)
        raise SingularMatrixError(
            f"non-finite entries in factored panel {K} "
            f"(first in global column {gcol}); matrix is numerically "
            "singular for this pivoting policy",
            pivot_index=gcol,
        )

    m.pivot_seq[K] = pivots
    if m.abft is not None:
        # the panel kernels are elementwise; re-anchor rather than carry
        m.abft.anchor_column(m, K)
    return FactoredColumn(K, pivots, panel)


def factored_column_of(m: BlockLUMatrix, K: int) -> FactoredColumn:
    """Re-wrap an already factored local column (views, no copies)."""
    if m.pivot_seq[K] is None:
        raise RuntimeError(f"Factor({K}) has not run yet")
    return FactoredColumn(K, m.pivot_seq[K], m.lpanel(K))


def apply_pivots_to_column(m: BlockLUMatrix, pivots, J: int) -> None:
    """Replay a pivot sequence (delayed row interchanges) on block column J."""
    for r1, r2 in pivots:
        m.swap_rows_in_block_column(J, r1, r2)


def update_block_column(
    m: BlockLUMatrix,
    fc: FactoredColumn,
    J: int,
    counter: KernelCounter = None,
    apply_pivots: bool = True,
) -> None:
    """Run ``Update(K, J)`` for one ``J > K``: :func:`update_block_columns`
    over a single block column."""
    update_block_columns(m, fc, (J,), counter=counter,
                         apply_pivots=apply_pivots)


def update_block_columns(
    m: BlockLUMatrix,
    fc: FactoredColumn,
    columns,
    counter: KernelCounter = None,
    apply_pivots: bool = True,
) -> None:
    """Run ``Update(K, J)`` (Fig. 8) for every ``J`` in ``columns`` against
    local storage ``m`` using the factored column ``fc`` (local views or a
    received message) — the update half of elimination stage ``K``.

    What depends on ``K`` alone is resolved once for the sweep: the real
    interchanges as ``(block, offset)`` pairs, the L blocks with their row
    ranges and structural row counts.

    The flops of one ``Update(K, J)`` are charged in at most two
    ``KernelCounter.add`` calls (every charge is an integer-valued float
    far below 2**53, so the per-key sums, the first-touch key order and
    hence the virtual times equal those of one charge per block).  A
    column one wide runs no triangular solve (its unit triangle is the
    identity; the solve's charge is still added) and forms its products in
    one stacked outer product over the panel
    (:func:`repro.numfact.kernels.block_product`; DESIGN.md "Host
    performance" has why outer products may be stacked and GEMMs may not);
    a wider column's per-block GEMMs read their L block as a row slice of
    the same panel.
    """
    K = fc.K
    blocks = m.blocks
    abft = m.abft
    udense_cols = m.bstruct.udense_cols
    diag = fc.diag
    lpanel = fc.lpanel
    lk = diag.shape[0]
    swaps = ()
    if apply_pivots:
        swaps = [m.locate_rows(r1, r2) for r1, r2 in fc.pivots if r1 != r2]
    below = m.plan.below_diagonal(K)
    lrows = below[-1][2] if below else 0
    stacked = lk == 1
    cadd = counter.add if counter is not None else None
    subtract = np.subtract

    for J in columns:
        if J <= K:
            raise ValueError("Update(K, J) requires J > K")
        for I1, o1, I2, o2 in swaps:
            m.swap_block_rows(J, I1, o1, I2, o2)

        ukj = blocks.get((K, J))
        if ukj is None:
            continue  # structurally zero: nothing to scale or propagate

        # structural subcolumn count, for paper-faithful FLOP accounting
        ncols = len(udense_cols[(K, J)])

        if abft is not None:
            abft.pre_solve(K, J, diag)
        if not stacked:
            unit_lower_solve(diag, ukj, counter=counter, ncols_structural=ncols)
        elif cadd is not None:
            # a 1x1 unit triangle is the identity: only the charge
            # unit_lower_solve adds for it (FLOP_TRSM(1, ncols), gran 1)
            cadd(DGEMM if ncols >= 2 else DGEMV, float(ncols), gran=1)
        if abft is not None:
            abft.post_solve(K, J, ukj)
        if not below:
            continue

        prod = scratch_buffer("update-prod", lrows, ukj.shape[1])
        if stacked:
            block_product(lpanel, ukj, prod)
        wide = ncols >= 2
        gran = lk if lk < ncols else ncols
        gemm_rows = gemv_rows = 0
        gemm_first = False
        for I, lo, hi, nrows in below:
            p = prod[lo:hi]
            if not stacked:
                block_product(lpanel[lo:hi], ukj, p)
            target = blocks.get((I, J))
            if target is None:
                # per George-Ng this contribution must vanish; verify cheaply
                if np.any(p):
                    raise StructureViolation(
                        f"update ({K},{J}) touches absent block ({I},{J})"
                    )
                continue
            if abft is not None:
                abft.carry_gemm(I, J, lpanel[lo:hi], ukj, K=K)
            subtract(target, p, out=target)
            if cadd is None:
                continue
            if wide and nrows >= 2:
                gemm_first = gemm_first or not gemv_rows
                gemm_rows += nrows
            else:
                gemv_rows += nrows
        # the sweep's merged charges, in the order their keys were first due
        if gemm_rows and gemm_first:
            cadd(DGEMM, 2.0 * gemm_rows * lk * ncols, gran=gran)
        if gemv_rows:
            cadd(DGEMV, 2.0 * gemv_rows * lk * ncols, gran=lk)
        if gemm_rows and not gemm_first:
            cadd(DGEMM, 2.0 * gemm_rows * lk * ncols, gran=gran)
