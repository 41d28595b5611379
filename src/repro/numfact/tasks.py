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
    ``U_KJ <- L_KK^{-1} U_KJ`` (one product with the column's inverted
    unit triangle, built once per column) and then ``A_IJ -= L_IK U_KJ``
    for every nonzero ``L_IK`` — the BLAS-3 DGEMM payload that Theorem 1's
    dense subcolumns make possible.

``Factor(K)`` eliminates in place on the contiguous L-panel view of the
arena (:mod:`repro.numfact.blocks`): no pack, no scatter-back.  Updates
consume a :class:`FactoredColumn` — the self-contained result of
``Factor(K)``: the pivot sequence, **one panel** (the diagonal block with
the L blocks stacked below it in ascending block row) and, for a column
two or more wide, ``L_KK^{-1}``.  On the owner the panel is a view of the
arena and the inverse one of the side arena; in the 1D parallel code those
two buffers *are* the message the owner of column ``K`` multicasts, and
every receiver that updates with it checks it
(:meth:`FactoredColumn.check_message`) and wraps the same buffers: no
receiver inverts a triangle.  Where each L block lies inside the panel is
not part of the column: it is read from the consumer's own
:class:`repro.numfact.blocks.NumericPlan` (``below_diagonal(K)``), compiled
once per pattern.

The kernels do arithmetic only.  What a task costs on the modelled machine
depends on the pattern alone and is priced from
:meth:`repro.numfact.NumericPlan.factor_charges` and
:meth:`~repro.numfact.NumericPlan.update_charges`, once per pattern.

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
from .kernels import (
    block_product,
    scratch_buffer,
    unit_lower_apply,
)


class FactoredColumn:
    """Everything ``Update(*, J)`` needs from a factored block column K,
    resolved once for all its updates: besides the pivots and the panel,
    ``linv`` — ``L_KK^{-1}``, None for a column one wide, whose triangle is
    the identity: the owner's view of the side arena ``Factor(K)`` filled,
    or the one a ``("col", K)`` message carried — the real interchanges as
    ``(block, offset)`` pairs (``swaps``) and the plan's
    ``below_diagonal(K)`` (``below``).  A received column that is merely
    drained is checked with :meth:`check_message` and never wrapped."""

    __slots__ = ("K", "pivots", "panel", "diag", "lpanel", "linv", "swaps",
                 "below")

    def __init__(self, plan: NumericPlan, K: int, pivots: list,
                 panel: np.ndarray, linv: np.ndarray):
        bs = panel.shape[1]
        self.K = K
        self.pivots = pivots  # [(m_pos, t_pos), ...] global position pairs
        #: ``lpanel(K)``: one C-contiguous array, a view of the owner's
        #: arena or the buffer a ``("col", K)`` message carried
        self.panel = panel
        self.diag = panel[:bs]  # the diagonal block (unit-lower L + upper U)
        self.lpanel = panel[bs:]  # the L blocks, stacked in ascending I
        self.linv = linv
        locate = plan.locate_rows
        self.swaps = [locate(r1, r2) for r1, r2 in pivots if r1 != r2]
        self.below = plan.below_diagonal(K)

    @classmethod
    def from_message(cls, payload: dict, plan: NumericPlan) -> "FactoredColumn":
        """The column a ``("col", K)`` message carries, as views of the
        received buffers (:meth:`check_message` first)."""
        cls.check_message(payload, plan)
        return cls(plan, payload["K"], payload["pivots"], payload["panel"],
                   payload["linv"])

    @staticmethod
    def check_message(payload: dict, plan: NumericPlan) -> None:
        """The panel must be exactly the ``lpanel(K)`` of the receiver's
        own ``plan``, and ``linv`` a ``size(K)`` square (None for a column
        one wide, but always present) — anything else is a
        :class:`StructureViolation`, never a mis-sliced update."""
        K, panel = payload["K"], payload["panel"]
        shapes = plan.column_table()[0]
        if not (isinstance(K, int) and 0 <= K < len(shapes)):
            raise StructureViolation(f"column message for block column {K!r}")
        shape = shapes[K]
        if not (isinstance(panel, np.ndarray) and panel.dtype == np.float64
                and panel.shape == shape):
            raise StructureViolation(
                f"column message {K}: panel is {getattr(panel, 'dtype', None)} "
                f"{getattr(panel, 'shape', None)}, this pattern's L panel "
                f"is float64 {shape}"
            )
        if "linv" not in payload:
            raise StructureViolation(f"column message {K}: no linv")
        linv = payload["linv"]
        width = shape[1]
        if width == 1:
            ok = linv is None
        else:
            ok = (isinstance(linv, np.ndarray) and linv.dtype == np.float64
                  and linv.shape == (width, width))
        if not ok:
            want = "None" if width == 1 else f"float64 {(width, width)}"
            raise StructureViolation(
                f"column message {K}: linv is "
                f"{getattr(linv, 'dtype', None)} {getattr(linv, 'shape', None)}, "
                f"this pattern's L_KK^-1 is {want}"
            )


def _panel_position(m: BlockLUMatrix, K: int, r: int) -> int:
    """Global position of row ``r`` of ``lpanel(K)[size(K):]``, the L
    blocks below the diagonal of column K."""
    for I, lo, hi, _ in m.plan.below_diagonal(K):
        if r < hi:
            return m.part.start(I) + r - lo
    raise IndexError(f"row {r} is outside the L panel of column {K}")


def check_pivot_threshold(pivot_threshold: float) -> None:
    """``ValueError`` unless ``pivot_threshold`` lies in (0, 1]: at 0 (or
    NaN) every nonzero diagonal would pass the threshold test and pivoting
    would silently stop."""
    if not 0.0 < pivot_threshold <= 1.0:
        raise ValueError(
            f"pivot_threshold must be in (0, 1], got {pivot_threshold!r}")


def choose_pivot(gcol: int, best_abs: float, best_pos: int, diag: float,
                 pivot_threshold: float, monitor) -> int:
    """The pivot rule of both ``Factor(K)`` kernels (sequential/1D here,
    2D in :mod:`repro.parallel.twod`): the global row that pivots global
    column ``gcol``, given the winning candidate's ``|value|`` and global
    row ``best_pos`` and the diagonal value ``diag`` (only ``|diag|`` is
    read).

    A non-finite winner (a NaN wins the search) raises first, so a NaN or
    Inf column is never perturbed.  A zero winner (or none: 2D's ``-1``)
    raises unless ``monitor`` perturbs, which keeps the diagonal for
    :class:`repro.numfact.PivotMonitor` to replace.  Threshold pivoting
    keeps a nonzero diagonal with ``|diag| >= u * best_abs``."""
    if not isfinite(best_abs):
        raise SingularMatrixError(
            f"non-finite pivot candidate for global column {gcol} "
            "(a non-finite matrix value, or an earlier tiny pivot "
            "overflowed; enable perturbation or loosen pivot_threshold)",
            pivot_index=gcol,
        )
    if best_abs <= 0.0:
        if monitor is None or not monitor.perturb:
            raise SingularMatrixError(
                f"no nonzero pivot for global column {gcol}", pivot_index=gcol)
        return gcol  # numerically dead column: perturb the diagonal
    if (pivot_threshold < 1.0 and abs(diag) >= pivot_threshold * best_abs
            and diag != 0.0):
        return gcol  # keep the diagonal: threshold pivoting
    return best_pos


def factor_block_column(
    m: BlockLUMatrix,
    K: int,
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
    (and fewer swap messages in the parallel codes).  Entry points check
    it once per run (:func:`check_pivot_threshold`), not per column.

    ``monitor`` is an optional :class:`repro.numfact.PivotMonitor`: it
    tracks pivot growth and, when enabled, replaces tiny pivots by
    ``±sqrt(eps)*||A||`` (SuperLU_DIST-style static perturbation) instead
    of letting the elimination divide by them."""
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

    pivots = []
    start_K = part.start(K)
    scratch = scratch_buffer("factor-outer", nrows, bs)  # rank-1 + row swaps
    abs_col = scratch_buffer("factor-abs", nrows)
    for c in range(bs):
        gcol = start_K + c
        col = panel[c:, c]
        ab = abs_col[: nrows - c]
        np.abs(col, out=ab)
        t = int(ab.argmax())
        pos = choose_pivot(
            gcol, float(ab[t]),
            start_K + c + t if c + t < bs else _panel_position(m, K, c + t - bs),
            float(ab[0]), pivot_threshold, monitor)
        t = c if pos == gcol else c + t
        pivots.append((gcol, pos))
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
        if c + 1 < bs:
            sub = panel[c + 1 :, c + 1 : bs]
            x = panel[c + 1 :, c]
            outer = scratch[1 : nrows - c, 1 : bs - c]
            np.multiply(x[:, None], panel[c, c + 1 : bs], out=outer)
            np.subtract(sub, outer, out=sub)

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
    return FactoredColumn(m.plan, K, pivots, panel,
                          m.invert_diagonal(K) if bs > 1 else None)


def factored_column_of(m: BlockLUMatrix, K: int) -> FactoredColumn:
    """Re-wrap an already factored local column (views, no copies)."""
    if m.pivot_seq[K] is None:
        raise RuntimeError(f"Factor({K}) has not run yet")
    return FactoredColumn(m.plan, K, m.pivot_seq[K], m.lpanel(K),
                          m.diag_inverse(K) if m.part.size(K) > 1 else None)


def update_block_column(m: BlockLUMatrix, fc: FactoredColumn, J: int) -> None:
    """Run ``Update(K, J)`` for one ``J > K``: :func:`update_block_columns`
    over a single block column."""
    update_block_columns(m, fc, (J,))


def update_block_columns(m: BlockLUMatrix, fc: FactoredColumn, columns) -> None:
    """Run ``Update(K, J)`` (Fig. 8) for every ``J`` in ``columns`` against
    local storage ``m`` using the factored column ``fc`` (local views or a
    received message) — the update half of elimination stage ``K``.

    What depends on ``K`` alone — the real interchanges, the L blocks with
    their row ranges — ``fc`` resolved once.  The triangular solve is one
    product with ``fc.linv`` (:func:`repro.numfact.kernels.unit_lower_apply`).
    A column one wide runs no solve (its unit triangle is the identity) and
    forms its products in one stacked outer product over the panel
    (:func:`repro.numfact.kernels.block_product`; DESIGN.md "Host
    performance" has why outer products may be stacked and GEMMs may not);
    a wider column's per-block GEMMs read their L block as a row slice of
    the same panel.  The task's charges are
    :meth:`repro.numfact.NumericPlan.update_charges`.
    """
    K = fc.K
    blocks = m.blocks
    abft = m.abft
    linv = fc.linv
    lpanel = fc.lpanel
    swaps = fc.swaps
    below = fc.below
    lrows = below[-1][2] if below else 0
    stacked = fc.diag.shape[0] == 1
    swap_block_rows = m.swap_block_rows
    subtract = np.subtract

    for J in columns:
        if J <= K:
            raise ValueError("Update(K, J) requires J > K")
        for I1, o1, I2, o2 in swaps:
            swap_block_rows(J, I1, o1, I2, o2)

        ukj = blocks.get((K, J))
        if ukj is None:
            continue  # structurally zero: nothing to scale or propagate

        if abft is not None:
            abft.pre_solve(K, J, linv)
        if not stacked:
            unit_lower_apply(linv, ukj)
        if abft is not None:
            abft.post_solve(K, J, ukj)
        if not below:
            continue

        prod = scratch_buffer("update-prod", lrows, ukj.shape[1])
        if stacked:
            block_product(lpanel, ukj, prod)
        for I, lo, hi, _ in below:
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
