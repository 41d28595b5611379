"""The sequential S* factorization driver (Fig. 6) and the factor object.

``sstar_factor`` runs the whole front-end + numeric pipeline on an already
ordered matrix (see :func:`repro.ordering.prepare_matrix`):

    static symbolic factorization -> supernode partition (+ amalgamation)
    -> block structure -> Factor(K) / Update(K, J) sweep

and returns an :class:`LUFactorization` that can solve linear systems and
report kernel statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse import CSRMatrix, rhs_array
from ..supernodes import build_partition, build_block_structure, BlockPartition, BlockStructure
from ..symbolic import static_symbolic_factorization, SymbolicFactorization
from .abft import AbftLedger, recover_block_column
from .blocks import BlockLUMatrix
from .counter import KernelCounter
from .kernels import block_product, scratch_buffer, unit_lower_apply, upper_solve
from .robust import PivotMonitor, SilentCorruptionError
from .tasks import (
    check_pivot_threshold,
    factor_block_column,
    update_block_columns,
)


@dataclass
class LUFactorization:
    """A completed S* factorization (in the permuted coordinate system)."""

    matrix: BlockLUMatrix
    sym: SymbolicFactorization
    part: BlockPartition
    bstruct: BlockStructure
    counter: KernelCounter
    #: when ABFT is on: the pristine (unfactored) block matrix recovery
    #: replays from, and the pivot-monitor settings to replay with
    pristine: BlockLUMatrix = None
    monitor_cfg: tuple = None

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def abft(self) -> AbftLedger:
        return self.matrix.abft

    def _monitor_factory(self):
        if self.monitor_cfg is None:
            return None
        anorm, perturb, threshold = self.monitor_cfg
        return lambda: PivotMonitor(anorm, perturb, threshold)

    def verify_abft(self, recover: bool = True, metrics=None) -> int:
        """Check every block against the ABFT ledger; recover corrupted
        block columns by localized replay from the pristine matrix.

        Returns the number of block columns recovered (0 when clean).
        Raises :class:`SilentCorruptionError` when corruption is found and
        ``recover`` is off, no pristine copy is held, or the replay itself
        fails verification.  No-op when ABFT was not enabled.
        """
        m = self.matrix
        led = m.abft
        if led is None:
            return 0
        bad = led.corrupted_blocks(m)
        if not bad:
            return 0
        if not recover or self.pristine is None:
            I, J = bad[0]
            led.verify_block(I, J, m.blocks[(I, J)], where="pre-solve")
        led.detected += len(bad)
        if metrics is not None:
            metrics.counter("abft.detected").inc(len(bad))
        cols = sorted({J for (_I, J) in bad})
        mf = self._monitor_factory()
        for J in cols:
            recover_block_column(m, J, self.pristine, monitor_factory=mf)
        still = led.corrupted_blocks(m)
        if still:
            I, J = still[0]
            led.verify_block(I, J, m.blocks[(I, J)], where="recovery")
        led.recovered += len(cols)
        if metrics is not None:
            metrics.counter("abft.recovered").inc(len(cols))
        return len(cols)

    def _check_factored(self) -> None:
        """A solve needs every stage: a partial (``stage_range``) factor
        is a ``RuntimeError`` naming its first unfactored block column."""
        seqs = self.matrix.pivot_seq
        if None in seqs:
            raise RuntimeError(f"Factor({seqs.index(None)}) has not run yet")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` for the *permuted* matrix this was built from.

        Forward substitution interleaves each block's delayed pivot sequence
        (LINPACK/ipiv semantics), then back substitution runs over U.
        ``b`` may be a vector or an ``(n, k)`` block of right-hand sides.

        A block column one wide has the identity for its unit triangle: the
        forward sweep forms its products in one stacked outer product over
        the L panel and subtracts them at the panel's global rows
        (:meth:`repro.numfact.NumericPlan.width1_rows`); the backward sweep
        divides by its ``1 x 1`` diagonal.  Wider columns keep one product
        per block (same bits: see :func:`repro.numfact.kernels.block_product`)
        and apply ``L_KK^{-1}`` as one product with the inverse the
        factorization kept (:meth:`repro.numfact.BlockLUMatrix.diag_inverse`).
        """
        self._check_factored()
        self.verify_abft()
        m = self.matrix
        plan = m.plan
        blocks = m.blocks
        x = rhs_array(b, self.n).copy()
        xs = x[:, None] if x.ndim == 1 else x  # (n, k): stacked products
        N = self.part.N
        bounds = self.part.bounds.tolist()
        for K in range(N):
            for r1, r2 in m.pivot_seq[K]:
                if r1 != r2:
                    tmp = x[r1].copy() if x.ndim == 2 else x[r1]
                    x[r1] = x[r2]
                    x[r2] = tmp
            lo, hi = bounds[K], bounds[K + 1]
            if hi - lo == 1:
                rows = plan.width1_rows(K)
                if len(rows):
                    prod = scratch_buffer("solve-prod", len(rows), xs.shape[1])
                    block_product(m.lpanel(K)[1:], xs[lo:hi], prod)
                    xs[rows] -= prod
                continue
            xk = x[lo:hi]
            unit_lower_apply(m.diag_inverse(K), xk)
            for I in self.bstruct.l_block_rows(K):
                if I > K:
                    x[bounds[I] : bounds[I + 1]] -= blocks[(I, K)] @ xk
        for K in range(N - 1, -1, -1):
            lo, hi = bounds[K], bounds[K + 1]
            xk = x[lo:hi]
            for J in self.bstruct.u_block_cols(K):
                xk -= blocks[(K, J)] @ x[bounds[J] : bounds[J + 1]]
            if hi - lo == 1:
                xk /= blocks[(K, K)][0, 0]
            else:
                upper_solve(blocks[(K, K)], xk)
        return x

    def solve_transpose(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A^T x = b`` for the permuted matrix.

        The factorization acts as ``A = (P_0^T M_0) (P_1^T M_1) ... U``
        stage-wise (each ``M_K`` is the unit-lower elimination of block
        column K), so ``A^T x = b`` is solved by ``U^T y = b`` (a forward
        substitution on the lower-triangular ``U^T``) followed by applying
        ``M_K^{-T}`` and the *reversed* pivot swaps for K descending
        (``L_KK^{-T}`` as one product with the transposed inverse).
        """
        self._check_factored()
        self.verify_abft()
        m = self.matrix
        part = self.part
        x = rhs_array(b, self.n).copy()
        N = part.N
        bounds = part.bounds
        # U^T y = b: forward over block rows
        for K in range(N):
            xk = x[bounds[K] : bounds[K + 1]]
            ukk = m.blocks[(K, K)]
            bs = part.size(K)
            for i in range(bs):
                if i > 0:
                    xk[i] -= ukk[:i, i] @ xk[:i]
                xk[i] /= ukk[i, i]
            for J in self.bstruct.u_block_cols(K):
                x[bounds[J] : bounds[J + 1]] -= m.blocks[(K, J)].T @ xk
        # M_K^{-T} and reversed swaps, K descending
        for K in range(N - 1, -1, -1):
            xk = x[bounds[K] : bounds[K + 1]]
            for I in self.bstruct.l_block_rows(K):
                if I > K:
                    xk -= m.blocks[(I, K)].T @ x[bounds[I] : bounds[I + 1]]
            if part.size(K) > 1:
                unit_lower_apply(m.diag_inverse(K).T, xk)
            for r1, r2 in reversed(m.pivot_seq[K]):
                if r1 != r2:
                    tmp = x[r1].copy() if x.ndim == 2 else x[r1]
                    x[r1] = x[r2]
                    x[r2] = tmp
        return x

    def num_interchanges(self) -> int:
        """Number of off-diagonal row interchanges the pivoting performed."""
        return sum(
            1
            for seq in self.matrix.pivot_seq
            for (a, b) in (seq or [])
            if a != b
        )

    def pivot_rows(self) -> list:
        """Flat pivot sequence [(m, t), ...] over all block columns."""
        out = []
        for seq in self.matrix.pivot_seq:
            out.extend(seq or [])
        return out


def sstar_factor(
    A: CSRMatrix,
    block_size: int = 25,
    amalgamation: int = 4,
    sym: SymbolicFactorization = None,
    part: BlockPartition = None,
    bstruct: BlockStructure = None,
    pivot_threshold: float = 1.0,
    monitor=None,
    abft: bool = False,
) -> LUFactorization:
    """Factor an ordered, zero-free-diagonal matrix with the S* algorithm.

    Precomputed ``sym``/``part``/``bstruct`` may be passed to amortise the
    front-end across repeated factorizations (the benchmark harness and the
    structure cache in :mod:`repro.service` do this).  ``monitor`` (a
    :class:`repro.numfact.PivotMonitor`) enables pivot growth tracking and
    tiny-pivot perturbation.

    The kernels do arithmetic only: the factorization's ``counter`` is a
    copy of the pattern's tally (:meth:`repro.numfact.NumericPlan.
    sequential_tally`), built once per pattern.

    ``abft=True`` attaches an :class:`repro.numfact.abft.AbftLedger`: every
    block carries column/row checksums through the Factor/Update sweep,
    panels are verified when ``Factor(K)`` consumes them, and a pristine
    copy of the scattered matrix is retained so a corrupted block column
    can be recomputed in place (during the sweep here, or later via
    :meth:`LUFactorization.verify_abft` before the triangular solves).  The
    ledger charges its checksum work into the same counter as it goes, so
    on this path it also places each update's charges among its own
    (:meth:`repro.numfact.abft.AbftLedger.update`).
    """
    check_pivot_threshold(pivot_threshold)
    if sym is None:
        sym = static_symbolic_factorization(A)
    if part is None:
        part = build_partition(sym, max_size=block_size, amalgamation=amalgamation)
    if bstruct is None:
        bstruct = build_block_structure(sym, part)
    m = BlockLUMatrix.from_csr(A, part, bstruct)
    plan = m.plan
    counter = KernelCounter() if abft else plan.sequential_tally().copy()

    pristine = None
    monitor_cfg = None
    monitor_factory = None
    if abft:
        pristine = BlockLUMatrix(part, bstruct, arena=m.arena.copy())
        AbftLedger.attach(m, counter=counter)
        if monitor is not None:
            monitor_cfg = (monitor.anorm, monitor.perturb, monitor.threshold)

            def monitor_factory():
                return PivotMonitor(*monitor_cfg)

    for K in range(part.N):
        try:
            fc = factor_block_column(
                m, K, pivot_threshold=pivot_threshold, monitor=monitor)
        except SilentCorruptionError:
            if pristine is None:
                raise
            # corrupted panel caught at consumption: replay the column's
            # updates from pristine inputs, then retry the factorization
            recover_block_column(m, K, pristine,
                                 monitor_factory=monitor_factory)
            m.abft.recovered += 1
            fc = factor_block_column(
                m, K, pivot_threshold=pivot_threshold, monitor=monitor)
        if not abft:
            update_block_columns(m, fc, bstruct.u_block_cols(K))
            continue
        counter.add_all(plan.factor_charges(K))
        for J in bstruct.u_block_cols(K):
            m.abft.update(m, fc, J, plan.update_charges(K, J))
    return LUFactorization(m, sym, part, bstruct, counter,
                           pristine=pristine, monitor_cfg=monitor_cfg)
