"""Algorithm-based fault tolerance: checksum-carrying blocks and payloads.

The S* design makes ABFT unusually cheap: static symbolic factorization
fixes every block's shape and placement before numerics start, so each
dense block can carry a column-sum/row-sum checksum pair that is

* **anchored** when ``Factor(K)`` finishes a panel (the panel kernels are
  elementwise; their output is re-summed at BLAS-2 cost),
* **carried** through every ``Update(K, J)`` — the GEMM and triangular
  solve identities in :mod:`repro.numfact.kernels` advance the checksums
  predictively without touching the O(b^3) data path, and
* **verified** wherever data crosses a trust boundary: at message
  consumption in the parallel codes (:func:`verify_payload`) and before
  the triangular solves (:meth:`AbftLedger.verify_matrix`).

A mismatch means the block's bytes no longer are what the factorization
computed — a delivered-but-corrupted payload or a silent bit error in a
kernel's output — and raises :class:`repro.numfact.SilentCorruptionError`
with the block's coordinates.  Recovery is localized when the corrupted
block's inputs are still live: :func:`recover_block_column` replays the
affected block column bit-identically from the pristine matrix column and
the (verified) earlier factored columns.  When inputs are gone (e.g. a
corrupted message on a remote rank) callers fall back to checkpoint
restart (:mod:`repro.parallel.resilience`).
"""

from __future__ import annotations

import numpy as np

from .counter import BLAS1
from .kernels import block_checksums, checksum_carry_gemm, checksum_carry_solve
from .robust import SilentCorruptionError

#: relative tolerance for checksum comparison.  Carried checksums drift
#: from recomputed ones by O(eps) per carried kernel; injected corruptions
#: (a scaled-and-shifted element) sit many orders of magnitude above this.
ABFT_RTOL = 1e-8


def _tolerance(scale: float) -> float:
    return ABFT_RTOL * (1.0 + float(scale))


def _check_vectors(pred_cs, pred_rs, blk):
    """Worst discrepancy of a block against predicted checksums, and the
    comparison tolerance for that block's magnitude."""
    cs, rs = block_checksums(blk)
    err_cs = float(np.max(np.abs(pred_cs - cs))) if cs.size else 0.0
    err_rs = float(np.max(np.abs(pred_rs - rs))) if rs.size else 0.0
    scale = float(np.abs(blk).sum()) if blk.size else 0.0
    return max(err_cs, err_rs), _tolerance(scale)


class AbftLedger:
    """Checksum ledger for one :class:`repro.numfact.BlockLUMatrix`.

    Attach with :meth:`attach`; the Factor/Update kernels in
    :mod:`repro.numfact.tasks` and the pivot swaps in
    :mod:`repro.numfact.blocks` then keep the ledger current through the
    factorization.  ``detected``/``recovered`` tally verification failures
    and successful localized recoveries for the chaos counters.
    """

    def __init__(self, counter=None):
        self.sums = {}  # (I, J) -> [colsum ndarray, rowsum ndarray]
        self.counter = counter
        self.detected = 0
        self.recovered = 0
        self._rs_pred = {}  # (K, J) in-flight row-sum prediction for solves

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def attach(cls, m, counter=None) -> "AbftLedger":
        """Create a ledger anchored on ``m``'s current blocks and install
        it as ``m.abft`` so the numeric kernels maintain it."""
        led = cls(counter=counter)
        for key, blk in m.blocks.items():
            led.anchor(key[0], key[1], blk)
        m.abft = led
        return led

    def anchor(self, I, J, blk) -> None:
        """(Re-)anchor a block's checksums from its current contents."""
        cs, rs = block_checksums(blk)
        self.sums[(I, J)] = [cs, rs]
        if self.counter is not None:
            self.counter.add(BLAS1, float(2 * blk.size))

    def anchor_column(self, m, K) -> None:
        """Re-anchor the whole factored panel of block column ``K`` (the
        panel kernels are elementwise; carrying through them costs more
        than re-summing their output)."""
        for I in m.bstruct.l_block_rows(K):
            self.anchor(I, K, m.blocks[(I, K)])

    # -- carries (called by the numeric kernels) -----------------------

    def on_swap(self, I1, o1, b1, I2, o2, b2, J) -> None:
        """Carry a pivot row interchange: called *before* the swap of row
        ``o1`` of block ``(I1, J)`` with row ``o2`` of block ``(I2, J)``."""
        e1 = self.sums.get((I1, J))
        e2 = self.sums.get((I2, J))
        if e1 is None or e2 is None:
            return
        if I1 == I2:
            e1[1][o1], e1[1][o2] = e1[1][o2], e1[1][o1]
            return
        delta = b2[o2] - b1[o1]
        e1[0] += delta
        e2[0] -= delta
        e1[1][o1], e2[1][o2] = e2[1][o2], e1[1][o1]

    def pre_solve(self, K, J, diag) -> None:
        """Predict ``rs(L^{-1} U_KJ)`` before the in-place solve runs."""
        entry = self.sums.get((K, J))
        if entry is None:
            return
        self._rs_pred[(K, J)] = checksum_carry_solve(
            diag, entry[1].copy(), counter=self.counter
        )

    def post_solve(self, K, J, ukj) -> None:
        """Install the solve-carried row sums; re-anchor column sums (no
        cheap carry exists for them through a left solve)."""
        rs = self._rs_pred.pop((K, J), None)
        if rs is None:
            return
        cs, _ = block_checksums(ukj)
        self.sums[(K, J)] = [cs, rs]
        if self.counter is not None:
            self.counter.add(BLAS1, float(ukj.size))

    def carry_gemm(self, I, J, lik, ukj, K=None) -> None:
        """Carry ``target -= lik @ ukj`` on block ``(I, J)``'s checksums.

        When ``K`` (the source column) is given and the ledger tracks the
        operands, their own checksums — ``cs`` of the anchored L block
        and the solve-carried ``rs`` of the U block — stand in for the
        operand reductions, halving the carry's O(b^2) cost."""
        entry = self.sums.get((I, J))
        if entry is None:
            return
        cs_a = rs_b = None
        if K is not None:
            a = self.sums.get((I, K))
            b = self.sums.get((K, J))
            cs_a = a[0] if a is not None else None
            rs_b = b[1] if b is not None else None
        checksum_carry_gemm(entry[0], entry[1], lik, ukj,
                            cs_a=cs_a, rs_b=rs_b, counter=self.counter)

    # -- verification --------------------------------------------------

    def check_block(self, I, J, blk):
        """Discrepancy of a block vs. its ledger entry, or None if clean
        (or untracked)."""
        entry = self.sums.get((I, J))
        if entry is None:
            return None
        err, tol = _check_vectors(entry[0], entry[1], blk)
        if err > tol:
            return err
        return None

    def verify_block(self, I, J, blk, where="ledger") -> None:
        err = self.check_block(I, J, blk)
        if err is not None:
            self.detected += 1
            raise SilentCorruptionError(
                f"checksum mismatch on block ({I},{J}) at {where}: "
                f"|error| = {err:.6g}",
                block=(I, J), where=where, error=err,
            )

    def corrupted_blocks(self, m) -> list:
        """All blocks whose contents disagree with the ledger."""
        bad = []
        for (I, J), blk in m.blocks.items():
            if self.check_block(I, J, blk) is not None:
                bad.append((I, J))
        return sorted(bad)

    def verify_matrix(self, m, where="ledger") -> None:
        """Verify every tracked block; raise on the first corrupted one
        (deterministic block order)."""
        for I, J in self.corrupted_blocks(m):
            self.verify_block(I, J, m.blocks[(I, J)], where=where)


# -- localized recovery ------------------------------------------------------


def recover_block_column(m, J, pristine, monitor_factory=None) -> None:
    """Recompute block column ``J`` of a factored matrix bit-identically.

    The replay needs the column's *inputs*: the pristine (unfactored)
    blocks of column ``J`` and the already-factored columns ``K < J`` of
    ``m`` — all live in the sequential and 1D-owner settings.  It resets
    column ``J`` from ``pristine``, replays every ``Update(K, J)`` using
    the (verified) factored columns, and re-runs ``Factor(J)``; because
    the kernels are deterministic the result is bit-for-bit the value an
    uncorrupted factorization computed, and the ledger's carried checksums
    then match again.

    ``monitor_factory`` recreates the pivot monitor used by the original
    factorization (same anorm/perturb/threshold) so pivot decisions replay
    identically; its records are discarded.
    """
    from .tasks import factor_block_column, factored_column_of, update_block_column

    for I in m.bstruct.l_block_rows(J):
        src = pristine.blocks.get((I, J))
        m.blocks[(I, J)][:, :] = 0.0 if src is None else src
        if m.abft is not None:
            m.abft.anchor(I, J, m.blocks[(I, J)])
    for K in range(J):
        if J in m.bstruct.u_block_cols(K):
            src = pristine.blocks.get((K, J))
            m.blocks[(K, J)][:, :] = 0.0 if src is None else src
            if m.abft is not None:
                m.abft.anchor(K, J, m.blocks[(K, J)])
    monitor = monitor_factory() if monitor_factory is not None else None
    for K in range(J):
        if J in m.bstruct.u_block_cols(K):
            update_block_column(m, factored_column_of(m, K), J)
    if m.pivot_seq[J] is not None:
        factor_block_column(m, J, monitor=monitor)


# -- wire payload checksums --------------------------------------------------


def payload_checksums(payload):
    """Mirror-structure checksum record for a message payload.

    Each ndarray leaf becomes its ``(colsum, rowsum)`` pair (1-D arrays
    contribute their total), scalars are echoed, and containers recurse —
    so *any* single-leaf corruption of the payload breaks the mirror."""
    if isinstance(payload, np.ndarray):
        if payload.ndim >= 2:
            cs, rs = block_checksums(payload)
            return {"cs": cs, "rs": rs}
        return {"cs": np.asarray([payload.sum()]), "rs": None}
    if isinstance(payload, dict):
        return {k: payload_checksums(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [payload_checksums(v) for v in payload]
    return payload


def _find_mismatch(payload, record, path):
    if isinstance(payload, np.ndarray):
        if payload.ndim >= 2:
            err, tol = _check_vectors(record["cs"], record["rs"], payload)
        else:
            err = float(np.abs(record["cs"][0] - payload.sum()))
            tol = _tolerance(float(np.abs(payload).sum()))
        if err > tol:
            return path, err
        return None
    if isinstance(payload, dict):
        for k in payload:
            hit = _find_mismatch(payload[k], record[k], path + (k,))
            if hit is not None:
                return hit
        return None
    if isinstance(payload, (list, tuple)):
        for i, v in enumerate(payload):
            hit = _find_mismatch(v, record[i], path + (i,))
            if hit is not None:
                return hit
        return None
    if payload != record:
        return path, float("nan")
    return None


def column_leaves(payload, plan) -> dict:
    """What is checksummed of a 1D ``("col", K)`` payload: the pivots and
    one leaf **per block** of the panel (row slices, located by the plan
    of whoever asks — sender and receiver share the pattern), so a flipped
    element is blamed on its block ``(I, K)`` and not on the column."""
    K, panel = payload["K"], payload["panel"]
    bs = panel.shape[1]
    blocks = {
        I: panel[bs + lo : bs + hi] for I, lo, hi, _ in plan.below_diagonal(K)
    }
    return {"K": K, "pivots": payload["pivots"],
            "panel": {K: panel[:bs], **blocks}}


def _blame_block(path, column):
    """Best-effort block coordinates for a payload mismatch path."""
    if column is None:
        return None
    for i, part in enumerate(path):
        if part == "diag":
            return (column, column)
        if part in ("lblocks", "panel") and i + 1 < len(path):
            return (path[i + 1], column)
    # urow payloads map column index J -> scaled U_KJ block
    if path and isinstance(path[0], int):
        return (column, path[0])
    return (column, column)


def verify_payload(payload, where, column=None, metrics=None):
    """Verify a payload dict carrying an ``"abft"`` checksum record.

    No-op when the record is absent (ABFT off at the sender).  On a
    mismatch, increments ``abft.detected`` (when a metrics registry is
    given) and raises :class:`SilentCorruptionError` naming the block.
    """
    if not isinstance(payload, dict):
        return payload
    record = payload.get("abft")
    if record is None:
        return payload
    data = {k: v for k, v in payload.items() if k != "abft"}
    hit = _find_mismatch(data, record, ())
    if hit is not None:
        path, err = hit
        if metrics is not None:
            metrics.counter("abft.detected").inc()
        block = _blame_block(path, column)
        raise SilentCorruptionError(
            f"payload checksum mismatch at {where} "
            f"(leaf {'/'.join(str(p) for p in path)}, |error| = {err:.6g})",
            block=block, where=where, error=err,
        )
    return payload
