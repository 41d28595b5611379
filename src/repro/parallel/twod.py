"""The 2D block-cyclic parallel codes (Section 5.2, Figs. 12-15).

Blocks map to a ``p_r x p_c`` grid: ``A_IJ`` lives on rank
``(I mod p_r, J mod p_c)``.  The asynchronous algorithm follows Fig. 12:

* ``Factor(K)`` (Fig. 13) runs on processor column ``K mod p_c`` with a
  per-column pivot reduction along the processor column (local maxima +
  candidate subrows sent to the diagonal owner, winning subrow broadcast
  back), then multicasts the pivot sequence and local L blocks along each
  processor *row*;
* ``ScaleSwap(K)`` (Fig. 14) performs the delayed row interchanges inside
  each processor column (pairwise subrow exchanges), the owners of block
  row ``K`` scale ``U_K,*`` by ``L_KK^{-1}`` and multicast the scaled row
  panel along their processor *columns*;
* ``Update_2D(K, J)`` (Fig. 15) is the embarrassingly block-parallel GEMM
  sweep;
* compute-ahead: the owner column of ``K+1`` runs ``Update_2D(K, K+1)`` and
  ``Factor(K+1)`` before its remaining stage-``K`` updates.

The synchronous variant (the Table 7 baseline) adds a global barrier per
elimination stage and drops the compute-ahead, serialising the pipeline.

The numerics are bitwise identical to the sequential S* code — same scalar
operations in the same order per matrix element — which the tests assert.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..machine import Simulator, MachineSpec
from ..numfact import BlockLUMatrix, SingularMatrixError, StructureViolation
from ..numfact.abft import payload_checksums, verify_payload
from ..numfact.kernels import block_product, scratch_buffer, unit_lower_solve
from ..sparse import CSRMatrix
from ..supernodes import BlockPartition, BlockStructure
from .mapping import Grid2D


@dataclass
class TwoDResult:
    """Outcome of a 2D parallel factorization run."""

    sim: object  # SimResult
    grid: Grid2D
    factor: BlockLUMatrix  # merged storage (solvable)
    update_spans: list  # (rank, K, start, end) intervals of Update_2D stages

    @property
    def parallel_seconds(self) -> float:
        return self.sim.total_time

    def overlap_degree(self) -> int:
        """Measured stage-overlap degree of Update_2D tasks (Theorem 2):
        max |k' - k| over concurrently executing Update_2D stages."""
        spans = sorted(self.update_spans, key=lambda s: s[2])
        best = 0
        for i, (_, k1, s1, e1) in enumerate(spans):
            for _, k2, s2, e2 in spans[i + 1 :]:
                if s2 >= e1:
                    break
                if min(e1, e2) > max(s1, s2):
                    best = max(best, abs(k2 - k1))
        return best


def _distribute_2d(A, part, bstruct, grid: Grid2D, full: BlockLUMatrix = None):
    if full is None:
        full = BlockLUMatrix.from_csr(A, part, bstruct)
    locals_ = [dict() for _ in range(grid.nprocs)]
    for (I, J), blk in full.blocks.items():
        locals_[grid.owner_of_block(I, J)][(I, J)] = blk
    return full, locals_


def _swap_local(blocks, part, J, r1, r2, bstruct):
    """Swap rows r1, r2 of block column J when both live on this rank."""
    I1, I2 = int(part.block_of[r1]), int(part.block_of[r2])
    b1 = blocks.get((I1, J))
    b2 = blocks.get((I2, J))
    o1, o2 = r1 - part.start(I1), r2 - part.start(I2)
    if b1 is not None and b2 is not None:
        tmp = b1[o1].copy()
        b1[o1] = b2[o2]
        b2[o2] = tmp
    elif b1 is None and b2 is not None:
        if np.any(b2[o2]):
            raise StructureViolation(f"2D swap into absent block ({I1},{J})")
    elif b2 is None and b1 is not None:
        if np.any(b1[o1]):
            raise StructureViolation(f"2D swap into absent block ({I2},{J})")


def _pack_row(blocks, part, cols, pos):
    """Pack the subrow at global position ``pos`` across the given local
    block columns; absent blocks are omitted (structurally zero)."""
    I = int(part.block_of[pos])
    o = pos - part.start(I)
    out = {}
    for J in cols:
        blk = blocks.get((I, J))
        if blk is not None:
            # copy, not a view: the row is posted zero-copy while the local
            # block keeps being updated (Z201)
            out[J] = blk[o].copy()
    return out


def _ndarray_dict_nbytes(d) -> int:
    """Exact ``_payload_nbytes`` of a ``{key: ndarray}`` payload, computed
    without the generic recursion (wire-format parity is what keeps the
    modeled transfer times identical across delivery modes)."""
    return 16 + sum(8 + v.nbytes for v in d.values())


def _store_row(blocks, part, cols, pos, incoming):
    """Write an exchanged subrow back; enforce the static structure."""
    I = int(part.block_of[pos])
    o = pos - part.start(I)
    for J in cols:
        blk = blocks.get((I, J))
        if blk is not None:
            if J in incoming:
                blk[o] = incoming[J]
            else:
                if np.any(blk[o]):
                    raise StructureViolation(
                        f"2D swap lost nonzeros of row {pos} in column {J}"
                    )
                blk[o] = 0.0
        else:
            if J in incoming and np.any(incoming[J]):
                raise StructureViolation(
                    f"2D swap would fill absent block ({I},{J})"
                )


def _rank_program_2d(env, ctx):
    grid: Grid2D = ctx["grid"]
    part: BlockPartition = ctx["part"]
    bstruct: BlockStructure = ctx["bstruct"]
    blocks: dict = ctx["locals"][env.rank]
    synchronous: bool = ctx["synchronous"]
    pivot_threshold: float = ctx["pivot_threshold"]
    monitor = ctx.get("monitor")
    abft = bool(ctx.get("abft"))
    block_of = ctx["block_of"]
    r, c = grid.coords(env.rank)
    pr, pc = grid.pr, grid.pc
    N = part.N
    update_spans = []
    pivseqs = [None] * N
    lcol_cache = {}  # K -> {"pivots", "diag", "lblocks"} for my block rows
    urow_cache = {}  # K -> {J: scaled U_KJ} for my block columns
    # per-rank update-sweep memo: K -> (sorted lblock items, tallest block).
    # Kept outside lcol_cache because the lcol payload may be zero-copy
    # shared with other ranks — received payloads are never mutated.
    lcol_sweep = {}

    my_cols = [J for J in range(N) if J % pc == c]

    # ---- Factor(K): runs on processor column K % pc (Fig. 13) -----------
    def factor(K):
        k0, bs = part.start(K), part.size(K)
        diag_r = K % pr
        myI = [I for I in bstruct.l_block_rows(K) if I % pr == r]
        # hoist the per-column lookups: (start, block, structural rows) per
        # local panel block, plus shared abs/outer scratch for the pivot
        # search and the rank-1 eliminations
        panel = []
        maxrows = 0
        for I in myI:
            blk = blocks[(I, K)]
            panel.append((part.start(I), blk, bstruct.l_rows_count(I, K)))
            if blk.shape[0] > maxrows:
                maxrows = blk.shape[0]
        # scratch contents never survive a yield (each pivot step fully
        # writes before reading), so the pooled buffers are safe to share
        # across the interleaved per-rank factor() generators
        scr = scratch_buffer("2d-factor-outer", maxrows, bs) if maxrows else None
        babs = scratch_buffer("2d-factor-abs", maxrows) if maxrows else None
        compute = env.compute
        pivots = []
        for m in range(bs):
            gm = k0 + m
            # local best candidate (position >= gm), ties -> smallest position
            best_abs, best_pos, best_row = -1.0, -1, None
            ncand = 0
            for s0, blk, _srows in panel:
                lo = gm - s0
                if lo < 0:
                    lo = 0
                nsub = blk.shape[0] - lo
                if nsub <= 0:
                    continue
                sub = blk[lo:, m]
                ncand += nsub
                ab = babs[:nsub]
                np.abs(sub, out=ab)
                t = int(np.argmax(ab))
                v = float(ab[t])
                if v > best_abs:
                    best_abs, best_pos = v, s0 + lo + t
                    best_row = blk[lo + t]
            compute("blas1", ncand)
            if r != diag_r:
                env.send(
                    grid.rank(diag_r, c),
                    ("pmax", K, m, r),
                    (best_abs, best_pos,
                     None if best_row is None else best_row.copy()),
                    nbytes=32 + (8 if best_row is None else best_row.nbytes),
                )
                t_pos, piv_row, old_row = yield env.recv(("pbest", K, m))
            else:
                g_abs, g_pos, g_row = best_abs, best_pos, best_row
                for rr in range(pr):
                    if rr == diag_r:
                        continue
                    a, p, row = yield env.recv(("pmax", K, m, rr))
                    if a > g_abs or (a == g_abs and p != -1 and (g_pos == -1 or p < g_pos)):
                        g_abs, g_pos, g_row = a, p, row
                if g_pos == -1 or g_abs == 0.0:
                    if monitor is None or not monitor.perturb:
                        raise SingularMatrixError(
                            f"no nonzero pivot for column {gm}", pivot_index=gm
                        )
                    # numerically dead column: keep the diagonal position and
                    # let the monitor perturb its value below
                    g_pos = gm
                    g_row = blocks[(K, K)][m]
                dval = blocks[(K, K)][m, m]
                if (
                    pivot_threshold < 1.0
                    and abs(dval) >= pivot_threshold * g_abs
                    and dval != 0.0
                ):
                    # threshold pivoting: keep the diagonal
                    g_pos = gm
                    g_row = blocks[(K, K)][m]
                t_pos = g_pos
                piv_row = np.array(g_row, copy=True)
                if monitor is not None:
                    new = monitor.consider(gm, float(piv_row[m]))
                    if new != piv_row[m]:
                        piv_row[m] = new
                        if int(t_pos) == gm:
                            # no interchange will write piv_row back; patch
                            # the stored diagonal directly
                            blocks[(K, K)][m, m] = new
                # old row m is local to the diagonal owner
                dblk = blocks[(K, K)]
                old_row = dblk[m].copy()
                env.multicast(
                    grid.col_ranks(c),
                    ("pbest", K, m),
                    (t_pos, piv_row, old_row),
                    nbytes=24 + piv_row.nbytes + old_row.nbytes,
                )
            pivots.append((gm, int(t_pos)))
            # perform the interchange within the panel
            if int(t_pos) != gm:
                It = block_of[t_pos]
                if r == diag_r:
                    blocks[(K, K)][m] = piv_row
                if It % pr == r:
                    blk = blocks[(It, K)]
                    blk[t_pos - part.start(It)] = old_row
            # eliminate: scale column m and update the trailing panel
            piv_val = piv_row[m] if r != diag_r else blocks[(K, K)][m, m]
            nrows = 0
            ntrail = bs - m - 1
            prow = piv_row[m + 1 :] if ntrail > 0 else None
            for s0, blk, lrc in panel:
                lo = gm + 1 - s0
                if lo < 0:
                    lo = 0
                h = blk.shape[0] - lo
                if h <= 0:
                    continue
                col = blk[lo:, m]
                col /= piv_val
                if ntrail > 0:
                    sub = blk[lo:, m + 1 :]
                    outer = scr[:h, :ntrail]
                    np.multiply(col[:, None], prow, out=outer)
                    np.subtract(sub, outer, out=sub)
                # charge the packed-storage row count (accounting parity
                # with the sequential code)
                nrows += lrc if lrc < h else h
            compute("blas1", nrows)
            compute("dgemv", 2.0 * nrows * max(ntrail, 0), gran=bs)
        pivseqs[K] = pivots
        # multicast pivots + my local L blocks along my processor row
        diag = blocks.get((K, K)) if diag_r == r else None
        lblocks = {I: blocks[(I, K)] for I in myI if I > K}
        payload = {"pivots": pivots, "diag": diag, "lblocks": lblocks}
        nb = None
        if abft:
            # column K is final after Factor(K): checksums taken from the
            # live views stay valid for the in-flight deep-copied payload
            payload["abft"] = payload_checksums(
                {key: v for key, v in payload.items()})
        else:
            # exact _payload_nbytes of this payload shape, without the
            # generic recursion
            nb = (
                72 + 32 * len(pivots)
                + (diag.nbytes if diag is not None else 8)
                + sum(8 + b.nbytes for b in lblocks.values())
            )
        lcol_cache[K] = payload
        env.multicast(grid.row_ranks(r), ("lcol", K), payload, nbytes=nb)

    # ---- ScaleSwap(K): all ranks (Fig. 14) -------------------------------
    def scaleswap(K):
        if c == K % pc:
            info = lcol_cache[K]
        else:
            info = yield env.recv(("lcol", K))
            if abft:
                verify_payload(info, where=f"payload:lcol({K})",
                               column=K, metrics=env.metrics)
            lcol_cache[K] = info
        pivots = info["pivots"]
        cols_after = my_cols[bisect_right(my_cols, K):]
        # delayed row interchanges within my processor column
        for step, (gm, t) in enumerate(pivots):
            if gm == t:
                continue
            r1 = block_of[gm] % pr
            r2 = block_of[t] % pr
            if r1 == r and r2 == r:
                for J in cols_after:
                    _swap_local(blocks, part, J, gm, t, bstruct)
            elif r1 == r or r2 == r:
                mine, theirs = (gm, t) if r1 == r else (t, gm)
                peer = grid.rank(r2 if r1 == r else r1, c)
                outrow = _pack_row(blocks, part, cols_after, mine)
                nb = None if abft else _ndarray_dict_nbytes(outrow)
                if abft:
                    outrow["abft"] = payload_checksums(
                        {key: v for key, v in outrow.items()})
                env.send(peer, ("swap", K, step, r), outrow, nbytes=nb)
                incoming = yield env.recv(("swap", K, step, (r2 if r1 == r else r1)))
                if abft:
                    verify_payload(incoming, where=f"payload:swap({K},{step})",
                                   column=K, metrics=env.metrics)
                _store_row(blocks, part, cols_after, mine, incoming)
        # scaling of the U row panel by the owners of block row K
        if r == K % pr:
            diag = info["diag"]
            scaled = {}
            udense = bstruct.udense_cols
            for J in cols_after:
                ukj = blocks.get((K, J))
                if ukj is not None:
                    win = env.begin_counted()
                    unit_lower_solve(
                        diag,
                        ukj,
                        counter=env.counter,
                        ncols_structural=len(udense[(K, J)]),
                    )
                    env.end_counted(win)
                    scaled[J] = ukj
            nb = None if abft else _ndarray_dict_nbytes(scaled)
            if abft:
                # block row K is final after the scaling; see lcol above
                scaled["abft"] = payload_checksums(
                    {key: v for key, v in scaled.items()})
            urow_cache[K] = scaled
            env.multicast(grid.col_ranks(c), ("urow", K, c), scaled, nbytes=nb)
        else:
            urow = yield env.recv(("urow", K, c))
            if abft:
                verify_payload(urow, where=f"payload:urow({K})",
                               column=K, metrics=env.metrics)
            urow_cache[K] = urow

    # ---- Update_2D(K, J): local GEMM sweep (Fig. 15) ---------------------
    udense_cols = bstruct.udense_cols

    def update_stage(K, urow, lo, hi=N):
        """Run ``Update_2D(K, J)`` for every block column ``lo < J <= hi``
        of the scaled U row — its own keys, ascending as the scaling rank
        inserted them, so structurally absent columns cost nothing —
        hoisting the per-stage lookups shared by the whole sweep out of the
        per-(K, J) work.  Per-(K, J) spans, counters and clock charges are
        unchanged."""
        items = None
        for J, ukj in urow.items():
            if J == "abft" or not lo < J <= hi:
                continue
            if items is None:
                sweep = lcol_sweep.get(K)
                if sweep is None:
                    items = [
                        (I, lik, bstruct.l_rows_count(I, K), lik.shape[1])
                        for I, lik in sorted(lcol_cache[K]["lblocks"].items())
                    ]
                    maxrows = max(
                        (lik.shape[0] for _, lik, _, _ in items), default=0)
                    sweep = lcol_sweep[K] = (items, maxrows)
                items, maxrows = sweep
                blocks_get = blocks.get
                compute = env.compute
                subtract = np.subtract
            t0 = env.clock
            ncols = len(udense_cols[(K, J)])
            # one product scratch for the sweep, one BLAS call and one
            # charge per block: no per-block temporaries
            scratch = scratch_buffer("2d-update-prod", maxrows, ukj.shape[1])
            wide = ncols >= 2
            for I, lik, srows, lk in items:
                prod = block_product(lik, ukj, scratch[: lik.shape[0]])
                target = blocks_get((I, J))
                if target is None:
                    if np.any(prod):
                        raise StructureViolation(
                            f"2D update ({K},{J}) touches absent block ({I},{J})"
                        )
                    continue
                subtract(target, prod, out=target)
                if wide and srows >= 2:
                    compute("dgemm", 2.0 * srows * lk * ncols,
                            gran=lk if lk < ncols else ncols)
                else:
                    compute("dgemv", 2.0 * srows * lk * ncols, gran=lk)
            if env.clock > t0:
                update_spans.append((env.rank, K, t0, env.clock))
                env.span(f"U2D{K}", t0)

    # ---- main loop (Fig. 12) ---------------------------------------------
    # checkpoint/restart runs a window of elimination stages [k_lo, k_hi)
    # per round; the full run is the single window [0, N)
    k_lo, k_hi = ctx.get("stage_range", (0, N))
    if synchronous:
        for k in range(k_lo, k_hi):
            if c == k % pc:
                yield from factor(k)
            yield from scaleswap(k)
            update_stage(k, urow_cache[k], k)
            yield env.barrier()
    else:
        if c == k_lo % pc:
            yield from factor(k_lo)
        for k in range(k_lo, k_hi - 1):
            yield from scaleswap(k)
            urow = urow_cache[k]
            if (k + 1) % pc == c:
                update_stage(k, urow, k, k + 1)
                yield from factor(k + 1)
            update_stage(k, urow, k + 1)
        if k_hi < N:
            # window boundary: finish stage k_hi-1 completely (its Factor
            # already ran; ScaleSwap + every trailing update) so the merged
            # state is a consistent checkpoint.  Factor(k_hi) belongs to
            # the next round.
            k = k_hi - 1
            yield from scaleswap(k)
            update_stage(k, urow_cache[k], k)
        # ScaleSwap(N-1) never runs in the pipelined loop, but Factor(N-1)
        # still multicast its L panel along the processor rows; drain it so
        # no message is left undelivered at exit (the Cbuffer free)
        elif N >= 1 and c != (N - 1) % pc:
            last = yield env.recv(("lcol", N - 1))
            if abft:
                verify_payload(last, where=f"payload:lcol({N - 1})",
                               column=N - 1, metrics=env.metrics)
            lcol_cache[N - 1] = last
    return {
        "pivot_seq": pivseqs,
        "update_spans": update_spans,
    }


def run_2d(
    A: CSRMatrix,
    part: BlockPartition,
    bstruct: BlockStructure,
    nprocs: int,
    spec: MachineSpec,
    synchronous: bool = False,
    grid: Grid2D = None,
    pivot_threshold: float = 1.0,
    sim_opts: dict = None,
    stage_range: tuple = None,
    start_from: BlockLUMatrix = None,
    monitor=None,
    abft: bool = False,
) -> TwoDResult:
    """Run the 2D parallel factorization of an ordered matrix ``A``.

    ``sim_opts`` are forwarded to :class:`repro.machine.Simulator` (e.g.
    ``trace=True`` / ``host_order=...`` / ``faults=...`` /
    ``reliable=...``).  Checkpoint/restart passes ``stage_range=(k0, k1)``
    and ``start_from`` (a partially factored merged matrix); ``monitor``
    is an optional :class:`repro.numfact.PivotMonitor`.

    ``abft=True`` adds checksum records to the block-carrying payloads
    (``lcol`` L panels, ``urow`` scaled row panels, ``swap`` row
    exchanges); receivers verify them at consumption and raise
    :class:`repro.numfact.SilentCorruptionError` on a mismatch.  The
    O(b)-word pivot-reduction messages (``pmax``/``pbest``) are not
    checksummed — see DESIGN.
    """
    if grid is None:
        grid = Grid2D.preferred(nprocs)
    grid.check(part.N, nprocs)
    merged, locals_ = _distribute_2d(A, part, bstruct, grid, full=start_from)
    ctx = {
        "grid": grid,
        "part": part,
        "bstruct": bstruct,
        "locals": locals_,
        "synchronous": synchronous,
        "pivot_threshold": pivot_threshold,
        "monitor": monitor,
        "abft": abft,
        # row -> block index as plain Python ints, shared read-only by all
        # ranks: the pivot-swap loops hit this per pivot, and indexing the
        # numpy array there costs an int() boxing per lookup
        "block_of": part.block_of.tolist(),
    }
    if stage_range is not None:
        ctx["stage_range"] = stage_range
    opts = dict(sim_opts or {})
    # zero-copy delivery by default: this module is Z-rule certified
    # (repro lint --certify); the simulator falls back to copying if the
    # certificate is stale/absent or sanitize mode is on
    opts.setdefault("zero_copy", True)
    sim = Simulator(
        grid.nprocs, spec, _rank_program_2d, args=(ctx,), **opts
    ).run()

    # the ranks' dicts hold views of the one arena, factored in place: the
    # full matrix is the merged factor once it knows the pivot sequences
    spans = []
    for ret in sim.returns:
        if ret is None:  # rank crashed; its state is on the restart path
            continue
        spans.extend(ret["update_spans"])
        for K, seq in enumerate(ret["pivot_seq"]):
            if seq is not None:
                merged.pivot_seq[K] = seq
    return TwoDResult(sim=sim, grid=grid, factor=merged, update_spans=spans)
