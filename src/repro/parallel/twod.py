"""The 2D block-cyclic parallel codes (Section 5.2, Figs. 12-15).

Blocks map to a ``p_r x p_c`` grid: ``A_IJ`` lives on rank
``(I mod p_r, J mod p_c)`` (:meth:`Grid2D.block_owner`, the rule the
triangular solve and the memory model use), and each rank holds its
blocks as a :class:`~repro.numfact.BlockLUMatrix` over the one arena, as a
1D rank does.  The asynchronous algorithm follows Fig. 12:

* ``Factor(K)`` (Fig. 13) runs on processor column ``K mod p_c`` with a
  per-column pivot reduction along the processor column (local maxima +
  candidate subrows sent to the diagonal owner, winning subrow broadcast
  back), then multicasts the pivot sequence and local L blocks along each
  processor *row*;
* ``ScaleSwap(K)`` (Fig. 14) performs the delayed row interchanges inside
  each processor column (pairwise subrow exchanges), the owners of block
  row ``K`` scale ``U_K,*`` by ``L_KK^{-1}`` (each inverts the unit
  triangle once per stage; the diagonal's owner keeps it in the factor's
  side arena for the triangular solves) and multicast the scaled row
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

import numpy as np

from ..machine import MachineSpec
from ..numfact import BlockLUMatrix, StructureViolation
from ..numfact.abft import payload_checksums, verify_payload
from ..numfact.tasks import choose_pivot
from ..numfact.kernels import (
    block_product,
    scratch_buffer,
    trsm_charge,
    unit_lower_apply,
    unit_lower_inverse,
)
from ..sparse import CSRMatrix
from ..supernodes import BlockPartition, BlockStructure
from .mapping import Grid2D
from .resilience import RunResult, check_run, launch


def _pack_row(blocks, part, cols, pos):
    """Pack the subrow at global position ``pos`` across the given local
    block columns; absent blocks are omitted (structurally zero)."""
    I = int(part.block_of[pos])
    o = pos - part.start(I)
    out = {}
    for J in cols:
        blk = blocks.get((I, J))
        if blk is not None:
            # copy, not a view: ``_store_row`` writes the partner's row over
            # this one, so it is not final when sent
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
    local: BlockLUMatrix = ctx["locals"][env.rank]
    part: BlockPartition = local.part
    bstruct: BlockStructure = local.bstruct
    blocks = local.blocks
    synchronous: bool = ctx["synchronous"]
    pivot_threshold: float = ctx["pivot_threshold"]
    monitor = ctx["monitor"]
    abft = ctx["abft"]
    block_of = ctx["block_of"]
    r, c = grid.coords(env.rank)
    pr, pc = grid.pr, grid.pc
    N = part.N
    lcol_cache = {}  # K -> {"pivots", "diag", "lblocks"} for my block rows
    urow_cache = {}  # K -> {J: scaled U_KJ} for my block columns
    # per-rank update-sweep memo: K -> (sorted lblock items, tallest block).
    # Kept outside lcol_cache because the lcol payload is shared by
    # reference with other ranks — received payloads are never mutated.
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
            # local best candidate (position >= gm), ties -> smallest
            # position; a NaN (which argmax returns first) wins and stays,
            # as in the sequential search
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
                if v > best_abs or v != v:
                    best_abs, best_pos = v, s0 + lo + t
                    best_row = blk[lo + t]
            compute("blas1", ncand)
            if r != diag_r:
                # a copy of best_row: the interchange writes the row it
                # views once pbest arrives, so the view being read by then
                # would rest on message order, not on the row being final
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
                    if (a > g_abs or a != a
                            or (a == g_abs and p != -1 and (g_pos == -1 or p < g_pos))):
                        g_abs, g_pos, g_row = a, p, row
                t_pos = choose_pivot(gm, g_abs, g_pos, blocks[(K, K)][m, m],
                                     pivot_threshold, monitor)
                if t_pos == gm:
                    g_row = blocks[(K, K)][m]
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
        local.pivot_seq[K] = pivots
        # multicast pivots + my local L blocks along my processor row
        diag = blocks.get((K, K)) if diag_r == r else None
        lblocks = {I: blocks[(I, K)] for I in myI if I > K}
        payload = {"pivots": pivots, "diag": diag, "lblocks": lblocks}
        nb = None
        if abft:
            # column K is final after Factor(K): checksums taken from the
            # live views stay valid for the in-flight deep-copied payload
            payload["abft"] = payload_checksums(payload)
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
                rows = local.plan.locate_rows(gm, t)
                for J in cols_after:
                    local.swap_block_rows(J, *rows)
            elif r1 == r or r2 == r:
                mine, theirs = (gm, t) if r1 == r else (t, gm)
                peer = grid.rank(r2 if r1 == r else r1, c)
                outrow = _pack_row(blocks, part, cols_after, mine)
                nb = None if abft else _ndarray_dict_nbytes(outrow)
                if abft:
                    outrow["abft"] = payload_checksums(outrow)
                env.send(peer, ("swap", K, step, r), outrow, nbytes=nb)
                incoming = yield env.recv(("swap", K, step, (r2 if r1 == r else r1)))
                if abft:
                    verify_payload(incoming, where=f"payload:swap({K},{step})",
                                   column=K, metrics=env.metrics)
                _store_row(blocks, part, cols_after, mine, incoming)
        # scaling of the U row panel by the owners of block row K
        if r == K % pr:
            diag = info["diag"]
            linv = None
            scaled = {}
            udense = bstruct.udense_cols
            for J in cols_after:
                ukj = blocks.get((K, J))
                if ukj is not None:
                    if linv is None and part.size(K) > 1:
                        linv = (local.invert_diagonal(K) if c == K % pc
                                else unit_lower_inverse(diag))
                    unit_lower_apply(linv, ukj)
                    kernel, gran, flops = trsm_charge(part.size(K),
                                                      len(udense[(K, J)]))
                    env.compute(kernel, flops, gran=gran)
                    scaled[J] = ukj
            nb = None if abft else _ndarray_dict_nbytes(scaled)
            if abft:
                # block row K is final after the scaling; see lcol above
                scaled["abft"] = payload_checksums(scaled)
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
                env.span(f"U2D{K}", t0)

    # ---- main loop (Fig. 12) ---------------------------------------------
    # checkpoint/restart runs a window of elimination stages [k_lo, k_hi)
    # per round; the full run is the single window [0, N)
    k_lo, k_hi = ctx["stage_range"]
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
    return {"pivot_seq": local.pivot_seq}


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
) -> RunResult:
    """Run the 2D parallel factorization of an ordered matrix ``A``.

    ``synchronous`` selects the Table 7 baseline (a barrier per stage, no
    compute-ahead); ``grid`` fixes the process grid (default
    :meth:`Grid2D.preferred`), which the launcher splits the blocks by.
    ``sim_opts``, ``stage_range``, ``start_from``, ``monitor`` and
    ``abft`` mean what they mean for both layouts
    (:func:`repro.parallel.resilience.launch`).  ABFT checksums
    the block-carrying payloads (``lcol`` L panels, ``urow`` scaled row
    panels, ``swap`` row exchanges); the O(b)-word pivot-reduction
    messages (``pmax``/``pbest``) are not checksummed — see DESIGN.  The
    :class:`RunResult` carries the ``grid``.
    """
    check_run(part.N, nprocs, stage_range, pivot_threshold)
    if grid is None:
        grid = Grid2D.preferred(nprocs)
    ctx = {
        "grid": grid,
        "synchronous": synchronous,
        # row -> block index as plain Python ints, shared read-only by all
        # ranks: the pivot-swap loops hit this per pivot, and indexing the
        # numpy array there costs an int() boxing per lookup
        "block_of": part.block_of.tolist(),
    }
    return launch(_rank_program_2d, ctx, A, part, bstruct, grid, nprocs, spec,
                  sim_opts=sim_opts, stage_range=stage_range,
                  start_from=start_from, pivot_threshold=pivot_threshold,
                  monitor=monitor, abft=abft, grid=grid)
