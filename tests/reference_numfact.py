"""Frozen reference implementations of the numeric kernels' old call shapes.

These are the product rule of ``repro.numfact.kernels.block_product`` and
the body of ``LUFactorization.solve`` as they stood at commit aac34d0,
before the kernels were dispatched on supernode shape: one ``np.multiply``
(plus ``+ 0.0``) or ``np.matmul`` per product, and a per-block forward and
backward sweep with a triangular solve on every diagonal block, ``1 x 1``
ones included.  The unit lower solve is the row loop every ``L_KK^{-1}``
ran through up to commit f0ab2b9, before the kernels applied an inverted
triangle instead, charge included.  They are the oracle the tests in
``test_kernel_shapes.py`` compare the live code with, byte for byte:
slow, obviously per block, and not to be "improved".
"""

import numpy as np

from repro.numfact.counter import DGEMM, DGEMV, KernelCounter
from repro.numfact.kernels import FLOP_TRSM, upper_solve


def reference_unit_lower_solve(L, B, counter: KernelCounter = None,
                               ncols_structural=None):
    """In-place solve ``L X = B`` with ``L`` unit lower triangular
    (only the strictly-lower part of ``L`` is referenced), one row at a
    time."""
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


def reference_block_product(A, B, out):
    """``out[...] = A @ B``: an elementwise multiply for inner dimension
    1, ``np.matmul`` otherwise."""
    if A.shape[1] == 1:
        np.multiply(A, B, out=out)
        np.add(out, 0.0, out=out)
    else:
        np.matmul(A, B, out=out)
    return out


def reference_solve(lu, b, lower_solve=reference_unit_lower_solve):
    """``A x = b`` for the permuted matrix of ``lu``, one product per
    block and a triangular solve per diagonal block (``lower_solve(L, xk)``
    in place for the unit lower one)."""
    m = lu.matrix
    part = lu.part
    x = np.asarray(b, dtype=np.float64).copy()
    N = part.N
    bounds = part.bounds
    for K in range(N):
        for r1, r2 in m.pivot_seq[K]:
            if r1 != r2:
                tmp = x[r1].copy() if x.ndim == 2 else x[r1]
                x[r1] = x[r2]
                x[r2] = tmp
        xk = x[bounds[K] : bounds[K + 1]]
        lower_solve(m.blocks[(K, K)], xk)
        for I in lu.bstruct.l_block_rows(K):
            if I > K:
                x[bounds[I] : bounds[I + 1]] -= m.blocks[(I, K)] @ xk
    for K in range(N - 1, -1, -1):
        xk = x[bounds[K] : bounds[K + 1]]
        for J in lu.bstruct.u_block_cols(K):
            xk -= m.blocks[(K, J)] @ x[bounds[J] : bounds[J + 1]]
        upper_solve(m.blocks[(K, K)], xk)
    return x


# -- the counting kernels ------------------------------------------------------
#
# ``Factor(K)``, ``Update(K, J)``, the unit lower apply and the upper solve
# as they stood at commit a9ff611, when every kernel still tallied its own
# flops into a ``KernelCounter`` and a 1D rank priced each task through a
# counted window (``Env.begin_counted`` / ``end_counted``).  They are the
# oracle ``tests/test_task_charges.py`` compares the pattern-level charges
# with: order of the ``by_gran`` keys, values, rank clocks, busy times and
# compute spans.  Frozen: not to be "improved".

from repro.numfact.blocks import SingularMatrixError, StructureViolation
from repro.numfact.counter import BLAS1
from repro.numfact.kernels import block_product, scratch_buffer
from repro.numfact.tasks import choose_pivot
from repro.obs import COMPUTE
from repro.taskgraph import FACTOR as FACTOR_TASK, UPDATE as UPDATE_TASK


class ReferenceCounter(KernelCounter):
    """``KernelCounter`` with the counted-window bookkeeping it carried:
    ``_touched`` (first-touch values of the keys changed since the window
    opened) and ``_korder`` (each key's global insertion index)."""

    def __init__(self):
        super().__init__()
        self._touched = None
        self._korder = {}

    def add(self, kernel, nflops, gran=None):
        nflops = float(nflops)
        f = self.flops
        f[kernel] = f.get(kernel, 0.0) + nflops
        key = (kernel, gran)
        g = self.by_gran
        prev = g.get(key)
        if prev is None:
            self._korder[key] = len(self._korder)
            prev = 0.0
        t = self._touched
        if t is not None and key not in t:
            t[key] = prev
        g[key] = prev + nflops


def reference_begin_counted(env):
    c = env.counter
    outer = c._touched
    t = c._touched = {}
    return (outer, t)


def reference_end_counted(env, window):
    """Charge the window's per-key deltas in ``by_gran`` insertion order,
    advancing ``env.clock`` / ``env.busy`` and tracing a compute span per
    positive delta."""
    outer, touched = window
    c = env.counter
    c._touched = outer
    if touched:
        g = c.by_gran
        keys = (sorted(touched, key=c._korder.get)
                if len(touched) > 1 else touched)
        compute_seconds = env.spec.compute_seconds
        tr = env._sim.tracer
        for key in keys:
            prev = touched[key]
            v = g[key]
            if v > prev:
                kernel, gran = key
                dt = compute_seconds(kernel, v - prev, gran)
                t0 = env.clock
                env.clock += dt
                env.busy += dt
                if tr is not None:
                    tr.span(env.rank, kernel, COMPUTE, t0, env.clock,
                            {"nflops": float(v - prev)})
        if outer is not None:
            for key, prev in touched.items():
                if key not in outer:
                    outer[key] = prev


def reference_unit_lower_apply(Linv, B, counter=None, ncols_structural=None):
    k = B.shape[0]
    if k > 1:
        prod = scratch_buffer("lower-apply", k, None if B.ndim == 1 else B.shape[1])
        block_product(Linv, B, prod)
        B[...] = prod
    if counter is not None:
        ncols = (1 if B.ndim == 1 else B.shape[1]) if ncols_structural is None else ncols_structural
        kernel = DGEMM if ncols >= 2 else DGEMV
        counter.add(kernel, FLOP_TRSM(k, ncols), gran=min(k, ncols) if kernel == DGEMM else k)
    return B


def reference_upper_solve(U, B, counter=None):
    upper_solve(U, B)
    if counter is not None:
        k = U.shape[0]
        ncols = 1 if B.ndim == 1 else B.shape[1]
        counter.add(DGEMM if ncols >= 2 else DGEMV, FLOP_TRSM(k, ncols) + k * ncols)
    return B


class ReferenceColumn:
    """What the reference update reads of a factored column."""

    def __init__(self, K, pivots, panel, linv=None):
        from repro.numfact.kernels import unit_lower_inverse
        bs = panel.shape[1]
        self.K = K
        self.pivots = pivots
        self.panel = panel
        self.diag = panel[:bs]
        self.lpanel = panel[bs:]
        if linv is None and bs > 1:
            linv = unit_lower_inverse(self.diag)
        self.linv = linv


def _panel_position(m, K, r):
    for I, lo, hi, _ in m.plan.below_diagonal(K):
        if r < hi:
            return m.part.start(I) + r - lo
    raise IndexError(f"row {r} is outside the L panel of column {K}")


def reference_factor_block_column(m, K, counter=None, pivot_threshold=1.0,
                                  monitor=None):
    part = m.part
    bs = part.size(K)
    if m.abft is not None:
        for I in m.bstruct.l_block_rows(K):
            m.abft.verify_block(I, K, m.blocks[(I, K)], where=f"factor({K})")
    panel = m.lpanel(K)
    nrows = panel.shape[0]
    srows = int(m.plan.col_srows[K])

    pivots = []
    start_K = part.start(K)
    cadd = counter.add if counter is not None else None
    scratch = scratch_buffer("factor-outer", nrows, bs)
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
            f"non-finite entries in factored panel {K}", pivot_index=gcol)

    m.pivot_seq[K] = pivots
    if m.abft is not None:
        m.abft.anchor_column(m, K)
    return ReferenceColumn(K, pivots, panel,
                           m.invert_diagonal(K) if bs > 1 else None)


def reference_update_block_columns(m, fc, columns, counter=None):
    K = fc.K
    blocks = m.blocks
    abft = m.abft
    udense_cols = m.bstruct.udense_cols
    linv = fc.linv
    lpanel = fc.lpanel
    lk = fc.diag.shape[0]
    swaps = [m.plan.locate_rows(r1, r2) for r1, r2 in fc.pivots if r1 != r2]
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
            continue
        ncols = len(udense_cols[(K, J)])

        if abft is not None:
            abft.pre_solve(K, J, linv)
        if not stacked:
            reference_unit_lower_apply(linv, ukj, counter=counter,
                                       ncols_structural=ncols)
        elif cadd is not None:
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
                if np.any(p):
                    raise StructureViolation(
                        f"update ({K},{J}) touches absent block ({I},{J})")
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
        if gemm_rows and gemm_first:
            cadd(DGEMM, 2.0 * gemm_rows * lk * ncols, gran=gran)
        if gemv_rows:
            cadd(DGEMV, 2.0 * gemv_rows * lk * ncols, gran=lk)
        if gemm_rows and not gemm_first:
            cadd(DGEMM, 2.0 * gemm_rows * lk * ncols, gran=gran)


def reference_sequential_tally(A, part, bstruct, abft=False,
                               pivot_threshold=1.0):
    """The tally of ``sstar_factor``'s sweep, charged by the kernels
    themselves (and, with ``abft``, by the ledger into the same counter)."""
    from repro.numfact import AbftLedger, BlockLUMatrix

    m = BlockLUMatrix.from_csr(A, part, bstruct)
    counter = ReferenceCounter()
    if abft:
        AbftLedger.attach(m, counter=counter)
    for K in range(part.N):
        fc = reference_factor_block_column(
            m, K, counter=counter, pivot_threshold=pivot_threshold)
        reference_update_block_columns(m, fc, bstruct.u_block_cols(K),
                                       counter=counter)
    return counter


def reference_rank_program_1d(env, ctx):
    """The 1D rank program of a9ff611 (ABFT left out): each task's kernel
    charges priced through a counted window, every receiver inverting the
    diagonal triangle of each column it updates with."""
    schedule = ctx["schedule"]
    owner = ctx["owner"]
    consumers = ctx["consumers"]
    m = ctx["locals"][env.rank]
    env.counter = counter = ReferenceCounter()
    rank = env.rank
    plan = m.plan
    k0, k1 = ctx["stage_range"]
    received = {}
    seen = set()
    local_fc = {}
    my_tasks = [t for t in schedule.proc_tasks[rank] if k0 <= t[1] < k1]
    last_use = {}
    for idx, t in enumerate(my_tasks):
        if t[0] == UPDATE_TASK:
            last_use[t[1]] = idx
    others = [p for p in range(env.nprocs) if p != rank]
    for idx, task in enumerate(my_tasks):
        t0 = env.clock
        if task[0] == FACTOR_TASK:
            k = task[1]
            win = reference_begin_counted(env)
            fc = reference_factor_block_column(
                m, k, counter=counter,
                pivot_threshold=ctx["pivot_threshold"], monitor=ctx["monitor"])
            reference_end_counted(env, win)
            env.span(f"F{k}", t0)
            local_fc[k] = fc
            payload = {"K": int(k), "pivots": fc.pivots, "panel": fc.panel}
            env.multicast(others if consumers is None else consumers[k],
                          ("col", k), payload, nbytes=plan.column_nbytes(k))
        else:
            _, k, j = task
            remote = owner[k] != rank
            if not remote:
                fc = local_fc.get(k)
                if fc is None:
                    fc = local_fc[k] = ReferenceColumn(
                        k, m.pivot_seq[k], m.lpanel(k),
                        m.diag_inverse(k) if m.part.size(k) > 1 else None)
            else:
                fc = received.get(k)
                if fc is None:
                    payload = yield env.recv(("col", k))
                    fc = received[k] = ReferenceColumn(
                        payload["K"], payload["pivots"], payload["panel"])
                    seen.add(k)
            win = reference_begin_counted(env)
            reference_update_block_columns(m, fc, (j,), counter=counter)
            reference_end_counted(env, win)
            env.span(f"U{k},{j}", t0)
            if remote and idx == last_use[k]:
                del received[k]
    if consumers is None:
        for k in range(k0, k1):
            if owner[k] != rank and k not in seen:
                yield env.recv(("col", k))
    return {"pivot_seq": m.pivot_seq, "high_water": 0}


# ---------------------------------------------------------------------------
# The 2D rank program (``repro.parallel.twod._rank_program_2d``) and its row
# helpers as they stood at commit baab0f7, when each rank priced every
# charge at its site through ``Env.compute``.  The oracle
# ``tests/test_task_charges.py`` holds the 2D per-rank price tables to:
# clocks, busy times, ``by_gran``/``flops`` order and values, task and
# compute spans, messages and bytes.  Frozen: not to be "improved".

from bisect import bisect_right

from repro.numfact.abft import payload_checksums, verify_payload
from repro.numfact.kernels import (
    trsm_charge,
    unit_lower_apply,
    unit_lower_inverse,
)


def _reference_pack_row(blocks, part, cols, pos):
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


def _reference_ndarray_dict_nbytes(d) -> int:
    """Exact ``_payload_nbytes`` of a ``{key: ndarray}`` payload, computed
    without the generic recursion (wire-format parity is what keeps the
    modeled transfer times identical across delivery modes)."""
    return 16 + sum(8 + v.nbytes for v in d.values())


def _reference_store_row(blocks, part, cols, pos, incoming):
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


def reference_rank_program_2d(env, ctx):
    """The 2D rank program of baab0f7: every charge priced at its site
    through ``env.compute`` (which tallies the rank's counter), every
    per-rank fact of the pattern re-derived per run."""
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
                outrow = _reference_pack_row(blocks, part, cols_after, mine)
                nb = None if abft else _reference_ndarray_dict_nbytes(outrow)
                if abft:
                    outrow["abft"] = payload_checksums(outrow)
                env.send(peer, ("swap", K, step, r), outrow, nbytes=nb)
                incoming = yield env.recv(("swap", K, step, (r2 if r1 == r else r1)))
                if abft:
                    verify_payload(incoming, where=f"payload:swap({K},{step})",
                                   column=K, metrics=env.metrics)
                _reference_store_row(blocks, part, cols_after, mine, incoming)
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
            nb = None if abft else _reference_ndarray_dict_nbytes(scaled)
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
