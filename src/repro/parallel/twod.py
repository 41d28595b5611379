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

As for 1D, everything but the arithmetic and the messages is fixed before
the numerics start.  Per (pattern, grid), :class:`_GridPlan` holds which
blocks each rank's ``Factor``, ``ScaleSwap`` and ``Update_2D`` touch; per
(pattern, grid, machine), :class:`_Prices2D` holds the clock increment of
every place the rank program charges compute — per scalar column of
``Factor(K)``, per scaled U block of ``ScaleSwap(K)``, per present target
of ``Update_2D(K, J)`` — and a rank adds its next increment there instead
of counting flops.  Both live on the pattern's
:class:`~repro.numfact.NumericPlan`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from ..machine import MachineSpec
from ..numfact import (
    BlockLUMatrix,
    KernelCounter,
    NumericPlan,
    StructureViolation,
)
from ..numfact.abft import payload_checksums, verify_payload
from ..numfact.tasks import choose_pivot
from ..numfact.kernels import (
    block_product,
    scratch_buffer,
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


def _ints(a: np.ndarray) -> array:
    return array("i", a.astype(np.int32).tobytes())


def _nbytes(*tables) -> int:
    """Bytes held by lists of arrays (numpy or ``array``)."""
    return sum(memoryview(a).nbytes for arrays in tables for a in arrays)


@dataclass
class _GridPlan:
    """What a 2D rank reads of the pattern, fixed by the pattern and the
    grid alone and built once per (pattern, grid) on the
    :class:`~repro.numfact.NumericPlan` (:meth:`~repro.numfact.NumericPlan.memo`).

    Per processor row ``r``: the block rows ``I >= K`` of column ``K``'s L
    panel it holds, ascending, column after column —
    ``l_rows[r][l_ptr[r][K]:l_ptr[r][K + 1]]`` — and each one's first row
    (``l_start``): ``Factor(K)``'s panel, and without the diagonal its
    ``Update_2D`` sweep.  Per processor column ``c``: the structural U
    columns ``J > K`` of block row ``K`` it holds,
    ``u_cols[c][u_ptr[c][K]:u_ptr[c][K + 1]]``, which ``ScaleSwap(K)``
    scales and ``Update_2D(K, ·)`` walks.  Ranks in one processor row (or
    column) share its arrays, which index like lists (``array('i')``: no
    per-run conversion), and a run builds only the views of its own
    arena."""

    l_rows: list  # per processor row, array('i')
    l_start: list
    l_ptr: list
    u_cols: list  # per processor column, array('i')
    u_ptr: list

    @classmethod
    def build(cls, plan: NumericPlan, grid: Grid2D) -> "_GridPlan":
        N = plan.part.N
        Is = plan.blk_I
        Js = np.repeat(np.arange(N), np.diff(plan.col_ptr))
        # arena order: per column J its U blocks, the diagonal, the L blocks
        below = np.arange(len(Is)) >= plan.col_diag[Js]
        stages = np.arange(N + 1)
        l_rows, l_start, l_ptr = [], [], []
        for r in range(grid.pr):
            sel = np.flatnonzero(below & (Is % grid.pr == r))
            l_rows.append(_ints(Is[sel]))
            l_start.append(_ints(plan.part.bounds[Is[sel]]))
            l_ptr.append(_ints(np.searchsorted(Js[sel], stages)))
        uK, uJ = Is[~below], Js[~below]
        order = np.lexsort((uJ, uK))  # by block row, then column
        uK, uJ = uK[order], uJ[order]
        u_cols, u_ptr = [], []
        for c in range(grid.pc):
            sel = uJ % grid.pc == c
            u_cols.append(_ints(uJ[sel]))
            u_ptr.append(_ints(np.searchsorted(uK[sel], stages)))
        return cls(l_rows, l_start, l_ptr, u_cols, u_ptr)

    @property
    def nbytes(self) -> int:
        return _nbytes(self.l_rows, self.l_start, self.l_ptr, self.u_cols,
                       self.u_ptr)


#: the phases of stage ``K`` a 2D rank's prices are stored in, in this
#: order: ``Factor(K)``, ``ScaleSwap(K)``, ``Update_2D(K, K + 1)`` and
#: ``Update_2D(K, J > K + 1)`` — the compute-ahead runs the third before
#: ``Factor(K + 1)`` and the fourth after it
_PHASES = 4
_F, _S, _U1, _U = range(_PHASES)


def _program_phases(N: int, synchronous: bool, window: tuple) -> np.ndarray:
    """The ``4 K + phase`` indices of the phases a rank runs for stages
    ``window``, in the order the rank program runs them."""
    k0, k1 = window
    out = []
    if synchronous:
        for k in range(k0, k1):
            out += (4 * k + _F, 4 * k + _S, 4 * k + _U1, 4 * k + _U)
    else:
        out.append(4 * k0 + _F)
        for k in range(k0, k1 - 1):
            out += (4 * k + _S, 4 * k + _U1, 4 * (k + 1) + _F, 4 * k + _U)
        if k1 < N:  # the window's last stage completes; Factor(k1) waits
            k = k1 - 1
            out += (4 * k + _S, 4 * k + _U1, 4 * k + _U)
    return np.array(out, dtype=np.int64)


@dataclass
class _Prices2D:
    """Every 2D rank's compute, priced once per (pattern, grid, machine).

    Per rank, one clock increment per charge place of its program
    (:meth:`~repro.numfact.NumericPlan.factor_charges_2d`, ``solve_charge``
    and ``update_charges_2d``, zero ones kept), stored stage by stage in
    :data:`_PHASES` order: the increments of phase ``p`` of stage ``K``
    start at ``offsets[4 K + p]``, and each charge site of the rank
    program adds its next one.  Beside each increment, its ``(kernel,
    gran)`` as an index into ``keys`` and its flops: the tracer's compute
    span, and each rank's final counter for a window and synchrony
    (:meth:`counters`), which depend on the order the program runs the
    phases in.  Every charge is an integer-valued float far below 2**53,
    so the counters' sums are exact in any order."""

    seconds: list  # per rank, array('d')
    nflops: list  # per rank, float64
    key: list  # per rank, uint16 indices into keys
    offsets: list  # per rank, array('i') of 4 N + 1
    keys: list  # (kernel, gran)
    _counters: dict = field(default_factory=dict)

    @classmethod
    def build(cls, plan: NumericPlan, grid: Grid2D, spec: MachineSpec,
              tables: _GridPlan) -> "_Prices2D":
        N = plan.part.N
        keys, code = [], {}
        seconds, nflops, key, offsets = [], [], [], []
        for rank in range(grid.nprocs):
            r, c = grid.coords(rank)
            lrows, lptr = tables.l_rows[r].tolist(), tables.l_ptr[r].tolist()
            ucols, uptr = tables.u_cols[c].tolist(), tables.u_ptr[c].tolist()
            charges, offs = [], array("i")
            for K in range(N):
                rows = lrows[lptr[K]:lptr[K + 1]]
                cols = ucols[uptr[K]:uptr[K + 1]]
                below = rows[1:] if rows and rows[0] == K else rows
                ahead = 1 if cols and cols[0] == K + 1 else 0
                offs.append(len(charges))
                if K % grid.pc == c:
                    charges += plan.factor_charges_2d(K, rows)
                offs.append(len(charges))
                if K % grid.pr == r:
                    charges += [plan.solve_charge(K, J) for J in cols]
                offs.append(len(charges))
                for J in cols[:ahead]:
                    charges += plan.update_charges_2d(K, J, below)
                offs.append(len(charges))
                for J in cols[ahead:]:
                    charges += plan.update_charges_2d(K, J, below)
            offs.append(len(charges))
            codes = []
            for kernel, gran, _ in charges:
                k = code.get((kernel, gran))
                if k is None:
                    k = code[kernel, gran] = len(keys)
                    keys.append((kernel, gran))
                codes.append(k)
            key.append(np.array(codes, dtype=np.uint16))
            nflops.append(np.array([ch[2] for ch in charges], dtype=np.float64))
            offsets.append(offs)
        # an increment is compute_seconds(kernel, flops, gran): the same
        # one IEEE division, for every place at once
        rates = np.array([spec.kernel_rate(k, g) for k, g in keys])
        seconds = [array("d", (f / rates[k]).tobytes())
                   for f, k in zip(nflops, key)]
        return cls(seconds, nflops, key, offsets, keys)

    @property
    def nbytes(self) -> int:
        return _nbytes(self.seconds, self.nflops, self.key, self.offsets)

    def spans(self, rank: int) -> list:
        """``(kernel, nflops)`` of each of ``rank``'s increments."""
        kernels = [k for k, _ in self.keys]
        return list(zip([kernels[k] for k in self.key[rank].tolist()],
                        self.nflops[rank].tolist()))

    def counters(self, synchronous: bool, window: tuple) -> list:
        """Each rank's :class:`KernelCounter` for stages ``window``: its
        positive charges summed per key, keys in the order the program
        first charges them (as ``Env.compute`` left them), built once per
        ``(synchronous, window)``."""
        out = self._counters.get((synchronous, window))
        if out is None:
            out = self._counters[synchronous, window] = []
            phases = _program_phases(len(self.offsets[0]) // _PHASES,
                                     synchronous, window)
            for offs, flops, key in zip(self.offsets, self.nflops, self.key):
                offs = np.frombuffer(offs, dtype=np.int32)
                lo = offs[phases].astype(np.int64)
                n = offs[phases + 1] - lo
                at = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())
                f, k = flops[at], key[at]
                charged = f > 0  # Env.compute skips a charge of no flops
                f, k = f[charged], k[charged]
                sums = np.bincount(k, weights=f, minlength=len(self.keys))
                _, first = np.unique(k, return_index=True)
                counter = KernelCounter()
                for j in k[np.sort(first)].tolist():
                    counter.add(self.keys[j][0], float(sums[j]), self.keys[j][1])
                out.append(counter)
        return out


def _rank_program_2d(env, ctx):
    grid: Grid2D = ctx["grid"]
    local: BlockLUMatrix = ctx["locals"][env.rank]
    part: BlockPartition = local.part
    blocks = local.blocks
    synchronous: bool = ctx["synchronous"]
    pivot_threshold: float = ctx["pivot_threshold"]
    monitor = ctx["monitor"]
    abft = ctx["abft"]
    block_of = ctx["block_of"]
    rank = env.rank
    r, c = grid.coords(rank)
    pr, pc = grid.pr, grid.pc
    N = part.N
    tables: _GridPlan = ctx["tables"]
    lrows, lptr, lstart = tables.l_rows[r], tables.l_ptr[r], tables.l_start[r]
    ucols, uptr = tables.u_cols[c], tables.u_ptr[c]
    prices: _Prices2D = ctx["prices"]
    seconds, offsets = prices.seconds[rank], prices.offsets[rank]
    spans = prices.spans(rank) if env.traced else None
    charge = env.charge
    lcol_cache = {}  # K -> {"pivots", "diag", "lblocks"} for my block rows
    urow_cache = {}  # K -> {J: scaled U_KJ} for my block columns
    # scratch per width, as tall as any block: contents never survive a
    # yield (each use fully writes before reading), so the pooled buffers
    # are safe to share across the interleaved rank generators
    tallest = int(part.sizes().max()) if N else 0
    babs = scratch_buffer("2d-factor-abs", tallest)
    outer_scratch = {}
    prod_scratch = {}

    my_cols = [J for J in range(N) if J % pc == c]

    # ---- Factor(K): runs on processor column K % pc (Fig. 13) -----------
    def factor(K):
        k0, bs = part.start(K), part.size(K)
        diag_r = K % pr
        a, b = lptr[K], lptr[K + 1]
        myI = lrows[a:b]
        held = [blocks[(I, K)] for I in myI]
        panel = list(zip(lstart[a:b], held))
        scr = outer_scratch.get(bs)
        if scr is None:
            scr = outer_scratch[bs] = scratch_buffer(
                f"2d-factor-outer-{bs}", tallest, bs)
        i = offsets[4 * K + _F]  # three increments per scalar column
        pivots = []
        for m in range(bs):
            gm = k0 + m
            # local best candidate (position >= gm), ties -> smallest
            # position; a NaN (which argmax returns first) wins and stays,
            # as in the sequential search
            best_abs, best_pos, best_row = -1.0, -1, None
            for s0, blk in panel:
                lo = gm - s0
                if lo < 0:
                    lo = 0
                nsub = blk.shape[0] - lo
                if nsub <= 0:
                    continue
                sub = blk[lo:, m]
                ab = babs[:nsub]
                np.abs(sub, out=ab)
                t = int(ab.argmax())
                v = float(ab[t])
                if v > best_abs or v != v:
                    best_abs, best_pos = v, s0 + lo + t
                    best_row = blk[lo + t]
            # the pivot search's BLAS-1 over my candidates
            if spans is None:
                dt = seconds[i]
                env.clock += dt
                env.busy += dt
            else:
                charge(seconds[i:i + 1], spans[i:i + 1])
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
            ntrail = bs - m - 1
            prow = piv_row[m + 1 :] if ntrail > 0 else None
            for s0, blk in panel:
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
            # the scaling's BLAS-1 and the rank-1 DGEMV
            if spans is None:
                dt = seconds[i + 1]
                env.clock += dt
                env.busy += dt
                dt = seconds[i + 2]
                env.clock += dt
                env.busy += dt
            else:
                charge(seconds[i + 1:i + 3], spans[i + 1:i + 3])
            i += 3
        local.pivot_seq[K] = pivots
        # multicast pivots + my local L blocks along my processor row
        diag = held[0] if diag_r == r else None
        lblocks = dict(zip(myI[1:], held[1:]) if diag_r == r
                       else zip(myI, held))
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
        # scaling of block row K's structural U blocks by its owners
        if r == K % pr:
            a, b = uptr[K], uptr[K + 1]
            linv = None
            if a < b and part.size(K) > 1:
                linv = (local.invert_diagonal(K) if c == K % pc
                        else unit_lower_inverse(info["diag"]))
            scaled = {}
            for J in ucols[a:b]:
                ukj = blocks[(K, J)]
                unit_lower_apply(linv, ukj)
                scaled[J] = ukj
            i = offsets[4 * K + _S]
            charge(seconds[i:i + b - a], spans and spans[i:i + b - a])
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
    blocks_get = blocks.get
    subtract = np.subtract

    def update_stage(K, urow, lo, hi=N):
        """Run ``Update_2D(K, J)`` for every block column ``lo < J <= hi``
        of the scaled U row — its own keys, ascending as the scaling rank
        inserted them — over my L blocks of column ``K`` as received, one
        product per block and one priced increment per present target;
        a task span per ``(K, J)`` that advanced the clock."""
        items = None
        i = offsets[4 * K + (_U1 if lo == K else _U)]
        for J, ukj in urow.items():
            if J == "abft" or not lo < J <= hi:
                continue
            if items is None:
                lblocks = lcol_cache[K]["lblocks"]
                a = lptr[K] + (K % pr == r)  # past the diagonal, if mine
                items = [(I, lblocks[I]) for I in lrows[a:lptr[K + 1]]]
            scratch = prod_scratch.get(ukj.shape[1])
            if scratch is None:
                scratch = prod_scratch[ukj.shape[1]] = scratch_buffer(
                    f"2d-update-prod-{ukj.shape[1]}", tallest, ukj.shape[1])
            n = i
            for I, lik in items:
                prod = block_product(lik, ukj, scratch[: lik.shape[0]])
                target = blocks_get((I, J))
                if target is None:
                    if np.any(prod):
                        raise StructureViolation(
                            f"2D update ({K},{J}) touches absent block ({I},{J})"
                        )
                    continue
                subtract(target, prod, out=target)
                n += 1
            t0 = env.clock
            charge(seconds[i:n], spans and spans[i:n])
            i = n
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
    env.counter = ctx["counters"][rank].copy()
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
    plan = NumericPlan.of(bstruct)
    tables = plan.memo(("2d", grid),
                       lambda: _GridPlan.build(plan, grid))
    prices = plan.memo(("2d", grid, spec),
                       lambda: _Prices2D.build(plan, grid, spec, tables))
    window = (0, part.N) if stage_range is None else tuple(stage_range)
    ctx = {
        "grid": grid,
        "synchronous": synchronous,
        "tables": tables,
        "prices": prices,
        "counters": prices.counters(bool(synchronous), window),
        # row -> block index as plain Python ints, shared read-only by all
        # ranks: the pivot-swap loops hit this per pivot, and indexing the
        # numpy array there costs an int() boxing per lookup
        "block_of": part.block_of.tolist(),
    }
    return launch(_rank_program_2d, ctx, A, part, bstruct, grid, nprocs, spec,
                  sim_opts=sim_opts, stage_range=stage_range,
                  start_from=start_from, pivot_threshold=pivot_threshold,
                  monitor=monitor, abft=abft, grid=grid)
