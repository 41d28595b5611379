"""Distributed triangular solves over a mapped factorization.

The paper factors in parallel and then solves ``L y = P b`` and ``U x = y``
("the triangular solvers are much less time consuming than the Gaussian
elimination process").  This module implements those solvers as **one**
SPMD program over whatever mapping the factorization left the blocks in —
the 1D column-block owner map or the 2D ``p_r x p_c`` grid — without
gathering the matrix anywhere.  The program asks the mapping three
questions (:mod:`repro.parallel.mapping`): who holds segment ``x_K``, who
holds block ``(I, J)``, and which ranks must see a finalised ``x_K``.

* the solution vector is distributed by block, ``x_K`` living with
  ``seg_owner(K)`` (the diagonal block's owner);
* **forward** (ascending ``K``): segment owners exchange the scalars a
  pivot swap of block ``K`` touches, the owner solves with the unit-lower
  diagonal block and multicasts ``x_K`` to ``col_group(K)`` — exactly where
  every ``L_IK`` lives (under the 1D mapping that is the owner alone, and
  nothing is sent); each ``L_IK`` owner ships its product to segment ``I``'s
  owner, which absorbs contributions in ascending ``(K, I)`` order;
* **backward** (descending ``K``): each finalised ``x_J`` is multicast to
  ``col_group(J)``, where the ``U_KJ`` owners later produce the
  contributions segment ``K`` subtracts in ascending-``J`` order before its
  own back substitution — so the floating-point sums match the sequential
  solver **bitwise**.

The right-hand side may be a vector ``(n,)`` or a block ``(n, k)`` of
``k`` right-hand sides; block solves run the same protocol once, with every
product a ``trsm``/``gemm``-shaped BLAS-3 call on ``(bs, k)`` panels, so one
factorization (and one message per logical transfer) amortises across all
``k`` solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine import Simulator, MachineSpec
from ..numfact import LUFactorization
from ..numfact.kernels import unit_lower_solve, upper_solve
from ..sparse import rhs_array
from .mapping import ColumnMapping, Grid2D


@dataclass
class TriSolveResult:
    """Outcome of a distributed triangular solve."""

    x: np.ndarray
    sim: object  # SimResult

    @property
    def parallel_seconds(self) -> float:
        return self.sim.total_time


def _shared_tables(lu: LUFactorization, mapping, nprocs: int) -> dict:
    """What the mapping says about this factor, asked once in the driver
    instead of ``nprocs`` times in the rank programs (every rank reads the
    tables, none writes them): segment owners, multicast groups, the
    non-trivial pivot swaps, and per rank and stage the blocks it multiplies
    (``l_mult``/``u_mult``) and the contributions it waits for (``l_wait``;
    the backward wait list of stage ``K`` is ``u_from[K]``)."""
    part = lu.part
    bstruct = lu.bstruct
    N = part.N
    mapping.check(N, nprocs)
    seg = [mapping.seg_owner(K) for K in range(N)]
    # None: x_K is needed on its owner only, nothing to multicast
    group = [g if len(g) > 1 else None for g in map(mapping.col_group, range(N))]
    block_owner = mapping.block_owner
    block_of = part.block_of
    swaps = []
    l_mult = [{} for _ in range(nprocs)]
    l_wait = [{} for _ in range(nprocs)]
    u_mult = [{} for _ in range(nprocs)]
    u_from = []
    for K in range(N):
        seq = lu.matrix.pivot_seq[K]
        if seq is None:
            raise ValueError(
                f"block column {K} (on rank {seg[K]}) has no pivot sequence: "
                "the factorization is incomplete"
            )
        swaps.append([
            (step, m, t, int(block_of[t]))
            for step, (m, t) in enumerate(seq) if m != t
        ])
        for I in bstruct.l_block_rows(K):
            if I > K:
                p = block_owner(I, K)
                l_mult[p].setdefault(K, []).append((I, seg[I]))
                if seg[I] != p:
                    l_wait[seg[I]].setdefault(K, []).append(I)
        src = [(J, block_owner(K, J)) for J in bstruct.u_block_cols(K)]
        u_from.append(src)
        for J, p in src:
            if p != seg[K]:
                u_mult[p].setdefault(K, []).append(J)
    return {"seg": seg, "group": group, "swaps": swaps, "l_mult": l_mult,
            "l_wait": l_wait, "u_mult": u_mult, "u_from": u_from}


def _solve_program(env, ctx):
    lu: LUFactorization = ctx["lu"]
    b = ctx["b"]
    part = lu.part
    blocks = lu.matrix.blocks
    bounds = part.bounds
    N = part.N
    me = env.rank
    nrhs = 1 if b.ndim == 1 else b.shape[1]
    mv_kernel = "dgemv" if nrhs == 1 else "dgemm"
    seg = ctx["seg"]
    group = ctx["group"]
    swaps_of = ctx["swaps"]
    l_mult = ctx["l_mult"][me]
    l_wait = ctx["l_wait"][me]
    u_mult = ctx["u_mult"][me]
    u_from = ctx["u_from"]
    psize = part.size

    def row_payload(seg_k, i):
        # a scalar for vector solves (historic wire format), a row copy for
        # (n, k) blocks
        return float(seg_k[i]) if b.ndim == 1 else seg_k[i].copy()

    x = {
        K: b[bounds[K] : bounds[K + 1]].copy()
        for K in range(N)
        if seg[K] == me
    }

    # ---- forward substitution with interleaved pivoting ----------------
    for K in range(N):
        # pivot swaps: scalar exchanges between segment owners
        for step, m, t, It in swaps_of[K]:
            o_m, o_t = seg[K], seg[It]
            if o_m == o_t:
                if me == o_m:
                    lm, lt = m - bounds[K], t - bounds[It]
                    tmp = np.copy(x[K][lm])
                    x[K][lm] = x[It][lt]
                    x[It][lt] = tmp
            elif me == o_m:
                lm = m - bounds[K]
                env.send(o_t, ("fswap", K, step, "m"), row_payload(x[K], lm))
                x[K][lm] = yield env.recv(("fswap", K, step, "t"))
            elif me == o_t:
                lt = t - bounds[It]
                env.send(o_m, ("fswap", K, step, "t"), row_payload(x[It], lt))
                x[It][lt] = yield env.recv(("fswap", K, step, "m"))
        if seg[K] == me:
            xk = x[K]
            win = env.begin_counted()
            unit_lower_solve(blocks[(K, K)], xk, counter=env.counter)
            env.end_counted(win)
            if group[K] is not None:
                env.multicast(group[K], ("xk", K), xk.copy())
        elif group[K] is not None and me in group[K]:
            xk = yield env.recv(("xk", K))
        # the L_IK I hold: ship L_IK x_K to segment I's owner
        for I, dest in l_mult.get(K, ()):
            contrib = blocks[(I, K)] @ xk
            env.compute(mv_kernel, 2.0 * blocks[(I, K)].size * nrhs, gran=psize(K))
            if dest == me:
                x[I] -= contrib
            else:
                env.send(dest, ("fwd", K, I), contrib)
        # absorb contributions into my segments (ascending I: bitwise order)
        for I in l_wait.get(K, ()):
            contrib = yield env.recv(("fwd", K, I))
            x[I] -= contrib

    # ---- backward substitution -----------------------------------------
    xj = {}  # finalised segments on my side of their multicast group
    for K in range(N - 1, -1, -1):
        # the U_KJ I hold for someone else's segment K (every x_J finalised)
        for J in u_mult.get(K, ()):
            contrib = blocks[(K, J)] @ xj[J]
            env.compute(mv_kernel, 2.0 * blocks[(K, J)].size * nrhs, gran=psize(J))
            env.send(seg[K], ("bwd", K, J), contrib)
        if seg[K] == me:
            xk = x[K]
            for J, producer in u_from[K]:  # ascending J: bitwise order
                if producer == me:
                    contrib = blocks[(K, J)] @ xj[J]
                    env.compute(mv_kernel, 2.0 * blocks[(K, J)].size * nrhs, gran=psize(J))
                else:
                    contrib = yield env.recv(("bwd", K, J))
                xk -= contrib
            win = env.begin_counted()
            upper_solve(blocks[(K, K)], xk, counter=env.counter)
            env.end_counted(win)
            xj[K] = xk
            if group[K] is not None:
                env.multicast(group[K], ("xb", K), xk.copy())
        elif group[K] is not None and me in group[K]:
            xj[K] = yield env.recv(("xb", K))
    return x


def _run_trisolve(lu, mapping, b, nprocs, spec, sim_opts) -> TriSolveResult:
    b = rhs_array(b, lu.n)
    ctx = {"lu": lu, "b": b, **_shared_tables(lu, mapping, nprocs)}
    opts = dict(sim_opts or {})
    opts.setdefault("zero_copy", True)  # Z-rule certified module
    sim = Simulator(nprocs, spec, _solve_program, args=(ctx,), **opts).run()
    x = np.empty(b.shape)
    bounds = lu.part.bounds
    for ret in sim.returns:
        for K, seg in ret.items():
            x[bounds[K] : bounds[K + 1]] = seg
    return TriSolveResult(x=x, sim=sim)


def run_1d_trisolve(
    lu: LUFactorization, owner, b: np.ndarray, nprocs: int, spec: MachineSpec,
    sim_opts: dict = None,
) -> TriSolveResult:
    """Solve ``A x = b`` (permuted coordinates) with the distributed
    triangular solvers over the 1D mapping ``owner``.

    ``lu`` is a (merged) factorization whose blocks the ranks read from
    according to ownership — physically shared in-process, logically
    distributed, matching how the factorization left the data.

    ``b`` is a single right-hand side ``(n,)`` or a block ``(n, k)``; the
    block form solves all ``k`` systems in one pass with BLAS-3 panels.
    A mapping that does not fit (``owner`` of the wrong length or naming a
    rank outside ``range(nprocs)``) is a ``ValueError`` before any rank runs.
    """
    return _run_trisolve(lu, ColumnMapping(owner), b, nprocs, spec, sim_opts)


def run_2d_trisolve(
    lu: LUFactorization, b: np.ndarray, nprocs: int, spec: MachineSpec,
    grid: Grid2D = None, sim_opts: dict = None,
) -> TriSolveResult:
    """Solve ``A x = b`` (permuted coordinates) on the 2D grid (default
    :meth:`Grid2D.preferred`); ``b`` as for :func:`run_1d_trisolve`."""
    if grid is None:
        grid = Grid2D.preferred(nprocs)
    return _run_trisolve(lu, grid, b, nprocs, spec, sim_opts)
