"""The 1D column-block parallel codes (Section 5.1).

One generic schedule-driven executor realises both 1D variants:

* **RAPID-style**: tasks ordered by the graph scheduler; a factored column
  is *multicast only to consumer processors* (RAPID's RMA put);
* **compute-ahead (CA)**: cyclic mapping, Fig. 10 ordering, and the paper's
  broadcast of each factored column block to every processor.

Each rank holds the blocks of the column blocks it owns (a
:class:`~repro.numfact.BlockLUMatrix` the launcher splits off the one
arena by :class:`~repro.parallel.mapping.ColumnMapping`); ``Factor`` and
``Update`` reuse the sequential kernels, so the parallel numerics are
bit-identical to the sequential ones (asserted in tests).  Received columns
are cached in per-rank buffers; the high-water mark of that cache is the
extra-memory statistic behind the paper's 1D-memory-pressure discussion.
"""

from __future__ import annotations

from ..machine import MachineSpec
from ..numfact import (
    AbftLedger,
    BlockLUMatrix,
    FactoredColumn,
    column_leaves,
    factor_block_column,
    factored_column_of,
    payload_checksums,
    update_block_columns,
    verify_payload,
)
from ..scheduling import Schedule, graph_schedule, compute_ahead_schedule
from ..supernodes import BlockPartition, BlockStructure
from ..taskgraph import TaskGraph, task_graph_of, FACTOR, UPDATE
from ..sparse import CSRMatrix
from .mapping import ColumnMapping
from .resilience import RunResult, check_run, launch


def _consumers(tg: TaskGraph, owner: list) -> list:
    """Per column k: the processors owning a column updated by column k
    (excluding owner(k)), ascending."""
    out = []
    for k in range(tg.N):
        ranks = {
            owner[t[2]] for t in tg.succ.get((FACTOR, k), ()) if t[0] == UPDATE
        }
        ranks.discard(owner[k])
        out.append(sorted(ranks))
    return out


def _mapping(tg: TaskGraph, method: str, nprocs: int, spec: MachineSpec):
    """``(schedule, owner as a list, consumer lists or None)`` — pure
    functions of their arguments, memoised on the graph so restart rounds
    and repeated runs of one pattern don't re-derive them.  RAPID multicasts
    a column to its consumers only; CA broadcasts (no consumer lists)."""
    cache = getattr(tg, "_sched_cache", None)
    if cache is None:
        cache = tg._sched_cache = {}
    key = (method, nprocs, spec)
    entry = cache.get(key)
    if entry is None:
        if method == "rapid":
            schedule = graph_schedule(tg, nprocs, spec)
        elif method == "ca":
            schedule = compute_ahead_schedule(tg, nprocs, spec)
        else:
            raise ValueError(f"unknown 1D method {method!r}")
        owner = [int(p) for p in schedule.owner]
        consumers = _consumers(tg, owner) if method == "rapid" else None
        entry = cache[key] = (schedule, owner, consumers)
    return entry


def _check_column(payload, plan, abft, metrics) -> None:
    """Check a received column's shape (and with ABFT verify it, block by
    block) without wrapping it: what a drained column gets."""
    FactoredColumn.check_message(payload, plan)
    if abft:  # against the per-block leaves the sender checksummed
        K = payload["K"]
        verify_payload(
            {**column_leaves(payload, plan), "abft": payload.get("abft")},
            where=f"payload:col({K})", column=K, metrics=metrics)


def _receive_column(payload, plan, abft, metrics) -> FactoredColumn:
    """Check, then wrap a received column for the updates that consume it
    (wrapping inverts its diagonal triangle)."""
    _check_column(payload, plan, abft, metrics)
    return FactoredColumn(payload["K"], payload["pivots"], payload["panel"])


def _rank_program(env, ctx):
    """Generic 1D SPMD rank: execute my scheduled task list in order."""
    schedule: Schedule = ctx["schedule"]
    owner: list = ctx["owner"]
    consumers = ctx["consumers"]  # None: broadcast to everyone (CA)
    m: BlockLUMatrix = ctx["locals"][env.rank]
    pivot_threshold = ctx["pivot_threshold"]
    monitor = ctx["monitor"]
    abft = ctx["abft"]
    if abft:  # my columns are written by no other rank
        AbftLedger.attach(m)
    rank = env.rank
    counter = env.counter
    plan = m.plan
    column_nbytes = plan.column_nbytes
    # checkpoint/restart runs a window of elimination stages [k0, k1) per
    # round; a task's stage is its source column k (task[1])
    k0, k1 = ctx["stage_range"]
    received = {}
    seen = set()  # every column ever received (incl. later-freed buffers)
    local_fc = {}  # my own factored columns: Factor(k)'s, or re-wrapped
    buffer_bytes = 0
    high_water = 0

    my_tasks = [t for t in schedule.proc_tasks[rank] if k0 <= t[1] < k1]
    # index of the last Update consuming each remote column k, so the
    # receive buffer frees exactly when its final local consumer ran
    last_use = {}
    for idx, t in enumerate(my_tasks):
        if t[0] == UPDATE:
            last_use[t[1]] = idx
    others = [p for p in range(env.nprocs) if p != rank]
    for idx, task in enumerate(my_tasks):
        t0 = env.clock
        if task[0] == FACTOR:
            k = task[1]
            win = env.begin_counted()
            fc = factor_block_column(
                m, k, counter=counter,
                pivot_threshold=pivot_threshold, monitor=monitor,
            )
            env.end_counted(win)
            env.span(f"F{k}", t0)
            local_fc[k] = fc
            # the message is fc's own pivots and L panel, a view into the
            # local storage ``m``: no task writes column K after Factor(K),
            # so every consumer reads that one buffer in place
            payload = {"K": int(k), "pivots": fc.pivots, "panel": fc.panel}
            if abft:
                payload["abft"] = payload_checksums(column_leaves(payload, plan))
            env.multicast(others if consumers is None else consumers[k],
                          ("col", k), payload, nbytes=column_nbytes(k))
        else:
            _, k, j = task
            remote = owner[k] != rank
            if not remote:
                fc = local_fc.get(k)
                if fc is None:
                    fc = local_fc[k] = factored_column_of(m, k)
            else:
                fc = received.get(k)
                if fc is None:
                    payload = yield env.recv(("col", k))
                    fc = received[k] = _receive_column(
                        payload, plan, abft, env.metrics)
                    seen.add(k)
                    buffer_bytes += column_nbytes(k)
                    if buffer_bytes > high_water:
                        high_water = buffer_bytes
            win = env.begin_counted()
            update_block_columns(m, fc, (j,), counter=counter)
            env.end_counted(win)
            env.span(f"U{k},{j}", t0)
            # free the buffer once the last local consumer ran
            if remote and idx == last_use[k]:
                del received[k]
                buffer_bytes -= column_nbytes(k)
    if consumers is None:
        # CA broadcasts *every* factored column to every processor; drain
        # the ones this rank never consumed (the Cbuffer free of the real
        # code) so no message is left undelivered at exit
        for k in range(k0, k1):
            if owner[k] != rank and k not in seen:
                payload = yield env.recv(("col", k))
                _check_column(payload, plan, abft, env.metrics)
    return {"pivot_seq": m.pivot_seq, "high_water": high_water}


def run_1d(
    A: CSRMatrix,
    part: BlockPartition,
    bstruct: BlockStructure,
    nprocs: int,
    spec: MachineSpec,
    method: str = "rapid",
    tg: TaskGraph = None,
    pivot_threshold: float = 1.0,
    sim_opts: dict = None,
    stage_range: tuple = None,
    start_from: BlockLUMatrix = None,
    monitor=None,
    abft: bool = False,
) -> RunResult:
    """Run the 1D parallel factorization of an ordered matrix ``A``.

    ``method`` is ``"rapid"`` (graph scheduling + consumer multicast) or
    ``"ca"`` (cyclic mapping, Fig. 10 order, broadcast); ``tg`` is a
    prebuilt task graph.  ``sim_opts``, ``stage_range``, ``start_from``,
    ``monitor`` and ``abft`` mean what they mean for both layouts
    (:func:`repro.parallel.resilience.launch`, which places block column
    ``J`` on the schedule's ``owner[J]`` through a :class:`ColumnMapping`);
    with ABFT every rank's local blocks also carry checksums through the
    kernels (:class:`repro.numfact.AbftLedger`).  The :class:`RunResult`
    carries the ``schedule`` and each rank's receive-buffer ``high_water``.
    """
    check_run(part.N, nprocs, stage_range, pivot_threshold)
    if tg is None:
        tg = task_graph_of(bstruct)
    schedule, owner, consumers = _mapping(tg, method, nprocs, spec)
    ctx = {"schedule": schedule, "owner": owner, "consumers": consumers}
    return launch(_rank_program, ctx, A, part, bstruct, ColumnMapping(owner),
                  nprocs, spec, sim_opts=sim_opts, stage_range=stage_range,
                  start_from=start_from, pivot_threshold=pivot_threshold,
                  monitor=monitor, abft=abft, schedule=schedule)
