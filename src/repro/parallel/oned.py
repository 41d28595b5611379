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

Like RAPID's inspector/executor, everything but the arithmetic is fixed
before the numerics start: the virtual time of each task of each rank
(:class:`_RankPrices`) is computed once per schedule and stage window, and
a rank adds those increments instead of counting its kernels' flops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine import MachineSpec
from ..numfact import (
    AbftLedger,
    BlockLUMatrix,
    FactoredColumn,
    KernelCounter,
    NumericPlan,
    column_leaves,
    factor_block_column,
    factored_column_of,
    payload_checksums,
    update_block_columns,
    verify_payload,
)
from ..numfact.counter import KERNEL_CLASSES
from ..scheduling import graph_schedule, compute_ahead_schedule
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


def _window_tasks(tasks: list, window: tuple) -> list:
    """A rank's tasks of the elimination stages ``[k0, k1)`` (a task's stage
    is its source column, ``task[1]``), in schedule order."""
    k0, k1 = window
    return [t for t in tasks if k0 <= t[1] < k1]


@dataclass
class _RankPrices:
    """One rank's compute in a stage window, priced once: per task ``i`` of
    :func:`_window_tasks`, the clock increments
    ``seconds[offsets[i]:offsets[i + 1]]`` with the kernel classes (indices
    into :data:`repro.numfact.counter.KERNEL_CLASSES`) and flops the
    tracer's compute spans carry, plus the rank's final ``counter``.

    The increments are those of a counted window per task: the task's
    charges (:meth:`repro.numfact.NumericPlan.factor_charges` /
    :meth:`~repro.numfact.NumericPlan.update_charges`) summed per
    ``(kernel, gran)`` key, each positive sum priced once, in the order the
    rank's counter first met the keys.  Every charge is an integer-valued
    float far below 2**53, so those sums are exact."""

    seconds: np.ndarray  # float64
    kernels: np.ndarray  # uint8
    nflops: np.ndarray  # float64
    offsets: np.ndarray  # int32, one more than the tasks
    counter: KernelCounter

    def spans(self) -> list:
        """``(kernel, nflops)`` of each increment's compute span."""
        return list(zip([KERNEL_CLASSES[c] for c in self.kernels.tolist()],
                        self.nflops.tolist()))


def _rank_prices(plan: NumericPlan, spec: MachineSpec, tasks: list) -> _RankPrices:
    counter = KernelCounter()
    add = counter.add
    order = {}  # (kernel, gran) -> first-touch index in counter.by_gran
    compute_seconds = spec.compute_seconds
    seconds, kernels, nflops, offsets = [], [], [], [0]
    for task in tasks:
        charges = (plan.factor_charges(task[1]) if task[0] == FACTOR
                   else plan.update_charges(task[1], task[2]))
        window = {}
        for kernel, gran, flops in charges:
            key = (kernel, gran)
            if key not in order:
                order[key] = len(order)
            add(kernel, flops, gran)
            window[key] = window.get(key, 0.0) + flops
        for key in (sorted(window, key=order.get) if len(window) > 1
                    else window):
            flops = window[key]
            if flops > 0:
                seconds.append(compute_seconds(key[0], flops, key[1]))
                kernels.append(KERNEL_CLASSES.index(key[0]))
                nflops.append(flops)
        offsets.append(len(seconds))
    return _RankPrices(np.array(seconds, dtype=np.float64),
                       np.array(kernels, dtype=np.uint8),
                       np.array(nflops, dtype=np.float64),
                       np.array(offsets, dtype=np.int32), counter)


def _prices(tg: TaskGraph, plan: NumericPlan, method: str, nprocs: int,
            spec: MachineSpec, window: tuple) -> list:
    """Every rank's :class:`_RankPrices` for stages ``window``, memoised
    beside the schedule (:func:`_mapping`): the memo pays when the same
    pattern, method, ``nprocs``, machine and window run again (repeated
    solves, restart rounds); a pattern run once prices once."""
    key = ("prices", method, nprocs, spec, window)
    prices = tg._sched_cache.get(key)
    if prices is None:
        schedule = _mapping(tg, method, nprocs, spec)[0]
        prices = tg._sched_cache[key] = [
            _rank_prices(plan, spec, _window_tasks(tasks, window))
            for tasks in schedule.proc_tasks
        ]
    return prices


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
    """Check, then wrap a received column for the updates that consume it:
    its panel and the owner's ``L_KK^{-1}``, as received."""
    _check_column(payload, plan, abft, metrics)
    return FactoredColumn(plan, payload["K"], payload["pivots"],
                          payload["panel"], payload["linv"])


def _rank_program(env, ctx):
    """Generic 1D SPMD rank: execute my scheduled task list in order."""
    owner: list = ctx["owner"]
    consumers = ctx["consumers"]  # None: broadcast to everyone (CA)
    m: BlockLUMatrix = ctx["locals"][env.rank]
    pivot_threshold = ctx["pivot_threshold"]
    monitor = ctx["monitor"]
    abft = ctx["abft"]
    if abft:  # my columns are written by no other rank
        AbftLedger.attach(m)
    rank = env.rank
    plan = m.plan
    wire = plan.column_table()[1]  # column_nbytes
    # checkpoint/restart runs a window of elimination stages [k0, k1) per
    # round
    k0, k1 = ctx["stage_range"]
    my_tasks = _window_tasks(ctx["schedule"].proc_tasks[rank], (k0, k1))
    prices: _RankPrices = ctx["prices"][rank]
    seconds = prices.seconds.tolist()
    offsets = prices.offsets.tolist()
    spans = prices.spans() if env.traced else None
    charge = env.charge
    received = {}
    seen = set()  # every column ever received (incl. later-freed buffers)
    local_fc = {}  # my own factored columns: Factor(k)'s, or re-wrapped
    buffer_bytes = 0
    high_water = 0

    # index of the last Update consuming each remote column k, so the
    # receive buffer frees exactly when its final local consumer ran
    last_use = {}
    for idx, t in enumerate(my_tasks):
        if t[0] == UPDATE:
            last_use[t[1]] = idx
    others = [p for p in range(env.nprocs) if p != rank]
    for idx, task in enumerate(my_tasks):
        t0 = env.clock
        a, b = offsets[idx], offsets[idx + 1]
        if task[0] == FACTOR:
            k = task[1]
            fc = factor_block_column(
                m, k, pivot_threshold=pivot_threshold, monitor=monitor)
            charge(seconds[a:b], spans and spans[a:b])
            env.span(f"F{k}", t0)
            local_fc[k] = fc
            # the message is fc's own pivots, L panel and L_KK^{-1}, views
            # into the local storage ``m`` and its side arena: no task
            # writes column K after Factor(K), so every consumer reads
            # those buffers in place
            payload = {"K": int(k), "pivots": fc.pivots, "panel": fc.panel,
                       "linv": fc.linv}
            if abft:
                payload["abft"] = payload_checksums(column_leaves(payload, plan))
            env.multicast(others if consumers is None else consumers[k],
                          ("col", k), payload, nbytes=wire[k])
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
                    buffer_bytes += wire[k]
                    if buffer_bytes > high_water:
                        high_water = buffer_bytes
            update_block_columns(m, fc, (j,))
            charge(seconds[a:b], spans and spans[a:b])
            env.span(f"U{k},{j}", t0)
            # free the buffer once the last local consumer ran
            if remote and idx == last_use[k]:
                del received[k]
                buffer_bytes -= wire[k]
    env.counter = prices.counter.copy()
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
    window = (0, part.N) if stage_range is None else tuple(stage_range)
    prices = _prices(tg, NumericPlan.of(bstruct), method, nprocs, spec, window)
    ctx = {"schedule": schedule, "owner": owner, "consumers": consumers,
           "prices": prices}
    return launch(_rank_program, ctx, A, part, bstruct, ColumnMapping(owner),
                  nprocs, spec, sim_opts=sim_opts, stage_range=stage_range,
                  start_from=start_from, pivot_threshold=pivot_threshold,
                  monitor=monitor, abft=abft, schedule=schedule)
