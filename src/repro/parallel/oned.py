"""The 1D column-block parallel codes (Section 5.1).

One generic schedule-driven executor realises both 1D variants:

* **RAPID-style**: tasks ordered by the graph scheduler; a factored column
  is *multicast only to consumer processors* (RAPID's RMA put);
* **compute-ahead (CA)**: cyclic mapping, Fig. 10 ordering, and the paper's
  broadcast of each factored column block to every processor.

Each rank holds the blocks of the column blocks it owns; ``Factor`` and
``Update`` reuse the sequential kernels, so the parallel numerics are
bit-identical to the sequential ones (asserted in tests).  Received columns
are cached in per-rank buffers; the high-water mark of that cache is the
extra-memory statistic behind the paper's 1D-memory-pressure discussion.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine import Simulator, MachineSpec
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


@dataclass
class OneDResult:
    """Outcome of a 1D parallel factorization run."""

    sim: object  # SimResult
    schedule: Schedule
    factor: object  # merged LUFactorization-compatible storage
    buffer_high_water: list  # per-rank peak bytes of cached remote columns

    @property
    def parallel_seconds(self) -> float:
        return self.sim.total_time


def _distribute_1d(
    A: CSRMatrix, part: BlockPartition, bstruct: BlockStructure, owner, nprocs: int,
    full: BlockLUMatrix = None,
):
    """Build per-rank BlockLUMatrix holding only owned block columns;
    returns ``(full, locals)``.  ``owner`` is a list of ranks.

    ``full`` lets checkpoint/restart redistribute an existing (partially
    factored) matrix instead of the original ``A``.
    """
    if full is None:
        full = BlockLUMatrix.from_csr(A, part, bstruct)
    owned = [[] for _ in range(nprocs)]
    for J in range(part.N):
        owned[owner[J]].append(J)
    # every rank's storage is its own columns of the one shared arena
    locals_ = [full.column_subset(cols) for cols in owned]
    for K, seq in enumerate(full.pivot_seq):
        if seq is not None:
            locals_[owner[K]].pivot_seq[K] = seq
    return full, locals_


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


def _receive_column(payload, plan, abft, metrics) -> FactoredColumn:
    """Wrap (and with ABFT verify, block by block) a received column."""
    fc = FactoredColumn.from_message(payload, plan)
    if abft:  # against the per-block leaves the sender checksummed
        verify_payload(
            {**column_leaves(payload, plan), "abft": payload.get("abft")},
            where=f"payload:col({fc.K})", column=fc.K, metrics=metrics)
    return fc


def _rank_program(env, ctx):
    """Generic 1D SPMD rank: execute my scheduled task list in order."""
    schedule: Schedule = ctx["schedule"]
    owner: list = ctx["owner"]
    consumers = ctx["consumers"]  # None: broadcast to everyone (CA)
    m: BlockLUMatrix = ctx["locals"][env.rank]
    pivot_threshold = ctx["pivot_threshold"]
    monitor = ctx["monitor"]
    abft = ctx["abft"]
    rank = env.rank
    counter = env.counter
    plan = m.plan
    column_nbytes = plan.column_nbytes
    # checkpoint/restart runs a window of elimination stages [k0, k1) per
    # round; a task's stage is its source column k (task[1])
    k0, k1 = ctx["stage_range"]
    received = {}
    seen = set()  # every column ever received (incl. later-freed buffers)
    local_fc = {}  # my own factored columns, re-wrapped once per k
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
            # the message is one fresh copy of the column's L panel: fc
            # holds views into the local storage ``m``, which later
            # Factor/Update tasks keep mutating while the posted payload is
            # still in flight (Z201).  Every consumer reads that one buffer
            # in place, so it is frozen before it is posted.
            panel = fc.panel.copy()
            panel.setflags(write=False)
            payload = {"K": int(k), "pivots": list(fc.pivots), "panel": panel}
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
                _receive_column(payload, plan, abft, env.metrics)
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
) -> OneDResult:
    """Run the 1D parallel factorization of an ordered matrix ``A``.

    ``method`` is ``"rapid"`` (graph scheduling + consumer multicast) or
    ``"ca"`` (cyclic mapping, Fig. 10 order, broadcast).  ``sim_opts`` are
    forwarded to :class:`repro.machine.Simulator` (e.g. ``trace=True``,
    ``host_order=...``, ``faults=...`` or ``reliable=...``).

    Checkpoint/restart (:mod:`repro.parallel.resilience`) passes
    ``stage_range=(k0, k1)`` to execute only elimination stages in the
    window and ``start_from`` (a partially factored merged matrix) to
    resume from a checkpoint instead of the original ``A``.  ``monitor``
    is an optional :class:`repro.numfact.PivotMonitor` shared by all
    ranks for pivot-growth tracking and tiny-pivot perturbation.

    ``abft=True`` turns on algorithm-based fault tolerance: every rank's
    local blocks carry checksums through the kernels
    (:class:`repro.numfact.AbftLedger`), multicast column payloads carry a
    mirror checksum record, and receivers verify payloads at consumption —
    a delivered-but-corrupted message raises
    :class:`repro.numfact.SilentCorruptionError` instead of silently
    poisoning the factorization.
    """
    if tg is None:
        tg = task_graph_of(bstruct)
    schedule, owner, consumers = _mapping(tg, method, nprocs, spec)

    merged, locals_ = _distribute_1d(
        A, part, bstruct, owner, nprocs, full=start_from)
    if abft:
        for m in locals_:
            AbftLedger.attach(m)
    ctx = {
        "schedule": schedule,
        "owner": owner,
        "consumers": consumers,
        "locals": locals_,
        "pivot_threshold": pivot_threshold,
        "monitor": monitor,
        "abft": abft,
        "stage_range": (0, part.N) if stage_range is None else stage_range,
    }
    opts = dict(sim_opts or {})
    # zero-copy delivery by default: this module is Z-rule certified
    # (repro lint --certify); the simulator falls back to copying if the
    # certificate is stale/absent or sanitize mode is on
    opts.setdefault("zero_copy", True)
    sim = Simulator(nprocs, spec, _rank_program, args=(ctx,), **opts).run()

    # the ranks factored their columns of the shared arena in place: the
    # full matrix is the merged factor once it knows the pivot sequences
    for ret in sim.returns:
        if ret is None:  # rank crashed; its state is on the restart path
            continue
        for K, seq in enumerate(ret["pivot_seq"]):
            if seq is not None:
                merged.pivot_seq[K] = seq
    high = [ret["high_water"] if ret is not None else 0 for ret in sim.returns]
    return OneDResult(sim=sim, schedule=schedule, factor=merged, buffer_high_water=high)
