"""Traced rounds: every op runs once through the public end-to-end call
and once *staged* — the benchmark calls the layers' public functions in
pipeline order on the same input, each under a span.

The staged replay mirrors what ``SStarSolver`` / ``SolveService`` do
internally (same functions, same arguments, same order), so its solution
must be bit-equal to the end-to-end one and its spans must sum to the
end-to-end time (``layers.coverage``).  Everything here is measured from
outside ``src/repro``; nothing in the program is instrumented.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from repro.api import SStarSolver
from repro.machine import T3E, Simulator
from repro.numfact import LUFactorization, PivotMonitor, matrix_maxnorm, sstar_factor
from repro.obs import to_chrome_trace
from repro.ordering import OrderedMatrix, maximum_transversal, minimum_degree
from repro.parallel import run_1d, run_1d_trisolve, run_2d, run_2d_trisolve
from repro.scheduling import compute_ahead_schedule, graph_schedule
from repro.service import AnalysisArtifacts, pattern_key, values_key
from repro.sparse import ata_pattern
from repro.supernodes import build_block_structure, build_partition
from repro.symbolic import static_symbolic_factorization
from repro.taskgraph import build_task_graph

from spans import BENCH, END, LAYER, NAME, PARENT, START
from workloads import ERROR_BOUND, MACHINE, NPROCS, backward_error

# SStarSolver's defaults; they are part of the analysis-cache key
BLOCK_SIZE = 25
AMALGAMATION = 4

#: counters that are running totals of the service, not per-round amounts
SNAPSHOTS = ("service.latency_p50_virtual_s", "service.latency_p95_virtual_s")


class Counts(dict):
    """Additive counters; a missing key reads 0."""

    def __missing__(self, key):
        return 0


RUN_SPAN = {
    "1d-rapid": "parallel.run_1d_rapid",
    "1d-ca": "parallel.run_1d_ca",
    "2d": "parallel.run_2d_async",
    "2d-sync": "parallel.run_2d_sync",
}


# -- staged pipeline pieces ------------------------------------------------


def _analyze(log, A):
    """``repro.service.analyze`` (= ``prepare_matrix`` + symbolic +
    partition + block structure), one span per layer call."""
    trans, _ = log.call("ordering.transversal", "ordering", maximum_transversal, A)
    At = log.call("sparse.permute", "sparse", A.permute, row_perm=trans)
    G = log.call("sparse.ata_pattern", "sparse", ata_pattern, At)
    order = log.call("ordering.mindeg", "ordering", minimum_degree, G).perm
    Ap = log.call("sparse.permute", "sparse", At.permute,
                  row_perm=order, col_perm=order)
    om = OrderedMatrix(Ap, trans[order], order.copy())
    sym = log.call("symbolic.george_ng", "symbolic",
                   static_symbolic_factorization, om.A)
    part = log.call("supernodes.partition", "supernodes", build_partition,
                    sym, max_size=BLOCK_SIZE, amalgamation=AMALGAMATION)
    bstruct = log.call("supernodes.block_structure", "supernodes",
                       build_block_structure, sym, part)
    key = log.call("service.pattern_key", "service", pattern_key, A)
    art = log.call(
        "service.artifacts_build", "service", AnalysisArtifacts,
        key=key, row_perm=om.row_perm, col_perm=om.col_perm,
        sym=sym, part=part, bstruct=bstruct,
    )
    return art, om


def _lookup(log, cache, A):
    """The warm path of ``SStarSolver.refactor``: key, cache read, re-order."""
    key = log.call("service.pattern_key", "service", pattern_key, A)
    cache_key = (key, BLOCK_SIZE, AMALGAMATION)
    art = log.call("service.cache_get", "service", cache.get, cache_key)
    with log.span("service.order", "service"):
        Ap = log.call("sparse.permute", "sparse", A.permute,
                      row_perm=art.row_perm, col_perm=art.col_perm)
        om = OrderedMatrix(Ap, art.row_perm, art.col_perm)
    return cache_key, art, om


def _factor(log, om, art, c):
    """The sequential numeric sweep, as ``SStarSolver`` calls it."""
    with log.span("numfact.factor", "numfact"):
        monitor = PivotMonitor(matrix_maxnorm(om.A), perturb=False)
        lu = sstar_factor(om.A, sym=art.sym, part=art.part,
                          bstruct=art.bstruct, monitor=monitor)
    c["numfact.seq_flops"] += lu.counter.total
    return lu


def _solve(log, name, lu, om, b):
    with log.span(name, "numfact"):
        z = lu.solve(b[om.row_perm])
        x = np.empty_like(z)
        x[om.col_perm] = z
    return x


def _factor_parallel(log, op, om, art):
    with log.span(RUN_SPAN[op.method], "parallel"):
        monitor = PivotMonitor(matrix_maxnorm(om.A), perturb=False)
        if op.method.startswith("1d"):
            res = run_1d(om.A, art.part, art.bstruct, NPROCS, T3E,
                         method=op.method.split("-")[1], sim_opts={},
                         monitor=monitor)
        else:
            res = run_2d(om.A, art.part, art.bstruct, NPROCS, T3E,
                         synchronous=op.method.endswith("sync"), sim_opts={},
                         monitor=monitor)
    lu = LUFactorization(res.factor, art.sym, art.part, art.bstruct,
                         res.sim.total_counter())
    return res, lu


# -- one traced unit per workload kind ---------------------------------------


def _count_factor(c, art, lu):
    c["symbolic.factor_entries"] += art.sym.factor_entries
    c["supernodes.blocks"] += art.part.N
    c["numfact.flops"] += lu.counter.total
    c["numfact.dgemm_flops"] += lu.counter.fraction("dgemm") * lu.counter.total


def _staged_cold(wl, op, log, c):
    key = log.call("service.pattern_key", "service", pattern_key, op.A)
    art, om = _analyze(log, op.A)
    lu = _factor(log, om, art, c)
    log.call("service.cache_put", "service", wl.cache.put,
             (key, BLOCK_SIZE, AMALGAMATION), art)
    _count_factor(c, art, lu)
    return _solve(log, "numfact.solve", lu, om, op.b), lu.pivot_rows()


def _staged_batch(wl, ops, log, c, last: bool):
    """What one ``SolveService.step`` does for a batch of same-matrix jobs:
    hash to find the batch, refactor once, one block solve."""
    A = ops[0].A
    # _take_batch hashes the head, every follower, and the first job of the
    # next batch (the one that ends this one)
    for _ in range(len(ops) + (0 if last else 1)):
        log.call("service.values_key", "service", values_key, A)
    cache_key, art, om = _lookup(log, wl.cache, A)
    lu = _factor(log, om, art, c)
    log.call("service.cache_put", "service", wl.cache.put, cache_key, art)
    _count_factor(c, art, lu)
    B = np.column_stack([op.b for op in ops])
    return _solve(log, "numfact.solve_block", lu, om, B)


def _staged_sim(wl, op, log, c):
    cache_key, art, om = _lookup(log, wl.cache, op.A)
    res, lu = _factor_parallel(log, op, om, art)
    log.call("service.cache_put", "service", wl.cache.put, cache_key, art)
    _count_factor(c, art, lu)
    x = _solve(log, "numfact.solve", lu, om, op.b)
    return x, lu.pivot_rows(), res, lu, om, art


def _extras_sim(wl, op, log, c, tally, res, lu, om, art):
    """Layer calls a sim op does *not* pay for (memoised, or not wired into
    ``SStarSolver``), run once per matrix per round to see what they cost."""
    oned = op.method.startswith("1d")
    if oned:
        tg = log.call("taskgraph.build", "taskgraph", build_task_graph, art.bstruct)
        c["taskgraph.tasks"] += len(tg.tasks)
        log.call("scheduling.graph_schedule", "scheduling",
                 graph_schedule, tg, NPROCS, T3E)
        log.call("scheduling.compute_ahead", "scheduling",
                 compute_ahead_schedule, tg, NPROCS, T3E)
    # the sequential sweep on the same ordered matrix: the numerics a rank
    # program cannot avoid, i.e. the base of parallel.host_overhead_ratio_*
    _factor(log, om, art, c)
    bp = op.b[om.row_perm]
    if oned:
        ts = log.call("parallel.trisolve_1d", "parallel", run_1d_trisolve,
                      lu, res.schedule.owner, bp, NPROCS, T3E)
    else:
        ts = log.call("parallel.trisolve_2d", "parallel", run_2d_trisolve,
                      lu, bp, NPROCS, T3E)
    x = np.empty_like(ts.x)
    x[om.col_perm] = ts.x
    berr = backward_error(op.A, x, op.b)
    tally.backward_error_max = max(tally.backward_error_max, berr)
    if not berr <= ERROR_BOUND:
        tally.fail(f"{op.id}: distributed trisolve backward error {berr:.3g}")


def _extras_obs(wl, op, untraced_s, log, c):
    """The same op with ``repro.obs`` tracing on, against the end-to-end
    call just timed without (``obs.tracer_overhead_ratio``)."""
    with log.span("obs.traced_op", "obs"):
        solver = SStarSolver(nprocs=NPROCS, machine=MACHINE, method=op.method,
                             analysis_cache=wl.cache, trace=True).refactor(op.A)
        solver.solve(op.b)
    log.call("obs.export", "obs", to_chrome_trace, solver.tracer)
    c["obs.spans"] += len(solver.tracer.spans)
    c["obs.untraced_op_s"] += untraced_s


def _count_sim(c, sim):
    c["machine.messages"] += sim.messages
    c["machine.bytes"] += sim.bytes_sent
    c["machine.busy_s"] += sum(sim.rank_busy)
    c["machine.rank_s"] += len(sim.rank_busy) * sim.total_time
    c["parallel.load_balance_sum"] += sim.load_balance_factor()
    c["parallel.runs"] += 1


@contextlib.contextmanager
def _cache_reads(cache, c):
    """Count the analysis-cache lookups and hits of the body."""
    s = cache.stats
    hits, misses = s.hits, s.misses
    yield
    s = cache.stats
    c["service.cache_hits"] += s.hits - hits
    c["service.cache_lookups"] += s.hits - hits + s.misses - misses


def _same(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a, b)


def traced_round(wl, r, ops, log, tally, exact: bool):
    """Run one round traced; returns ``(times, counts)`` of this round,
    keyed by span / counter name (additive, but for ``SNAPSHOTS``)."""
    c = Counts()
    first = len(log.rows)
    with log.span(f"round{r}", BENCH):
        if wl.name == "service_warm":
            outcomes = _traced_service(wl, r, ops, log, tally, c)
        else:
            outcomes = _traced_ops(wl, ops, log, tally, c)
    tally.add_round(wl, ops, outcomes, exact)
    return _round_times(log, first), c


def _traced_ops(wl, ops, log, tally, c):
    outcomes = []
    extras_done = set()  # matrices whose off-path layer calls ran this round
    for (op,) in wl.units(ops):
        with log.span(op.id, BENCH, op=op.id):
            with _cache_reads(wl.cache, c), log.span("e2e", BENCH) as e2e:
                out = wl.run_op(op)
            outcomes.append(out)
            if out.error is not None:
                continue  # the tally names it; there is nothing to stage against
            with log.span("staged", BENCH):
                if wl.name == "cold_solve":
                    x, pivots = _staged_cold(wl, op, log, c)
                else:
                    x, pivots, res, lu, om, art = _staged_sim(wl, op, log, c)
            if not (_same(x, out.x)
                    and pivots == out.solver.factorization.pivot_rows()):
                tally.fail(f"{op.id}: staged solution differs from end-to-end")
            if wl.name == "cold_solve":
                continue
            sim = out.solver.sim_result
            if (sim.total_time, sim.messages) != (res.sim.total_time, res.sim.messages):
                tally.fail(f"{op.id}: staged virtual time differs from end-to-end")
            _count_sim(c, sim)
            if id(op.A) not in extras_done:
                extras_done.add(id(op.A))
                with log.span("extra", BENCH):
                    _extras_sim(wl, op, log, c, tally, res, lu, om, art)
                    if op is ops[0] and op.method == "2d":
                        _extras_obs(wl, op, e2e[END] - e2e[START], log, c)
    return outcomes


def _traced_service(wl, r, ops, log, tally, c):
    """The traced unit is the whole round: ``drain`` serves all 12 jobs."""
    uid = f"r{r}.jobs"
    k = wl.rhs_per_pattern
    batches = [ops[i:i + k] for i in range(0, len(ops), k)]
    before = wl.service.metrics()
    with log.span(uid, BENCH, op=uid):
        with _cache_reads(wl.cache, c), log.span("e2e", BENCH):
            outcomes = wl.run_round(ops, log)
        after = wl.service.metrics()
        with log.span("staged", BENCH):
            blocks = [
                _staged_batch(wl, batch, log, c, last=batch is batches[-1])
                for batch in batches
            ]
    for i, (op, out) in enumerate(zip(ops, outcomes)):
        if out.error is None and not _same(blocks[i // k][:, i % k], out.x):
            tally.fail(f"{op.id}: staged solution differs from end-to-end")
    c["service.jobs"] += after.jobs_completed - before.jobs_completed
    c["service.batches"] += after.batches - before.batches
    c["service.retries"] += after.retries - before.retries
    c["service.rejected"] += after.jobs_rejected - before.jobs_rejected
    c["service.latency_p50_virtual_s"] = after.latency_p50
    c["service.latency_p95_virtual_s"] = after.latency_p95
    return outcomes


def _round_times(log, first: int) -> Counts:
    """Additive host seconds of the rows from ``first`` on: one entry per
    layer-span name, the staged spans' self times by layer (``self.<layer>``)
    and the section totals the derived metrics need."""
    sections = log.sections()
    selfs = log.self_times(first)
    t = Counts()
    for idx in range(first, len(log.rows)):
        row = log.rows[idx]
        dur = row[END] - row[START]
        if row[LAYER] == BENCH:
            if row[NAME] == "e2e":
                t["bench.e2e"] += dur
            continue
        t[row[NAME]] += dur
        if sections[idx] == "staged":
            t[f"self.{row[LAYER]}"] += selfs[idx]
            if log.rows[row[PARENT]][LAYER] == BENCH:
                t["bench.staged_layers"] += dur
    return t


# -- numerics-free simulator micro-loads -------------------------------------


def _pingpong(env, n):
    other = 1 - env.rank
    for i in range(n):
        if env.rank == 0:
            env.send(other, ("ping", i), i, nbytes=8)
            yield env.recv(("pong", i))
        else:
            yield env.recv(("ping", i))
            env.send(other, ("pong", i), i, nbytes=8)


def _multicast(env, n):
    everyone = range(env.nprocs)
    for i in range(n):
        if env.rank == i % env.nprocs:
            env.multicast(everyone, ("m", i), i, nbytes=8)
        else:
            yield env.recv(("m", i))


def _barriers(env, n):
    for _ in range(n):
        yield env.barrier()


def _computes(env, n):
    for _ in range(n):
        env.compute("dgemm", 1000.0)


#: name -> (ranks, rank program, iterations, events counted per run)
MICROLOADS = {
    "machine.pingpong_host_us_per_msg":
        (2, _pingpong, 20000, lambda sim, n: sim.messages),
    "machine.multicast_host_us_per_msg":
        (NPROCS, _multicast, 2000, lambda sim, n: sim.messages),
    "machine.barrier_host_us": (NPROCS, _barriers, 2000, lambda sim, n: n),
    "machine.compute_host_us_per_call": (1, _computes, 100000, lambda sim, n: n),
}


def _micro(nprocs, program, n, events) -> float:
    """Median host microseconds per event over three runs."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        sim = Simulator(nprocs, T3E, program, args=(n,)).run()
        samples.append((time.perf_counter() - t0) / events(sim, n) * 1e6)
    return sorted(samples)[1]


def machine_microloads(run: bool) -> dict:
    """Host cost of the simulator's own operations, with no numerics in the
    rank programs: what ``Env.send/recv/multicast/barrier/compute`` cost.
    Workloads that never enter the simulator report 0 (``run=False``)."""
    return {
        name: _micro(*spec) if run else 0.0 for name, spec in MICROLOADS.items()
    }
