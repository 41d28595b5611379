"""The virtual-time charges of ``Factor(K)`` and ``Update(K, J)`` against
the counting kernels they replaced (``tests/reference_numfact.py``).

Every charge depends on the pattern, the schedule and the machine only, so
it is priced once per pattern (``NumericPlan``) and, for a 1D run, once per
schedule and stage window.  These properties hold the result to the frozen
kernels that tallied their own flops: the sequential tally (values and key
order, ``abft=True`` included) and, for both 1D codes, each rank's clock,
busy time, ``by_gran`` order and compute spans, with and without a stage
window.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.machine import T3E
from repro.matrices import random_nonsymmetric
from repro.numfact import SingularMatrixError, sstar_factor
from repro.obs import COMPUTE, Tracer
from repro.ordering import prepare_matrix
from repro.parallel import Grid2D, oned, run_1d, run_2d
from repro.parallel.resilience import _copy_state, launch
from repro.parallel.mapping import ColumnMapping
from repro.supernodes import build_block_structure, build_partition
from repro.symbolic import static_symbolic_factorization
from repro.taskgraph import task_graph_of

from .reference_numfact import (
    ReferenceCounter,
    reference_factor_block_column,
    reference_rank_program_1d,
    reference_rank_program_2d,
    reference_sequential_tally,
    reference_update_block_columns,
)

patterns = st.tuples(
    st.integers(8, 60),  # n
    st.integers(0, 10_000),  # seed
    st.sampled_from([0.05, 0.1, 0.2]),  # density
    st.integers(1, 4),  # block size
    st.sampled_from([0, 4]),  # amalgamation
)


def _pipeline(n, seed, density, block_size, amalgamation):
    om = prepare_matrix(random_nonsymmetric(n, density=density, seed=seed))
    sym = static_symbolic_factorization(om.A)
    part = build_partition(sym, max_size=block_size, amalgamation=amalgamation)
    return om.A, part, build_block_structure(sym, part)


def _tally(counter):
    return list(counter.by_gran.items()), list(counter.flops.items())


@given(patterns, st.booleans())
@settings(max_examples=30, deadline=None)
def test_sequential_tally_equals_the_counting_kernels(params, abft):
    A, part, bstruct = _pipeline(*params)
    try:
        want = reference_sequential_tally(A, part, bstruct, abft=abft)
    except SingularMatrixError:
        assume(False)
    got = sstar_factor(A, part=part, bstruct=bstruct, abft=abft).counter
    assert _tally(got) == _tally(want)


class _Log(ReferenceCounter):
    """Records every charge a reference kernel adds, in order."""

    def __init__(self):
        super().__init__()
        self.log = []

    def add(self, kernel, nflops, gran=None):
        self.log.append((kernel, gran, float(nflops)))
        super().add(kernel, nflops, gran)


@given(patterns)
@settings(max_examples=30, deadline=None)
def test_each_tasks_charges_are_the_kernels_adds_in_order(params):
    """``factor_charges(K)`` and ``update_charges(K, J)`` list exactly the
    ``add`` calls the counting kernels made for that task, zero-flop ones
    and their order included."""
    from repro.numfact import BlockLUMatrix

    A, part, bstruct = _pipeline(*params)
    m = BlockLUMatrix.from_csr(A, part, bstruct)
    plan = m.plan
    for K in range(part.N):
        c = _Log()
        try:
            fc = reference_factor_block_column(m, K, counter=c)
        except SingularMatrixError:
            assume(False)
        assert plan.factor_charges(K) == c.log
        for J in bstruct.u_block_cols(K):
            c = _Log()
            reference_update_block_columns(m, fc, (J,), counter=c)
            assert plan.update_charges(K, J) == c.log


def _reference_run(A, part, bstruct, nprocs, method, stage_range=None,
                   start_from=None, tracer=None):
    tg = task_graph_of(bstruct)
    schedule, owner, consumers = oned._mapping(tg, method, nprocs, T3E)
    ctx = {"schedule": schedule, "owner": owner, "consumers": consumers}
    return launch(reference_rank_program_1d, ctx, A, part, bstruct,
                  ColumnMapping(owner), nprocs, T3E,
                  sim_opts={"tracer": tracer} if tracer else None,
                  stage_range=stage_range, start_from=start_from,
                  pivot_threshold=1.0, monitor=None, abft=False)


def _observed(res, tracer=None):
    sim = res.sim
    out = {
        "clocks": sim.rank_clocks,
        "busy": sim.rank_busy,
        "tallies": [_tally(c) for c in sim.counters],
        "spans": [(s.track, s.name, s.start, s.end) for s in sim.spans],
    }
    if tracer is not None:
        out["compute"] = [(s.track, s.name, s.start, s.end, s.args)
                          for s in tracer.spans if s.cat == COMPUTE]
    return out


@given(patterns)
@settings(max_examples=8, deadline=None)
def test_1d_rank_charges_equal_the_counted_windows(params):
    A, part, bstruct = _pipeline(*params)
    N = part.N
    try:
        sstar_factor(A, part=part, bstruct=bstruct)
    except SingularMatrixError:
        assume(False)
    k0 = N // 3
    k1 = max(k0 + 1, (2 * N) // 3)
    for method in ("rapid", "ca"):
        for nprocs in (2, 3, 5):
            t_got, t_want = Tracer(), Tracer()
            got = run_1d(A, part, bstruct, nprocs, T3E, method=method,
                         sim_opts={"tracer": t_got})
            want = _reference_run(A, part, bstruct, nprocs, method,
                                  tracer=t_want)
            assert _observed(got, t_got) == _observed(want, t_want)
            # a stage window [k0, k1) resumed from a checkpoint of [0, k0)
            start = None
            if k0 > 0:
                start = run_1d(A, part, bstruct, nprocs, T3E, method=method,
                               stage_range=(0, k0)).factor
            got = run_1d(A, part, bstruct, nprocs, T3E, method=method,
                         stage_range=(k0, k1),
                         start_from=start and _copy_state(start))
            want = _reference_run(A, part, bstruct, nprocs, method,
                                  stage_range=(k0, k1),
                                  start_from=start and _copy_state(start))
            assert _observed(got) == _observed(want)


def _reference_run_2d(A, part, bstruct, grid, synchronous, abft,
                      stage_range=None, start_from=None, tracer=None):
    ctx = {"grid": grid, "synchronous": synchronous,
           "block_of": part.block_of.tolist()}
    return launch(reference_rank_program_2d, ctx, A, part, bstruct, grid,
                  grid.nprocs, T3E, sim_opts={"tracer": tracer},
                  stage_range=stage_range, start_from=start_from,
                  pivot_threshold=1.0, monitor=None, abft=abft)


def _observed_2d(res, tracer):
    out = _observed(res, tracer)
    out["messages"] = res.sim.messages
    out["bytes"] = res.sim.bytes_sent
    return out


@given(patterns, st.booleans())
@settings(max_examples=6, deadline=None)
def test_2d_rank_prices_equal_the_counted_charges(params, abft):
    """Each 2D rank's priced increments and its final counter equal what
    the frozen rank program's per-site ``Env.compute`` calls gave, whole
    run and a stage window resumed from a checkpoint alike."""
    A, part, bstruct = _pipeline(*params)
    N = part.N
    try:
        sstar_factor(A, part=part, bstruct=bstruct)
    except SingularMatrixError:
        assume(False)
    k0 = N // 3
    k1 = max(k0 + 1, (2 * N) // 3)
    for grid in (Grid2D(1, 2), Grid2D(2, 2), Grid2D(2, 3)):
        for synchronous in (False, True):
            runs = []
            for run in (run_2d, _reference_run_2d):
                t = Tracer()
                if run is run_2d:
                    res = run_2d(A, part, bstruct, grid.nprocs, T3E,
                                 synchronous=synchronous, grid=grid,
                                 sim_opts={"tracer": t}, abft=abft)
                else:
                    res = run(A, part, bstruct, grid, synchronous, abft,
                              tracer=t)
                runs.append(_observed_2d(res, t))
            assert runs[0] == runs[1]
            # a stage window [k0, k1) resumed from a checkpoint of [0, k0)
            start = None
            if k0 > 0:
                start = run_2d(A, part, bstruct, grid.nprocs, T3E,
                               synchronous=synchronous, grid=grid,
                               stage_range=(0, k0)).factor
            t_got, t_want = Tracer(), Tracer()
            got = run_2d(A, part, bstruct, grid.nprocs, T3E,
                         synchronous=synchronous, grid=grid,
                         sim_opts={"tracer": t_got}, stage_range=(k0, k1),
                         start_from=start and _copy_state(start), abft=abft)
            want = _reference_run_2d(A, part, bstruct, grid, synchronous,
                                     abft, stage_range=(k0, k1),
                                     start_from=start and _copy_state(start),
                                     tracer=t_want)
            assert _observed_2d(got, t_got) == _observed_2d(want, t_want)
