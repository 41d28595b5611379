"""The four workloads: inputs made from a seed, one round of public-API
calls, and the checks every output must pass.

A *round* is a fixed list of ops; its host wall-clock is the benchmark's
sample.  Round ``r`` of seed ``s`` always has the same inputs, whatever ran
before it, so two runs of one seed can be compared bit for bit.  The first
``WARMUP_ROUNDS`` rounds are untimed (they fill ``lru_cache``s, the
``_tg_cache``/``_sched_cache`` memos and scratch pools); exact quantities
(virtual seconds, counts, the results digest) are taken over the
``CHECK_ROUNDS`` rounds that follow, which every run executes however
short its ``--seconds``.

The sizes below are frozen: later issues cite these workloads by name.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass

import numpy as np

from repro.api import SStarSolver
from repro.matrices import generators
from repro.service import AnalysisCache, ServiceOverloadError, SolveService
from repro.sparse import csr_matvec

WARMUP_ROUNDS = 2
CHECK_ROUNDS = 3
#: an op whose backward error exceeds this is a failed op
ERROR_BOUND = 1e-10
NPROCS = 16
MACHINE = "T3E"


class _NullLog:
    """Stands in for a ``SpanLog`` on untraced runs: records nothing."""

    _ctx = contextlib.nullcontext()

    def span(self, name, layer, op=None):
        return self._ctx


NULL_LOG = _NullLog()


@dataclass
class Op:
    """One system ``A x = b`` handed to the public API."""

    id: str
    A: object  # CSRMatrix
    b: np.ndarray
    method: str = None  # parallel method of a sim op


@dataclass
class Outcome:
    """What one op returned: a solution, or the error that failed it."""

    x: np.ndarray = None
    solver: SStarSolver = None  # None for service jobs
    error: str = None


def build(spec):
    """``("generator", kwargs)`` -> ``CSRMatrix``."""
    name, kwargs = spec
    return getattr(generators, name)(**kwargs)


def perturbed(A, rng):
    """Same pattern, every value moved by up to +-5 %."""
    return A.with_values(A.data * (1.0 + rng.uniform(-0.05, 0.05, A.nnz)))


def backward_error(A, x, b) -> float:
    """``|Ax-b|_inf / (|A|_inf |x|_inf + |b|_inf)`` on the caller's own,
    unpermuted ``A`` and ``b``."""
    r = csr_matvec(A, x) - b
    rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
    anorm = np.bincount(rows, weights=np.abs(A.data), minlength=A.nrows).max()
    return float(
        np.abs(r).max() / (anorm * np.abs(x).max() + np.abs(b).max())
    )


class Workload:
    """Set-up happens in ``__init__``; ``make_round`` is untimed input
    generation; ``run_round`` is the timed end-to-end call."""

    name = None
    ops_per_round = 0
    #: generator calls behind the inputs, for the run metadata
    inputs = ()
    #: parallel methods each matrix of a round is factored with
    methods = ()

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, r: int):
        return np.random.default_rng([self.seed, r])

    def make_round(self, r: int) -> list:
        raise NotImplementedError

    def run_op(self, op: Op) -> Outcome:
        raise NotImplementedError

    def units(self, ops) -> list:
        """The round split into the smallest pieces that can be timed from
        outside: one op each, unless one public call serves several."""
        return [[op] for op in ops]

    def run_round(self, ops, log=NULL_LOG) -> list:
        return [self.run_op(op) for op in ops]

    def after_warmup(self) -> None:
        """Called once between the warm-up and the first timed round."""

    def virtual_seconds(self, outcomes) -> float:
        """Simulated seconds the round just run was charged."""
        return 0.0

    def _solve(self, op: Op, solver: SStarSolver, reuse: bool) -> Outcome:
        # the boundary that must keep running: a failed op is counted and
        # named by the caller, it does not end the run
        try:
            (solver.refactor if reuse else solver.factor)(op.A)
            return Outcome(x=solver.solve(op.b), solver=solver)
        except Exception as e:  # noqa: BLE001
            return Outcome(error=f"{type(e).__name__}: {e}")


class ColdSolve(Workload):
    """Two never-seen patterns per round: the analysis cache is written
    (put + LRU eviction) and never hit."""

    name = "cold_solve"
    ops_per_round = 2
    inputs = (
        ("fem_unstructured",
         dict(n=600, avg_degree=12, nonsym=0.4, seed="seed*1000+round")),
        ("circuit_like", dict(n=450, seed="seed*1000+round")),
    )

    def __init__(self, seed):
        super().__init__(seed)
        self.cache = AnalysisCache(max_entries=8)

    def make_round(self, r):
        s = self.seed * 1000 + r
        rng = self.rng(r)
        ops = []
        for gen, kwargs in self.inputs:
            A = build((gen, dict(kwargs, seed=s)))
            ops.append(Op(f"r{r}.{gen}", A, rng.standard_normal(A.nrows)))
        return ops

    def run_op(self, op):
        return self._solve(op, SStarSolver(analysis_cache=self.cache), reuse=False)


class _Primed(Workload):
    """Fixed patterns analysed once in set-up; every round draws fresh
    values for them, so the cache is only ever read."""

    patterns = ()

    def __init__(self, seed):
        super().__init__(seed)
        self.inputs = self.patterns
        self.matrices = [build(spec) for spec in self.patterns]
        self.cache = AnalysisCache()
        for A in self.matrices:
            SStarSolver(analysis_cache=self.cache).factor(A)


class ServiceWarm(_Primed):
    """12 jobs -> 4 batches of 3 right-hand sides through ``SolveService``."""

    name = "service_warm"
    ops_per_round = 12
    rhs_per_pattern = 3
    patterns = (
        ("stencil_3d", dict(nx=8, ny=8, nz=5, ndof=3)),
        ("fem_unstructured", dict(n=1400, avg_degree=12, nonsym=0.4)),
        ("circuit_like", dict(n=991)),
        ("fem_unstructured", dict(n=1800, avg_degree=14, nonsym=0.25)),
    )

    def __init__(self, seed):
        super().__init__(seed)
        self.after_warmup()  # the warm-up rounds need a service too

    def after_warmup(self):
        # the timed rounds get a service instance the warm-up never touched
        self.service = SolveService(
            workers=2, max_queue=16, max_batch=8, cache=self.cache
        )
        self._makespan = 0.0

    def make_round(self, r):
        rng = self.rng(r)
        ops = []
        for p, A0 in enumerate(self.matrices):
            A = perturbed(A0, rng)
            for k in range(self.rhs_per_pattern):
                ops.append(Op(f"r{r}.p{p}.rhs{k}", A, rng.standard_normal(A.nrows)))
        return ops

    def units(self, ops):
        return [ops]  # drain() serves all twelve jobs

    def run_round(self, ops, log=NULL_LOG):
        svc = self.service
        ids = []
        for op in ops:
            with log.span("service.submit", "service"):
                try:
                    ids.append(svc.submit(op.A, op.b))
                except ServiceOverloadError as e:
                    ids.append(e)
        with log.span("service.drain", "service"):
            svc.drain()
        outcomes = []
        for jid in ids:
            if isinstance(jid, ServiceOverloadError):
                outcomes.append(Outcome(error=f"ServiceOverloadError: {jid}"))
                continue
            job = svc.job(jid)
            if job.status == "done":
                outcomes.append(Outcome(x=job.x))
            else:
                outcomes.append(Outcome(error=f"job {job.status}: {job.error!r}"))
        return outcomes

    def virtual_seconds(self, outcomes):
        makespan = self.service.metrics().makespan
        delta, self._makespan = makespan - self._makespan, makespan
        return delta


class Sim(_Primed):
    """Refactor + solve on the simulated 16-node T3E, two methods per
    pattern."""

    def make_round(self, r):
        rng = self.rng(r)
        ops = []
        for p, A0 in enumerate(self.matrices):
            A = perturbed(A0, rng)
            b = rng.standard_normal(A.nrows)
            for m in self.methods:
                ops.append(Op(f"r{r}.p{p}.{m}", A, b, method=m))
        return ops

    def run_op(self, op):
        solver = SStarSolver(
            nprocs=NPROCS, machine=MACHINE, method=op.method,
            analysis_cache=self.cache,
        )
        return self._solve(op, solver, reuse=True)

    def virtual_seconds(self, outcomes):
        return sum(o.solver.report.parallel_seconds for o in outcomes if o.solver)


class Sim1D(Sim):
    name = "sim_1d"
    ops_per_round = 4
    methods = ("1d-rapid", "1d-ca")
    patterns = (
        ("stencil_3d", dict(nx=8, ny=8, nz=5, ndof=3)),
        ("fem_unstructured", dict(n=1400, avg_degree=12, nonsym=0.4)),
    )


class Sim2D(Sim):
    name = "sim_2d"
    ops_per_round = 4
    methods = ("2d", "2d-sync")
    patterns = (
        ("stencil_3d", dict(nx=6, ny=6, nz=5, ndof=3)),
        ("fem_unstructured", dict(n=800, avg_degree=12, nonsym=0.4)),
    )


WORKLOADS = {w.name: w for w in (ColdSolve, ServiceWarm, Sim1D, Sim2D)}


class Tally:
    """Output checks accumulated over an episode's rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []  # named, for the exit message
        self.backward_error_max = 0.0
        self.virtual_s = 0.0
        self._digest = hashlib.blake2b(digest_size=16)

    def fail(self, what: str, counts_as_op: bool = False) -> None:
        self.failures.append(what)
        self.failed += counts_as_op

    def add_round(self, wl: Workload, ops, outcomes, exact: bool) -> None:
        """Check every op of a round; ``exact`` rounds also feed the
        digest and ``virtual_s``."""
        for op, out in zip(ops, outcomes):
            self.attempted += 1
            if out.error is not None:
                self.fail(f"{op.id}: {out.error}", counts_as_op=True)
                continue
            if not np.all(np.isfinite(out.x)):
                self.fail(f"{op.id}: non-finite solution", counts_as_op=True)
                continue
            berr = backward_error(op.A, out.x, op.b)
            self.backward_error_max = max(self.backward_error_max, berr)
            if berr > ERROR_BOUND:
                self.fail(f"{op.id}: backward error {berr:.3g} > {ERROR_BOUND:g}",
                          counts_as_op=True)
            if exact:
                self._digest.update(out.x.tobytes())
                if out.solver is not None:
                    rep = out.solver.report
                    self._digest.update(repr(
                        (out.solver.factorization.pivot_rows(),
                         rep.parallel_seconds, rep.messages)
                    ).encode())
        if exact:
            v = wl.virtual_seconds(outcomes)
            self.virtual_s += v
            self._digest.update(repr(v).encode())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()
