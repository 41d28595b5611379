"""``SolveService`` — a deterministic job-queue front end over the solver.

The serving layer the ROADMAP asks for: clients ``submit`` linear systems
(same- or mixed-pattern), a pool of virtual workers multiplexes the jobs,
and the structure cache turns repeated same-pattern factorizations into
numeric-only refactorizations.  Everything is deterministic: the *real*
numerics run synchronously during ``step``/``drain`` in submission order,
while latency/throughput accounting advances per-worker **virtual clocks**
priced by the machine spec — the same discrete-event philosophy as
:mod:`repro.machine.simulator`, so the same job set always yields the same
results and the same metrics snapshot.

Mechanics:

* **admission control** — the queue is bounded; ``submit`` beyond
  ``max_queue`` raises :class:`ServiceOverloadError` (shed load at the
  door, never deadlock behind it);
* **multi-RHS batching** — adjacent queued jobs with identical matrices
  and compatible options are coalesced into one ``(n, k)`` block solve, so
  one factorization and one triangular sweep serve many requests;
* **structure caching** — every factorization goes through
  :meth:`repro.api.SStarSolver.refactor` against the shared
  :class:`AnalysisCache`, skipping the analyze phase for known patterns;
* **retry** — a job whose simulated transport gives up
  (:class:`repro.machine.DeliveryError`, from the PR-2 resilience layer)
  is retried on a clean network up to ``max_retries`` times before being
  marked failed; a job whose *values* are at fault
  (:class:`repro.numfact.SingularMatrixError`,
  :class:`repro.numfact.NumericalError`) is marked failed at once;
* **metrics** — a :class:`MetricsSnapshot` reports cache hit rate, queue
  depth, p50/p95 latency and throughput in virtual seconds.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..machine import DeliveryError, MachineSpec
from ..numfact import NumericalError, SilentCorruptionError, SingularMatrixError
from ..obs import BATCH, JOB, QUEUE, MetricsRegistry, as_tracer
from ..sparse import rhs_array
from .cache import AnalysisCache, values_key

#: modeled cost of the analyze phase per structural entry (transversal +
#: min-degree + symbolic + partition are pointer-chasing integer work, far
#: slower per entry than the BLAS-3 numeric sweep)
ANALYZE_SECONDS_PER_ENTRY = 120e-9

PENDING = "pending"
DONE = "done"
FAILED = "failed"


class ServiceOverloadError(RuntimeError):
    """Admission control rejected a submit: the bounded queue is full.

    Structured attributes: ``queue_depth`` (jobs already waiting) and
    ``max_queue`` (the configured bound).
    """

    def __init__(self, message, queue_depth=0, max_queue=0):
        super().__init__(message)
        self.queue_depth = queue_depth
        self.max_queue = max_queue


@dataclass
class SolveJob:
    """One submitted system ``A x = b`` and its lifecycle state."""

    job_id: int
    A: object  # CSRMatrix
    b: np.ndarray
    opts_key: tuple
    arrival: float
    status: str = PENDING
    x: Optional[np.ndarray] = None
    error: Optional[Exception] = None
    attempts: int = 0
    start: Optional[float] = None
    finish: Optional[float] = None
    cache_hit: Optional[bool] = None
    batch_size: int = 1  # jobs coalesced into the solve that served this one
    _opts: dict = field(default=None, repr=False)

    @property
    def latency(self) -> Optional[float]:
        return None if self.finish is None else self.finish - self.arrival

    @property
    def ncols(self) -> int:
        return 1 if self.b.ndim == 1 else self.b.shape[1]


@dataclass
class MetricsSnapshot:
    """Point-in-time service statistics (virtual-time units)."""

    jobs_submitted: int
    jobs_completed: int
    jobs_failed: int
    jobs_rejected: int
    batches: int
    batched_jobs: int
    retries: int
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    queue_depth: int
    max_queue_depth: int
    latency_p50: float
    latency_p95: float
    makespan: float
    throughput_jobs_per_s: float

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class SolveService:
    """Deterministic solve service: submit / poll / result / drain.

    Parameters
    ----------
    workers:
        Virtual worker lanes; jobs are assigned FIFO to the earliest-free
        lane (ties to the lowest id), which models pool parallelism in the
        latency metrics while the numerics stay deterministic.
    max_queue:
        Bounded-queue admission limit; exceeding it raises
        :class:`ServiceOverloadError` at ``submit`` time.
    max_batch:
        Most right-hand-side columns one coalesced block solve may carry.
    max_retries:
        Clean-network retries after a :class:`DeliveryError` failure.
    inter_arrival:
        Virtual seconds between successive submissions (workload shaping
        for the latency metrics; 0 = all jobs arrive at once).
    solver_opts:
        Keyword arguments forwarded to every :class:`SStarSolver` (e.g.
        ``method``, ``nprocs``, ``machine``, ``faults``, ``reliable``).
        With ``"tune": True`` (:mod:`repro.tune`) every factorization
        resolves a pattern-keyed :class:`TuningPlan` from one shared
        ``plan_cache`` (the service creates it unless ``solver_opts``
        names one), running the model-guided search only on the *first*
        job of each new pattern — repeated-pattern traffic is served with
        zero additional tuning probes (the ``tune.probes`` counter and the
        plan cache's hit statistics make that assertable).  The service's
        metrics registry is injected into ``tune_opts`` so all ``tune.*``
        counters land in :meth:`metrics`' registry.
    cache:
        Shared :class:`AnalysisCache` (one is created if not given).
    tracer:
        Observability: ``True`` or a :class:`repro.obs.Tracer` records the
        job lifecycle as spans — ``queued`` on ``svc/job<N>`` from arrival
        to dispatch, ``solve`` from dispatch to finish (annotated with
        cache hit/miss, batch size and status), and one ``batch`` span per
        coalesced block solve on the worker lane's ``svc/w<N>`` track.
    metrics:
        A :class:`repro.obs.MetricsRegistry` backing all service counters
        (one is created — shared with ``tracer`` if given).  All
        :class:`MetricsSnapshot` fields derive from it.
    """

    def __init__(
        self,
        workers: int = 2,
        max_queue: int = 16,
        max_batch: int = 8,
        max_retries: int = 1,
        inter_arrival: float = 0.0,
        solver_opts: dict = None,
        cache: AnalysisCache = None,
        tracer=None,
        metrics: MetricsRegistry = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not (math.isfinite(inter_arrival) and inter_arrival >= 0):
            raise ValueError("inter_arrival must be finite and >= 0")
        self.workers = workers
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.max_retries = max_retries
        self.inter_arrival = inter_arrival
        self.solver_opts = dict(solver_opts or {})
        self.cache = cache if cache is not None else AnalysisCache()
        self.tracer = as_tracer(tracer)
        if metrics is not None:
            self.metrics_registry = metrics
        elif self.tracer is not None:
            self.metrics_registry = self.tracer.metrics
        else:
            self.metrics_registry = MetricsRegistry()
        if self.cache.metrics is None:
            self.cache.metrics = self.metrics_registry
        if self.solver_opts.get("tune"):
            from ..tune import PlanCache

            if self.solver_opts.get("plan_cache") is None:
                self.solver_opts["plan_cache"] = PlanCache()
            if self.solver_opts["plan_cache"].metrics is None:
                self.solver_opts["plan_cache"].metrics = self.metrics_registry
            # every tune.* counter (searches, probes, pruned) lands in the
            # service's registry so metrics() sees the whole story
            self.solver_opts["tune_opts"] = {
                "metrics": self.metrics_registry,
                **(self.solver_opts.get("tune_opts") or {})}
        self._queue: deque = deque()
        self._jobs: dict = {}
        self._worker_clock = [0.0] * workers
        self._next_id = 0
        self._first_arrival: Optional[float] = None
        self._last_finish = 0.0

    def _counter(self, name: str):
        return self.metrics_registry.counter(f"service.{name}")

    # -- client API ----------------------------------------------------

    def submit(self, A, b, solver_opts: dict = None) -> int:
        """Enqueue ``A x = b``; returns the job id.

        ``b`` may be ``(n,)`` or ``(n, k)``.  ``solver_opts`` override the
        service-level solver options for this job only.  Raises
        :class:`ServiceOverloadError` when the bounded queue is full.
        """
        if len(self._queue) >= self.max_queue:
            self._counter("jobs.rejected").inc()
            raise ServiceOverloadError(
                f"queue full: {len(self._queue)} waiting jobs "
                f"(max_queue={self.max_queue}); drain before submitting more",
                queue_depth=len(self._queue),
                max_queue=self.max_queue,
            )
        b = rhs_array(b, A.nrows)
        opts = dict(self.solver_opts)
        opts.update(solver_opts or {})
        opts_key = tuple(sorted((k, repr(v)) for k, v in opts.items()))
        submitted = self._counter("jobs.submitted")
        job = SolveJob(
            job_id=self._next_id,
            A=A,
            b=b,
            opts_key=opts_key,
            arrival=submitted.value * self.inter_arrival,
            _opts=opts,
        )
        self._next_id += 1
        submitted.inc()
        if self._first_arrival is None:
            self._first_arrival = job.arrival
        self._jobs[job.job_id] = job
        self._queue.append(job)
        depth = self.metrics_registry.gauge("service.queue.depth")
        depth.set(len(self._queue))
        self.metrics_registry.gauge("service.queue.max_depth").track_max(
            len(self._queue))
        return job.job_id

    def poll(self, job_id: int) -> str:
        """Non-blocking status query: ``pending`` / ``done`` / ``failed``."""
        return self._jobs[job_id].status

    def result(self, job_id: int) -> np.ndarray:
        """Return the solution for ``job_id``, processing queued work as
        needed (jobs complete in submission order).  Raises the job's
        recorded error if it ultimately failed."""
        job = self._jobs[job_id]
        while job.status == PENDING:
            self.step()
        if job.status == FAILED:
            raise job.error
        return job.x

    def job(self, job_id: int) -> SolveJob:
        return self._jobs[job_id]

    def drain(self) -> list:
        """Process every queued job; returns the drained :class:`SolveJob`
        records in completion order."""
        done = []
        while self._queue:
            done.extend(self.step())
        return done

    # -- execution -----------------------------------------------------

    def _take_batch(self) -> list:
        """Pop the head job plus any adjacent coalescable followers:
        identical matrix values, identical solver options, within the
        ``max_batch`` column budget."""
        head = self._queue.popleft()
        batch = [head]
        cols = head.ncols
        head_vk = values_key(head.A)
        while self._queue:
            nxt = self._queue[0]
            if (
                nxt.opts_key != head.opts_key
                or cols + nxt.ncols > self.max_batch
                or values_key(nxt.A) != head_vk
            ):
                break
            batch.append(self._queue.popleft())
            cols += nxt.ncols
        return batch

    def _run_solver(self, A, opts, strip_faults: bool):
        from ..api.solver import SStarSolver

        if strip_faults:
            opts = dict(opts)
            opts.pop("faults", None)
        solver = SStarSolver(analysis_cache=self.cache, **opts)
        return solver.refactor(A)

    def _modeled_seconds(self, solver, nrhs: int) -> float:
        """Virtual service time of one factor+solve on a worker lane."""
        rep = solver.report
        if rep.parallel_seconds is not None:
            factor_s = rep.parallel_seconds
            spec = solver.spec
        else:
            spec: MachineSpec = solver.spec
            factor_s = spec.kernel_seconds(solver.factorization.counter.by_gran)
        analyze_s = 0.0
        if not rep.analysis_reused:
            analyze_s = ANALYZE_SECONDS_PER_ENTRY * (rep.nnz + rep.factor_entries)
        solve_flops = 4.0 * rep.factor_entries * nrhs
        solve_kernel = "dgemm" if nrhs >= 2 else "dgemv"
        solve_s = solve_flops / spec.kernel_rate(solve_kernel)
        # a tuning search that actually ran charges its probe time to the
        # job that triggered it; plan-cache hits charge nothing
        tune_s = (
            solver.tune_result.budget_spent
            if getattr(solver, "tune_result", None) is not None
            else 0.0
        )
        return analyze_s + factor_s + solve_s + tune_s

    def step(self) -> list:
        """Serve one batch on the earliest-free worker lane; returns the
        jobs it completed (or failed)."""
        if not self._queue:
            return []
        batch = self._take_batch()
        head = batch[0]
        opts = head._opts
        B = np.column_stack(
            [j.b if j.b.ndim == 2 else j.b[:, None] for j in batch]
        )
        nrhs = B.shape[1]

        worker = min(range(self.workers), key=lambda w: self._worker_clock[w])
        start = max(self._worker_clock[worker], head.arrival)

        solver = X = None
        error = None
        attempts = 0
        corruption_retry = False
        while True:
            attempts += 1
            solver = None
            try:
                candidate = self._run_solver(head.A, opts, strip_faults=attempts > 1)
                X = candidate.solve(B)
                solver = candidate
                break
            except (SingularMatrixError, NumericalError) as e:
                # the values are at fault, not the transport: retrying the
                # same matrix cannot help, the batch fails with the error
                error = e
                break
            except DeliveryError as e:
                error = e
                if attempts > self.max_retries:
                    break
                self._counter("retries").inc()
            except SilentCorruptionError as e:
                # ABFT caught a corrupted-but-delivered payload: same
                # transient-fault retry policy as a transport give-up
                error = e
                if attempts > self.max_retries:
                    break
                self._counter("retries").inc()
                corruption_retry = True
        if solver is not None and corruption_retry:
            self.metrics_registry.counter("abft.recovered").inc()

        if solver is not None:
            finish = start + self._modeled_seconds(solver, nrhs)
        else:
            # the failed attempts still occupied the lane; charge a latency
            # penalty proportional to the attempts made
            finish = start + attempts * ANALYZE_SECONDS_PER_ENTRY * head.A.nnz

        latency_hist = self.metrics_registry.histogram("service.latency")
        col = 0
        for job in batch:
            job.start = start
            job.finish = finish
            job.attempts = attempts
            job.batch_size = len(batch)
            if solver is not None:
                job.cache_hit = solver.report.analysis_reused
                job.x = (
                    X[:, col]
                    if job.b.ndim == 1
                    else X[:, col : col + job.ncols]
                )
                job.status = DONE
                latency_hist.observe(job.latency)
            else:
                job.error = error
                job.status = FAILED
                self._counter("jobs.failed").inc()
            col += job.ncols
            if self.tracer is not None:
                track = f"svc/job{job.job_id}"
                if start > job.arrival:
                    self.tracer.span(track, "queued", QUEUE,
                                     job.arrival, start)
                self.tracer.span(
                    track, "solve", JOB, start, finish,
                    {"status": job.status, "cache_hit": job.cache_hit,
                     "batch": len(batch), "attempts": attempts,
                     "worker": worker},
                )
        self._worker_clock[worker] = finish
        self._last_finish = max(self._last_finish, finish)
        self._counter("batches").inc()
        if len(batch) > 1:
            self._counter("batched_jobs").inc(len(batch))
        if self.tracer is not None:
            self.tracer.span(
                f"svc/w{worker}", f"batch j{head.job_id}", BATCH,
                start, finish,
                {"jobs": len(batch), "nrhs": int(nrhs),
                 "status": batch[0].status},
            )
        self.metrics_registry.gauge("service.queue.depth").set(
            len(self._queue))
        return batch

    # -- metrics -------------------------------------------------------

    def metrics(self) -> MetricsSnapshot:
        """Deterministic statistics snapshot (same job set → same numbers).

        Every field is a view over the shared
        :class:`repro.obs.MetricsRegistry` (``metrics_registry``), which
        additionally holds the raw counters/histograms — including
        whatever the cache and any traced simulations recorded."""
        reg = self.metrics_registry
        hist = reg.histogram("service.latency")
        completed = hist.count
        makespan = (
            self._last_finish - self._first_arrival
            if completed and self._first_arrival is not None
            else 0.0
        )
        cs = self.cache.stats
        return MetricsSnapshot(
            jobs_submitted=int(reg.value("service.jobs.submitted")),
            jobs_completed=completed,
            jobs_failed=int(reg.value("service.jobs.failed")),
            jobs_rejected=int(reg.value("service.jobs.rejected")),
            batches=int(reg.value("service.batches")),
            batched_jobs=int(reg.value("service.batched_jobs")),
            retries=int(reg.value("service.retries")),
            cache_hits=cs.hits,
            cache_misses=cs.misses,
            cache_hit_rate=cs.hit_rate,
            queue_depth=len(self._queue),
            max_queue_depth=int(reg.value("service.queue.max_depth")),
            latency_p50=hist.percentile(0.50),
            latency_p95=hist.percentile(0.95),
            makespan=makespan,
            throughput_jobs_per_s=(completed / makespan if makespan > 0 else 0.0),
        )
