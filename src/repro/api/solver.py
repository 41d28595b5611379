"""``SStarSolver`` — the one-stop user-facing interface.

Typical use::

    from repro.api import SStarSolver
    solver = SStarSolver().factor(A)          # A: repro.sparse.CSRMatrix
    x = solver.solve(b)                       # backward-stable GEPP solve

    # or run the factorization on a simulated 16-node T3E:
    report = SStarSolver(nprocs=16, machine="T3E", method="2d").factor(A).report

The solver owns the whole pipeline: maximum transversal, minimum-degree
column ordering on AᵀA, static symbolic factorization, supernode partition
with amalgamation, and the numeric factorization (sequential, 1D parallel,
or 2D parallel on the simulated machine).  Permutations are applied and
undone transparently, so ``solve`` works in the caller's coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..machine import MachineSpec, FaultPlan, spec_by_name
from ..obs import PHASE, as_tracer
from ..numfact import (
    LUFactorization,
    NumericalError,
    PivotMonitor,
    matrix_maxnorm,
    sstar_factor,
)
from ..parallel import check_run_options, factorize
from ..pipeline import analyze, pattern_key
from ..sparse import CSRMatrix, dense_to_csr, rhs_array


@dataclass
class FactorizationReport:
    """Statistics from a completed factorization."""

    n: int
    nnz: int
    factor_entries: int
    supernode_blocks: int
    flops: float
    dgemm_fraction: float
    parallel_seconds: Optional[float] = None  # simulated; None for sequential
    nprocs: int = 1
    messages: int = 0
    bytes_sent: int = 0
    growth_factor: Optional[float] = None  # max |pivot| / max |A_ij| (monitored runs)
    perturbed_pivots: int = 0  # tiny pivots statically perturbed
    restarts: int = 0  # crashed-and-discarded checkpoint rounds
    analysis_reused: bool = False  # refactor hit cached symbolic state
    #: simulated runs: payloads were delivered zero-copy (False = the
    #: certificate declined and every message was deep-copied; see
    #: ``SimResult.zero_copy_reason``); None for sequential
    zero_copy: Optional[bool] = None


class SStarSolver:
    """Sparse LU with partial pivoting via the S* approach.

    Parameters
    ----------
    block_size:
        Maximum supernode width (the paper uses 25).
    amalgamation:
        Amalgamation factor ``r`` (0 disables; the paper finds 4-6 best).
    nprocs, machine, method:
        Optional parallel execution on the simulated machine: ``method`` in
        ``{"sequential", "1d-rapid", "1d-ca", "2d", "2d-sync"}``
        (:data:`repro.parallel.METHODS` — ``"sequential"`` plus the keys of
        the driver table; the run goes through
        :func:`repro.parallel.factorize`); ``machine`` in
        ``{"T3D", "T3E", "GENERIC"}`` (:func:`repro.machine.spec_by_name`) or
        a :class:`repro.machine.MachineSpec`.  An unknown method or machine
        name, ``nprocs < 1``, ``ckpt_interval < 1`` or a ``grid`` whose size
        is not ``nprocs`` is a ``ValueError`` at construction.
    grid:
        Optional :class:`repro.parallel.Grid2D` fixing the 2D process-grid
        shape (default: ``Grid2D.preferred``, the paper's ``p_c/p_r ~ 2``).
        It holds on the checkpointed path too, for every round that still
        has ``nprocs`` ranks; after a crash shrank the run the survivors
        use ``Grid2D.preferred``.
    pivot_threshold:
        Threshold-pivoting parameter ``u`` in (0, 1]; 1.0 (default) is pure
        partial pivoting, smaller values keep the diagonal when
        ``|a_kk| >= u * max`` — fewer interchanges, bounded extra growth.
    perturb:
        Enable SuperLU_DIST-style static pivot perturbation: tiny pivots
        (``< sqrt(eps) * ||A||``) are replaced instead of poisoning the
        factorization; ``solve`` then escalates to iterative refinement
        (see ``refine``).
    refine:
        Iterative-refinement policy for ``solve``: ``"auto"`` (default —
        refine when pivots were perturbed), ``"always"`` or ``"never"``.
        A refined solve that fails to reach ``refine_tol`` backward error
        raises :class:`repro.numfact.NumericalError`.
    faults, reliable:
        Optional :class:`repro.machine.FaultPlan` (or a path/JSON string)
        and reliable-delivery switch for the simulated parallel methods.
        A plan with crash faults runs in checkpoint/restart rounds
        (:mod:`repro.parallel.resilience`).
    ckpt_interval:
        Stages per checkpoint round (``>= 1``); giving it selects the
        checkpointed path (default 4 when a crash plan forces it).
    analysis_cache:
        Optional :class:`repro.service.AnalysisCache`.  ``factor`` stores
        its analyze-phase artifacts there; ``refactor`` reuses any cached
        same-pattern artifacts and skips the analyze phase entirely.
    growth_limit:
        Pivot-growth ceiling for cache invalidation: a monitored
        factorization whose growth factor exceeds this (or that had to
        perturb pivots) drops the pattern's cache entry, forcing the next
        factorization to re-derive the analysis.
    abft:
        Algorithm-based fault tolerance against silent data corruption:
        blocks and wire payloads carry column/row checksums, verified at
        message consumption and before the triangular solves.  Detected
        corruption raises :class:`repro.numfact.SilentCorruptionError`
        (with block coordinates) or recovers automatically — by localized
        block-column recompute sequentially, or by checkpoint-window
        replay on the resilient parallel paths.
    tune:
        Model-guided autotuning (:mod:`repro.tune`): ``factor`` /
        ``refactor`` first resolve a :class:`repro.tune.TuningPlan` for
        the matrix's *pattern* — from the attached ``plan_cache`` when the
        pattern was tuned before, otherwise by running a
        :class:`repro.tune.Tuner` search — and execute with the plan's
        block size, layout, grid shape and pipelining instead of the
        constructor's static ``block_size``/``method``/``grid`` (which
        become the defaults the search is free to beat).  The applied
        plan is exposed as ``solver.plan`` and the last search as
        ``solver.tune_result`` (``None`` on a plan-cache hit); a tuned
        run is bit-identical to passing the same plan's configuration
        manually.
    plan_cache, tune_budget, tune_seed, tune_opts:
        The pattern-keyed :class:`repro.tune.PlanCache` shared across
        solvers (one search per pattern/machine/P), the search's
        virtual-time budget (``"auto"``, ``None`` or seconds), its
        deterministic seed, and extra :class:`repro.tune.Tuner` keyword
        arguments (e.g. ``metrics``, ``prune_ratio``, ``block_sizes``).
    trace:
        Observability: ``True`` creates a fresh :class:`repro.obs.Tracer`,
        or pass an existing tracer to share one timeline across solvers.
        Pipeline phases (transversal/ordering/symbolic/partition/numfact/
        trisolve) land on the ``pipeline/main`` track with deterministic
        modeled virtual durations; parallel methods additionally record
        per-rank simulator spans and send→recv messages.  The tracer is
        exposed as ``solver.tracer``; export it with
        :func:`repro.obs.to_chrome_trace`.
    """

    def __init__(
        self,
        block_size: int = 25,
        amalgamation: int = 4,
        nprocs: int = 1,
        machine="T3E",
        method: str = "sequential",
        grid=None,
        pivot_threshold: float = 1.0,
        perturb: bool = False,
        refine: str = "auto",
        refine_tol: float = 1e-8,
        faults=None,
        reliable=None,
        ckpt_interval: Optional[int] = None,
        analysis_cache=None,
        growth_limit: float = 1e8,
        trace=None,
        abft: bool = False,
        tune: bool = False,
        plan_cache=None,
        tune_budget="auto",
        tune_seed: int = 0,
        tune_opts: dict = None,
    ):
        check_run_options(method, nprocs, ckpt_interval, grid)
        self.block_size = block_size
        self.amalgamation = amalgamation
        self.nprocs = nprocs
        self.method = method
        self.grid = grid
        self.pivot_threshold = pivot_threshold
        self.perturb = perturb
        if refine not in ("auto", "always", "never"):
            raise ValueError("refine must be 'auto', 'always' or 'never'")
        self.refine = refine
        self.refine_tol = refine_tol
        if isinstance(faults, str):
            faults = FaultPlan.from_json(faults)
        self.faults = faults
        self.reliable = reliable
        self.ckpt_interval = ckpt_interval
        self.spec = (
            machine if isinstance(machine, MachineSpec) else spec_by_name(machine)
        )
        self.analysis_cache = analysis_cache
        self.growth_limit = growth_limit
        self.abft = abft
        self.tracer = as_tracer(trace)
        self.tune = tune
        self.plan_cache = plan_cache
        self.tune_budget = tune_budget
        self.tune_seed = tune_seed
        self.tune_opts = dict(tune_opts or {})
        self.plan = None  # TuningPlan applied by the last tuned factor
        self.tune_result = None  # TuneResult of the last search (None = hit)
        self._lu: LUFactorization = None
        self._om = None
        self._A: CSRMatrix = None
        self._artifacts = None  # AnalysisArtifacts of the last analyze phase
        self.monitor: PivotMonitor = None
        self.report: FactorizationReport = None
        self.sim_result = None
        self.resilient_result = None
        self.refine_history = None

    # -- pipeline ------------------------------------------------------

    def factor(self, A) -> "SStarSolver":
        """Order + symbolically and numerically factor ``A``.

        ``A`` may be a :class:`repro.sparse.CSRMatrix` or a dense ndarray.
        Always runs the full analyze phase; when an ``analysis_cache`` is
        attached the resulting artifacts are stored for later
        :meth:`refactor` calls.
        """
        return self._factor_impl(A, reuse=False)

    def refactor(self, A) -> "SStarSolver":
        """Numerically re-factor a matrix sharing a previously analyzed
        nonzero pattern, skipping the analyze phase.

        The cached transversal / min-degree ordering / symbolic
        factorization / supernode partition are pattern-only and remain
        exactly valid for any same-pattern matrix (George–Ng bounds the
        fill of every pivot sequence), so only the numeric Factor/Update
        sweep — with fresh partial pivoting on the new values — runs.
        Artifacts come from the attached ``analysis_cache`` or, failing
        that, this solver's own last analysis; an unknown pattern falls
        back to a full :meth:`factor` (and populates the cache).

        The factorization is bit-identical to a cold ``factor(A)`` of the
        same matrix: both paths derive identical permutations and block
        structure from the pattern, and the numeric sweep is deterministic.
        """
        return self._factor_impl(A, reuse=True)

    def _analyze(self, A, reuse: bool):
        """Produce (artifacts, ordered matrix, reused flag), consulting the
        cache / prior state when ``reuse`` is requested."""
        key = pattern_key(A)
        cache_key = (key, self.block_size, self.amalgamation)
        if reuse:
            art = (
                self.analysis_cache.get(cache_key)
                if self.analysis_cache is not None
                else None
            )
            if art is None and self._artifacts is not None and self._artifacts.key == key:
                art = self._artifacts
            if art is not None:
                if self.tracer is not None:
                    self.tracer.instant(
                        "pipeline/main", "analysis reused",
                        t=self.tracer.track_end("pipeline/main"),
                        args={"pattern": key},
                    )
                return art, art.order(A), cache_key, True
        art, om = analyze(A, self.block_size, self.amalgamation,
                          tracer=self.tracer)
        return art, om, cache_key, False

    def _resolve_plan(self, A) -> None:
        """Look up (or search for) the pattern's tuned plan and adopt its
        configuration; one search per (pattern, machine, nprocs)."""
        from ..tune import Tuner, plan_cache_key

        key = plan_cache_key(pattern_key(A), self.spec.name, self.nprocs)
        plan = self.plan_cache.get(key) if self.plan_cache is not None else None
        self.tune_result = None
        if plan is None:
            tuner = Tuner(
                spec=self.spec,
                nprocs=self.nprocs,
                budget=self.tune_budget,
                seed=self.tune_seed,
                **self.tune_opts,
            )
            self.tune_result = tuner.tune(A)
            plan = self.tune_result.best
            if self.plan_cache is not None:
                self.plan_cache.put(key, plan)
            if self.tracer is not None:
                self.tracer.instant(
                    "pipeline/main", "tuned",
                    t=self.tracer.track_end("pipeline/main"),
                    args={"plan": plan.describe(),
                          "probes": sum(len(r.probes)
                                        for r in self.tune_result.records)},
                )
        self.plan = plan
        self.block_size = plan.block_size
        self.amalgamation = plan.amalgamation
        self.method = plan.method
        self.grid = plan.grid()

    def _factor_impl(self, A, reuse: bool) -> "SStarSolver":
        if isinstance(A, np.ndarray):
            A = dense_to_csr(A)
        if not isinstance(A, CSRMatrix):
            raise TypeError("A must be a CSRMatrix or dense ndarray")
        if self.tune:
            self._resolve_plan(A)
        art, om, cache_key, reused = self._analyze(A, reuse)
        sym, part, bstruct = art.sym, art.part, art.bstruct

        monitor = PivotMonitor(matrix_maxnorm(om.A), perturb=self.perturb)
        self.monitor = monitor

        sequential = self.method == "sequential" or self.nprocs == 1
        if sequential and (self.faults is not None or self.reliable is not None):
            raise ValueError("fault injection requires a parallel method")
        parallel_seconds = zero_copy = None
        messages = bytes_sent = 0
        restarts = 0
        if sequential:
            lu = sstar_factor(
                om.A, sym=sym, part=part, bstruct=bstruct,
                pivot_threshold=self.pivot_threshold,
                monitor=monitor,
                abft=self.abft,
            )
        else:
            # a plan with crash faults needs the checkpoint/restart rounds
            ckpt_interval = self.ckpt_interval
            if ckpt_interval is None and self.faults is not None and self.faults.crashes:
                ckpt_interval = 4
            res = factorize(
                self.method, om.A, part, bstruct, self.nprocs, self.spec,
                grid=self.grid,
                pivot_threshold=self.pivot_threshold,
                monitor=monitor,
                abft=self.abft,
                sim_opts=None if self.tracer is None else {"tracer": self.tracer},
                faults=self.faults,
                reliable=self.reliable,
                ckpt_interval=ckpt_interval,
            )
            if ckpt_interval is not None:
                # totals live on the ResilientResult, one SimResult per
                # committed round
                self.resilient_result = totals = res
                sims = res.results
                restarts = sum(1 for r in res.rounds if not r.ok)
            else:
                self.sim_result = totals = res.sim
                sims = [res.sim]
            lu = LUFactorization(res.factor, sym, part, bstruct, totals.total_counter())
            parallel_seconds = res.parallel_seconds
            messages, bytes_sent = totals.messages, totals.bytes_sent
            zero_copy = all(sim.zero_copy for sim in sims)
        counter = lu.counter

        if self.tracer is not None:
            # the numfact phase span: simulated makespan for parallel runs,
            # modeled kernel time for sequential ones — virtual either way
            t0 = self.tracer.track_end("pipeline/main")
            dur = (
                parallel_seconds if parallel_seconds is not None
                else self.spec.kernel_seconds(counter.by_gran)
            )
            self.tracer.span(
                "pipeline/main", "numfact", PHASE, t0, t0 + dur,
                {"method": self.method, "flops": float(counter.total),
                 "reused_analysis": bool(reused)},
            )
            if monitor.perturbations:
                self.tracer.metrics.counter(
                    "numfact.pivot_perturbations"
                ).inc(len(monitor.perturbations))
            if restarts:
                self.tracer.metrics.counter("numfact.restarts").inc(restarts)

        self._lu = lu
        self._om = om
        self._A = A
        self._artifacts = art
        if self.analysis_cache is not None:
            growth = monitor.growth_factor
            if monitor.perturbations or (
                growth is not None and growth > self.growth_limit
            ):
                # the static-structure assumption is doing real numerical
                # work for this pattern: force a fresh analysis next time
                self.analysis_cache.invalidate(cache_key)
            else:
                self.analysis_cache.put(cache_key, art)
        self.report = FactorizationReport(
            n=A.nrows,
            nnz=A.nnz,
            factor_entries=sym.factor_entries,
            supernode_blocks=part.N,
            flops=counter.total,
            dgemm_fraction=counter.fraction("dgemm"),
            parallel_seconds=parallel_seconds,
            nprocs=self.nprocs if self.method != "sequential" else 1,
            messages=messages,
            bytes_sent=bytes_sent,
            growth_factor=monitor.growth_factor,
            perturbed_pivots=len(monitor.perturbations),
            restarts=restarts,
            analysis_reused=reused,
            zero_copy=zero_copy,
        )
        return self

    def _solve_once(self, b: np.ndarray) -> np.ndarray:
        """One factored solve in the caller's original coordinates."""
        om = self._om
        z = self._lu.solve(np.asarray(b, dtype=np.float64)[om.row_perm])
        x = np.empty_like(z)
        x[om.col_perm] = z
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` in the caller's original coordinates.

        ``b`` may be a single right-hand side ``(n,)`` or a block
        ``(n, k)`` of right-hand sides (so ``(n, 1)`` is just the block
        form with one column); the returned ``x`` matches ``b``'s shape.
        Block solves run the triangular sweeps once with BLAS-3 panels,
        amortising the factorization across all ``k`` systems.

        When pivots were perturbed (``perturb=True`` met tiny pivots) or
        ``refine="always"``, the direct solve against the factorization of
        the perturbed matrix is corrected by iterative refinement on the
        *original* ``A`` (column by column for block right-hand sides); if
        the refined backward error does not reach ``refine_tol`` a
        :class:`repro.numfact.NumericalError` is raised instead of
        returning an unusable solution.
        """
        if self._lu is None:
            raise RuntimeError("call factor(A) first")
        b = rhs_array(b, self._lu.n)
        if self.tracer is not None:
            # modeled virtual cost of the two triangular sweeps: ~4 flops
            # per factor entry per right-hand side, panel (dgemm) rate for
            # block solves, dgemv for single vectors
            k = 1 if b.ndim == 1 else int(b.shape[1])
            kernel = "dgemm" if k > 1 else "dgemv"
            flops = 4.0 * self.report.factor_entries * k
            t0 = self.tracer.track_end("pipeline/main")
            self.tracer.span(
                "pipeline/main", "trisolve", PHASE,
                t0, t0 + flops / self.spec.kernel_rate(kernel),
                {"k": k, "flops": flops},
            )
        perturbed = self.monitor is not None and bool(self.monitor.perturbations)
        want_refine = self.refine == "always" or (
            self.refine == "auto" and perturbed
        )
        if not want_refine:
            return self._solve_once(b)
        if b.ndim == 2:
            x = np.empty_like(b)
            histories = []
            for j in range(b.shape[1]):
                x[:, j] = self._refined_solve(b[:, j], histories)
            self.refine_history = histories
            return x
        histories = []
        x = self._refined_solve(b, histories)
        self.refine_history = histories[0]
        return x

    def _refined_solve(self, b: np.ndarray, histories: list) -> np.ndarray:
        from ..analysis.stability import iterative_refinement

        x, history = iterative_refinement(
            self._A, self._solve_once, b, max_iters=10, tol=self.refine_tol
        )
        berr = history[-1]
        if not np.isfinite(berr) or berr > self.refine_tol:
            raise NumericalError(
                f"iterative refinement stalled at backward error {berr:.3g} "
                f"(target {self.refine_tol:.3g}) after {len(history) - 1} "
                "iteration(s); the matrix is numerically singular",
                backward_error=float(berr),
                iterations=len(history) - 1,
            )
        histories.append(history)
        return x

    @property
    def factorization(self) -> LUFactorization:
        """The underlying factor object (permuted coordinates)."""
        return self._lu

    @property
    def ordering(self):
        """The :class:`repro.ordering.OrderedMatrix` used."""
        return self._om
