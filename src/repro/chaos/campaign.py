"""The chaos campaign runner.

A campaign sweeps seeded fault-plan families (:mod:`repro.chaos.plans`)
across a set of solver **scenarios** — 1D (rapid/CA), 2D (async/sync),
their checkpoint/restart variants and the solve service — and checks
every run against the invariants of :mod:`repro.verify.checks`.
Families are only paired with scenarios whose capabilities make their
faults recoverable, so every campaign run is *expected* green: a single
red oracle is a real robustness bug, and the failing run's realised
fault events are the shrinker's (:mod:`repro.chaos.shrink`) input.  The
plan reaches a run as ``sim_opts["faults"]`` and its realised events
come back as :class:`repro.machine.FaultStats` ``injected`` — on the
result, or on the error a failed run raises.

Observability: the campaign counts ``chaos.runs`` / ``chaos.failures``
in its :class:`repro.obs.MetricsRegistry`, merges every run's own
counters (``sim.faults.*``, ``abft.*``, ...) into it, and lays each
run out as a PHASE span on a ``chaos/<scenario>`` track of its tracer,
so a campaign exports and profiles like any other traced run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..machine import GENERIC, ReliableDelivery
from ..matrices import random_nonsymmetric
from ..numfact import LUFactorization, SilentCorruptionError, sstar_factor
from ..obs import PHASE, MetricsRegistry, Tracer
from ..parallel import factorize
from ..pipeline import analyze
from ..verify.checks import (
    check_bit_identical, check_completed, check_metrics_consistent, check_rounds,
    check_solve_identical, check_span_tiling, check_trace,
)
from . import plans


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


#: the persisted 1D / 2D ``method`` flavours -> their
#: :data:`repro.parallel.DRIVERS` key (service scenarios persist the key)
_DRIVER_KEYS = {"rapid": "1d-rapid", "ca": "1d-ca", "async": "2d", "sync": "2d-sync"}


@dataclass(frozen=True)
class Scenario:
    """One solver configuration the campaign exercises.

    ``mode`` is ``"1d"`` / ``"2d"`` (one Simulator run), ``"resilient-1d"``
    / ``"resilient-2d"`` (checkpoint/restart rounds) or ``"service"`` (a
    :class:`repro.service.SolveService` job).  ``method`` selects the
    variant: 1D ``rapid``/``ca``, 2D ``async``/``sync``, service solver
    method strings (``"1d-ca"``/``"2d"``).
    """

    name: str
    mode: str
    method: str = "ca"
    nprocs: int = 4
    reliable: bool = True
    checksum: bool = True
    abft: bool = False
    ckpt_interval: int = 4

    @property
    def driver(self) -> str:
        """The solver ``method`` (a :data:`repro.parallel.DRIVERS` key) this
        scenario runs."""
        return _DRIVER_KEYS.get(self.method, self.method)

    @property
    def resilient(self) -> bool:
        """Runs in checkpoint/restart rounds."""
        return self.mode in ("resilient-1d", "resilient-2d")

    @property
    def capabilities(self) -> frozenset:
        toks = set()
        if self.reliable:
            toks.add(plans.RELIABLE)
            if self.checksum:
                toks.add(plans.CHECKSUM)
        if self.abft:
            toks.add(plans.ABFT)
        if self.resilient or self.mode == "service":
            # job-level retry replays the whole solve from scratch — the
            # service's analogue of a checkpoint restart
            toks.add(plans.RESILIENT)
        return frozenset(toks)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        return cls(**d)


DEFAULT_SCENARIOS = (
    Scenario("1d-rapid", "1d", method="rapid", nprocs=3),
    Scenario("1d-ca", "1d", method="ca", nprocs=4),
    Scenario("1d-ca-abft", "1d", method="ca", nprocs=4, abft=True),
    Scenario("2d", "2d", method="async", nprocs=4),
    Scenario("2d-sync", "2d", method="sync", nprocs=4),
    Scenario("1d-resilient-abft", "resilient-1d", method="ca", nprocs=4,
             checksum=False, abft=True),
    Scenario("2d-resilient", "resilient-2d", method="async", nprocs=4),
    Scenario("service", "service", method="1d-ca", nprocs=4),
)


# ---------------------------------------------------------------------------
# shared context: one matrix pipeline + fault-free references
# ---------------------------------------------------------------------------


@dataclass
class ChaosContext:
    """The campaign's matrix pipeline and fault-free reference results."""

    A: object
    art: object  # AnalysisArtifacts: sym / part / bstruct / task_graph
    om: object
    spec: object
    seq: object  # sequential LUFactorization — the bit-identity reference
    b: np.ndarray
    x_ref: np.ndarray
    tscale: float  # nominal fault-free 1D makespan (places crash times)
    config: dict
    _service_x: np.ndarray = field(default=None, repr=False)

    def service_x_ref(self) -> np.ndarray:
        """Fault-free solve-service solution (computed once, lazily)."""
        if self._service_x is None:
            from ..service import SolveService
            svc = SolveService(workers=1, max_queue=4,
                               solver_opts={"method": "1d-ca", "nprocs": 4})
            jid = svc.submit(self.A, self.b)
            self._service_x = svc.result(jid)
        return self._service_x


def build_context(n: int = 60, density: float = 0.08, mseed: int = 11,
                  block: int = 5, amalg: int = 3) -> ChaosContext:
    """Build the shared pipeline for a campaign on one random matrix."""
    config = {"n": n, "density": density, "mseed": mseed,
              "block": block, "amalg": amalg}
    A = random_nonsymmetric(n, density=density, seed=mseed)
    art, om = analyze(A, block, amalg)
    seq = sstar_factor(om.A, sym=art.sym, part=art.part)
    b = np.arange(float(A.nrows))
    x_ref = seq.solve(b)
    base = factorize("1d-ca", om.A, art.part, art.bstruct, 4, GENERIC)
    return ChaosContext(
        A=A, art=art, om=om, spec=GENERIC,
        seq=seq, b=b, x_ref=x_ref, tscale=base.sim.total_time,
        config=config,
    )


# ---------------------------------------------------------------------------
# one campaign run
# ---------------------------------------------------------------------------


@dataclass
class RunOutcome:
    """Everything one campaign run produced, for the oracles and shrinker."""

    scenario: Scenario
    family: str
    index: int
    plan: object
    error: Exception = None
    run: object = None        # RunResult (every run but the service's)
    tracer: Tracer = None
    x: np.ndarray = None      # service runs
    seconds: float = 0.0
    injected: tuple = ()      # realised FaultEvents, canonically ordered
    crashes: tuple = ()       # ranks that crashed
    oracles: tuple = ()

    @property
    def ok(self) -> bool:
        return self.error is None and all(r.ok for r in self.oracles)

    def failure_key(self):
        """JSON-safe identity of the failure (None when the run is green).

        The shrinker preserves this key: a reduced schedule counts as
        reproducing the failure only if it fails *the same way*.
        """
        if self.error is not None:
            e = self.error
            if isinstance(e, SilentCorruptionError):
                return ["SilentCorruptionError",
                        [int(e.block[0]), int(e.block[1])],
                        e.where, float(e.error), str(e)]
            return [type(e).__name__, str(e)]
        bad = sorted(r.name for r in self.oracles if not r.ok)
        return ["oracle"] + bad if bad else None


def execute_case(ctx: ChaosContext, scenario: Scenario, plan) -> RunOutcome:
    """Run one (scenario, plan) case; never raises — errors are captured.

    ``out.injected`` is the run's realised fault events, sorted: its
    ``fault_stats.injected``, or, when a one-round run raised, that of
    the error (the failing runs are the shrinker's input)."""
    out = RunOutcome(scenario=scenario, family="?", index=0, plan=plan)
    tracer = Tracer()
    out.tracer = tracer
    rel = ReliableDelivery(checksum=scenario.checksum) if scenario.reliable else None
    try:
        if scenario.mode == "service":
            from ..service import SolveService
            opts = {"method": scenario.driver, "nprocs": scenario.nprocs,
                    "abft": scenario.abft}
            if plan.rules or plan.crashes or plan.events:
                opts["faults"] = plan
            if rel is not None:
                opts["reliable"] = rel
            svc = SolveService(workers=1, max_queue=4, max_retries=1,
                               solver_opts=opts)
            jid = svc.submit(ctx.A, ctx.b)
            out.x = svc.result(jid)
        else:
            res = factorize(
                scenario.driver, ctx.om.A, ctx.art.part, ctx.art.bstruct,
                scenario.nprocs, ctx.spec, abft=scenario.abft,
                sim_opts={"tracer": tracer, "trace": True, "faults": plan,
                          "reliable": rel},
                ckpt_interval=scenario.ckpt_interval if scenario.resilient else None,
            )
            out.run = res
            out.seconds = res.parallel_seconds
            out.injected = _sorted_events(res.fault_stats.injected)
            out.crashes = tuple(res.crashes)
    except Exception as e:  # the oracles decide what failure means
        out.error = e
        if scenario.mode in ("1d", "2d") and hasattr(e, "fault_stats"):
            out.injected = _sorted_events(e.fault_stats.injected)
    return out


def _sorted_events(events) -> tuple:
    return tuple(sorted(events, key=lambda e: e.key()))


def evaluate(ctx: ChaosContext, scenario: Scenario, outcome) -> list:
    """Every applicable check of :mod:`repro.verify.checks` on this
    outcome, in report order."""
    if outcome.error is not None:
        return [check_completed(outcome.error)]
    checks = [check_completed()]
    if scenario.mode == "service":
        return checks + [check_solve_identical(
            outcome.x, ctx.service_x_ref(), "service_result")]
    art = ctx.art
    run = outcome.run
    lu = LUFactorization(run.factor, art.sym, art.part, art.bstruct, None)
    checks += [check_bit_identical(run.factor, ctx.seq),
               check_solve_identical(lu.solve(ctx.b), ctx.x_ref)]
    if scenario.resilient:
        return checks + check_rounds(run, art.part.N, ctx.spec)
    tg = art.task_graph if run.schedule is not None else None
    return checks + [
        check_trace(run.sim, ctx.spec, tg=tg, schedule=run.schedule),
        check_span_tiling(outcome.tracer, run.sim),
        check_metrics_consistent(outcome.tracer, run.sim),
    ]


def run_case(ctx: ChaosContext, scenario: Scenario, plan,
             family: str = "?", index: int = 0) -> RunOutcome:
    """Execute one case and evaluate every applicable check."""
    out = execute_case(ctx, scenario, plan)
    out.family = family
    out.index = index
    out.oracles = tuple(evaluate(ctx, scenario, out))
    return out


# ---------------------------------------------------------------------------
# the campaign
# ---------------------------------------------------------------------------


@dataclass
class CampaignReport:
    """Aggregated campaign outcome."""

    runs: int
    failures: list      # dict per failing run
    coverage: dict
    virtual_seconds: float
    counters: dict

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return dict(asdict(self), ok=self.ok)

    def summary(self) -> str:
        cov = self.coverage
        lines = [
            f"chaos campaign: {self.runs} runs, "
            f"{len(self.failures)} failing "
            f"({self.virtual_seconds:.3g} simulated seconds)",
            f"  fault coverage: {cov['total_injected']} injected events, "
            f"{len(cov['cells'])} action:tag cells, "
            f"{len(cov['pairs'])} src->dest pairs, "
            f"{cov['crashes']} crashes",
        ]
        for name, n in sorted(cov["families"].items()):
            lines.append(f"    {name:8s} {n} runs")
        for f in self.failures:
            lines.append(
                f"  FAIL {f['scenario']}/{f['family']}#{f['index']}: "
                f"{f['failure_key']}")
        return "\n".join(lines)


class Campaign:
    """Sweep fault families over scenarios, checking every oracle."""

    def __init__(self, ctx: ChaosContext = None, scenarios=None,
                 families=None, budget: int = 60, seed: int = 0,
                 tracer: Tracer = None):
        self.ctx = ctx if ctx is not None else build_context()
        self.scenarios = tuple(scenarios) if scenarios is not None \
            else DEFAULT_SCENARIOS
        self.families = tuple(families) if families is not None \
            else plans.FAMILIES
        self.budget = int(budget)
        self.seed = int(seed)
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics: MetricsRegistry = self.tracer.metrics
        self.outcomes = []

    def pairs(self) -> list:
        """The compatible (scenario, family) pairs, in sweep order."""
        out = [(s, f) for s in self.scenarios for f in self.families
               if plans.compatible(f, s.capabilities)]
        if not out:
            raise ValueError(
                "no compatible (scenario, family) pairs: every family "
                "needs a scenario providing its recovery capabilities")
        return out

    def run(self) -> CampaignReport:
        ctx = self.ctx
        pairs = self.pairs()
        failures = []
        cursor = {}  # per-scenario virtual-time cursor for the spans
        total_virtual = 0.0
        from collections import Counter
        cov_actions, cov_tags = Counter(), Counter()
        cov_cells, cov_fam, cov_scn = Counter(), Counter(), Counter()
        cov_pairs = set()
        crashes = 0
        for i in range(self.budget):
            scenario, family = pairs[i % len(pairs)]
            index = i // len(pairs)
            plan = plans.make_plan(family, index, self.seed, scenario.nprocs,
                                   tscale=ctx.tscale)
            out = run_case(ctx, scenario, plan, family=family, index=index)
            self.outcomes.append(out)
            self.metrics.counter("chaos.runs").inc()
            if out.tracer is not None:
                self.metrics.merge(out.tracer.metrics)
            t0 = cursor.get(scenario.name, 0.0)
            self.tracer.span(
                f"chaos/{scenario.name}", f"{family}#{index}", PHASE,
                t0, t0 + out.seconds,
                {"ok": out.ok, "injected": len(out.injected),
                 "crashes": len(out.crashes)},
            )
            cursor[scenario.name] = t0 + out.seconds
            total_virtual += out.seconds
            cov_fam[family] += 1
            cov_scn[scenario.name] += 1
            crashes += len(out.crashes)
            for ev in out.injected:
                kind = ev.tag[0] if isinstance(ev.tag, tuple) else str(ev.tag)
                cov_actions[ev.action] += 1
                cov_tags[str(kind)] += 1
                cov_cells[f"{ev.action}:{kind}"] += 1
                cov_pairs.add((ev.src, ev.dest))
            if not out.ok:
                self.metrics.counter("chaos.failures").inc()
                failures.append({
                    "scenario": scenario.name,
                    "family": family,
                    "index": index,
                    "failure_key": out.failure_key(),
                    "oracles": [str(r) for r in out.oracles],
                })
        coverage = {
            "actions": dict(cov_actions),
            "tags": dict(cov_tags),
            "cells": dict(cov_cells),
            "pairs": sorted([list(p) for p in cov_pairs]),
            "families": dict(cov_fam),
            "scenarios": dict(cov_scn),
            "crashes": crashes,
            "total_injected": sum(cov_actions.values()),
        }
        return CampaignReport(
            runs=self.budget,
            failures=failures,
            coverage=coverage,
            virtual_seconds=total_virtual,
            counters=self.metrics.as_dict(),
        )
