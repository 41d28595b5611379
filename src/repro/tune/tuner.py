"""Model-guided autotuner: analytic pruning + successive-halving probes.

The search runs in two stages, both functions of the nonzero pattern and
the machine alone:

1. **Analytic pruning.**  Every candidate in the declared space
   (:mod:`repro.tune.space`) is priced by the Eq. (4)-style model
   (:func:`repro.analysis.plan_time_model`) from pattern-only inputs: the
   task graph's granularity-derated total work and critical path at the
   candidate's block size, plus the layout's predicted message traffic.
   Candidates slower than ``prune_ratio`` times the best modeled time are
   dropped without ever touching the simulator.

2. **Successive-halving simulator probes.**  Survivors run on the
   simulated machine over a *prefix* of the elimination stages (the
   cheapest fidelity rung), are ranked by measured makespan, and the best
   half advances to a longer prefix until the finalists run the full
   factorization.  Every probe is traced (:mod:`repro.obs`), its time
   attributed to compute/comm/idle, and configurations that are
   communication-bound without being in the lead are rejected early.
   Probe cost is charged in *virtual seconds* against ``budget``; when
   the budget runs dry the remaining candidates keep their latest-rung
   ranking.

Everything is deterministic for a fixed ``(seed, budget)``: the candidate
space is enumerated in a fixed order, the seed only permutes candidates
whose modeled times tie exactly, and the simulator itself is
deterministic — so the same search always returns the same plan and the
same trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..analysis.model import plan_time_model
from ..machine import MachineSpec, T3E
from ..obs import PHASE, Tracer, as_tracer, profile_trace
from ..parallel import Grid2D, factorize
from ..pipeline import analyze
from ..taskgraph.profile import parallelism_profile
from .plan import TuningPlan, plan_cache_key
from .space import comm_estimate_1d, comm_estimate_2d, enumerate_plans

#: Successive-halving fidelity rungs: fraction of matrix columns whose
#: elimination stages the probe executes (the last rung is always full).
DEFAULT_RUNGS = (0.25, 0.5, 1.0)

#: ``budget="auto"`` caps total probe time at this multiple of the best
#: *modeled* factorization time — the search may spend about ten
#: factorizations' worth of virtual time before it must commit.
AUTO_BUDGET_FACTOR = 10.0


def default_plan(nprocs: int = 1, block_size: int = 25,
                 amalgamation: int = 4) -> TuningPlan:
    """The static configuration a hand-configured run would use: the
    paper's block size 25 and, for parallel budgets, the headline 2D
    asynchronous code on the preferred ``p_c / p_r ~ 2`` grid."""
    if nprocs <= 1:
        return TuningPlan(block_size=block_size, amalgamation=amalgamation)
    g = Grid2D.preferred(nprocs)
    return TuningPlan(
        block_size=block_size, amalgamation=amalgamation, layout="2d",
        nprocs=nprocs, pr=g.pr, pc=g.pc, synchronous=False,
    )


@dataclass
class ProbeRecord:
    """The search trace entry for one evaluated candidate."""

    plan: TuningPlan
    model_seconds: float
    status: str = "candidate"  # winner | probed | pruned-model |
    #                            rejected-comm | skipped-budget
    rung: int = -1  # highest fidelity rung probed (-1 = never probed)
    probes: list = field(default_factory=list)  # one dict per rung
    full_seconds: Optional[float] = None  # full-factorization makespan

    @property
    def last_probe_seconds(self) -> Optional[float]:
        return self.probes[-1]["seconds"] if self.probes else None

    def as_dict(self) -> dict:
        return {
            "plan": self.plan.as_dict(),
            "model_seconds": self.model_seconds,
            "status": self.status,
            "rung": self.rung,
            "probes": self.probes,
            "full_seconds": self.full_seconds,
        }


@dataclass
class TuneResult:
    """The winning plan plus the full, replayable search trace."""

    best: TuningPlan
    pattern: str
    machine: str
    nprocs: int
    seed: int
    budget: Optional[float]
    budget_spent: float
    records: list  # ProbeRecord, search order
    best_seconds: Optional[float] = None  # winner's full simulated time

    @property
    def cache_key(self) -> tuple:
        return plan_cache_key(self.pattern, self.machine, self.nprocs)

    def as_dict(self) -> dict:
        return {
            "best": self.best.as_dict(),
            "best_seconds": self.best_seconds,
            "pattern": self.pattern,
            "machine": self.machine,
            "nprocs": self.nprocs,
            "seed": self.seed,
            "budget": self.budget,
            "budget_spent": self.budget_spent,
            "records": [r.as_dict() for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


class _PatternState:
    """Per-pattern memo of the partition/task-graph pipeline the search
    shares across candidates (everything here is pattern-only)."""

    def __init__(self, A, spec: MachineSpec):
        self.spec = spec
        # the analysis arrives at the default plan's blocking; the other
        # candidates re-block its permutations and symbolic structure
        default = TuningPlan()
        self._analyzed = (default.block_size, default.amalgamation)
        self.art, self.om = analyze(A, *self._analyzed)
        self._by_blocking = {}

    def blocking(self, block_size: int, amalgamation: int):
        key = (block_size, amalgamation)
        got = self._by_blocking.get(key)
        if got is None:
            art = self.art if key == self._analyzed else self.art.reblock(*key)
            tg = art.task_graph
            prof = parallelism_profile(tg, self.spec)
            got = self._by_blocking[key] = (art.part, art.bstruct, tg, prof)
        return got

    def stage_cap(self, part, fraction: float) -> Optional[int]:
        """Block-column count covering ``fraction`` of the matrix columns
        (``None`` = run everything)."""
        if fraction >= 1.0:
            return None
        target = fraction * part.n
        for K in range(part.N):
            if part.bounds[K + 1] >= target:
                return max(K + 1, 1)
        return None


class Tuner:
    """Search the configuration space for one matrix pattern.

    Parameters
    ----------
    spec, nprocs:
        The simulated machine and the processor budget the plan may use.
    budget:
        Virtual-second cap on total simulator probe time: a float,
        ``None`` (unbounded), or ``"auto"`` (the default —
        :data:`AUTO_BUDGET_FACTOR` times the best modeled time, so the
        search costs about ten factorizations).  The analytic stage is
        never charged.
    seed:
        Deterministic tie-break seed: permutes only candidates whose
        modeled times tie exactly, so any fixed ``(seed, budget)`` always
        reproduces the same search bit for bit.
    prune_ratio:
        Analytic pruning slack: candidates modeled slower than
        ``prune_ratio *`` the best modeled time never reach the
        simulator.  The model-vs-simulator regression test
        (``tests/test_tune.py``) keeps this safety margin honest.
    comm_bound:
        Early-rejection threshold on a probe's non-compute fraction
        (comm + idle): a config past it that is not currently leading its
        rung is dropped as communication-bound.
    rungs:
        Successive-halving fidelity ladder (fractions of the matrix's
        columns whose elimination stages each probe executes).
    metrics, tracer:
        Optional :class:`repro.obs.MetricsRegistry` /
        :class:`repro.obs.Tracer`: probes are counted under ``tune.*``
        and recorded as spans on the ``tune/search`` track.
    """

    def __init__(
        self,
        spec: MachineSpec = T3E,
        nprocs: int = 1,
        budget="auto",
        seed: int = 0,
        prune_ratio: float = 2.0,
        comm_bound: float = 0.75,
        rungs=DEFAULT_RUNGS,
        block_sizes=None,
        amalgamations=None,
        metrics=None,
        tracer=None,
    ):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.spec = spec
        self.nprocs = nprocs
        self.budget = budget
        self.seed = seed
        self.prune_ratio = prune_ratio
        self.comm_bound = comm_bound
        self.rungs = tuple(rungs)
        if not self.rungs or self.rungs[-1] < 1.0:
            raise ValueError("the last rung must run the full factorization")
        self.block_sizes = block_sizes
        self.amalgamations = amalgamations
        self.tracer = as_tracer(tracer)
        if metrics is not None:
            self.metrics = metrics
        elif self.tracer is not None:
            self.metrics = self.tracer.metrics
        else:
            from ..obs import MetricsRegistry

            self.metrics = MetricsRegistry()

    def _count(self, name: str, n: int = 1) -> None:
        self.metrics.counter(f"tune.{name}").inc(n)

    # -- model stage ---------------------------------------------------

    def model_seconds(self, state: _PatternState, plan: TuningPlan) -> float:
        """The Eq. (4)-style pattern-only time prediction for ``plan``."""
        part, bstruct, tg, prof = state.blocking(
            plan.block_size, plan.amalgamation
        )
        if plan.method == "sequential":
            return plan_time_model(
                self.spec, total_seconds=prof.total_seconds,
                cp_seconds=prof.critical_path_seconds,
            ).total
        if plan.layout == "1d":
            msgs, nbytes = comm_estimate_1d(tg, plan.nprocs)
        else:
            msgs, nbytes = comm_estimate_2d(tg, plan.pr, plan.pc)
        return plan_time_model(
            self.spec,
            total_seconds=prof.total_seconds,
            cp_seconds=prof.critical_path_seconds,
            nprocs=plan.nprocs,
            layout=plan.layout,
            comm_messages=msgs,
            comm_bytes=nbytes,
            synchronous=plan.synchronous,
            n_stages=tg.N,
        ).total

    def pattern_state(self, A) -> "_PatternState":
        """Build (once) the shared pattern-only pipeline state for ``A``;
        pass it to :meth:`simulate_plan` / :meth:`model_seconds` to reuse
        the ordering/symbolic/partition work across many evaluations."""
        return _PatternState(A, self.spec)

    # -- probe stage ---------------------------------------------------

    def simulate_plan(self, A_or_state, plan: TuningPlan,
                      fraction: float = 1.0) -> dict:
        """One deterministic simulator probe of ``plan``.

        Returns ``{"seconds", "fraction", "busy", "comm", "idle"}`` —
        the probe's virtual makespan and its trace-attributed time
        fractions.  ``fraction < 1`` runs only the elimination-stage
        prefix covering that share of the matrix columns (the successive-
        halving fidelity knob).  Sequential plans are priced analytically
        (the static tally *is* their exact modeled time) at zero budget
        cost.
        """
        state = (
            A_or_state
            if isinstance(A_or_state, _PatternState)
            else _PatternState(A_or_state, self.spec)
        )
        part, bstruct, tg, prof = state.blocking(
            plan.block_size, plan.amalgamation
        )
        if plan.method == "sequential":
            return {
                "seconds": prof.total_seconds * min(fraction, 1.0),
                "fraction": min(fraction, 1.0),
                "busy": 1.0, "comm": 0.0, "idle": 0.0,
            }
        cap = state.stage_cap(part, fraction)
        tracer = Tracer()
        res = factorize(
            plan.method, state.om.A, part, bstruct, plan.nprocs, self.spec,
            grid=plan.grid(), tg=tg, sim_opts={"tracer": tracer},
            stage_range=None if cap is None else (0, cap),
        )
        self._count("probes")
        attr = profile_trace(tracer, total_time=res.parallel_seconds).attribution()
        return dict(
            attr,
            seconds=res.parallel_seconds,
            fraction=fraction if cap is not None else 1.0,
        )

    # -- the search ----------------------------------------------------

    def tune(self, A) -> TuneResult:
        """Run the full search for ``A``'s pattern; returns the winning
        plan and the complete search trace."""
        self._count("searches")
        state = _PatternState(A, self.spec)
        space_kwargs = {}
        if self.block_sizes is not None:
            space_kwargs["block_sizes"] = self.block_sizes
        if self.amalgamations is not None:
            space_kwargs["amalgamations"] = self.amalgamations
        plans = enumerate_plans(self.nprocs, **space_kwargs)
        records = [
            ProbeRecord(plan=p, model_seconds=self.model_seconds(state, p))
            for p in plans
        ]

        # analytic pruning: drop everything the model puts hopelessly
        # behind the best candidate
        best_model = min(r.model_seconds for r in records)
        budget = self.budget
        if budget == "auto":
            budget = AUTO_BUDGET_FACTOR * best_model
        survivors = []
        for r in records:
            if r.model_seconds > self.prune_ratio * best_model:
                r.status = "pruned-model"
                self._count("pruned")
            else:
                survivors.append(r)

        # deterministic search order: modeled time ascending; the seed
        # only permutes exact ties
        rng = np.random.default_rng(self.seed)
        jitter = {id(r): float(t) for r, t in zip(
            survivors, rng.random(len(survivors)))}
        survivors.sort(
            key=lambda r: (r.model_seconds, jitter[id(r)])
        )

        spent = 0.0
        n_probes = 0
        exhausted = False
        t_search = (
            self.tracer.track_end("tune/search")
            if self.tracer is not None else 0.0
        )
        for rung, fraction in enumerate(self.rungs):
            for i, r in enumerate(survivors):
                if budget is not None and spent >= budget \
                        and n_probes > 0:
                    exhausted = True  # always afford at least one probe
                # the final rung always validates the leading candidate at
                # full fidelity, so the winner's makespan is measured even
                # under a hard budget (overrun <= one factorization)
                validate_leader = fraction >= 1.0 and i == 0
                if exhausted and not validate_leader:
                    if r.rung < 0:
                        r.status = "skipped-budget"
                        self._count("skipped")
                    continue
                probe = self.simulate_plan(state, r.plan, fraction)
                if r.plan.method != "sequential":
                    # sequential plans are priced analytically (the static
                    # tally is exact), so they never consume probe budget
                    spent += probe["seconds"]
                n_probes += 1
                r.probes.append(dict(probe, rung=rung))
                r.rung = rung
                if r.status == "candidate":
                    r.status = "probed"
                if fraction >= 1.0:
                    r.full_seconds = probe["seconds"]
                if self.tracer is not None:
                    self.tracer.span(
                        "tune/search", f"probe {r.plan.describe()}", PHASE,
                        t_search, t_search + probe["seconds"],
                        {"rung": rung, "fraction": probe["fraction"],
                         "seconds": probe["seconds"]},
                    )
                    t_search += probe["seconds"]
            # rank within the rung: same-fidelity probes first (measured
            # makespans are only comparable at equal fractions), anything
            # the budget skipped keeps its previous-rung / model ranking
            survivors.sort(key=lambda r: (
                0 if r.rung == rung else 1,
                r.last_probe_seconds
                if r.last_probe_seconds is not None else float("inf"),
                r.model_seconds,
            ))
            if fraction >= 1.0:
                break
            keep = max(1, (len(survivors) + 1) // 2)
            nxt = []
            for i, r in enumerate(survivors):
                probe = r.probes[-1] if r.probes else None
                comm_bound = (
                    probe is not None
                    and probe["comm"] + probe["idle"] > self.comm_bound
                )
                if i < keep and not (comm_bound and i > 0):
                    nxt.append(r)
                elif comm_bound and r.status == "probed":
                    r.status = "rejected-comm"
                    self._count("rejected_comm")
            survivors = nxt

        winner = survivors[0]
        winner.status = "winner"
        return TuneResult(
            best=winner.plan,
            pattern=state.art.key,
            machine=self.spec.name,
            nprocs=self.nprocs,
            seed=self.seed,
            budget=budget,  # resolved: "auto" recorded as its float value
            budget_spent=spent,
            records=records,
            best_seconds=winner.full_seconds,
        )
