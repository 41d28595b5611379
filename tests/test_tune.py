"""Tests for :mod:`repro.tune` — plans, the plan cache, the search, and
its solver/service integration.

Covers the PR's acceptance criteria: JSON round-trips (property-tested,
including cache eviction stats), bit-identical results between a tuned
run and the same configuration passed manually, bit-reproducible searches
for a fixed ``(seed, budget)``, the Eq. (4)-model-vs-simulator regression
tolerance, and a tuning service paying zero extra probes on
repeated-pattern workloads.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import SStarSolver
from repro.machine import T3E
from repro.matrices import get_matrix
from repro.service import SolveService
from repro.tune import (
    BLOCK_SIZES,
    PlanCache,
    Tuner,
    TuningPlan,
    default_plan,
    enumerate_plans,
    grid_shapes,
    plan_cache_key,
)

# -- TuningPlan ---------------------------------------------------------


def test_plan_validation():
    with pytest.raises(ValueError):
        TuningPlan(layout="3d")
    with pytest.raises(ValueError):
        TuningPlan(layout="1d", nprocs=4, pipeline="eager")
    with pytest.raises(ValueError):
        TuningPlan(layout="2d", nprocs=4, pr=3, pc=2)


def test_plan_method_strings():
    assert TuningPlan().method == "sequential"
    assert TuningPlan(layout="1d", nprocs=4).method == "1d-rapid"
    assert TuningPlan(layout="1d", nprocs=4, pipeline="ca").method == "1d-ca"
    p2 = TuningPlan(layout="2d", nprocs=4, pr=2, pc=2)
    assert p2.method == "2d"
    assert p2.grid().pr == 2 and p2.grid().pc == 2
    assert TuningPlan(layout="2d", nprocs=4, pr=2, pc=2,
                      synchronous=True).method == "2d-sync"


def test_plan_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown TuningPlan fields"):
        TuningPlan.from_dict({"block_size": 8, "bogus_knob": 1})


def _plans():
    """Hypothesis strategy over *valid* TuningPlans (grid consistent)."""
    seq = st.builds(
        TuningPlan,
        block_size=st.sampled_from(BLOCK_SIZES),
        amalgamation=st.integers(1, 8),
    )
    oned = st.builds(
        TuningPlan,
        block_size=st.sampled_from(BLOCK_SIZES),
        amalgamation=st.integers(1, 8),
        layout=st.just("1d"),
        nprocs=st.integers(2, 64),
        pipeline=st.sampled_from(["rapid", "ca"]),
        ckpt_interval=st.one_of(st.none(), st.integers(1, 16)),
    )
    twod = st.integers(2, 32).flatmap(
        lambda p: st.tuples(
            st.sampled_from(grid_shapes(p)),
            st.sampled_from(BLOCK_SIZES),
            st.booleans(),
        ).map(
            lambda t: TuningPlan(
                block_size=t[1], layout="2d", nprocs=p,
                pr=t[0][0], pc=t[0][1], synchronous=t[2],
            )
        )
    )
    return st.one_of(seq, oned, twod)


@given(_plans())
@settings(max_examples=50, deadline=None)
def test_plan_json_roundtrip(plan):
    assert TuningPlan.from_json(plan.to_json()) == plan
    # dict round trip too, and the dict is pure JSON types
    d = json.loads(plan.to_json())
    assert TuningPlan.from_dict(d) == plan


@given(_plans())
@settings(max_examples=25, deadline=None)
def test_plan_solver_opts_construct(plan):
    """Every generated plan yields kwargs SStarSolver accepts."""
    s = SStarSolver(**plan.solver_opts())
    assert s.block_size == plan.block_size


# -- PlanCache ----------------------------------------------------------


def test_plan_cache_lru_and_eviction():
    cache = PlanCache(max_entries=2)
    k = [plan_cache_key(f"pat{i}", "T3E", 4) for i in range(3)]
    p = [TuningPlan(block_size=b) for b in (4, 8, 16)]
    cache.put(k[0], p[0])
    cache.put(k[1], p[1])
    assert cache.get(k[0]) == p[0]  # k0 now MRU
    cache.put(k[2], p[2])  # evicts k1 (LRU)
    assert cache.get(k[1]) is None
    assert cache.get(k[2]) == p[2]
    s = cache.stats
    assert (s.hits, s.misses, s.evictions, s.entries) == (2, 1, 1, 2)
    assert s.hit_rate == pytest.approx(2 / 3)
    # peek has no side effects
    cache.peek(k[0])
    assert cache.stats.hits == 2


@given(
    st.lists(st.tuples(st.integers(0, 9), _plans()), max_size=20),
    st.lists(st.integers(0, 9), max_size=10),
    st.integers(1, 4),
)
@settings(max_examples=30, deadline=None)
def test_plan_cache_json_roundtrip(puts, gets, max_entries):
    """Random workload -> serialize -> deserialize is bit-identical:
    same entries, same LRU order, same hit/miss/eviction counters."""
    cache = PlanCache(max_entries=max_entries)
    for i, plan in puts:
        cache.put(plan_cache_key(f"p{i}", "T3E", plan.nprocs), plan)
    for i in gets:
        cache.get(plan_cache_key(f"p{i}", "T3E", 1))
    js = cache.to_json()
    back = PlanCache.from_json(js)
    assert back.to_json() == js
    assert list(back._entries) == list(cache._entries)  # LRU order
    assert back.stats.as_dict() == cache.stats.as_dict()
    assert len(back) <= max_entries


# -- the search ---------------------------------------------------------


@pytest.fixture(scope="module")
def sherman5():
    return get_matrix("sherman5", "small")


@pytest.fixture(scope="module")
def tuned_result(sherman5):
    return Tuner(spec=T3E, nprocs=4, budget="auto", seed=0).tune(sherman5)


def test_space_enumeration_counts():
    seq = enumerate_plans(1)
    assert all(p.method == "sequential" for p in seq)
    assert len(seq) == len(BLOCK_SIZES)
    par = enumerate_plans(4)
    # per block size: 2 1D flavours + 2 paper-regime grids x {async, sync}
    assert len(par) == len(BLOCK_SIZES) * (2 + 2 * 2)
    assert all(p.nprocs == 4 for p in par)


def test_tune_deterministic_bit_for_bit(sherman5, tuned_result):
    again = Tuner(spec=T3E, nprocs=4, budget="auto", seed=0).tune(sherman5)
    assert again.to_json() == tuned_result.to_json()


def test_tune_result_shape(tuned_result):
    res = tuned_result
    assert res.best_seconds is not None and res.best_seconds > 0
    assert res.nprocs == 4 and res.machine == "T3E"
    statuses = {r.status for r in res.records}
    assert "winner" in statuses and "pruned-model" in statuses
    winners = [r for r in res.records if r.status == "winner"]
    assert len(winners) == 1 and winners[0].plan == res.best
    # the budget was resolved from "auto" to a float and respected up to
    # the final leader-validation probe
    assert isinstance(res.budget, float)
    # search trace JSON round-trips
    d = json.loads(res.to_json())
    assert d["best"] == res.best.as_dict()
    assert len(d["records"]) == len(res.records)


def test_tune_tiny_budget_still_validates_winner(sherman5):
    """Even a budget too small for a single probe must yield a winner
    measured at full fidelity (overrun <= one factorization)."""
    res = Tuner(spec=T3E, nprocs=4, budget=1e-12, seed=0).tune(sherman5)
    assert res.best_seconds is not None and res.best_seconds > 0
    assert any(r.status == "skipped-budget" for r in res.records)


def test_tune_sequential_budget(sherman5):
    res = Tuner(spec=T3E, nprocs=1, seed=0).tune(sherman5)
    assert res.best.method == "sequential"
    # sequential probes are priced analytically: zero budget consumed
    assert res.budget_spent == 0.0


def test_tuned_beats_default_on_sherman5(sherman5, tuned_result):
    tuner = Tuner(spec=T3E, nprocs=4, seed=0)
    base = tuner.simulate_plan(sherman5, default_plan(4))
    assert tuned_result.best_seconds <= base["seconds"] * (1 + 1e-9)


# -- Eq. (4) model vs simulator regression ------------------------------

#: Stated tolerance of the pattern-only plan-time model against the
#: simulator: 1D predictions stay within [0.6, 1.6]x of simulated time,
#: 2D within [0.2, 2.0]x (the 2D comm estimator is a per-stage upper
#: shape, not a schedule).  ``Tuner.prune_ratio`` (default 2.0) relies on
#: this band: the model may only be wrong by less than the pruning slack.
MODEL_TOL_1D = (0.6, 1.6)
MODEL_TOL_2D = (0.2, 2.0)

MODEL_SUITE = ["sherman5", "goodwin", "jpwh991", "orsreg1", "saylr4",
               "memplus", "wang3", "dense1000"]


@pytest.mark.parametrize("name", MODEL_SUITE)
def test_model_vs_simulator_regression(name):
    A = get_matrix(name, "small")
    tuner = Tuner(spec=T3E, nprocs=8)
    state = tuner.pattern_state(A)
    plans = [
        TuningPlan(block_size=25, amalgamation=4, layout="1d", nprocs=8),
        TuningPlan(block_size=8, amalgamation=4, layout="1d", nprocs=8),
        default_plan(8),  # 2d async on the preferred grid
    ]
    for plan in plans:
        model = tuner.model_seconds(state, plan)
        sim = tuner.simulate_plan(state, plan)["seconds"]
        lo, hi = MODEL_TOL_1D if plan.layout == "1d" else MODEL_TOL_2D
        assert lo <= model / sim <= hi, (
            f"{name} {plan.describe()}: model {model:.6f} vs "
            f"simulated {sim:.6f} (ratio {model / sim:.2f})"
        )
    # sequential prediction is exact: the static tally *is* the model
    seq = TuningPlan(block_size=25, amalgamation=4)
    model = tuner.model_seconds(state, seq)
    sim = tuner.simulate_plan(state, seq)["seconds"]
    assert model == pytest.approx(sim, rel=1e-12)


# -- solver integration -------------------------------------------------


def test_solver_tuned_vs_manual_bit_identical(sherman5):
    rng = np.random.default_rng(3)
    b = rng.standard_normal(sherman5.nrows)
    tuned = SStarSolver(nprocs=4, tune=True, tune_seed=0)
    tuned.factor(sherman5)
    assert tuned.tune_result is not None
    assert tuned.plan == tuned.tune_result.best
    x_tuned = tuned.solve(b)
    manual = SStarSolver(**tuned.plan.solver_opts())
    manual.factor(sherman5)
    x_manual = manual.solve(b)
    assert np.array_equal(x_tuned, x_manual)
    assert tuned.report.parallel_seconds == manual.report.parallel_seconds


def test_solver_plan_cache_skips_second_search(sherman5):
    cache = PlanCache()
    s1 = SStarSolver(nprocs=4, tune=True, plan_cache=cache)
    s1.factor(sherman5)
    assert s1.tune_result is not None  # searched
    s2 = SStarSolver(nprocs=4, tune=True, plan_cache=cache)
    s2.factor(sherman5)
    assert s2.tune_result is None  # cache hit: no second search
    assert s2.plan == s1.plan
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    # refactorization on the same solver re-resolves from the cache too
    s2.factor(sherman5.with_values(sherman5.data * 1.5))
    assert s2.tune_result is None


# -- service integration ------------------------------------------------


def test_service_repeated_pattern_tunes_once(sherman5):
    svc = SolveService(solver_opts={"nprocs": 4, "tune": True})
    rng = np.random.default_rng(11)
    n = sherman5.nrows
    for _ in range(3):
        # drain per job so each one runs its own factor (no multi-RHS
        # coalescing hiding the counters)
        svc.submit(sherman5.with_values(
            sherman5.data * (1 + 0.01 * rng.standard_normal(sherman5.nnz))
        ), rng.standard_normal(n))
        svc.drain()
    counters = svc.metrics_registry.as_dict()["counters"]
    assert counters["tune.searches"] == 1
    assert counters["tune.plan_cache.misses"] == 1
    probes_after_first = counters["tune.probes"]

    # more same-pattern jobs: zero additional tuning probes
    for _ in range(2):
        svc.submit(sherman5, rng.standard_normal(n))
        svc.drain()
    counters = svc.metrics_registry.as_dict()["counters"]
    assert counters["tune.searches"] == 1
    assert counters["tune.probes"] == probes_after_first
    assert counters["tune.plan_cache.hits"] >= 2
    for jid in range(svc.metrics().jobs_completed):
        job = svc.job(jid)
        assert job.status == "done"
