"""Fault injection, reliable delivery and checkpoint/restart.

The acceptance-criteria tests of the resilience layer: under a seeded
``FaultPlan`` dropping >=5% of messages the 1D CA and 2D async codes must
complete with the retry transport on and produce **bit-identical** factors
to the fault-free run; the same plan with retries off must raise a *typed*
delivery error (never ``DeadlockError``); a mid-factorization rank crash
must recover via checkpoint/restart with a residual within 10x of the
fault-free run, and the recovered traces must pass the trace checks of
``repro.verify`` (retransmits recognized, no leaks).
"""

import numpy as np
import pytest

from repro.api.fixtures import prepare_pipeline
from repro.machine import (
    GENERIC,
    T3E,
    CrashFault,
    DeadlockError,
    DeliveryError,
    FaultPlan,
    MessageFaultRule,
    MessageLostError,
    RankCrashedError,
    ReliableDelivery,
    Simulator,
)
from repro.machine.faults import CORRUPT, DELAY, DROP, DUPLICATE
from repro.matrices import random_nonsymmetric
from repro.numfact import (
    LUFactorization,
    NumericalError,
    PivotMonitor,
    SingularMatrixError,
    sstar_factor,
)
from repro.obs import BARRIER_WAIT, Tracer
from repro.ordering import prepare_matrix
from repro.parallel import factorize, run_1d, run_2d
from repro.sparse import csr_matvec
from repro.supernodes import build_block_structure, build_partition
from repro.symbolic import static_symbolic_factorization
from repro.verify import check_run


N = 90


@pytest.fixture(scope="module")
def sherman5_2d_sync():
    """sherman5 on 4 simulated T3E nodes: the factorize arguments, the
    fault-free 2d-sync run, and that run's trace."""
    p = prepare_pipeline("sherman5")
    args = (p["om"].A, p["part"], p["bstruct"], 4, T3E)
    tracer = Tracer()
    base = factorize("2d-sync", *args, sim_opts={"tracer": tracer})
    return args, base, tracer


@pytest.fixture(scope="module")
def pipeline():
    A = random_nonsymmetric(N, density=0.06, seed=31)
    om = prepare_matrix(A)
    sym = static_symbolic_factorization(om.A)
    part = build_partition(sym, max_size=6, amalgamation=4)
    bstruct = build_block_structure(sym, part)
    seq = sstar_factor(om.A, sym=sym, part=part)
    return dict(om=om, sym=sym, part=part, bstruct=bstruct, seq=seq)


def _bitwise_equal(a, b):
    if set(a.blocks) != set(b.blocks) or a.pivot_seq != b.pivot_seq:
        return False
    return all(np.array_equal(a.blocks[k], b.blocks[k]) for k in a.blocks)


def _residual(p, factor, counter=None):
    lf = LUFactorization(factor, p["sym"], p["part"], p["bstruct"], counter)
    b = np.arange(float(N))
    x = lf.solve(b)
    r = csr_matvec(p["om"].A, x) - b
    return np.linalg.norm(r) / (np.linalg.norm(b))


# ---------------------------------------------------------------------------
# FaultPlan: determinism and serialization
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_decisions_are_deterministic_and_order_free(self):
        plan = FaultPlan.drops(0.3, seed=9)
        msgs = [(s, d, ("col", k)) for s in range(3) for d in range(3)
                for k in range(10) if s != d]
        first = [plan.message_fault(*m) is not None for m in msgs]
        second = [plan.message_fault(*m) is not None
                  for m in reversed(msgs)][::-1]
        assert first == second
        assert 0 < sum(first) < len(first)  # rate is neither 0 nor 1

    def test_attempts_get_fresh_coin_flips(self):
        plan = FaultPlan.drops(0.5, seed=2)
        outcomes = {plan.message_fault(0, 1, ("x",), attempt=a) is not None
                    for a in range(16)}
        assert outcomes == {True, False}

    def test_rule_predicates(self):
        rule = MessageFaultRule(DROP, src=0, dest=2, tag_prefix=("col",))
        assert rule.matches(0, 2, ("col", 5))
        assert not rule.matches(1, 2, ("col", 5))
        assert not rule.matches(0, 1, ("col", 5))
        assert not rule.matches(0, 2, ("lcol", 5))

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            [MessageFaultRule(DELAY, rate=0.25, src=1, tag_prefix=("urow",),
                              delay_s=1e-4)],
            [CrashFault(2, 0.5)],
            seed=77,
        )
        path = tmp_path / "plan.json"
        plan.to_json(str(path))
        back = FaultPlan.from_json(str(path))
        assert back.to_dict() == plan.to_dict()
        # decisions survive the round trip
        for m in [(1, 0, ("urow", 3, 0)), (1, 2, ("urow", 9, 1))]:
            assert (plan.message_fault(*m) is None) == (
                back.message_fault(*m) is None)
        assert FaultPlan.from_json(plan.to_json()).to_dict() == plan.to_dict()

    def test_after_crash_renumbers_ranks(self):
        plan = FaultPlan(
            [MessageFaultRule(DROP, rate=0.5, src=3, dest=1)],
            [CrashFault(1, 0.2), CrashFault(3, 0.6)],
            seed=1,
        )
        shrunk = plan.after_crash(1, elapsed=0.25)
        # rules touching the dead rank are gone; rank 3 became rank 2
        assert shrunk.rules == []
        assert shrunk.crashes == [CrashFault(2, pytest.approx(0.35))]

    def test_one_crash_per_rank(self):
        with pytest.raises(ValueError):
            FaultPlan(crashes=[CrashFault(0, 0.1), CrashFault(0, 0.2)])

    def test_bad_rule_rejected(self):
        with pytest.raises(ValueError):
            MessageFaultRule("explode")
        with pytest.raises(ValueError):
            MessageFaultRule(DROP, rate=1.5)


# ---------------------------------------------------------------------------
# reliable delivery on the factorization codes (acceptance criteria)
# ---------------------------------------------------------------------------


DROP_PLAN = FaultPlan.drops(0.08, seed=42)  # >= 5% of messages


class TestReliableDelivery:
    def test_1d_ca_drops_with_retry_bit_identical(self, pipeline):
        from repro.obs import Tracer

        p = pipeline
        clean = run_1d(p["om"].A, p["part"], p["bstruct"], 4, GENERIC,
                       method="ca")
        tracer = Tracer()
        faulty = run_1d(p["om"].A, p["part"], p["bstruct"], 4, GENERIC,
                        method="ca",
                        sim_opts={"faults": DROP_PLAN, "reliable": True,
                                  "tracer": tracer})
        assert faulty.sim.fault_stats.dropped >= 1
        assert faulty.sim.fault_stats.retransmits >= 1
        assert _bitwise_equal(clean.factor, faulty.factor)
        # retries cost virtual time: the faulty run cannot be faster
        assert faulty.sim.total_time >= clean.sim.total_time
        # the metrics registry mirrors the transport's fault accounting
        m = tracer.metrics
        assert m.value("sim.retransmits") == faulty.sim.fault_stats.retransmits
        assert m.value("sim.faults.dropped") == faulty.sim.fault_stats.dropped

    def test_2d_async_drops_with_retry_bit_identical(self, pipeline):
        p = pipeline
        clean = run_2d(p["om"].A, p["part"], p["bstruct"], 4, GENERIC)
        faulty = run_2d(p["om"].A, p["part"], p["bstruct"], 4, GENERIC,
                        sim_opts={"faults": DROP_PLAN, "reliable": True})
        assert faulty.sim.fault_stats.retransmits >= 1
        assert _bitwise_equal(clean.factor, faulty.factor)

    def test_drops_without_retry_raise_typed_error(self, pipeline):
        p = pipeline
        with pytest.raises(MessageLostError) as ei:
            run_1d(p["om"].A, p["part"], p["bstruct"], 4, GENERIC,
                   method="ca", sim_opts={"faults": DROP_PLAN})
        # typed delivery failure, NOT a deadlock; and it names the message
        assert not isinstance(ei.value, DeadlockError)
        assert isinstance(ei.value, DeliveryError)
        assert ei.value.dest is not None and ei.value.tag is not None

    def test_retry_exhaustion_is_typed(self):
        def prog(env):
            if env.rank == 0:
                env.send(1, ("x",), 1.0)
            else:
                yield env.recv(("x",))

        with pytest.raises(DeliveryError) as ei:
            Simulator(2, GENERIC, prog,
                      faults=FaultPlan.drops(1.0),
                      reliable=ReliableDelivery(max_attempts=3)).run()
        assert ei.value.attempts == 3

    def test_corruption_detected_and_retransmitted(self, pipeline):
        p = pipeline
        clean = run_1d(p["om"].A, p["part"], p["bstruct"], 3, GENERIC,
                       method="ca")
        plan = FaultPlan([MessageFaultRule(CORRUPT, rate=0.1)], seed=5)
        faulty = run_1d(p["om"].A, p["part"], p["bstruct"], 3, GENERIC,
                        method="ca",
                        sim_opts={"faults": plan, "reliable": True})
        assert faulty.sim.fault_stats.corrupted >= 1
        # checksum rejects the corrupted copies; numerics are untouched
        assert _bitwise_equal(clean.factor, faulty.factor)

    def test_duplicates_and_delays_are_harmless(self, pipeline):
        p = pipeline
        clean = run_1d(p["om"].A, p["part"], p["bstruct"], 3, GENERIC,
                       method="ca")
        plan = FaultPlan(
            [MessageFaultRule(DUPLICATE, rate=0.2),
             MessageFaultRule(DELAY, rate=0.2, delay_s=5e-6)],
            seed=11,
        )
        faulty = run_1d(p["om"].A, p["part"], p["bstruct"], 3, GENERIC,
                        method="ca", sim_opts={"faults": plan, "trace": True})
        stats = faulty.sim.fault_stats
        assert stats.duplicated + stats.delayed >= 1
        assert _bitwise_equal(clean.factor, faulty.factor)
        # and the trace checker accepts the duplicate copies
        assert check_run(faulty.sim, spec=GENERIC).ok

    def test_faulty_trace_passes_protocol_checks(self, pipeline):
        p = pipeline
        res = run_1d(p["om"].A, p["part"], p["bstruct"], 4, GENERIC,
                     method="ca",
                     sim_opts={"faults": DROP_PLAN, "reliable": True,
                               "trace": True})
        report = check_run(res.sim, spec=GENERIC)
        assert report.ok, [str(v) for v in report.violations]

    def test_faulty_run_replays_bit_identically(self, pipeline):
        p = pipeline
        runs = []
        for order in ([0, 1, 2, 3], [3, 1, 0, 2]):
            res = run_1d(p["om"].A, p["part"], p["bstruct"], 4, GENERIC,
                         method="ca",
                         sim_opts={"faults": DROP_PLAN, "reliable": True,
                                   "host_order": order})
            runs.append(res)
        assert _bitwise_equal(runs[0].factor, runs[1].factor)
        assert runs[0].sim.rank_clocks == runs[1].sim.rank_clocks
        assert runs[0].sim.fault_stats.dropped == runs[1].sim.fault_stats.dropped


# ---------------------------------------------------------------------------
# deadlock diagnostics (satellite)
# ---------------------------------------------------------------------------


class TestTimeouts:
    def test_deadlock_diagnostics_survive(self):
        """A deadlock raises DeadlockError with the per-rank awaited tag
        and the undelivered-mailbox contents."""

        def prog(env):
            if env.rank == 0:
                env.send(1, ("unexpected", 9), 1.0)
                yield env.recv(("also-never",))
            else:
                yield env.recv(("never",))

        with pytest.raises(DeadlockError) as ei:
            Simulator(2, GENERIC, prog).run()
        e = ei.value
        assert (0, ("also-never",)) in e.blocked
        assert (1, ("never",)) in e.blocked
        inbox = e.pending.get(1, [])
        assert any(tag == ("unexpected", 9) for tag, _, _ in inbox)
        assert "undelivered" in str(e)


# ---------------------------------------------------------------------------
# rank crashes and checkpoint/restart (acceptance criteria)
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_crash_raises_typed_error_with_heartbeat(self):
        def prog(env):
            if env.rank == 0:
                env.send(1, ("x",), 1.0)
                yield env.recv(("reply",))  # never comes: rank 1 is dead
            else:
                got = yield env.recv(("x",))
                env.send(0, ("reply",), got)

        crash_t = 1e-6
        with pytest.raises(RankCrashedError) as ei:
            Simulator(2, GENERIC, prog,
                      faults=FaultPlan().with_crash(1, crash_t)).run()
        e = ei.value
        assert e.ranks == [1]
        assert e.detected_at >= crash_t
        assert (0, ("reply",)) in e.blocked

    def test_barrier_with_dead_rank_raises(self):
        def prog(env):
            env.compute("blas1", 1e6)
            yield env.barrier()

        with pytest.raises(RankCrashedError) as ei:
            Simulator(3, GENERIC, prog,
                      faults=FaultPlan().with_crash(2, 0.0)).run()
        assert ei.value.ranks == [2]
        assert any(what == "barrier" for _, what in ei.value.blocked)

    def test_crash_inside_a_barrier_wait_fires(self, sherman5_2d_sync):
        # a crash scheduled while rank 1 waits at its last barrier: the
        # barrier can no longer complete, so the run fails typed
        args, _, tracer = sherman5_2d_sync
        waits = [s for s in tracer.spans
                 if s.track == 1 and s.cat == BARRIER_WAIT]
        t = 0.5 * (waits[-1].start + waits[-1].end)
        with pytest.raises(RankCrashedError) as ei:
            factorize("2d-sync", *args, sim_opts={
                "faults": FaultPlan(crashes=[CrashFault(1, t)])})
        assert ei.value.ranks == [1]
        assert ei.value.crash_times == {1: t}
        assert any(what == "barrier" for _, what in ei.value.blocked)

    def test_checkpointed_host_order_follows_the_shrink(
            self, sherman5_2d_sync, monkeypatch):
        # the survivors of a crash keep their relative host order,
        # renumbered as the fault plan renumbers them
        from repro.parallel import resilience

        args, base, _ = sherman5_2d_sync
        orders = []

        class Recording(Simulator):
            def __init__(self, nprocs, *a, host_order=None, **kw):
                orders.append(host_order)
                super().__init__(nprocs, *a, host_order=host_order, **kw)

        monkeypatch.setattr(resilience, "Simulator", Recording)
        plan = FaultPlan(crashes=[CrashFault(2, 0.4 * base.parallel_seconds)])
        res = factorize("1d-ca", *args, ckpt_interval=3, sim_opts={
            "faults": plan, "reliable": True, "host_order": [2, 0, 3, 1]})
        assert res.crashes == [2]
        assert [2, 0, 3, 1] in orders and orders[-1] == [0, 2, 1]

    def test_crash_after_the_run_changes_nothing(self, sherman5_2d_sync):
        # a stale crash event left on the heap neither kills a finished
        # rank nor holds back a barrier release
        args, base, _ = sherman5_2d_sync
        late = 2.0 * base.parallel_seconds
        res = factorize("2d-sync", *args, sim_opts={
            "faults": FaultPlan(crashes=[CrashFault(1, late)])})
        assert res.crashes == [] and res.fault_stats.crashes == []
        assert res.parallel_seconds == base.parallel_seconds
        assert res.sim.rank_clocks == base.sim.rank_clocks
        assert (res.messages, res.bytes_sent) == (base.messages,
                                                  base.bytes_sent)
        assert _bitwise_equal(res.factor, base.factor)

    def test_crash_in_the_last_compute_segment_fires_at_return(self):
        # rank 1 computes past its crash time and returns without yielding
        # again: it dies at its return clock
        def prog(env):
            env.compute("blas1", 1e6)
            return env.rank
            yield  # a generator program

        res = Simulator(2, GENERIC, prog,
                        faults=FaultPlan().with_crash(1, 1e-6)).run()
        assert res.crashed == [1]
        assert res.fault_stats.crashes == [(1, res.rank_clocks[1])]
        assert res.rank_clocks[1] > 1e-6
        assert res.returns == [0, None]

    def _crash_plan(self, pipeline, frac=0.4, rank=3, nprocs=4):
        p = pipeline
        base = run_1d(p["om"].A, p["part"], p["bstruct"], nprocs, GENERIC,
                      method="ca")
        return base, FaultPlan().with_crash(rank, frac * base.sim.total_time)

    def test_1d_checkpoint_restart_recovers(self, pipeline):
        p = pipeline
        base, plan = self._crash_plan(pipeline)
        res = factorize("1d-ca", p["om"].A, p["part"], p["bstruct"], 4,
                        GENERIC, ckpt_interval=3,
                        sim_opts={"trace": True, "faults": plan,
                                  "reliable": True})
        assert res.nprocs_final == 3
        failed = [r for r in res.rounds if not r.ok]
        assert len(failed) == 1 and failed[0].crashed == (3,)
        # recovery replays the same arithmetic: bit-identical, so trivially
        # within the 10x-residual acceptance bound
        assert _bitwise_equal(base.factor, res.factor)
        r_clean = _residual(p, base.factor)
        r_rec = _residual(p, res.factor)
        assert r_rec <= 10.0 * max(r_clean, 1e-300)
        # detection + redo time is accounted for
        assert res.parallel_seconds > base.sim.total_time

    def test_recovered_round_traces_pass_verify(self, pipeline):
        p = pipeline
        base, plan = self._crash_plan(pipeline)
        plan = FaultPlan(DROP_PLAN.rules, plan.crashes, seed=DROP_PLAN.seed)
        res = factorize("1d-ca", p["om"].A, p["part"], p["bstruct"], 4,
                        GENERIC, ckpt_interval=3,
                        sim_opts={"trace": True, "faults": plan,
                                  "reliable": True})
        assert _bitwise_equal(base.factor, res.factor)
        assert res.sims  # committed rounds carry their SimResults
        for sim in res.sims:
            report = check_run(sim, spec=GENERIC)
            assert report.ok, [str(v) for v in report.violations]

    def test_2d_checkpoint_restart_recovers(self, pipeline):
        p = pipeline
        base = run_2d(p["om"].A, p["part"], p["bstruct"], 4, GENERIC)
        plan = FaultPlan().with_crash(2, 0.4 * base.sim.total_time)
        res = factorize("2d", p["om"].A, p["part"], p["bstruct"], 4, GENERIC,
                        ckpt_interval=3,
                        sim_opts={"faults": plan, "reliable": True})
        assert res.nprocs_final == 3
        assert any(not r.ok for r in res.rounds)
        assert _bitwise_equal(base.factor, res.factor)
        r_clean = _residual(p, base.factor)
        r_rec = _residual(p, res.factor)
        assert r_rec <= 10.0 * max(r_clean, 1e-300)

    def test_fault_free_resilient_matches_plain_run(self, pipeline):
        p = pipeline
        base = run_1d(p["om"].A, p["part"], p["bstruct"], 4, GENERIC,
                      method="ca")
        res = factorize("1d-ca", p["om"].A, p["part"], p["bstruct"], 4,
                        GENERIC, ckpt_interval=4, sim_opts={"reliable": True})
        assert all(r.ok for r in res.rounds)
        assert _bitwise_equal(base.factor, res.factor)


# ---------------------------------------------------------------------------
# numerical robustness (satellite + tentpole part 4)
# ---------------------------------------------------------------------------


def _singular_dense(n=12):
    """Structurally nonsingular, numerically singular: two equal rows."""
    rng = np.random.default_rng(8)
    A = rng.standard_normal((n, n))
    A[np.abs(A) < 0.4] = 0.0
    np.fill_diagonal(A, 2.0)
    A[n - 2] = A[n - 3]  # exact linear dependence
    return A


class TestNumericalRobustness:
    def test_singular_matrix_raises_typed_error(self):
        from repro.api import SStarSolver

        with pytest.raises(SingularMatrixError) as ei:
            SStarSolver().factor(_singular_dense())
        assert ei.value.pivot_index is not None
        assert 0 <= ei.value.pivot_index < 12

    def test_overflowing_pivot_growth_is_caught(self):
        # a huge column doubles every elimination step: the factorization
        # overflows to inf/NaN, which must surface as a typed error rather
        # than a NaN-filled factor
        from repro.api import SStarSolver

        n = 16
        rng = np.random.default_rng(4)
        A = rng.standard_normal((n, n))
        np.fill_diagonal(A, 3.0)
        A[:, n - 1] = 1e308
        A[n - 1, n - 1] = 1e308
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                solver = SStarSolver().factor(A)
        except SingularMatrixError as e:
            assert e.pivot_index is not None
            return
        # if it factored, no NaN may hide inside
        for blk in solver.factorization.matrix.blocks.values():
            assert np.all(np.isfinite(blk))

    def test_monitor_perturbs_and_records(self):
        mon = PivotMonitor(anorm=1.0)
        v = mon.consider(3, 1e-12)
        assert v == mon.threshold
        assert len(mon.perturbations) == 1
        rec = mon.perturbations[0]
        assert rec.column == 3 and rec.old == 1e-12 and rec.new == v
        assert mon.consider(4, -1e-12) == -mon.threshold
        assert mon.consider(5, 0.5) == 0.5
        assert mon.growth_factor == pytest.approx(0.5)

    def test_monitor_disabled_keeps_values(self):
        mon = PivotMonitor(anorm=1.0, perturb=False)
        assert mon.consider(0, 1e-12) == 1e-12
        assert mon.perturbations == []

    def test_perturbed_factorization_completes(self):
        from repro.api import SStarSolver

        solver = SStarSolver(perturb=True).factor(_singular_dense())
        assert solver.report.perturbed_pivots >= 1
        assert solver.report.growth_factor is not None
        for blk in solver.factorization.matrix.blocks.values():
            assert np.all(np.isfinite(blk))

    def test_refinement_failure_is_typed(self):
        # a tolerance below the eps floor of the backward error cannot be
        # met: the refinement must stall and raise, not return a solution
        # that silently misses the requested accuracy
        from repro.api import SStarSolver

        A = random_nonsymmetric(40, density=0.1, seed=6)
        solver = SStarSolver(refine="always", refine_tol=1e-30).factor(A)
        with pytest.raises(NumericalError) as ei:
            solver.solve(np.ones(40))
        assert ei.value.backward_error is not None
        assert 0.0 < ei.value.backward_error < 1e-10
        assert ei.value.iterations >= 1

    def test_perturbed_singular_solve_refines(self):
        # the companion case: a perturbed-singular factor *with* an
        # attainable tolerance auto-escalates to refinement and succeeds
        from repro.api import SStarSolver

        solver = SStarSolver(perturb=True, refine_tol=1e-6).factor(
            _singular_dense())
        x = solver.solve(np.ones(12))
        assert np.all(np.isfinite(x))
        assert solver.refine_history is not None
        assert solver.refine_history[-1] <= 1e-6

    def test_refine_never_returns_unrefined_solution(self):
        from repro.api import SStarSolver

        solver = SStarSolver(perturb=True, refine="never").factor(
            _singular_dense())
        x = solver.solve(np.ones(12))
        assert x.shape == (12,)

    def test_healthy_matrix_unaffected_by_monitoring(self, pipeline):
        from repro.api import SStarSolver

        p = pipeline
        A = random_nonsymmetric(N, density=0.06, seed=31)
        s1 = SStarSolver().factor(A)
        s2 = SStarSolver(perturb=True, refine="always").factor(A)
        assert s2.report.perturbed_pivots == 0
        b = np.arange(float(N))
        x1, x2 = s1.solve(b), s2.solve(b)
        assert np.linalg.norm(x1 - x2) <= 1e-8 * max(np.linalg.norm(x1), 1.0)

    def test_parallel_run_with_perturbation(self):
        """The 2D code's diagonal-owner perturbation writes through so the
        factor stays consistent across ranks."""
        from repro.api import SStarSolver

        A = _singular_dense(24)
        solver = SStarSolver(nprocs=4, method="2d", perturb=True,
                             refine="never").factor(A)
        assert solver.report.perturbed_pivots >= 1
        for blk in solver.factorization.matrix.blocks.values():
            assert np.all(np.isfinite(blk))


# ---------------------------------------------------------------------------
# solver-level fault routing
# ---------------------------------------------------------------------------


class TestSolverFaultRouting:
    def test_solver_faulty_reliable_solve(self):
        from repro.api import SStarSolver

        A = random_nonsymmetric(60, density=0.08, seed=3)
        clean = SStarSolver(nprocs=4, method="1d-ca").factor(A)
        faulty = SStarSolver(nprocs=4, method="1d-ca",
                             faults=FaultPlan.drops(0.08, seed=42),
                             reliable=True).factor(A)
        b = np.arange(60.0)
        assert np.array_equal(clean.solve(b), faulty.solve(b))

    def test_solver_crash_plan_routes_to_resilient(self):
        from repro.api import SStarSolver

        A = random_nonsymmetric(60, density=0.08, seed=3)
        base = SStarSolver(nprocs=4, method="1d-ca").factor(A)
        crash_t = 0.4 * base.report.parallel_seconds
        solver = SStarSolver(nprocs=4, method="1d-ca",
                             faults=FaultPlan().with_crash(3, crash_t),
                             ckpt_interval=3).factor(A)
        assert len(solver.run_result.rounds) > 1
        assert solver.report.restarts == 1
        b = np.arange(60.0)
        assert np.array_equal(base.solve(b), solver.solve(b))

    def test_sequential_faults_rejected(self):
        from repro.api import SStarSolver

        with pytest.raises(ValueError):
            SStarSolver(faults=FaultPlan.drops(0.1)).factor(
                _singular_dense())
