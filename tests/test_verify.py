"""The repro.verify analyzer suite: seeded-bug detection + clean passes.

Each seeded-bug test injects exactly one protocol defect into a toy SPMD
program and asserts the matching analysis flags exactly that defect, with a
diagnostic naming the offending rank/tag/call-site.
"""

import numpy as np
import pytest

from repro.machine import DeadlockError, GENERIC, SimTrace, Simulator
from repro.machine.simulator import MessageRecord
from repro.taskgraph import FACTOR, UPDATE
from repro.verify import (
    ProtocolViolationError,
    check_messages,
    check_run,
    check_spans_against_dag,
    host_orders,
    parse_span_label,
    replay_check,
)
from repro.verify.pytest_support import trace_checked_simulations


def run_traced(nprocs, program, args=(), **kw):
    return Simulator(nprocs, GENERIC, program, args=args, trace=True, **kw).run()


# ---------------------------------------------------------------------------
# dynamic trace checking
# ---------------------------------------------------------------------------


class TestTraceCheck:
    def test_clean_program_passes(self):
        def prog(env):
            if env.rank == 0:
                env.send(1, ("t", 0), 1.5)
            else:
                v = yield env.recv(("t", 0))
                assert v == 1.5

        res = run_traced(2, prog)
        assert check_messages(res.trace, spec=GENERIC) == []

    def test_tag_collision_detected(self):
        def prog(env):
            if env.rank == 0:
                for i in range(2):  # same (dest, tag) twice: collision
                    env.send(1, ("t", 0), i)
            else:
                for _ in range(2):
                    yield env.recv(("t", 0))

        res = run_traced(2, prog)
        vs = check_messages(res.trace, spec=GENERIC)
        assert [v.rule for v in vs] == ["UNIQUE"]
        assert "dest=1" in vs[0].message and "('t', 0)" in vs[0].message

    def test_leaked_message_detected(self):
        def prog(env):
            if env.rank == 0:
                env.send(1, ("lost", 7), 42)
            yield env.barrier()

        res = run_traced(2, prog)
        vs = check_messages(res.trace, spec=GENERIC)
        assert [v.rule for v in vs] == ["LEAK"]
        assert "('lost', 7)" in vs[0].message and "rank 0" in vs[0].message

    def test_dropped_yield_leaks_dynamically(self):
        def prog(env):
            if env.rank == 0:
                env.send(1, ("t", 0), 42)
            else:
                env.recv(("t", 0))  # missing yield: a silent no-op
            yield env.barrier()

        res = run_traced(2, prog)
        vs = check_messages(res.trace, spec=GENERIC)
        assert [v.rule for v in vs] == ["LEAK"]

    def test_causality_violation_detected(self):
        # fabricate a record arriving before the latency/bandwidth floor
        trace = SimTrace(records=[MessageRecord(
            seq=1, src=0, dest=1, tag=("t", 0), t_send=1.0,
            arrival=1.0, nbytes=8_000_000, t_recv=1.0,
        )])
        vs = check_messages(trace, spec=GENERIC)
        assert any(v.rule == "CAUSAL" for v in vs)

    def test_check_run_requires_trace(self):
        def prog(env):
            return None
            yield  # pragma: no cover

        res = Simulator(1, GENERIC, prog).run()
        report = check_run(res)
        assert not report.ok and report.violations[0].rule == "TRACE"


class TestDagConformance:
    def _graph(self):
        # F0 -> U0,1 -> F1  (rules 1 and 2)
        tasks = [(FACTOR, 0), (UPDATE, 0, 1), (FACTOR, 1)]
        succ = {(FACTOR, 0): [(UPDATE, 0, 1)], (UPDATE, 0, 1): [(FACTOR, 1)]}

        class TG:
            pass

        tg = TG()
        tg.tasks = tasks
        tg.succ = succ
        return tg

    def test_label_parser(self):
        assert parse_span_label("F3") == (FACTOR, 3)
        assert parse_span_label("U3,7") == (UPDATE, 3, 7)
        assert parse_span_label("swap") is None

    def test_conforming_spans_pass(self):
        from repro.obs import TASK, Span

        spans = [
            Span(0, "F0", TASK, 0.0, 1.0),
            Span(1, "U0,1", TASK, 0.5, 2.0),
            Span(1, "F1", TASK, 2.0, 3.0),
        ]
        vs, checked = check_spans_against_dag(spans, self._graph())
        assert vs == [] and checked == 2

    def test_order_violation_detected(self):
        from repro.obs import TASK, Span

        spans = [  # F1 completes before its dependence U0,1: rule 2 broken
            Span(0, "F0", TASK, 0.0, 1.0),
            Span(1, "F1", TASK, 0.0, 0.5),
            Span(1, "U0,1", TASK, 0.5, 2.0),
        ]
        vs, _ = check_spans_against_dag(spans, self._graph())
        assert len(vs) == 1 and vs[0].rule == "DAG"
        assert "('F', 1)" in vs[0].message

    def test_missing_task_detected(self):
        from repro.obs import TASK, Span

        spans = [Span(0, "F0", TASK, 0.0, 1.0), Span(1, "U0,1", TASK, 1.0, 2.0)]
        vs, _ = check_spans_against_dag(spans, self._graph())
        assert any("no executed span" in v.message for v in vs)

    def test_duplicate_task_detected(self):
        from repro.obs import TASK, Span

        spans = [
            Span(0, "F0", TASK, 0.0, 1.0),
            Span(1, "F0", TASK, 0.0, 1.0),
            Span(1, "U0,1", TASK, 1.0, 2.0),
            Span(1, "F1", TASK, 2.0, 3.0),
        ]
        vs, _ = check_spans_against_dag(spans, self._graph())
        assert any("twice" in v.message for v in vs)


class TestRetransmitAwareness:
    """UNIQUE must tell retransmissions (same logical message resent by the
    reliable transport) apart from genuine tag reuse (distinct messages)."""

    def _rec(self, seq, logical, consumed=True, **kw):
        fields = dict(
            seq=seq, src=0, dest=1, tag=("t", 0), t_send=0.0,
            arrival=1.0, nbytes=8, logical=logical,
        )
        fields.update(kw)
        if consumed and "t_recv" not in kw:
            fields["t_recv"] = fields["arrival"]
        return MessageRecord(**fields)

    def test_retransmit_copies_are_not_a_collision(self):
        # two wire copies of one logical send: the first was dropped, the
        # retry got through — same (dest, tag) twice but NOT tag reuse
        trace = SimTrace(records=[
            self._rec(1, logical=1, consumed=False, dropped=True),
            self._rec(2, logical=1, attempt=1),
        ])
        assert check_messages(trace, spec=GENERIC) == []

    def test_genuine_tag_reuse_still_flagged(self):
        # distinct logical messages on the same (dest, tag): a real
        # collision that retransmission-awareness must not excuse
        trace = SimTrace(records=[
            self._rec(1, logical=1),
            self._rec(2, logical=2, t_send=0.5, arrival=1.5),
        ])
        vs = check_messages(trace, spec=GENERIC)
        assert [v.rule for v in vs] == ["UNIQUE"]

    def test_legacy_traces_fall_back_to_seq(self):
        # records without a logical id (pre-fault-injection traces) keep
        # the old per-record semantics
        trace = SimTrace(records=[
            self._rec(1, logical=None),
            self._rec(2, logical=None, t_send=0.5, arrival=1.5),
        ])
        vs = check_messages(trace, spec=GENERIC)
        assert [v.rule for v in vs] == ["UNIQUE"]

    def test_dropped_and_duplicate_copies_are_not_leaks(self):
        trace = SimTrace(records=[
            self._rec(1, logical=1, consumed=False, dropped=True),
            self._rec(2, logical=1, attempt=1),
            self._rec(3, logical=2, tag=("u", 0), t_send=2.0,
                      arrival=3.0, t_recv=3.0),
            self._rec(4, logical=2, tag=("u", 0), consumed=False,
                      duplicate=True, t_send=2.0, arrival=3.1),
        ])
        assert check_messages(trace, spec=GENERIC) == []

    def test_undelivered_to_crashed_rank_excused(self):
        rec = self._rec(1, logical=1, consumed=False)
        trace = SimTrace(records=[rec])
        assert [v.rule for v in check_messages(trace, spec=GENERIC)] == ["LEAK"]
        assert check_messages(trace, spec=GENERIC, crashed=(1,)) == []

    def test_real_faulty_run_passes_unique(self):
        from repro.machine import FaultPlan

        def prog(env):
            if env.rank == 0:
                for k in range(8):
                    env.send(1, ("col", k), float(k))
            else:
                for k in range(8):
                    v = yield env.recv(("col", k))
                    assert v == float(k)

        res = run_traced(2, prog, faults=FaultPlan.drops(0.3, seed=4),
                         reliable=True)
        assert res.fault_stats.retransmits >= 1
        assert check_messages(res.trace, spec=GENERIC) == []

    def test_crashed_run_trace_excuses_dead_rank(self):
        from repro.machine import FaultPlan, RankCrashedError

        def prog(env):
            if env.rank == 0:
                env.send(1, ("x", 0), 1.0)
                yield env.recv(("reply", 0))
            else:
                got = yield env.recv(("x", 0))
                env.send(0, ("reply", 0), got)

        with pytest.raises(RankCrashedError):
            Simulator(2, GENERIC, prog, trace=True,
                      faults=FaultPlan().with_crash(1, 0.0)).run()
        # the in-flight message to the dead rank is excused by `crashed`
        rec = self._rec(1, logical=1, consumed=False)
        assert check_messages(SimTrace(records=[rec]), spec=GENERIC,
                              crashed=(1,)) == []


# ---------------------------------------------------------------------------
# determinism replay
# ---------------------------------------------------------------------------


class TestReplay:
    def test_host_orders_distinct_permutations(self):
        orders = host_orders(4, 3)
        assert orders[0] == [0, 1, 2, 3]
        assert orders[1] == [3, 2, 1, 0]
        assert all(sorted(o) == [0, 1, 2, 3] for o in orders)

    def test_deterministic_program_passes(self):
        def make(sim_opts):
            def prog(env):
                env.compute("blas1", 1e5 * (env.rank + 1))
                env.send((env.rank + 1) % 3, ("r", env.rank), env.clock)
                v = yield env.recv(("r", (env.rank - 1) % 3))
                return v

            return Simulator(3, GENERIC, prog, **sim_opts).run()

        rep = replay_check(make, 3)
        assert rep.ok and rep.runs == 3

    def test_shared_state_race_detected(self):
        # ranks append to state shared across rank generators: the arrival
        # order of appends depends on the host scheduling order, which is
        # exactly the bug class the replay checker exists to catch
        def make(sim_opts):
            shared = []

            def prog(env, log):
                env.send((env.rank + 1) % 4, ("r", env.rank), env.rank)
                v = yield env.recv(("r", (env.rank - 1) % 4))
                log.append(env.rank)
                return (v, tuple(log))

            return Simulator(4, GENERIC, prog, args=(shared,), **sim_opts).run()

        rep = replay_check(make, 4)
        assert not rep.ok
        assert any("returns" in m for m in rep.mismatches)


# ---------------------------------------------------------------------------
# deadlock diagnostics + pytest support
# ---------------------------------------------------------------------------


class TestDeadlockDiagnostics:
    # a wrong kind, and a tag of the right kind with one element too many
    # (send and recv sides disagreeing in arity can never match)
    @pytest.mark.parametrize("sent, awaited", [
        (("right", 0), ("wrong", 0)),
        (("x", 0, 1), ("x", 0)),
    ], ids=["kind", "arity"])
    def test_reports_waiting_tag_and_mailbox(self, sent, awaited):
        def prog(env):
            if env.rank == 0:
                env.send(1, sent, 1.0)  # rank 1 waits on another tag
            if env.rank == 1:
                yield env.recv(awaited)

        with pytest.raises(DeadlockError) as exc:
            Simulator(2, GENERIC, prog).run()
        err = exc.value
        assert repr(awaited) in str(err)
        assert "undelivered" in str(err) and repr(sent) in str(err)
        assert (1, awaited) in err.blocked
        assert [t for t, _, _ in err.pending[1]] == [sent]

    def test_barrier_deadlock_reported(self):
        def prog(env):
            if env.rank == 0:
                yield env.barrier()
            else:
                yield env.recv(("missing", 0))

        with pytest.raises(DeadlockError) as exc:
            Simulator(2, GENERIC, prog).run()
        assert (0, "barrier") in exc.value.blocked

    def test_empty_mailbox_reported(self):
        def prog(env):
            yield env.recv(("never", env.rank))

        with pytest.raises(DeadlockError, match="mailbox is empty"):
            Simulator(1, GENERIC, prog).run()


class TestPytestSupport:
    def test_violating_run_raises_inside_context(self):
        def prog(env):
            if env.rank == 0:
                env.send(1, ("leak", 0), 1)
            yield env.barrier()

        with trace_checked_simulations():
            with pytest.raises(ProtocolViolationError, match="leak"):
                Simulator(2, GENERIC, prog).run()
        # patch is reverted: the same program runs unchecked afterwards
        Simulator(2, GENERIC, prog).run()

    def test_clean_run_unaffected(self):
        def prog(env):
            if env.rank == 0:
                env.send(1, ("t", 0), 5)
            else:
                v = yield env.recv(("t", 0))
                assert v == 5
            return env.clock

        with trace_checked_simulations():
            res = Simulator(2, GENERIC, prog).run()
        assert res.messages == 1


# ---------------------------------------------------------------------------
# end-to-end over the real codes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline():
    from repro.matrices import random_nonsymmetric
    from repro.ordering import prepare_matrix
    from repro.supernodes import build_block_structure, build_partition
    from repro.symbolic import static_symbolic_factorization
    from repro.taskgraph import build_task_graph

    A = random_nonsymmetric(60, density=0.08, seed=7)
    om = prepare_matrix(A)
    sym = static_symbolic_factorization(om.A)
    part = build_partition(sym, max_size=5, amalgamation=3)
    bstruct = build_block_structure(sym, part)
    return om, part, bstruct, build_task_graph(bstruct)


class TestRealCodesVerifyClean:
    @pytest.mark.parametrize("method", ["rapid", "ca"])
    def test_1d_trace_and_dag_clean(self, pipeline, method):
        from repro.machine import T3E
        from repro.parallel import run_1d

        om, part, bstruct, tg = pipeline
        res = run_1d(om.A, part, bstruct, 3, T3E, method=method, tg=tg,
                     sim_opts={"trace": True})
        report = check_run(res.sim, spec=T3E, tg=tg, schedule=res.schedule)
        assert report.ok, [str(v) for v in report.violations]
        assert report.stats["dag_edges"] > 0

    @pytest.mark.parametrize("synchronous", [False, True])
    def test_2d_trace_clean(self, pipeline, synchronous):
        from repro.machine import T3E
        from repro.parallel import run_2d

        om, part, bstruct, _ = pipeline
        res = run_2d(om.A, part, bstruct, 4, T3E, synchronous=synchronous,
                     sim_opts={"trace": True})
        report = check_run(res.sim, spec=T3E)
        assert report.ok, [str(v) for v in report.violations]

    def test_1d_replay_deterministic(self, pipeline):
        """Host order changes nothing, on a perfect network and on a lossy
        one with reliable retry."""
        from repro.machine import T3E, FaultPlan
        from repro.parallel import run_1d

        om, part, bstruct, tg = pipeline
        lossy = {"faults": FaultPlan.drops(0.08, seed=42), "reliable": True}
        for extra in ({}, lossy):
            rep = replay_check(
                lambda so, extra=extra: run_1d(
                    om.A, part, bstruct, 3, T3E, method="ca", tg=tg,
                    sim_opts={**so, **extra}).sim,
                3, n_orders=3,
            )
            assert rep.ok, (extra, rep.mismatches)

    def test_trisolve_trace_clean(self, pipeline):
        from repro.machine import T3E
        from repro.numfact import LUFactorization
        from repro.parallel import run_1d, run_1d_trisolve

        om, part, bstruct, tg = pipeline
        res = run_1d(om.A, part, bstruct, 3, T3E, method="rapid", tg=tg)
        lu = LUFactorization(res.factor, None, part, bstruct, None)
        b = np.arange(float(om.A.nrows))
        tri = run_1d_trisolve(lu, res.schedule.owner, b, 3, T3E,
                              sim_opts={"trace": True})
        report = check_run(tri.sim, spec=T3E)
        assert report.ok, [str(v) for v in report.violations]
