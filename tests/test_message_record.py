"""One record per event in the simulator.

Every transmission attempt is one :class:`repro.machine.MessageRecord`:
the same object sits in the run's :class:`SimTrace` (every attempt, send
order, for :mod:`repro.verify`) and, once consumed, in the tracer's
``messages`` (consumption order, for the exporters).  Every count the run
reports — ``SimResult.messages`` / ``bytes_sent``, per-rank
``Env.sent_messages`` / ``sent_bytes``, ``FaultStats`` and the tracer's
``sim.*`` metrics — is read off those records or the run's fault events,
and ``Env.send`` has one path whatever the options.  The tests below
recount from the records by definition and compare.
"""

import numpy as np
import pytest

from repro.machine import (
    GENERIC,
    DeliveryError,
    FaultPlan,
    MessageRecord,
    ReliableDelivery,
    Simulator,
)
from repro.machine.faults import (
    CORRUPT,
    DELAY,
    DROP,
    DUPLICATE,
    FaultEvent,
    MessageFaultRule,
)
from repro.obs import TASK, Tracer


def _ring(env, rounds=6):
    """Every rank passes an array to its right neighbour ``rounds`` times,
    after one local message to itself."""
    right = (env.rank + 1) % env.nprocs
    left = (env.rank - 1) % env.nprocs
    env.send(env.rank, ("self", env.rank), env.rank)
    yield env.recv(("self", env.rank))
    for i in range(rounds):
        t0 = env.clock
        env.compute("dgemm", 1e5 * (env.rank + 1))
        env.send(right, ("ring", i, env.rank), np.full(4, float(i)))
        env.span(f"step{i}", t0)
        got = yield env.recv(("ring", i, left))
        assert got[0] == float(i)
    yield env.barrier()


def _run(nprocs=3, **kw):
    tracer = kw.pop("tracer", None) or Tracer()
    sim = Simulator(nprocs, GENERIC, _ring, trace=True, tracer=tracer, **kw)
    return sim, sim.run(), tracer


def _sent(records, src=None):
    """``(messages, bytes)``: attempts a sender paid for, by definition."""
    sizes = [r.nbytes for r in records
             if r.src != r.dest and not r.duplicate
             and (src is None or r.src == src)]
    return len(sizes), sum(sizes)


def _fields(rec):
    return (rec.seq, rec.src, rec.dest, rec.tag, rec.t_send, rec.arrival,
            rec.nbytes, rec.t_recv, rec.logical, rec.attempt, rec.dropped,
            rec.duplicate, rec.corrupted, rec.mutated)


def _lossy():
    return {
        "faults": FaultPlan([
            MessageFaultRule(DROP, rate=0.3),
            MessageFaultRule(DUPLICATE, rate=0.2),
            MessageFaultRule(DELAY, rate=0.2, delay_s=1e-5),
        ], seed=3),
        "reliable": True,
    }


class TestOneRecord:
    def test_tracer_messages_are_the_consumed_records(self):
        _, res, tr = _run(**_lossy())
        consumed = [r for r in res.trace.records if r.consumed]
        assert tr.messages, "the run consumed nothing"
        assert sorted(map(id, tr.messages)) == sorted(map(id, consumed))
        assert all(isinstance(m, MessageRecord) for m in tr.messages)

    def test_records_are_numbered_in_send_order(self):
        _, res, _ = _run(**_lossy())
        seqs = [r.seq for r in res.trace.records]
        assert seqs == list(range(1, len(seqs) + 1))
        for r in res.trace.records:
            assert r.consumed == (r.t_recv is not None)
            if r.attempt == 0 and not r.duplicate:
                assert r.logical == r.seq

    @pytest.mark.parametrize("network", ["perfect", "lossy"])
    def test_untraced_run_counts_the_same(self, network):
        kw = _lossy() if network == "lossy" else {}
        _, traced, _ = _run(**kw)
        plain = Simulator(3, GENERIC, _ring, **kw).run()
        # a perfect network keeps no records untraced; a lossy one keeps
        # them for MessageLostError
        assert (plain.trace is None) == (network == "perfect")
        assert (plain.messages, plain.bytes_sent) == (traced.messages,
                                                       traced.bytes_sent)
        assert plain.rank_clocks == traced.rank_clocks
        assert plain.fault_stats.retransmits == traced.fault_stats.retransmits

    @pytest.mark.parametrize("network", ["perfect", "lossy"])
    def test_tracing_does_not_change_the_records(self, network):
        """One send path: with and without a tracer the attempts, their
        numbering, times and flags are the same."""
        kw = _lossy() if network == "lossy" else {}
        a = Simulator(3, GENERIC, _ring, trace=True, **kw).run()
        _, b, _ = _run(**kw)
        assert [_fields(r) for r in a.trace.records] == \
            [_fields(r) for r in b.trace.records]
        assert a.rank_clocks == b.rank_clocks

    def test_offset_tracer_shifts_a_copy(self):
        base = Tracer()
        _, res, _ = _run(tracer=base.offset(2.0))
        consumed = sorted((r for r in res.trace.records if r.consumed),
                          key=lambda r: r.seq)
        shifted = sorted(base.messages, key=lambda r: r.seq)
        assert len(shifted) == len(consumed)
        for orig, copy in zip(consumed, shifted):
            assert copy is not orig
            assert copy.t_send == orig.t_send + 2.0
            assert copy.t_recv == orig.t_recv + 2.0
            assert copy.arrival == orig.arrival + 2.0

    def test_task_span_is_one_object(self):
        _, res, tr = _run()
        tasks = [s for s in tr.spans if s.cat == TASK]
        assert len(tasks) == len(res.spans) == 3 * 6
        assert sorted(map(id, tasks)) == sorted(map(id, res.spans))


class TestCountsFromRecords:
    def test_result_counts(self):
        _, res, tr = _run(**_lossy())
        wire = [r for r in res.trace.records
                if r.src != r.dest and not r.duplicate]
        assert (res.messages, res.bytes_sent) == _sent(res.trace.records)
        assert res.messages == len(wire)
        assert res.fault_stats.retransmits == sum(1 for r in wire if r.attempt)
        assert res.fault_stats.retransmits > 0  # the plan exercised retries
        m = tr.metrics
        assert m.value("sim.messages") == res.messages
        assert m.value("sim.bytes") == res.bytes_sent
        assert m.value("sim.retransmits") == res.fault_stats.retransmits

    def test_per_rank_counts(self):
        sim, res, _ = _run(**_lossy())
        per_rank = [(e.sent_messages, e.sent_bytes) for e in sim.envs]
        assert [_sent(res.trace.records, r) for r in range(3)] == per_rank
        assert sum(n for n, _ in per_rank) == res.messages
        assert sum(b for _, b in per_rank) == res.bytes_sent

    def test_local_deposits_and_duplicates_are_not_transmissions(self):
        _, res, _ = _run(**_lossy())
        local = [r for r in res.trace.records if r.src == r.dest]
        dups = [r for r in res.trace.records if r.duplicate]
        assert len(local) == 3 and all(r.nbytes == 0 for r in local)
        assert dups, "the plan injected no duplicate"
        assert len(res.trace.records) == res.messages + len(local) + len(dups)

    def test_fault_counts_are_read_from_the_fault_events(self):
        _, res, tr = _run(**_lossy())
        fs = res.fault_stats
        by_action = {a: sum(1 for e in fs.injected if e.action == a)
                     for a in (DROP, DUPLICATE, DELAY, CORRUPT)}
        assert (fs.dropped, fs.duplicated, fs.delayed, fs.corrupted) == (
            by_action[DROP], by_action[DUPLICATE], by_action[DELAY],
            by_action[CORRUPT])
        assert fs.total_injected() == len(fs.injected) > 0
        assert fs.dropped == sum(1 for r in res.trace.records if r.dropped)
        assert fs.duplicated == sum(1 for r in res.trace.records
                                    if r.duplicate)
        for name in ("dropped", "duplicated", "delayed"):
            assert tr.metrics.value(f"sim.faults.{name}") == getattr(fs, name)

    def test_counts_survive_a_run_that_raises(self):
        """Counts are read from the records when the run ends, however it
        ends: a send that exhausts its retries still counted."""
        def prog(env):
            if env.rank == 0:
                env.send(1, ("x", 0), 1.0)
            else:
                yield env.recv(("x", 0))

        tr = Tracer()
        plan = FaultPlan(events=[FaultEvent(DROP, 0, 1, ("x", 0), a)
                                 for a in range(3)])
        sim = Simulator(2, GENERIC, prog, tracer=tr, faults=plan,
                        reliable=ReliableDelivery(max_attempts=3))
        with pytest.raises(DeliveryError):
            sim.run()
        assert sim.envs[0].sent_messages == 3
        assert tr.metrics.value("sim.messages") == 3
        assert tr.metrics.value("sim.retransmits") == 2
        assert tr.metrics.value("sim.faults.dropped") == 3
        assert sim.fault_stats.dropped == 3
        assert sim.fault_stats.retransmits == 2
