"""Property/fuzz tests for the discrete-event simulator.

Random SPMD programs with structurally matched sends and receives must
always terminate, preserve causality (no receive before its send completes
transit) and deliver every payload intact.  With barriers and a scheduled
rank crash mixed in, every run still ends in a result or a typed error,
every rank whose crash time its clock reached has crashed, and clocks and
returns do not depend on the host order that breaks event-time ties.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import (
    GENERIC,
    CrashFault,
    DeadlockError,
    FaultPlan,
    RankCrashedError,
    Simulator,
)


# a program schedule: per rank, a list of ops
#   ("compute", flops)
#   ("send", dest, tag_id)
#   ("recv", tag_id)
#   ("barrier",)  (on every rank at once)
# tags are globally unique ints; each send has exactly one matching recv.


def _build_random_schedule(rng, nprocs, nops, barriers=False):
    """Generate per-rank op lists with deadlock-free matched messaging.

    We generate a global linear order of events; a send is placed before
    its matching receive in that global order, each rank executes its
    projection — the same single-linearization argument that makes the
    schedule-driven executors deadlock-free applies.  A barrier is one
    event of that order that every rank's projection holds.
    """
    ops = [[] for _ in range(nprocs)]
    tag = 0
    for _ in range(nops):
        kind = rng.integers(0, 4 if barriers else 3)
        if kind == 3:
            for rank_ops in ops:
                rank_ops.append(("barrier",))
        elif kind == 0:
            r = int(rng.integers(0, nprocs))
            ops[r].append(("compute", float(rng.integers(1, 10_000))))
        else:
            src = int(rng.integers(0, nprocs))
            dst = int(rng.integers(0, nprocs))
            ops[src].append(("send", dst, tag))
            ops[dst].append(("recv", tag))
            tag += 1
    return ops


def _program(env, ops, log):
    for op in ops[env.rank]:
        if op[0] == "compute":
            env.compute("blas1", op[1])
        elif op[0] == "send":
            env.send(op[1], ("t", op[2]), {"tag": op[2], "stamp": env.clock})
        elif op[0] == "barrier":
            yield env.barrier()
        else:
            payload = yield env.recv(("t", op[1]))
            log.append((env.rank, op[1], payload["tag"], payload["stamp"], env.clock))
    return env.clock


@given(st.integers(0, 100_000), st.integers(2, 6), st.integers(5, 60))
@settings(max_examples=40, deadline=None)
def test_random_programs_terminate_and_deliver(seed, nprocs, nops):
    rng = np.random.default_rng(seed)
    ops = _build_random_schedule(rng, nprocs, nops)
    log = []
    res = Simulator(nprocs, GENERIC, _program, args=(ops, log)).run()
    # every recv consumed the payload with its own tag
    for _rank, want_tag, got_tag, stamp, at in log:
        assert want_tag == got_tag
        # causality: receipt happens no earlier than the send stamp
        assert at >= stamp - 1e-15
    # all clocks are finite and nonnegative
    assert all(c >= 0 for c in res.rank_clocks)


@given(st.integers(0, 100_000))
@settings(max_examples=20, deadline=None)
def test_determinism_under_replay(seed):
    rng = np.random.default_rng(seed)
    ops = _build_random_schedule(rng, 4, 30)
    r1 = Simulator(4, GENERIC, _program, args=(ops, [])).run()
    r2 = Simulator(4, GENERIC, _program, args=(ops, [])).run()
    assert r1.rank_clocks == r2.rank_clocks
    assert r1.messages == r2.messages
    assert r1.bytes_sent == r2.bytes_sent


def test_unmatched_recv_deadlocks():
    def prog(env):
        if env.rank == 0:
            yield env.recv(("t", 999))

    with pytest.raises(DeadlockError):
        Simulator(2, GENERIC, prog).run()


def _outcome(sim):
    """Run ``sim``: its result, or the typed error it ended in (any other
    exception, an ``AssertionError`` included, fails the test)."""
    try:
        res = sim.run()
    except (RankCrashedError, DeadlockError) as e:
        return e, e.fault_stats
    return res, res.fault_stats


@given(st.integers(0, 100_000), st.integers(2, 5), st.integers(5, 40),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_barriers_and_crashes_end_typed_and_host_order_free(
        seed, nprocs, nops, with_crash):
    rng = np.random.default_rng(seed)
    ops = _build_random_schedule(rng, nprocs, nops, barriers=True)
    plain = Simulator(nprocs, GENERIC, _program, args=(ops, [])).run()
    plan = None
    if with_crash:
        # anywhere from the start to past the end of the fault-free run
        rank = int(rng.integers(0, nprocs))
        plan = FaultPlan(crashes=[CrashFault(
            rank, float(rng.uniform(0.0, 1.2 * plain.total_time)))])
    outcomes = []
    for order in (range(nprocs), reversed(range(nprocs))):
        sim = Simulator(nprocs, GENERIC, _program, args=(ops, []),
                        faults=plan, host_order=list(order))
        out, stats = _outcome(sim)
        clocks = [env.clock for env in sim.envs]
        dead = dict(stats.crashes)
        # a rank dies exactly when its clock reaches its crash time: at a
        # yield or return past it, or blocked when the event loop gets there
        for c in plan.crashes if plan is not None else ():
            assert (c.rank in dead) == (clocks[c.rank] >= c.at_time)
            if c.rank in dead:
                assert dead[c.rank] == clocks[c.rank] >= c.at_time
        if not dead:
            # without a crash the linearised schedule cannot get stuck
            assert not isinstance(out, Exception), out
        outcomes.append((type(out), clocks, sorted(dead.items()),
                         None if isinstance(out, Exception) else out.returns))
    assert outcomes[0] == outcomes[1]
