"""Delivery by reference: what the read-only payload arrays and the
sanitizer catch, and what the caller gets back.

Every payload is delivered by reference and every ndarray it carries is
read-only from its send on, so these tests pin down:

* by-reference delivery observably equal to a deep copy of every payload
  at its send — bit-identical factors and solves, identical virtual times,
  byte-identical Chrome traces — for 1D rapid/CA, 2D sync/async, both
  trisolves, a crash-restart run and a lossy network;
* a send freezing every ndarray of a nested payload, a multicast posting
  one object to every destination, and a local deposit frozen too;
* a write-after-send, or a receiver's write to what it got, failing at the
  write with a typed :class:`PayloadMutationError` naming the message;
* the sanitizer (``sanitize=True``) catching a write through another view
  of a posted buffer, which the read-only flag cannot stop;
* neither firing on the near misses of those writes: a rebound name, a
  fresh buffer per iteration, a copy sent or written instead, a received
  payload kept but never written;
* the returned factor being writable again after every parallel run (2D
  sends post views of the factor's own blocks), the trisolves' solutions
  writable, and a solver's refactor running after a factor froze its
  payloads;
* the pooled scratch reusing and growing its slots;
* mailbox arrival-order delivery through the single-entry fast path and
  the heap path.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro.machine import (
    CrashFault,
    Env,
    FaultPlan,
    PayloadMutationError,
    Simulator,
    T3E,
)
from repro.numfact import sstar_factor
from repro.numfact.kernels import scratch_buffer
from repro.obs import Tracer, to_chrome_trace
from repro.parallel import (
    factorize,
    run_1d,
    run_1d_trisolve,
    run_2d,
    run_2d_trisolve,
)


@pytest.fixture(scope="module")
def pipeline(contexts):
    return contexts("sherman5")


@pytest.fixture
def copying(monkeypatch):
    """``copying(True)`` makes every send and multicast post a deep copy of
    its payload, taken at the send (the sender's arrays stay writable):
    the reference that delivery by reference must be observably equal to."""
    put = Env._put

    def copy_put(self, dests, tag, payload, nbytes, multicast):
        return put(self, dests, tag, copy.deepcopy(payload), nbytes,
                   multicast)

    def switch(on):
        if on:
            monkeypatch.setattr(Env, "_put", copy_put)
        else:
            monkeypatch.setattr(Env, "_put", put)

    return switch


def _assert_factor_identical(fa, fb):
    assert set(fa.blocks) == set(fb.blocks)
    for key in fa.blocks:
        assert fa.blocks[key].tobytes() == fb.blocks[key].tobytes(), key
    assert fa.pivot_seq == fb.pivot_seq


def _assert_sim_identical(sa, sb):
    assert sa.total_time == sb.total_time
    assert sa.rank_clocks == sb.rank_clocks
    assert sa.messages == sb.messages
    assert sa.bytes_sent == sb.bytes_sent
    assert sa.total_counter().by_gran == sb.total_counter().by_gran


def _chrome_bytes(tracer) -> bytes:
    doc = to_chrome_trace(tracer.spans, tracer.messages)
    return json.dumps(doc, sort_keys=True).encode()


def _both(copying, run):
    """``run()`` by reference, then under deep-copy delivery."""
    copying(False)
    ref = run()
    copying(True)
    cp = run()
    copying(False)
    return ref, cp


# ---------------------------------------------------------------------------
# by-reference vs deep-copy delivery
# ---------------------------------------------------------------------------


def _identity_program(env, got):
    if env.rank == 0:
        a = np.ones(3)
        got.append(a)
        env.send(1, "m", {"a": a})
        return None
    got.append((yield env.recv("m"))["a"])
    return None


class TestZeroCopyDelivery:
    def test_reference_actually_differs_from_the_copy(self, copying):
        # guard against the fixture leaving both runs of every A/B in this
        # class on the same delivery
        runs = []
        for on in (False, True):
            copying(on)
            got = []
            Simulator(2, T3E, _identity_program, args=(got,)).run()
            runs.append(got)
        (sent, received), (sent_c, received_c) = runs
        assert received is sent and not sent.flags.writeable
        assert received_c is not sent_c and sent_c.flags.writeable
        assert received_c.tobytes() == sent_c.tobytes()

    @pytest.mark.parametrize("method", ["rapid", "ca"])
    def test_1d_bit_identical(self, pipeline, copying, method):
        args = (pipeline["om"].A, pipeline["part"], pipeline["bstruct"], 4, T3E)
        ref, cp = _both(copying, lambda: run_1d(*args, method=method))
        _assert_factor_identical(ref.factor, cp.factor)
        _assert_sim_identical(ref.sim, cp.sim)
        assert ref.buffer_high_water == cp.buffer_high_water

    @pytest.mark.parametrize("synchronous", [False, True])
    def test_2d_bit_identical(self, pipeline, copying, synchronous):
        args = (pipeline["om"].A, pipeline["part"], pipeline["bstruct"], 4, T3E)
        ref, cp = _both(copying,
                        lambda: run_2d(*args, synchronous=synchronous))
        _assert_factor_identical(ref.factor, cp.factor)
        _assert_sim_identical(ref.sim, cp.sim)

    def test_trisolves_bit_identical(self, pipeline, copying):
        lu = sstar_factor(pipeline["om"].A, sym=pipeline["sym"],
                          part=pipeline["part"], bstruct=pipeline["bstruct"])
        b = np.random.default_rng(7).standard_normal((lu.n, 3))
        owner = [K % 4 for K in range(lu.part.N)]
        r1, c1 = _both(copying,
                       lambda: run_1d_trisolve(lu, owner, b, 4, T3E))
        assert r1.x.tobytes() == c1.x.tobytes()
        assert r1.sim.total_time == c1.sim.total_time
        r2, c2 = _both(copying, lambda: run_2d_trisolve(lu, b, 4, T3E))
        assert r2.x.tobytes() == c2.x.tobytes()
        assert r2.sim.total_time == c2.sim.total_time
        assert type(r1) is type(r2)

    def test_resilient_restart_bit_identical(self, pipeline, copying):
        args = (pipeline["om"].A, pipeline["part"], pipeline["bstruct"], 4, T3E)
        probe = run_1d(*args, method="ca")
        plan = FaultPlan(crashes=[CrashFault(2, probe.sim.total_time * 0.4)])
        opts = {"faults": plan, "reliable": True}
        ref, cp = _both(copying, lambda: factorize(
            "1d-ca", *args, ckpt_interval=3, sim_opts=opts))
        assert ref.crashes == cp.crashes == [2]
        _assert_factor_identical(ref.factor, cp.factor)
        assert ref.parallel_seconds == cp.parallel_seconds
        assert [(r.window, r.ok) for r in ref.rounds] == \
               [(r.window, r.ok) for r in cp.rounds]

    def test_chaos_lossy_network_bit_identical(self, pipeline, copying):
        # chaos-style scenario: 5% message loss under reliable (ack/retry)
        # delivery — retransmissions and all, both deliveries must agree
        args = (pipeline["om"].A, pipeline["part"], pipeline["bstruct"], 4, T3E)
        plan = FaultPlan.drops(0.05, seed=11)
        ref, cp = _both(copying, lambda: run_1d(
            *args, method="ca", sim_opts={"faults": plan, "reliable": True}))
        _assert_factor_identical(ref.factor, cp.factor)
        _assert_sim_identical(ref.sim, cp.sim)

    @pytest.mark.parametrize("synchronous", [False, True])
    def test_2d_traces_byte_identical(self, pipeline, copying, synchronous):
        args = (pipeline["om"].A, pipeline["part"], pipeline["bstruct"], 4, T3E)

        def traced():
            tr = Tracer()
            run_2d(*args, synchronous=synchronous, sim_opts={"tracer": tr})
            return _chrome_bytes(tr)

        ref, cp = _both(copying, traced)
        assert ref == cp

    @pytest.mark.parametrize("method", ["rapid", "ca"])
    def test_1d_traces_byte_identical(self, pipeline, copying, method):
        args = (pipeline["om"].A, pipeline["part"], pipeline["bstruct"], 4, T3E)

        def traced():
            tr = Tracer()
            run_1d(*args, method=method, sim_opts={"tracer": tr})
            return _chrome_bytes(tr)

        ref, cp = _both(copying, traced)
        assert ref == cp


# ---------------------------------------------------------------------------
# what a send freezes
# ---------------------------------------------------------------------------


class TestFreezeAtSend:
    def test_every_array_of_a_nested_payload_is_frozen(self):
        a, b, c = np.ones(2), np.ones((2, 2)), np.arange(3)
        payload = {"cols": [a, (b, 4)], "meta": ("tag", 2.5, {"idx": c})}
        got = []

        def prog(env):
            if env.rank == 0:
                env.send(1, "p", payload)
                return None
            got.append((yield env.recv("p")))
            return None

        Simulator(2, T3E, prog).run()
        assert got == [payload] and got[0] is payload
        assert not any(x.flags.writeable for x in (a, b, c))
        assert payload["meta"][:2] == ("tag", 2.5)

    def test_multicast_posts_one_object_to_every_destination(self):
        buf = np.ones(3)
        got = {}

        def prog(env):
            if env.rank == 0:
                env.multicast([0, 1, 2, 3], "m", buf)
                return None
            got[env.rank] = yield env.recv("m")
            return None

        res = Simulator(4, T3E, prog).run()
        assert sorted(got) == [1, 2, 3]
        assert all(g is buf for g in got.values())
        assert not buf.flags.writeable
        assert res.messages == 3

    def test_local_deposit_is_frozen_too(self):
        buf = np.ones(2)

        def prog(env):
            env.send(env.rank, "self", buf if env.rank == 0 else np.ones(1))
            got = yield env.recv("self")
            if env.rank == 0:
                assert got is buf
                got[0] = 3.0
            return None

        with pytest.raises(PayloadMutationError) as ei:
            Simulator(2, T3E, prog).run()
        assert (ei.value.src, ei.value.dest, ei.value.tag) == (0, 0, "self")
        assert (buf == 1).all()


# ---------------------------------------------------------------------------
# writes to posted and received payloads
# ---------------------------------------------------------------------------


def _wapsend_program(env, got, mutate):
    """Rank 0 posts a buffer (then optionally mutates it — the zero-copy
    hazard); rank 1 records what arrived."""
    if env.rank == 0:
        buf = np.ones(4)
        env.send(1, "payload", buf)
        if mutate:
            buf[0] = -7.0  # write-after-send: forbidden under zero-copy
        return None
    got.append((yield env.recv("payload")))
    return None


def _view_program(env, got):
    """Rank 0 posts a view of its buffer, then writes through the buffer:
    the view is read-only, the buffer is not."""
    if env.rank == 0:
        a = np.ones(4)
        env.send(1, "view", a[0:2])
        a[0] = -7.0  # the seeded write via the base
        return None
    got.append((yield env.recv("view")))
    return None


def _receiver_write_program(env):
    """Rank 1 writes to the array it received."""
    if env.rank == 0:
        env.send(1, ("col", 3), {"panel": np.ones((3, 2))})
        return None
    got = yield env.recv(("col", 3))
    got["panel"][1, 1] = 0.0
    return None


def _loop_program(env):
    """Rank 0 posts its buffer in every iteration and writes it at the top
    of the next: iteration 1's write hits what iteration 0 posted."""
    if env.rank == 0:
        buf = np.zeros(4)
        for k in range(3):
            buf[0] = k
            env.send(1, ("it", k), buf)
        return None
    for k in range(3):
        yield env.recv(("it", k))
    return None


def _row_of(b):
    return b[0]


def _helper_view_program(env):
    """Rank 0 posts the row view a helper returns, then writes the row
    through its buffer, which the send left writable."""
    if env.rank == 0:
        b = np.zeros((2, 4))
        env.send(1, "row", _row_of(b))
        b[0, 0] = 1.0
        return None
    yield env.recv("row")
    return None


def _memoize(col):
    col["linv"] = np.eye(2)


def _append_row(col):
    col["rows"].append(2)


def _shared_receive_program(env, write):
    """Rank 0 multicasts one payload to ranks 1 and 2.  Rank 1 keeps it and
    applies ``write`` to it (dicts and lists cannot be frozen), and only
    then lets rank 2 take the same object."""
    if env.rank == 0:
        env.multicast([1, 2], "col",
                      {"panel": np.ones((2, 2)), "rows": [0, 1]})
        return None
    if env.rank == 1:
        kept = {0: (yield env.recv("col"))}
        write(kept[0])
        env.send(2, "go", None)
        return None
    yield env.recv("go")
    yield env.recv("col")
    return None


# near misses of the shapes above: each writes only memory that no send
# posted, so neither the freeze nor the hash may fire


def _rebind_program(env, got):
    """Rank 0 posts its buffer, rebinds the name to a fresh one and writes
    that."""
    if env.rank == 0:
        buf = np.zeros(4)
        env.send(1, "p", buf)
        buf = np.zeros(4)
        buf[0] = 1.0
        return None
    got.append((yield env.recv("p")))
    return None


def _fresh_per_iteration_program(env, got):
    """Rank 0 allocates its buffer inside the loop, so no iteration writes
    what an earlier one posted."""
    if env.rank == 0:
        for k in range(3):
            buf = np.zeros(4)
            buf[0] = k
            env.send(1, ("it", k), buf)
        return None
    for k in range(3):
        got.append((yield env.recv(("it", k))))
    return None


def _row_copy_of(b):
    return b[0].copy()


def _helper_copy_program(env, got):
    """Rank 0 posts the row copy a helper returns, then writes the row."""
    if env.rank == 0:
        b = np.zeros((2, 4))
        env.send(1, "row", _row_copy_of(b))
        b[0, 0] = 1.0
        return None
    got.append((yield env.recv("row")))
    return None


def _multicast_copy_in_dict_program(env, got):
    """Rank 0 multicasts a dict holding a copy of its buffer, then fills
    the buffer."""
    if env.rank == 0:
        buf = np.zeros(4)
        env.multicast([1, 2], "col", {"b": buf.copy()})
        buf.fill(1.0)
        return None
    got.append((yield env.recv("col"))["b"])
    return None


def _kept_payload_tally_program(env, got):
    """Rank 1 keeps a received column and sums its row counts into a local
    int: the payload feeds the tally but is never written."""
    if env.rank == 0:
        env.send(1, "col", {"sweep": [(np.ones(2), 2), (np.ones(3), 3)]})
        return None
    kept = {0: (yield env.recv("col"))}
    rows = 0
    for _blk, nrows in kept[0]["sweep"]:
        rows += nrows
    got.append(np.array([rows]))
    return None


def _receiver_writes_a_copy_program(env, got):
    """Rank 1 copies the array it received and writes the copy."""
    if env.rank == 0:
        env.send(1, "p", np.ones(4))
        return None
    mine = (yield env.recv("p")).copy()
    mine.fill(0.0)
    got.append(mine)
    return None


def _keep_without_write_program(env, got):
    """Rank 0 multicasts to ranks 1 and 2; rank 1 keeps the payload and
    only then lets rank 2 take the same object."""
    if env.rank == 0:
        env.multicast([1, 2], "col", {"panel": np.ones((2, 2))})
        return None
    if env.rank == 1:
        kept = {0: (yield env.recv("col"))}
        env.send(2, "go", None)
        got.append(kept[0]["panel"])
        return None
    yield env.recv("go")
    got.append((yield env.recv("col"))["panel"])
    return None


class TestSanitizer:
    def test_seeded_mutation_caught(self):
        got = []
        sim = Simulator(2, T3E, _wapsend_program, args=(got, True),
                        sanitize=True)
        with pytest.raises(PayloadMutationError, match="write-after-send"):
            sim.run()

    def test_clean_send_passes(self):
        got = []
        Simulator(2, T3E, _wapsend_program, args=(got, False),
                  sanitize=True).run()
        assert got[0].tobytes() == np.ones(4).tobytes()

    def test_write_through_another_view_caught_by_the_hash(self):
        got = []
        sim = Simulator(2, T3E, _view_program, args=(got,), sanitize=True)
        with pytest.raises(PayloadMutationError) as ei:
            sim.run()
        assert (ei.value.src, ei.value.dest, ei.value.tag) == (0, 1, "view")

    def test_receiver_write_fails_at_the_write(self):
        sim = Simulator(2, T3E, _receiver_write_program, trace=True)
        with pytest.raises(PayloadMutationError, match="what it received") as ei:
            sim.run()
        err = ei.value
        assert (err.src, err.dest, err.tag) == (0, 1, ("col", 3))
        assert isinstance(err.__cause__, ValueError)
        assert [r.mutated for r in sim.trace.records] == [True]

    # the freeze catches a write to the posted array itself; the content
    # hash (sanitize) one through another view, or to a dict or list
    @pytest.mark.parametrize("nprocs, program, args, sanitize, tag", [
        (2, _loop_program, (), False, ("it", 0)),
        (2, _helper_view_program, (), True, "row"),
        (3, _shared_receive_program, (_memoize,), True, "col"),
        (3, _shared_receive_program, (_append_row,), True, "col"),
    ], ids=["next-iteration-write", "write-through-helper-view",
            "memo-on-received-dict", "append-to-received-list"])
    def test_write_to_a_shared_payload_caught(self, nprocs, program, args,
                                              sanitize, tag):
        sim = Simulator(nprocs, T3E, program, args=args, sanitize=sanitize)
        with pytest.raises(PayloadMutationError) as ei:
            sim.run()
        assert ei.value.tag == tag

    @pytest.mark.parametrize("nprocs, program, expect", [
        (2, _rebind_program, [np.zeros(4)]),
        (2, _fresh_per_iteration_program,
         [np.array([k, 0.0, 0.0, 0.0]) for k in range(3)]),
        (2, _helper_copy_program, [np.zeros(4)]),
        (3, _multicast_copy_in_dict_program, [np.zeros(4)] * 2),
        (2, _kept_payload_tally_program, [np.array([5])]),
        (2, _receiver_writes_a_copy_program, [np.zeros(4)]),
        (3, _keep_without_write_program, [np.ones((2, 2))] * 2),
    ], ids=["rebind-after-send", "fresh-buffer-per-iteration",
            "copy-through-helper", "copy-in-multicast-dict",
            "tally-from-kept-payload", "receiver-writes-a-copy",
            "keep-without-write"])
    def test_write_to_unshared_memory_passes(self, nprocs, program, expect):
        got = []
        sim = Simulator(nprocs, T3E, program, args=(got,), sanitize=True,
                        trace=True)
        assert sim.run().messages > 0
        assert not any(r.mutated for r in sim.trace.records)
        assert [g.tolist() for g in got] == [e.tolist() for e in expect]

    def test_write_to_an_unposted_read_only_array_names_the_writer(self):
        def prog(env):
            if env.rank == 1:
                t0 = env.clock
                env.compute("blas1", 1e3)
                env.span("F0", t0)
                a = np.ones(2)
                a.flags.writeable = False
                a[0] = 0.0
            yield env.barrier()

        with pytest.raises(PayloadMutationError, match="'F0'") as ei:
            Simulator(2, T3E, prog).run()
        assert (ei.value.src, ei.value.dest, ei.value.span) == (None, 1, "F0")


# ---------------------------------------------------------------------------
# the returned factor is the caller's
# ---------------------------------------------------------------------------


def _assert_writable(factor):
    assert factor.blocks
    assert all(b.flags.writeable for b in factor.blocks.values())


class TestReturnedFactorWritable:
    @pytest.mark.parametrize("synchronous", [False, True],
                             ids=["2d", "2d-sync"])
    def test_2d(self, pipeline, synchronous):
        args = (pipeline["om"].A, pipeline["part"], pipeline["bstruct"], 4, T3E)
        _assert_writable(run_2d(*args, synchronous=synchronous).factor)

    @pytest.mark.parametrize("method", ["rapid", "ca"],
                             ids=["1d-rapid", "1d-ca"])
    def test_1d(self, pipeline, method):
        args = (pipeline["om"].A, pipeline["part"], pipeline["bstruct"], 4, T3E)
        _assert_writable(run_1d(*args, method=method).factor)

    def test_2d_checkpointed_crash_restart(self, pipeline):
        args = (pipeline["om"].A, pipeline["part"], pipeline["bstruct"], 4, T3E)
        probe = run_2d(*args)
        plan = FaultPlan(crashes=[CrashFault(2, probe.sim.total_time * 0.4)])
        res = factorize("2d", *args, ckpt_interval=3,
                        sim_opts={"faults": plan, "reliable": True})
        assert res.crashes == [2]
        _assert_writable(res.factor)

    def test_trisolve_solutions(self, pipeline):
        lu = sstar_factor(pipeline["om"].A, sym=pipeline["sym"],
                          part=pipeline["part"], bstruct=pipeline["bstruct"])
        b = np.random.default_rng(3).standard_normal(lu.n)
        owner = [K % 4 for K in range(lu.part.N)]
        for res in (run_1d_trisolve(lu, owner, b, 4, T3E),
                    run_2d_trisolve(lu, b, 4, T3E)):
            assert res.x.flags.writeable
            res.x[0] = 0.0

    @pytest.mark.parametrize("method", ["1d-rapid", "1d-ca", "2d", "2d-sync"])
    def test_refactor_after_a_factor_froze_its_payloads(self, contexts,
                                                        method):
        # the solver's second run reuses the first's analysis: nothing the
        # first run posted (and froze) may be written by the second
        from repro.api import SStarSolver

        A = contexts("sherman5")["A"]
        A2 = A.copy()
        A2.data = A2.data * 1.5 + 0.25
        b = np.random.default_rng(5).standard_normal(A.shape[0])
        solver = SStarSolver(nprocs=4, machine="T3E", method=method)
        x = solver.factor(A).refactor(A2).solve(b)
        fresh = SStarSolver(nprocs=4, machine="T3E", method=method)
        assert x.tobytes() == fresh.factor(A2).solve(b).tobytes()
        assert x.flags.writeable


# ---------------------------------------------------------------------------
# pooled product scratch
# ---------------------------------------------------------------------------


class TestGemmOperands:
    def test_scratch_pool_reuses_and_grows(self):
        a = scratch_buffer("test-pool", 4, 3)
        b = scratch_buffer("test-pool", 2, 2)
        assert b.base is a.base or b.base is a  # shrink reuses the slot
        c = scratch_buffer("test-pool", 64, 8)
        assert c.shape == (64, 8)  # growth reallocates


# ---------------------------------------------------------------------------
# mailbox: arrival-order delivery (single-entry fast path + heap path)
# ---------------------------------------------------------------------------


def _stagger_program(env, got, nmsg):
    """Two senders interleave same-tag messages with staggered clocks; the
    receiver must drain them in global arrival order."""
    if env.rank < 2:
        for i in range(nmsg):
            env.compute("blas1", 5e5 * (env.rank + 1))
            env.send(2, "m", np.array([float(env.rank), float(i)]))
        return None
    for _ in range(2 * nmsg):
        msg = yield env.recv("m")
        got.append((env.clock, float(msg[0]), float(msg[1])))
    return None


class TestMailboxOrdering:
    def test_heap_box_preserves_arrival_order(self):
        got = []
        Simulator(3, T3E, _stagger_program, args=(got, 8)).run()
        clocks = [t for t, _, _ in got]
        assert clocks == sorted(clocks)
        # per-sender FIFO must survive the merge
        for sender in (0.0, 1.0):
            seq = [i for _, s, i in got if s == sender]
            assert seq == sorted(seq)

    def test_single_entry_fast_path(self):
        got = []
        Simulator(3, T3E, _stagger_program, args=(got, 1)).run()
        assert len(got) == 2
