"""The two delivery modes: semantics-preservation tests.

Both stay live — a certified program's payloads are delivered zero-copy,
while ``sanitize=True`` and uncertified programs copy — so the pair must be
*observably equal*: bit-identical factors and solves, identical virtual
times, byte-identical Chrome traces.  These tests pin that down:

* zero-copy vs deep-copy delivery — 1D rapid/CA, 2D sync/async, a resilient
  crash-restart run, and a chaos-style lossy-network scenario;
* the sanitizer (``sanitize=True``) catching a seeded write-after-send
  mutation that zero-copy semantics forbid;
* the certificate logic gating zero-copy (clean + fresh hash, or nothing);
* the pooled scratch reusing and growing its slots;
* mailbox arrival-order delivery through the single-entry fast path and
  the heap path.

NOTE: this module must stay *out* of ``TRACE_CHECKED_MODULES`` — the trace
checker forces ``sanitize=True``, which deliberately disables zero-copy.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.lint.certify import ZeroCopyCertificate, certificate_covers
from repro.machine import (
    CrashFault,
    FaultPlan,
    PayloadMutationError,
    Simulator,
    T3E,
)
from repro.numfact import sstar_factor
from repro.numfact.kernels import scratch_buffer
from repro.obs import Tracer, to_chrome_trace
from repro.parallel import (
    run_1d,
    run_1d_trisolve,
    run_2d,
    run_2d_trisolve,
)
from repro.parallel.resilience import run_1d_resilient


@pytest.fixture(scope="module")
def pipeline(contexts):
    return contexts("sherman5")


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


# ---------------------------------------------------------------------------
# zero-copy vs deep-copy delivery
# ---------------------------------------------------------------------------


class TestZeroCopyDelivery:
    def test_certificate_actually_engages(self):
        # guard against a silently stale certificate making every A/B in
        # this class compare copy vs copy
        for mod in ("repro.parallel.oned", "repro.parallel.twod",
                    "repro.parallel.trisolve"):
            assert certificate_covers(mod), f"certificate stale for {mod}"

    @pytest.mark.parametrize("method", ["rapid", "ca"])
    def test_1d_bit_identical(self, pipeline, method):
        args = (pipeline["om"].A, pipeline["part"], pipeline["bstruct"], 4, T3E)
        zc = run_1d(*args, method=method, sim_opts={"zero_copy": True})
        cp = run_1d(*args, method=method, sim_opts={"zero_copy": False})
        _assert_factor_identical(zc.factor, cp.factor)
        _assert_sim_identical(zc.sim, cp.sim)
        assert zc.buffer_high_water == cp.buffer_high_water

    @pytest.mark.parametrize("synchronous", [False, True])
    def test_2d_bit_identical(self, pipeline, synchronous):
        args = (pipeline["om"].A, pipeline["part"], pipeline["bstruct"], 4, T3E)
        zc = run_2d(*args, synchronous=synchronous,
                    sim_opts={"zero_copy": True})
        cp = run_2d(*args, synchronous=synchronous,
                    sim_opts={"zero_copy": False})
        _assert_factor_identical(zc.factor, cp.factor)
        _assert_sim_identical(zc.sim, cp.sim)

    def test_trisolves_bit_identical(self, pipeline):
        lu = sstar_factor(pipeline["om"].A, sym=pipeline["sym"],
                          part=pipeline["part"], bstruct=pipeline["bstruct"])
        b = np.random.default_rng(7).standard_normal((lu.n, 3))
        owner = [K % 4 for K in range(lu.part.N)]
        z1 = run_1d_trisolve(lu, owner, b, 4, T3E, sim_opts={"zero_copy": True})
        c1 = run_1d_trisolve(lu, owner, b, 4, T3E, sim_opts={"zero_copy": False})
        assert z1.x.tobytes() == c1.x.tobytes()
        assert z1.sim.total_time == c1.sim.total_time
        z2 = run_2d_trisolve(lu, b, 4, T3E, sim_opts={"zero_copy": True})
        c2 = run_2d_trisolve(lu, b, 4, T3E, sim_opts={"zero_copy": False})
        assert z2.x.tobytes() == c2.x.tobytes()
        assert z2.sim.total_time == c2.sim.total_time
        # one certified module, one result type, for both mappings
        for z in (z1, z2):
            assert z.sim.zero_copy is True, z.sim.zero_copy_reason
        assert type(z1) is type(z2)

    def test_resilient_restart_bit_identical(self, pipeline):
        args = (pipeline["om"].A, pipeline["part"], pipeline["bstruct"], 4, T3E)
        probe = run_1d(*args, method="ca")
        plan = FaultPlan(crashes=[CrashFault(2, probe.sim.total_time * 0.4)])
        kw = dict(method="ca", ckpt_interval=3, reliable=True)
        zc = run_1d_resilient(*args, faults=plan, sim_opts={"zero_copy": True}, **kw)
        cp = run_1d_resilient(*args, faults=plan, sim_opts={"zero_copy": False}, **kw)
        assert zc.crashes == cp.crashes == [2]
        _assert_factor_identical(zc.factor, cp.factor)
        assert zc.total_time == cp.total_time
        assert [(r.window, r.ok) for r in zc.rounds] == \
               [(r.window, r.ok) for r in cp.rounds]

    def test_chaos_lossy_network_bit_identical(self, pipeline):
        # chaos-style scenario: 5% message loss under reliable (ack/retry)
        # delivery — retransmissions and all, both modes must agree exactly
        args = (pipeline["om"].A, pipeline["part"], pipeline["bstruct"], 4, T3E)
        plan = FaultPlan.drops(0.05, seed=11)
        zc = run_1d(*args, method="ca",
                    sim_opts={"faults": plan, "reliable": True,
                              "zero_copy": True})
        cp = run_1d(*args, method="ca",
                    sim_opts={"faults": plan, "reliable": True,
                              "zero_copy": False})
        _assert_factor_identical(zc.factor, cp.factor)
        _assert_sim_identical(zc.sim, cp.sim)

    @pytest.mark.parametrize("synchronous", [False, True])
    def test_2d_traces_byte_identical(self, pipeline, synchronous):
        args = (pipeline["om"].A, pipeline["part"], pipeline["bstruct"], 4, T3E)
        traces = []
        for zero_copy in (True, False):
            tr = Tracer()
            run_2d(*args, synchronous=synchronous,
                   sim_opts={"zero_copy": zero_copy, "tracer": tr})
            traces.append(_chrome_bytes(tr))
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("method", ["rapid", "ca"])
    def test_1d_traces_byte_identical(self, pipeline, method):
        args = (pipeline["om"].A, pipeline["part"], pipeline["bstruct"], 4, T3E)
        traces = []
        for zero_copy in (True, False):
            tr = Tracer()
            run_1d(*args, method=method,
                   sim_opts={"zero_copy": zero_copy, "tracer": tr})
            traces.append(_chrome_bytes(tr))
        assert traces[0] == traces[1]


# ---------------------------------------------------------------------------
# sanitizer: seeded write-after-send mutation must be caught
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


class TestSanitizer:
    def test_seeded_mutation_caught(self):
        got = []
        sim = Simulator(2, T3E, _wapsend_program, args=(got, True),
                        zero_copy=True, sanitize=True)
        with pytest.raises(PayloadMutationError, match="write-after-send"):
            sim.run()

    def test_clean_send_passes(self):
        got = []
        Simulator(2, T3E, _wapsend_program, args=(got, False),
                  zero_copy=True, sanitize=True).run()
        assert got[0].tobytes() == np.ones(4).tobytes()

    def test_uncertified_module_falls_back_to_copying(self):
        # this test module carries no certificate entry: zero_copy=True
        # must silently keep the defensive copy, so the receiver still
        # observes pre-mutation bytes
        got = []
        sim = Simulator(2, T3E, _wapsend_program, args=(got, True),
                        zero_copy=True)
        assert not sim._zc_certified
        sim.run()
        assert got[0].tobytes() == np.ones(4).tobytes()


# ---------------------------------------------------------------------------
# certificate logic
# ---------------------------------------------------------------------------


class TestCertificate:
    def test_certified_program_enables_zero_copy(self, pipeline):
        from repro.parallel.oned import _rank_program

        sim = Simulator(2, T3E, _rank_program, args=(None,), zero_copy=True)
        assert sim._zc_certified

    def test_stale_hash_declines(self):
        cert = ZeroCopyCertificate({
            "repro.parallel.oned": {
                "path": "x", "sha256": "0" * 64, "clean": True,
                "findings": [],
            },
        })
        assert not cert.covers("repro.parallel.oned")

    def test_dirty_module_declines(self):
        cert = ZeroCopyCertificate({
            "repro.parallel.oned": {
                "path": "x", "sha256": "0" * 64, "clean": False,
                "findings": ["Z201 oned.py:1:1 boom"],
            },
        })
        assert not cert.covers("repro.parallel.oned")
        assert cert.dirty_modules() == ["repro.parallel.oned"]

    def test_unknown_module_declines(self):
        assert not certificate_covers("tests.test_host_perf")
        assert not certificate_covers(None)

    def test_sanitize_overrides_certificate(self, pipeline):
        from repro.parallel.oned import _rank_program

        sim = Simulator(2, T3E, _rank_program, args=(None,),
                        zero_copy=True, sanitize=True)
        assert sim._zc_certified  # certificate says yes...
        # ...but run() must restore copying under sanitize; exercised on a
        # real run by the trace-checked parallel test modules, asserted
        # here on the effective flag after finalisation
        try:
            sim.run()
        except Exception:
            pass  # args=(None,) is not a runnable ctx; finalisation ran
        assert sim.zero_copy is False


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
