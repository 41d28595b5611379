"""The discrete-event SPMD simulator and machine specs."""

import numpy as np
import pytest

from repro.machine import (
    DeadlockError,
    GENERIC,
    Simulator,
    T3D,
    T3E,
)


class TestSpecs:
    def test_paper_calibration(self):
        assert T3D.dgemm_mflops == 103.0 and T3D.dgemv_mflops == 85.0
        assert T3E.dgemm_mflops == 388.0 and T3E.dgemv_mflops == 255.0
        assert T3D.bandwidth_bps == 126e6

    def test_kernel_seconds(self):
        s = T3D.kernel_seconds({"dgemm": 103e6})
        assert s == pytest.approx(1.0)

    def test_message_seconds(self):
        t = T3D.message_seconds(126e6)
        assert t == pytest.approx(1.0 + 2.7e-6)

    def test_barrier_grows_with_procs(self):
        assert T3E.barrier_seconds(64) > T3E.barrier_seconds(4)


def run(nprocs, program, spec=GENERIC):
    return Simulator(nprocs, spec, program).run()


class TestCompute:
    def test_clock_advances(self):
        def prog(env):
            env.compute("dgemm", GENERIC.dgemm_mflops * 1e6)  # 1 second
            return env.clock
            yield  # pragma: no cover - makes it a generator

        res = run(1, prog)
        assert res.total_time == pytest.approx(1.0)
        assert res.rank_busy[0] == pytest.approx(1.0)

    def test_counter_tallied(self):
        def prog(env):
            env.compute("dgemv", 500.0)
            return None
            yield  # pragma: no cover

        res = run(2, prog)
        assert res.total_counter().flops["dgemv"] == 1000.0


class TestMessaging:
    def test_latency_bandwidth_math(self):
        payload = np.zeros(125_000)  # 1 MB

        def prog(env):
            if env.rank == 0:
                env.send(1, "x", payload)
            else:
                data = yield env.recv("x")
                assert len(data) == 125_000
            return env.clock

        res = run(2, prog)
        expect = GENERIC.latency_s + 1_000_000 / GENERIC.bandwidth_bps
        assert res.returns[1] == pytest.approx(expect, rel=1e-9)

    def test_receiver_waits_for_arrival(self):
        def prog(env):
            if env.rank == 0:
                env.compute("blas1", GENERIC.blas1_mflops * 1e6)  # 1 s
                env.send(1, "t", 42)
            else:
                v = yield env.recv("t")
                assert v == 42
            return env.clock

        res = run(2, prog)
        assert res.returns[1] > 1.0  # cannot receive before it was sent

    def test_messages_fifo_by_arrival(self):
        def prog(env):
            if env.rank == 0:
                env.send(1, "q", "first")
                env.compute("blas1", GENERIC.blas1_mflops * 1e5)
                env.send(1, "q", "second")
            else:
                a = yield env.recv("q")
                b = yield env.recv("q")
                assert (a, b) == ("first", "second")

        run(2, prog)

    def test_payload_isolated(self):
        arr = np.ones(4)

        def prog(env):
            if env.rank == 0:
                env.send(1, "a", arr)
                arr[:] = -1  # mutate after send: receiver must not see it
            else:
                got = yield env.recv("a")
                assert np.array_equal(got, np.ones(4))

        run(2, prog)

    def test_self_send(self):
        def prog(env):
            env.send(env.rank, "self", 7)
            v = yield env.recv("self")
            assert v == 7

        run(1, prog)

    def test_multicast_skips_self(self):
        def prog(env):
            if env.rank == 0:
                env.multicast([0, 1, 2], "m", "hi")
            if env.rank != 0:
                v = yield env.recv("m")
                assert v == "hi"
            return env.sent_messages

        res = run(3, prog)
        assert res.returns[0] == 2

    @pytest.mark.parametrize("dest", [-1, 3, 7], ids=["negative", "nprocs", "beyond"])
    @pytest.mark.parametrize("general_path", [False, True], ids=["fast", "general"])
    @pytest.mark.parametrize("multicast", [False, True], ids=["send", "multicast"])
    def test_send_to_a_rank_that_does_not_exist(self, dest, general_path, multicast):
        def prog(env):
            if env.rank == 0:
                if multicast:
                    env.multicast([1, dest], ("col", 4), 1.0)
                else:
                    env.send(dest, ("col", 4), 1.0)
            return None
            yield  # pragma: no cover

        sim = Simulator(3, GENERIC, prog, sanitize=general_path)
        with pytest.raises(ValueError, match=r"rank 0 sends tag \('col', 4\) to rank "
                                             rf"{dest}: not a rank of this 3-rank run"):
            sim.run()
        # refused at the send: not counted, not parked in a mailbox
        assert sim.envs[0].sent_messages == int(multicast)
        assert all(d in (0, 1, 2) for d, _ in sim._mailboxes)


class TestBarrier:
    def test_synchronises_clocks(self):
        def prog(env):
            env.compute("blas1", GENERIC.blas1_mflops * 1e6 * (env.rank + 1))
            yield env.barrier()
            return env.clock

        res = run(3, prog)
        assert res.returns[0] == res.returns[1] == res.returns[2]
        assert res.returns[0] > 3.0  # slowest rank dominates


class TestDeadlock:
    def test_detected(self):
        def prog(env):
            yield env.recv("never")

        with pytest.raises(DeadlockError, match="never"):
            run(2, prog)

    def test_partial_deadlock_detected(self):
        def prog(env):
            if env.rank == 0:
                yield env.barrier()
            else:
                yield env.recv("missing")

        with pytest.raises(DeadlockError):
            run(2, prog)


class TestDeterminism:
    def test_repeatable(self):
        def make():
            def prog(env):
                rng = np.random.default_rng(env.rank)
                for i in range(5):
                    env.compute("dgemm", float(rng.integers(1, 1000)))
                    env.send((env.rank + 1) % 3, ("ring", i, env.rank), env.clock)
                    yield env.recv(("ring", i, (env.rank - 1) % 3))
                return env.clock

            return prog

        r1 = run(3, make())
        r2 = run(3, make())
        assert r1.rank_clocks == r2.rank_clocks
        assert r1.total_time == r2.total_time


class TestStats:
    def test_load_balance_factor(self):
        def prog(env):
            env.compute("blas1", 1e6 * (1 if env.rank else 3))
            return None
            yield  # pragma: no cover

        res = run(2, prog)
        lb = res.load_balance_factor()
        assert lb == pytest.approx((3 + 1) / (2 * 3), rel=1e-6)

    def test_spans_recorded(self):
        def prog(env):
            t0 = env.clock
            env.compute("blas1", 1e6)
            env.span("work", t0)
            return None
            yield  # pragma: no cover

        res = run(2, prog)
        assert len(res.spans) == 2
        assert all(s.name == "work" for s in res.spans)


# ---------------------------------------------------------------------------
# a declined zero-copy request is never silent
# ---------------------------------------------------------------------------


def _one_message(env):
    if env.rank == 0:
        env.send(1, "m", np.ones(3))
        return None
    return (yield env.recv("m"))


def _cert_for(module, clean=True, sha256="0" * 64):
    from repro.lint.certify import ZeroCopyCertificate

    return ZeroCopyCertificate({module: {
        "path": "x", "sha256": sha256, "clean": clean, "findings": [],
    }})


class TestZeroCopyFallback:
    @pytest.fixture(autouse=True)
    def _forget_warnings(self, monkeypatch):
        from repro.machine import simulator

        monkeypatch.setattr(simulator, "_ZC_WARNED", set())

    def test_wrong_hash_warns_once_and_counts_every_run(self):
        from repro.obs import Tracer
        from repro.parallel.oned import _rank_program

        cert = _cert_for("repro.parallel.oned")  # clean, but another source
        tracer = Tracer()

        def run_once():
            sim = Simulator(2, T3E, _rank_program, args=(None,),
                            zero_copy=cert, tracer=tracer)
            with pytest.raises(TypeError):  # ctx=None: dies after finalising
                sim.run()
            return sim

        with pytest.warns(RuntimeWarning, match="stale sha256") as caught:
            first = run_once()
            second = run_once()
        assert len([w for w in caught if w.category is RuntimeWarning]) == 1
        for sim in (first, second):
            assert sim.zero_copy is False
            assert sim.zero_copy_reason == "stale sha256: repro.parallel.oned"
        assert tracer.metrics.counter("sim.zero_copy.fallback").value == 2

    @pytest.mark.parametrize("cert,reason", [
        (_cert_for("somewhere.else"), "uncertified"),
        (_cert_for(__name__, clean=False), "dirty"),
        ("/nonexistent/cert.json", "uncertified"),
        # any string is a certificate path: the one that used to mean
        # "trust the caller" certifies nothing, like every unreadable path
        ("unchecked", "uncertified"),
    ], ids=["uncertified", "dirty", "unreadable", "once-a-bypass"])
    def test_reason_reaches_the_result(self, cert, reason):
        with pytest.warns(RuntimeWarning, match=reason):
            res = Simulator(2, T3E, _one_message, zero_copy=cert).run()
        assert res.zero_copy is False
        assert res.zero_copy_reason == f"{reason}: {__name__}"
        assert res.returns[1].tobytes() == np.ones(3).tobytes()

    def test_sanitize_and_unrequested_runs_do_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plain = Simulator(2, T3E, _one_message).run()
            checked = Simulator(2, T3E, _one_message, zero_copy=True,
                                sanitize=True).run()
        assert (plain.zero_copy, plain.zero_copy_reason) == (False, None)
        assert (checked.zero_copy, checked.zero_copy_reason) == (False, "sanitize")

    @pytest.mark.parametrize("method", ["1d-rapid", "1d-ca", "2d", "2d-sync"])
    def test_every_parallel_method_runs_zero_copy(self, contexts, method):
        # the committed certificate covers the rank programs at HEAD: a
        # stale one would put every simulated run back on deep copies
        import warnings

        from repro.api import SStarSolver

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            solver = SStarSolver(nprocs=4, machine="T3E", method=method)
            solver.factor(contexts("sherman5")["A"])
        assert solver.sim_result.zero_copy is True
        assert solver.sim_result.zero_copy_reason is None
        assert solver.report.zero_copy is True
        assert SStarSolver().factor(contexts("sherman5")["A"]).report.zero_copy is None
