"""The discrete-event SPMD simulator and machine specs."""

import numpy as np
import pytest

from repro.machine import (
    DeadlockError,
    GENERIC,
    PayloadMutationError,
    Simulator,
    T3D,
    T3E,
)
from repro.verify import check_messages


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
        got = []

        def prog(env):
            if env.rank == 0:
                env.send(1, "a", arr)
                arr[:] = -1  # mutate after send: fails at the write
            else:
                got.append((yield env.recv("a")))

        with pytest.raises(PayloadMutationError, match="write-after-send"):
            run(2, prog)
        assert not arr.flags.writeable and (arr == 1).all() and not got

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
# dynamic sanitizer: Simulator(sanitize=True)
# ---------------------------------------------------------------------------


def _mutating_program(env):
    if env.rank == 0:
        buf = np.ones(4)
        env.send(1, ("m", 0), buf)
        buf[0] = 99.0  # the seeded write-after-send
    else:
        yield env.recv(("m", 0))
    yield env.barrier()


def _clean_program(env):
    if env.rank == 0:
        buf = np.ones(4)
        env.send(1, ("m", 0), buf.copy())
        buf[0] = 99.0
    else:
        msg = yield env.recv(("m", 0))
        assert msg[0] == 1.0
    yield env.barrier()


class TestSanitizer:
    def test_write_after_send_raises(self):
        sim = Simulator(2, GENERIC, _mutating_program, sanitize=True)
        with pytest.raises(PayloadMutationError) as ei:
            sim.run()
        err = ei.value
        assert err.src == 0 and err.dest == 1
        assert err.tag == ("m", 0)
        assert "write-after-send" in str(err)

    def test_copy_on_send_is_clean(self):
        Simulator(2, GENERIC, _clean_program, sanitize=True).run()

    def test_sanitize_off_still_fails_at_the_write(self):
        # the payload is read-only from its send on: the write itself
        # raises, with or without the content hash
        with pytest.raises(PayloadMutationError) as ei:
            Simulator(2, GENERIC, _mutating_program, sanitize=False).run()
        assert (ei.value.src, ei.value.dest, ei.value.tag) == (0, 1, ("m", 0))

    def test_mutated_record_flagged_in_trace(self):
        sim = Simulator(2, GENERIC, _mutating_program, trace=True,
                        sanitize=True)
        with pytest.raises(PayloadMutationError):
            sim.run()
        mutated = [r for r in sim.trace.records if r.mutated]
        assert len(mutated) == 1
        violations = check_messages(sim.trace, spec=GENERIC)
        assert any(v.rule == "MUTATE" for v in violations)

    def test_undelivered_mutation_detected_at_exit(self):
        def leaky(env):
            if env.rank == 0:
                buf = np.ones(4)
                env.send(1, ("never", 0), buf[:2])
                # through the writable base: only the content hash sees it
                buf[0] = 7.0  # seeded bug
            yield env.barrier()

        sim = Simulator(2, GENERIC, leaky, sanitize=True)
        with pytest.raises(PayloadMutationError) as ei:
            sim.run()
        assert "the run ended" in str(ei.value)

    def test_dict_payload_mutation_detected(self):
        def prog(env):
            if env.rank == 0:
                blocks = {0: np.ones(3), 1: np.zeros(3)}
                env.send(1, ("d", 0), blocks)
                blocks[1][2] = 5.0  # seeded bug
            else:
                yield env.recv(("d", 0))
            yield env.barrier()

        with pytest.raises(PayloadMutationError):
            Simulator(2, GENERIC, prog, sanitize=True).run()

    def test_sending_span_named_in_error(self):
        def prog(env):
            if env.rank == 0:
                t0 = env.clock
                buf = np.ones(4)
                env.send(1, ("m", 0), buf)
                env.span("F7", t0)
                buf[0] = -1.0  # seeded bug
            else:
                yield env.recv(("m", 0))
            yield env.barrier()

        with pytest.raises(PayloadMutationError) as ei:
            Simulator(2, GENERIC, prog, sanitize=True).run()
        assert ei.value.span == "F7"
        assert "'F7'" in str(ei.value)
