"""ABFT checksums against silent data corruption.

Acceptance criteria under test:

* clean ABFT runs (sequential, 1D, 2D) stay **bit-identical** to the
  unprotected factorization — the checksums are carried alongside, never
  folded into the numerics;
* every injected single-block corruption in the test corpus — wire
  payloads on the protected tags (``col`` / ``lcol`` / ``urow`` /
  ``swap``), in-memory block flips, and a mid-sweep compute fault — is
  detected (100%), raising a typed :class:`SilentCorruptionError` with
  block coordinates instead of silently poisoning the factor;
* where the inputs still live, recovery is **localized** (recompute the
  poisoned block column) and the recovered solve is bit-identical to the
  clean one; a corrupted-but-acked wire payload (reliable transport with
  frame checksums off) is caught at consumption, and the ``abft.*`` /
  ``sim.faults.*`` counters agree.
"""

import numpy as np
import pytest

from repro.machine import GENERIC, FaultPlan, ReliableDelivery
from repro.machine.faults import CORRUPT, FaultEvent, MessageFaultRule
from repro.matrices import random_nonsymmetric
from repro.numfact import SilentCorruptionError, sstar_factor
from repro.numfact.abft import payload_checksums, verify_payload
from repro.obs import Tracer
from repro.ordering import prepare_matrix
from repro.parallel import factorize, run_1d, run_2d
from repro.supernodes import build_block_structure, build_partition
from repro.symbolic import static_symbolic_factorization

N = 90


@pytest.fixture(scope="module")
def p():
    A = random_nonsymmetric(N, density=0.06, seed=31)
    om = prepare_matrix(A)
    sym = static_symbolic_factorization(om.A)
    part = build_partition(sym, max_size=6, amalgamation=4)
    bstruct = build_block_structure(sym, part)
    seq = sstar_factor(om.A, sym=sym, part=part)
    b = np.arange(float(N))
    return dict(om=om, sym=sym, part=part, bstruct=bstruct, seq=seq,
                b=b, x=seq.solve(b))


def _bitwise_equal(a, b):
    return (
        set(a.blocks) == set(b.blocks)
        and a.pivot_seq == b.pivot_seq
        and all(np.array_equal(a.blocks[k], b.blocks[k]) for k in a.blocks)
    )


# ---------------------------------------------------------------------------
# sequential: clean bit-identity, detection, localized recovery
# ---------------------------------------------------------------------------


class TestPayloadTolerance:
    def test_tolerance_separates_drift_from_corruption(self):
        # a 4x4 block of ones: the tolerance is ABFT_RTOL * (1 + 16), so a
        # 1e-6 error in one entry is corruption and a 1e-9 one carried drift
        for delta, detected in ((1e-6, True), (1e-9, False)):
            payload = {"x": np.ones((4, 4))}
            payload["abft"] = payload_checksums({"x": payload["x"]})
            payload["x"][1, 2] += delta
            if detected:
                with pytest.raises(SilentCorruptionError):
                    verify_payload(payload, "test")
            else:
                assert verify_payload(payload, "test") is payload


class TestSequentialAbft:
    def test_clean_run_bit_identical(self, p):
        lu = sstar_factor(p["om"].A, sym=p["sym"], part=p["part"], abft=True)
        assert _bitwise_equal(lu.matrix, p["seq"].matrix)
        assert np.array_equal(lu.solve(p["b"]), p["x"])
        assert lu.abft is not None
        assert lu.abft.detected == 0 and lu.abft.recovered == 0

    def test_inmemory_corruption_detected_and_recovered(self, p):
        lu = sstar_factor(p["om"].A, sym=p["sym"], part=p["part"], abft=True)
        key = sorted(lu.matrix.blocks)[len(lu.matrix.blocks) // 2]
        lu.matrix.blocks[key][0, 0] += 0.5  # silent bit flip
        x = lu.solve(p["b"])  # solve() verifies, recovers, then solves
        assert np.array_equal(x, p["x"])
        assert lu.abft.detected >= 1 and lu.abft.recovered >= 1

    def test_detection_without_recovery_raises_typed(self, p):
        lu = sstar_factor(p["om"].A, sym=p["sym"], part=p["part"], abft=True)
        key = sorted(lu.matrix.blocks)[0]
        lu.matrix.blocks[key][0, 0] *= 1.25
        with pytest.raises(SilentCorruptionError) as ei:
            lu.verify_abft(recover=False)
        assert ei.value.block == key  # coordinates name the poisoned block

    def test_multi_column_corruption_recovers_bitwise(self, p):
        lu = sstar_factor(p["om"].A, sym=p["sym"], part=p["part"], abft=True)
        keys = sorted(lu.matrix.blocks)
        for key in (keys[1], keys[-1]):
            lu.matrix.blocks[key].flat[0] += 3.0
        n = lu.verify_abft()
        assert n >= 2
        assert _bitwise_equal(lu.matrix, p["seq"].matrix)
        assert np.array_equal(lu.solve(p["b"]), p["x"])

    def test_abft_flop_overhead_is_small(self):
        """<15% modeled factor time on the paper's machine at the paper's
        block sizes.  The carry is O(b^2) per O(b^3) GEMM, so the ratio
        scales as 1/b — asserted at paper-scale blocks (b=25, the dense
        supernodes the S* amalgamation targets); the tiny-block sparse
        fixture above has b=6 and proportionally larger overhead (see
        BENCH_abft_overhead.json for the full sweep)."""
        from repro.machine import T3E
        from repro.matrices import dense_matrix

        A = dense_matrix(150, seed=1)
        om = prepare_matrix(A)
        sym = static_symbolic_factorization(om.A)
        part = build_partition(sym, max_size=25, amalgamation=4)
        lu0 = sstar_factor(om.A, sym=sym, part=part)
        lu1 = sstar_factor(om.A, sym=sym, part=part, abft=True)
        assert _bitwise_equal(lu1.matrix, lu0.matrix)
        t0 = lu0.counter.modeled_seconds(T3E)
        t1 = lu1.counter.modeled_seconds(T3E)
        assert t1 / t0 - 1.0 < 0.15


# ---------------------------------------------------------------------------
# parallel: clean bit-identity and the wire-corruption corpus
# ---------------------------------------------------------------------------


class TestParallelAbft:
    @pytest.mark.parametrize("method", ["rapid", "ca"])
    def test_1d_clean_abft_bit_identical(self, p, method):
        res = run_1d(p["om"].A, p["part"], p["bstruct"], 4, GENERIC,
                     method=method, abft=True)
        assert _bitwise_equal(res.factor, p["seq"].matrix)

    @pytest.mark.parametrize("synchronous", [False, True])
    def test_2d_clean_abft_bit_identical(self, p, synchronous):
        res = run_2d(p["om"].A, p["part"], p["bstruct"], 4, GENERIC,
                     synchronous=synchronous, abft=True)
        assert _bitwise_equal(res.factor, p["seq"].matrix)

    # the protected payload corpus: every block-payload tag of both codes
    CORPUS = [("1d", "col"), ("2d", "lcol"), ("2d", "urow"), ("2d", "swap")]

    @pytest.mark.parametrize("mode,tag", CORPUS)
    def test_injected_payload_corruption_always_detected(self, p, mode, tag):
        """100% detection: every run that injected a corruption raises."""
        detected_runs = injected_runs = 0
        for seed in range(6):
            plan = FaultPlan(
                rules=[MessageFaultRule(CORRUPT, rate=0.3,
                                        tag_prefix=(tag,))],
                seed=seed)
            tr = Tracer()
            raised = False
            try:
                if mode == "1d":
                    run_1d(p["om"].A, p["part"], p["bstruct"], 4, GENERIC,
                           method="ca", abft=True,
                           sim_opts={"tracer": tr, "faults": plan})
                else:
                    run_2d(p["om"].A, p["part"], p["bstruct"], 4, GENERIC,
                           abft=True,
                           sim_opts={"tracer": tr, "faults": plan})
            except SilentCorruptionError:
                raised = True
            injected = tr.metrics.counter("sim.faults.corrupted").value
            if injected:
                injected_runs += 1
                assert raised, (
                    f"{mode}/{tag} seed {seed}: {injected:g} corruptions "
                    f"injected but none detected")
                detected_runs += 1
            else:
                assert not raised
        assert injected_runs >= 3  # the corpus actually exercised the tag
        assert detected_runs == injected_runs

    def test_corrupted_but_acked_payload_caught(self, p):
        """Reliable transport with frame checksums OFF acks a corrupted
        frame as delivered; ABFT must still catch it, and the metrics
        agree: one injected corruption, one detection, no retransmit."""
        base = run_1d(p["om"].A, p["part"], p["bstruct"], 4, GENERIC,
                      method="ca", sim_opts={"trace": True})
        msg = next(m for m in base.sim.trace.records
                   if isinstance(m.tag, tuple) and m.tag[0] == "col")
        plan = FaultPlan(events=[
            FaultEvent(CORRUPT, msg.src, msg.dest, msg.tag)])
        tr = Tracer()
        with pytest.raises(SilentCorruptionError) as ei:
            run_1d(p["om"].A, p["part"], p["bstruct"], 4, GENERIC,
                   method="ca", abft=True,
                   sim_opts={"tracer": tr, "faults": plan,
                             "reliable": ReliableDelivery(checksum=False)})
        assert "payload:col" in ei.value.where
        m = tr.metrics
        assert m.counter("sim.faults.corrupted").value == 1
        assert m.counter("abft.detected").value == 1
        assert m.counter("sim.retransmits").value == 0  # acked, not retried

    def test_transport_checksums_mask_corruption(self, p):
        """With frame checksums ON the NIC discards and retries — the
        same plan completes bit-identically and ABFT never fires."""
        plan = FaultPlan(
            rules=[MessageFaultRule(CORRUPT, rate=0.3, tag_prefix=("col",))],
            seed=2)
        tr = Tracer()
        res = run_1d(p["om"].A, p["part"], p["bstruct"], 4, GENERIC,
                     method="ca", abft=True,
                     sim_opts={"tracer": tr, "faults": plan,
                               "reliable": ReliableDelivery()})
        assert res.sim.fault_stats.corrupted >= 1
        assert res.sim.fault_stats.retransmits >= 1
        assert tr.metrics.counter("abft.detected").value == 0
        assert _bitwise_equal(res.factor, p["seq"].matrix)


# ---------------------------------------------------------------------------
# checkpoint/restart fallback: corrupted round replays from the checkpoint
# ---------------------------------------------------------------------------


class TestResilientAbft:
    @pytest.mark.parametrize("method", ["1d-ca", "2d"])
    def test_corruption_discards_round_and_recovers(self, p, method):
        plan = FaultPlan(
            rules=[MessageFaultRule(CORRUPT, rate=0.25)], seed=4)
        tr = Tracer()
        res = factorize(method, p["om"].A, p["part"], p["bstruct"], 4,
                        GENERIC, ckpt_interval=4, abft=True,
                        sim_opts={"tracer": tr, "faults": plan,
                                  "reliable": ReliableDelivery(checksum=False)})
        assert _bitwise_equal(res.factor, p["seq"].matrix)
        aborted = [r for r in res.rounds if not r.ok and r.corrupted]
        assert aborted, "no round was discarded for corruption"
        assert tr.metrics.counter("abft.recovered").value == len(aborted)
