"""Fault-tolerance overhead — acks, retransmissions and checkpoints.

Not a paper table: this quantifies what the resilience layer costs in
simulated (virtual) time on the paper's test matrices.  Three overheads
are measured against the fault-free 1D CA baseline:

* **ack** — reliable delivery on a fault-free network (pure protocol cost:
  every send blocks on its acknowledgement);
* **retry** — reliable delivery under an 8% message-drop plan (ack cost
  plus retransmission backoff), which must still produce a bit-identical
  factorization;
* **ckpt** — checkpoint/restart rounds with no faults (the cost of cutting
  the pipeline at panel boundaries), also bit-identical.

Rows land in ``benchmarks/results/BENCH_fault_overhead.json``.
"""

import pytest

from conftest import print_table, save_results
from repro.machine import T3E, FaultPlan
from repro.parallel import factorize, run_1d
from repro.verify.checks import check_bit_identical

MATRICES = ["sherman5", "lnsp3937", "orsreg1"]
NPROCS = 8
DROP_PLAN = FaultPlan.drops(0.08, seed=42)
CKPT_INTERVAL = 4


@pytest.fixture(scope="module")
def overhead_rows(ctx_cache):
    rows = []
    for name in MATRICES:
        ctx = ctx_cache(name)
        args = (ctx.ordered.A, ctx.part, ctx.bstruct, NPROCS, T3E)
        base = run_1d(*args, method="ca")
        t0 = base.sim.total_time

        acked = run_1d(*args, method="ca", sim_opts={"reliable": True})
        retry = run_1d(*args, method="ca",
                       sim_opts={"faults": DROP_PLAN, "reliable": True})
        ckpt = factorize("1d-ca", *args, ckpt_interval=CKPT_INTERVAL)

        assert check_bit_identical(base.factor, acked.factor).ok
        assert check_bit_identical(base.factor, retry.factor).ok
        assert check_bit_identical(base.factor, ckpt.factor).ok

        rows.append({
            "matrix": name,
            "n": ctx.ordered.A.nrows,
            "baseline_s": t0,
            "ack_overhead": acked.sim.total_time / t0 - 1.0,
            "retry_overhead": retry.sim.total_time / t0 - 1.0,
            "ckpt_overhead": ckpt.parallel_seconds / t0 - 1.0,
            "retransmits": retry.sim.fault_stats.retransmits,
            "dropped": retry.sim.fault_stats.dropped,
            "rounds": len(ckpt.rounds),
        })
    return rows


def test_fault_overhead_report(overhead_rows):
    header = ["matrix", "n", "base (s)", "ack", "retry", "ckpt",
              "drops", "resends", "rounds"]
    rows = [
        (
            r["matrix"], r["n"], f"{r['baseline_s']:.4g}",
            f"{r['ack_overhead']:+.1%}", f"{r['retry_overhead']:+.1%}",
            f"{r['ckpt_overhead']:+.1%}", r["dropped"], r["retransmits"],
            r["rounds"],
        )
        for r in overhead_rows
    ]
    print_table("Fault-tolerance virtual-time overhead (1D CA, P=8)",
                header, rows)
    save_results("fault_overhead", overhead_rows)

    for r in overhead_rows:
        # protocol costs are real but bounded: acks alone stay cheap, and
        # an 8% drop rate costs at least as much as acks alone
        assert 0.0 < r["ack_overhead"]
        assert r["retry_overhead"] >= r["ack_overhead"] - 1e-12
        assert r["dropped"] >= 1 and r["retransmits"] >= 1
        # checkpoint rounds only re-cut the pipeline; no work is redone
        assert r["rounds"] >= 2
        assert -0.05 < r["ckpt_overhead"]


def test_bench_reliable_run(benchmark, ctx_cache):
    ctx = ctx_cache("orsreg1")

    def run():
        return run_1d(ctx.ordered.A, ctx.part, ctx.bstruct, NPROCS, T3E,
                      method="ca",
                      sim_opts={"faults": DROP_PLAN, "reliable": True})

    res = benchmark.pedantic(run, rounds=2, iterations=1)
    assert res.sim.fault_stats.retransmits >= 0
