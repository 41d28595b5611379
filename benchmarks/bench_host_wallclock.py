"""Host wall-clock — legacy vs optimized host paths on the tier-1 workloads.

Not a paper table: this measures what the host-performance work is worth in
*real* seconds, with the simulated machine held fixed.  Every workload runs
twice per repetition, interleaved:

* **legacy** — ``sim_opts={"scheduler": "poll", "zero_copy": False}`` plus
  ``batched_updates(False)``: round-robin polling, deep-copied message
  payloads, per-block supernode updates;
* **optimized** — the defaults: event-driven scheduling, lint-certified
  zero-copy delivery, batched update sweeps.

Both modes must agree *bitwise* — identical factors/solutions and identical
virtual times — so the ``identical`` column doubles as a semantics check.
Wall-clock is the min over ``REPS`` paired repetitions (host timing is
noisy; minima compare steady states).

Run it with ``PYTHONPATH=src python benchmarks/bench_host_wallclock.py``;
rows are printed and written to
``benchmarks/results/BENCH_host_wallclock.json`` (not committed: CI gates
the host paths through ``benchmarks/e2e`` and ``tools/check_e2e_exact.py``
instead of a legacy/optimized ratio).
"""

import hashlib
import sys
import time

import numpy as np
import pytest

from conftest import print_table, save_results
from repro.machine import T3E, CrashFault, FaultPlan
from repro.numfact import LUFactorization
from repro.numfact.tasks import batched_updates
from repro.parallel import run_1d, run_1d_trisolve, run_2d, run_2d_trisolve
from repro.parallel.resilience import run_1d_resilient

MATRICES = ["sherman5", "goodwin"]
P_1D = 32
P_2D = 64
REPS = 3
LEGACY_OPTS = {"scheduler": "poll", "zero_copy": False}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _fp(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _factor_fp(factor, sim) -> str:
    return _fp(
        *(factor.blocks[k].tobytes() for k in sorted(factor.blocks)),
        factor.pivot_seq,
        sim.total_time,
        sim.rank_clocks,
        sim.messages,
    )


def _prepare(ctx) -> dict:
    """Shared inputs per matrix: the factor the trisolves consume, plus the
    fault plans.  Also warms every structural memo (task graph, schedules,
    sweep tables) so timings measure the per-run host path, not one-time
    derivations both modes share."""
    A, part, bstruct = ctx.ordered.A, ctx.part, ctx.bstruct
    r1 = run_1d(A, part, bstruct, P_1D, T3E, method="rapid", tg=ctx.taskgraph)
    lu = LUFactorization(r1.factor, ctx.sym, ctx.part, ctx.bstruct,
                         r1.sim.total_counter())
    probe = run_1d(A, part, bstruct, P_1D, T3E, method="ca", tg=ctx.taskgraph)
    return {
        "A": A, "part": part, "bstruct": bstruct, "tg": ctx.taskgraph,
        "lu": lu, "owner_1d": r1.schedule.owner, "b": np.ones(ctx.ordered.n),
        "crash_plan": FaultPlan(crashes=[CrashFault(2, probe.sim.total_time * 0.4)]),
        "drop_plan": FaultPlan.drops(0.05, seed=11),
    }


def _case_1d(method):
    def run(p, opts):
        r = run_1d(p["A"], p["part"], p["bstruct"], P_1D, T3E,
                   method=method, tg=p["tg"], sim_opts=opts)
        return _factor_fp(r.factor, r.sim)
    return run


def _case_2d(synchronous):
    def run(p, opts):
        r = run_2d(p["A"], p["part"], p["bstruct"], P_2D, T3E,
                   synchronous=synchronous, sim_opts=opts)
        return _factor_fp(r.factor, r.sim)
    return run


def _case_tri1d(p, opts):
    r = run_1d_trisolve(p["lu"], p["owner_1d"], p["b"], P_1D, T3E, sim_opts=opts)
    return _fp(r.x.tobytes(), r.sim.total_time, r.sim.rank_clocks)


def _case_tri2d(p, opts):
    r = run_2d_trisolve(p["lu"], p["b"], P_2D, T3E, sim_opts=opts)
    return _fp(r.x.tobytes(), r.sim.total_time, r.sim.rank_clocks)


def _case_resilient(p, opts):
    r = run_1d_resilient(p["A"], p["part"], p["bstruct"], P_1D, T3E,
                         method="ca", ckpt_interval=3, faults=p["crash_plan"],
                         reliable=True, sim_opts=opts)
    return _fp(
        *(r.factor.blocks[k].tobytes() for k in sorted(r.factor.blocks)),
        r.factor.pivot_seq, r.total_time, r.crashes,
    )


def _case_chaos(p, opts):
    # chaos-smoke analogue: lossy network + ack/retry reliable delivery
    opts = dict(opts or {})
    opts.update(faults=p["drop_plan"], reliable=True)
    r = run_1d(p["A"], p["part"], p["bstruct"], P_1D, T3E,
               method="ca", tg=p["tg"], sim_opts=opts)
    return _factor_fp(r.factor, r.sim)


CASES = {
    "1d-rapid": _case_1d("rapid"),
    "1d-ca": _case_1d("ca"),
    "2d-sync": _case_2d(True),
    "2d-async": _case_2d(False),
    "tri-1d": _case_tri1d,
    "tri-2d": _case_tri2d,
    "resilient": _case_resilient,
    "chaos-smoke": _case_chaos,
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def _run_mode(case_fn, prep, mode) -> str:
    if mode == "legacy":
        with batched_updates(False):
            return case_fn(prep, dict(LEGACY_OPTS))
    return case_fn(prep, None)


def _measure(matrix: str, case: str, prep: dict, reps: int = REPS) -> dict:
    case_fn = CASES[case]
    fps = {m: _run_mode(case_fn, prep, m) for m in ("legacy", "optimized")}
    times = {"legacy": [], "optimized": []}
    for _ in range(reps):  # interleave modes so drift hits both equally
        for mode in ("legacy", "optimized"):
            t0 = time.perf_counter()
            _run_mode(case_fn, prep, mode)
            times[mode].append(time.perf_counter() - t0)
    legacy_s, opt_s = min(times["legacy"]), min(times["optimized"])
    return {
        "matrix": matrix,
        "case": case,
        "legacy_ms": legacy_s * 1e3,
        "optimized_ms": opt_s * 1e3,
        "speedup": legacy_s / opt_s,
        "identical": fps["legacy"] == fps["optimized"],
    }


# ---------------------------------------------------------------------------
# full bench (pytest)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def wallclock_rows(ctx_cache):
    rows = []
    for name in MATRICES:
        prep = _prepare(ctx_cache(name))
        for case in CASES:
            rows.append(_measure(name, case, prep))
    return rows


def test_host_wallclock_report(wallclock_rows):
    header = ["matrix", "case", "legacy (ms)", "optimized (ms)", "speedup",
              "identical"]
    rows = [
        (r["matrix"], r["case"], f"{r['legacy_ms']:.1f}",
         f"{r['optimized_ms']:.1f}", f"{r['speedup']:.2f}x",
         "yes" if r["identical"] else "NO")
        for r in wallclock_rows
    ]
    print_table("Host wall-clock: legacy vs optimized", header, rows)
    save_results("host_wallclock", wallclock_rows)

    # semantics first: a fast wrong answer is a bug, not a speedup
    for r in wallclock_rows:
        assert r["identical"], f"{r['matrix']}/{r['case']}: modes diverged"
    # the optimized path must win in aggregate; individual small cases can
    # graze 1.0 on a noisy runner, so gate the geometric mean loosely here
    logs = [np.log(r["speedup"]) for r in wallclock_rows]
    geomean = float(np.exp(np.mean(logs)))
    assert geomean > 1.1, f"geomean speedup {geomean:.2f}x"


if __name__ == "__main__":
    sys.exit(int(pytest.main(["-q", "-p", "no:cacheprovider", __file__])))
