"""Every check of the one check library (``repro.verify.checks``) can fail.

Each case builds the input a green run hands its check, then seeds one
defect into it: a flipped factor bit or pivot, a perturbed solution, a
record consumed before it arrived, a shifted span, a counter off by one,
committed rounds with a gap or out of order, a round without a trace, no
surviving ranks, an error the run raised.  Without the defect the check
passes; with it the check reports ``ok=False`` and says why — so each
guarantee the checks stand for has a gate that can actually fail.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.chaos import Scenario, build_context, run_case
from repro.machine import DeliveryError, FaultPlan
from repro.obs import TASK
from repro.verify.checks import (
    Check,
    check_bit_identical,
    check_completed,
    check_metrics_consistent,
    check_rounds,
    check_solve_identical,
    check_span_tiling,
    check_trace,
)


@pytest.fixture(scope="module")
def ctx():
    return build_context()


def _green_1d(ctx):
    out = run_case(ctx, Scenario("1d-ca", "1d"), FaultPlan())
    assert out.ok, out.oracles
    return out


def _factor_copy(ctx):
    m = ctx.seq.matrix
    return SimpleNamespace(blocks={k: v.copy() for k, v in m.blocks.items()},
                           pivot_seq=[list(s) for s in m.pivot_seq])


def flipped_bit(ctx, defect):
    factor = _factor_copy(ctx)
    if defect:
        blk = next(b for b in factor.blocks.values() if b.any())
        blk.reshape(-1).view(np.uint64)[np.flatnonzero(blk)[0]] ^= 1
    return check_bit_identical(factor, ctx.seq)


def flipped_pivot(ctx, defect):
    factor = _factor_copy(ctx)
    if defect:
        r1, r2 = factor.pivot_seq[0][0]
        factor.pivot_seq[0][0] = (r1, r2 + 1)
    return check_bit_identical(factor, ctx.seq)


def perturbed_solution(ctx, defect):
    x = ctx.x_ref.copy()
    if defect:
        x[0] = np.nextafter(x[0], np.inf)
    return check_solve_identical(x, ctx.x_ref)


def consumed_before_arrival(ctx, defect):
    out = _green_1d(ctx)
    if defect:
        rec = next(r for r in out.run.sim.trace.records if r.t_recv is not None)
        rec.t_recv = rec.arrival - 1e-3
    return check_trace(out.run.sim, ctx.spec)


def shifted_span(ctx, defect):
    out = _green_1d(ctx)
    if defect:
        span = next(s for s in out.tracer.spans if s.track == 0 and s.cat != TASK)
        span.start += 1e-6
        span.end += 1e-6
    return check_span_tiling(out.tracer, out.run.sim)


def counter_off_by_one(ctx, defect):
    out = _green_1d(ctx)
    if defect:
        out.tracer.metrics.counter("sim.messages").inc()
    return check_metrics_consistent(out.tracer, out.run.sim)


def _rounds(windows, sims=(), nprocs_final=4):
    rounds = [SimpleNamespace(ok=True, window=w) for w in windows]
    return SimpleNamespace(rounds=rounds, sims=list(sims),
                           nprocs_final=nprocs_final)


def _recovery(ctx, resilient):
    recovery, _ = check_rounds(resilient, 8, ctx.spec)
    return recovery


def rounds_with_gap(ctx, defect):
    return _recovery(ctx, _rounds([(0, 4), (5 if defect else 4, 8)]))


def rounds_out_of_order(ctx, defect):
    windows = [(0, 4), (4, 8)]
    return _recovery(ctx, _rounds(windows[::-1] if defect else windows))


def no_surviving_ranks(ctx, defect):
    return _recovery(ctx, _rounds([(0, 8)], nprocs_final=0 if defect else 4))


def round_without_trace(ctx, defect):
    sim = _green_1d(ctx).run.sim
    if defect:
        sim = SimpleNamespace(trace=None)
    _, trace = check_rounds(_rounds([(0, 8)], sims=[sim]), 8, ctx.spec)
    return trace


def raised(ctx, defect):
    return check_completed(DeliveryError("all attempts lost") if defect else None)


CASES = {
    "bit_identical": (flipped_bit, flipped_pivot),
    "solve_identical": (perturbed_solution,),
    "tracecheck": (consumed_before_arrival, round_without_trace),
    "span_tiling": (shifted_span,),
    "metrics_consistent": (counter_off_by_one,),
    "recovery": (rounds_with_gap, rounds_out_of_order, no_surviving_ranks),
    "completed": (raised,),
}


@pytest.mark.parametrize("name,seed", [
    pytest.param(name, seed, id=f"{name}-{seed.__name__}")
    for name, seeds in CASES.items() for seed in seeds
])
def test_check_fails_on_its_seeded_defect(ctx, name, seed):
    green = seed(ctx, defect=False)
    assert isinstance(green, Check) and (green.name, green.ok) == (name, True)
    bad = seed(ctx, defect=True)
    assert (bad.name, bad.ok) == (name, False)
    assert bad.detail
    assert str(bad).startswith(f"FAIL {name}: ")
