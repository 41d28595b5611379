"""The one check library: every invariant a verifier asserts, as a :class:`Check`.

Three batteries compose it — the chaos campaign
(:func:`repro.chaos.campaign.evaluate`), ``repro verify-comm`` (its fault
stage is two chaos cases) and :func:`repro.api.validate_matrix` — and a run
is green only when *every* applicable check passes.  The checks are
deliberately exact — the simulated machine is deterministic, so under any
*recoverable* fault plan the factorization must be **bit-identical** to
the fault-free reference, not merely close:

``completed``
    the run finished — no deadlock, no typed delivery/crash error
    escaping the recovery machinery, no unexpected exception;
``bit_identical``
    merged factor blocks and pivot sequence equal the reference exactly;
``solve_identical``
    the solve through the recovered factor reproduces the reference
    solution bitwise (``service_result`` for a solve-service job);
``tracecheck``
    the message trace passes :func:`repro.verify.check_run` (uniqueness,
    no leaked messages, causality, retransmit recognition — and for 1D,
    span/DAG conformance); for a checkpointed run, every round's trace;
``span_tiling``
    every rank's non-task tracer spans tile its timeline contiguously
    from 0 to the rank's final clock — no gaps, no overlaps, even when
    ranks crash while blocked (metrics/trace consistency, part 1);
``metrics_consistent``
    the MetricsRegistry counters agree exactly with the simulator's own
    accounting: injected-fault counters vs ``FaultStats``, message and
    byte counters vs the SimResult (metrics/trace consistency, part 2);
``recovery``
    (checkpointed runs) the committed rounds cover the stage range
    ``[0, N)`` in order, i.e. restart replayed every discarded window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import TASK
from .tracecheck import check_run


@dataclass(frozen=True)
class Check:
    """Outcome of one invariant on one run."""

    name: str
    ok: bool
    detail: str = ""

    def __str__(self):
        return f"{'ok ' if self.ok else 'FAIL'} {self.name}" + (
            f": {self.detail}" if self.detail and not self.ok else ""
        )


def check_completed(error=None) -> Check:
    """``error`` is what the run raised, or None when it finished."""
    if error is None:
        return Check("completed", True)
    return Check("completed", False, repr(error))


def check_bit_identical(factor, reference) -> Check:
    """``reference`` is a ``BlockLUMatrix`` or an ``LUFactorization``."""
    ref = getattr(reference, "matrix", reference)
    if set(factor.blocks) != set(ref.blocks):
        return Check("bit_identical", False, "block set differs")
    if factor.pivot_seq != ref.pivot_seq:
        return Check("bit_identical", False, "pivot sequence differs")
    for key in ref.blocks:
        if not np.array_equal(factor.blocks[key], ref.blocks[key]):
            return Check("bit_identical", False, f"block {key} differs")
    return Check("bit_identical", True)


def check_solve_identical(x, x_ref, name: str = "solve_identical") -> Check:
    if np.array_equal(x, x_ref):
        return Check(name, True)
    err = float(np.max(np.abs(x - x_ref)))
    return Check(name, False, f"max |dx| = {err:.3g}")


def check_trace(sim_result, spec, tg=None, schedule=None) -> Check:
    """The detail is the :class:`TraceCheckReport` summary, followed by
    the violations when there are any."""
    report = check_run(sim_result, spec=spec, tg=tg, schedule=schedule)
    detail = report.summary()
    if not report.ok:
        detail += ": " + "; ".join(map(str, report.violations))
    return Check("tracecheck", report.ok, detail)


def check_rounds(run, n_stages: int, spec) -> list:
    """``recovery`` and ``tracecheck`` of a checkpointed run: committed
    rounds cover ``[0, n_stages)`` in order on surviving ranks, and every
    round's trace passes."""
    k, gap = 0, None
    for rnd in run.rounds:
        if not rnd.ok:
            continue
        if rnd.window[0] != k:
            gap = f"committed round starts at {rnd.window[0]}, expected {k}"
            break
        k = rnd.window[1]
    else:
        if k != n_stages:
            gap = f"rounds cover [0, {k}), need [0, {n_stages})"
        elif run.nprocs_final < 1:
            gap = "no surviving ranks"
    trace = Check("tracecheck", True)
    for i, round_sim in enumerate(run.sims):
        c = check_trace(round_sim, spec)
        if not c.ok:
            trace = Check("tracecheck", False, f"round {i}: {c.detail}")
            break
    return [Check("recovery", gap is None, gap or ""), trace]


def check_span_tiling(tracer, sim_result) -> Check:
    """Non-task spans on each rank's track must tile [0, rank_clock]."""
    for r in range(sim_result.nprocs):
        spans = sorted(
            (s for s in tracer.spans
             if s.track == r and s.cat != TASK),
            key=lambda s: (s.start, s.end),
        )
        cursor = 0.0
        for s in spans:
            if abs(s.start - cursor) > 1e-12:
                return Check(
                    "span_tiling", False,
                    f"rank {r}: gap/overlap at t={cursor:.3g} "
                    f"(next span {s.name!r} starts {s.start:.3g})",
                )
            cursor = s.end
        end = sim_result.rank_clocks[r]
        if abs(cursor - end) > 1e-12:
            return Check(
                "span_tiling", False,
                f"rank {r}: timeline ends at {cursor:.3g}, clock is {end:.3g}",
            )
    return Check("span_tiling", True)


def check_metrics_consistent(tracer, sim_result) -> Check:
    """Counters must agree exactly with the simulator's own accounting."""
    stats = sim_result.fault_stats
    checks = [
        ("sim.faults.dropped", stats.dropped),
        ("sim.faults.duplicated", stats.duplicated),
        ("sim.faults.delayed", stats.delayed),
        ("sim.faults.corrupted", stats.corrupted),
        ("sim.retransmits", stats.retransmits),
        ("sim.messages", sim_result.messages),
        ("sim.bytes", sim_result.bytes_sent),
    ]
    for name, expect in checks:
        got = tracer.metrics.counter(name).value
        if got != expect:
            return Check(
                "metrics_consistent", False,
                f"{name}: counter={got}, simulator={expect}",
            )
    return Check("metrics_consistent", True)
