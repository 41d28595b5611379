"""Determinism/replay checking of simulated SPMD runs.

The discrete-event simulator promises that simulated semantics — numerics,
virtual clocks, message traffic — do not depend on the *host* order in
which runnable ranks are advanced.  That promise is exactly what makes the
asynchronous codes debuggable; a program that breaks it (e.g. by mutating
state shared across rank generators) is racy even though every individual
run looks plausible.

This module re-runs a simulation under perturbed ready-queue tie-breaking
orders (``Simulator(host_order=...)``) and requires the outcomes to be
**bit-identical**: per-rank clocks, busy times, returned numerics (ndarray
payloads compared by bytes), task spans, and the per-sender message
sequences of the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def host_orders(nprocs: int, n_orders: int = 3, seed: int = 12345) -> list:
    """Distinct host scheduling orders: natural, reversed, then seeded
    shuffles.  The first order is the baseline the others compare against."""
    orders = [list(range(nprocs)), list(reversed(range(nprocs)))]
    rng = np.random.default_rng(seed)
    while len(orders) < n_orders:
        perm = list(rng.permutation(nprocs))
        perm = [int(p) for p in perm]
        if perm not in orders or nprocs == 1:
            orders.append(perm)
        if nprocs == 1:
            break
    return orders[:max(n_orders, 1)]


@dataclass
class ReplayReport:
    """Outcome of a determinism replay."""

    runs: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        if self.ok:
            return f"OK ({self.runs} host orders, bit-identical)"
        return f"{len(self.mismatches)} mismatch(es) across {self.runs} host orders"


def _equal(a, b) -> bool:
    """Recursive bit-exact equality (ndarrays compared by raw bytes)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            return False
        return (
            a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)  # NaN-tolerant exact compare
    return a == b


def _trace_key(trace):
    """Host-order-independent view of a trace: per-sender send sequences."""
    if trace is None:
        return None
    return {
        src: [
            (r.dest, repr(r.tag), r.t_send, r.arrival, r.nbytes, r.t_recv)
            for r in records
        ]
        for src, records in trace.by_src().items()
    }


def _compare(base, other, label: str) -> list:
    mismatches = []

    def chk(name, a, b):
        if not _equal(a, b):
            mismatches.append(
                f"{label}: {name} differs from baseline ({a!r} != {b!r})"
                if name in ("total_time", "messages", "bytes_sent")
                else f"{label}: {name} differs from baseline"
            )

    chk("total_time", base.total_time, other.total_time)
    chk("rank_clocks", base.rank_clocks, other.rank_clocks)
    chk("rank_busy", base.rank_busy, other.rank_busy)
    chk("messages", base.messages, other.messages)
    chk("bytes_sent", base.bytes_sent, other.bytes_sent)
    chk("returns", base.returns, other.returns)
    chk("spans", [s.key() for s in base.spans],
        [s.key() for s in other.spans])
    chk("trace", _trace_key(base.trace), _trace_key(other.trace))
    return mismatches


def replay_check(runner, nprocs: int, n_orders: int = 3, seed: int = 12345):
    """Run ``runner(sim_opts)`` once per host order and compare outcomes.

    ``runner`` must build a **fresh** simulation each call (state mutated by
    a previous run must not leak into the next) and forward ``sim_opts`` as
    keyword arguments to :class:`repro.machine.Simulator` — the ``run_*``
    entry points in :mod:`repro.parallel` all accept ``sim_opts=``.  It
    returns the run's ``SimResult`` (a run result's ``.sim``).
    """
    report = ReplayReport()
    base = None
    for order in host_orders(nprocs, n_orders, seed):
        outcome = runner({"trace": True, "host_order": order})
        report.runs += 1
        if base is None:
            base = outcome
        else:
            report.mismatches.extend(
                _compare(base, outcome, f"host order {order}")
            )
    return report
