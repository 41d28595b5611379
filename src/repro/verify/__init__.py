"""Communication-protocol verification for the SPMD simulator programs.

The simulator's contract (see :mod:`repro.machine.simulator`) is easy to
state and easy to violate silently: tags must uniquely identify a logical
transfer, every ``recv``/``barrier`` must be ``yield``-ed, and every
deposited message must eventually be consumed.  This package machine-checks
that discipline at run time, where every slip shows: an un-yielded
``recv`` leaks its message, a tag missing its loop discriminator collides,
send and recv tags that disagree in kind or arity deadlock with both tags
named (the repo has no static pass: the mutation census in DESIGN "Static
analysis" retired every rule, the last, unseeded RNGs, for tier-1's
run-time RNG watch):

* :mod:`tracecheck` — **dynamic** checks over a recorded message trace
  (``Simulator(trace=True)``): per-``(dest, tag)`` uniqueness, no leaked
  (never-received) messages, causal delivery, and — for the 1D codes —
  that the executed span order is a linearization of the
  :class:`repro.taskgraph.TaskGraph` dependence edges;
* :mod:`replay` — **determinism** check: re-run a simulation under
  perturbed host scheduling orders and require bit-identical numerics,
  clocks, spans and traces;
* :mod:`checks` — the one check library: a ``Check`` record per
  invariant, composed by the chaos campaign, ``verify-comm`` and
  ``validate_matrix``.

``python -m repro verify-comm`` runs the trace checker and the replay;
:mod:`pytest_support` patches trace checking into existing simulator tests.
"""

from .tracecheck import (
    Violation,
    TraceCheckReport,
    ProtocolViolationError,
    check_messages,
    check_spans_against_dag,
    check_run,
    parse_span_label,
)
from .replay import ReplayReport, host_orders, replay_check

__all__ = [
    "Violation",
    "TraceCheckReport",
    "ProtocolViolationError",
    "check_messages",
    "check_spans_against_dag",
    "check_run",
    "parse_span_label",
    "ReplayReport",
    "host_orders",
    "replay_check",
]
