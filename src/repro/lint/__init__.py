"""``repro.lint`` — the one AST-analysis framework of the repro codebase.

Three passes share one rule registry, one ``Finding`` record and one
suppression syntax.  Two track values through assignments and calls to
check invariants the S* design depends on, the third is a per-call lint of
the SPMD sources:

* **determinism** (``D1xx`` rules) — nothing that feeds numerics or
  message-emission order may depend on an unordered collection, global RNG
  state, wall-clock time, or object identities;
* **zero-copy aliasing** (``Z2xx`` rules) — a payload posted with
  ``env.send``/``env.multicast`` must not be mutated afterwards (RMA put
  semantics), and a received buffer must not be mutated in place while a
  reference to it is retained elsewhere;
* **communication protocol** (``Y01``/``T0x`` rules, :mod:`protocol`) —
  every ``recv``/``barrier`` request is ``yield``-ed, a tag kind's send
  and recv sides agree in arity and both exist, and a tag inside a ``for``
  loop varies with the loop (``PROTOCOL_RULES``; ``repro verify-comm``'s
  static stage selects exactly these).

The framework is a rule registry with per-rule severities, per-line
``# lint: disable=RULE`` suppressions, text/JSON rendering and a
``repro lint`` CLI verb; the dataflow passes are interprocedural within the
linted file set (function summaries — "returns a fresh buffer", "returns
an alias of parameter p", "mutates parameter p", "returns an unordered
collection" — are resolved across modules via their import graph).

The dynamic counterpart of the aliasing pass is the simulator
(:mod:`repro.machine.simulator`): every payload array is read-only from its
send on, and ``Simulator(sanitize=True)`` also content-hashes payloads at
send and re-verifies them at consumption; both raise
:class:`PayloadMutationError` on a zero-copy violation.
"""

from .core import (
    Finding,
    Severity,
    RULES,
    RuleInfo,
    lint_paths,
    lint_source,
    iter_python_files,
    render_text,
    render_json,
    max_severity,
    count_at_or_above,
)
from . import determinism  # noqa: F401  (registers D1xx rules)
from . import aliasing  # noqa: F401  (registers Z2xx rules)
from .protocol import PROTOCOL_RULES  # (registers Y01/T0x rules)

__all__ = [
    "Finding",
    "Severity",
    "RULES",
    "RuleInfo",
    "lint_paths",
    "lint_source",
    "iter_python_files",
    "render_text",
    "render_json",
    "max_severity",
    "count_at_or_above",
    "PROTOCOL_RULES",
]
