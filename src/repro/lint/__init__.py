"""``repro.lint`` — the one AST-analysis framework of the repro codebase.

Two passes share one rule registry, one ``Finding`` record and one
suppression syntax:

* **determinism** (``D1xx`` rules) — nothing that feeds numerics or
  message-emission order may depend on an unordered collection, global RNG
  state, wall-clock time, or object identities; a dataflow walk made
  interprocedural within the linted file set by function summaries
  ("returns an unordered collection", resolved across modules via their
  import graph, :mod:`summaries`);
* **communication protocol** (``Y01``/``T0x`` rules, :mod:`protocol`) —
  every ``recv``/``barrier`` request is ``yield``-ed, a tag kind's send
  and recv sides agree in arity and both exist, and a tag inside a ``for``
  loop varies with the loop (``PROTOCOL_RULES``; ``repro verify-comm``'s
  static stage selects exactly these).

The framework is a rule registry with per-rule severities, per-line
``# lint: disable=RULE`` suppressions, text/JSON rendering and a
``repro lint`` CLI verb.

Zero-copy discipline (nobody writes a posted payload) is not a lint rule:
the simulator (:mod:`repro.machine.simulator`) makes every payload array
read-only from its send on, and ``Simulator(sanitize=True)`` also
content-hashes payloads at send and re-verifies them at consumption; both
raise :class:`PayloadMutationError` on a violation.
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
