"""``repro.lint`` — the static check no dynamic gate replaces.

One rule, ``D103`` (an unseeded or global RNG), in the determinism pass
(:mod:`determinism`), behind a rule registry with per-rule severities,
per-line ``# lint: disable=RULE`` suppressions, one ``Finding`` record,
text/JSON rendering and the ``repro lint`` CLI verb.

Everything else a run could get wrong about determinism or the message
protocol fails a dynamic gate: the numeric, trace and analysis goldens
(also under a second ``PYTHONHASHSEED``), ``repro verify-comm``'s trace
check and host-order replay, and the trace checker and payload freeze on
every simulator test.  DESIGN "Static analysis" has the mutation census
that shows it.
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
from . import determinism  # noqa: F401  (registers D103)

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
]
