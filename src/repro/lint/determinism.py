"""The determinism pass: ``D103``, unseeded RNG.

Replay determinism (bit-identical numerics and traces, run after run and
under permuted host orders) requires that nothing feeding numerics or
message emission reads a source of nondeterminism.  The run-time gates
catch most of them: unordered iteration, ``id()``-keyed order, float
reductions over sets and wall-clock reads change a golden, a virtual time
or a trace (also under a second ``PYTHONHASHSEED``).  An unseeded RNG whose
draws no gate pins goes unseen there, so this pass flags it:

* ``D103`` (error) — any module-level ``random.*`` / ``numpy.random.*``
  call (global state), and ``default_rng()`` / ``RandomState()`` /
  ``Generator()`` / ``random.Random()`` constructed without a seed.

A call is resolved through its own module's imports (``import numpy as
np``, ``from numpy.random import default_rng``).
"""

from __future__ import annotations

import ast

from .core import FindingCollector, Severity, register_pass, register_rule

register_rule(
    "D103", Severity.ERROR, "unseeded-rng",
    "global or unseeded RNG use",
)

#: seedable RNG constructors: clean when called with a seed argument (a
#: ``Generator`` is clean around a bit generator, which is checked itself)
SEEDABLE_RNG = frozenset({
    "numpy.random.default_rng", "numpy.random.RandomState",
    "numpy.random.Generator", "random.Random",
    "numpy.random.SeedSequence", "numpy.random.PCG64",
    "numpy.random.PCG64DXSM", "numpy.random.MT19937",
    "numpy.random.Philox", "numpy.random.SFC64",
})


def _imports(tree) -> dict:
    """Local name -> dotted target of every absolute import in the file
    (a relative import never binds ``random`` or ``numpy``)."""
    env = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    env[alias.asname] = alias.name
                else:
                    first = alias.name.split(".")[0]
                    env[first] = first
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                env[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return env


def _dotted(expr, env):
    """``np.random.rand`` -> ``"numpy.random.rand"``; None unless the chain
    starts at an imported name."""
    parts = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if not isinstance(expr, ast.Name) or expr.id not in env:
        return None
    return ".".join([env[expr.id], *reversed(parts)])


def run(module):
    col = FindingCollector(module)
    env = _imports(module.tree)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        qual = _dotted(node.func, env)
        if qual is None or not qual.startswith(("random.", "numpy.random.")):
            continue
        if qual in SEEDABLE_RNG and (node.args or node.keywords):
            continue
        col.emit(
            "D103", node,
            f"call to {qual}: global or unseeded RNG state "
            "(use np.random.default_rng(seed))",
        )
    return col.findings


register_pass("determinism", run)
