"""Framework core: severities, findings, the rule registry, suppressions,
the file walker and the text/JSON renderers.

A *pass* is a callable ``run(module, summaries) -> [Finding]`` registered
together with the rules it may emit.  ``lint_paths`` parses every file
once, builds the project-wide function-summary table (the interprocedural
phase, :mod:`repro.lint.summaries`) and hands each module to every pass.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path

#: severity ladder (ordering matters: ``note < warning < error``)
SEVERITY_ORDER = ("note", "warning", "error")


class Severity:
    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"

    @staticmethod
    def rank(sev: str) -> int:
        return SEVERITY_ORDER.index(sev)


@dataclass
class RuleInfo:
    """One registered rule: id, default severity, one-line description."""

    rule: str
    severity: str
    name: str
    description: str


#: rule id -> RuleInfo; populated by the pass modules at import time
RULES: dict = {}

#: registered passes: [(pass_name, run_callable)]
PASSES: list = []


def register_rule(rule: str, severity: str, name: str, description: str) -> None:
    if rule in RULES:
        raise ValueError(f"duplicate rule id {rule!r}")
    RULES[rule] = RuleInfo(rule, severity, name, description)


def register_pass(name: str, run) -> None:
    PASSES.append((name, run))


@dataclass
class Finding:
    """One finding of a lint rule at a source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity} {self.rule} {self.message}"
        )

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


# -- suppressions -----------------------------------------------------------

_DISABLE_RE = re.compile(r"#\s*lint:\s*disable(?:=([A-Za-z0-9_,\s]+))?")


def suppressed_rules(source_line: str):
    """Rules suppressed on this physical line.

    ``# lint: disable`` suppresses everything; ``# lint: disable=D101,Z201``
    suppresses the listed rules.  Returns None (nothing suppressed), the
    string ``"all"``, or a set of rule ids.
    """
    m = _DISABLE_RE.search(source_line)
    if not m:
        return None
    if m.group(1) is None:
        return "all"
    return {r.strip() for r in m.group(1).split(",") if r.strip()}


class ModuleUnderLint:
    """One parsed file plus everything the passes need to inspect it."""

    def __init__(self, source: str, path: str, env_names=("env",)):
        self.source = source
        self.path = path
        self.env_names = tuple(env_names)
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)

    def is_suppressed(self, rule: str, line: int) -> bool:
        idx = line - 1
        if not (0 <= idx < len(self.lines)):
            return False
        sup = suppressed_rules(self.lines[idx])
        return sup == "all" or (sup is not None and rule in sup)


class FindingCollector:
    """Emit findings with suppression and registry-severity applied."""

    def __init__(self, module: ModuleUnderLint):
        self.module = module
        self.findings = []

    def emit(self, rule: str, node, message: str, severity: str = None) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.module.is_suppressed(rule, line):
            return
        sev = severity if severity is not None else RULES[rule].severity
        self.findings.append(
            Finding(rule, sev, self.module.path, line, col, message)
        )


# -- file walking and the driver --------------------------------------------


def iter_python_files(paths) -> list:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            out.append(p)
    seen, uniq = set(), []
    for p in out:
        if p not in seen:
            seen.add(p)
            uniq.append(p)
    return uniq


def lint_paths(paths, env_names=("env",), select=None) -> list:
    """Lint files/directories; returns all findings sorted by location.

    ``select`` restricts output to an iterable of rule ids — plus ``PARSE``,
    always: a file that could not be analysed has not been found clean of
    the selected rules.
    """
    from .summaries import build_project_summaries

    files = iter_python_files(paths)
    modules = []
    for f in files:
        try:
            modules.append(ModuleUnderLint(f.read_text(), str(f), env_names))
        except (SyntaxError, UnicodeDecodeError, OSError) as e:
            modules.append(e)  # surfaced as a PARSE finding below
    summaries = build_project_summaries(
        [m for m in modules if isinstance(m, ModuleUnderLint)]
    )
    findings = []
    for f, m in zip(files, modules):
        if not isinstance(m, ModuleUnderLint):
            findings.append(Finding(
                "PARSE", Severity.ERROR, str(f), 1, 0, f"cannot lint: {m}"
            ))
            continue
        findings.extend(_run_passes(m, summaries))
    if select is not None:
        wanted = set(select) | {"PARSE"}
        findings = [f for f in findings if f.rule in wanted]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_source(source: str, path: str = "<string>", env_names=("env",),
                select=None) -> list:
    """Lint one source text (single-module summaries only)."""
    from .summaries import build_project_summaries

    m = ModuleUnderLint(source, path, env_names)
    summaries = build_project_summaries([m])
    findings = _run_passes(m, summaries)
    if select is not None:
        wanted = set(select)
        findings = [f for f in findings if f.rule in wanted]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_file(path, env_names=("env",), select=None) -> list:
    """Lint a single file (convenience wrapper over :func:`lint_paths`)."""
    return lint_paths([path], env_names=env_names, select=select)


def _run_passes(module: ModuleUnderLint, summaries) -> list:
    out = []
    for _, run in PASSES:
        out.extend(run(module, summaries))
    return out


# -- aggregation and rendering ----------------------------------------------


def max_severity(findings) -> str:
    """Highest severity present, or None for an empty list."""
    best = None
    for f in findings:
        if best is None or Severity.rank(f.severity) > Severity.rank(best):
            best = f.severity
    return best


def count_at_or_above(findings, severity: str) -> int:
    thr = Severity.rank(severity)
    return sum(1 for f in findings if Severity.rank(f.severity) >= thr)


def render_text(findings) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [str(f) for f in findings]
    counts = {}
    for f in findings:
        counts[f.severity] = counts.get(f.severity, 0) + 1
    if findings:
        parts = ", ".join(
            f"{counts[s]} {s}" for s in reversed(SEVERITY_ORDER) if s in counts
        )
        lines.append(f"{len(findings)} finding(s): {parts}")
    else:
        lines.append("0 findings")
    return "\n".join(lines)


def render_json(findings, fail_on: str = None) -> str:
    """Machine-readable report for CI consumption."""
    doc = {
        "findings": [f.as_dict() for f in findings],
        "counts": {
            s: sum(1 for f in findings if f.severity == s)
            for s in SEVERITY_ORDER
        },
        "rules": {
            r: {"severity": info.severity, "name": info.name}
            for r, info in sorted(RULES.items())
        },
    }
    if fail_on is not None:
        doc["fail_on"] = fail_on
        doc["failures"] = count_at_or_above(findings, fail_on)
    return json.dumps(doc, indent=2, sort_keys=True)
