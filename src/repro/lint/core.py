"""Framework core: severities, findings, the rule registry, suppressions,
the file walker and the text/JSON renderers.

A *pass* is a callable ``run(module) -> [Finding]`` registered together
with the rules it may emit.  ``lint_paths`` parses one file at a time,
hands it to every pass and drops its tree before the next file, so memory
does not grow with the number of files.
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

    ``# lint: disable`` suppresses everything; ``# lint: disable=D103``
    suppresses the listed (comma-separated) rules.  Returns None (nothing
    suppressed), the string ``"all"``, or a set of rule ids.
    """
    m = _DISABLE_RE.search(source_line)
    if not m:
        return None
    if m.group(1) is None:
        return "all"
    return {r.strip() for r in m.group(1).split(",") if r.strip()}


class ModuleUnderLint:
    """One parsed file plus everything the passes need to inspect it."""

    def __init__(self, source: str, path: str):
        self.path = path
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


def lint_paths(paths, select=None) -> list:
    """Lint files/directories; returns all findings sorted by location.

    ``select`` restricts output to an iterable of rule ids — plus ``PARSE``,
    always: a file that could not be analysed has not been found clean of
    the selected rules.  An id no pass registers is a ``ValueError``.
    """
    wanted = None if select is None else _selected(select) | {"PARSE"}
    findings = []
    for f in iter_python_files(paths):
        try:
            module = ModuleUnderLint(f.read_text(), str(f))
        except (SyntaxError, UnicodeDecodeError, OSError) as e:
            findings.append(Finding(
                "PARSE", Severity.ERROR, str(f), 1, 0, f"cannot lint: {e}"
            ))
            continue
        findings.extend(_run_passes(module))
    return _sorted(findings, wanted)


def lint_source(source: str, path: str = "<string>", select=None) -> list:
    """Lint one source text."""
    wanted = None if select is None else _selected(select)
    return _sorted(_run_passes(ModuleUnderLint(source, path)), wanted)


def _sorted(findings, wanted) -> list:
    if wanted is not None:
        findings = [f for f in findings if f.rule in wanted]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _selected(select) -> set:
    """The rule ids in ``select``; ``ValueError`` names any that no pass
    registers (``PARSE`` is selectable too), so a mistyped or retired id
    cannot read as a clean run."""
    wanted = set(select)
    unknown = sorted(wanted - RULES.keys() - {"PARSE"})
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(unknown)}")
    return wanted


def _run_passes(module: ModuleUnderLint) -> list:
    out = []
    for _, run in PASSES:
        out.extend(run(module))
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
