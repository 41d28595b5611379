"""The docs name code that exists, and the code is used.

DESIGN.md's Experiment index sends each of the paper's tables and figures
to the modules that reproduce it; every backticked dotted name in its "Our
modules" column must resolve under ``repro`` — as a module, or as an
attribute path below the longest importable module prefix.  Backticked
strings that are not dotted names (``DRIVERS`` keys in quotes, span-name
patterns, commit hashes) are not names and are skipped.

``TestCodebaseClean`` is the dead-definition scan: a definition of
``src/repro`` that nothing names is deleted, not documented.
"""

import importlib
import pathlib
import re

import pytest

DESIGN = pathlib.Path(__file__).resolve().parents[1] / "DESIGN.md"
NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _experiment_index_names() -> list:
    """``(row id, name)`` for every backticked name in the index's "Our
    modules" column."""
    text = DESIGN.read_text(encoding="utf-8")
    lines = text[text.index("## Experiment index"):].splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("| ID"))
    column = [c.strip() for c in lines[header].strip("|").split("|")].index(
        "Our modules")
    out = []
    for line in lines[header + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        for name in re.findall(r"`([^`]+)`", cells[column]):
            if NAME.fullmatch(name):
                out.append((cells[0], name))
    return out


def _resolves(name: str) -> bool:
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(["repro", *parts[:i]]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_the_index_names_code():
    assert len(_experiment_index_names()) > 20


@pytest.mark.parametrize("row,name", _experiment_index_names())
def test_experiment_index_names_resolve(row, name):
    assert _resolves(name), f"{row}: `{name}` is not a name under repro"


class TestCodebaseClean:
    def test_every_definition_is_used(self):
        """Every top-level function and class of ``src/repro``, and every
        method, is named somewhere besides its own definition and a package
        ``__init__`` re-export: in ``src``, ``tests``, ``benchmarks``,
        ``tools`` or ``examples``.  A plain name scan, so a call through
        ``getattr`` or a docstring mention keeps a name alive; dunder
        methods and the CLI entry point are exempt."""
        import ast
        import re
        from collections import Counter
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        exempt = {"main"}  # ``python -m repro`` reaches it by convention
        defs = Counter()
        for path in (root / "src" / "repro").rglob("*.py"):
            for node in ast.parse(path.read_text()).body:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    continue
                defs[node.name] += 1
                if isinstance(node, ast.ClassDef):
                    defs.update(m.name for m in node.body
                                if isinstance(m, ast.FunctionDef))
        words = Counter()
        for top in ("src", "tests", "benchmarks", "tools", "examples"):
            for path in (root / top).rglob("*.py"):
                text = path.read_text()
                if path.name == "__init__.py":
                    # a re-export names a definition without using it
                    lines = text.splitlines()
                    for node in ast.parse(text).body:
                        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                                isinstance(node, ast.Assign)
                                and ast.unparse(node.targets[0]) == "__all__"):
                            for i in range(node.lineno - 1, node.end_lineno):
                                lines[i] = ""
                    text = "\n".join(lines)
                words.update(re.findall(r"\w+", text))
        unused = sorted(
            name for name, n in defs.items()
            if words[name] <= n and name not in exempt
            and not (name.startswith("__") and name.endswith("__")))
        assert unused == []
