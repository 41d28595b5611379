"""The docs name code that exists.

DESIGN.md's Experiment index sends each of the paper's tables and figures
to the modules that reproduce it; every backticked dotted name in its "Our
modules" column must resolve under ``repro`` — as a module, or as an
attribute path below the longest importable module prefix.  Backticked
strings that are not dotted names (``DRIVERS`` keys in quotes, span-name
patterns, commit hashes) are not names and are skipped.
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
