"""Smoke tests: every example script runs end to end."""

import runpy
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(name, argv=()):
    old = sys.argv
    sys.argv = [str(EXAMPLES / name), *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old


def test_quickstart(capsys):
    _run("quickstart.py")
    assert "relative residual" in capsys.readouterr().out


def test_reservoir_simulation(capsys):
    _run("reservoir_simulation.py")
    assert "pattern reused" in capsys.readouterr().out


def test_circuit_dc_analysis(capsys):
    _run("circuit_dc_analysis.py")
    assert "bitwise identical" in capsys.readouterr().out


def test_scaling_study(capsys):
    _run("scaling_study.py", ["orsreg1", "small"])
    out = capsys.readouterr().out
    assert "spdup1D" in out


def test_paper_walkthrough(capsys):
    _run("paper_walkthrough.py")
    out = capsys.readouterr().out
    assert "Theorem 1 payoff" in out
    assert "residual" in out


def test_production_workflow(capsys):
    _run("production_workflow.py")
    out = capsys.readouterr().out
    assert "condition estimate" in out
    assert "factor reuse via serialization" in out
