"""``tools/host_calls.py``: the Python calls of a warm benchmark round are a
deterministic count, the same in every process whatever its hash seed, and
their split by ``repro`` subpackage sums to the total."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "host_calls.py"


def _spawn(hash_seed: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.Popen(
        [sys.executable, str(TOOL), "--workload", "cold_solve"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)


def test_two_processes_count_the_same_cold_solve_calls():
    procs = [_spawn("1"), _spawn("987654")]
    outs = []
    for p in procs:
        out, err = p.communicate(timeout=120)
        assert p.returncode == 0, err
        outs.append(json.loads(out))
    first, second = outs
    assert first == second
    counts = first["workloads"]["cold_solve"]
    assert counts["calls"] > 0
    assert sum(counts["by_group"].values()) == counts["calls"]
    assert counts["by_group"]["repro.numfact"] > 0


def test_calls_are_charged_to_the_repro_subpackage_that_made_them():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import host_calls
    finally:
        sys.path.remove(str(ROOT / "tools"))
    src = ROOT / "src" / "repro"
    assert host_calls.group_of(str(src / "numfact" / "tasks.py")) == "repro.numfact"
    assert host_calls.group_of(str(src / "pipeline.py")) == "repro.pipeline"
    assert host_calls.group_of("~") is None
    assert host_calls.group_of(numpy.__file__) is None
