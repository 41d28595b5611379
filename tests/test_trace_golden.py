"""Recorded evidence for the simulated runs' observable behaviour.

``tests/data/trace_golden.json`` holds, for the ``tests/test_host_perf.py``
workload (sherman5, 4 simulated T3E nodes) under every parallel driver, a
blake2b digest of the ``to_chrome_trace`` bytes, ``SimResult.messages`` /
``bytes_sent``, the per-rank receive-buffer ``high_water`` (1D) and the
simulated ``parallel_seconds`` — plain, with ``abft=True``, on a lossy
network under ``ReliableDelivery``, and through a checkpointed
crash-restart — recorded from the commit *before* the 1D column message
became one contiguous panel (PR 16).  Every scenario runs through
``repro.parallel.factorize``, the one entry point of the run layer, so the
goldens also pin that the driver table adds nothing observable.  The tier-1
test below asserts the
current code reproduces them, so "the payload change is invisible" is
checked against recorded evidence, not against a retained old wire format
(same recipe as ``tests/test_numeric_golden.py``, whose BLAS canary this
file shares: pivot choices, hence message sizes, follow the host BLAS).

Re-record (only when a trace is *meant* to change), from the repo root::

    PYTHONPATH=src python -m tests.test_trace_golden
"""

import hashlib
import json
import pathlib

import pytest

from repro.api.fixtures import prepare_pipeline
from repro.machine import CrashFault, FaultPlan, T3E
from repro.obs import Tracer, to_chrome_trace
from repro.parallel import DRIVERS, factorize

from .test_numeric_golden import blas_canary

GOLDEN = pathlib.Path(__file__).parent / "data" / "trace_golden.json"
MATRIX, NPROCS = "sherman5", 4


def _trace_digest(tracer) -> str:
    doc = to_chrome_trace(tracer.spans, tracer.messages)
    raw = json.dumps(doc, sort_keys=True).encode()
    return hashlib.blake2b(raw, digest_size=16).hexdigest()


def _sim_record(sim) -> dict:
    return {
        "messages": sim.messages,
        "bytes_sent": sim.bytes_sent,
        "retransmits": sim.fault_stats.retransmits,
        "high_water": [
            ret.get("high_water") if isinstance(ret, dict) else None
            for ret in sim.returns
        ],
    }


def _run(args, driver, **extra) -> dict:
    abft = extra.pop("abft", False)
    tracer = Tracer()
    res = factorize(driver, *args, abft=abft, sim_opts={"tracer": tracer}, **extra)
    out = _sim_record(res.sim)
    out["trace"] = _trace_digest(tracer)
    out["parallel_seconds"] = float(res.parallel_seconds).hex()
    return out


def _run_crash_restart(args, abft: bool) -> dict:
    probe = factorize("1d-ca", *args)
    plan = FaultPlan(crashes=[CrashFault(2, probe.sim.total_time * 0.4)])
    tracer = Tracer()
    res = factorize(
        "1d-ca", *args, ckpt_interval=3, reliable=True, faults=plan,
        abft=abft, sim_opts={"tracer": tracer},
    )
    return {
        "trace": _trace_digest(tracer),
        "parallel_seconds": float(res.total_time).hex(),
        "crashes": list(res.crashes),
        "rounds": [[list(r.window), r.nprocs, r.ok] for r in res.rounds],
        "good_rounds": [_sim_record(sim) for sim in res.results],
    }


def trace_records() -> dict:
    """Every scenario's record, keyed by scenario name."""
    p = prepare_pipeline(MATRIX)
    args = (p["om"].A, p["part"], p["bstruct"], NPROCS, T3E)
    lossy = {"faults": FaultPlan.drops(0.05, seed=11), "reliable": True}
    out = {}
    for driver in DRIVERS:
        out[driver] = _run(args, driver)
        out[driver + "+abft"] = _run(args, driver, abft=True)
        out[driver + "+lossy"] = _run(args, driver, **lossy)
    out["1d-ca+lossy+abft"] = _run(args, "1d-ca", abft=True, **lossy)
    out["1d-ca+crash-restart"] = _run_crash_restart(args, abft=False)
    out["1d-ca+crash-restart+abft"] = _run_crash_restart(args, abft=True)
    return out


@pytest.fixture(scope="module")
def golden():
    doc = json.loads(GOLDEN.read_text())
    if doc["blas_canary"] != blas_canary():
        pytest.skip("host BLAS rounds differently from the recording host")
    return doc["scenarios"]


@pytest.fixture(scope="module")
def records():
    return trace_records()


def test_every_scenario_is_recorded(golden, records):
    assert sorted(records) == sorted(golden)


@pytest.mark.parametrize("field", [
    "messages", "bytes_sent", "retransmits", "high_water", "parallel_seconds",
    "trace",
])
def test_runs_match_recorded(field, golden, records):
    # field by field, so a failure says *what* moved before the opaque
    # trace digest does
    for name, want in golden.items():
        if field in want:
            assert records[name][field] == want[field], (name, field)


def test_crash_restart_matches_recorded(golden, records):
    for name in ("1d-ca+crash-restart", "1d-ca+crash-restart+abft"):
        assert records[name] == golden[name], name


def test_recorded_scenarios_cover_what_they_claim(golden):
    """The goldens exercise what the column message touches: buffered
    remote columns, retransmissions, a crash with a shrunk restart."""
    assert max(golden["1d-rapid"]["high_water"]) > 0
    assert golden["1d-ca+lossy"]["retransmits"] > 0
    crash = golden["1d-ca+crash-restart"]
    assert crash["crashes"] == [2]
    assert any(not ok for _, _, ok in crash["rounds"])
    assert crash["rounds"][-1][1] == NPROCS - 1


if __name__ == "__main__":
    import subprocess

    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True,
        cwd=pathlib.Path(__file__).parent,
    ).stdout.strip()
    GOLDEN.parent.mkdir(exist_ok=True)
    scenarios = trace_records()
    GOLDEN.write_text(json.dumps({
        "recorded_from": commit,
        "blas_canary": blas_canary(),
        "scenarios": scenarios,
    }, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(scenarios)} scenarios from {commit} -> {GOLDEN}")
