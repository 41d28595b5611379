"""Checks of the benchmark itself, on quick two-round runs (about a minute).

Not collected by the tier-1 suite (``testpaths = ["tests"]``); run with
``python3 -m pytest benchmarks/e2e/test_bench_e2e.py -q``.
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: ops traced one by one, but for the service, whose drain serves a whole round
TRACED_UNITS_PER_ROUND = {"cold_solve": 2, "service_warm": 1, "sim_1d": 4, "sim_2d": 4}


def quick(workload, trace):
    return run.measure(workload, seed=0, seconds=1.0, trace=trace, rounds=2)


@pytest.fixture(scope="module")
def traced():
    return {w: quick(w, 1) for w in WORKLOADS}


def test_declared_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_emitted_names_equal_declared_names(traced):
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for w in WORKLOADS:
        assert set(traced[w]["metrics"]) == per_layer, w
    untraced = quick("cold_solve", 0)
    assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert untraced["correct"] and untraced["quick"]
    assert all(v > 0 for v in untraced["metrics"].values())


def test_every_output_check_passed(traced):
    for w in WORKLOADS:
        assert traced[w]["correct"], traced[w]["failures"]
        assert traced[w]["failed"] == 0 < traced[w]["attempted"]


@pytest.mark.parametrize("workload", ["cold_solve", "service_warm"])
def test_staged_layers_sum_to_the_end_to_end_op(traced, workload):
    assert 0.9 <= traced[workload]["metrics"]["layers.coverage"] <= 1.1


def test_cache_is_never_hit_cold_and_always_hit_warm(traced):
    assert traced["cold_solve"]["metrics"]["service.cache_hit_rate"] == 0
    assert traced["service_warm"]["metrics"]["service.cache_hit_rate"] == 1
    assert traced["service_warm"]["metrics"]["service.batch_size_mean"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_share_one_op_id_per_op(traced, workload):
    assert traced[workload]  # the fixture wrote the trace file
    doc = json.loads((HERE / "out" / f"trace_{workload}.json").read_text())
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    by_id = {e["args"]["id"]: e for e in spans}
    ops = set()
    for e in spans:
        parent = by_id.get(e["args"]["parent"])
        if parent is None:
            assert e["name"] == workload
            continue
        # a child lies within its parent (1 ns slack for the us conversion)
        assert e["ts"] >= parent["ts"] - 1e-3
        assert e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + 1e-3
        if parent["args"]["op"] is not None:
            assert e["args"]["op"] == parent["args"]["op"]
        elif e["args"]["op"] is not None:
            assert e["args"]["op"] not in ops  # one span opens each op id
            ops.add(e["args"]["op"])
    rounds = 2
    assert len(ops) == rounds * TRACED_UNITS_PER_ROUND[workload]


def test_counts_repeat_exactly(traced):
    a, b = traced["cold_solve"], quick("cold_solve", 1)
    assert a["exact"] == b["exact"]
    for name in a["episodes"][0]["layer_exact"]:
        assert a["metrics"][name] == b["metrics"][name], name
