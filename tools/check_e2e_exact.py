"""Gate on the machine-invariant half of the S* benchmark.

    python tools/check_e2e_exact.py            # compare with the committed file
    python tools/check_e2e_exact.py --record   # rewrite it (on purpose only)

Runs the four workloads of ``BENCHMARK.json`` as ``--rounds 2`` smokes
through ``benchmarks/e2e/run.py``'s own ``measure`` — untraced for
``virtual_s``, the op counts and ``results_digest``, traced for the counts
the staged replay declares exact (messages, bytes, jobs, batches, tasks,
flops, ...) — and compares them with
``benchmarks/results/E2E_exact.json``.  Host seconds are not looked at: this
is the gate a slow or noisy CI box can still fail for the right reason only.

``results_digest`` hashes solution bytes, which follow the host BLAS; it is
compared only when this host's BLAS canary equals the recorded one (same
recipe, hence same value on one host, as ``tests/data/numeric_golden.json``).
Exit code 1 on any difference or failed output check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "benchmarks" / "results" / "E2E_exact.json"
ROUNDS = 2

sys.path[:0] = [str(ROOT / "benchmarks" / "e2e"), str(ROOT / "src")]

import run  # noqa: E402  (benchmarks/e2e/run.py)


def blas_canary() -> str:
    """Digest of a few fixed GEMM/GEMV shapes on this host's BLAS (the
    recipe of ``tests/test_numeric_golden.py``, which a CI tool must not
    import: it would pull in pytest)."""
    rng = np.random.default_rng(2015)
    h = hashlib.blake2b(digest_size=16)
    for m, k, n in ((25, 25, 25), (7, 3, 25), (25, 2, 2), (1, 9, 13), (13, 9, 1)):
        h.update((rng.standard_normal((m, k)) @ rng.standard_normal((k, n))).tobytes())
    return h.hexdigest()


def exact_record(workload: str, seed: int, seconds: float) -> tuple:
    """``(record, failures)`` of one workload's two smokes."""
    untraced = run.measure(workload, seed, seconds, 0, ROUNDS)
    traced = run.measure(workload, seed, seconds, 1, ROUNDS)
    record = {
        "virtual_s": untraced["exact"]["virtual_s"],
        "results_digest": untraced["exact"]["results_digest"],
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
    }
    for name in traced["episodes"][0]["layer_exact"]:  # dotted layer names
        record[name] = traced["metrics"][name]
    return record, untraced["failures"] + traced["failures"]


def differences(want: dict, got: dict, digests: bool) -> list:
    out = []
    for workload in sorted(set(want) | set(got)):
        a, b = want.get(workload), got.get(workload)
        if a is None or b is None:
            out.append(f"{workload}: {'not recorded' if a is None else 'not run'}")
            continue
        for name in sorted(set(a) | set(b)):
            if name == "results_digest" and not digests:
                continue
            if a.get(name) != b.get(name):
                out.append(f"{workload}: {name} recorded {a.get(name)!r}, "
                           f"now {b.get(name)!r}")
    return out


def main(argv=None) -> int:
    spec = run.load_spec()
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--record", action="store_true",
                    help=f"rewrite {EXPECTED.relative_to(ROOT)}")
    args = ap.parse_args(argv)

    recorded = None if args.record else json.loads(EXPECTED.read_text())
    seed = 0 if args.record else recorded["seed"]
    got, failures = {}, []
    for w in spec["workloads"]:
        got[w["name"]], failed = exact_record(w["name"], seed, spec["run_seconds"])
        failures += failed
    for f in failures:
        print(f"FAILED {f}")
    canary = blas_canary()
    if args.record:
        if failures:
            return 1
        EXPECTED.write_text(json.dumps({
            "recorded_from": run.run_metadata(seed, spec["run_seconds"], ROUNDS)["commit"],
            "seed": seed, "rounds": ROUNDS, "blas_canary": canary,
            "workloads": got,
        }, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(got)} workloads -> {EXPECTED}")
        return 0
    same_blas = canary == recorded["blas_canary"]
    if not same_blas:
        print("host BLAS rounds differently from the recording host: "
              "results_digest not compared")
    diffs = differences(recorded["workloads"], got, digests=same_blas)
    for d in diffs:
        print(f"EXACT MISMATCH {d}")
    n = sum(len(r) for r in got.values())
    print(f"{n} exact quantities over {len(got)} workloads compared: "
          + ("equal" if not diffs and not failures else "NOT equal"))
    return 1 if diffs or failures else 0


if __name__ == "__main__":
    sys.exit(main())
