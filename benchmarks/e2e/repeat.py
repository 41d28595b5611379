"""Repeatability check: two full sets of runs of the same code and seed.

    python3 benchmarks/e2e/repeat.py [--seed N] [--seconds S]

Prints, per workload and end-to-end metric, both values, their relative
difference and the bound from ``BENCHMARK.json``; then compares everything
that must repeat exactly (virtual seconds, the results digest, every count
and virtual-time ratio of the traced run).  Exits 1 if any pair is outside
its bound, any exact quantity differs, or any output check failed.
"""

from __future__ import annotations

import argparse
import sys

import run


def main(argv=None) -> int:
    spec = run.load_spec()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--rounds", type=int, help="smoke use only (see run.py)")
    args = ap.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    sets = [
        {(w, trace): run.measure(w, args.seed, args.seconds, trace, args.rounds)
         for w in names for trace in (0, 1)}
        for _ in range(2)
    ]
    bad = 0
    print(f"{'workload':<13} {'metric':<18} {'first':>12} {'second':>12} "
          f"{'rel diff':>9} {'bound':>6}")
    for w in names:
        a, b = (s[w, 0]["metrics"] for s in sets)
        for m in spec["end_to_end"]:
            first, second = a[m["name"]], b[m["name"]]
            rel = (second - first) / first
            ok = abs(rel) <= m["bound"]
            bad += not ok
            print(f"{w:<13} {m['name']:<18} {first:>12.6g} {second:>12.6g} "
                  f"{rel:>+9.1%} {m['bound']:>6.0%}{'' if ok else '  OUTSIDE'}")
    for key, first in sets[0].items():
        second = sets[1][key]
        pairs = {k: (first["exact"][k], second["exact"][k])
                 for k in ("virtual_s", "results_digest")}
        if key[1]:
            layer = first["episodes"][0]["layer_exact"]
            pairs.update({k: (first["metrics"][k], second["metrics"][k]) for k in layer})
        for name, (x, y) in pairs.items():
            if x != y:
                bad += 1
                print(f"EXACT MISMATCH {key[0]} trace={key[1]} {name}: {x} != {y}")
        for result in (first, second):
            for f in result["failures"]:
                bad += 1
                print(f"FAILED {f}")
    print("exact quantities: virtual_s, results_digest and "
          f"{len(sets[0][names[0], 1]['episodes'][0]['layer_exact'])} traced "
          "counts/ratios per workload compared")
    print("repeatable" if not bad else f"NOT repeatable: {bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
