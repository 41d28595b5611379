"""Deterministic host work of the S* benchmark: Python calls per warm round.

    python tools/host_calls.py                         # all four workloads
    python tools/host_calls.py --workload sim_1d --seed 0

Wall clock on a small shared host cannot resolve a 10 % change; the number
of Python calls a round makes can, and it repeats exactly from one process
to the next.  For each workload of ``benchmarks/e2e/workloads.py``
(imported, never modified) this builds the workload, runs its untimed
warm-up rounds, then profiles the first timed round with ``cProfile`` and
prints, as one JSON object, the round's total calls and their split by
``repro`` subpackage (``repro.numfact``, ``repro.parallel``, ...; a module
directly under ``repro/`` is its own group).  A call of anything outside
``repro`` — a builtin, numpy, the standard library — is charged to the
subpackage of the ``repro`` function that made it, and to ``other`` when no
``repro`` function made it directly, so the groups sum to the total.

Counts are a tripwire and an attribution, not a speed claim on their own.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

sys.path[:0] = [str(ROOT / "benchmarks" / "e2e"), str(ROOT / "src")]

import workloads  # noqa: E402  (benchmarks/e2e/workloads.py)

OTHER = "other"


def group_of(filename: str):
    """``repro.<subpackage>`` of a function defined under ``src/repro``,
    else None."""
    parts = Path(filename).parts
    if "repro" not in parts:
        return None
    i = len(parts) - 1 - parts[::-1].index("repro")
    if i + 1 >= len(parts):
        return None
    sub = parts[i + 1]
    return "repro." + (sub[:-3] if sub.endswith(".py") else sub)


def _function(code):
    """A profiled function's identity and ``repro`` group: a code object
    by identity (two functions may share file, line and name, as every
    dataclass ``__init__`` does, and pstats would merge them), a builtin
    by its name."""
    if isinstance(code, str):
        return code, None
    return id(code), group_of(code.co_filename)


def grouped_calls(prof: cProfile.Profile) -> tuple:
    """``(total calls, Counter of calls per group)`` of a profile (see the
    module docstring); the groups sum to the total."""
    entries = prof.getstats()
    calls = Counter()
    group = {}
    made_by = {}  # function -> [(caller's group, calls it made)]
    for e in entries:
        fn, grp = _function(e.code)
        calls[fn] += e.callcount
        group[fn] = grp
        for sub in e.calls or ():
            made_by.setdefault(_function(sub.code)[0], []).append(
                (grp, sub.callcount))
    by = Counter()
    for fn, n in calls.items():
        if group[fn] is not None:
            by[group[fn]] += n
            continue
        for caller_group, made in made_by.get(fn, ()):
            if caller_group is not None:
                by[caller_group] += made
                n -= made
        by[OTHER] += n
    return sum(calls.values()), by


def round_calls(name: str, seed: int) -> dict:
    """Calls of the first timed round of workload ``name``."""
    wl = workloads.WORKLOADS[name](seed)
    for r in range(workloads.WARMUP_ROUNDS):
        wl.run_round(wl.make_round(r))
    wl.after_warmup()
    ops = wl.make_round(workloads.WARMUP_ROUNDS)
    prof = cProfile.Profile()
    prof.enable()
    wl.run_round(ops)
    prof.disable()
    total, by = grouped_calls(prof)
    return {"calls": total, "by_group": dict(sorted(by.items()))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=sorted(workloads.WORKLOADS),
                    help="default: all of them (repeatable)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    names = args.workload or list(workloads.WORKLOADS)
    out = {
        "seed": args.seed,
        "round": workloads.WARMUP_ROUNDS,
        "workloads": {name: round_calls(name, args.seed) for name in names},
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
