"""The S* benchmark: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/e2e/run.py                      # all workloads, untraced then traced
    python3 benchmarks/e2e/run.py --workload sim_2d --seed 3 --trace 0

``--trace 0`` measures the end-to-end metrics (nothing is traced), ``--trace
1`` the per-layer metrics from a span-traced run; leaving ``--trace`` out
does both.  Every episode runs in a child process of its own, one at a
time, with BLAS pinned to one thread.  An untraced run is ``EPISODES``
episodes of ``--seconds / EPISODES`` each, so that ``setup_s`` is a median
over several set-ups from a cold process; a traced run is one episode.

The last line of standard output is one JSON object per the contract in
``BENCHMARK.json``'s driver: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is 1 when any output check failed.  Names,
units and bounds of the metrics are declared in ``BENCHMARK.json`` only;
README.md in this directory says what each one means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"

EPISODES = 3
#: blocks are at most 25 wide; BLAS threads on a small shared box are noise
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
EPISODE_TIMEOUT_S = 55


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git(*args):
    try:
        p = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def run_metadata(seed, seconds, rounds) -> dict:
    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "HEAD"),  # None outside a git checkout
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "blas_pins": PINS,
        "seed": seed,
        "seconds": seconds,
        # a --rounds run is for smoke tests: never a baseline
        "quick": rounds is not None,
    }


def run_episode(workload, seed, seconds, trace, rounds) -> dict:
    """One child process; returns what it printed, plus its ``setup_s``."""
    env = dict(os.environ, **PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "episode.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=EPISODE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"episode {workload!r} failed:\n{proc.stderr}")
    episode = json.loads(proc.stdout.splitlines()[-1])
    # process start -> first timed round; CLOCK_MONOTONIC is system-wide on
    # Linux, so the child's reading and ours share an origin
    episode["setup_s"] = episode.pop("ready_monotonic") - spawned
    return episode


def end_to_end(episodes) -> dict:
    """The gated metrics.  On a shared box a plain Python loop runs up to
    40 % slower for tens of seconds at a time, and that noise only ever adds
    time; so the round time reported is its floor: each unit of the round
    (an op; for the service the whole drain) at the fastest of its
    repetitions over all episodes, summed.  See README.md, "Why a floor"."""
    rounds = [units for ep in episodes for units in ep["round_host_s"]]
    best = sum(min(unit) for unit in zip(*rounds))
    attempted = sum(ep["attempted"] for ep in episodes)
    ok_ops = attempted - sum(ep["failed"] for ep in episodes)
    return {
        "setup_s": statistics.median(ep["setup_s"] for ep in episodes),
        "round_host_s_best": best,
        "ops_per_host_s": episodes[0]["ops_per_round"] * ok_ops / attempted / best,
        "peak_rss_mb": statistics.median(ep["peak_rss_mb"] for ep in episodes),
    }


def measure(workload, seed, seconds, trace, rounds=None) -> dict:
    """Run one workload untraced (``trace=0``) or traced (``trace=1``);
    returns the result record that is also written to ``out/``."""
    n = 1 if trace else EPISODES
    episodes = [
        run_episode(workload, seed, seconds / n, trace, rounds) for _ in range(n)
    ]
    failures = [f for ep in episodes for f in ep["failures"]]
    first = episodes[0]
    for ep in episodes[1:]:
        for key in ("results_digest", "virtual_s"):
            if ep[key] != first[key]:
                failures.append(
                    f"{workload}: {key} differs between episodes of seed "
                    f"{seed}: {first[key]} != {ep[key]}")
    result = {
        **run_metadata(seed, seconds, rounds),
        "workload": workload,
        "trace": trace,
        "python": first["python"],
        "numpy": first["numpy"],
        "inputs": first["inputs"],
        "correct": not failures,
        "attempted": sum(ep["attempted"] for ep in episodes),
        "failed": sum(ep["failed"] for ep in episodes),
        "failures": failures,
        "metrics": first["layer"] if trace else end_to_end(episodes),
        # exact for one seed; compared across runs by repeat.py
        "exact": {
            "virtual_s": first["virtual_s"],
            "results_digest": first["results_digest"],
            "exact_rounds": first["exact_rounds"],
        },
        "backward_error_max": max(ep["backward_error_max"] for ep in episodes),
        "rounds": sum(len(ep["round_host_s"]) for ep in episodes),
        "episodes": episodes,
    }
    OUT.mkdir(exist_ok=True)
    kind = "traced" if trace else "untraced"
    (OUT / f"result_{workload}_{kind}.json").write_text(json.dumps(result, indent=1))
    return result


def report(result, declared) -> None:
    """Every metric by name with its unit and sample count."""
    kind = "per-layer (traced)" if result["trace"] else "end-to-end (untraced)"
    n = result["episodes"][0].get("traced_rounds") if result["trace"] else result["rounds"]
    print(f"\n== {result['workload']}  seed {result['seed']}  {kind}  "
          f"rounds {n}{'  QUICK' if result['quick'] else ''}")
    for name, value in result["metrics"].items():
        print(f"  {name:<40} {value:>16.6g} {declared[name]['unit']}")
    ex = result["exact"]
    print(f"  {'virtual_s':<40} {ex['virtual_s']:>16.9g} sim_s"
          f"  (first {ex['exact_rounds']} rounds)")
    print(f"  {'backward_error_max':<40} {result['backward_error_max']:>16.3g}")
    print(f"  {'fail_share':<40} {result['failed'] / result['attempted']:>16.3g}"
          f"  ({result['failed']} of {result['attempted']} ops)")
    print(f"  results_digest {ex['results_digest']}")
    if result["trace"]:
        shares = result["episodes"][0]["shares"]
        print("  share of end-to-end op time: "
              + "  ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    for f in result["failures"]:
        print(f"  FAILED {f}")


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names, help="default: all of them")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0 end-to-end only, 1 per-layer only; default both")
    ap.add_argument("--rounds", type=int,
                    help="smoke use only: this many rounds per episode, "
                         "whatever --seconds says; stamps the result quick")
    args = ap.parse_args(argv)

    declared = {0: {m["name"]: m for m in spec["end_to_end"]},
                1: {m["name"]: m for m in spec["per_layer"]}}
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in [args.workload] if args.workload else names:
        for trace in (0, 1) if args.trace is None else (args.trace,):
            result = measure(workload, args.seed, args.seconds, trace, args.rounds)
            if set(result["metrics"]) != set(declared[trace]):
                odd = set(result["metrics"]) ^ set(declared[trace])
                raise SystemExit(f"metrics measured and declared differ: {sorted(odd)}")
            report(result, declared[trace])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            prefix = "" if args.workload else f"{workload}."
            for name, value in result["metrics"].items():
                metrics[prefix + name] = {"value": value,
                                          "unit": declared[trace][name]["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
