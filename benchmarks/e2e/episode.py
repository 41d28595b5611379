"""One episode of one workload, in a process of its own: set up, warm up,
run rounds, check every output, print one JSON object.

``run.py`` starts this file as a child process (clean caches, its own
``ru_maxrss``) and is the only caller; the arguments are documented there.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from spans import BENCH, SpanLog
from workloads import CHECK_ROUNDS, WARMUP_ROUNDS, WORKLOADS, Tally

HERE = Path(__file__).resolve().parent

#: spans whose total per round is reported as ``<name>_host_s``
SPAN_METRICS = (
    "sparse.permute", "sparse.ata_pattern",
    "ordering.transversal", "ordering.mindeg",
    "symbolic.george_ng",
    "supernodes.partition", "supernodes.block_structure",
    "numfact.factor", "numfact.solve", "numfact.solve_block",
    "taskgraph.build",
    "scheduling.graph_schedule", "scheduling.compute_ahead",
    "parallel.run_1d_rapid", "parallel.run_1d_ca",
    "parallel.run_2d_async", "parallel.run_2d_sync",
    "parallel.trisolve_1d", "parallel.trisolve_2d",
    "service.drain", "service.pattern_key", "service.values_key",
    "service.cache_get", "service.cache_put", "service.artifacts_build",
    "service.order",
    "obs.export",
)
#: counters reported under their own name
COUNT_METRICS = (
    "symbolic.factor_entries", "supernodes.blocks", "numfact.flops",
    "taskgraph.tasks", "machine.messages", "machine.bytes",
    "service.jobs", "service.batches", "service.retries", "service.rejected",
    "service.latency_p50_virtual_s", "service.latency_p95_virtual_s",
    "obs.spans",
)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _p75(samples) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def timed_metrics(t, c, methods_per_matrix: int) -> dict:
    """Host-time metrics of one traced round, from its span times ``t`` and
    counters ``c`` (both read 0 for what the round did not touch)."""
    m = {f"{name}_host_s": t[name] for name in SPAN_METRICS}
    run_1d = t["parallel.run_1d_rapid"] + t["parallel.run_1d_ca"]
    run_2d = t["parallel.run_2d_async"] + t["parallel.run_2d_sync"]
    # on sim_* the sequential sweep runs once per matrix, the drivers once
    # per method
    seq = methods_per_matrix * t["numfact.factor"]
    m["service.submit_host_s"] = _ratio(t["service.submit"], c["service.jobs"])
    m["numfact.host_mflops"] = _ratio(c["numfact.seq_flops"], t["numfact.factor"]) / 1e6
    m["parallel.host_overhead_ratio_1d"] = _ratio(run_1d, seq)
    m["parallel.host_overhead_ratio_2d"] = _ratio(run_2d, seq)
    m["machine.msgs_per_host_s"] = _ratio(c["machine.messages"], run_1d + run_2d)
    m["machine.host_us_per_msg"] = 1e6 * _ratio(run_1d + run_2d, c["machine.messages"])
    m["obs.tracer_overhead_ratio"] = _ratio(t["obs.traced_op"], c["obs.untraced_op_s"])
    return m


def exact_metrics(c) -> dict:
    """Counts and virtual-time ratios over the exact rounds."""
    m = {name: c[name] for name in COUNT_METRICS}
    m["numfact.dgemm_fraction"] = _ratio(c["numfact.dgemm_flops"], c["numfact.flops"])
    m["parallel.load_balance_factor"] = _ratio(c["parallel.load_balance_sum"],
                                               c["parallel.runs"])
    m["machine.idle_share"] = (
        1.0 - c["machine.busy_s"] / c["machine.rank_s"] if c["machine.rank_s"] else 0.0
    )
    m["service.batch_size_mean"] = _ratio(c["service.jobs"], c["service.batches"])
    m["service.cache_hit_rate"] = _ratio(c["service.cache_hits"],
                                         c["service.cache_lookups"])
    return m


def _timed_rounds(wl, first_round, tally, stop, exact_rounds):
    """Run untraced rounds from index ``first_round`` until ``stop(n)`` says
    so; returns per round the host seconds of each unit and the CPU seconds."""
    host, cpu = [], []
    while not stop(len(host)):
        ops = wl.make_round(first_round + len(host))
        units, outcomes = [], []
        c0 = time.process_time()
        for unit in wl.units(ops):
            t0 = time.perf_counter()
            outcomes += wl.run_round(unit)
            units.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
        host.append(units)
        tally.add_round(wl, ops, outcomes, exact=len(host) <= exact_rounds)
    return host, cpu


def _stop_rule(seconds, rounds, minimum):
    """Stop after ``rounds`` rounds when given, else once ``seconds`` have
    passed and at least ``minimum`` rounds ran."""
    deadline = time.perf_counter() + seconds
    if rounds is not None:
        return lambda n: n >= rounds
    return lambda n: n >= minimum and time.perf_counter() >= deadline


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--rounds", type=int, default=None)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    for r in range(WARMUP_ROUNDS):
        wl.run_round(wl.make_round(r))
    wl.after_warmup()
    ready = time.monotonic()  # run.py holds the matching spawn time

    tally = Tally()
    exact_rounds = min(CHECK_ROUNDS, args.rounds or CHECK_ROUNDS)
    result = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "ready_monotonic": ready, "ops_per_round": wl.ops_per_round,
        "exact_rounds": exact_rounds,
        "inputs": [{"generator": g, "args": a} for g, a in wl.inputs],
        "python": sys.version.split()[0], "numpy": np.__version__,
    }
    if not args.trace:
        host, cpu = _timed_rounds(
            wl, WARMUP_ROUNDS, tally,
            _stop_rule(args.seconds, args.rounds, CHECK_ROUNDS), exact_rounds)
    else:
        # imported here so that untraced episodes do not pay (in setup_s and
        # peak_rss_mb) for layers their workload never loads
        import staged

        # traced rounds come first so that their inputs (and with them every
        # count) do not depend on how many untraced rounds the clock allowed

        log = SpanLog()
        stop = _stop_rule(args.seconds * 2 / 3, args.rounds, CHECK_ROUNDS)
        times, per_round, counts = [], [], staged.Counts()
        with log.span(wl.name, BENCH):
            while not stop(len(times)):
                r = WARMUP_ROUNDS + len(times)
                exact = len(times) < exact_rounds
                t, c = staged.traced_round(wl, r, wl.make_round(r), log, tally, exact)
                times.append(t)
                per_round.append(timed_metrics(t, c, len(wl.methods)))
                if exact:
                    for k, v in c.items():
                        counts[k] = v if k in staged.SNAPSHOTS else counts[k] + v
        # host times are floors (the fastest round: noise on a shared box
        # only ever adds time); ratios are taken within a round, where the
        # noise mostly cancels, and then the median over rounds
        floors = {f"{name}_host_s" for name in SPAN_METRICS}
        layer = {
            k: (min if k in floors else statistics.median)(m[k] for m in per_round)
            for k in per_round[0]
        }
        # the same op run twice a moment apart: compare the floors, not
        # one noisy pair
        e2e = min(t["bench.e2e"] for t in times)
        staged_layers = min(t["bench.staged_layers"] for t in times)
        layer["api.self_host_s"] = e2e - staged_layers
        layer["layers.coverage"] = staged_layers / e2e
        # drain minus the solver work it contains: queueing, batching, hashing
        drain = layer["service.drain_host_s"]
        layer["service.self_host_s"] = (
            drain - (staged_layers - layer["service.values_key_host_s"]) if drain else 0.0
        )
        shares = {
            k[len("self."):]: min(t[k] for t in times) / e2e
            for k in sorted(times[0]) if k.startswith("self.")
        }
        # what the replay does not account for: SStarSolver / SolveService
        # themselves, the code between the layers
        shares["unstaged"] = 1.0 - sum(shares.values())
        exact = exact_metrics(counts)
        exact["bench.virtual_s"] = tally.virtual_s
        layer.update(exact)
        layer.update(staged.machine_microloads(run=wl.name.startswith("sim_")))
        host, cpu = _timed_rounds(
            wl, WARMUP_ROUNDS + len(times), tally,
            _stop_rule(args.seconds / 3, args.rounds, CHECK_ROUNDS), 0)
        rounds = [sum(units) for units in host]
        layer["bench.round_host_s_p50"] = statistics.median(rounds)
        layer["bench.round_host_s_p75"] = _p75(rounds)
        layer["bench.round_cpu_s_p50"] = statistics.median(cpu)
        layer["trace.overhead_ratio"] = e2e / min(rounds)
        layer["bench.backward_error_max"] = tally.backward_error_max
        result.update(layer=layer, layer_exact=sorted(exact), traced_rounds=len(times),
                      shares=shares, spans=len(log.rows))
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        meta = {k: result[k] for k in ("workload", "seed", "python", "numpy")}
        (out / f"trace_{wl.name}.json").write_text(
            json.dumps(log.to_chrome_trace(meta)))

    result.update(
        round_host_s=host, round_cpu_s=cpu,
        attempted=tally.attempted, failed=tally.failed, failures=tally.failures,
        backward_error_max=tally.backward_error_max, virtual_s=tally.virtual_s,
        results_digest=tally.digest,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
