"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``   write a synthetic suite matrix as a MatrixMarket file
``info``       structural statistics of a matrix (order, nnz, symmetry,
               predicted fill vs dynamic fill)
``factor``     run the S* factorization — sequentially or as one of the
               parallel codes on the simulated T3D/T3E — and print the report
``solve``      factor and solve ``A x = b`` (random or file rhs)
``trace``      run a traced factor+solve (or ``--load`` a saved trace):
               summary, per-rank busy/comm/idle profile, critical path and
               model-vs-observed drift; ``--out`` writes the Chrome/Perfetto
               trace_event JSON (per-rank spans + send→recv flow arrows)
``validate``   run the full invariant battery on a matrix
``verify-comm`` dynamic trace check + host-order replay of every parallel
               code (the fault cases are ``repro chaos``)
``serve-demo`` run a synthetic workload through the SolveService front end
``chaos``      seeded fault-injection campaign over the 1D/2D/resilient
               solvers and the service, with oracle checks and optional
               failing-schedule shrinking to a JSON repro artifact
``tune``       model-guided autotuning: prune the block-size/grid/layout
               space with the Eq. (4) model, rank survivors with budgeted
               successive-halving simulator probes
``suite``      list the built-in suite matrices

Every input file goes through one reader: an unreadable or malformed file
ends the verb with ``repro <verb>: error: <path>: <reason>`` and exit 2.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np


def _error(args, message) -> int:
    """Print ``repro <verb>: error: message`` (argparse's form of a usage
    error) and return its exit code, 2."""
    print(f"repro {args.command}: error: {message}", file=sys.stderr)
    return 2


def _read(args, path, reader=None):
    """Read the input file ``path`` with ``reader`` (default: a MatrixMarket
    matrix); a file that cannot be opened or parsed ends the verb with exit
    2, not a traceback."""
    from .sparse import read_matrix_market

    try:
        return (reader or read_matrix_market)(path)
    except (OSError, ValueError) as e:
        reason = e.strerror if isinstance(e, OSError) and e.strerror else e
        raise SystemExit(_error(args, f"{path}: {reason}")) from None


def cmd_generate(args) -> int:
    from .matrices import get_matrix, SUITE
    from .sparse import write_matrix_market

    if args.name not in SUITE:
        return _error(args, f"unknown matrix {args.name!r}; see `repro suite`")
    A = get_matrix(args.name, args.scale)
    write_matrix_market(args.output, A, comment=f"repro suite {args.name} ({args.scale})")
    print(f"wrote {args.output}: n={A.nrows}, nnz={A.nnz}")
    return 0


def cmd_info(args) -> int:
    from .baselines import superlu_like_factor
    from .ordering import prepare_matrix
    from .sparse import structural_symmetry
    from .symbolic import static_symbolic_factorization

    A = _read(args, args.matrix)
    print(f"matrix   : {args.matrix}")
    print(f"order    : {A.nrows} x {A.ncols}")
    print(f"nnz      : {A.nnz}")
    print(f"symmetry : {structural_symmetry(A):.3f}  (1.0 = symmetric pattern)")
    om = prepare_matrix(A, ordering=args.ordering)
    sym = static_symbolic_factorization(om.A)
    print(f"static factor entries (S*)      : {sym.factor_entries}")
    if not args.skip_dynamic:
        dyn = superlu_like_factor(om.A)
        print(f"dynamic factor entries (SuperLU): {dyn.factor_entries}")
        print(f"overestimation ratio            : "
              f"{sym.factor_entries / max(dyn.factor_entries, 1):.2f}")
    return 0


def _solver(args, reliable, **opts):
    """The ``SStarSolver`` ``factor`` and ``solve`` run, from their flags,
    the verb's choice of ``reliable`` delivery and its own keywords."""
    from . import SStarSolver
    from .machine import FaultPlan

    faults = _read(args, args.faults, FaultPlan.from_json) if args.faults else None
    method, nprocs = args.method, args.nprocs
    if method == "sequential" and (faults is not None or reliable):
        # fault injection needs the simulated machine; retry what it drops
        method, nprocs, reliable = "1d-ca", max(nprocs, 4), True
    return SStarSolver(
        pivot_threshold=args.threshold, nprocs=nprocs, method=method,
        machine=args.machine, faults=faults,
        reliable=True if reliable else None,
        ckpt_interval=args.ckpt_interval, **opts,
    )


def _print_report(solver) -> None:
    """The factorization report, plus the simulated machine's lines when
    the run was parallel."""
    r = solver.report
    print(f"n={r.n} nnz={r.nnz} blocks={r.supernode_blocks}")
    print(f"factor entries : {r.factor_entries}")
    print(f"flops          : {r.flops:.6g}")
    print(f"dgemm fraction : {r.dgemm_fraction:.3f}")
    print(f"interchanges   : {solver.factorization.num_interchanges()}")
    if r.perturbed_pivots:
        print(f"perturbed pivots : {r.perturbed_pivots} "
              f"(growth {r.growth_factor:.3g})")
    if r.parallel_seconds is None:
        return
    print(f"method={solver.method} machine={solver.spec.name} P={solver.nprocs}")
    print(f"modeled parallel time : {r.parallel_seconds:.6f} s")
    print(f"messages / bytes      : {r.messages} / {r.bytes_sent}")
    print(f"achieved MFLOPS (S* flops basis): "
          f"{r.flops / r.parallel_seconds / 1e6:.1f}")
    run = solver.run_result
    fs = run.fault_stats
    if fs.total_injected() or fs.retransmits:
        print(f"faults injected       : {fs.dropped} dropped, "
              f"{fs.duplicated} duplicated, {fs.delayed} delayed, "
              f"{fs.corrupted} corrupted; {fs.retransmits} retransmits")
    if len(run.rounds) > 1:
        print(f"checkpoint rounds     : {len(run.rounds)} "
              f"({r.restarts} restarted after crashes; finished on "
              f"{run.nprocs_final} ranks)")


def cmd_factor(args) -> int:
    A = _read(args, args.matrix)
    solver = _solver(args, args.reliable, block_size=args.block_size,
                     amalgamation=args.amalgamation).factor(A)
    _print_report(solver)
    return 0


def cmd_solve(args) -> int:
    from .analysis import backward_error, iterative_refinement
    from .sparse import csr_matvec

    A = _read(args, args.matrix)
    if args.rhs:
        b = _read(args, args.rhs, np.loadtxt)
    else:
        rng = np.random.default_rng(args.seed)
        b = rng.uniform(-1, 1, A.nrows)
    # solve has no --reliable: it retries whenever it injects faults. The
    # explicit --refine path below does its own refinement; keep the
    # solver's automatic escalation out of its way
    solver = _solver(args, args.faults is not None, perturb=args.perturb,
                     refine="never" if args.refine else "auto").factor(A)
    _print_report(solver)
    if args.refine:
        x, history = iterative_refinement(A, solver.solve, b)
        print("refinement backward errors: "
              + " -> ".join(f"{h:.2e}" for h in history))
    else:
        x = solver.solve(b)
    resid = np.linalg.norm(csr_matvec(A, x) - b) / max(np.linalg.norm(b), 1e-300)
    print(f"relative residual : {resid:.3e}")
    print(f"backward error    : {backward_error(A, x, b):.3e}")
    if args.output:
        np.savetxt(args.output, x)
        print(f"solution written to {args.output}")
    return 0


def cmd_trace(args) -> int:
    """Profile a traced factor+solve of ``matrix``, or a saved trace."""
    import json
    from pathlib import Path

    from . import SStarSolver
    from .obs import (
        Tracer,
        from_chrome_trace,
        profile_trace,
        reconcile,
        render_summary,
        to_chrome_trace,
        validate_trace,
    )

    if (args.matrix is None) == (args.load is None):
        return _error(args, "give a matrix to run or --load a saved trace")
    if args.load:
        doc = _read(args, args.load, lambda p: json.loads(Path(p).read_text()))
        prof = profile_trace(*_read(args, args.load, lambda _: from_chrome_trace(doc)))
        print(f"trace    : {args.load}")
        print(prof.render(args.top))
    else:
        A = _read(args, args.matrix)
        solver = SStarSolver(
            nprocs=args.nprocs, method=args.method, machine=args.machine,
            trace=Tracer(),
        ).factor(A)
        solver.solve(np.ones(A.nrows))  # cover the trisolve phase too
        tracer, total = solver.tracer, solver.report.parallel_seconds
        doc = to_chrome_trace(tracer)
        if args.out:
            with open(args.out, "w") as f:
                json.dump(doc, f)
            print(f"wrote {args.out}: {len(doc['traceEvents'])} events "
                  f"({len(tracer.spans)} spans, {len(tracer.messages)} messages)")
        print(render_summary(tracer))
        prof = profile_trace(tracer, total_time=total)
        print(prof.render(args.top))
        if total is not None:  # a parallel run
            rec = reconcile(prof, solver._artifacts.task_graph, solver.spec)
            print(f"model critical path : "
                  f"{rec['model_critical_path_seconds']:.6e} s")
            print(f"model-vs-observed drift: {rec['drift'] * 100.0:+.1f}%")
            err = abs(prof.critical_path_seconds - total)
            print(f"critical path vs simulator total: |diff| = {err:.3e} s")
    if args.check:
        problems = validate_trace(doc)
        if problems:
            for p in problems:
                print(f"schema: {p}", file=sys.stderr)
            return 1
        print("schema: OK")
    return 0


def cmd_validate(args) -> int:
    from .api import format_report, validate_matrix

    A = _read(args, args.matrix)
    results = validate_matrix(A, nprocs=args.nprocs,
                              check_parallel=not args.skip_parallel)
    print(format_report(results))
    return 0 if all(r.ok for r in results) else 1


def cmd_verify_comm(args) -> int:
    import functools
    import json

    from .machine import spec_by_name
    from .matrices import random_nonsymmetric
    from .numfact import LUFactorization
    from .parallel import DRIVERS, factorize, run_1d_trisolve, run_2d_trisolve
    from .pipeline import analyze
    from .verify import replay_check
    from .verify.checks import check_completed, check_trace

    spec = spec_by_name(args.machine)
    doc = {"dynamic": [], "replay": []}
    failures = 0
    out = (lambda *a, **k: None) if args.json else print

    if args.matrix:
        A = _read(args, args.matrix)
    else:
        A = random_nonsymmetric(args.n, density=0.06, seed=args.seed)
    art, om = analyze(A, args.block_size)
    P = args.nprocs
    run_args = (om.A, art.part, art.bstruct, P, spec)
    b = np.arange(float(om.A.nrows))

    @functools.lru_cache(maxsize=None)
    def rapid():
        """Both trisolves solve with the factors of one rapid factorization."""
        res = factorize("1d-rapid", *run_args)
        lu = LUFactorization(res.factor, art.sym, art.part, art.bstruct, None)
        return lu, res.schedule.owner

    def driver(method):
        return lambda sim_opts: factorize(method, *run_args, sim_opts=sim_opts)

    # (code, runner, check against the task graph and schedule: the 1D codes)
    targets = [(m, driver(m), d.layout == "1d") for m, d in DRIVERS.items()]
    targets += [
        ("trisolve-1d", lambda sim_opts: run_1d_trisolve(
            *rapid(), b, P, spec, sim_opts=sim_opts), False),
        ("trisolve-2d", lambda sim_opts: run_2d_trisolve(
            rapid()[0], b, P, spec, sim_opts=sim_opts), False),
    ]
    if args.codes:
        wanted = set(args.codes.split(","))
        unknown = wanted - {t[0] for t in targets}
        if unknown:
            return _error(args, f"unknown codes: {sorted(unknown)}")
        targets = [t for t in targets if t[0] in wanted]

    out(f"== dynamic trace check (P={P}, {args.machine}, n={om.A.nrows}) ==")
    completed = []
    for name, runner, with_dag in targets:
        try:
            res = runner({"trace": True})
        except (RuntimeError, ValueError) as e:  # a typed error fails the check
            check = check_completed(e)
        else:
            completed.append((name, runner))
            tg, schedule = (art.task_graph, res.schedule) if with_dag else (None, None)
            check = check_trace(res.sim, spec, tg, schedule)
        out(f"{name:12s}: {check.detail}")
        if not check.ok:
            out(f"  {check}")
        failures += not check.ok
        doc["dynamic"].append({
            "target": name, "summary": check.detail,
            "violations": [] if check.ok else [
                {"rule": check.name, "message": check.detail}]})

    if not args.skip_replay:
        out(f"\n== determinism replay ({args.replays} host orders) ==")
        for name, runner in completed:
            rep = replay_check(lambda so, run=runner: run(so).sim, P,
                               n_orders=args.replays)
            out(f"{name:12s}: {rep.summary()}")
            for m in rep.mismatches:
                out(f"  {m}")
            failures += len(rep.mismatches)
            doc["replay"].append({"target": name, "summary": rep.summary(),
                                  "mismatches": [str(m) for m in rep.mismatches]})

    if args.json:
        doc["failures"] = failures
        doc["ok"] = failures == 0
        print(json.dumps(doc, indent=2, sort_keys=True, default=str))
    else:
        print(f"\n{'PASS' if failures == 0 else 'FAIL'}: {failures} violation(s)")
    return 1 if failures else 0


def _perturbed(A, rng, rel=0.05):
    """Same pattern as ``A``, values jittered by ``rel`` (fresh arrays)."""
    return A.with_values(A.data * (1.0 + rel * rng.uniform(-1.0, 1.0, A.nnz)))


def cmd_serve_demo(args) -> int:
    from .matrices import get_matrix
    from .service import ServiceOverloadError, SolveService
    from .sparse import csr_matvec

    rng = np.random.default_rng(args.seed)
    patterns = [get_matrix(name, "small") for name in
                ["sherman5", "jpwh991", "orsreg1"][: args.patterns]]
    svc = SolveService(
        workers=args.workers,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        inter_arrival=args.inter_arrival,
    )
    print(f"SolveService: {args.workers} workers, queue bound "
          f"{args.max_queue}, {args.patterns} distinct structure(s), "
          f"{args.jobs} jobs")
    submitted, rejected = [], 0
    j = 0
    while j < args.jobs:
        # jobs inside a burst share one system (adjacent submissions, so
        # they coalesce into one multi-RHS batch); each new burst switches
        # pattern and perturbs the values
        pat = (j // args.burst) % len(patterns)
        A = _perturbed(patterns[pat], rng)
        for _ in range(min(args.burst, args.jobs - j)):
            b = (rng.uniform(-1, 1, A.nrows) if args.nrhs == 1
                 else rng.uniform(-1, 1, (A.nrows, args.nrhs)))
            try:
                submitted.append(svc.submit(A, b))
            except ServiceOverloadError:
                # shed load, drain, then re-admit this job
                rejected += 1
                svc.drain()
                submitted.append(svc.submit(A, b))
            j += 1
    svc.drain()
    worst = 0.0
    for jid in submitted:
        job = svc.job(jid)
        X = job.x if job.x.ndim == 2 else job.x[:, None]
        B = job.b if job.b.ndim == 2 else job.b[:, None]
        for j in range(X.shape[1]):
            r = csr_matvec(job.A, X[:, j]) - B[:, j]
            worst = max(worst, float(np.max(np.abs(r))))
    m = svc.metrics()
    print(f"completed/failed   : {m.jobs_completed}/{m.jobs_failed} "
          f"({rejected} backpressured then re-admitted)")
    print(f"batches            : {m.batches} ({m.batched_jobs} jobs rode in "
          f"multi-RHS batches)")
    print(f"analysis cache     : {m.cache_hits} hits / {m.cache_misses} "
          f"misses (hit rate {m.cache_hit_rate:.0%})")
    print(f"queue depth        : max {m.max_queue_depth} (bound {args.max_queue})")
    print(f"latency p50 / p95  : {m.latency_p50:.6f} / {m.latency_p95:.6f} s "
          "(virtual)")
    print(f"throughput         : {m.throughput_jobs_per_s:.1f} jobs/s over "
          f"{m.makespan:.6f} s makespan")
    print(f"worst |Ax-b| entry : {worst:.3e}")
    return 0 if m.jobs_failed == 0 else 1


def cmd_tune(args) -> int:
    import json as _json
    from collections import Counter

    from .machine import spec_by_name
    from .matrices import SUITE, get_matrix
    from .tune import Tuner, default_plan

    if args.matrix in SUITE:
        A = get_matrix(args.matrix, args.scale)
    else:
        A = _read(args, args.matrix)
    tuner = Tuner(spec=spec_by_name(args.machine), nprocs=args.nprocs,
                  budget=args.budget, seed=args.seed)
    res = tuner.tune(A)

    # price the static hand-configured default for the gain headline
    base = default_plan(args.nprocs)
    state = tuner.pattern_state(A)
    base_seconds = tuner.simulate_plan(state, base)["seconds"]
    gain = (base_seconds / res.best_seconds
            if res.best_seconds else float("nan"))

    if args.json:
        out = res.as_dict()
        out["default"] = {"plan": base.as_dict(),
                          "seconds": base_seconds,
                          "speedup": gain}
        print(_json.dumps(out, indent=2, sort_keys=True))
        return 0

    by_status = Counter(r.status for r in res.records)
    print(f"pattern {res.pattern[:16]}…  machine={res.machine} "
          f"P={res.nprocs}  seed={res.seed}")
    print(f"search budget  : "
          f"{'unbounded' if res.budget is None else f'{res.budget:.6f} s'} "
          f"(spent {res.budget_spent:.6f} s virtual)")
    print("candidates     : " + ", ".join(
        f"{n} {s}" for s, n in sorted(by_status.items())))
    print(f"winner         : {res.best.describe()}  "
          f"simulated {res.best_seconds:.6f} s")
    print(f"static default : {base.describe()}  "
          f"simulated {base_seconds:.6f} s")
    print(f"tuned speedup  : {gain:.2f}x over the default configuration")
    print("search trace (model-time order):")
    for r in res.records:
        probe = (f"probe {r.last_probe_seconds:.6f} s @rung {r.rung}"
                 if r.probes else "never probed")
        print(f"  {r.status:<14} {r.plan.describe():<24} "
              f"model {r.model_seconds:.6f} s  {probe}")
    return 0


def cmd_chaos(args) -> int:
    import json as _json

    from .chaos import (
        DEFAULT_SCENARIOS,
        FAMILIES,
        Campaign,
        Scenario,
        build_context,
        replay_artifact,
        run_case,
        shrink_failure,
    )
    from .machine.faults import CORRUPT, FaultPlan, MessageFaultRule

    ctx = build_context(n=args.n)
    if args.campaign == "all":
        families = FAMILIES
    else:
        families = tuple(f.strip() for f in args.campaign.split(","))
        unknown = set(families) - set(FAMILIES)
        if unknown:
            return _error(args, f"unknown families: {sorted(unknown)} "
                                f"(known: {list(FAMILIES)})")
    scenarios = DEFAULT_SCENARIOS
    if args.abft:
        scenarios = tuple(s for s in DEFAULT_SCENARIOS if s.abft)
    campaign = Campaign(ctx, scenarios=scenarios, families=families,
                        budget=args.budget, seed=args.seed)
    report = campaign.run()

    shrink_info = None
    if args.shrink:
        # shrink the first shrinkable campaign failure; with an all-green
        # campaign, demonstrate on an intentionally-unprotected corruption
        target = next(
            (o for o in campaign.outcomes
             if not o.ok and o.scenario.mode in ("1d", "2d")), None)
        if target is not None:
            sr = shrink_failure(ctx, target.scenario, target.plan,
                                outcome=target)
        else:
            scn = Scenario("1d-ca-abft-bare", "1d", method="ca", nprocs=4,
                           reliable=False, checksum=False, abft=True)
            sr = None
            for s in range(args.seed, args.seed + 10):
                plan = FaultPlan(
                    rules=[MessageFaultRule(CORRUPT, rate=0.4,
                                            tag_prefix=("col",))],
                    seed=s)
                out = run_case(ctx, scn, plan)
                if out.failure_key() is not None:
                    sr = shrink_failure(ctx, scn, plan, outcome=out)
                    break
            if sr is None:
                print("could not provoke a demo failure to shrink",
                      file=sys.stderr)
                return 2
        sr.save(args.shrink)
        _, matches = replay_artifact(sr.artifact, ctx=ctx)
        shrink_info = {
            "artifact": args.shrink,
            "original_events": sr.original_events,
            "shrunk_events": sr.shrunk_events,
            "tests": sr.tests,
            "failure_key": sr.failure_key,
            "replay_matches": matches,
        }

    if args.json:
        out = report.as_dict()
        if shrink_info is not None:
            out["shrink"] = shrink_info
        print(_json.dumps(out, indent=2, sort_keys=True))
    else:
        print(report.summary())
        if shrink_info is not None:
            print(f"shrink: {shrink_info['original_events']} -> "
                  f"{shrink_info['shrunk_events']} events in "
                  f"{shrink_info['tests']} tests; artifact "
                  f"{shrink_info['artifact']} (replay "
                  f"{'matches' if shrink_info['replay_matches'] else 'DIVERGES'})")
    if shrink_info is not None and not shrink_info["replay_matches"]:
        return 1
    if args.fail_on == "failure" and not report.ok:
        return 1
    return 0


def cmd_suite(args) -> int:
    from .matrices import SUITE

    print(f"{'name':12s} {'paper n':>8s} {'paper nnz':>10s} {'class':18s}")
    for name, spec in SUITE.items():
        print(f"{name:12s} {spec.paper_order:>8d} {spec.paper_nnz:>10d} "
              f"{spec.kind:18s}")
    return 0


def _minimum(low, kind=int):
    """argparse type: a finite ``kind`` value >= ``low``.  Every count flag
    (``--nprocs``, ``--jobs``, ``--block-size``, ...) is ``_minimum(1)``."""
    def parse(text):
        value = kind(text)
        if not (math.isfinite(value) and value >= low):
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid ... value"
    return parse


_count = _minimum(1)


def _threshold(text: str) -> float:
    """argparse type of ``--threshold``: a pivot threshold in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError("must lie in (0, 1]")
    return value


def _budget(text: str):
    """argparse type of ``tune --budget``: virtual seconds >= 0, ``auto``
    or ``none`` (no cap, returned as ``None``)."""
    if text == "none":
        return None
    if text == "auto":
        return text
    value = float(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError("must be >= 0, 'auto' or 'none'")
    return value


def _flags(method=None, nprocs=None, machine=False, run=False, json=False,
           methods=None):
    """A parent parser with the flags several verbs share, each defined
    once here; a verb picks its flags, its defaults and its ``methods``."""
    from .machine import MACHINES
    from .parallel import METHODS

    p = argparse.ArgumentParser(add_help=False)
    if method is not None:
        p.add_argument("--method", default=method, choices=methods or METHODS,
                       help="the code to run; parallel codes run on the "
                            "simulated machine")
    if nprocs is not None:
        p.add_argument("--nprocs", type=_count, default=nprocs)
    if machine:
        p.add_argument("--machine", default="T3E", choices=list(MACHINES))
    if run:
        p.add_argument("--threshold", type=_threshold, default=1.0)
        p.add_argument("--faults",
                       help="FaultPlan JSON file: inject message/crash faults "
                            "into the simulated run (a sequential run becomes "
                            "1d-ca on at least 4 ranks, with retries)")
        p.add_argument("--ckpt-interval", type=_count, default=None,
                       help="stages per checkpoint round (enables the "
                            "checkpoint/restart driver)")
    if json:
        p.add_argument("--json", action="store_true",
                       help="print the report as JSON instead of text")
    return p


def build_parser() -> argparse.ArgumentParser:
    from .parallel import DRIVERS

    p = argparse.ArgumentParser(
        prog="repro",
        description="S* sparse LU with partial pivoting (paper reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a suite matrix to MatrixMarket")
    g.add_argument("name")
    g.add_argument("--scale", default="small", choices=["small", "bench"])
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_generate)

    i = sub.add_parser("info", help="structural statistics")
    i.add_argument("matrix")
    i.add_argument("--ordering", default="mindeg-ata",
                   choices=["mindeg-ata", "mindeg-aplusat", "natural"])
    i.add_argument("--skip-dynamic", action="store_true")
    i.set_defaults(func=cmd_info)

    f = sub.add_parser(
        "factor", help="run the S* factorization, sequential or parallel",
        parents=[_flags("sequential", 8, machine=True, run=True)])
    f.add_argument("matrix")
    f.add_argument("--block-size", type=_count, default=25)
    f.add_argument("--amalgamation", type=_minimum(0), default=4)
    f.add_argument("--reliable", action="store_true",
                   help="enable the ack/retry transport")
    f.set_defaults(func=cmd_factor)

    s = sub.add_parser(
        "solve", help="factor and solve A x = b",
        parents=[_flags("sequential", 1, machine=True, run=True)])
    s.add_argument("matrix")
    s.add_argument("--rhs", help="text file with the right-hand side")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--refine", action="store_true",
                   help="apply iterative refinement")
    s.add_argument("--perturb", action="store_true",
                   help="replace tiny pivots by sqrt(eps)*||A|| instead of "
                        "failing (recover via --refine)")
    s.add_argument("-o", "--output")
    s.set_defaults(func=cmd_solve)

    tr = sub.add_parser(
        "trace",
        help="traced factor+solve (or a saved trace): summary, busy/comm/"
             "idle profile, critical path, model drift",
        parents=[_flags("2d", 8, machine=True, methods=tuple(DRIVERS))])
    tr.add_argument("matrix", nargs="?",
                    help="matrix to run (omit with --load)")
    tr.add_argument("--load", metavar="FILE",
                    help="profile a saved trace JSON instead of running")
    tr.add_argument("--out",
                    help="write the Chrome/Perfetto trace JSON here (load it "
                         "in ui.perfetto.dev)")
    tr.add_argument("--check", action="store_true",
                    help="validate the trace JSON against the trace schema; "
                         "nonzero exit on problems")
    tr.add_argument("--top", type=_minimum(0), default=5,
                    help="how many longest spans to list")
    tr.set_defaults(func=cmd_trace)

    v = sub.add_parser("validate", help="run the invariant battery on a matrix",
                       parents=[_flags(nprocs=4)])
    v.add_argument("matrix")
    v.add_argument("--skip-parallel", action="store_true")
    v.set_defaults(func=cmd_validate)

    vc = sub.add_parser(
        "verify-comm",
        help="dynamic trace check and host-order replay of the parallel codes",
        parents=[_flags(nprocs=4, machine=True, json=True)])
    vc.add_argument("--matrix", help="MatrixMarket file (default: random test matrix)")
    vc.add_argument("--n", type=_minimum(10), default=90,
                    help="order of the random test matrix (>= 10, for a "
                         "nontrivial block structure)")
    vc.add_argument("--seed", type=int, default=31)
    vc.add_argument("--block-size", type=_count, default=6)
    vc.add_argument("--codes",
                    help="comma list of SPMD codes to check "
                         f"({','.join(DRIVERS)},trisolve-1d,trisolve-2d)")
    vc.add_argument("--skip-replay", action="store_true")
    vc.add_argument("--replays", type=_count, default=3,
                    help="number of perturbed host orders per code")
    vc.set_defaults(func=cmd_verify_comm)

    sd = sub.add_parser(
        "serve-demo",
        help="run a synthetic same-structure workload through SolveService",
    )
    sd.add_argument("--jobs", type=_count, default=12)
    sd.add_argument("--workers", type=_count, default=3)
    sd.add_argument("--patterns", type=int, default=2, choices=[1, 2, 3],
                    help="distinct matrix structures in the workload")
    sd.add_argument("--nrhs", type=_count, default=1,
                    help="right-hand sides per job")
    sd.add_argument("--burst", type=_count, default=3,
                    help="adjacent jobs sharing one system (batchable)")
    sd.add_argument("--max-queue", type=_count, default=8)
    sd.add_argument("--max-batch", type=_count, default=4)
    sd.add_argument("--inter-arrival", type=_minimum(0.0, float), default=0.0,
                    help="virtual seconds between submissions")
    sd.add_argument("--seed", type=int, default=0)
    sd.set_defaults(func=cmd_serve_demo)

    tn = sub.add_parser(
        "tune",
        help="model-guided autotuning: search block size / grid / layout "
             "for one matrix pattern",
        parents=[_flags(nprocs=8, machine=True, json=True)])
    tn.add_argument("matrix",
                    help="MatrixMarket file or a built-in suite name "
                         "(see `python -m repro suite`)")
    tn.add_argument("--scale", default="small",
                    choices=["small", "bench"],
                    help="suite-matrix scale when `matrix` is a suite name")
    tn.add_argument("--budget", type=_budget, default="auto",
                    help="virtual-second cap on simulator probes: a float, "
                         "'auto' (~10 factorizations) or 'none'")
    tn.add_argument("--seed", type=int, default=0,
                    help="deterministic tie-break seed (same seed+budget "
                         "=> bit-identical search)")
    tn.set_defaults(func=cmd_tune)

    ch = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaign with oracle checks and "
             "failing-schedule shrinking",
        parents=[_flags(json=True)])
    ch.add_argument("--campaign", default="all",
                    help="comma-separated fault families "
                         "(drop,dup,delay,corrupt,crash) or 'all'")
    ch.add_argument("--budget", type=_minimum(0), default=60,
                    help="number of campaign runs")
    ch.add_argument("--seed", type=int, default=0)
    ch.add_argument("--n", type=int, default=60,
                    help="order of the random campaign matrix")
    ch.add_argument("--abft", action="store_true",
                    help="restrict to ABFT-enabled scenarios")
    ch.add_argument("--shrink", metavar="PATH",
                    help="shrink a failing run (or a built-in unprotected-"
                         "corruption demo) to a minimal schedule; write the "
                         "JSON repro artifact to PATH and replay-verify it")
    ch.add_argument("--fail-on", default="none", choices=["none", "failure"],
                    help="exit nonzero when any campaign run fails an oracle")
    ch.set_defaults(func=cmd_chaos)

    ls = sub.add_parser("suite", help="list built-in suite matrices")
    ls.set_defaults(func=cmd_suite)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
