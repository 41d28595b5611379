"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``   write a synthetic suite matrix as a MatrixMarket file
``info``       structural statistics of a matrix (order, nnz, symmetry,
               predicted fill vs dynamic fill)
``factor``     run the S* factorization and print the report
``solve``      factor and solve ``A x = b`` (random or file rhs)
``simulate``   run a parallel factorization on the simulated T3D/T3E
``trace``      run a traced factorization and write a Chrome/Perfetto
               trace_event JSON (per-rank spans + send→recv flow arrows)
``profile``    per-rank busy/comm/idle breakdown, critical path and
               model-vs-observed drift from a traced run (or a saved trace)
``validate``   run the full invariant battery on a matrix
``verify-comm`` static + dynamic + replay communication-protocol analyses
``lint``       static analysis: determinism (D1xx), zero-copy aliasing
               (Z2xx) and comm-protocol (Y01/T0x) rules over the codebase
``serve-demo`` run a synthetic workload through the SolveService front end
``chaos``      seeded fault-injection campaign over the 1D/2D/resilient
               solvers and the service, with oracle checks and optional
               failing-schedule shrinking to a JSON repro artifact
``tune``       model-guided autotuning: prune the block-size/grid/layout
               space with the Eq. (4) model, rank survivors with budgeted
               successive-halving simulator probes
``suite``      list the built-in suite matrices
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _load(path):
    from .sparse import read_matrix_market

    return read_matrix_market(path)


def cmd_generate(args) -> int:
    from .matrices import get_matrix, SUITE
    from .sparse import write_matrix_market

    if args.name not in SUITE:
        print(f"unknown matrix {args.name!r}; see `python -m repro suite`",
              file=sys.stderr)
        return 2
    A = get_matrix(args.name, args.scale)
    write_matrix_market(args.output, A, comment=f"repro suite {args.name} ({args.scale})")
    print(f"wrote {args.output}: n={A.nrows}, nnz={A.nnz}")
    return 0


def cmd_info(args) -> int:
    from .baselines import superlu_like_factor
    from .ordering import prepare_matrix
    from .sparse import structural_symmetry
    from .symbolic import static_symbolic_factorization

    A = _load(args.matrix)
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


def cmd_factor(args) -> int:
    from . import SStarSolver

    A = _load(args.matrix)
    solver = SStarSolver(
        block_size=args.block_size,
        amalgamation=args.amalgamation,
        pivot_threshold=args.threshold,
    ).factor(A)
    r = solver.report
    print(f"n={r.n} nnz={r.nnz} blocks={r.supernode_blocks}")
    print(f"factor entries : {r.factor_entries}")
    print(f"flops          : {r.flops:.6g}")
    print(f"dgemm fraction : {r.dgemm_fraction:.3f}")
    print(f"interchanges   : {solver.factorization.num_interchanges()}")
    return 0


def cmd_solve(args) -> int:
    from . import SStarSolver
    from .analysis import backward_error, iterative_refinement
    from .machine import FaultPlan
    from .sparse import csr_matvec

    A = _load(args.matrix)
    if args.rhs:
        b = np.loadtxt(args.rhs)
    else:
        rng = np.random.default_rng(args.seed)
        b = rng.uniform(-1, 1, A.nrows)
    faults = FaultPlan.from_json(args.faults) if args.faults else None
    method, nprocs = args.method, args.nprocs
    if faults is not None and method == "sequential":
        # fault injection needs the simulated machine
        method, nprocs = "1d-ca", max(nprocs, 4)
    solver = SStarSolver(
        pivot_threshold=args.threshold,
        nprocs=nprocs,
        method=method,
        machine=args.machine,
        perturb=args.perturb,
        # the explicit --refine path below does its own refinement; keep the
        # solver's automatic escalation out of its way
        refine="never" if args.refine else "auto",
        faults=faults,
        reliable=True if faults is not None else None,
        ckpt_interval=args.ckpt_interval,
    ).factor(A)
    if solver.report.perturbed_pivots:
        print(f"perturbed pivots  : {solver.report.perturbed_pivots} "
              f"(growth {solver.report.growth_factor:.3g})")
    if solver.report.restarts:
        print(f"crash restarts    : {solver.report.restarts} "
              f"(finished on {solver.resilient_result.nprocs_final} ranks)")
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


def cmd_simulate(args) -> int:
    from . import SStarSolver
    from .machine import FaultPlan

    A = _load(args.matrix)
    solver = SStarSolver(
        nprocs=args.nprocs, method=args.method, machine=args.machine,
        faults=FaultPlan.from_json(args.faults) if args.faults else None,
        reliable=True if args.reliable else None,
        ckpt_interval=args.ckpt_interval,
    ).factor(A)
    r = solver.report
    print(f"method={args.method} machine={args.machine} P={args.nprocs}")
    print(f"modeled parallel time : {r.parallel_seconds:.6f} s")
    print(f"messages / bytes      : {r.messages} / {r.bytes_sent}")
    print(f"achieved MFLOPS (S* flops basis): "
          f"{r.flops / r.parallel_seconds / 1e6:.1f}")
    if solver.sim_result is not None and solver.sim_result.fault_stats is not None:
        fs = solver.sim_result.fault_stats
        if fs.total_injected() or fs.retransmits:
            print(f"faults injected       : {fs.dropped} dropped, "
                  f"{fs.duplicated} duplicated, {fs.delayed} delayed, "
                  f"{fs.corrupted} corrupted; {fs.retransmits} retransmits")
    if solver.resilient_result is not None:
        res = solver.resilient_result
        print(f"checkpoint rounds     : {len(res.rounds)} "
              f"({r.restarts} restarted after crashes; finished on "
              f"{res.nprocs_final} ranks)")
    return 0


#: ``repro trace``/``repro profile`` shorthand: ``--mode 1d`` is 1D RAPID
_TRACE_MODES = {"1d": "1d-rapid"}


def _traced_run(args):
    """Factor (and solve once) with a fresh tracer; returns the solver."""
    from . import SStarSolver
    from .obs import Tracer

    method = _TRACE_MODES.get(args.mode, args.mode)
    A = _load(args.matrix)
    solver = SStarSolver(
        nprocs=args.nprocs, method=method, machine=args.machine,
        trace=Tracer(),
    ).factor(A)
    solver.solve(np.ones(A.nrows))  # cover the trisolve phase too
    return solver


def cmd_trace(args) -> int:
    import json

    from .obs import render_summary, to_chrome_trace, validate_trace

    solver = _traced_run(args)
    tracer = solver.tracer
    doc = to_chrome_trace(tracer)
    with open(args.out, "w") as f:
        json.dump(doc, f)
    print(f"wrote {args.out}: {len(doc['traceEvents'])} events "
          f"({len(tracer.spans)} spans, {len(tracer.messages)} messages)")
    print(render_summary(tracer))
    if args.check:
        problems = validate_trace(doc)
        if problems:
            for p in problems:
                print(f"schema: {p}", file=sys.stderr)
            return 1
        print("schema: OK")
    return 0


def cmd_profile(args) -> int:
    from .obs import from_chrome_trace, profile_trace, reconcile

    if args.trace:
        import json

        with open(args.trace) as f:
            doc = json.load(f)
        spans, messages = from_chrome_trace(doc)
        prof = profile_trace(spans, messages)
        print(f"trace    : {args.trace}")
        print(prof.render(args.top))
        return 0
    if not args.matrix:
        print("profile: give a matrix to run, or --trace FILE to load",
              file=sys.stderr)
        return 2
    solver = _traced_run(args)
    total = (
        solver.sim_result.total_time
        if solver.sim_result is not None else None
    )
    prof = profile_trace(solver.tracer, total_time=total)
    print(f"matrix   : {args.matrix}  mode={args.mode} P={args.nprocs} "
          f"machine={args.machine}")
    print(prof.render(args.top))
    if solver.sim_result is not None:
        rec = reconcile(prof, solver._artifacts.task_graph, solver.spec)
        print(f"model critical path : "
              f"{rec['model_critical_path_seconds']:.6e} s")
        print(f"model-vs-observed drift: {rec['drift'] * 100.0:+.1f}%")
        err = abs(prof.critical_path_seconds - total)
        print(f"critical path vs simulator total: |diff| = {err:.3e} s")
    return 0


def cmd_validate(args) -> int:
    from .api import format_report, validate_matrix

    A = _load(args.matrix)
    results = validate_matrix(A, nprocs=args.nprocs,
                              check_parallel=not args.skip_parallel)
    print(format_report(results))
    return 0 if all(r.ok for r in results) else 1


def cmd_verify_comm(args) -> int:
    import functools
    import json
    from pathlib import Path

    from .lint import PROTOCOL_RULES, count_at_or_above, iter_python_files, lint_paths
    from .machine import spec_by_name
    from .verify import replay_check
    from .verify.checks import check_completed, check_trace

    spec = spec_by_name(args.machine)
    counts = {"note": 0, "warning": 0, "error": 0}
    doc = {"static": {}, "dynamic": [], "replay": [], "faults": {}}
    out = (lambda *a, **k: None) if args.json else print

    def finish() -> int:
        failures = sum(counts.values())
        # every dynamic violation is an error; lower severities are static
        failing = args.fail_on != "never" and (
            counts["error"] or count_at_or_above(static, args.fail_on))
        code = 1 if failing else 0
        if args.json:
            doc["counts"] = dict(counts)
            doc["fail_on"] = args.fail_on
            doc["ok"] = code == 0
            print(json.dumps(doc, indent=2, sort_keys=True, default=str))
        else:
            print(f"\n{'PASS' if code == 0 else 'FAIL'}: "
                  f"{failures} violation(s)")
        return code

    def violations(entry, checks) -> dict:
        """Print and count the failed ``checks``: ``entry``'s violations."""
        bad = [c for c in checks if not c.ok]
        for c in bad:
            out(f"  {c}")
        counts["error"] += len(bad)
        entry["violations"] = [{"rule": c.name, "message": c.detail}
                               for c in bad]
        return entry

    def replayed(label, runner) -> dict:
        rep = replay_check(runner, P, n_orders=args.replays)
        out(f"{label}: {rep.summary()}")
        for m in rep.mismatches:
            out(f"  {m}")
        counts["error"] += len(rep.mismatches)
        return {"summary": rep.summary(),
                "mismatches": [str(m) for m in rep.mismatches]}

    # -- 1. static comm-lint ----------------------------------------------
    out("== static comm-lint ==")
    missing = [m for m in args.module or () if not Path(m).is_file()]
    if missing:
        print(f"cannot read module: {', '.join(missing)}", file=sys.stderr)
        return 2
    files = iter_python_files(args.module or [Path(__file__).parent / "parallel"])
    static = lint_paths(files, select=PROTOCOL_RULES)
    for path in files:
        name = path.name
        findings = [f for f in static if f.path == str(path)]
        doc["static"][name] = [f.as_dict() for f in findings]
        out(f"{name}: {len(findings)} finding(s)" if findings else f"{name}: OK")
        for f in findings:
            counts[f.severity] += 1
            out(f"  {f}")

    if args.static_only:
        return finish()

    # -- 2+3. dynamic trace check and determinism replay -------------------
    from .matrices import random_nonsymmetric
    from .numfact import LUFactorization
    from .parallel import DRIVERS, factorize, run_1d_trisolve, run_2d_trisolve
    from .pipeline import analyze
    from .sparse import read_matrix_market

    if args.matrix:
        A = read_matrix_market(args.matrix)
    else:
        if args.n < 10:
            print("--n must be at least 10 (need a nontrivial block "
                  "structure to exercise the protocols)", file=sys.stderr)
            return 2
        A = random_nonsymmetric(args.n, density=0.06, seed=args.seed)
    art, om = analyze(A, args.block_size)
    P = args.nprocs
    run_args = (om.A, art.part, art.bstruct, P, spec)
    b = np.arange(float(om.A.nrows))

    def driver_runner(method, **kw):
        return lambda sim_opts: factorize(method, *run_args,
                                          sim_opts=sim_opts, **kw)

    @functools.lru_cache(maxsize=None)
    def rapid():
        """Both trisolves solve with the factors of one rapid factorization."""
        res = factorize("1d-rapid", *run_args)
        lu = LUFactorization(res.factor, art.sym, art.part, art.bstruct, None)
        return lu, res.schedule.owner

    # (code, runner, check against the task graph and schedule: the 1D codes)
    targets = [(m, driver_runner(m), d.layout == "1d")
               for m, d in DRIVERS.items()]
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
            print(f"unknown codes: {sorted(unknown)}", file=sys.stderr)
            return 2
        targets = [t for t in targets if t[0] in wanted]

    out(f"\n== dynamic trace check (P={P}, {args.machine}, "
        f"n={om.A.nrows}) ==")
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
        doc["dynamic"].append(violations(
            {"target": name, "summary": check.detail}, [check]))

    if not args.skip_replay:
        out(f"\n== determinism replay ({args.replays} host orders) ==")
        for name, runner in completed:
            doc["replay"].append(
                {"target": name, **replayed(f"{name:12s}", runner)})

    # -- 4. fault injection: two chaos cases, every check must pass (once
    # the fault-free runs complete: else there is nothing to recover to)
    if (args.fault_rate > 0 or args.crash_recovery) and len(completed) == len(targets):
        from .chaos import Scenario, build_context, run_case
        from .machine import FaultPlan

        out(f"\n== fault-injection checks "
            f"(drop rate {args.fault_rate}, seed {args.fault_seed}) ==")
        ctx = build_context(block=args.block_size, amalg=4, spec=spec, A=A)
        plan = FaultPlan.drops(args.fault_rate, seed=args.fault_seed)
        cases = {}
        if args.fault_rate > 0:
            cases["drops"] = Scenario("1d-ca+drops", "1d", nprocs=P), plan
        if args.crash_recovery:
            # crash a rank mid-factorization, recover via checkpoint/restart
            cases["crash_recovery"] = (
                Scenario("1d-ca+crash", "resilient-1d", nprocs=P),
                plan.with_crash(P - 1, 0.4 * ctx.tscale))
        for key, (scenario, case_plan) in cases.items():
            o = run_case(ctx, scenario, case_plan)
            checks = {c.name: c for c in o.oracles}
            entry = {"checks": {name: c.ok for name, c in checks.items()}}
            if o.sim is not None:
                fs = o.sim.fault_stats
                entry.update(summary=checks["tracecheck"].detail,
                             dropped=fs.dropped, retransmits=fs.retransmits)
            if o.resilient is not None:
                entry.update(rounds=len(o.resilient.rounds),
                             restarted=sum(not r.ok for r in o.resilient.rounds),
                             recovered_ok=checks["bit_identical"].ok)
            out(f"{scenario.name}: {sum(entry['checks'].values())}/{len(checks)} "
                "checks ok" + "".join(f"; {k} {v}" for k, v in entry.items()
                                      if k != "checks"))
            doc["faults"][key] = violations(entry, o.oracles)
            if key == "drops" and o.error is None and not args.skip_replay:
                doc["faults"]["drops_replay"] = replayed(
                    "faulty replay",
                    driver_runner("1d-ca", faults=case_plan, reliable=True))

    return finish()


def cmd_lint(args) -> int:
    from pathlib import Path

    from .lint import count_at_or_above, lint_paths, render_json, render_text

    paths = args.paths or [str(Path(__file__).resolve().parent)]
    select = args.select.split(",") if args.select else None
    env_names = tuple(args.env_name) if args.env_name else ("env",)

    if args.certify is not None or args.certify_check:
        from .lint.certify import build_certificate, default_certificate_path

        cert = build_certificate(
            args.paths or None, env_names=env_names
        )
        if args.certify_check:
            path = default_certificate_path()
            try:
                from .lint.certify import ZeroCopyCertificate

                committed = ZeroCopyCertificate.load(path)
            except (OSError, ValueError):
                print(f"certificate missing or unreadable: {path}")
                return 1
            fresh = {m: (e["sha256"], e["clean"])
                     for m, e in cert.modules.items()}
            old = {m: (e.get("sha256"), e.get("clean"))
                   for m, e in committed.modules.items()}
            if fresh != old:
                stale = sorted(
                    m for m in set(fresh) | set(old)
                    if fresh.get(m) != old.get(m)
                )
                print(f"zero-copy certificate is stale ({len(stale)} "
                      f"module(s) differ): {', '.join(stale[:8])}"
                      f"{', ...' if len(stale) > 8 else ''}")
                print("regenerate with: repro lint --certify")
                return 1
            print(f"zero-copy certificate is fresh: "
                  f"{len(cert.clean_modules())} clean module(s), "
                  f"{len(cert.dirty_modules())} uncertified")
            return 0
        path = Path(args.certify) if args.certify else default_certificate_path()
        cert.write(path)
        dirty = cert.dirty_modules()
        print(f"wrote {path}: {len(cert.clean_modules())} module(s) "
              f"certified zero-copy clean, {len(dirty)} uncertified"
              + (f" ({', '.join(dirty[:6])}"
                 f"{', ...' if len(dirty) > 6 else ''})" if dirty else ""))
        return 0

    findings = lint_paths(paths, env_names=env_names, select=select)
    if args.json:
        fail_on = None if args.fail_on == "never" else args.fail_on
        print(render_json(findings, fail_on=fail_on))
    else:
        print(render_text(findings))
    if args.fail_on == "never":
        return 0
    return 1 if count_at_or_above(findings, args.fail_on) else 0


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

    from .machine import spec_by_name
    from .matrices import SUITE, get_matrix
    from .tune import Tuner, default_plan

    if args.matrix in SUITE:
        A = get_matrix(args.matrix, args.scale)
    else:
        A = _load(args.matrix)
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

    by_status = {}
    for r in res.records:
        by_status[r.status] = by_status.get(r.status, 0) + 1
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
            print(f"unknown families: {sorted(unknown)} "
                  f"(known: {list(FAMILIES)})", file=sys.stderr)
            return 2
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


def _count(text: str) -> int:
    """argparse type of every count flag (``--nprocs``, ``--jobs``,
    ``--block-size``, ...): an int >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative(text: str) -> int:
    """argparse type of ``--amalgamation``: an int >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _rate(text: str) -> float:
    """argparse type of ``--fault-rate``: a probability in [0, 1)."""
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError("must lie in [0, 1)")
    return value


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


def build_parser() -> argparse.ArgumentParser:
    from .api import METHODS
    from .machine import MACHINES

    machines = list(MACHINES)
    modes = [*_TRACE_MODES, *METHODS[1:]]
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

    f = sub.add_parser("factor", help="run the S* factorization")
    f.add_argument("matrix")
    f.add_argument("--block-size", type=_count, default=25)
    f.add_argument("--amalgamation", type=_nonnegative, default=4)
    f.add_argument("--threshold", type=_threshold, default=1.0)
    f.set_defaults(func=cmd_factor)

    s = sub.add_parser("solve", help="factor and solve A x = b")
    s.add_argument("matrix")
    s.add_argument("--rhs", help="text file with the right-hand side")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--threshold", type=_threshold, default=1.0)
    s.add_argument("--refine", action="store_true",
                   help="apply iterative refinement")
    s.add_argument("--nprocs", type=_count, default=1)
    s.add_argument("--method", default="sequential", choices=METHODS)
    s.add_argument("--machine", default="T3E", choices=machines)
    s.add_argument("--perturb", action="store_true",
                   help="replace tiny pivots by sqrt(eps)*||A|| instead of "
                        "failing (recover via --refine)")
    s.add_argument("--faults",
                   help="FaultPlan JSON file: inject message/crash faults "
                        "into the simulated parallel run (implies 1d-ca on "
                        "4 ranks unless --method/--nprocs are given)")
    s.add_argument("--ckpt-interval", type=_count, default=None,
                   help="stages per checkpoint round (crash recovery)")
    s.add_argument("-o", "--output")
    s.set_defaults(func=cmd_solve)

    m = sub.add_parser("simulate", help="parallel run on the simulated machine")
    m.add_argument("matrix")
    m.add_argument("--nprocs", type=_count, default=8)
    m.add_argument("--method", default="2d", choices=METHODS[1:])
    m.add_argument("--machine", default="T3E", choices=machines)
    m.add_argument("--faults", help="FaultPlan JSON file to inject")
    m.add_argument("--reliable", action="store_true",
                   help="enable the ack/retry transport")
    m.add_argument("--ckpt-interval", type=_count, default=None,
                   help="stages per checkpoint round (enables the "
                        "checkpoint/restart driver)")
    m.set_defaults(func=cmd_simulate)

    tr = sub.add_parser(
        "trace",
        help="traced factorization -> Chrome/Perfetto trace_event JSON",
    )
    tr.add_argument("matrix")
    tr.add_argument("--mode", default="2d",
                    choices=modes,
                    help="1d is shorthand for 1d-rapid")
    tr.add_argument("--nprocs", type=_count, default=8)
    tr.add_argument("--machine", default="T3E",
                    choices=machines)
    tr.add_argument("--out", default="trace.json",
                    help="output trace file (load in ui.perfetto.dev)")
    tr.add_argument("--check", action="store_true",
                    help="validate the emitted JSON against the trace "
                         "schema; nonzero exit on problems")
    tr.set_defaults(func=cmd_trace)

    pf = sub.add_parser(
        "profile",
        help="busy/comm/idle breakdown + critical path of a traced run",
    )
    pf.add_argument("matrix", nargs="?",
                    help="matrix to run (omit when loading --trace)")
    pf.add_argument("--trace", help="profile a saved trace JSON instead")
    pf.add_argument("--mode", default="2d",
                    choices=modes)
    pf.add_argument("--nprocs", type=_count, default=8)
    pf.add_argument("--machine", default="T3E",
                    choices=machines)
    pf.add_argument("--top", type=int, default=5,
                    help="how many longest spans to list")
    pf.set_defaults(func=cmd_profile)

    v = sub.add_parser("validate", help="run the invariant battery on a matrix")
    v.add_argument("matrix")
    v.add_argument("--nprocs", type=_count, default=4)
    v.add_argument("--skip-parallel", action="store_true")
    v.set_defaults(func=cmd_validate)

    vc = sub.add_parser(
        "verify-comm",
        help="communication-protocol analyses: static lint, trace check, replay",
    )
    vc.add_argument("--matrix", help="MatrixMarket file (default: random test matrix)")
    vc.add_argument("--n", type=int, default=90,
                    help="order of the random test matrix")
    vc.add_argument("--seed", type=int, default=31)
    vc.add_argument("--block-size", type=_count, default=6)
    vc.add_argument("--nprocs", type=_count, default=4)
    vc.add_argument("--machine", default="T3E", choices=machines)
    vc.add_argument("--codes",
                    help="comma list of SPMD codes to check dynamically "
                         f"({','.join(METHODS[1:])},trisolve-1d,trisolve-2d)")
    vc.add_argument("--module", action="append",
                    help="lint this source file instead of repro.parallel")
    vc.add_argument("--static-only", action="store_true",
                    help="run only the AST lint, skip simulations")
    vc.add_argument("--skip-replay", action="store_true")
    vc.add_argument("--replays", type=_count, default=3,
                    help="number of perturbed host orders per code")
    vc.add_argument("--fault-rate", type=_rate, default=0.0,
                    help="drop this fraction of messages (reliable retry on) "
                         "and trace-check the recovered run")
    vc.add_argument("--fault-seed", type=int, default=7)
    vc.add_argument("--crash-recovery", action="store_true",
                    help="crash a rank mid-run, recover via checkpoint/"
                         "restart and trace-check every committed round")
    vc.add_argument("--json", action="store_true",
                    help="emit a machine-readable JSON report instead of text")
    vc.add_argument("--fail-on", default="warning",
                    choices=["note", "warning", "error", "never"],
                    help="exit nonzero when a finding at or above this "
                         "severity exists (default: warning)")
    vc.set_defaults(func=cmd_verify_comm)

    ln = sub.add_parser(
        "lint",
        help="static analysis: determinism (D1xx), zero-copy aliasing "
             "(Z2xx) and comm-protocol (Y01/T0x) rules",
    )
    ln.add_argument("paths", nargs="*",
                    help="files or directories to lint (default: the "
                         "installed repro package)")
    ln.add_argument("--fail-on", default="warning",
                    choices=["note", "warning", "error", "never"],
                    help="exit nonzero when a finding at or above this "
                         "severity exists (default: warning)")
    ln.add_argument("--json", action="store_true",
                    help="emit a machine-readable JSON report instead of text")
    ln.add_argument("--select",
                    help="comma-separated rule ids to report (e.g. D101,Z201)")
    ln.add_argument("--env-name", action="append",
                    help="SPMD env handle name(s) for the aliasing pass "
                         "(default: env)")
    ln.add_argument("--certify", nargs="?", const="", metavar="PATH",
                    default=None,
                    help="emit a zero-copy certificate (Z201/Z202 verdict + "
                         "source hash per module) consumed by "
                         "Simulator(zero_copy=True); PATH defaults to the "
                         "packaged certificate location")
    ln.add_argument("--certify-check", action="store_true",
                    help="rebuild the certificate and fail if the committed "
                         "copy is stale (CI freshness gate)")
    ln.set_defaults(func=cmd_lint)

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
    sd.add_argument("--inter-arrival", type=float, default=0.0,
                    help="virtual seconds between submissions")
    sd.add_argument("--seed", type=int, default=0)
    sd.set_defaults(func=cmd_serve_demo)

    tn = sub.add_parser(
        "tune",
        help="model-guided autotuning: search block size / grid / layout "
             "for one matrix pattern",
    )
    tn.add_argument("matrix",
                    help="MatrixMarket file or a built-in suite name "
                         "(see `python -m repro suite`)")
    tn.add_argument("--scale", default="small",
                    choices=["small", "bench"],
                    help="suite-matrix scale when `matrix` is a suite name")
    tn.add_argument("--nprocs", type=_count, default=8)
    tn.add_argument("--machine", default="T3E",
                    choices=machines)
    tn.add_argument("--budget", type=_budget, default="auto",
                    help="virtual-second cap on simulator probes: a float, "
                         "'auto' (~10 factorizations) or 'none'")
    tn.add_argument("--seed", type=int, default=0,
                    help="deterministic tie-break seed (same seed+budget "
                         "=> bit-identical search)")
    tn.add_argument("--json", action="store_true",
                    help="emit the winning plan + full search trace as JSON")
    tn.set_defaults(func=cmd_tune)

    ch = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaign with oracle checks and "
             "failing-schedule shrinking",
    )
    ch.add_argument("--campaign", default="all",
                    help="comma-separated fault families "
                         "(drop,dup,delay,corrupt,crash) or 'all'")
    ch.add_argument("--budget", type=int, default=60,
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
    ch.add_argument("--json", action="store_true",
                    help="print the report as JSON")
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
