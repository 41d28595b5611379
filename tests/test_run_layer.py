"""The run layer has one owner: ``repro.parallel.DRIVERS`` / ``factorize``
and ``repro.pipeline.analyze`` / ``AnalysisArtifacts``.

These tests make that claim falsifiable: no module outside
``repro.parallel`` picks a driver or parses a method string, every
vocabulary that names a parallel code (solver methods, CLI choices, tuning
plans, chaos scenarios) resolves to a key of the one table, ``factorize``
adds nothing to a direct driver call, and hostile run options end in a
``ValueError`` before any simulator exists.
"""

import ast
import inspect
import json
import pathlib

import numpy as np
import pytest

import repro
from repro import api, chaos, cli, parallel
from repro.api import SStarSolver
from repro.api.fixtures import prepare_pipeline
from repro.numfact import LUFactorization, sstar_factor
from repro.verify.checks import check_bit_identical
from repro.machine import (
    MACHINES, CrashFault, FaultPlan, RankCrashedError, T3E, spec_by_name,
)
from repro.parallel import (
    DRIVERS, Grid2D, factorize, run_1d, run_2d, run_2d_trisolve,
)
from repro.parallel.resilience import run_checkpointed
from repro.pipeline import PatternLRU, analyze
from repro.service import AnalysisCache
from repro.tune import PlanCache, TuningPlan
from repro.tune.space import enumerate_plans

SRC = pathlib.Path(repro.__file__).parent
DATA = pathlib.Path(__file__).parent / "data"
RUNNERS = {"run_1d", "run_2d", "run_checkpointed"}


@pytest.fixture(scope="module")
def run_args():
    p = prepare_pipeline("sherman5")
    return (p["om"].A, p["part"], p["bstruct"], 4, T3E)


@pytest.fixture(scope="module")
def sequential_lu():
    return sstar_factor(repro.matrices.get_matrix("sherman5"))


def _same_factor(a, b) -> bool:
    return check_bit_identical(a, b).ok


# -- (ii) one dispatch, enforced on the syntax tree -------------------------


def _modules_outside_parallel():
    return [p for p in sorted(SRC.rglob("*.py"))
            if SRC / "parallel" not in p.parents]


def test_only_repro_parallel_touches_the_drivers():
    offenders = []
    for path in _modules_outside_parallel():
        for node in ast.walk(ast.parse(path.read_text())):
            names = ()
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            offenders += [(path.name, node.lineno, n) for n in names if n in RUNNERS]
    assert offenders == []


def test_nobody_parses_a_method_string():
    offenders = []
    for path in _modules_outside_parallel():
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute) and node.args
                    and isinstance(node.args[0], ast.Constant)):
                continue
            verb, arg = node.func.attr, node.args[0].value
            if (verb in ("startswith", "endswith")
                    and arg in ("1d", "2d", "sync", "rapid", "ca", "resilient")
                    ) or (verb == "split" and arg == "-"):
                offenders.append((path.name, node.lineno, verb, arg))
    assert offenders == []


# -- (iii) every vocabulary is the table ------------------------------------


def test_methods_are_the_table():
    assert api.METHODS == ("sequential", *parallel.DRIVERS)
    for name, driver in DRIVERS.items():
        assert driver.layout in ("1d", "2d")
        assert driver.runner in (run_1d, run_2d)


def _choices(parser, verb, flag):
    sub = next(a for a in parser._actions if a.dest == "command")
    return next(a for a in sub.choices[verb]._actions
                if flag in a.option_strings)


def test_cli_choices_are_derived_from_the_tables():
    parser = cli.build_parser()
    for verb in ("factor", "solve"):
        assert tuple(_choices(parser, verb, "--method").choices) == api.METHODS
    # a sequential run has no rank tracks to profile
    assert tuple(_choices(parser, "trace", "--method").choices) == tuple(DRIVERS)
    codes = _choices(parser, "verify-comm", "--codes").help
    assert ",".join(DRIVERS) + ",trisolve-" in codes
    for verb in ("factor", "solve", "trace", "verify-comm", "tune"):
        assert _choices(parser, verb, "--machine").choices == list(MACHINES)


def test_plans_and_scenarios_resolve_to_table_keys():
    for plan in enumerate_plans(8):
        assert plan.method in DRIVERS
    assert TuningPlan().method == "sequential"
    for scenario in chaos.DEFAULT_SCENARIOS:
        assert scenario.driver in DRIVERS
    assert chaos.Scenario("svc", "service", method="2d-sync").driver == "2d-sync"


@pytest.mark.parametrize("method", list(DRIVERS))
def test_factorize_is_the_direct_call(method, run_args):
    driver = DRIVERS[method]
    direct = driver.runner(*run_args, **driver.fixed)
    via = factorize(method, *run_args)
    assert type(via) is type(direct)
    assert _same_factor(via.factor, direct.factor)
    assert via.sim.total_time == direct.sim.total_time
    assert via.sim.messages == direct.sim.messages


def test_every_factorize_keyword_is_one_a_driver_already_takes():
    taken = set()
    for fn in (run_1d, run_2d, run_checkpointed):
        taken |= set(inspect.signature(fn).parameters)
    own = set(inspect.signature(factorize).parameters)
    assert own - taken == set()


# -- hostile run options: ValueError before any work ------------------------


HOSTILE = [
    ({"ckpt_interval": 0}, "ckpt_interval"),
    ({"ckpt_interval": -1}, "ckpt_interval"),
    ({"nprocs": 0}, "nprocs"),
    ({"method": "1d-rapd"}, "unknown method"),
    ({"method": "2d", "grid": Grid2D(2, 4)}, "grid 2x4 has 8 ranks"),
    # u = 0 (or NaN) keeps every nonzero diagonal: pivoting silently stops
    ({"method": "2d", "pivot_threshold": 0.0}, "pivot_threshold"),
    ({"method": "2d", "pivot_threshold": float("nan")}, "pivot_threshold"),
    ({"method": "2d-sync", "pivot_threshold": -1.0}, "pivot_threshold"),
    ({"pivot_threshold": 2.0}, "pivot_threshold"),
]


# the rows a single run sees, which the runners check themselves
ONE_RUN = [row for row in HOSTILE
           if {"nprocs", "pivot_threshold", "grid"} & set(row[0])] + [
    ({"method": "1d-rapid", "nprocs": 0}, "nprocs"),
    ({"method": "1d-ca", "nprocs": -2}, "nprocs"),
    ({"method": "2d", "nprocs": 0}, "nprocs"),
] + [
    ({"method": method, "stage_range": window}, "stage_range")
    for method in DRIVERS
    for window in [(3, 1), (2, 2), (0, 62), (0, 999), (-2, 3), (0.0, 3)]
]


class TestHostileRunOptions:
    @pytest.fixture(autouse=True)
    def no_simulator_may_exist(self, monkeypatch):
        from repro.parallel import resilience, trisolve

        def boom(*a, **k):
            raise AssertionError("the simulator was built")

        for mod in (resilience, trisolve):
            monkeypatch.setattr(mod, "Simulator", boom)

    @pytest.mark.parametrize("opts, message", HOSTILE + [
        # the solver has no stage_range; sherman5 has N = 59 stages here
        ({"method": method, "stage_range": window}, "stage_range")
        for method in DRIVERS
        for window in [(3, 2), (2, 2), (0, 62), (-2, 3)]
    ])
    def test_factorize(self, opts, message, run_args):
        opts = {"method": "1d-ca", "nprocs": 4, **opts}
        A, part, bstruct, _, spec = run_args
        with pytest.raises(ValueError, match=message):
            factorize(opts.pop("method"), A, part, bstruct,
                      opts.pop("nprocs"), spec, **opts)

    @pytest.mark.parametrize("opts, message", ONE_RUN)
    def test_the_runners_themselves(self, opts, message, run_args):
        opts = {"method": "1d-ca", "nprocs": 4, **opts}
        _, runner, fixed = DRIVERS[opts.pop("method")]
        A, part, bstruct, _, spec = run_args
        with pytest.raises(ValueError, match=message):
            runner(A, part, bstruct, opts.pop("nprocs"), spec, **fixed, **opts)

    @pytest.mark.parametrize("make, message", [
        (lambda lu: run_2d_trisolve(lu, np.ones(lu.part.n), 0, T3E), "nprocs"),
        (lambda lu: Grid2D(0, 4), "grid 0x4"),
        (lambda lu: Grid2D(2, -1), "grid 2x-1"),
    ], ids=["trisolve-0-ranks", "grid-0x4", "grid-2x-1"])
    def test_no_mapping_without_ranks(self, make, message, sequential_lu):
        with pytest.raises(ValueError, match=message):
            make(sequential_lu)

    def test_factorize_has_no_sequential_row(self, run_args):
        with pytest.raises(ValueError, match="unknown method 'sequential'"):
            factorize("sequential", *run_args)

    @pytest.mark.parametrize("interval", [0, -1])
    def test_the_checkpoint_drivers_themselves(self, interval, run_args):
        with pytest.raises(ValueError, match="ckpt_interval"):
            run_checkpointed(run_1d, *run_args, ckpt_interval=interval,
                             sim_opts=None, max_restarts=None)

    @pytest.mark.parametrize("opts, message", HOSTILE + [
        ({"machine": "cray"}, "unknown machine 'cray'.*T3D.*T3E.*GENERIC"),
        ({"method": "sequential", "pivot_threshold": 0.0}, "pivot_threshold"),
        ({"block_size": -3}, "block_size"),
        ({"block_size": 0}, "block_size"),
        ({"amalgamation": -1}, "amalgamation"),
    ])
    def test_solver_construction(self, opts, message, monkeypatch):
        from repro.api import solver

        monkeypatch.setattr(solver, "analyze", None)  # construction only
        with pytest.raises(ValueError, match=message):
            SStarSolver(**{"method": "1d-ca", "nprocs": 4, **opts})

    @pytest.mark.parametrize("verb", ["solve", "factor"])
    @pytest.mark.parametrize("flags", [
        ["--ckpt-interval", "0"], ["--ckpt-interval", "-1"], ["--nprocs", "0"],
    ])
    def test_cli_exits_2(self, verb, flags, tmp_path, capsys):
        from repro.matrices import get_matrix
        from repro.sparse import write_matrix_market

        path = tmp_path / "m.mtx"
        write_matrix_market(path, get_matrix("orsreg1", "small"))
        with pytest.raises(SystemExit) as exc:  # argparse's usage error
            cli.main([verb, str(path), "--method", "1d-ca", *flags])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err


def test_spec_by_name():
    assert spec_by_name("t3e") is T3E
    assert [spec_by_name(n).name for n in MACHINES] == list(MACHINES)


@pytest.mark.parametrize("solve", ["solve", "solve_transpose"])
@pytest.mark.parametrize("method", ["1d-ca", "2d"])
def test_solving_a_partial_factor_is_a_typed_error(method, solve, run_args):
    """A ``stage_range`` run leaves a partial factor: solving it names the
    first unfactored block column, never a bare ``TypeError``."""
    sym = prepare_pipeline("sherman5")["sym"]
    A, part, bstruct, _, _ = run_args
    res = factorize(method, *run_args, stage_range=(0, 3))
    lu = LUFactorization(res.factor, sym, part, bstruct, None)
    with pytest.raises(RuntimeError, match=r"Factor\(3\) has not run yet"):
        getattr(lu, solve)(np.ones(A.nrows))


# -- faults: one way in, one way out ----------------------------------------


def test_the_checkpointed_path_reads_the_plan_from_sim_opts(run_args):
    opts = {"faults": FaultPlan.drops(0.1, seed=3), "reliable": True}
    plain = factorize("1d-ca", *run_args, sim_opts=opts)
    rounds = factorize("1d-ca", *run_args, sim_opts=opts, ckpt_interval=4)
    assert len(rounds.rounds) > 1
    for res in (plain, rounds):
        assert len(res.fault_stats.injected) == 24
        assert res.fault_stats.retransmits == 24


def test_a_crash_ends_a_plain_run_as_the_typed_error(run_args):
    """Rank 0 dies after its last message: the survivors finish, yet the
    run raises instead of returning a factor with holes in it."""
    base = factorize("1d-rapid", *run_args)
    plan = FaultPlan(crashes=[CrashFault(0, 0.5 * base.sim.rank_clocks[0])])
    with pytest.raises(RankCrashedError) as exc:
        factorize("1d-rapid", *run_args,
                  sim_opts={"faults": plan, "reliable": True})
    assert exc.value.ranks == [0] and exc.value.blocked == []
    assert exc.value.fault_stats.crashes[0][0] == 0


# -- the restart budget, exhausted ------------------------------------------


def test_exhausted_restart_budget_is_a_typed_error():
    """A rank that dies after its last message lets the survivors finish
    the round; the plain run still ends in the typed crash error (with
    nobody blocked), and so does a checkpointed one with no restart budget
    left, not a ``TypeError`` from building it."""
    p = prepare_pipeline("sherman5", block_size=8)
    args = (p["om"].A, p["part"], p["bstruct"], 4, T3E)
    base = factorize("1d-rapid", *args, sim_opts={"reliable": True})
    plan = None
    for step in range(1, 60):  # scan back from rank 0's finish time
        t = base.sim.rank_clocks[0] * (1.0 - step / 400.0)
        candidate = FaultPlan(crashes=[CrashFault(0, t)])
        opts = {"faults": candidate, "reliable": True}
        try:
            factorize("1d-rapid", *args, sim_opts=opts)
        except RankCrashedError as exc:
            # a crash that blocks the survivors is a different path
            if exc.blocked == []:
                plan = candidate
                assert exc.ranks == [0]
            break
    assert plan is not None, "no crash placement lets the survivors finish"
    opts = {"faults": plan, "reliable": True}
    with pytest.raises(RankCrashedError) as exc:
        factorize("1d-rapid", *args, sim_opts=opts,
                  ckpt_interval=p["part"].N, max_restarts=0)
    assert exc.value.ranks == [0]
    assert list(exc.value.crash_times) == [0]  # {rank: clock at death}
    assert exc.value.crash_times[0] >= plan.crashes[0].at_time
    # with budget, the same placement restarts on the three survivors
    res = factorize("1d-rapid", *args, sim_opts=opts,
                    ckpt_interval=p["part"].N)
    assert res.crashes == [0] and res.nprocs_final == 3
    assert _same_factor(res.factor, base.factor)


# -- grid on the checkpointed 2D path ---------------------------------------


def test_checkpointed_2d_keeps_the_callers_grid(run_args):
    A, part, bstruct, nprocs, spec = run_args
    grid = Grid2D(1, 4)
    plain = factorize("2d", *run_args, grid=grid)
    rounds = factorize("2d", *run_args, grid=grid, ckpt_interval=1000)
    assert rounds.messages == plain.sim.messages
    # one record for both: each total is its sum over the rounds
    short = factorize("2d", *run_args, grid=grid, ckpt_interval=4)
    for res in (plain, rounds, short):
        assert type(res) is type(plain)
        assert res.parallel_seconds == sum(r.seconds for r in res.rounds)
        assert res.messages == sum(r.sim.messages for r in res.rounds)
        assert res.bytes_sent == sum(r.sim.bytes_sent for r in res.rounds)
        assert res.total_counter().total == sum(
            r.sim.total_counter().total for r in res.rounds)
    assert len(plain.rounds) == 1 and len(short.rounds) > 1
    assert rounds.messages != factorize("2d", *run_args).sim.messages
    assert _same_factor(rounds.factor, plain.factor)

    solver = SStarSolver(nprocs=nprocs, method="2d", grid=grid,
                         ckpt_interval=1000).factor(repro.matrices.get_matrix("sherman5"))
    assert solver.report.messages == plain.sim.messages


def test_a_crash_drops_the_callers_grid_for_the_preferred_one(run_args):
    base = factorize("2d", *run_args)
    plan = FaultPlan(crashes=[CrashFault(3, 0.4 * base.sim.total_time)])
    res = factorize("2d", *run_args, grid=Grid2D(1, 4), ckpt_interval=4,
                    sim_opts={"faults": plan, "reliable": True})
    assert res.crashes == [3] and res.nprocs_final == 3
    assert _same_factor(res.factor, base.factor)


# -- (iv) the one analysis record -------------------------------------------


def test_reblock_equals_a_fresh_analysis(monkeypatch):
    A = repro.matrices.get_matrix("jpwh991")
    base, om = analyze(A, 25, 4)
    again, fresh = base.reblock(8, 0), analyze(A, 8, 0)[0]
    assert again.key == fresh.key and again.nbytes == fresh.nbytes
    assert again.sym is base.sym
    for name in ("row_perm", "col_perm"):
        assert np.array_equal(getattr(again, name), getattr(fresh, name))
    assert np.array_equal(again.part.bounds, fresh.part.bounds)
    assert list(again.bstruct.lrows) == list(fresh.bstruct.lrows)
    assert list(again.bstruct.udense_cols) == list(fresh.bstruct.udense_cols)
    for key, rows in fresh.bstruct.lrows.items():
        assert np.array_equal(again.bstruct.lrows[key], rows)
    for key, cols in fresh.bstruct.udense_cols.items():
        assert np.array_equal(again.bstruct.udense_cols[key], cols)

    from repro.taskgraph import dag

    built = []
    real = dag.build_task_graph
    monkeypatch.setattr(dag, "build_task_graph",
                        lambda bs: built.append(bs) or real(bs))
    tg = again.task_graph
    assert again.task_graph is tg and built == [again.bstruct]
    # run_1d finds the same graph instead of building its own
    factorize("1d-rapid", again.order(A).A, again.part, again.bstruct, 2, T3E)
    assert built == [again.bstruct]


# -- one LRU, two users; persisted formats ----------------------------------


def test_both_caches_are_the_one_lru():
    for cls in (AnalysisCache, PlanCache):
        assert issubclass(cls, PatternLRU)
        for name in ("get", "peek", "put", "clear", "__len__", "__contains__"):
            assert name not in vars(cls), (cls.__name__, name)


PARENT_PLAN = """{"amalgamation": 4, "block_size": 16, "ckpt_interval": 3,
 "layout": "2d", "nprocs": 8, "pc": 4, "pipeline": "rapid", "pr": 2,
 "synchronous": true}"""

PARENT_PLAN_CACHE = """{"entries": [
 {"key": ["def", "T3D", 4], "plan": {"amalgamation": 4, "block_size": 25,
  "ckpt_interval": null, "layout": "1d", "nprocs": 4, "pc": 1,
  "pipeline": "ca", "pr": 1, "synchronous": false}},
 {"key": ["abc", "T3E", 8], "plan": %s}],
 "max_entries": 4, "stats": {"evictions": 0, "hits": 1, "misses": 1}}""" % PARENT_PLAN


def test_json_written_at_the_parent_commit_still_loads():
    plan = TuningPlan.from_json(PARENT_PLAN)
    assert plan.method == "2d-sync" and plan.grid() == Grid2D(2, 4)
    cache = PlanCache.from_json(PARENT_PLAN_CACHE)
    assert cache.get(["abc", "T3E", 8]) == plan
    assert cache.peek(("def", "T3D", 4)).method == "1d-ca"
    assert (cache.stats.hits, cache.stats.misses, cache.stats.entries) == (2, 1, 2)
    assert json.loads(cache.to_json())["entries"][-1]["key"] == ["abc", "T3E", 8]

    art = json.loads((DATA / "chaos_shrink_b014fa0.json").read_text())
    outcome, _ = chaos.replay_artifact(art)
    assert outcome.scenario.driver == "1d-ca"
    # same failure at the same block (its magnitude follows the host BLAS)
    assert outcome.failure_key()[:3] == art["failure_key"][:3]
