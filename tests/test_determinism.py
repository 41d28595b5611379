"""Run-time twins of the retired determinism rules: the runs read no host
clock and no unseeded RNG, do not move with the string-hash seed, and
multicast in rank order.

``repro lint`` once flagged wall-clock reads (D104), unseeded or global
RNGs (D103) and iteration over sets and set-keyed dicts feeding numerics
or message order (D101, D102, D106) by reading the source; the mutation
census in DESIGN "Static analysis" retired those rules because run-time
gates catch their mutants.  These tests check the same properties on the
running code, so a failure names the property rather than a digest:

* ``TestNoHostClock`` — no ``time`` clock is read from ``repro`` code
  during an analysis, a factorization under every driver, a distributed
  solve, a service drain or a tuner search;
* ``TestNoUnseededRng`` — the session-wide RNG watch of
  ``tests/call_watch.py`` sees every unseeded or global RNG call, the
  census mutants the D103 rule alone killed included, and nothing seeded;
* ``TestHashSeed`` — the same scenarios, run again in a fresh interpreter
  under another ``PYTHONHASHSEED``, give the same bits: factors, tallies
  in insertion order, traces and virtual times (tier-1's twin of CI's
  second-seed golden step);
* ``TestMulticastOrder`` — at 16 ranks, where a set of ranks no longer
  iterates in ascending order, every multicast posts to its destinations
  in ascending rank order (census row D101-4, which only the end-to-end
  exact gate caught before).

Print the fingerprints of this interpreter (what the hash-seed test runs
in its child process)::

    PYTHONPATH=src python -m tests.test_determinism
"""

import hashlib
import importlib
import importlib.util
import json
import os
import pathlib
import random
import subprocess
import sys
import time
import types

import numpy as np
import pytest

from repro.api.fixtures import prepare_pipeline
from repro.machine import T3E
from repro.matrices import get_matrix
from repro.numfact import sstar_factor
from repro.obs import Tracer, to_chrome_trace
from repro.parallel import DRIVERS, factorize, run_1d_trisolve
from repro.service import SolveService
from repro.tune import Tuner

from . import call_watch
from .call_watch import REPRO, SEEDABLE, watched
from .test_analysis_golden import analysis_digests

ROOT = pathlib.Path(__file__).resolve().parents[1]
MATRIX, NPROCS = "sherman5", 4

#: the host clocks of the ``time`` module
CLOCKS = (
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns", "thread_time",
    "thread_time_ns",
)


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


def _tally(counter) -> list:
    """A kernel tally in insertion order, floats as hex."""
    return [[k, g, float(v).hex()] for (k, g), v in counter.by_gran.items()]


def _trace(tracer) -> str:
    doc = to_chrome_trace(tracer.spans, tracer.messages)
    return _digest(json.dumps(doc, sort_keys=True))


def _pipeline() -> tuple:
    p = prepare_pipeline(MATRIX)
    return p, (p["om"].A, p["part"], p["bstruct"], NPROCS, T3E)


def _analysis() -> dict:
    return analysis_digests(get_matrix(MATRIX, "small"))


def _sequential() -> dict:
    p, _ = _pipeline()
    lu = sstar_factor(p["om"].A, sym=p["sym"], part=p["part"],
                      bstruct=p["bstruct"])
    return {"arena": _digest(lu.matrix.arena, lu.matrix.pivot_seq),
            "tally": _tally(lu.counter)}


def _driver(method: str) -> dict:
    _, args = _pipeline()
    tracer = Tracer()
    res = factorize(method, *args, sim_opts={"tracer": tracer})
    return {"arena": _digest(res.factor.arena, res.factor.pivot_seq),
            "tally": _tally(res.sim.total_counter()),
            "trace": _trace(tracer),
            "parallel_seconds": float(res.parallel_seconds).hex()}


def _trisolve() -> dict:
    p, args = _pipeline()
    lu = sstar_factor(p["om"].A, sym=p["sym"], part=p["part"],
                      bstruct=p["bstruct"])
    owner = factorize("1d-rapid", *args).schedule.owner
    tracer = Tracer()
    b = np.sin(np.arange(p["om"].n) + 1.0)
    tri = run_1d_trisolve(lu, owner, b, NPROCS, T3E,
                          sim_opts={"tracer": tracer})
    return {"x": _digest(tri.x), "trace": _trace(tracer),
            "seconds": float(tri.sim.total_time).hex()}


def _service() -> dict:
    A = get_matrix(MATRIX, "small")
    svc = SolveService(workers=2, max_queue=8, inter_arrival=1e-3)
    ids = [svc.submit(A, np.arange(A.nrows) + float(i)) for i in range(4)]
    svc.drain()
    jobs = [svc.job(i) for i in ids]
    return {"x": _digest(*(j.x for j in jobs)),
            "times": [[float(t).hex() for t in (j.arrival, j.start, j.finish)]
                      for j in jobs],
            "metrics": repr(svc.metrics())}


def _tune() -> dict:
    res = Tuner(spec=T3E, nprocs=NPROCS, budget="auto", seed=0).tune(
        get_matrix(MATRIX, "small"))
    return {"result": res.to_json()}


#: scenario name -> a function of nothing returning its JSON fingerprint
SCENARIOS = {
    "analysis": _analysis,
    "sequential": _sequential,
    **{m: (lambda m=m: _driver(m)) for m in DRIVERS},
    "trisolve": _trisolve,
    "service": _service,
    "tune": _tune,
}

#: what the child interpreter of ``TestHashSeed`` runs (the tuner's search
#: is left out: its own determinism test covers it, and it is the slowest)
HASHED = tuple(name for name in SCENARIOS if name != "tune")


def fingerprints(names=HASHED) -> dict:
    return {name: SCENARIOS[name]() for name in names}


class TestNoHostClock:
    """Model time, message order and numerics are functions of the pattern
    and the machine spec alone, so nothing ``repro`` runs may read a host
    clock; the clocks keep working (only the reads from ``repro`` code are
    counted), so a read fails here rather than inside the run."""

    @pytest.fixture
    def clock_reads(self, monkeypatch):
        reads = []
        for name in CLOCKS:
            clock = getattr(time, name, None)
            if clock is not None:
                monkeypatch.setattr(time, name, watched(
                    clock, f"time.{name}", reads, REPRO))
        return reads

    def test_the_watch_sees_a_read(self, clock_reads):
        probe = os.path.join(REPRO, "probe.py")
        exec(compile("import time\ntime.perf_counter()\n", probe, "exec"), {})
        assert clock_reads == [f"time.perf_counter from {probe}:2"]

    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_run_reads_no_clock(self, scenario, clock_reads):
        SCENARIOS[scenario]()
        assert clock_reads == []


def _census():
    """``tools/lint_census.py`` (its mutants and its record's path)."""
    spec = importlib.util.spec_from_file_location(
        "lint_census", ROOT / "tools" / "lint_census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    return census


CENSUS = _census()
#: the census mutants the D103 rule killed that change what a run prints
#: (their witness differs between two runs): before the watch, no run-time
#: gate saw them
RULE_KILLED = [r["id"] for r in json.loads(CENSUS.OUT.read_text())["detail"]
               if r["rule_kills"] and (r["witness"] or {}).get("differs")]


class TestNoUnseededRng:
    """Every draw must be a function of a seed the caller chose; the
    session-wide watch of ``tests/call_watch.py`` fails a test in which
    ``repro`` or test code draws from an unseeded or global RNG.  A test
    here that makes such a call on purpose takes its record out of the
    watch's list before the test ends."""

    def _probe(self, line, calls, probe=os.path.join(REPRO, "probe.py")):
        exec(compile(f"import random\nimport numpy as np\n{line}\n", probe,
                     "exec"), {})
        seen = calls[:]
        calls.clear()
        return seen, probe

    @pytest.mark.parametrize("line, name", [
        ("np.random.default_rng()", "numpy.random.default_rng"),
        ("np.random.default_rng(None)", "numpy.random.default_rng"),
        ("random.Random()", "random.Random"),
        ("np.random.rand(3)", "numpy.random.rand"),
        ("random.random()", "random.random"),
        # a seed that is None only at run time, and every import form
        ("seed = None; np.random.default_rng(seed)", "numpy.random.default_rng"),
        ("from numpy.random import default_rng; default_rng()",
         "numpy.random.default_rng"),
        ("import numpy.random as npr; npr.shuffle([1, 2])",
         "numpy.random.shuffle"),
        ("from random import shuffle; shuffle([1, 2])", "random.shuffle"),
        ("import numpy; numpy.random.normal()", "numpy.random.normal"),
        ("np.random.seed(0)", "numpy.random.seed"),
        ("np.random.RandomState()", "numpy.random.RandomState"),
        ("np.random.Generator(np.random.PCG64())", "numpy.random.PCG64"),
        ("np.random.SeedSequence(None)", "numpy.random.SeedSequence"),
        # every other seedable class, a None given by keyword, more draws
        ("np.random.SeedSequence()", "numpy.random.SeedSequence"),
        ("np.random.PCG64DXSM()", "numpy.random.PCG64DXSM"),
        ("np.random.MT19937()", "numpy.random.MT19937"),
        ("np.random.Philox(key=None)", "numpy.random.Philox"),
        ("np.random.SFC64()", "numpy.random.SFC64"),
        ("random.Random(None)", "random.Random"),
        ("np.random.RandomState(seed=None)", "numpy.random.RandomState"),
        ("np.random.default_rng(seed=None)", "numpy.random.default_rng"),
        ("np.random.randint(5)", "numpy.random.randint"),
        ("np.random.permutation(4)", "numpy.random.permutation"),
        ("random.choice([1, 2])", "random.choice"),
        ("random.getrandbits(8)", "random.getrandbits"),
    ])
    def test_the_watch_sees_an_unseeded_draw(self, line, name,
                                             unseeded_rng_calls):
        seen, probe = self._probe(line, unseeded_rng_calls)
        assert seen == [f"{name} from {probe}:3"]

    @pytest.mark.parametrize("line", [
        "np.random.default_rng(0)",
        "np.random.Generator(np.random.PCG64(1))",
        "random.Random(3)",
        "np.random.default_rng(seed=3).permutation(5)",
        "np.random.default_rng(np.random.SeedSequence(5))",
        "np.random.Philox(key=7)",
        "np.random.RandomState(4).rand(2)",
        "np.random.Generator(np.random.MT19937(5))",
        "np.random.SFC64(2)",
        "np.random.PCG64DXSM(seed=3)",
        "np.random.SeedSequence(entropy=9)",
        "np.random.default_rng([1, 2])",
        "random.Random(0).shuffle([1, 2])",
        # draws from a generator the caller passed in, and a parameter
        # that is named ``random`` but holds a seeded generator
        "f = lambda rng: rng.random(3); f(np.random.default_rng(0))",
        "f = lambda random: random.random(); f(random.Random(1))",
    ])
    def test_the_watch_ignores_a_seeded_construction(self, line,
                                                     unseeded_rng_calls):
        assert self._probe(line, unseeded_rng_calls)[0] == []

    def test_the_watch_sees_a_call_from_the_tests(self, unseeded_rng_calls):
        probe = os.path.join(call_watch.ROOTS[1], "probe.py")
        seen, _ = self._probe("np.random.rand(3)", unseeded_rng_calls, probe)
        assert seen == [f"numpy.random.rand from {probe}:3"]

    @pytest.mark.parametrize("where", ["numpy", "sibling"])
    def test_the_watch_ignores_a_call_from_elsewhere(self, where,
                                                     unseeded_rng_calls):
        """Third-party code (here, a file in numpy's directory) and a file
        beside the package whose name starts like it are not watched."""
        probe = (os.path.join(os.path.dirname(np.__file__), "probe.py")
                 if where == "numpy" else REPRO.rstrip(os.sep) + "_probe.py")
        assert self._probe("np.random.rand(3)", unseeded_rng_calls,
                           probe)[0] == []

    def test_a_recorded_call_fails_its_test(self):
        hook = call_watch.pytest_runtest_call(None)
        next(hook)
        call_watch.UNSEEDED.append("numpy.random.rand from probe.py:3")
        with pytest.raises(AssertionError,
                           match="numpy.random.rand from probe.py:3"):
            hook.send(None)
        assert call_watch.UNSEEDED == []

    def test_a_test_without_a_recorded_call_passes(self):
        hook = call_watch.pytest_runtest_call(None)
        next(hook)
        with pytest.raises(StopIteration) as stop:
            hook.send("result")
        assert stop.value.value == "result"

    @pytest.mark.parametrize("module, name", [
        (module, name) for module, names in SEEDABLE for name in names])
    def test_a_stand_in_keeps_isinstance_and_subclassing(self, module, name):
        cls = getattr(module, name)

        class Mine(cls):
            pass

        seeded = cls(1)
        assert type(seeded) is not cls and type(seeded).__name__ == name
        assert isinstance(seeded, cls) and not isinstance(object(), cls)
        assert issubclass(type(seeded), cls) and issubclass(Mine, cls)
        assert type(Mine(2)) is Mine and isinstance(Mine(2), cls)

    def test_classes_keep_isinstance_and_subclassing(self):
        class Mine(random.Random):
            pass

        assert isinstance(random.SystemRandom(), random.Random)
        assert isinstance(Mine(1), random.Random) and issubclass(Mine, random.Random)
        # the watch's stand-in builds instances of the class itself
        assert type(random.Random(2)) is random.SystemRandom.__base__
        assert isinstance(np.random.RandomState(0), np.random.RandomState)
        assert isinstance(np.random.default_rng(0).bit_generator, np.random.PCG64)

    @pytest.mark.parametrize("mid", RULE_KILLED)
    def test_the_watch_sees_a_census_mutant(self, mid, monkeypatch, capsys,
                                            unseeded_rng_calls):
        """The run-time twin of the retired rule on its census rows: the
        mutant, seeded into today's source of its module and run by its
        row's witness, is recorded at the mutated line."""
        assert RULE_KILLED
        m = next(m for m in CENSUS.MUTANTS if m["id"] == mid)
        name = CENSUS.module_name(m["path"])
        path = os.path.join(REPRO, *name.split(".")[1:]) + ".py"
        src = pathlib.Path(path).read_text()
        assert src.count(m["old"]) == 1, f"{mid}: the mutated text moved"
        line = src[: src.index(m["old"])].count("\n") + 1
        real = importlib.import_module(name)
        pkg = sys.modules[name.rpartition(".")[0]]
        mutant = types.ModuleType(name)
        mutant.__file__, mutant.__package__ = path, pkg.__name__
        monkeypatch.setitem(sys.modules, name, mutant)
        exec(compile(src.replace(m["old"], m["new"]), path, "exec"),
             vars(mutant))
        for attr, value in list(vars(pkg).items()):
            if value is real:
                monkeypatch.setattr(pkg, attr, mutant)
            elif getattr(real, attr, None) is value:
                monkeypatch.setattr(pkg, attr, getattr(mutant, attr))
        exec(m["witness"], {})
        seen = unseeded_rng_calls[:]
        unseeded_rng_calls.clear()
        assert f"numpy.random.default_rng from {path}:{line}" in seen, seen


class TestHashSeed:
    """Sets and dicts of strings iterate in an order that follows
    ``PYTHONHASHSEED``; where such an order reached a factor, a tally, a
    message or a virtual time, a fresh interpreter under another seed
    would disagree with this one."""

    @pytest.fixture(scope="class")
    def other_seed(self):
        seed = "1" if os.environ.get("PYTHONHASHSEED") == "987654" else "987654"
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(ROOT / "src"),
                                     os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-m", "tests.test_determinism"], cwd=ROOT,
            env=env, capture_output=True, text=True, timeout=600, check=True,
        )
        return json.loads(out.stdout)

    def test_every_scenario_ran(self, other_seed):
        assert sorted(other_seed) == sorted(HASHED)

    @pytest.mark.parametrize("scenario", HASHED)
    def test_same_bits_under_another_hash_seed(self, scenario, other_seed):
        here = json.loads(json.dumps(SCENARIOS[scenario]()))
        assert here == other_seed[scenario]


class TestMulticastOrder:
    """A multicast is sequential puts, each charging the sender one
    latency, so its destination order sets the arrival times.  The codes
    post in ascending rank order; at 16 ranks a set of ranks iterates in
    another order, so a destination list built from one shows here."""

    @pytest.mark.parametrize("method", list(DRIVERS))
    def test_destinations_ascend(self, method):
        p = prepare_pipeline(MATRIX)
        tracer = Tracer()
        factorize(method, p["om"].A, p["part"], p["bstruct"], 16, T3E,
                  sim_opts={"tracer": tracer})
        posts = {}
        for rec in tracer.messages:
            posts.setdefault((rec.src, rec.tag), []).append(rec)
        multicasts = 0
        for recs in posts.values():
            if len(recs) < 2:
                continue
            multicasts += 1
            recs.sort(key=lambda r: r.seq)
            dests = [r.dest for r in recs]
            assert dests == sorted(dests), (recs[0].src, recs[0].tag, dests)
        assert multicasts > 0


if __name__ == "__main__":
    print(json.dumps(fingerprints()))
