"""Run-time twins of the retired determinism rules: the runs read no host
clock, do not move with the string-hash seed, and multicast in rank order.

``repro lint`` once flagged wall-clock reads (D104) and iteration over
sets and set-keyed dicts feeding numerics or message order (D101, D102,
D106) by reading the source; the mutation census in DESIGN "Static
analysis" retired those rules because the goldens catch their mutants.
These tests check the same three properties on the running code, at the
entry points the rules guarded, so a failure names the property rather
than a digest:

* ``TestNoHostClock`` — no ``time`` clock is read from ``repro`` code
  during an analysis, a factorization under every driver, a distributed
  solve, a service drain or a tuner search;
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
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.api.fixtures import prepare_pipeline
from repro.machine import T3E
from repro.matrices import get_matrix
from repro.numfact import sstar_factor
from repro.obs import Tracer, to_chrome_trace
from repro.parallel import DRIVERS, factorize, run_1d_trisolve
from repro.service import SolveService
from repro.tune import Tuner

from .test_analysis_golden import analysis_digests

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: the directory of the package under test: reads from its files count
REPRO = os.path.dirname(repro.__file__)
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

        def watch(name, clock):
            def read():
                caller = sys._getframe(1).f_code.co_filename
                if caller.startswith(REPRO):
                    reads.append(f"time.{name} from {caller}")
                return clock()
            return read

        for name in CLOCKS:
            clock = getattr(time, name, None)
            if clock is not None:
                monkeypatch.setattr(time, name, watch(name, clock))
        return reads

    def test_the_watch_sees_a_read(self, clock_reads):
        exec(compile("import time\ntime.perf_counter()\n",
                     os.path.join(REPRO, "probe.py"), "exec"), {})
        assert clock_reads == [
            f"time.perf_counter from {os.path.join(REPRO, 'probe.py')}"]

    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_run_reads_no_clock(self, scenario, clock_reads):
        SCENARIOS[scenario]()
        assert clock_reads == []


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
