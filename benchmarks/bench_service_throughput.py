"""Serving-layer throughput — cold factor vs cached refactor vs batched RHS.

Not a paper table: this quantifies what the PR's serving layer buys on the
paper's test matrices.  Three effects are measured in wall-clock time:

* **amortization** — a cold ``factor`` pays the full George-Ng analyze
  phase (transversal, ordering, symbolic, partition) on every call; a
  cache-hit ``refactor`` of a same-pattern matrix pays only the numeric
  Factor/Update sweep.  The ratio is *reported*, and gated only at
  ``> 1``: it shrinks whenever the analysis gets cheaper (3.2-4.2x when
  the layer was written, 2.5-3.1x after PR 12, lower again after PR 23),
  so a fixed floor fails for the wrong reason.  What is gated is the
  mechanism: a warm ``refactor`` makes **zero** calls to
  ``prepare_matrix`` / ``static_symbolic_factorization`` (counted by
  monkeypatch; the cold ``factor`` next to it must be seen making them).
* **multi-RHS batching** — one ``solve`` of an ``(n, k)`` block against
  ``k`` sequential vector solves (BLAS-3 vs repeated BLAS-2 sweeps over
  the factor blocks).
* **bit-fidelity** — warm refactors must be bit-identical to cold
  factors of the same values, otherwise the cache would silently change
  answers.

Rows land in ``benchmarks/results/BENCH_service_throughput.json``.
"""

import importlib
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import print_table, save_results
from repro.api import SStarSolver
from repro.matrices import get_matrix
from repro.service import AnalysisCache

MATRICES = ["sherman5", "jpwh991", "orsreg1"]
REPEATS = 3
NRHS = 8


def _perturbed(A, rng, rel=0.05):
    return A.with_values(A.data * (1.0 + rel * rng.uniform(-1.0, 1.0, A.nnz)))


#: every name the analyze phase's two entry points are looked up under
ANALYSIS_ENTRY_POINTS = (
    ("repro.ordering", "prepare_matrix"),
    ("repro.symbolic", "static_symbolic_factorization"),
    ("repro.numfact.sequential", "static_symbolic_factorization"),
)


@contextmanager
def counted_analysis_calls():
    """Count calls to the analysis entry points while the block runs."""
    calls = Counter()
    with pytest.MonkeyPatch.context() as mp:
        for modname, attr in ANALYSIS_ENTRY_POINTS:
            mod = importlib.import_module(modname)

            def counting(*args, _real=getattr(mod, attr), _attr=attr, **kwargs):
                calls[_attr] += 1
                return _real(*args, **kwargs)

            mp.setattr(mod, attr, counting)
        yield calls


def _bitwise_equal(a, b):
    return (
        set(a.blocks) == set(b.blocks)
        and a.pivot_seq == b.pivot_seq
        and all(np.array_equal(a.blocks[k], b.blocks[k]) for k in a.blocks)
    )


@pytest.fixture(scope="module")
def service_rows():
    rows = []
    for name in MATRICES:
        A = get_matrix(name, "small")
        rng = np.random.default_rng(0)
        cache = AnalysisCache()
        SStarSolver(analysis_cache=cache).factor(A)  # prime the cache

        t_cold = t_warm = t_analyze = 0.0
        for _ in range(REPEATS):
            Ai = _perturbed(A, rng)
            t0 = time.perf_counter()
            cold = SStarSolver().factor(Ai)
            t_cold += time.perf_counter() - t0
            t0 = time.perf_counter()
            warm = SStarSolver(analysis_cache=cache).refactor(Ai)
            t_warm += time.perf_counter() - t0
            assert warm.report.analysis_reused
            assert _bitwise_equal(cold.factorization.matrix,
                                  warm.factorization.matrix)
        t_cold /= REPEATS
        t_warm /= REPEATS

        with counted_analysis_calls() as calls:
            SStarSolver().factor(Ai)
            cold_calls = dict(calls)
            calls.clear()
            SStarSolver(analysis_cache=cache).refactor(Ai)
            warm_calls = sum(calls.values())
        # the whole cold-vs-warm gap is analyze work the cache skipped
        t_analyze = t_cold - t_warm

        solver = SStarSolver(analysis_cache=cache).refactor(A)
        B = rng.uniform(-1.0, 1.0, (A.nrows, NRHS))
        t0 = time.perf_counter()
        for j in range(NRHS):
            solver.solve(B[:, j])
        t_seq = time.perf_counter() - t0
        t0 = time.perf_counter()
        X = solver.solve(B)
        t_blk = time.perf_counter() - t0
        assert X.shape == (A.nrows, NRHS)

        rows.append({
            "matrix": name,
            "n": A.nrows,
            "nnz": A.nnz,
            "cold_factor_s": t_cold,
            "warm_refactor_s": t_warm,
            "analyze_s": t_analyze,
            "amortization": t_cold / t_warm,
            "cold_prepare_matrix_calls": cold_calls.get("prepare_matrix", 0),
            "cold_symbolic_calls": cold_calls.get("static_symbolic_factorization", 0),
            "warm_analysis_calls": warm_calls,
            "nrhs": NRHS,
            "seq_solves_s": t_seq,
            "block_solve_s": t_blk,
            "multirhs_speedup": t_seq / t_blk,
        })
    return rows


def test_service_throughput_report(service_rows):
    header = ["matrix", "n", "cold (s)", "warm (s)", "amort",
              f"{NRHS} solves (s)", "block (s)", "mRHS"]
    rows = [
        (
            r["matrix"], r["n"], f"{r['cold_factor_s']:.4g}",
            f"{r['warm_refactor_s']:.4g}", f"{r['amortization']:.1f}x",
            f"{r['seq_solves_s']:.4g}", f"{r['block_solve_s']:.4g}",
            f"{r['multirhs_speedup']:.1f}x",
        )
        for r in service_rows
    ]
    print_table("Serving layer: refactor amortization and multi-RHS batching",
                header, rows)
    save_results("service_throughput", service_rows)

    for r in service_rows:
        # acceptance: a cached refactor runs no analysis at all (and the
        # counter is live: the cold factor is seen running both phases), it
        # is therefore cheaper than a cold factor, and a block solve beats k
        # sequential solves.  (analysis_reused and bit-equal factors are
        # asserted per repeat in the fixture.)
        assert r["cold_prepare_matrix_calls"] == r["cold_symbolic_calls"] == 1, r
        assert r["warm_analysis_calls"] == 0, r
        assert r["amortization"] > 1.0, (
            f"{r['matrix']}: warm refactor no cheaper than a cold factor "
            f"({r['amortization']:.2f}x)"
        )
        assert r["multirhs_speedup"] > 1.0, (
            f"{r['matrix']}: block solve no faster than "
            f"{r['nrhs']} sequential solves"
        )


def test_bench_warm_refactor(benchmark):
    A = get_matrix("sherman5", "small")
    cache = AnalysisCache()
    SStarSolver(analysis_cache=cache).factor(A)
    rng = np.random.default_rng(1)
    Ai = _perturbed(A, rng)

    def run():
        return SStarSolver(analysis_cache=cache).refactor(Ai)

    solver = benchmark.pedantic(run, rounds=2, iterations=1)
    assert solver.report.analysis_reused
