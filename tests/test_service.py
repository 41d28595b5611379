"""The serving layer: structure cache, numeric refactorization, multi-RHS
batching and the SolveService job-queue front end."""

import numpy as np
import pytest

import repro.ordering
import repro.supernodes
import repro.symbolic
from repro.api import SStarSolver
from repro.machine import DeliveryError, FaultPlan, ReliableDelivery
from repro.matrices import get_matrix, random_nonsymmetric
from repro.service import (
    AnalysisCache,
    ServiceOverloadError,
    SolveService,
    analyze,
    pattern_key,
    values_key,
)
from repro.sparse import csr_matvec


def perturbed(A, seed=0, rel=0.05):
    """Same pattern, jittered values, fresh arrays."""
    rng = np.random.default_rng(seed)
    return A.with_values(A.data * (1.0 + rel * rng.uniform(-1.0, 1.0, A.nnz)))


def factors_bitwise_equal(lu1, lu2):
    m1, m2 = lu1.matrix, lu2.matrix
    return (
        set(m1.blocks) == set(m2.blocks)
        and m1.pivot_seq == m2.pivot_seq
        and all(np.array_equal(m1.blocks[k], m2.blocks[k]) for k in m1.blocks)
    )


@pytest.fixture(scope="module")
def A():
    return get_matrix("jpwh991", "small")


class TestPatternKey:
    def test_values_do_not_matter(self, A):
        assert pattern_key(A) == pattern_key(perturbed(A, seed=3))

    def test_structure_does_matter(self, A):
        B = random_nonsymmetric(A.nrows, density=0.03, seed=1)
        assert pattern_key(A) != pattern_key(B)

    def test_values_key_distinguishes_values(self, A):
        A2 = perturbed(A, seed=3)
        assert values_key(A) != values_key(A2)
        assert values_key(A2) == values_key(perturbed(A, seed=3))


class TestAnalysisCache:
    def test_hit_miss_accounting(self, A):
        cache = AnalysisCache()
        art, _ = analyze(A)
        assert cache.get("k") is None
        cache.put("k", art)
        assert cache.get("k") is art
        s = cache.stats
        assert (s.hits, s.misses, s.entries) == (1, 1, 1)
        assert s.hit_rate == 0.5
        assert s.bytes > 0

    def test_lru_eviction_by_entries(self, A):
        cache = AnalysisCache(max_entries=2)
        art, _ = analyze(A)
        cache.put("a", art)
        cache.put("b", art)
        cache.get("a")  # refresh a: b becomes LRU
        cache.put("c", art)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def test_eviction_by_bytes(self, A):
        art, _ = analyze(A)
        cache = AnalysisCache(max_entries=10, max_bytes=int(art.nbytes * 1.5))
        cache.put("a", art)
        cache.put("b", art)
        assert len(cache) == 1 and cache.stats.evictions == 1

    def test_byte_bounded_eviction_sequence_pinned(self):
        """Three artifacts under a byte bound that holds the two smaller
        ones with 3.5 % to spare: a size model drifting by more than that
        changes which put evicts what."""
        from repro.matrices import dense_matrix, nearly_dense_row

        arts = {
            "s": analyze(dense_matrix(40))[0],
            "m": analyze(random_nonsymmetric(80, density=0.08, seed=3))[0],
            "l": analyze(nearly_dense_row(120, seed=2))[0],
        }
        assert [a.nbytes for a in arts.values()] == [15239, 46599, 53743]
        cache = AnalysisCache(max_entries=10, max_bytes=64000)
        history = []
        for key in ("s", "m", "l", "s"):
            cache.put(key, arts[key])
            resident = [k for k in arts if k in cache]
            stats = cache.stats
            assert stats.bytes == sum(arts[k].nbytes for k in resident)
            history.append(("".join(resident), stats.evictions))
        assert history == [("s", 0), ("sm", 0), ("l", 2), ("s", 3)]

    def test_last_entry_never_evicted_by_bytes(self, A):
        art, _ = analyze(A)
        cache = AnalysisCache(max_entries=10, max_bytes=1)
        cache.put("a", art)
        assert "a" in cache  # a byte bound smaller than any entry keeps one

    def test_invalidate(self, A):
        cache = AnalysisCache()
        art, _ = analyze(A)
        cache.put("k", art)
        assert cache.invalidate("k") and not cache.invalidate("k")
        assert cache.stats.invalidations == 1

    def test_artifacts_reorder_matches_prepare_matrix(self, A):
        art, om = analyze(A)
        A2 = perturbed(A, seed=9)
        om2 = art.order(A2)
        ref = repro.ordering.prepare_matrix(A2)
        assert np.array_equal(om2.row_perm, ref.row_perm)
        assert np.array_equal(om2.col_perm, ref.col_perm)
        assert np.array_equal(om2.A.indptr, ref.A.indptr)
        assert np.array_equal(om2.A.indices, ref.A.indices)
        assert np.array_equal(om2.A.data, ref.A.data)


class TestRefactor:
    def test_skips_analyze_phase_entirely(self, A, monkeypatch):
        """Call-count proof: a cache-hit refactor never reaches the
        transversal, ordering, symbolic or partition stages."""
        calls = {"prepare": 0, "symbolic": 0, "partition": 0}
        real_prepare = repro.ordering.prepare_matrix
        real_symbolic = repro.symbolic.static_symbolic_factorization
        real_partition = repro.supernodes.build_partition

        def count(name, fn):
            def wrapper(*a, **k):
                calls[name] += 1
                return fn(*a, **k)
            return wrapper

        monkeypatch.setattr(
            repro.ordering, "prepare_matrix", count("prepare", real_prepare)
        )
        monkeypatch.setattr(
            repro.symbolic, "static_symbolic_factorization",
            count("symbolic", real_symbolic),
        )
        monkeypatch.setattr(
            repro.supernodes, "build_partition",
            count("partition", real_partition),
        )

        cache = AnalysisCache()
        SStarSolver(analysis_cache=cache).factor(A)
        assert calls == {"prepare": 1, "symbolic": 1, "partition": 1}
        SStarSolver(analysis_cache=cache).refactor(perturbed(A, seed=1))
        assert calls == {"prepare": 1, "symbolic": 1, "partition": 1}

    def test_bit_identical_to_cold_factor(self, A):
        cache = AnalysisCache()
        SStarSolver(analysis_cache=cache).factor(A)
        A2 = perturbed(A, seed=2)
        warm = SStarSolver(analysis_cache=cache).refactor(A2)
        cold = SStarSolver().factor(A2)
        assert warm.report.analysis_reused
        assert not cold.report.analysis_reused
        assert factors_bitwise_equal(warm.factorization, cold.factorization)
        b = np.sin(np.arange(A.nrows, dtype=np.float64))
        assert np.array_equal(warm.solve(b), cold.solve(b))

    def test_refactor_without_cache_reuses_own_analysis(self, A):
        solver = SStarSolver()
        solver.factor(A)
        solver.refactor(perturbed(A, seed=4))
        assert solver.report.analysis_reused

    def test_refactor_unknown_pattern_falls_back_to_full_analysis(self, A):
        cache = AnalysisCache()
        solver = SStarSolver(analysis_cache=cache).refactor(A)
        assert not solver.report.analysis_reused
        assert len(cache) == 1  # ...and populates the cache
        assert SStarSolver(analysis_cache=cache).refactor(
            perturbed(A, seed=5)
        ).report.analysis_reused

    def test_pattern_change_is_not_reused(self, A):
        solver = SStarSolver()
        solver.factor(A)
        B = random_nonsymmetric(60, density=0.1, seed=8)
        solver.refactor(B)
        assert not solver.report.analysis_reused
        b = np.ones(60)
        x = solver.solve(b)
        assert np.linalg.norm(csr_matvec(B, x) - b) < 1e-8

    def test_block_params_part_of_cache_key(self, A):
        cache = AnalysisCache()
        SStarSolver(analysis_cache=cache, block_size=25).factor(A)
        s = SStarSolver(analysis_cache=cache, block_size=10).refactor(A)
        assert not s.report.analysis_reused
        assert len(cache) == 2

    def test_growth_signal_invalidates_cache(self, A):
        # growth_limit=0 makes any monitored factorization look broken
        cache = AnalysisCache()
        SStarSolver(analysis_cache=cache).factor(A)
        assert len(cache) == 1
        SStarSolver(analysis_cache=cache, growth_limit=0.0).refactor(
            perturbed(A, seed=6)
        )
        assert len(cache) == 0
        assert cache.stats.invalidations == 1

    def test_perturbation_invalidates_cache(self):
        # column 0's only entry is tiny, so even partial pivoting must
        # take it; under perturb=True that perturbs and invalidates
        D = np.array(
            [[1e-30, 1.0, 0.0],
             [0.0, 2.0, 1.0],
             [0.0, 0.0, 3.0]]
        )
        cache = AnalysisCache()
        solver = SStarSolver(perturb=True, analysis_cache=cache)
        solver.factor(D)
        assert solver.report.perturbed_pivots > 0
        assert len(cache) == 0

    def test_parallel_refactor_matches_cold(self, A):
        cache = AnalysisCache()
        opts = dict(method="1d-ca", nprocs=4)
        SStarSolver(analysis_cache=cache, **opts).factor(A)
        A2 = perturbed(A, seed=7)
        warm = SStarSolver(analysis_cache=cache, **opts).refactor(A2)
        cold = SStarSolver(**opts).factor(A2)
        assert warm.report.analysis_reused
        assert factors_bitwise_equal(warm.factorization, cold.factorization)


class TestMultiRHSSolve:
    def test_shapes_accepted_uniformly(self, A):
        solver = SStarSolver().factor(A)
        n = A.nrows
        b = np.cos(np.arange(n, dtype=np.float64))
        x1 = solver.solve(b)
        x2 = solver.solve(b[:, None])
        B = np.column_stack([b, 2.0 * b, b - 1.0])
        X = solver.solve(B)
        assert x1.shape == (n,) and x2.shape == (n, 1) and X.shape == (n, 3)
        assert np.array_equal(x1, x2[:, 0])
        for j in range(3):
            assert np.allclose(X[:, j], solver.solve(B[:, j]))

    def test_block_solve_residuals(self, A):
        solver = SStarSolver().factor(A)
        rng = np.random.default_rng(11)
        B = rng.uniform(-1, 1, (A.nrows, 5))
        X = solver.solve(B)
        for j in range(5):
            r = csr_matvec(A, X[:, j]) - B[:, j]
            assert np.linalg.norm(r) / np.linalg.norm(B[:, j]) < 1e-10

    def test_bad_shape_reports_received_shape(self, A):
        solver = SStarSolver().factor(A)
        with pytest.raises(ValueError, match=r"got \(3,\)"):
            solver.solve(np.ones(3))
        with pytest.raises(ValueError, match="rhs"):
            solver.solve(np.ones((2, 2, 2)))

    def test_refined_block_solve(self):
        D = np.array(
            [[1e-30, 1.0, 0.0],
             [0.0, 1.0, 1.0],
             [1.0, 0.0, 1e-30]]
        )
        solver = SStarSolver(perturb=True, refine="always", refine_tol=1e-8)
        solver.factor(D)
        B = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.0]])
        X = solver.solve(B)
        assert X.shape == (3, 2)
        assert np.max(np.abs(D @ X - B)) < 1e-6
        assert len(solver.refine_history) == 2  # one history per column


class TestSolveService:
    def _workload(self, A, jobs=6, seed=0, nrhs=1):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(jobs):
            Ai = perturbed(A, seed=100 + i // 2)  # pairs share values
            b = (rng.uniform(-1, 1, A.nrows) if nrhs == 1
                 else rng.uniform(-1, 1, (A.nrows, nrhs)))
            out.append((Ai, b))
        return out

    @pytest.mark.parametrize("opts, message", [
        ({"workers": 0}, "workers"),
        ({"max_queue": 0}, "max_queue"),
        ({"max_batch": 0}, "max_batch"),
        ({"max_retries": -1}, "max_retries"),
        ({"inter_arrival": -1.0}, "inter_arrival"),
        ({"inter_arrival": float("nan")}, "inter_arrival"),
        ({"inter_arrival": float("inf")}, "inter_arrival"),
    ])
    def test_constructor_rejects_hostile_values(self, opts, message):
        with pytest.raises(ValueError, match=message):
            SolveService(**opts)

    def test_submit_poll_result(self, A):
        svc = SolveService(workers=2, max_queue=8)
        jid = svc.submit(A, np.ones(A.nrows))
        assert svc.poll(jid) == "pending"
        x = svc.result(jid)
        assert svc.poll(jid) == "done"
        assert np.linalg.norm(csr_matvec(A, x) - np.ones(A.nrows)) < 1e-8

    def test_results_match_direct_solver(self, A):
        svc = SolveService(workers=3, max_queue=16)
        work = self._workload(A, jobs=6)
        ids = [svc.submit(Ai, b) for Ai, b in work]
        svc.drain()
        for jid, (Ai, b) in zip(ids, work):
            ref = SStarSolver().factor(Ai).solve(b)
            assert np.allclose(svc.job(jid).x, ref, atol=1e-12)

    def test_cache_amortizes_across_jobs(self, A):
        svc = SolveService(workers=2, max_queue=16, max_batch=1)
        for Ai, b in self._workload(A, jobs=6):
            svc.submit(Ai, b)
        svc.drain()
        m = svc.metrics()
        # one miss for the first job, hits for the other five
        assert m.cache_misses == 1 and m.cache_hits == 5
        assert m.cache_hit_rate == pytest.approx(5 / 6)

    def test_backpressure_raises_not_deadlocks(self, A):
        svc = SolveService(workers=1, max_queue=2)
        svc.submit(A, np.ones(A.nrows))
        svc.submit(A, np.ones(A.nrows))
        with pytest.raises(ServiceOverloadError) as ei:
            svc.submit(A, np.ones(A.nrows))
        assert ei.value.queue_depth == 2 and ei.value.max_queue == 2
        svc.drain()  # queue drains; admission reopens
        jid = svc.submit(A, np.ones(A.nrows))
        svc.result(jid)
        assert svc.metrics().jobs_rejected == 1

    def test_adjacent_same_system_jobs_batch(self, A):
        svc = SolveService(workers=1, max_queue=16, max_batch=4)
        A1 = perturbed(A, seed=50)
        b = np.arange(A.nrows, dtype=np.float64)
        ids = [svc.submit(A1, b + i) for i in range(4)]
        svc.drain()
        m = svc.metrics()
        assert m.batches == 1 and m.batched_jobs == 4
        for i, jid in enumerate(ids):
            job = svc.job(jid)
            assert job.batch_size == 4
            assert np.linalg.norm(csr_matvec(A1, job.x) - (b + i)) < 1e-8

    def test_batch_respects_column_budget_and_values(self, A):
        svc = SolveService(workers=1, max_queue=16, max_batch=2)
        A1, A2 = perturbed(A, seed=51), perturbed(A, seed=52)
        b = np.ones(A.nrows)
        for Ai in (A1, A1, A1, A2):
            svc.submit(Ai, b)
        svc.drain()
        m = svc.metrics()
        # max_batch=2 splits the three A1 jobs 2+1; A2 runs alone
        assert m.batches == 3
        assert m.batched_jobs == 2

    def test_deterministic_metrics_and_results(self, A):
        def run():
            svc = SolveService(workers=2, max_queue=16, inter_arrival=1e-4)
            ids = [svc.submit(Ai, b) for Ai, b in self._workload(A, jobs=6)]
            svc.drain()
            return (
                [svc.job(j).x.tobytes() for j in ids],
                svc.metrics().as_dict(),
            )

        xs1, m1 = run()
        xs2, m2 = run()
        assert xs1 == xs2
        assert m1 == m2

    def test_retry_on_delivery_error_then_success(self, A):
        opts = dict(
            method="1d-ca", nprocs=4,
            faults=FaultPlan.drops(1.0, seed=3),
            reliable=ReliableDelivery(max_attempts=2),
        )
        svc = SolveService(workers=1, max_queue=4, max_retries=1,
                           solver_opts=opts)
        jid = svc.submit(A, np.ones(A.nrows))
        x = svc.result(jid)  # first attempt dies, clean-network retry lands
        assert np.linalg.norm(csr_matvec(A, x) - np.ones(A.nrows)) < 1e-8
        m = svc.metrics()
        assert m.retries == 1 and m.jobs_failed == 0
        assert svc.job(jid).attempts == 2

    def test_retries_exhausted_marks_failed(self, A):
        opts = dict(
            method="1d-ca", nprocs=4,
            faults=FaultPlan.drops(1.0, seed=3),
            reliable=ReliableDelivery(max_attempts=2),
        )
        svc = SolveService(workers=1, max_queue=4, max_retries=0,
                           solver_opts=opts)
        jid = svc.submit(A, np.ones(A.nrows))
        with pytest.raises(DeliveryError):
            svc.result(jid)
        assert svc.poll(jid) == "failed"
        m = svc.metrics()
        assert m.jobs_failed == 1 and m.retries == 0

    def test_parallel_jobs_report_virtual_latency(self, A):
        svc = SolveService(workers=2, max_queue=8,
                           solver_opts=dict(method="2d", nprocs=4))
        ids = [svc.submit(perturbed(A, seed=60 + i), np.ones(A.nrows))
               for i in range(2)]
        svc.drain()
        m = svc.metrics()
        assert m.jobs_completed == 2
        assert 0.0 < m.latency_p50 <= m.latency_p95
        assert m.throughput_jobs_per_s > 0.0
        for jid in ids:
            assert svc.job(jid).finish > svc.job(jid).start
