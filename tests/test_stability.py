"""Stability diagnostics: growth factors, backward error, refinement,
threshold pivoting."""

import numpy as np
import pytest

from repro import SStarSolver
from repro.analysis import (
    backward_error,
    factor_max_element,
    growth_factor,
    iterative_refinement,
)
from repro.matrices import random_nonsymmetric
from repro.sparse import csr_matvec, dense_to_csr


class TestBackwardError:
    def test_exact_solution_zero_error(self):
        A = random_nonsymmetric(30, density=0.15, seed=1)
        s = SStarSolver().factor(A)
        b = csr_matvec(A, np.ones(30))
        x = s.solve(b)
        assert backward_error(A, x, b) < 1e-13

    def test_wrong_solution_large_error(self):
        A = random_nonsymmetric(20, density=0.2, seed=2)
        b = np.ones(20)
        assert backward_error(A, np.zeros(20), b) > 0.5

    def test_zero_rhs_zero_solution(self):
        A = random_nonsymmetric(10, density=0.3, seed=3)
        assert backward_error(A, np.zeros(10), np.zeros(10)) == 0.0


class TestGrowthFactor:
    def test_gepp_growth_is_modest(self):
        A = random_nonsymmetric(40, density=0.15, seed=4)
        s = SStarSolver().factor(A)
        g = growth_factor(A, factor_max_element(s.factorization))
        assert 0 < g < 100  # GEPP growth is small in practice

    def test_threshold_pivoting_can_grow_more(self):
        """Relaxing u can only increase (or keep) the element growth."""
        A = random_nonsymmetric(40, density=0.15, seed=5)
        g_full = growth_factor(
            A, factor_max_element(SStarSolver().factor(A).factorization)
        )
        g_loose = growth_factor(
            A,
            factor_max_element(
                SStarSolver(pivot_threshold=0.01).factor(A).factorization
            ),
        )
        assert g_loose >= g_full * 0.999


class TestIterativeRefinement:
    def test_converges_to_roundoff(self):
        A = random_nonsymmetric(50, density=0.1, seed=6)
        s = SStarSolver().factor(A)
        rng = np.random.default_rng(0)
        b = rng.uniform(-1, 1, 50)
        x, history = iterative_refinement(A, s.solve, b)
        assert history[-1] < 1e-13
        assert len(history) >= 1

    def test_improves_threshold_pivoted_solution(self):
        """Refinement repairs the accuracy lost to loose threshold pivoting."""
        A = random_nonsymmetric(60, density=0.12, seed=7)
        s = SStarSolver(pivot_threshold=0.05).factor(A)
        rng = np.random.default_rng(1)
        b = rng.uniform(-1, 1, 60)
        x, history = iterative_refinement(A, s.solve, b)
        assert history[-1] <= history[0]
        assert history[-1] < 1e-12

    def test_refines_a_backward_error_just_above_tolerance(self):
        # a crafted solve whose first answer is off by a relative 1e-13:
        # its backward error lies between the default tol=1e-14 and ten
        # times that, so exactly one refinement step must follow
        A = dense_to_csr(np.eye(2))
        b = np.array([1.0, 2.0])
        calls = []

        def solve(rhs):
            calls.append(rhs)
            return rhs * (1.0 + 1e-13) if len(calls) == 1 else rhs.copy()

        x, history = iterative_refinement(A, solve, b)
        assert 1e-14 < history[0] < 1e-13
        assert len(history) == 2 and len(calls) == 2
        assert history[1] <= 1e-14
        assert np.array_equal(x, b)

    def test_history_monotone_until_stagnation(self):
        A = random_nonsymmetric(40, density=0.1, seed=8)
        s = SStarSolver().factor(A)
        b = np.ones(40)
        _, history = iterative_refinement(A, s.solve, b, max_iters=3)
        assert min(history) == history[-1] or history[-1] < 1e-13


class TestThresholdPivoting:
    def test_u_one_is_partial_pivoting(self):
        A = random_nonsymmetric(50, density=0.1, seed=9)
        s1 = SStarSolver().factor(A)
        s2 = SStarSolver(pivot_threshold=1.0).factor(A)
        b = np.ones(50)
        assert np.array_equal(s1.solve(b), s2.solve(b))

    def test_small_u_reduces_interchanges(self):
        A = random_nonsymmetric(80, density=0.08, seed=10)
        full = SStarSolver().factor(A).factorization.num_interchanges()
        loose = (
            SStarSolver(pivot_threshold=0.01).factor(A).factorization.num_interchanges()
        )
        assert loose <= full

    def test_solution_still_accurate(self):
        A = random_nonsymmetric(60, density=0.1, seed=11)
        s = SStarSolver(pivot_threshold=0.1).factor(A)
        b = np.arange(60.0)
        x = s.solve(b)
        assert backward_error(A, x, b) < 1e-10

    def test_invalid_threshold_rejected(self):
        A = random_nonsymmetric(20, density=0.2, seed=12)
        with pytest.raises(ValueError, match="threshold"):
            SStarSolver(pivot_threshold=0.0).factor(A)
        with pytest.raises(ValueError, match="threshold"):
            SStarSolver(pivot_threshold=1.5).factor(A)

    @pytest.mark.parametrize("u", [0.1, 0.5])
    @pytest.mark.parametrize("method", ["1d-rapid", "2d"])
    def test_parallel_codes_match_sequential_under_threshold(self, u, method):
        A = random_nonsymmetric(60, density=0.08, seed=13)
        ref = SStarSolver(pivot_threshold=u).factor(A)
        par = SStarSolver(pivot_threshold=u, nprocs=4, method=method).factor(A)
        b = np.ones(60)
        assert np.array_equal(ref.solve(b), par.solve(b))

    def test_diagonally_dominant_needs_no_interchanges(self):
        rng = np.random.default_rng(3)
        D = rng.uniform(-0.5, 0.5, (30, 30)) + 40 * np.eye(30)
        A = dense_to_csr(D)
        s = SStarSolver(pivot_threshold=0.5).factor(A)
        assert s.factorization.num_interchanges() == 0
