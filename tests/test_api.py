"""The SStarSolver facade."""

import numpy as np
import pytest

from repro import SStarSolver
from repro.matrices import get_matrix, random_nonsymmetric
from repro.sparse import csr_matvec, csr_to_dense


class TestSequential:
    def test_factor_solve_original_coordinates(self):
        A = random_nonsymmetric(70, density=0.06, seed=41, zero_free_diagonal=False)
        # ensure structural nonsingularity by adding a diagonal
        A = random_nonsymmetric(70, density=0.06, seed=41)
        s = SStarSolver().factor(A)
        b = np.linspace(1, 2, 70)
        x = s.solve(b)
        assert np.linalg.norm(csr_matvec(A, x) - b) / np.linalg.norm(b) < 1e-9

    def test_dense_input(self, rng):
        D = rng.uniform(-1, 1, (30, 30)) + 4 * np.eye(30)
        s = SStarSolver().factor(D)
        b = rng.uniform(-1, 1, 30)
        x = s.solve(b)
        assert np.allclose(D @ x, b)

    def test_report_populated(self):
        A = get_matrix("jpwh991", "small")
        s = SStarSolver().factor(A)
        r = s.report
        assert r.n == A.nrows
        assert r.factor_entries >= A.nnz * 0.5
        assert r.flops > 0
        assert 0 <= r.dgemm_fraction <= 1
        assert r.parallel_seconds is None

    def test_solve_before_factor_raises(self):
        with pytest.raises(RuntimeError, match="factor"):
            SStarSolver().solve(np.ones(3))

    def test_bad_input_type(self):
        with pytest.raises(TypeError):
            SStarSolver().factor([[1, 2], [3, 4]])

    def test_solution_matches_dense_reference(self):
        A = get_matrix("orsreg1", "small")
        s = SStarSolver().factor(A)
        D = csr_to_dense(A)
        b = np.ones(A.nrows)
        assert np.allclose(s.solve(b), np.linalg.solve(D, b), rtol=1e-7, atol=1e-9)


class TestParallelMethods:
    @pytest.mark.parametrize("method", ["1d-rapid", "1d-ca", "2d", "2d-sync"])
    def test_all_methods_agree(self, method):
        A = random_nonsymmetric(60, density=0.08, seed=43)
        ref = SStarSolver().factor(A)
        par = SStarSolver(nprocs=4, method=method).factor(A)
        b = np.arange(60.0) + 1
        assert np.array_equal(ref.solve(b), par.solve(b))  # bitwise identical
        assert par.report.parallel_seconds > 0
        assert par.report.nprocs == 4

    def test_machine_selection(self):
        A = random_nonsymmetric(50, density=0.08, seed=44)
        t3d = SStarSolver(nprocs=4, method="2d", machine="T3D").factor(A)
        t3e = SStarSolver(nprocs=4, method="2d", machine="T3E").factor(A)
        assert t3e.report.parallel_seconds < t3d.report.parallel_seconds

    def test_unknown_method(self):
        A = random_nonsymmetric(30, seed=45)
        with pytest.raises(ValueError, match="method"):
            SStarSolver(nprocs=2, method="3d").factor(A)

    @pytest.mark.parametrize("nprocs", [1, 4])
    def test_unknown_method_is_rejected_at_construction(self, nprocs):
        # before any analysis or tuner search; with nprocs=1 a typo used to
        # run as "sequential"
        with pytest.raises(ValueError, match="unknown method '1d-rapd'"):
            SStarSolver(nprocs=nprocs, method="1d-rapd", tune=True)

    def test_cli_method_choices_are_the_solvers(self):
        from repro.api import METHODS
        from repro.cli import build_parser

        sub = build_parser()._subparsers._group_actions[0].choices
        choices = {
            name: a.choices for name in ("solve", "simulate")
            for a in sub[name]._actions if a.dest == "method"
        }
        assert choices == {"solve": METHODS, "simulate": METHODS[1:]}

    def test_storage_backend_selector_is_gone(self):
        with pytest.raises(TypeError, match="backend"):
            SStarSolver(backend="packed")

    def test_sim_result_exposed(self):
        A = random_nonsymmetric(50, density=0.08, seed=46)
        s = SStarSolver(nprocs=4, method="1d-rapid").factor(A)
        assert s.sim_result is not None
        assert s.sim_result.messages == s.report.messages


class TestBlockSizeAndAmalgamation:
    def test_block_size_one_works(self):
        A = random_nonsymmetric(40, density=0.1, seed=47)
        s = SStarSolver(block_size=1, amalgamation=0).factor(A)
        b = np.ones(40)
        x = s.solve(b)
        assert np.linalg.norm(csr_matvec(A, x) - b) < 1e-8

    def test_amalgamation_reduces_blocks(self):
        A = get_matrix("saylr4", "small")
        s0 = SStarSolver(amalgamation=0).factor(A)
        s6 = SStarSolver(amalgamation=6).factor(A)
        assert s6.report.supernode_blocks <= s0.report.supernode_blocks
