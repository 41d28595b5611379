"""Extended solver features: transpose solve, multi-RHS, condition
estimation, serialization."""

import numpy as np
import pytest

from repro.analysis import condest, onenorm, onenormest_inverse
from repro.matrices import random_nonsymmetric
from repro.numfact import (
    load_factorization,
    save_factorization,
    sstar_factor,
)
from repro.ordering import prepare_matrix
from repro.sparse import csr_to_dense, dense_to_csr


@pytest.fixture(scope="module")
def lu_and_dense():
    A = random_nonsymmetric(80, density=0.08, seed=91)
    om = prepare_matrix(A)
    return sstar_factor(om.A), csr_to_dense(om.A), om


class TestTransposeSolve:
    def test_residual(self, lu_and_dense):
        lu, D, om = lu_and_dense
        b = np.cos(np.arange(80.0))
        x = lu.solve_transpose(b)
        assert np.linalg.norm(D.T @ x - b) / np.linalg.norm(b) < 1e-10

    def test_matches_numpy(self, lu_and_dense):
        lu, D, om = lu_and_dense
        b = np.ones(80)
        assert np.allclose(
            lu.solve_transpose(b), np.linalg.solve(D.T, b), rtol=1e-7, atol=1e-9
        )

    def test_roundtrip_identity(self, lu_and_dense):
        """solve(A, solve_transpose(A^T, b)) style consistency: applying A
        then solving must return the input."""
        lu, D, om = lu_and_dense
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, 80)
        assert np.allclose(lu.solve(D @ x), x, rtol=1e-7, atol=1e-9)
        assert np.allclose(lu.solve_transpose(D.T @ x), x, rtol=1e-7, atol=1e-9)

    def test_shape_validation(self, lu_and_dense):
        lu, _, _ = lu_and_dense
        with pytest.raises(ValueError, match="rhs"):
            lu.solve_transpose(np.ones(5))


class TestMultiRHS:
    def test_block_solve(self, lu_and_dense):
        lu, D, om = lu_and_dense
        rng = np.random.default_rng(7)
        B = rng.uniform(-1, 1, (80, 4))
        X = lu.solve(B)
        assert np.linalg.norm(D @ X - B) < 1e-9

    def test_columns_match_vector_solves(self, lu_and_dense):
        lu, D, om = lu_and_dense
        rng = np.random.default_rng(8)
        B = rng.uniform(-1, 1, (80, 3))
        X = lu.solve(B)
        for j in range(3):
            # GEMM vs GEMV host-BLAS paths may round differently; the
            # solutions agree to machine precision but not bitwise
            assert np.allclose(X[:, j], lu.solve(B[:, j]), rtol=1e-12, atol=1e-14)

    def test_transpose_block_solve(self, lu_and_dense):
        lu, D, om = lu_and_dense
        rng = np.random.default_rng(9)
        B = rng.uniform(-1, 1, (80, 2))
        X = lu.solve_transpose(B)
        assert np.linalg.norm(D.T @ X - B) < 1e-9


class TestConditionEstimate:
    def test_onenorm_exact(self):
        D = np.array([[1.0, -2.0], [3.0, 0.5]])
        assert onenorm(dense_to_csr(D)) == pytest.approx(4.0)

    def test_estimate_within_factor_of_truth(self, lu_and_dense):
        lu, D, om = lu_and_dense
        est = condest(om.A, lu.solve, lu.solve_transpose)
        true = np.linalg.norm(D, 1) * np.linalg.norm(np.linalg.inv(D), 1)
        assert true / 20 <= est <= true * 1.01

    def test_identity_matrix(self):
        A = dense_to_csr(np.eye(10))
        om = prepare_matrix(A)
        lu = sstar_factor(om.A)
        est = condest(om.A, lu.solve, lu.solve_transpose)
        assert est == pytest.approx(1.0, rel=0.1)

    def test_lower_bound_property(self, lu_and_dense):
        lu, D, om = lu_and_dense
        est = onenormest_inverse(lu.solve, lu.solve_transpose, 80)
        assert est <= np.linalg.norm(np.linalg.inv(D), 1) * 1.001


class TestSerialization:
    def test_roundtrip_solution(self, lu_and_dense, tmp_path):
        lu, D, om = lu_and_dense
        p = tmp_path / "f.npz"
        save_factorization(p, lu)
        lu2 = load_factorization(p)
        b = np.arange(80.0)
        assert np.array_equal(lu.solve(b), lu2.solve(b))

    def test_roundtrip_structure(self, lu_and_dense, tmp_path):
        lu, D, om = lu_and_dense
        p = tmp_path / "f.npz"
        save_factorization(p, lu)
        lu2 = load_factorization(p)
        assert lu2.n == lu.n
        assert lu2.part.N == lu.part.N
        assert set(lu2.matrix.blocks) == set(lu.matrix.blocks)
        assert lu2.sym.factor_entries == lu.sym.factor_entries

    def test_blocks_are_copies(self, lu_and_dense, tmp_path):
        lu, D, om = lu_and_dense
        p = tmp_path / "f.npz"
        save_factorization(p, lu)
        lu2 = load_factorization(p)
        key = next(iter(lu.matrix.blocks))
        lu2.matrix.blocks[key][:] = 0.0
        assert not np.array_equal(lu2.matrix.blocks[key], lu.matrix.blocks[key]) or (
            not np.any(lu.matrix.blocks[key])
        )


class TestTimeline:
    def test_render_from_simulation(self):
        from repro.analysis import overlap_profile
        from repro.scheduling import gantt_from_trace
        from repro.machine import T3E
        from repro.parallel import run_2d
        from repro.supernodes import build_partition, build_block_structure
        from repro.symbolic import static_symbolic_factorization

        A = random_nonsymmetric(60, density=0.1, seed=96)
        om = prepare_matrix(A)
        sym = static_symbolic_factorization(om.A)
        part = build_partition(sym, max_size=5, amalgamation=3)
        bstruct = build_block_structure(sym, part)
        res = run_2d(om.A, part, bstruct, 4, T3E)
        text = gantt_from_trace(res.sim.spans).render()
        assert "P0" in text and "P3" in text and "makespan" in text
        prof = overlap_profile(res.sim.spans, 4)
        assert max(prof) >= 1

    def test_empty_spans(self):
        from repro.analysis import overlap_profile
        from repro.scheduling import gantt_from_trace

        assert gantt_from_trace([]).render() == "makespan = 0"
        assert overlap_profile([], 2) == []
