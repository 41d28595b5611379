"""Distributed 1D triangular solves."""

import numpy as np
import pytest

from repro.machine import T3E
from repro.matrices import random_nonsymmetric, get_matrix
from repro.numfact import LUFactorization
from repro.ordering import prepare_matrix
from repro.parallel import run_1d, run_1d_trisolve
from repro.sparse import csr_to_dense
from repro.supernodes import build_block_structure, build_partition
from repro.symbolic import static_symbolic_factorization


def kernel_flops(sim, kernel):
    return sum(v for (k, _), v in sim.total_counter().by_gran.items()
               if k == kernel)


@pytest.fixture(scope="module")
def factored():
    A = random_nonsymmetric(90, density=0.07, seed=71)
    om = prepare_matrix(A)
    sym = static_symbolic_factorization(om.A)
    part = build_partition(sym, max_size=6, amalgamation=4)
    bstruct = build_block_structure(sym, part)
    res = run_1d(om.A, part, bstruct, 4, T3E, method="rapid")
    lu = LUFactorization(res.factor, sym, part, bstruct, res.sim.total_counter())
    return om, lu, res


class TestCorrectness:
    def test_bitwise_equal_to_sequential(self, factored):
        om, lu, res = factored
        b = np.sin(np.arange(om.n) + 1.0)
        tri = run_1d_trisolve(lu, res.schedule.owner, b, 4, T3E)
        assert np.array_equal(tri.x, lu.solve(b))

    def test_residual_small(self, factored):
        om, lu, res = factored
        b = np.ones(om.n)
        tri = run_1d_trisolve(lu, res.schedule.owner, b, 4, T3E)
        D = csr_to_dense(om.A)
        assert np.linalg.norm(D @ tri.x - b) / np.linalg.norm(b) < 1e-10

    @pytest.mark.parametrize("nprocs", [1, 2, 3, 8])
    def test_other_processor_counts(self, nprocs):
        A = random_nonsymmetric(60, density=0.1, seed=72)
        om = prepare_matrix(A)
        sym = static_symbolic_factorization(om.A)
        part = build_partition(sym, max_size=5, amalgamation=3)
        bstruct = build_block_structure(sym, part)
        res = run_1d(om.A, part, bstruct, nprocs, T3E, method="ca")
        lu = LUFactorization(res.factor, sym, part, bstruct, res.sim.total_counter())
        b = np.arange(60.0) - 30.0
        tri = run_1d_trisolve(lu, res.schedule.owner, b, nprocs, T3E)
        assert np.array_equal(tri.x, lu.solve(b))

    def test_rhs_shape_validated(self, factored):
        om, lu, res = factored
        with pytest.raises(ValueError, match=r"got \(3,\)"):
            run_1d_trisolve(lu, res.schedule.owner, np.ones(3), 4, T3E)
        with pytest.raises(ValueError, match=r"got \(90, 2, 2\)"):
            run_1d_trisolve(lu, res.schedule.owner, np.ones((90, 2, 2)), 4, T3E)

    def test_multi_rhs_bitwise_equal(self, factored):
        om, lu, res = factored
        B = np.column_stack(
            [np.sin(np.arange(om.n) + 1.0 + j) for j in range(5)]
        )
        tri = run_1d_trisolve(lu, res.schedule.owner, B, 4, T3E)
        assert tri.x.shape == (om.n, 5)
        # the distributed block solve matches the sequential block solve
        # bit for bit; individual columns only match vector solves to
        # rounding (dgemm vs dgemv accumulation order)
        assert np.array_equal(tri.x, lu.solve(B))
        for j in range(5):
            single = run_1d_trisolve(lu, res.schedule.owner, B[:, j], 4, T3E)
            assert np.allclose(tri.x[:, j], single.x, atol=1e-12)

    def test_single_column_block(self, factored):
        om, lu, res = factored
        b = np.cos(np.arange(om.n))
        tri = run_1d_trisolve(lu, res.schedule.owner, b[:, None], 4, T3E)
        assert tri.x.shape == (om.n, 1)
        assert np.array_equal(tri.x[:, 0], lu.solve(b))

    def test_multi_rhs_uses_gemm_accounting(self, factored):
        om, lu, res = factored
        B = np.ones((om.n, 4))
        tri = run_1d_trisolve(lu, res.schedule.owner, B, 4, T3E)
        assert kernel_flops(tri.sim, "dgemm") > 0.0
        single = run_1d_trisolve(lu, res.schedule.owner, B[:, 0], 4, T3E)
        assert kernel_flops(single.sim, "dgemm") == 0.0
        assert kernel_flops(single.sim, "dgemv") > 0.0


class TestCost:
    def test_solve_much_cheaper_than_factor(self):
        """The paper: 'the triangular solvers are much less time consuming
        than the Gaussian elimination process'."""
        A = get_matrix("sherman5", "small")
        om = prepare_matrix(A)
        sym = static_symbolic_factorization(om.A)
        part = build_partition(sym, max_size=25, amalgamation=4)
        bstruct = build_block_structure(sym, part)
        res = run_1d(om.A, part, bstruct, 4, T3E, method="rapid")
        lu = LUFactorization(res.factor, sym, part, bstruct, res.sim.total_counter())
        tri = run_1d_trisolve(lu, res.schedule.owner, np.ones(om.n), 4, T3E)
        assert tri.parallel_seconds < res.parallel_seconds

    def test_messages_counted(self, factored):
        om, lu, res = factored
        tri = run_1d_trisolve(lu, res.schedule.owner, np.ones(om.n), 4, T3E)
        assert tri.sim.messages > 0


class TestTriSolve2D:
    """Distributed 2D triangular solves (grid mapping)."""

    @pytest.mark.parametrize("grid", [(1, 2), (2, 2), (2, 4), (4, 2)])
    def test_bitwise_equal_to_sequential(self, grid):
        from repro.parallel import Grid2D, run_2d, run_2d_trisolve

        A = random_nonsymmetric(80, density=0.08, seed=75)
        om = prepare_matrix(A)
        sym = static_symbolic_factorization(om.A)
        part = build_partition(sym, max_size=6, amalgamation=3)
        bstruct = build_block_structure(sym, part)
        g = Grid2D(*grid)
        res = run_2d(om.A, part, bstruct, g.nprocs, T3E, grid=g)
        lu = LUFactorization(res.factor, sym, part, bstruct,
                             res.sim.total_counter())
        b = np.cos(np.arange(80.0))
        tri = run_2d_trisolve(lu, b, g.nprocs, T3E, grid=g)
        assert np.array_equal(tri.x, lu.solve(b))

    def test_multi_rhs_bitwise_equal(self):
        from repro.parallel import Grid2D, run_2d, run_2d_trisolve

        A = random_nonsymmetric(80, density=0.08, seed=75)
        om = prepare_matrix(A)
        sym = static_symbolic_factorization(om.A)
        part = build_partition(sym, max_size=6, amalgamation=3)
        bstruct = build_block_structure(sym, part)
        g = Grid2D(2, 2)
        res = run_2d(om.A, part, bstruct, g.nprocs, T3E, grid=g)
        lu = LUFactorization(res.factor, sym, part, bstruct,
                             res.sim.total_counter())
        B = np.column_stack([np.cos(np.arange(80.0) + j) for j in range(3)])
        tri = run_2d_trisolve(lu, B, g.nprocs, T3E, grid=g)
        assert tri.x.shape == (80, 3)
        assert np.array_equal(tri.x, lu.solve(B))
        assert kernel_flops(tri.sim, "dgemm") > 0.0

    def test_rhs_validated(self):
        from repro.parallel import Grid2D, run_2d, run_2d_trisolve

        A = random_nonsymmetric(40, density=0.1, seed=76)
        om = prepare_matrix(A)
        sym = static_symbolic_factorization(om.A)
        part = build_partition(sym, max_size=5, amalgamation=2)
        bstruct = build_block_structure(sym, part)
        res = run_2d(om.A, part, bstruct, 4, T3E)
        lu = LUFactorization(res.factor, sym, part, bstruct,
                             res.sim.total_counter())
        with pytest.raises(ValueError, match="rhs"):
            run_2d_trisolve(lu, np.ones(3), 4, T3E)

    def test_grid_mismatch(self):
        from repro.parallel import Grid2D, run_2d, run_2d_trisolve

        A = random_nonsymmetric(40, density=0.1, seed=77)
        om = prepare_matrix(A)
        sym = static_symbolic_factorization(om.A)
        part = build_partition(sym, max_size=5, amalgamation=2)
        bstruct = build_block_structure(sym, part)
        res = run_2d(om.A, part, bstruct, 4, T3E)
        lu = LUFactorization(res.factor, sym, part, bstruct,
                             res.sim.total_counter())
        with pytest.raises(ValueError, match="grid"):
            run_2d_trisolve(lu, np.ones(40), 8, T3E, grid=Grid2D(2, 2))


class TestMappingMustFitTheRun:
    """A mapping that does not fit the factor or the run is one
    ``ValueError`` naming the block column and rank, raised before the
    simulator exists — not a send error, a deadlock or an ``IndexError``
    from deep inside a rank program."""

    @pytest.fixture(autouse=True)
    def no_rank_may_run(self, monkeypatch):
        from repro.parallel import trisolve

        def boom(*a, **k):
            raise AssertionError("the simulator was built")

        monkeypatch.setattr(trisolve, "Simulator", boom)

    @pytest.mark.parametrize("nprocs", [2, 3])
    def test_1d_owner_names_a_rank_the_run_lacks(self, factored, nprocs):
        om, lu, res = factored  # factored on 4 ranks
        with pytest.raises(ValueError, match=r"block column \d+ is mapped to rank [23]"):
            run_1d_trisolve(lu, res.schedule.owner, np.ones(om.n), nprocs, T3E)

    def test_1d_owner_of_the_wrong_length(self, factored):
        om, lu, res = factored
        with pytest.raises(ValueError, match=rf"owner maps {lu.part.N - 2} block "
                                             rf"columns, the factor has {lu.part.N}"):
            run_1d_trisolve(lu, res.schedule.owner[:-2], np.ones(om.n), 4, T3E)

    @pytest.mark.parametrize("nprocs", [2, 8])
    def test_2d_grid_of_another_size(self, factored, nprocs):
        from repro.parallel import Grid2D, run_2d_trisolve

        om, lu, _ = factored
        with pytest.raises(ValueError, match=rf"grid 2x2 has 4 ranks, the run has {nprocs}"):
            run_2d_trisolve(lu, np.ones(om.n), nprocs, T3E, grid=Grid2D(2, 2))

    @pytest.mark.parametrize("mapping", ["1d", "2d"])
    def test_unfactored_block_column(self, factored, mapping):
        import copy

        from repro.parallel import run_2d_trisolve

        om, lu, res = factored
        half = copy.copy(lu)
        half.matrix = copy.copy(lu.matrix)
        half.matrix.pivot_seq = list(lu.matrix.pivot_seq)
        half.matrix.pivot_seq[3] = None
        with pytest.raises(ValueError, match=r"block column 3 \(on rank \d\) has no pivot"):
            if mapping == "1d":
                run_1d_trisolve(half, res.schedule.owner, np.ones(om.n), 4, T3E)
            else:
                run_2d_trisolve(half, np.ones(om.n), 4, T3E)

