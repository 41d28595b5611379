"""Block storage, Factor/Update kernels and the sequential S* driver."""

import numpy as np
import pytest

from repro.baselines import dense_gepp
from repro.matrices import dense_matrix, random_nonsymmetric
from repro.numfact import (
    BlockLUMatrix,
    KernelCounter,
    SingularMatrixError,
    StructureViolation,
    factor_block_column,
    sstar_factor,
    unit_lower_apply,
    unit_lower_inverse,
    upper_solve,
)
from repro.numfact.kernels import trsm_charge
from repro.numfact.tasks import choose_pivot
from repro.ordering import prepare_matrix
from repro.sparse import coo_to_csr, csr_to_dense
from repro.supernodes import build_block_structure, build_partition
from repro.symbolic import static_symbolic_factorization



def _pipeline(n=50, density=0.08, seed=0, block=8, amalg=4):
    A = random_nonsymmetric(n, density=density, seed=seed)
    om = prepare_matrix(A)
    sym = static_symbolic_factorization(om.A)
    part = build_partition(sym, max_size=block, amalgamation=amalg)
    bstruct = build_block_structure(sym, part)
    return om, sym, part, bstruct


def residual(D, x, b):
    import numpy as _np
    return _np.linalg.norm(D @ x - b) / max(_np.linalg.norm(b), 1e-30)


class TestKernels:
    def test_unit_lower_apply_matches_numpy(self, rng):
        L = np.tril(rng.uniform(-1, 1, (9, 9)), -1) + np.eye(9)
        B = rng.uniform(-1, 1, (9, 4))
        X = B.copy()
        unit_lower_apply(unit_lower_inverse(L), X)
        assert np.allclose(L @ X, B)

    def test_unit_lower_apply_vector(self, rng):
        L = np.tril(rng.uniform(-1, 1, (7, 7)), -1) + np.eye(7)
        b = rng.uniform(-1, 1, 7)
        x = b.copy()
        unit_lower_apply(unit_lower_inverse(L), x)
        assert np.allclose(L @ x, b)

    def test_upper_solve_matches_numpy(self, rng):
        U = np.triu(rng.uniform(-1, 1, (9, 9))) + 3 * np.eye(9)
        B = rng.uniform(-1, 1, (9, 3))
        X = B.copy()
        upper_solve(U, X)
        assert np.allclose(U @ X, B)

    def test_counters_filled(self, rng):
        c = KernelCounter()
        L = np.tril(rng.uniform(-1, 1, (6, 6)), -1) + np.eye(6)
        B = rng.uniform(-1, 1, (6, 5))
        unit_lower_apply(unit_lower_inverse(L), B)
        kernel, gran, flops = trsm_charge(*B.shape)
        c.add(kernel, flops, gran)
        assert c.flops.get("dgemm", 0) > 0

    def test_kernel_fraction(self):
        c = KernelCounter()
        c.add("dgemm", 75)
        c.add("dgemv", 25)
        assert c.fraction("dgemm") == 0.75
        assert c.total == 100


class TestBlockStorage:
    def test_from_csr_roundtrip(self):
        om, sym, part, bstruct = _pipeline(seed=1)
        m = BlockLUMatrix.from_csr(om.A, part, bstruct)
        assert np.array_equal(m.to_dense(), csr_to_dense(om.A))

    def test_out_of_structure_entry_raises(self):
        om, sym, part, bstruct = _pipeline(seed=2)
        # forge a matrix with an entry outside the static structure:
        # find an absent block and drop an entry there
        absent = None
        for I in range(part.N - 1, 0, -1):
            for J in range(part.N):
                if not bstruct.has_block(I, J) and I > J:
                    absent = (I, J)
                    break
            if absent:
                break
        if absent is None:
            pytest.skip("structure is full for this seed")
        I, J = absent
        bad = coo_to_csr(
            om.n,
            om.n,
            [part.start(I)],
            [part.start(J)],
            [1.0],
        )
        with pytest.raises(StructureViolation):
            BlockLUMatrix.from_csr(bad, part, bstruct)

    def test_swap_rows_both_present(self):
        om, sym, part, bstruct = _pipeline(seed=3)
        m = BlockLUMatrix.from_csr(om.A, part, bstruct)
        J = part.N - 1
        rows = [I for I in range(part.N) if bstruct.has_block(I, J)]
        if len(rows) < 1:
            pytest.skip("no blocks in last column")
        r1 = part.start(rows[0])
        r2 = part.start(rows[0]) + part.size(rows[0]) - 1
        D0 = m.to_dense()
        m.swap_block_rows(J, *m.plan.locate_rows(r1, r2))
        D1 = m.to_dense()
        c0, c1 = part.start(J), part.start(J) + part.size(J)
        assert np.array_equal(D1[r1, c0:c1], D0[r2, c0:c1])
        assert np.array_equal(D1[r2, c0:c1], D0[r1, c0:c1])

    def test_swap_absent_zero_is_noop(self):
        om, sym, part, bstruct = _pipeline(seed=4)
        m = BlockLUMatrix.from_csr(om.A, part, bstruct)
        # find absent (I, J) pair sharing a column with a present block
        for J in range(part.N):
            present = [I for I in range(part.N) if bstruct.has_block(I, J)]
            missing = [I for I in range(part.N) if not bstruct.has_block(I, J)]
            if present and missing:
                r_present = part.start(present[0])
                r_missing = part.start(missing[0])
                blk = m.blocks[(present[0], J)]
                blk[r_present - part.start(present[0])] = 0.0
                m.swap_block_rows(J, *m.plan.locate_rows(r_present, r_missing))  # no raise
                return
        pytest.skip("no absent block found")

    def test_swap_absent_nonzero_raises(self):
        om, sym, part, bstruct = _pipeline(seed=5)
        m = BlockLUMatrix.from_csr(om.A, part, bstruct)
        for J in range(part.N):
            present = [
                I
                for I in range(part.N)
                if bstruct.has_block(I, J)
                and np.any(m.blocks[(I, J)][0])
            ]
            missing = [I for I in range(part.N) if not bstruct.has_block(I, J)]
            if present and missing:
                with pytest.raises(StructureViolation):
                    m.swap_block_rows(J, *m.plan.locate_rows(
                        part.start(present[0]), part.start(missing[0])))
                return
        pytest.skip("no absent block found")


class TestFactorBlockColumn:
    def test_matches_dense_gepp_on_panel(self):
        om, sym, part, bstruct = _pipeline(seed=6)
        m = BlockLUMatrix.from_csr(om.A, part, bstruct)
        # dense reference on the stacked panel of column 0
        rows = [I for I in bstruct.l_block_rows(0)]
        panel = np.vstack([m.blocks[(I, 0)].copy() for I in rows])
        fc = factor_block_column(m, 0)
        bs = part.size(0)
        ref = panel.copy()
        for c in range(bs):
            t = c + int(np.argmax(np.abs(ref[c:, c])))
            if t != c:
                ref[[c, t]] = ref[[t, c]]
            ref[c + 1 :, c] /= ref[c, c]
            if c + 1 < bs:
                ref[c + 1 :, c + 1 : bs] -= np.outer(
                    ref[c + 1 :, c], ref[c, c + 1 : bs]
                )
        got = np.vstack([m.blocks[(I, 0)] for I in rows])
        assert np.array_equal(got, ref)
        assert len(fc.pivots) == bs

    def test_singular_column_raises(self):
        # a matrix whose first column is entirely zero after the diagonal..
        # make an exactly singular matrix (duplicate rows)
        D = np.ones((4, 4))
        A = coo_to_csr(
            4, 4, *np.nonzero(D), D[np.nonzero(D)]
        )
        sym = static_symbolic_factorization(A)
        part = build_partition(sym, max_size=4, amalgamation=0)
        bstruct = build_block_structure(sym, part)
        m = BlockLUMatrix.from_csr(A, part, bstruct)
        with pytest.raises(SingularMatrixError):
            factor_block_column(m, 0)

    def test_threshold_keeps_a_diagonal_exactly_at_u_times_max(self):
        # |diag| == u * max|candidate| passes the threshold test: the
        # diagonal stays, the larger candidate in row 7 does not pivot
        assert choose_pivot(3, 1.0, 7, 0.5, 0.5, None) == 3
        assert choose_pivot(3, 1.0, 7, 0.4999, 0.5, None) == 7


class TestSequentialFactor:
    @pytest.mark.parametrize("seed", range(5))
    def test_solve_matches_numpy(self, seed):
        om, sym, part, bstruct = _pipeline(n=60, seed=seed)
        lu = sstar_factor(om.A, sym=sym, part=part)
        D = csr_to_dense(om.A)
        b = np.sin(np.arange(60) + 1.0)
        x = lu.solve(b)
        assert residual(D, x, b) < 1e-10
        assert np.allclose(x, np.linalg.solve(D, b), rtol=1e-8, atol=1e-10)

    def test_pivot_choice_matches_dense_gepp(self):
        """S*'s restricted pivot search must pick the same pivots as dense
        GEPP: values outside the static structure are exactly zero."""
        om, sym, part, bstruct = _pipeline(n=40, seed=7, block=1, amalg=0)
        lu = sstar_factor(om.A, sym=sym, part=part, amalgamation=0)
        _, ipiv = dense_gepp(csr_to_dense(om.A))
        got = [t for seq in lu.matrix.pivot_seq for (_, t) in seq]
        assert got == ipiv.tolist()

    def test_static_zero_invariant(self):
        om, sym, part, bstruct = _pipeline(n=60, seed=8)
        lu = sstar_factor(om.A, sym=sym, part=part)
        assert lu.matrix.check_static_zeros(sym) == 0

    def test_dense1000_analogue(self):
        A = dense_matrix(40, seed=1)
        om = prepare_matrix(A)
        lu = sstar_factor(om.A)
        D = csr_to_dense(om.A)
        b = np.ones(40)
        assert residual(D, lu.solve(b), b) < 1e-10

    def test_dgemm_dominates_on_dense(self):
        A = dense_matrix(60, seed=2)
        om = prepare_matrix(A)
        lu = sstar_factor(om.A)
        assert lu.counter.fraction("dgemm") > 0.5

    def test_rhs_shape_validated(self):
        om, sym, part, bstruct = _pipeline(n=30, seed=9)
        lu = sstar_factor(om.A, sym=sym, part=part)
        with pytest.raises(ValueError, match="rhs"):
            lu.solve(np.ones(7))

    def test_pivot_rows_flat(self):
        om, sym, part, bstruct = _pipeline(n=30, seed=10)
        lu = sstar_factor(om.A, sym=sym, part=part)
        assert len(lu.pivot_rows()) == 30
