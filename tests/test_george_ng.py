"""Static symbolic factorization: reference cross-check and the
covers-any-pivot-sequence guarantee."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import superlu_like_factor
from repro.matrices import random_nonsymmetric
from repro.ordering import prepare_matrix
from repro.sparse import CSRMatrix, coo_to_csr
from repro.symbolic import StructuralDiagonalError, static_symbolic_factorization


def george_ng_reference(A):
    """Direct per-row set simulation of the Section 3.1 algorithm."""
    n = A.nrows
    rows = [set(int(c) for c in A.row_indices(i)) for i in range(n)]
    lcol, urow = [], []
    for k in range(n):
        cand = [i for i in range(k, n) if k in rows[i]]
        union = set()
        for i in cand:
            union |= {c for c in rows[i] if c >= k}
        for i in cand:
            rows[i] = {c for c in rows[i] if c < k} | union
        lcol.append(sorted(cand))
        urow.append(sorted(union))
    return lcol, urow


def george_ng_dense(P):
    """Section 3.1 verbatim on a dense boolean pattern: at step ``k`` the
    candidate rows are those at or below ``k`` with a nonzero in column
    ``k``; the OR of their trailing parts is written back to each."""
    F = np.array(P, dtype=bool)
    lcol, urow = [], []
    for k in range(len(F)):
        cand = np.flatnonzero(F[k:, k]) + k
        union = F[cand, k:].any(axis=0)
        F[cand, k:] = union
        lcol.append(cand.tolist())
        urow.append((np.flatnonzero(union) + k).tolist())
    return lcol, urow


def pattern_to_csr(P):
    P = np.asarray(P, dtype=bool)
    rows, cols = np.nonzero(P)
    return coo_to_csr(len(P), len(P), rows, cols, np.ones(len(rows)))


def assert_matches_dense_reference(P):
    sym = static_symbolic_factorization(pattern_to_csr(P))
    ref_l, ref_u = george_ng_dense(P)
    assert [a.tolist() for a in sym.lcol] == ref_l
    assert [a.tolist() for a in sym.urow] == ref_u
    assert all(a.dtype == np.int64 for a in sym.lcol + sym.urow)


def _shape(n, **marks):
    """Identity pattern of order ``n`` plus the given dense rows/columns."""
    P = np.eye(n, dtype=bool)
    for r in marks.get("rows", ()):
        P[r, :] = True
    for c in marks.get("cols", ()):
        P[:, c] = True
    return P


DEGENERATE = {
    "one_by_one": np.ones((1, 1), dtype=bool),
    "diagonal_only": _shape(9),
    "fully_dense": np.ones((8, 8), dtype=bool),
    "arrow_first": _shape(10, rows=[0], cols=[0]),
    "arrow_last": _shape(10, rows=[9], cols=[9]),
    "one_dense_row_top": _shape(10, rows=[0]),
    "one_dense_row_middle": _shape(10, rows=[4]),
    "one_dense_column_first": _shape(10, cols=[0]),
    "one_dense_column_last": _shape(10, cols=[9]),
    "block_diagonal": np.kron(np.eye(3, dtype=bool), np.ones((4, 4), dtype=bool)),
    "lower_triangular": np.tril(np.ones((7, 7), dtype=bool)),
    "upper_triangular": np.triu(np.ones((7, 7), dtype=bool)),
}


class TestDifferentialAgainstDenseReference:
    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_shapes(self, name):
        assert_matches_dense_reference(DEGENERATE[name])

    @given(
        n=st.integers(1, 40),
        density=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_zero_free_diagonal_patterns(self, n, density, seed):
        rng = np.random.default_rng(seed)
        P = rng.random((n, n)) < density
        np.fill_diagonal(P, True)
        assert_matches_dense_reference(P)


class TestDegenerateInputs:
    def test_empty_matrix(self):
        sym = static_symbolic_factorization(CSRMatrix(0, 0, [0], []))
        assert (sym.n, sym.lcol, sym.urow, sym.factor_entries) == (0, [], [], 0)

    def test_one_by_one(self):
        sym = static_symbolic_factorization(coo_to_csr(1, 1, [0], [0], [2.0]))
        assert [a.tolist() for a in sym.lcol] == [[0]]
        assert [a.tolist() for a in sym.urow] == [[0]]

    def test_zero_diagonal_reports_first_position(self):
        # rows 1 and 3 lack their diagonal entry
        A = coo_to_csr(4, 4, [0, 1, 2, 3, 3], [0, 0, 2, 1, 2], np.ones(5))
        with pytest.raises(StructuralDiagonalError, match="position 1;"):
            static_symbolic_factorization(A)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_column_index_out_of_range(self, bad):
        A = CSRMatrix(2, 2, [0, 2, 3], [0, bad, 1])
        with pytest.raises(ValueError, match="out of range"):
            static_symbolic_factorization(A)

    def test_pivot_row_missing_is_a_typed_error(self):
        # a malformed CSR (row 0 not sorted) passes the diagonal check but
        # leaves step 0 without its pivot row among the candidates
        A = CSRMatrix(2, 2, [0, 2, 4], [1, 0, 0, 1])
        with pytest.raises(StructuralDiagonalError, match="not among candidates"):
            static_symbolic_factorization(A)
        assert issubclass(StructuralDiagonalError, ValueError)


def _subset(small, big):
    return set(int(x) for x in small) <= set(int(x) for x in big)


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_matrices(self, seed):
        A = random_nonsymmetric(24, density=0.12, seed=seed)
        sym = static_symbolic_factorization(A)
        ref_l, ref_u = george_ng_reference(A)
        for k in range(A.nrows):
            assert sym.lcol[k].tolist() == ref_l[k], f"lcol mismatch at {k}"
            assert sym.urow[k].tolist() == ref_u[k], f"urow mismatch at {k}"

    def test_worked_example(self):
        # the structure of the paper's Fig. 2 style 5x5 example:
        # x . . x .
        # . x . . x
        # x . x . .
        # . x . x .
        # . . x . x
        rows = [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
        cols = [0, 3, 1, 4, 0, 2, 1, 3, 2, 4]
        A = coo_to_csr(5, 5, rows, cols, np.ones(10))
        sym = static_symbolic_factorization(A)
        ref_l, ref_u = george_ng_reference(A)
        assert [c.tolist() for c in sym.lcol] == ref_l
        assert [c.tolist() for c in sym.urow] == ref_u
        # step 0 candidates are rows 0 and 2; both get the union {0, 2, 3}
        assert sym.lcol[0].tolist() == [0, 2]
        assert sym.urow[0].tolist() == [0, 2, 3]


class TestStructuralGuarantees:
    def test_diagonal_included(self):
        A = random_nonsymmetric(30, density=0.1, seed=3)
        sym = static_symbolic_factorization(A)
        for k in range(30):
            assert sym.lcol[k][0] == k
            assert sym.urow[k][0] == k

    def test_original_pattern_covered(self):
        A = random_nonsymmetric(30, density=0.1, seed=4)
        sym = static_symbolic_factorization(A)
        F = sym.filled_pattern_dense()
        for i in range(30):
            for j in A.row_indices(i):
                assert F[i, j], f"original entry ({i},{j}) lost"

    def test_rejects_zero_diagonal(self):
        A = coo_to_csr(2, 2, [0, 1], [1, 0], [1.0, 1.0])
        with pytest.raises(ValueError, match="diagonal"):
            static_symbolic_factorization(A)

    def test_rejects_rectangular(self):
        A = coo_to_csr(2, 3, [0, 1], [0, 1], [1.0, 1.0])
        with pytest.raises(ValueError, match="square"):
            static_symbolic_factorization(A)

    @pytest.mark.parametrize("rule", ["partial", "random"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_covers_dynamic_factorization(self, rule, seed):
        """The George-Ng structure must contain the dynamic fill of *any*
        pivot sequence — partial pivoting and adversarial random pivoting."""
        A = random_nonsymmetric(40, density=0.08, seed=seed)
        om = prepare_matrix(A)
        sym = static_symbolic_factorization(om.A)
        dyn = superlu_like_factor(om.A, pivot_rule=rule)
        dl = dyn.l_column_structures()
        du = dyn.u_row_structures()
        for k in range(om.n):
            assert _subset(dl[k], sym.lcol[k]), f"L column {k} not covered"
            assert _subset(du[k], sym.urow[k]), f"U row {k} not covered"

    def test_factor_entries_counts(self):
        A = random_nonsymmetric(20, density=0.15, seed=6)
        sym = static_symbolic_factorization(A)
        manual = sum(len(l) + len(u) - 1 for l, u in zip(sym.lcol, sym.urow))
        assert sym.factor_entries == manual

    def test_row_structure_helper(self):
        A = random_nonsymmetric(15, density=0.2, seed=8)
        sym = static_symbolic_factorization(A)
        F = sym.filled_pattern_dense()
        for i in range(15):
            got = sorted(int(c) for c in sym.row_structure(i))
            ref = sorted(np.flatnonzero(F[i]).tolist())
            assert got == ref


class TestDenseCase:
    def test_dense_matrix_fills_completely(self):
        from repro.matrices import dense_matrix

        A = dense_matrix(10)
        sym = static_symbolic_factorization(A)
        assert sym.factor_entries == 100

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_property_static_covers_partial_pivoting(self, seed):
        A = random_nonsymmetric(18, density=0.18, seed=seed)
        om = prepare_matrix(A)
        sym = static_symbolic_factorization(om.A)
        dyn = superlu_like_factor(om.A)
        for k, (ls, us) in enumerate(zip(dyn.l_column_structures(), dyn.u_row_structures())):
            assert _subset(ls, sym.lcol[k])
            assert _subset(us, sym.urow[k])
