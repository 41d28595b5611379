"""Pattern algebra: transpose, AᵀA, A+Aᵀ, symmetry, matvec."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matrices import random_nonsymmetric
from repro.sparse import (
    CSRMatrix,
    ata_pattern,
    aplusat_pattern,
    csr_matvec,
    csr_to_dense,
    csr_transpose,
    dense_to_csr,
    coo_to_csr,
    pattern_transpose,
    structural_symmetry,
)
from repro.sparse import ops

from .reference_ordering import reference_ata_pattern


def _rand(n, density, seed):
    return random_nonsymmetric(n, density=density, seed=seed)


class TestTranspose:
    def test_numeric_transpose(self):
        A = _rand(12, 0.2, 1)
        assert np.array_equal(csr_to_dense(csr_transpose(A)), csr_to_dense(A).T)

    def test_pattern_transpose_values_are_one(self):
        A = _rand(12, 0.2, 2)
        P = pattern_transpose(A)
        assert set(P.data.tolist()) <= {1.0}
        assert np.array_equal(csr_to_dense(P) != 0, csr_to_dense(A).T != 0)

    def test_double_transpose_identity(self):
        A = _rand(9, 0.3, 3)
        assert np.array_equal(
            csr_to_dense(csr_transpose(csr_transpose(A))), csr_to_dense(A)
        )


class TestAtaPattern:
    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_matches_dense(self, seed):
        A = _rand(10, 0.15, seed)
        D = csr_to_dense(A) != 0
        ref = (D.T.astype(int) @ D.astype(int)) > 0
        got = csr_to_dense(ata_pattern(A)) != 0
        assert np.array_equal(got, ref)

    def test_symmetric(self):
        A = _rand(15, 0.2, 7)
        P = csr_to_dense(ata_pattern(A)) != 0
        assert np.array_equal(P, P.T)


def _same_csr(got, want):
    assert got.shape == want.shape
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


@st.composite
def rectangular_patterns(draw):
    m, n = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    cells = st.tuples(st.integers(0, max(m - 1, 0)), st.integers(0, max(n - 1, 0)))
    entries = draw(st.lists(cells, max_size=30)) if m and n else []
    if entries and draw(st.booleans()):  # one dense row
        entries += [(entries[0][0], j) for j in range(n)]
    rows, cols = [i for i, _ in entries], [j for _, j in entries]
    return coo_to_csr(m, n, rows, cols, np.ones(len(entries)))


class TestAtaPatternAgainstReference:
    """The frozen per-entry union of row cliques (pre-PR 23) is the oracle."""

    @given(rectangular_patterns(), st.sampled_from([1, 2, 7, 1 << 20]))
    @settings(max_examples=150, deadline=None)
    def test_rectangular_empty_and_dense_rows_any_chunking(self, A, budget):
        # a budget of 1 or 2 pairs puts a chunk boundary inside every row
        # and makes single entries wider than the budget
        with mock.patch.object(ops, "_ATA_PAIR_BUDGET", budget):
            _same_csr(ata_pattern(A), reference_ata_pattern(A))

    def test_dense_row_straddles_the_real_chunk_boundary(self):
        # 1100 entries in one row expand to 1.21 M pairs > 2**20: the row is
        # split across two chunks whose keys must merge into one pattern
        n = 1100
        assert n * n > ops._ATA_PAIR_BUDGET
        rows = [0] * 5 + [1] * n + [2, 2, 3]
        cols = [0, 3, 9, 500, 1099] + list(range(n)) + [7, 8, 1099]
        A = coo_to_csr(5, n, rows, cols, np.ones(len(rows)))
        got = ata_pattern(A)
        assert got.nnz == n * n
        _same_csr(got, reference_ata_pattern(A))

    def test_empty_matrices(self):
        for m, n in ((0, 0), (0, 4), (3, 0), (3, 4)):
            A = coo_to_csr(m, n, [], [], [])
            _same_csr(ata_pattern(A), reference_ata_pattern(A))

    @pytest.mark.parametrize("bad", [4, 9, -1])
    def test_rejects_out_of_range_column_index(self, bad):
        A = CSRMatrix(2, 4, [0, 2, 3], [0, bad, 1])
        with pytest.raises(ValueError, match=rf"column index {bad} outside \[0, 4\)"):
            ata_pattern(A)


class TestAplusAt:
    def test_matches_dense(self):
        A = _rand(12, 0.2, 5)
        D = csr_to_dense(A) != 0
        got = csr_to_dense(aplusat_pattern(A)) != 0
        assert np.array_equal(got, D | D.T)


class TestSymmetry:
    def test_symmetric_matrix_is_one(self):
        D = np.array([[1.0, 2.0, 0], [3.0, 1.0, 0], [0, 0, 1.0]])
        assert structural_symmetry(dense_to_csr(D)) == 1.0

    def test_asymmetric_increases(self):
        D = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert structural_symmetry(dense_to_csr(D)) > 1.0

    def test_bounds(self):
        A = _rand(20, 0.1, 11)
        s = structural_symmetry(A)
        assert 1.0 <= s <= 2.0


class TestMatvec:
    def test_matches_dense(self, rng):
        A = _rand(17, 0.25, 13)
        x = rng.uniform(-1, 1, 17)
        assert np.allclose(csr_matvec(A, x), csr_to_dense(A) @ x)

    def test_empty_rows(self):
        A = dense_to_csr(np.zeros((3, 3)))
        assert np.array_equal(csr_matvec(A, np.ones(3)), np.zeros(3))
