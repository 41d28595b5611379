"""Transversal, minimum degree and the ordering pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matrices import random_nonsymmetric, stencil_2d
from repro.ordering import (
    is_structurally_nonsingular,
    maximum_transversal,
    minimum_degree,
    prepare_matrix,
)
from repro.matrices import generators
from repro.sparse import CSRMatrix, aplusat_pattern, ata_pattern, coo_to_csr, csr_to_dense
from repro.symbolic.cholesky_bound import cholesky_ata_structure

from .reference_ordering import reference_minimum_degree


class TestTransversal:
    def test_identity_when_diagonal_full(self):
        A = random_nonsymmetric(25, seed=1)  # zero-free diagonal by default
        perm, matched = maximum_transversal(A)
        assert matched == 25
        assert A.permute(row_perm=perm).has_zero_free_diagonal()

    def test_fixes_cyclic_shift(self):
        # matrix with nonzeros only on the superdiagonal cycle
        n = 6
        rows = list(range(n))
        cols = [(i + 1) % n for i in range(n)]
        A = coo_to_csr(n, n, rows, cols, np.ones(n))
        perm, matched = maximum_transversal(A)
        assert matched == n
        assert A.permute(row_perm=perm).has_zero_free_diagonal()

    def test_structurally_singular_detected(self):
        # column 2 is empty
        A = coo_to_csr(3, 3, [0, 1, 2], [0, 1, 0], [1, 1, 1])
        _, matched = maximum_transversal(A)
        assert matched == 2
        assert not is_structurally_nonsingular(A)

    def test_requires_square(self):
        A = coo_to_csr(2, 3, [0], [0], [1.0])
        with pytest.raises(ValueError, match="square"):
            maximum_transversal(A)

    def test_needs_augmenting_paths(self):
        # bipartite pattern where the cheap pass cannot finish:
        # col0: rows {0,1}; col1: rows {0}; cheap assigns row0->col0 then
        # col1 must steal row0 via augmentation.
        A = coo_to_csr(2, 2, [0, 1, 0], [0, 0, 1], [1, 1, 1])
        perm, matched = maximum_transversal(A)
        assert matched == 2
        assert A.permute(row_perm=perm).has_zero_free_diagonal()

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_scipy_matching_size(self, seed):
        pytest.importorskip("scipy")
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import maximum_bipartite_matching

        rng = np.random.default_rng(seed)
        n = 12
        mask = rng.random((n, n)) < 0.15
        rows, cols = np.nonzero(mask)
        A = coo_to_csr(n, n, rows, cols, np.ones(len(rows)))
        _, matched = maximum_transversal(A)
        S = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        ref = int(np.count_nonzero(maximum_bipartite_matching(S, perm_type="row") >= 0))
        assert matched == ref

    def test_permutation_is_valid(self):
        A = random_nonsymmetric(40, density=0.1, seed=5, zero_free_diagonal=False)
        perm, _ = maximum_transversal(A)
        assert sorted(perm.tolist()) == list(range(40))


class TestMinimumDegree:
    def test_returns_permutation(self):
        G = ata_pattern(random_nonsymmetric(30, seed=2))
        res = minimum_degree(G)
        assert sorted(res.perm.tolist()) == list(range(30))

    def test_reduces_fill_on_grid(self):
        from repro.symbolic import static_symbolic_factorization

        A = stencil_2d(9, 9, seed=0)
        om_natural = prepare_matrix(A, use_mindeg=False)
        om_md = prepare_matrix(A, use_mindeg=True)
        f_nat = static_symbolic_factorization(om_natural.A).factor_entries
        f_md = static_symbolic_factorization(om_md.A).factor_entries
        assert f_md < f_nat

    def test_single_elimination_mode(self):
        G = ata_pattern(random_nonsymmetric(15, seed=3))
        res = minimum_degree(G, multiple=False)
        assert sorted(res.perm.tolist()) == list(range(15))


def _graph(n, edges, one_directional=False):
    """Pattern with an entry per edge — both directions, or only the one given."""
    rows = [i for i, _ in edges]
    cols = [j for _, j in edges]
    if not one_directional:
        rows, cols = rows + cols, cols + rows
    return coo_to_csr(n, n, rows, cols, np.ones(len(rows)))


def _cholesky_fill(G, perm):
    """Fill of the symbolic Cholesky factor of ``G[perm, perm]`` — computed
    by the etree column merge, which shares no code with the elimination."""
    Gp = aplusat_pattern(G).permute(row_perm=perm, col_perm=perm)
    off_diagonal = sum(
        int(np.count_nonzero(Gp.row_indices(i) > i)) for i in range(Gp.nrows)
    )
    return sum(len(c) - 1 for c in cholesky_ata_structure(Gp)) - off_diagonal


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 14))
    pair = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = draw(st.lists(pair, max_size=3 * n)) if n else []
    return _graph(n, edges, one_directional=draw(st.booleans()))


class TestMinimumDegreeOracles:
    """Properties checked against code that is not the elimination itself:
    the frozen pre-PR-23 implementation and symbolic Cholesky."""

    @given(graphs(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_random_graphs(self, G, multiple):
        res = minimum_degree(G, multiple=multiple)
        assert res.perm.dtype == np.int64
        assert sorted(res.perm.tolist()) == list(range(G.nrows))
        ref_perm, ref_fill = reference_minimum_degree(G, multiple=multiple)
        assert np.array_equal(res.perm, ref_perm)
        assert res.fill_edges == ref_fill == _cholesky_fill(G, res.perm)

    @pytest.mark.parametrize("multiple", [True, False])
    @pytest.mark.parametrize("make, fill", [
        # the cold_solve generators on a seed no golden uses
        (lambda: generators.fem_unstructured(600, 12, 0.4, seed=3), 5599),
        (lambda: generators.circuit_like(450, seed=3), 25820),
    ])
    def test_cold_solve_patterns(self, make, fill, multiple):
        A = make()
        trans, _ = maximum_transversal(A)
        G = ata_pattern(A.permute(row_perm=trans))
        res = minimum_degree(G, multiple=multiple)
        ref_perm, ref_fill = reference_minimum_degree(G, multiple=multiple)
        assert np.array_equal(res.perm, ref_perm)
        assert res.fill_edges == ref_fill == _cholesky_fill(G, res.perm)
        if multiple:
            assert res.fill_edges == fill

    def test_mass_elimination_takes_a_clique_at_once(self):
        # K5 plus a pendant path: the clique's nodes are indistinguishable
        edges = [(i, j) for i in range(5) for j in range(i)] + [(5, 6), (6, 7)]
        res = minimum_degree(_graph(8, edges))
        assert res.fill_edges == 0
        ref_perm, _ = reference_minimum_degree(_graph(8, edges))
        assert np.array_equal(res.perm, ref_perm)

    def test_isolated_vertices_come_first_in_index_order(self):
        res = minimum_degree(_graph(6, [(1, 4)]))
        assert res.perm.tolist() == [0, 2, 3, 5, 1, 4]
        assert res.fill_edges == 0


class TestMinimumDegreeInputs:
    def test_empty_and_single_node(self):
        assert minimum_degree(_graph(0, [])).perm.tolist() == []
        one = minimum_degree(_graph(1, [(0, 0)]))
        assert (one.perm.tolist(), one.fill_edges) == ([0], 0)

    def test_one_directional_pattern_is_symmetrised(self):
        edges = [(0, 3), (3, 1), (1, 4), (4, 2), (0, 2), (3, 4)]
        one_way = minimum_degree(_graph(5, edges, one_directional=True))
        both = minimum_degree(_graph(5, edges))
        assert np.array_equal(one_way.perm, both.perm)
        assert one_way.fill_edges == both.fill_edges

    def test_rejects_rectangular_pattern(self):
        G = coo_to_csr(3, 4, [0, 1], [1, 3], [1, 1])
        with pytest.raises(ValueError, match=r"square.*\(3, 4\)"):
            minimum_degree(G)

    @pytest.mark.parametrize("bad", [3, 7, -1])
    def test_rejects_out_of_range_column_index(self, bad):
        # CSRMatrix itself does not range-check indices
        G = CSRMatrix(3, 3, [0, 1, 2, 2], [1, bad])
        with pytest.raises(ValueError, match=rf"column index {bad} outside \[0, 3\)"):
            minimum_degree(G)


class TestPipeline:
    def test_output_has_zero_free_diagonal(self):
        A = random_nonsymmetric(50, density=0.08, seed=7, zero_free_diagonal=False)
        om = prepare_matrix(A)
        assert om.A.has_zero_free_diagonal()

    def test_permutation_consistency(self):
        A = random_nonsymmetric(30, density=0.15, seed=9)
        om = prepare_matrix(A)
        D = csr_to_dense(A)
        Dp = csr_to_dense(om.A)
        assert np.array_equal(Dp, D[np.ix_(om.row_perm, om.col_perm)])

    def test_rejects_structurally_singular(self):
        A = coo_to_csr(3, 3, [0, 1, 2], [0, 0, 0], [1, 1, 1])
        with pytest.raises(ValueError, match="singular"):
            prepare_matrix(A)

    def test_rejects_rectangular(self):
        A = coo_to_csr(2, 3, [0, 1], [0, 1], [1, 1])
        with pytest.raises(ValueError, match="square"):
            prepare_matrix(A)
