"""Additional symbolic-layer behaviours: density growth, sharing, bounds."""

import pytest

from repro.matrices import (
    dense_matrix,
    nearly_dense_row,
    random_nonsymmetric,
    stencil_2d,
)
from repro.ordering import prepare_matrix
from repro.sparse import ata_pattern
from repro.symbolic import (
    cholesky_ata_structure,
    static_symbolic_factorization,
    elementwise_ops,
)
from repro.symbolic.cholesky_bound import cholesky_factor_entries


class TestPathologies:
    def test_nearly_dense_row_explodes_static_fill(self):
        """The memplus failure mode: overestimation ratio balloons."""
        from repro.baselines import superlu_like_factor

        A = nearly_dense_row(120, row_fill=0.7, seed=3)
        om = prepare_matrix(A)
        sym = static_symbolic_factorization(om.A)
        dyn = superlu_like_factor(om.A)
        ratio = sym.factor_entries / dyn.factor_entries
        B = random_nonsymmetric(120, density=0.02, seed=3)
        omb = prepare_matrix(B)
        symb = static_symbolic_factorization(omb.A)
        dynb = superlu_like_factor(omb.A)
        ratio_normal = symb.factor_entries / dynb.factor_entries
        assert ratio > ratio_normal

    def test_dense_matrix_ops_match_closed_form(self):
        """On a dense matrix the elementwise op count is the classical
        2/3 n^3 + O(n^2)."""
        n = 30
        A = dense_matrix(n, seed=0)
        sym = static_symbolic_factorization(A)
        ops = elementwise_ops(sym.lcol, sym.urow)
        closed = sum((n - k - 1) + 2.0 * (n - k - 1) ** 2 for k in range(n))
        assert ops == pytest.approx(closed)

    def test_grid_fill_well_below_cholesky_bound(self):
        A = stencil_2d(10, 10, seed=2)
        om = prepare_matrix(A)
        sym = static_symbolic_factorization(om.A)
        chol = cholesky_ata_structure(ata_pattern(om.A))
        assert sym.factor_entries < cholesky_factor_entries(chol)


class TestStructureSharing:
    def test_groups_share_after_union(self):
        """Rows merged at a step share one structure object (the efficiency
        trick) — verify via the equality the paper's Theorem 1 needs."""
        A = random_nonsymmetric(40, density=0.12, seed=11)
        om = prepare_matrix(A)
        sym = static_symbolic_factorization(om.A)
        for k in range(om.n):
            trailing = set(sym.urow[k].tolist())
            # every candidate row's final U structure beyond its own pivot
            # position is consistent with the union property: candidates
            # at step k have urow[r] ⊇ (urow[k] restricted to >= r)
            for r in sym.lcol[k]:
                r = int(r)
                if r == k:
                    continue
                mine = set(sym.urow[r].tolist())
                assert {c for c in trailing if c >= r} <= mine
