"""Supernode detection, 2D partition, amalgamation, Theorem 1 metadata."""

import numpy as np

from repro.matrices import dense_matrix, random_nonsymmetric
from repro.supernodes import (
    BlockPartition,
    build_block_structure,
    build_partition,
    find_supernodes,
)
from repro.supernodes.amalgamate import amalgamate_supernodes, amalgamation_padding
from repro.symbolic import static_symbolic_factorization


def _sym(n=40, density=0.1, seed=0):
    from repro.ordering import prepare_matrix

    A = random_nonsymmetric(n, density=density, seed=seed)
    om = prepare_matrix(A)
    return om, static_symbolic_factorization(om.A)


class TestFindSupernodes:
    def test_boundaries_valid(self):
        _, sym = _sym()
        b = find_supernodes(sym)
        assert b[0] == 0 and b[-1] == sym.n
        assert all(x < y for x, y in zip(b, b[1:]))

    def test_nested_structure_within_supernode(self):
        _, sym = _sym(seed=3)
        b = find_supernodes(sym)
        for s, e in zip(b[:-1], b[1:]):
            for k in range(s + 1, e):
                prev = sym.lcol[k - 1]
                assert np.array_equal(prev[1:], sym.lcol[k])

    def test_max_size_respected(self):
        A = dense_matrix(30)
        sym = static_symbolic_factorization(A)
        b = find_supernodes(sym, max_size=7)
        widths = np.diff(b)
        assert widths.max() <= 7

    def test_dense_matrix_one_big_supernode_split(self):
        A = dense_matrix(20)
        sym = static_symbolic_factorization(A)
        b = find_supernodes(sym, max_size=25)
        assert b == [0, 20]


class TestBlockPartition:
    def test_block_of_mapping(self):
        p = BlockPartition(np.array([0, 3, 5, 9]))
        assert p.N == 3
        assert p.block_of.tolist() == [0, 0, 0, 1, 1, 2, 2, 2, 2]
        assert p.start(1) == 3
        assert p.size(2) == 4
        assert p.positions(1).tolist() == [3, 4]
        assert p.sizes().tolist() == [3, 2, 4]


class TestAmalgamation:
    def test_coarsens_boundaries(self):
        _, sym = _sym(n=60, seed=5)
        exact = find_supernodes(sym, max_size=25)
        relaxed = amalgamate_supernodes(sym, exact, factor=6, max_size=25)
        assert len(relaxed) <= len(exact)
        assert set(relaxed) <= set(exact)  # only removes boundaries

    def test_factor_zero_keeps_exact(self):
        _, sym = _sym(n=50, seed=6)
        exact = find_supernodes(sym, max_size=25)
        same = amalgamate_supernodes(sym, exact, factor=0, max_size=25)
        # factor=0 may still merge identical-structure runs; boundaries must
        # remain a subset either way
        assert set(same) <= set(exact)

    def test_padding_counted(self):
        _, sym = _sym(n=50, seed=7)
        exact = find_supernodes(sym, max_size=25)
        relaxed = amalgamate_supernodes(sym, exact, factor=8, max_size=25)
        assert amalgamation_padding(sym, exact) == 0
        assert amalgamation_padding(sym, relaxed) >= 0

    def test_numerics_unchanged_by_amalgamation(self):
        from repro.numfact import sstar_factor

        om, sym = _sym(n=50, seed=8)
        b = np.ones(50)
        lu0 = sstar_factor(om.A, sym=sym, amalgamation=0)
        lu6 = sstar_factor(om.A, sym=sym, amalgamation=6)
        assert np.allclose(lu0.solve(b), lu6.solve(b), rtol=1e-10)


class TestBlockStructure:
    def test_every_static_entry_covered(self):
        _, sym = _sym(n=45, seed=9)
        part = build_partition(sym, max_size=6, amalgamation=4)
        bs = build_block_structure(sym, part)
        block_of = part.block_of
        for k in range(sym.n):
            J = int(block_of[k])
            for r in sym.lcol[k]:
                I = int(block_of[r])
                assert bs.has_block(I, J), f"L entry ({r},{k}) uncovered"
            I = J
            for c in sym.urow[k]:
                Jc = int(block_of[c])
                assert bs.has_block(I, Jc), f"U entry ({k},{c}) uncovered"

    def test_theorem1_dense_subcolumns(self):
        """Without amalgamation, every U-block subcolumn flagged dense must
        be present in *every* row's structure of that block (Theorem 1)."""
        _, sym = _sym(n=45, seed=10)
        part = build_partition(sym, max_size=25, amalgamation=0)
        bs = build_block_structure(sym, part)
        for (I, J), cols in bs.udense_cols.items():
            for k in part.positions(I):
                uset = set(sym.urow[k].tolist())
                for c in cols:
                    assert int(c) in uset, (
                        f"block ({I},{J}): subcolumn {c} missing from row {k}"
                    )

    def test_corollary2_nested_u_blocks(self):
        """Corollary 1/2: if U_{i,j} and U_{i',j} are nonzero with i < i'
        and L_{i',i} nonzero, the dense subcolumns of U_{i,j} appear in
        U_{i',j}... (stated for i<i'<j with the lower coupling)."""
        _, sym = _sym(n=45, seed=11)
        part = build_partition(sym, max_size=25, amalgamation=0)
        bs = build_block_structure(sym, part)
        for (I, J), cols in bs.udense_cols.items():
            for (I2, J2), cols2 in bs.udense_cols.items():
                if J2 == J and I < I2 and bs.has_l(I2, I):
                    # subcolumns dense in the earlier block must be dense in
                    # the later one
                    missing = set(cols.tolist()) - set(cols2.tolist())
                    assert not missing, f"Corollary violated at ({I},{I2},{J})"

    def test_density_report_keys(self):
        _, sym = _sym(n=40, seed=12)
        part = build_partition(sym, max_size=8, amalgamation=4)
        bs = build_block_structure(sym, part)
        rep = bs.density_report()
        assert rep["u_blocks"] >= 0
        assert 0.0 <= rep["fully_dense_fraction"] <= 1.0

    def test_entry_counts(self):
        _, sym = _sym(n=30, seed=13)
        part = build_partition(sym, max_size=5, amalgamation=0)
        bs = build_block_structure(sym, part)
        for (I, J) in bs.nonzero_blocks():
            assert bs.block_entry_count(I, J) > 0
        assert bs.block_entry_count(0, part.N - 1) >= 0


class TestSupernodeStats:
    def test_paper_width_regime(self, contexts):
        """The paper: average supernode width is ~1.5-2 columns before
        amalgamation; our reduced analogues land in the same small-width
        regime (most supernodes are singletons)."""
        from repro.supernodes import supernode_stats

        for name in ["orsreg1", "goodwin", "lns3937", "saylr4"]:
            ctx = contexts(name)
            st = supernode_stats(ctx["sym"])
            assert 1.2 <= st["mean_width"] <= 3.5, (name, st)
            assert st["singletons"] > st["count"] / 2, name

    def test_dense_matrix_wide_supernodes(self):
        from repro.matrices import dense_matrix
        from repro.supernodes import supernode_stats
        from repro.symbolic import static_symbolic_factorization

        sym = static_symbolic_factorization(dense_matrix(50, seed=0))
        st = supernode_stats(sym, max_size=25)
        assert st["mean_width"] == 25.0
        assert st["singletons"] == 0

    def test_counts_consistent(self, contexts):
        from repro.supernodes import supernode_stats, find_supernodes

        ctx = contexts("sherman5")
        st = supernode_stats(ctx["sym"])
        bounds = find_supernodes(ctx["sym"], max_size=25)
        assert st["count"] == len(bounds) - 1


# -- per-entry loop references for the vectorised projections ---------------


def find_supernodes_loop(sym, max_size):
    bounds, start = [0], 0
    for k in range(1, sym.n):
        same = np.array_equal(sym.lcol[k - 1][1:], sym.lcol[k])
        if not same or k - start >= max_size:
            bounds.append(k)
            start = k
    return bounds + [sym.n]


def amalgamate_loop(sym, bounds, factor, max_size):
    out, start = [bounds[0]], bounds[0]
    for b, c in zip(bounds[1:-1], bounds[2:]):
        merge = c - start <= max_size and factor >= sum(
            len(np.setxor1d(x[start][x[start] >= c], x[b][x[b] >= c]))
            for x in (sym.lcol, sym.urow)
        )
        if not merge:
            out.append(b)
            start = b
    return out + [bounds[-1]]


def block_structure_loop(sym, part):
    """One ``set.add`` per factor entry, as Section 3.2 reads."""
    lrows, udense = {}, {}
    for k in range(sym.n):
        J = int(part.block_of[k])
        for r in sym.lcol[k].tolist():
            lrows.setdefault((int(part.block_of[r]), J), set()).add(r)
        for c in sym.urow[k].tolist():
            if part.block_of[c] != J:
                udense.setdefault((J, int(part.block_of[c])), set()).add(c)
    return lrows, udense


class TestAgainstLoopReferences:
    CASES = [(30, 0.1, 0), (45, 0.08, 1), (60, 0.05, 2), (25, 0.3, 3), (1, 1.0, 4)]

    def test_supernodes_and_amalgamation(self):
        for n, density, seed in self.CASES:
            _, sym = _sym(n=n, density=density, seed=seed)
            for max_size in (1, 3, 25):
                exact = find_supernodes(sym, max_size=max_size)
                assert exact == find_supernodes_loop(sym, max_size)
                for factor in (0, 4, 12):
                    assert amalgamate_supernodes(
                        sym, exact, factor=factor, max_size=max_size
                    ) == amalgamate_loop(sym, exact, factor, max_size)

    def test_block_structure_on_arbitrary_partitions(self, rng):
        for n, density, seed in self.CASES:
            _, sym = _sym(n=n, density=density, seed=seed)
            cuts = np.flatnonzero(rng.random(n - 1) < 0.3) + 1
            for bounds in ([0, n], list(range(n + 1)), [0, *cuts.tolist(), n]):
                part = BlockPartition(np.array(bounds))
                bs = build_block_structure(sym, part)
                lrows, udense = block_structure_loop(sym, part)
                for got, ref in ((bs.lrows, lrows), (bs.udense_cols, udense)):
                    assert {k: v.tolist() for k, v in got.items()} == {
                        k: sorted(v) for k, v in ref.items()
                    }
                assert bs.lblocks == {
                    J: sorted(I for I, J2 in lrows if J2 == J) for J in range(part.N)
                }
                assert bs.ublocks == {
                    I: sorted(J for I2, J in udense if I2 == I)
                    for I in {I for I, _ in udense}
                }
