"""2D parallel codes: grids, sync vs async, Theorem 2 overlap bounds."""

import numpy as np
import pytest

from repro.machine import T3E
from repro.matrices import random_nonsymmetric
from repro.numfact import LUFactorization, sstar_factor
from repro.ordering import prepare_matrix
from repro.parallel import Grid2D, run_2d, buffer_requirements
from repro.sparse import csr_to_dense
from repro.supernodes import build_block_structure, build_partition
from repro.symbolic import static_symbolic_factorization


@pytest.fixture(scope="module")
def pipeline():
    A = random_nonsymmetric(90, density=0.06, seed=37)
    om = prepare_matrix(A)
    sym = static_symbolic_factorization(om.A)
    part = build_partition(sym, max_size=6, amalgamation=4)
    bstruct = build_block_structure(sym, part)
    seq = sstar_factor(om.A, sym=sym, part=part)
    return dict(om=om, sym=sym, part=part, bstruct=bstruct, seq=seq,
                dense=csr_to_dense(om.A))


def _assert_bitwise_equal(seq, factor):
    assert set(seq.matrix.blocks) == set(factor.blocks)
    for key, blk in seq.matrix.blocks.items():
        assert np.array_equal(blk, factor.blocks[key]), f"block {key} differs"
    assert seq.matrix.pivot_seq == factor.pivot_seq


class TestGrid:
    def test_preferred_shapes(self):
        assert (Grid2D.preferred(8).pr, Grid2D.preferred(8).pc) == (2, 4)
        assert (Grid2D.preferred(16).pr, Grid2D.preferred(16).pc) == (4, 4)
        g = Grid2D.preferred(128)
        assert g.nprocs == 128 and g.pc >= g.pr

    def test_rank_coords_roundtrip(self):
        g = Grid2D(3, 5)
        for rank in range(15):
            r, c = g.coords(rank)
            assert g.rank(r, c) == rank

    def test_block_owner(self):
        g = Grid2D(2, 3)
        assert g.block_owner(4, 7) == g.rank(0, 1)

    def test_row_col_ranks(self):
        g = Grid2D(2, 2)
        assert g.row_ranks(1) == [2, 3]
        assert g.col_ranks(0) == [0, 2]


class TestBitwiseAgreement:
    @pytest.mark.parametrize("synchronous", [False, True])
    @pytest.mark.parametrize("grid", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 4)])
    def test_matches_sequential(self, pipeline, synchronous, grid):
        p = pipeline
        g = Grid2D(*grid)
        res = run_2d(
            p["om"].A, p["part"], p["bstruct"], g.nprocs, T3E,
            synchronous=synchronous, grid=g,
        )
        _assert_bitwise_equal(p["seq"], res.factor)

    def test_solve_works(self, pipeline):
        p = pipeline
        res = run_2d(p["om"].A, p["part"], p["bstruct"], 4, T3E)
        lf = LUFactorization(res.factor, p["sym"], p["part"], p["bstruct"],
                             res.sim.total_counter())
        b = np.cos(np.arange(90.0))
        x = lf.solve(b)
        assert np.linalg.norm(p["dense"] @ x - b) / np.linalg.norm(b) < 1e-10


class TestOverlap:
    def test_async_overlaps_stages(self, pipeline):
        p = pipeline
        res = run_2d(p["om"].A, p["part"], p["bstruct"], 4, T3E, synchronous=False)
        assert res.overlap_degree() >= 1

    def test_sync_does_not_overlap(self, pipeline):
        p = pipeline
        res = run_2d(p["om"].A, p["part"], p["bstruct"], 4, T3E, synchronous=True)
        assert res.overlap_degree() == 0

    @pytest.mark.parametrize("grid", [(2, 2), (2, 4), (4, 2)])
    def test_theorem2_bound(self, pipeline, grid):
        """Measured overlap degree never exceeds the p_c bound."""
        p = pipeline
        g = Grid2D(*grid)
        res = run_2d(p["om"].A, p["part"], p["bstruct"], g.nprocs, T3E, grid=g)
        assert res.overlap_degree() <= g.pc

    def test_async_not_slower_than_sync(self, pipeline):
        p = pipeline
        a = run_2d(p["om"].A, p["part"], p["bstruct"], 4, T3E, synchronous=False)
        s = run_2d(p["om"].A, p["part"], p["bstruct"], 4, T3E, synchronous=True)
        assert a.parallel_seconds <= s.parallel_seconds


class TestBuffers:
    def test_report_positive(self, pipeline):
        p = pipeline
        rep = buffer_requirements(p["bstruct"], Grid2D(2, 4))
        assert rep.cbuffer > 0 and rep.rbuffer > 0
        assert rep.total >= rep.pc * rep.cbuffer

    def test_buffer_small_relative_to_matrix(self, pipeline):
        """The Theorem 2 selling point: buffers are a small multiple of a
        single panel, far below the whole-matrix footprint 1D may need."""
        p = pipeline
        rep = buffer_requirements(p["bstruct"], Grid2D(2, 4))
        matrix_bytes = sum(
            p["part"].size(I) * p["part"].size(J)
            for (I, J) in p["bstruct"].nonzero_blocks()
        ) * 8
        assert rep.total < matrix_bytes

    def test_grid_mismatch_rejected(self, pipeline):
        p = pipeline
        with pytest.raises(ValueError, match="grid"):
            run_2d(p["om"].A, p["part"], p["bstruct"], 8, T3E, grid=Grid2D(2, 2))


class TestScaling:
    def test_more_procs_not_slower(self, pipeline):
        p = pipeline
        t2 = run_2d(p["om"].A, p["part"], p["bstruct"], 2, T3E).parallel_seconds
        t8 = run_2d(p["om"].A, p["part"], p["bstruct"], 8, T3E).parallel_seconds
        # n=90 is far below the machine's scaling regime; just require that
        # the pipeline does not collapse when the grid grows
        assert t8 < t2 * 1.5
