"""Per-processor memory modeling: the 1D-vs-2D scalability argument."""

import pytest

from repro.analysis import (
    footprint_1d,
    footprint_2d,
    sequential_storage_bytes,
)
from repro.analysis.memory import owned_bytes
from repro.machine import T3E
from repro.matrices import get_matrix
from repro.ordering import prepare_matrix
from repro.parallel import Grid2D, run_1d
from repro.parallel.mapping import ColumnMapping
from repro.supernodes import build_block_structure, build_partition
from repro.symbolic import static_symbolic_factorization


@pytest.fixture(scope="module")
def pipeline():
    A = get_matrix("goodwin", "small")
    om = prepare_matrix(A)
    sym = static_symbolic_factorization(om.A)
    part = build_partition(sym, max_size=8, amalgamation=4)
    bstruct = build_block_structure(sym, part)
    return om, sym, part, bstruct


class TestAccounting:
    def test_owned_bytes_partition_the_matrix(self, pipeline):
        om, sym, part, bstruct = pipeline
        s1 = sequential_storage_bytes(bstruct)
        grid = Grid2D(2, 4)
        assert sum(owned_bytes(bstruct, grid, 8)) == s1
        res = run_1d(om.A, part, bstruct, 8, T3E, method="rapid")
        owner = ColumnMapping(res.schedule.owner)
        assert sum(owned_bytes(bstruct, owner, 8)) == s1

    def test_sequential_bytes_positive(self, pipeline):
        _, _, _, bstruct = pipeline
        assert sequential_storage_bytes(bstruct) > 0


class TestFootprints:
    def test_2d_footprint_scales_down(self, pipeline):
        """The paper's claim: 2D per-node memory ~ S1/p + small buffers."""
        _, _, _, bstruct = pipeline
        f2 = footprint_2d(bstruct, Grid2D(2, 4))
        f8 = footprint_2d(bstruct, Grid2D(4, 8))
        assert f2.peak < sequential_storage_bytes(bstruct)
        assert f8.data_peak < f2.data_peak
        assert 0 < f2.fraction_of_s1 < 1.0

    def test_1d_footprint_includes_buffers(self, pipeline):
        om, sym, part, bstruct = pipeline
        res = run_1d(om.A, part, bstruct, 8, T3E, method="rapid")
        f1 = footprint_1d(bstruct, res.schedule.owner, res.buffer_high_water)
        assert f1.buffer_peak > 0
        assert f1.peak >= f1.data_peak

    def test_2d_beats_1d_at_scale(self, pipeline):
        """At large P the 2D peak footprint falls below 1D's (the reason
        Table 6's large matrices only ran under the 2D mapping)."""
        om, sym, part, bstruct = pipeline
        res = run_1d(om.A, part, bstruct, 16, T3E, method="rapid")
        f1 = footprint_1d(bstruct, res.schedule.owner, res.buffer_high_water)
        f2 = footprint_2d(bstruct, Grid2D.preferred(16))
        assert f2.data_peak <= f1.data_peak * 1.5
        # the decisive comparison: 2D's *fraction of S1* keeps shrinking
        f2_big = footprint_2d(bstruct, Grid2D.preferred(64))
        assert f2_big.data_peak < f2.data_peak

    def test_fits_budget(self, pipeline):
        _, _, _, bstruct = pipeline
        f2 = footprint_2d(bstruct, Grid2D(2, 4))
        assert f2.fits(f2.peak)
        assert not f2.fits(f2.peak - 1)
