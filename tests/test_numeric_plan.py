"""The arena storage and its compiled :class:`NumericPlan`: hostile inputs,
layout invariants, the stacked width-1 kernel and the plan's size."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matrices import generators as g
from repro.numfact import (
    BlockLUMatrix,
    NumericPlan,
    SingularMatrixError,
    StructureViolation,
    factor_block_column,
    load_factorization,
    save_factorization,
    sstar_factor,
)
from repro.numfact.kernels import block_product
from repro.ordering import prepare_matrix
from repro.service import AnalysisCache, SolveService, analyze
from repro.sparse import CSRMatrix, coo_to_csr, csr_to_dense
from repro.supernodes import build_block_structure, build_partition
from repro.symbolic import static_symbolic_factorization

from .test_numeric_golden import load_golden, width1_sweep_record


def _pipeline(A, max_size=25, amalgamation=4):
    om = prepare_matrix(A)
    sym = static_symbolic_factorization(om.A)
    part = build_partition(sym, max_size=max_size, amalgamation=amalgamation)
    return om.A, sym, part, build_block_structure(sym, part)


@pytest.fixture(scope="module")
def fem():
    return _pipeline(g.fem_unstructured(150, 10, 0.4, seed=4))


# ---------------------------------------------------------------------------
# a matrix whose pattern is not the plan's
# ---------------------------------------------------------------------------


def _absent_block(part, bstruct):
    for I in range(part.N - 1, 0, -1):
        for J in range(I):
            if not bstruct.has_block(I, J):
                return I, J
    pytest.skip("block structure is full")


class TestWrongPattern:
    def test_extra_entry_outside_the_structure(self, fem):
        A, _, part, bstruct = fem
        BlockLUMatrix.from_csr(A, part, bstruct)  # the plan now knows A
        I, J = _absent_block(part, bstruct)
        D = csr_to_dense(A)
        D[part.start(I), part.start(J)] = 1.0
        r, c = np.nonzero(D)
        with pytest.raises(StructureViolation, match="outside the static"):
            BlockLUMatrix.from_csr(coo_to_csr(A.nrows, A.ncols, r, c, D[r, c]),
                                   part, bstruct)

    def test_permuted_indices_of_equal_length(self, fem):
        """Same ``indptr``, same number of entries, other columns: never
        scattered through the cached positions of ``A``."""
        A, _, part, bstruct = fem
        BlockLUMatrix.from_csr(A, part, bstruct)
        I, J = _absent_block(part, bstruct)
        row = part.start(I)
        lo, hi = A.indptr[row], A.indptr[row + 1]
        indices = A.indices.copy()
        # move one entry of the row into the absent block; keep the row sorted
        cols = np.setdiff1d(indices[lo:hi], [row])
        moved = np.union1d(cols[1:], [row, part.start(J)])
        assert len(moved) == hi - lo
        indices[lo:hi] = moved
        bad = CSRMatrix(A.nrows, A.ncols, A.indptr, indices, A.data)
        with pytest.raises(StructureViolation):
            BlockLUMatrix.from_csr(bad, part, bstruct)

    def test_other_pattern_inside_the_structure_is_mapped_afresh(self, fem):
        A, _, part, bstruct = fem
        BlockLUMatrix.from_csr(A, part, bstruct)
        # drop every third off-diagonal entry: a sub-pattern of A
        rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
        keep = np.ones(A.nnz, dtype=bool)
        keep[np.flatnonzero(rows != A.indices)[::3]] = False
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[keep], minlength=A.nrows))))
        sub = CSRMatrix(A.nrows, A.ncols, indptr, A.indices[keep], A.data[keep])
        m = BlockLUMatrix.from_csr(sub, part, bstruct)
        assert np.array_equal(m.to_dense(), csr_to_dense(sub))
        # and back again
        assert np.array_equal(
            BlockLUMatrix.from_csr(A, part, bstruct).to_dense(), csr_to_dense(A)
        )

    def test_wrong_shape(self, fem):
        _, _, part, bstruct = fem
        small = g.dense_matrix(5)
        with pytest.raises(StructureViolation, match="5x5"):
            BlockLUMatrix.from_csr(small, part, bstruct)

    def test_column_index_out_of_range(self, fem):
        A, _, part, bstruct = fem
        indices = A.indices.copy()
        indices[-1] = -1
        bad = CSRMatrix(A.nrows, A.ncols, A.indptr, indices, A.data)
        with pytest.raises(StructureViolation, match="out of range"):
            BlockLUMatrix.from_csr(bad, part, bstruct)

    def test_foreign_arena_rejected(self, fem):
        _, _, part, bstruct = fem
        with pytest.raises(ValueError, match="arena"):
            BlockLUMatrix(part, bstruct, arena=np.zeros(3))

    def test_stored_block_that_does_not_fit(self, fem, tmp_path):
        A, sym, part, bstruct = fem
        lu = sstar_factor(A, sym=sym, part=part, bstruct=bstruct)
        path = tmp_path / "lu.npz"
        save_factorization(path, lu)
        z = dict(np.load(path))
        I, J = z["block_keys"][0]
        z[f"blk_{I}_{J}"] = np.zeros((part.size(I) + 1, part.size(J)))
        np.savez(path, **z)
        with pytest.raises(StructureViolation, match="does not fit"):
            load_factorization(path)


# ---------------------------------------------------------------------------
# a failed job does not poison the cached pattern
# ---------------------------------------------------------------------------


def test_singular_job_fails_typed_and_next_job_is_bit_identical():
    A = g.fem_unstructured(200, 10, 0.4, seed=3)
    rng = np.random.default_rng(0)
    b = rng.standard_normal((A.nrows, 2))
    svc = SolveService(workers=2, cache=AnalysisCache())
    svc.result(svc.submit(A, b))  # primes the cache and the plan

    dead = A.data.copy()
    dead[A.indices == 5] = 0.0  # structurally fine, numerically singular
    bad = svc.submit(A.with_values(dead), b)
    svc.drain()
    assert svc.poll(bad) == "failed"
    assert isinstance(svc.job(bad).error, SingularMatrixError)
    with pytest.raises(SingularMatrixError):
        svc.result(bad)
    assert svc.metrics().jobs_failed == 1

    # the half-eliminated panel died with its matrix: the same cached
    # pattern serves the next job exactly as a service that never failed
    A2 = A.with_values(A.data * (1.0 + rng.uniform(-0.05, 0.05, A.nnz)))
    after = svc.submit(A2, b)
    x = svc.result(after)
    assert svc.job(after).cache_hit
    fresh = SolveService(workers=2, cache=AnalysisCache())
    assert fresh.result(fresh.submit(A2, b)).tobytes() == x.tobytes()


def test_singular_panel_is_half_eliminated_in_place():
    """Documented contract of the in-place Factor(K): after a
    SingularMatrixError the matrix is unusable, not restored."""
    D = np.ones((4, 4))
    A = coo_to_csr(4, 4, *np.nonzero(D), D[np.nonzero(D)])
    sym = static_symbolic_factorization(A)
    part = build_partition(sym, max_size=4, amalgamation=0)
    m = BlockLUMatrix.from_csr(A, part, build_block_structure(sym, part))
    with pytest.raises(SingularMatrixError):
        factor_block_column(m, 0)
    assert m.pivot_seq[0] is None
    assert not np.array_equal(m.to_dense(), D)


# ---------------------------------------------------------------------------
# layout invariants
# ---------------------------------------------------------------------------


class TestArenaLayout:
    def test_every_block_is_a_view_of_the_arena(self, fem):
        A, _, part, bstruct = fem
        m = BlockLUMatrix.from_csr(A, part, bstruct)
        assert set(m.blocks) == set(bstruct.nonzero_blocks())
        total = 0
        for (I, J), blk in m.blocks.items():
            assert blk.shape == (part.size(I), part.size(J))
            assert blk.flags.c_contiguous and blk.base is not None
            assert np.shares_memory(blk, m.arena)
            total += blk.size
        assert total == m.arena.size == m.plan.size  # no gaps, no overlap
        assert np.array_equal(m.to_dense(), csr_to_dense(A))

    def test_lpanel_aliases_the_l_blocks_of_every_column(self, fem):
        A, _, part, bstruct = fem
        m = BlockLUMatrix.from_csr(A, part, bstruct)
        for K in range(part.N):
            panel = m.lpanel(K)
            assert panel.flags.c_contiguous
            row = 0
            for I in bstruct.l_block_rows(K):  # K first, then ascending
                blk = m.blocks[(I, K)]
                view = panel[row : row + part.size(I)]
                assert np.shares_memory(view, blk)
                assert view.__array_interface__["data"] == blk.__array_interface__["data"]
                row += part.size(I)
            assert row == panel.shape[0]
            below = m.plan.below_diagonal(K)
            Is = [I for I in bstruct.l_block_rows(K) if I > K]
            assert [b[0] for b in below] == Is
            assert [hi - lo for _, lo, hi, _ in below] == [part.size(I) for I in Is]
            assert [b[3] for b in below] == [bstruct.l_rows_count(I, K) for I in Is]
            assert m.plan.col_srows[K] == bstruct.panel_rows_count(K)

    def test_column_subset_shares_the_arena(self, fem):
        A, _, part, bstruct = fem
        full = BlockLUMatrix.from_csr(A, part, bstruct)
        cols = list(range(0, part.N, 3))
        local = full.column_subset(cols)
        assert local.arena is full.arena
        assert set(local.blocks) == {k for k in full.blocks if k[1] in cols}
        for key, blk in local.blocks.items():
            assert blk is full.blocks[key]
        assert local.pivot_seq is not full.pivot_seq

    def test_factor_runs_in_place_on_the_panel(self, fem):
        A, _, part, bstruct = fem
        m = BlockLUMatrix.from_csr(A, part, bstruct)
        fc = factor_block_column(m, 0)

        def same_memory(a, b):
            return (a.shape == b.shape and a.strides == b.strides
                    and a.__array_interface__["data"] == b.__array_interface__["data"])

        assert same_memory(fc.panel, m.lpanel(0))
        assert same_memory(fc.diag, m.blocks[(0, 0)])
        for I, lo, hi, _ in m.plan.below_diagonal(0):
            assert same_memory(fc.lpanel[lo:hi], m.blocks[(I, 0)])


@pytest.mark.parametrize("make", [
    lambda: CSRMatrix(0, 0, [0], [], []),
    lambda: CSRMatrix(1, 1, [0, 1], [0], [-2.0]),
    lambda: g.dense_matrix(6),  # one supernode
], ids=["0x0", "1x1", "single-supernode"])
def test_degenerate_shapes(make):
    A = make()
    sym = static_symbolic_factorization(A)
    part = build_partition(sym, max_size=25, amalgamation=0)
    bstruct = build_block_structure(sym, part)
    assert part.N <= 1
    lu = sstar_factor(A, sym=sym, part=part, bstruct=bstruct)
    assert lu.matrix.arena.size == A.nrows * A.nrows
    b = np.arange(1.0, A.nrows + 1.0)
    x = lu.solve(b)
    assert np.allclose(csr_to_dense(A) @ x, b)
    assert NumericPlan.of(bstruct) is lu.matrix.plan


# ---------------------------------------------------------------------------
# the stacked width-1 kernel
# ---------------------------------------------------------------------------

_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e308, -1e308, 1e-200]),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)


@given(
    heights=st.lists(st.integers(1, 6), min_size=1, max_size=6),
    width=st.integers(1, 7),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_stacked_multiply_equals_per_block_gemm_bitwise(heights, width, data):
    """``block_product`` on a width-1 column's stacked L panel equals one
    GEMM per block, bit for bit (signed zeros included), and so do the
    updated targets — absent targets are the slices nobody subtracts."""
    rows = sum(heights)
    lpanel = np.array(
        data.draw(st.lists(_values, min_size=rows, max_size=rows))
    ).reshape(rows, 1)
    ukj = np.array(
        data.draw(st.lists(_values, min_size=width, max_size=width))
    ).reshape(1, width)
    targets = np.array(
        data.draw(st.lists(_values, min_size=rows * width, max_size=rows * width))
    ).reshape(rows, width)
    absent = data.draw(st.lists(st.booleans(), min_size=len(heights),
                                max_size=len(heights)))
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = block_product(lpanel, ukj, np.empty((rows, width)))
        lo = 0
        for h, gone in zip(heights, absent):
            lik = np.ascontiguousarray(lpanel[lo : lo + h])
            gemm = lik @ ukj
            per_block = block_product(lik, ukj, np.empty((h, width)))
            want = gemm.tobytes()
            assert stacked[lo : lo + h].tobytes() == want
            assert per_block.tobytes() == want
            if not gone:
                t = targets[lo : lo + h]
                assert (t - stacked[lo : lo + h]).tobytes() == (t - gemm).tobytes()
            lo += h


@pytest.mark.parametrize("abft", [False, True])
def test_width1_sweep_equals_per_block_path_with_absent_targets(abft):
    """Every supernode one column wide, explicit ``-0.0`` entries, negative
    pivots: the stacked sweep with merged charges leaves the arena bytes,
    pivots and counters (key order included) that the per-block path left
    at the last commit that had one — ``width1_sweep`` in
    ``tests/data/numeric_golden.json``."""
    want = load_golden()["width1_sweep"]["abft" if abft else "plain"]
    assert want["N"] == 70 and want["absent_targets"] > 0
    assert want["explicit_negative_zeros"] > 0
    assert width1_sweep_record(abft) == want


# ---------------------------------------------------------------------------
# the plan's size
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: g.stencil_3d(5, 5, 4, ndof=3),
    lambda: g.circuit_like(300, seed=2),
    lambda: g.fem_unstructured(300, 12, 0.4, seed=1),
    lambda: g.dense_matrix(40),
])
def test_plan_size_is_bounded_and_outside_the_cache_accounting(make):
    A = make()
    art, om = analyze(A)
    accounted = art.nbytes
    plan = NumericPlan.of(art.bstruct)
    BlockLUMatrix.from_csr(om.A, art.part, art.bstruct)  # caches the scatter
    nblocks = len(art.bstruct.nonzero_blocks())
    bound = 8 * om.A.nnz + 64 * nblocks
    assert 0 < plan.nbytes <= bound
    # a factor and a solve add the per-column below_diagonal tables (a
    # tuple per column, 80 B per L block) and the width-1 row table (8 B
    # per L-panel row of a width-1 column, 8 B per column)
    lu = sstar_factor(om.A, sym=art.sym, part=art.part, bstruct=art.bstruct)
    lu.solve(np.ones(A.nrows))
    N = art.part.N
    w1_rows = sum(plan.lpanel_shape(K)[0] - 1
                  for K in range(N) if art.part.size(K) == 1)
    # built by the first width-1 column a solve meets, if any
    assert (0 if plan._w1_rows is None else plan._w1_rows.size) == w1_rows
    assert plan.nbytes <= bound + 64 * N + 80 * nblocks + 8 * (w1_rows + N + 1)
    # the plan rides on the cached structure, uncharged (like the task
    # graph memo): AnalysisCache.max_bytes does not see it
    assert art.nbytes == accounted
    assert art.bstruct._numeric_plan is plan
