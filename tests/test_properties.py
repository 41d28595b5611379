"""Hypothesis property tests over the end-to-end pipeline."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import SStarSolver
from repro.machine import T3E
from repro.matrices import random_nonsymmetric
from repro.numfact import sstar_factor
from repro.ordering import prepare_matrix
from repro.parallel import run_1d, run_2d
from repro.sparse import csr_matvec, csr_to_dense
from repro.supernodes import build_block_structure, build_partition
from repro.symbolic import static_symbolic_factorization


matrix_params = st.tuples(
    st.integers(12, 48),  # n
    st.integers(0, 10_000),  # seed
    st.sampled_from([0.05, 0.1, 0.2]),  # density
)


@given(matrix_params)
@settings(max_examples=25, deadline=None)
def test_end_to_end_solve(params):
    n, seed, density = params
    A = random_nonsymmetric(n, density=density, seed=seed)
    s = SStarSolver(block_size=6).factor(A)
    b = np.arange(1.0, n + 1.0)
    x = s.solve(b)
    r = np.linalg.norm(csr_matvec(A, x) - b) / np.linalg.norm(b)
    assert r < 1e-7


@given(matrix_params)
@settings(max_examples=12, deadline=None)
def test_parallel_codes_bitwise_equal(params):
    n, seed, density = params
    A = random_nonsymmetric(n, density=density, seed=seed)
    om = prepare_matrix(A)
    sym = static_symbolic_factorization(om.A)
    part = build_partition(sym, max_size=5, amalgamation=3)
    bstruct = build_block_structure(sym, part)
    seq = sstar_factor(om.A, sym=sym, part=part)
    r1 = run_1d(om.A, part, bstruct, 3, T3E, method="rapid")
    r2 = run_2d(om.A, part, bstruct, 4, T3E)
    for key, blk in seq.matrix.blocks.items():
        assert np.array_equal(blk, r1.factor.blocks[key])
        assert np.array_equal(blk, r2.factor.blocks[key])


@given(st.integers(8, 40), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_static_structure_invariants(n, seed):
    A = random_nonsymmetric(n, density=0.12, seed=seed)
    om = prepare_matrix(A)
    sym = static_symbolic_factorization(om.A)
    for k in range(n):
        # diagonal present, entries sorted, within range
        assert sym.lcol[k][0] == k
        assert sym.urow[k][0] == k
        assert np.all(np.diff(sym.lcol[k]) > 0)
        assert np.all(np.diff(sym.urow[k]) > 0)
        assert sym.lcol[k][-1] < n and sym.urow[k][-1] < n


@given(st.integers(6, 30), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_partition_covers_range(n, seed):
    A = random_nonsymmetric(n, density=0.15, seed=seed)
    om = prepare_matrix(A)
    sym = static_symbolic_factorization(om.A)
    part = build_partition(sym, max_size=4, amalgamation=2)
    assert part.bounds[0] == 0 and part.bounds[-1] == n
    assert np.all(np.diff(part.bounds) >= 1)
    # block_of consistent with bounds
    for b in range(part.N):
        assert np.all(part.block_of[part.positions(b)] == b)


@given(st.integers(10, 40), st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_factor_entries_monotone_in_prediction(n, seed):
    """static >= dynamic factor entries, and Cholesky(AtA) >= static."""
    from repro.baselines import superlu_like_factor
    from repro.sparse import ata_pattern
    from repro.symbolic import cholesky_ata_structure
    from repro.symbolic.cholesky_bound import cholesky_factor_entries

    A = random_nonsymmetric(n, density=0.12, seed=seed)
    om = prepare_matrix(A)
    sym = static_symbolic_factorization(om.A)
    dyn = superlu_like_factor(om.A)
    chol = cholesky_ata_structure(ata_pattern(om.A))
    assert sym.factor_entries >= dyn.factor_entries
    assert cholesky_factor_entries(chol) >= sym.factor_entries


@given(st.integers(5, 25), st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_solution_matches_numpy(n, seed):
    A = random_nonsymmetric(n, density=0.25, seed=seed)
    D = csr_to_dense(A)
    if abs(np.linalg.det(D)) < 1e-8:
        return  # skip near-singular draws
    s = SStarSolver(block_size=4).factor(A)
    b = np.ones(n)
    assert np.allclose(s.solve(b), np.linalg.solve(D, b), rtol=1e-5, atol=1e-7)


@given(matrix_params)
@settings(max_examples=8, deadline=None)
def test_distributed_trisolves_bitwise(params):
    """Property: both distributed triangular solvers are bitwise equal to
    the sequential solver for arbitrary matrices and rhs."""
    from repro.numfact import LUFactorization
    from repro.parallel import run_1d_trisolve, run_2d_trisolve

    n, seed, density = params
    A = random_nonsymmetric(n, density=density, seed=seed)
    om = prepare_matrix(A)
    sym = static_symbolic_factorization(om.A)
    part = build_partition(sym, max_size=5, amalgamation=3)
    bstruct = build_block_structure(sym, part)
    r1 = run_1d(om.A, part, bstruct, 3, T3E, method="rapid")
    lu = LUFactorization(r1.factor, sym, part, bstruct, r1.sim.total_counter())
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1, 1, n)
    ref = lu.solve(b)
    t1 = run_1d_trisolve(lu, r1.schedule.owner, b, 3, T3E)
    assert np.array_equal(t1.x, ref)
    r2 = run_2d(om.A, part, bstruct, 4, T3E)
    lu2 = LUFactorization(r2.factor, sym, part, bstruct, r2.sim.total_counter())
    t2 = run_2d_trisolve(lu2, b, 4, T3E, grid=r2.grid)
    assert np.array_equal(t2.x, lu2.solve(b))


@given(st.integers(10, 40), st.integers(0, 10_000),
       st.sampled_from([1.0, 0.5, 0.1]))
@settings(max_examples=12, deadline=None)
def test_threshold_pivoting_stays_accurate(n, seed, u):
    """Property: threshold pivoting still yields a usable factorization —
    one refinement step reaches near-roundoff backward error."""
    from repro import SStarSolver
    from repro.analysis import iterative_refinement

    A = random_nonsymmetric(n, density=0.15, seed=seed)
    s = SStarSolver(block_size=5, pivot_threshold=u).factor(A)
    b = np.ones(n)
    _, hist = iterative_refinement(A, s.solve, b, max_iters=3)
    assert hist[-1] < 1e-10


@given(st.integers(10, 35), st.integers(0, 10_000))
@settings(max_examples=12, deadline=None)
def test_ordering_variants_all_solve(n, seed):
    """Property: every ordering strategy yields a correct factorization."""
    from repro.sparse import csr_to_dense

    A = random_nonsymmetric(n, density=0.15, seed=seed)
    for ordering in ("mindeg-ata", "mindeg-aplusat", "natural"):
        om = prepare_matrix(A, ordering=ordering)
        lu = sstar_factor(om.A, block_size=5)
        D = csr_to_dense(om.A)
        b = np.arange(1.0, n + 1.0)
        x = lu.solve(b)
        assert np.linalg.norm(D @ x - b) / np.linalg.norm(b) < 1e-7
