"""Numeric kernels chosen by supernode shape, and proof that the choice
moves no bit: the product rule against ``np.matmul``, the width-1 solve
against the frozen per-block solve of ``tests/reference_numfact.py``, the
charge a ``1 x 1`` triangle leaves, and the plan's width-1 row table.
The inverted unit triangle, which does move bits, is pinned here for what
must not move: its exact structure, the TRSM charge it keeps, and one
inverse per column in the factor's side arena."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matrices import generators as g
from repro.numfact import (
    KernelCounter,
    NumericPlan,
    load_factorization,
    save_factorization,
    sstar_factor,
    unit_lower_apply,
    unit_lower_inverse,
)
from repro.numfact.kernels import block_product, trsm_charge
from repro.service import analyze
from repro.sparse import csr_to_dense

from .reference_numfact import (
    reference_block_product,
    reference_solve,
    reference_unit_lower_solve,
)
from .test_numeric_plan import _values

_with_inf = st.one_of(_values, st.sampled_from([np.inf, -np.inf]))


def _matrix(draw, rows, cols):
    return np.array(draw(st.lists(_with_inf, min_size=rows * cols,
                                  max_size=rows * cols))).reshape(rows, cols)


@given(m=st.integers(1, 7), k=st.integers(1, 7), n=st.integers(1, 7),
       data=st.data())
@settings(max_examples=400, deadline=None)
def test_block_product_is_matmul_bitwise(m, k, n, data):
    """Every shape the kernels dispatch on — inner dimension 1 (the outer
    products of width-1 columns, 1 x 1 results included) and 2-7 — gives
    the bytes of ``np.matmul``: signed zeros, subnormals, overflow and the
    NaN of ``0 * inf`` included."""
    A = _matrix(data.draw, m, k)
    B = _matrix(data.draw, k, n)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        want = np.matmul(A, B)
        got = block_product(A, B, np.empty((m, n)))
        old = reference_block_product(A, B, np.empty((m, n)))
    assert got.tobytes() == want.tobytes()
    if np.isfinite(A).all() and np.isfinite(B).all():
        assert old.tobytes() == want.tobytes()


def test_block_product_on_wide_random_shapes():
    """The shapes the benchmark patterns produce, up to 25 wide."""
    rng = np.random.default_rng(25)
    for _ in range(300):
        m = int(rng.choice([1, 2, 3, 7, 25]))
        k = int(rng.integers(1, 26))
        n = int(rng.choice([1, 2, 3, 13, 25]))
        A, B = rng.standard_normal((m, k)), rng.standard_normal((k, n))
        assert block_product(A, B, np.empty((m, n))).tobytes() == (A @ B).tobytes()


# ---------------------------------------------------------------------------
# the width-1 solve
# ---------------------------------------------------------------------------


def _negzero(A, every):
    """All values negative (so are the pivots), every ``every``-th
    off-diagonal entry an explicit ``-0.0``."""
    data = -np.abs(A.data)
    rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
    data[np.flatnonzero(rows != A.indices)[::every]] = -0.0
    return A.with_values(data)


@pytest.fixture(scope="module", params=["all-width-1", "mixed-widths"])
def factored(request):
    if request.param == "all-width-1":
        A, block_size = _negzero(g.random_nonsymmetric(70, density=0.07, seed=11), 4), 1
    else:
        A, block_size = _negzero(g.circuit_like(300, seed=2), 5), 25
    art, om = analyze(A, block_size=block_size, amalgamation=0)
    lu = sstar_factor(om.A, sym=art.sym, part=art.part, bstruct=art.bstruct)
    widths = np.diff(art.part.bounds)
    assert (widths == 1).mean() >= 0.7 and lu.num_interchanges() > 0
    assert np.any((om.A.data == 0.0) & np.signbit(om.A.data))
    return lu


def _inverse_product(L, xk):
    """The wide columns' rule: one product with a freshly built inverse."""
    unit_lower_apply(unit_lower_inverse(L), xk)


def _rhs(n, shape, scale):
    rng = np.random.default_rng(7)
    b = rng.standard_normal((n,) + shape) * scale
    b[::6] = -0.0
    return b


@pytest.mark.parametrize("shape", [(), (3,)], ids=["vector", "n-by-3"])
@pytest.mark.parametrize("scale", [1.0, 1e-310, 1e-323],
                         ids=["normal", "subnormal", "underflow"])
def test_width1_solve_equals_per_block_reference(factored, shape, scale):
    """The stacked forward product and the direct 1 x 1 divide give the
    bytes the per-block sweep gave — with ``-0.0`` right-hand-side entries,
    real interchanges and products that underflow."""
    b = _rhs(factored.n, shape, scale)
    with np.errstate(under="ignore"):
        got = factored.solve(b)
        want = reference_solve(factored, b, lower_solve=_inverse_product)
    assert got.shape == b.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the charge of a 1 x 1 unit triangle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ncols, kernel", [(1, "dgemv"), (2, "dgemm"), (5, "dgemm")])
def test_unit_lower_apply_on_1x1_leaves_its_charge_unchanged(ncols, kernel):
    """The identity solve adds ``FLOP_TRSM(1, ncols)`` at granularity 1, as
    a new key after the keys already there — the charge the width-1 update
    adds in its place."""
    c = KernelCounter()
    c.add("blas1", 3.0)
    c.add("dgemv", 2.0, gran=1)
    B = np.array([[-0.0, 2.5, np.nextafter(0.0, 1.0)]])
    before = B.tobytes()
    unit_lower_apply(None, B)
    assert B.tobytes() == before
    got_kernel, gran, flops = trsm_charge(1, ncols)
    c.add(got_kernel, flops, gran)
    want = {("blas1", None): 3.0, ("dgemv", 1): 2.0}
    want[(kernel, 1)] = want.get((kernel, 1), 0.0) + float(ncols)
    assert list(c.by_gran.items()) == list(want.items())


# ---------------------------------------------------------------------------
# the plan's width-1 row table
# ---------------------------------------------------------------------------


def test_width1_rows_are_built_on_the_first_solve_and_counted(factored):
    plan = factored.matrix.plan
    fresh = NumericPlan(factored.bstruct)
    assert fresh._w1_rows is None  # nothing built with the plan
    base = fresh.nbytes
    bounds = factored.part.bounds
    for K in range(factored.part.N):
        rows = fresh.width1_rows(K)
        if factored.part.size(K) != 1:
            assert len(rows) == 0
            continue
        want = [r for I, _, _, _ in fresh.below_diagonal(K)
                for r in range(bounds[I], bounds[I + 1])]
        assert rows.tolist() == want
        assert len(rows) == fresh.lpanel_shape(K)[0] - 1
    below = sum(64 + 80 * len(fresh.below_diagonal(K)) for K in range(factored.part.N))
    shapes = 128 * factored.part.N  # the column table, built above
    assert fresh.nbytes - base - below - shapes == (
        fresh._w1_rows.nbytes + fresh._w1_ptr.nbytes)
    factored.solve(np.ones(factored.n))  # builds the factor's own table
    assert plan._w1_rows is not None
    assert np.array_equal(plan._w1_rows, fresh._w1_rows)


def test_width1_rows_of_a_pattern_without_width1_columns():
    A = g.dense_matrix(12)
    art, om = analyze(A)
    lu = sstar_factor(om.A, sym=art.sym, part=art.part, bstruct=art.bstruct)
    assert lu.part.N == 1
    x = lu.solve(np.ones(12))
    assert lu.matrix.plan.width1_rows(0).size == 0
    assert np.allclose(csr_to_dense(om.A) @ x, 1.0)


# ---------------------------------------------------------------------------
# the inverted unit triangle
# ---------------------------------------------------------------------------


def _unit_lower(rng, k, scale=1.0):
    """A unit lower triangle under garbage: ``unit_lower_inverse`` must
    read only the strictly-lower part."""
    L = rng.uniform(-scale, scale, (k, k))
    L[np.diag_indices(k)] = 7.0
    return L


@pytest.mark.parametrize("scale", [1.0, 10.0], ids=["partial", "threshold-0.1"])
def test_unit_lower_inverse_is_exactly_unit_lower_triangular(scale):
    """Zeros above the diagonal and ones on it are exact — also for the
    multipliers up to ``1 / u`` that threshold pivoting allows, where
    LAPACK's pivoting ``inv`` leaves rounding noise above the diagonal —
    and the values are the inverse of the triangle."""
    rng = np.random.default_rng(26)
    for k in range(1, 26):
        L = _unit_lower(rng, k, scale)
        T = np.tril(L, -1) + np.eye(k)
        X = unit_lower_inverse(L)
        assert not np.triu(X, 1).any() and (np.diag(X) == 1.0).all()
        assert np.allclose(X @ T, np.eye(k), rtol=0, atol=1e-12 * scale**k)


def test_unit_lower_inverse_of_the_wilkinson_triangle_is_exact():
    """Multipliers all ``-1``: the inverse holds ``2^(i-j-1)`` below the
    diagonal, sums of powers of two, so every entry is exact."""
    k = 25
    L = np.tril(-np.ones((k, k)), -1) + np.eye(k)
    i, j = np.tril_indices(k, -1)
    want = np.eye(k)
    want[i, j] = 2.0 ** (i - j - 1)
    assert unit_lower_inverse(L).tobytes() == want.tobytes()


def test_unit_lower_inverse_writes_out_and_does_not_read_it():
    rng = np.random.default_rng(3)
    L = _unit_lower(rng, 6)
    out = np.full((6, 6), np.nan)
    assert unit_lower_inverse(L, out=out) is out
    assert out.tobytes() == unit_lower_inverse(L).tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 8, 25])
@pytest.mark.parametrize("ncols, structural, vector", [
    (1, None, True), (1, None, False), (4, None, False), (4, 1, False),
    (4, 3, False)])
def test_unit_lower_apply_charges_what_the_row_loop_charged(k, ncols, structural, vector):
    """Same kernel class, flops and granularity as the frozen row loop,
    and the same solution to rounding."""
    rng = np.random.default_rng(k)
    L = _unit_lower(rng, k)
    B = rng.standard_normal(k if vector else (k, ncols))
    got, want = B.copy(), B.copy()
    c_got, c_want = KernelCounter(), KernelCounter()
    unit_lower_apply(unit_lower_inverse(L), got)
    kernel, gran, flops = trsm_charge(
        k, (1 if vector else ncols) if structural is None else structural)
    c_got.add(kernel, flops, gran)
    reference_unit_lower_solve(L, want, counter=c_want,
                               ncols_structural=structural)
    assert list(c_got.by_gran.items()) == list(c_want.by_gran.items())
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_factor_keeps_one_inverse_per_wide_column_in_the_side_arena(factored, tmp_path):
    """``Factor(K)`` fills the side arena for every column two or more
    wide (not for width 1), with the bytes ``unit_lower_inverse`` gives
    the final diagonal block; the arena is one array counted in the
    matrix's ``nbytes``, and a factor that arrives without it (a loaded
    file) builds the same bytes on its first solve."""
    m = factored.matrix
    sizes = factored.part.sizes()
    assert m.inv_ready.tolist() == (sizes > 1).tolist()
    assert m.inv_arena.size == int((sizes * sizes).sum())
    assert m.nbytes == m.arena.nbytes + m.inv_arena.nbytes + m.inv_ready.nbytes
    for K in np.flatnonzero(sizes > 1).tolist():
        want = unit_lower_inverse(m.blocks[(K, K)])
        assert m.diag_inverse(K).tobytes() == want.tobytes()
    path = tmp_path / "lu.npz"
    save_factorization(path, factored)
    loaded = load_factorization(path)
    assert not loaded.matrix.inv_ready.any()
    b = np.linspace(-1.0, 1.0, factored.n)
    assert loaded.solve(b).tobytes() == factored.solve(b).tobytes()
    assert loaded.matrix.inv_ready.tolist() == (sizes > 1).tolist()


@pytest.fixture(scope="module")
def wide_pattern():
    """A pattern with many columns two or more wide and real interchanges."""
    A = g.fem_unstructured(300, 12, 0.4, seed=1)
    art, om = analyze(A)
    assert (art.part.sizes() > 1).sum() >= 10
    return art, om


def test_every_driver_leaves_the_same_inverses(wide_pattern):
    """The 1D owners build into the shared side arena at ``Factor(K)``,
    the 2D diagonal owner at ``ScaleSwap(K)``: whatever a driver left
    holds the sequential factor's bytes, and the solve builds the rest."""
    from repro.machine import T3E
    from repro.parallel import factorize

    art, om = wide_pattern
    seq = sstar_factor(om.A, sym=art.sym, part=art.part, bstruct=art.bstruct).matrix
    wide = art.part.sizes() > 1
    for method in ("1d-rapid", "1d-ca", "2d", "2d-sync"):
        m = factorize(method, om.A, art.part, art.bstruct, 4, T3E).factor
        assert m.inv_ready[wide].any(), method
        for K in np.flatnonzero(wide).tolist():
            assert m.diag_inverse(K).tobytes() == seq.diag_inverse(K).tobytes(), (method, K)


@pytest.mark.parametrize("method", ["rapid", "ca"])
def test_1d_wide_columns_are_inverted_once_by_their_owner(method, wide_pattern, monkeypatch):
    """One inversion per wide column per run, by its owner's ``Factor(K)``
    into the side arena: every receiver updates with the ``L_KK^{-1}`` the
    column's message carries and inverts nothing."""
    from repro.machine import T3E
    from repro.numfact import blocks, tasks
    from repro.parallel import oned, run_1d

    art, om = wide_pattern
    calls = []
    inverse = blocks.unit_lower_inverse
    monkeypatch.setattr(blocks, "unit_lower_inverse",
                        lambda L, out=None: calls.append(out) or inverse(L, out))
    for module in (tasks, oned):
        assert not hasattr(module, "unit_lower_inverse")
    res = run_1d(om.A, art.part, art.bstruct, 4, T3E, method=method)
    sizes = art.part.sizes()
    assert len(calls) == int((sizes > 1).sum()) > 0
    # each into its column's slot of the one side arena the ranks share
    assert all(out is not None and out.base is res.factor.inv_arena
               for out in calls)
    assert res.factor.inv_ready.tolist() == (sizes > 1).tolist()
