"""Numeric kernels chosen by supernode shape, and proof that the choice
moves no bit: the product rule against ``np.matmul``, the width-1 solve
against the frozen per-block solve of ``tests/reference_numfact.py``, the
charge a ``1 x 1`` triangle leaves, and the plan's width-1 row table."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matrices import generators as g
from repro.numfact import KernelCounter, NumericPlan, sstar_factor, unit_lower_solve
from repro.numfact.kernels import block_product
from repro.service import analyze
from repro.sparse import csr_to_dense

from .reference_numfact import reference_block_product, reference_solve
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
        want = reference_solve(factored, b)
    assert got.shape == b.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the charge of a 1 x 1 unit triangle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ncols, kernel", [(1, "dgemv"), (2, "dgemm"), (5, "dgemm")])
def test_unit_lower_solve_on_1x1_leaves_its_charge_unchanged(ncols, kernel):
    """The identity solve adds ``FLOP_TRSM(1, ncols)`` at granularity 1, as
    a new key after the keys already there — the charge the width-1 update
    adds in its place."""
    c = KernelCounter()
    c.add("blas1", 3.0)
    c.add("dgemv", 2.0, gran=1)
    B = np.array([[-0.0, 2.5, np.nextafter(0.0, 1.0)]])
    before = B.tobytes()
    unit_lower_solve(np.array([[7.0]]), B, counter=c, ncols_structural=ncols)
    assert B.tobytes() == before
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
    assert fresh.nbytes - base - below == (
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
