"""Every entry point that takes matrix values or a right-hand side refuses,
before any work, what a float64 cast would corrupt: a complex or
non-numeric dtype is a ``TypeError`` naming it (never a ``ComplexWarning``
and a truncated answer), a wrong shape or ndim is a ``ValueError`` (never a
bare ``IndexError``), and so is a NaN or Inf right-hand side (never a
silent NaN ``x``).  A NaN in the matrix values is met by the pivot search,
which every driver reports with the same error."""

import numpy as np
import pytest

from repro.api import SStarSolver
from repro.machine import T3E
from repro.matrices import generators as g
from repro.numfact import PivotMonitor, SingularMatrixError, sstar_factor
from repro.parallel import DRIVERS, factorize, run_1d, run_1d_trisolve, run_2d_trisolve
from repro.service import AnalysisCache, SolveService, analyze
from repro.sparse import CSRMatrix, coo_to_csr, csr_to_dense, dense_to_csr

pytestmark = pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")

N = 40


@pytest.fixture(scope="module")
def A():
    return g.random_nonsymmetric(N, density=0.12, seed=8)


@pytest.fixture(scope="module")
def lu(A):
    art, om = analyze(A)
    return sstar_factor(om.A, sym=art.sym, part=art.part, bstruct=art.bstruct)


@pytest.fixture(scope="module")
def solver(A):
    return SStarSolver().factor(A)


@pytest.fixture(scope="module")
def owner(A):
    art, om = analyze(A)
    return run_1d(om.A, art.part, art.bstruct, 2, T3E, method="rapid").schedule.owner


def _service_submit(A, b):
    svc = SolveService(workers=1, cache=AnalysisCache())
    try:
        return svc.submit(A, b)
    except (TypeError, ValueError):
        # a refused rhs never reaches the queue
        assert not svc._queue and svc.metrics().jobs_submitted == 0
        raise


#: entry point -> call with a right-hand side
RHS_ENTRIES = {
    "SStarSolver.solve": lambda ctx, b: ctx["solver"].solve(b),
    "SolveService.submit": lambda ctx, b: _service_submit(ctx["A"], b),
    "LUFactorization.solve": lambda ctx, b: ctx["lu"].solve(b),
    "LUFactorization.solve_transpose": lambda ctx, b: ctx["lu"].solve_transpose(b),
    "run_1d_trisolve": lambda ctx, b: run_1d_trisolve(ctx["lu"], ctx["owner"], b, 2, T3E),
    "run_2d_trisolve": lambda ctx, b: run_2d_trisolve(ctx["lu"], b, 2, T3E),
}

#: hostile right-hand side -> (error, message pattern)
BAD_RHS = {
    "complex": (lambda n: 1j * np.ones(n), TypeError, "complex128"),
    "complex-with-zero-imaginary": (
        lambda n: np.ones(n, dtype=np.complex64), TypeError, "complex64"),
    "strings": (lambda n: np.array(["1.0"] * n), TypeError, "dtype <U3"),
    "objects": (lambda n: np.array([1.0] * (n - 1) + [None]), TypeError, "object"),
    "0-d": (lambda n: np.float64(3.0), ValueError, r"got \(\)"),
    "python-scalar": (lambda n: 3.0, ValueError, r"got \(\)"),
    "3-d": (lambda n: np.ones((n, 2, 2)), ValueError, r"got \(40, 2, 2\)"),
    "wrong-length": (lambda n: np.ones(n + 1), ValueError, r"got \(41,\)"),
    "nan": (lambda n: np.r_[np.ones(n - 3), np.nan, np.inf, 1.0], ValueError,
            r"rhs must be finite; rhs\[37\] is nan"),
    "inf-in-block": (lambda n: np.where(np.arange(2 * n).reshape(n, 2) == 9,
                                        -np.inf, 1.0),
                     ValueError, r"rhs must be finite; rhs\[4, 1\] is -inf"),
}


@pytest.mark.parametrize("bad", sorted(BAD_RHS))
@pytest.mark.parametrize("entry", sorted(RHS_ENTRIES))
def test_rhs_entry_points_refuse_what_a_cast_would_corrupt(entry, bad, A, lu, solver, owner):
    make, error, pattern = BAD_RHS[bad]
    ctx = {"A": A, "lu": lu, "solver": solver, "owner": owner}
    with pytest.raises(error, match=pattern):
        RHS_ENTRIES[entry](ctx, make(N))


@pytest.mark.parametrize("entry", sorted(RHS_ENTRIES))
def test_rhs_entry_points_accept_real_numbers(entry, A, lu, solver, owner):
    """Integer and float32 right-hand sides are still numbers."""
    ctx = {"A": A, "lu": lu, "solver": solver, "owner": owner}
    for b in (np.arange(N), np.ones((N, 2), dtype=np.float32), [1.0] * N):
        RHS_ENTRIES[entry](ctx, b)


#: entry point -> build a matrix from values of the given kind
VALUE_ENTRIES = {
    "CSRMatrix": lambda A, v: CSRMatrix(A.nrows, A.ncols, A.indptr, A.indices, v),
    "CSRMatrix.with_values": lambda A, v: A.with_values(v),
    "coo_to_csr": lambda A, v: coo_to_csr(
        A.nrows, A.ncols, np.repeat(np.arange(A.nrows), np.diff(A.indptr)), A.indices, v),
    "dense_to_csr": lambda A, v: dense_to_csr(csr_to_dense(A) + 0 * v[0]),
    "SStarSolver.factor": lambda A, v: SStarSolver().factor(csr_to_dense(A) + 0 * v[0]),
}


@pytest.mark.parametrize("entry", sorted(VALUE_ENTRIES))
def test_value_entry_points_refuse_complex(entry, A):
    with pytest.raises(TypeError, match="complex128"):
        VALUE_ENTRIES[entry](A, 1j * A.data)


def test_values_must_be_one_entry_per_index(A):
    with pytest.raises(ValueError, match="length mismatch"):
        CSRMatrix(A.nrows, A.ncols, A.indptr, A.indices, A.data[:, None])
    with pytest.raises(ValueError, match=r"values must have shape"):
        A.with_values(3.0)


def test_complex_job_is_refused_not_truncated(A):
    """The motivating case: a complex rhs used to finish as ``"done"`` with
    ``x == 0`` after one ``ComplexWarning``."""
    svc = SolveService(workers=1, cache=AnalysisCache())
    with pytest.raises(TypeError, match="rhs must be real numbers"):
        svc.submit(A, 1j * np.ones(N))
    x = svc.result(svc.submit(A, np.ones(N)))
    assert np.allclose(csr_to_dense(A) @ x, 1.0)


def test_non_finite_rhs_job_is_refused_not_solved(A):
    """The motivating case: a NaN in ``b`` used to finish as ``"done"``
    with an all-NaN ``x``."""
    svc = SolveService(workers=1, cache=AnalysisCache())
    b = np.ones(N)
    b[5] = np.nan
    with pytest.raises(ValueError, match=r"rhs\[5\] is nan"):
        svc.submit(A, b)
    with pytest.raises(ValueError, match=r"rhs\[5\] is nan"):
        SStarSolver().factor(A).solve(b)


@pytest.mark.parametrize("perturb", [False, True], ids=["plain", "perturb"])
@pytest.mark.parametrize("method", ["sequential", *DRIVERS])
def test_non_finite_pivot_is_named_alike_by_every_driver(method, perturb, A):
    """A column of NaNs reaches its pivot search unchanged (NaNs stay in
    their column through the earlier updates); every driver then raises
    the sequential code's error for that column — the 2D search used to
    skip the NaN and report "no nonzero pivot" — and the perturbing
    monitor leaves the column alone (it perturbs zeros, not NaNs)."""
    art, om = analyze(A)
    col = N // 2
    Ab = om.A.with_values(np.where(om.A.indices == col, np.nan, om.A.data))
    monitor = PivotMonitor(1.0, perturb=True) if perturb else None
    with pytest.raises(SingularMatrixError, match="non-finite pivot candidate") as err:
        if method == "sequential":
            sstar_factor(Ab, sym=art.sym, part=art.part, bstruct=art.bstruct,
                         monitor=monitor)
        else:
            factorize(method, Ab, art.part, art.bstruct, 4, T3E, monitor=monitor)
    assert err.value.pivot_index == col
    assert str(err.value).startswith(f"non-finite pivot candidate for global column {col} ")
    assert perturb is False or not monitor.perturbations
