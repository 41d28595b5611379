"""An independent oracle for the numeric phase: SuperLU, as scipy ships it.

Every case is factored and solved twice — by :class:`repro.api.SStarSolver`
(partial pivoting or the case's threshold, no iterative refinement) and by
``scipy.sparse.linalg.splu`` with the same diagonal pivoting threshold —
and measured with the metrics Li & Liu's survey of sparse direct solvers
judges a factorization by:

* the componentwise (Oettli–Prager) backward error of the solution,
  ``omega = max_i |b - A x|_i / (|A| |x| + |b|)_i``, beside the normwise
  ``eta = |b - A x|_inf / (|A|_inf |x|_inf + |b|_inf)``;
* the pivot growth ``rho = max |U_ij| / max |A_ij|``;
* the fill ``nnz(L + U)`` (unit diagonal counted once; for S* the static
  symbolic structure, which bounds the fill of every pivot sequence).

A case passes when ``eta <= 3 n eps rho`` — GEPP's ``gamma_3n |L| |U|``
backward-error bound with ``|L| |U|`` measured by the growth — when
``omega`` meets the same bound or, on a system where SuperLU's does not
either (GEPP is normwise, not componentwise, stable: the near-singular
case), stays within ``SPLU_RATIO`` of SuperLU's, and when the static fill
stays within ``FILL_RATIO`` of what SuperLU stores.  A case built to be
singular must raise its named, typed error (splu refuses it too).  The corpus is the ``small`` suite, the patterns of the four
benchmark workloads (``benchmarks/e2e/workloads.py``; the larger ones
carry the ``oracle`` marker, run with ``pytest -m oracle``) and
adversarial matrices: Wilkinson's growth matrix, whose multipliers of
``-1`` put ``2^(k-1)`` into every inverted ``k x k`` diagonal triangle, a
near-singular matrix, threshold pivoting at ``u = 0.1`` on a matrix that
interchanges rows, and a zero and a NaN column.

scipy is a test-only dependency.  ``PYTHONPATH=src python tests/test_oracle_splu.py
[--parent-src SRC]`` measures every case on the parent commit and on this
tree and writes ``benchmarks/results/BENCH_oracle_splu.json``, the table
``tools/make_experiments.py`` puts in EXPERIMENTS.md.
"""

import numpy as np
import pytest

from repro.api import SStarSolver
from repro.matrices import generators as g
from repro.matrices.suite import get_matrix
from repro.numfact import SingularMatrixError
from repro.sparse import csr_to_dense, dense_to_csr

spla = pytest.importorskip("scipy.sparse.linalg")
sparse = pytest.importorskip("scipy.sparse")

EPS = float(np.finfo(np.float64).eps)
#: S*'s static fill over SuperLU's stored fill (measured <= 2 on the corpus)
FILL_RATIO = 4.0
#: S*'s componentwise backward error over SuperLU's where neither meets
#: the GEPP bound (measured 1.6)
SPLU_RATIO = 10.0

SMALL_SUITE = ("sherman5", "lnsp3937", "jpwh991", "orsreg1", "goodwin", "vavasis3")


def wilkinson(n: int):
    """GEPP's worst case: unit diagonal, ``-1`` below it, ones in the last
    column.  No interchanges (every tie keeps the diagonal), growth
    ``2^(n-1)``."""
    D = np.eye(n) - np.tril(np.ones((n, n)), -1)
    D[:, -1] = 1.0
    return dense_to_csr(D)


def near_singular():
    """Row 7 is row 3 plus ``1e-13`` of itself: condition ~1e13."""
    D = csr_to_dense(g.random_nonsymmetric(120, density=0.06, seed=4))
    D[7] = D[3] + 1e-13 * D[7]
    return dense_to_csr(D)


def with_column(A, value):
    """``A`` with every stored value of column 5 replaced by ``value``."""
    return A.with_values(np.where(A.indices == 5, value, A.data))


#: name -> (matrix factory, pivot threshold, expected error or None)
CASES = {
    **{f"small/{name}": (lambda name=name: get_matrix(name, "small"), 1.0, None)
       for name in SMALL_SUITE},
    "cold_solve/fem_unstructured_600": (
        lambda: g.fem_unstructured(n=600, avg_degree=12, nonsym=0.4, seed=0), 1.0, None),
    "cold_solve/circuit_like_450": (lambda: g.circuit_like(n=450, seed=0), 1.0, None),
    "sim_2d/stencil_3d_6x6x5x3": (
        lambda: g.stencil_3d(nx=6, ny=6, nz=5, ndof=3), 1.0, None),
    "sim_2d/fem_unstructured_800": (
        lambda: g.fem_unstructured(n=800, avg_degree=12, nonsym=0.4), 1.0, None),
    "service_warm/stencil_3d_8x8x5x3": (
        lambda: g.stencil_3d(nx=8, ny=8, nz=5, ndof=3), 1.0, None),
    "service_warm/fem_unstructured_1400": (
        lambda: g.fem_unstructured(n=1400, avg_degree=12, nonsym=0.4), 1.0, None),
    "service_warm/circuit_like_991": (lambda: g.circuit_like(n=991), 1.0, None),
    "service_warm/fem_unstructured_1800": (
        lambda: g.fem_unstructured(n=1800, avg_degree=14, nonsym=0.25), 1.0, None),
    "adversarial/wilkinson_25": (lambda: wilkinson(25), 1.0, None),
    "adversarial/wilkinson_60": (lambda: wilkinson(60), 1.0, None),
    "adversarial/near_singular_120": (near_singular, 1.0, None),
    "adversarial/threshold_0.1": (
        lambda: g.random_nonsymmetric(300, density=0.03, seed=2), 0.1, None),
    "adversarial/partial_same_matrix": (
        lambda: g.random_nonsymmetric(300, density=0.03, seed=2), 1.0, None),
    "adversarial/zero_column": (
        lambda: with_column(g.random_nonsymmetric(80, density=0.08, seed=5), 0.0),
        1.0, "no nonzero pivot"),
    "adversarial/nan_column": (
        lambda: with_column(g.random_nonsymmetric(80, density=0.08, seed=5), np.nan),
        1.0, "non-finite pivot candidate"),
}

#: the workloads' larger patterns (the four benchmark workloads are also
#: covered by the smaller ones without the marker)
HEAVY = {name for name in CASES
         if name.startswith(("service_warm/", "sim_2d/fem"))}


def _scipy(A):
    return sparse.csr_matrix((A.data, A.indices, A.indptr),
                             shape=(A.nrows, A.ncols)).tocsc()


def omega(S, x, b) -> float:
    """Componentwise backward error (Oettli–Prager); a row with zero
    denominator counts 0 when its residual is 0, else infinity."""
    r = np.abs(b - S @ x)
    d = abs(S) @ np.abs(x) + np.abs(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(d > 0, r / d, np.where(r > 0, np.inf, 0.0))
    return float(q.max())


def eta(S, x, b) -> float:
    """Normwise backward error in the infinity norm."""
    anorm = float(abs(S).sum(axis=1).max())
    r = np.abs(b - S @ x).max()
    return float(r / (anorm * np.abs(x).max() + np.abs(b).max()))


def s_star_growth(lu, amax: float) -> float:
    """``max |U| / max |A|`` over the U blocks and the diagonal blocks'
    upper triangles of a factorization."""
    umax = 0.0
    for (I, J), blk in lu.matrix.blocks.items():
        if I < J:
            umax = max(umax, float(np.abs(blk).max(initial=0.0)))
        elif I == J:
            umax = max(umax, float(np.abs(np.triu(blk)).max(initial=0.0)))
    return umax / amax


def measure(name: str) -> dict:
    """Both solvers' metrics on case ``name``, or the errors they raised."""
    make, threshold, _ = CASES[name]
    A = make()
    n = A.nrows
    b = np.random.default_rng(26).standard_normal(n)
    S = _scipy(A)
    amax = float(np.abs(A.data).max())
    out = {"n": n, "threshold": threshold}
    try:
        solver = SStarSolver(pivot_threshold=threshold, refine="never").factor(A)
        x = solver.solve(b)
    except SingularMatrixError as e:
        out["error"] = f"{type(e).__name__}: {e}"
    else:
        out.update(omega=omega(S, x, b), eta=eta(S, x, b),
                   rho=s_star_growth(solver.factorization, amax),
                   nnz=int(solver.report.factor_entries))
    try:
        f = spla.splu(S, diag_pivot_thresh=threshold)
        xs = f.solve(b)
    except RuntimeError as e:
        out["splu_error"] = str(e)
    else:
        out.update(splu_omega=omega(S, xs, b),
                   splu_rho=float(np.abs(f.U.data).max()) / amax,
                   splu_nnz=int(f.L.nnz + f.U.nnz - n))
    return out


def _params():
    return [pytest.param(name, marks=pytest.mark.oracle) if name in HEAVY
            else name for name in CASES]


@pytest.mark.parametrize("name", _params())
def test_solves_within_its_bound_or_raises_its_named_error(name):
    expected = CASES[name][2]
    got = measure(name)
    if expected is not None:
        assert expected in got.get("error", ""), got
        assert "splu_error" in got or not np.isfinite(got["splu_omega"]), got
        return
    assert "error" not in got and "splu_error" not in got, got
    bound = 3 * got["n"] * EPS * got["rho"]
    assert got["eta"] <= bound, got
    if got["splu_omega"] <= bound:
        assert got["omega"] <= bound, got
    else:
        assert got["omega"] <= SPLU_RATIO * got["splu_omega"], got
    assert got["nnz"] <= FILL_RATIO * got["splu_nnz"], got


def test_the_adversarial_cases_are_what_they_claim():
    """Wilkinson's matrix keeps its ``2^(n-1)`` growth through S*'s
    ordering, and threshold pivoting at 0.1 keeps diagonals partial
    pivoting swaps away (and pays for it in growth)."""
    w = measure("adversarial/wilkinson_25")
    assert w["rho"] == 2.0 ** 24
    partial = SStarSolver(refine="never").factor(CASES["adversarial/partial_same_matrix"][0]())
    loose = SStarSolver(pivot_threshold=0.1, refine="never").factor(
        CASES["adversarial/threshold_0.1"][0]())
    assert loose.factorization.num_interchanges() < partial.factorization.num_interchanges()
    assert measure("adversarial/threshold_0.1")["rho"] > measure(
        "adversarial/partial_same_matrix")["rho"]


PARENT_COMMIT = "8d884b5"


def _row(name, parent, this) -> dict:
    """One EXPERIMENTS row: the case, both trees' S* metrics, splu's; a
    case that raised names its error and leaves the metrics empty."""
    row = {"case": name, "n": this["n"], "u": this["threshold"]}
    for side, r in (("parent_", parent), ("", this)):
        row[f"{side}outcome"] = r.get("error", "solved").split(" (")[0]
    row["splu_outcome"] = this.get("splu_error", "solved")
    for key in ("omega", "eta", "rho"):
        row[f"parent_{key}"] = parent.get(key, "")
        row[key] = this.get(key, "")
        if key != "eta":
            row[f"splu_{key}"] = this.get(f"splu_{key}", "")
    solved = "error" not in this
    row["bound_3n_eps_rho"] = 3 * this["n"] * EPS * this["rho"] if solved else ""
    row["fill_vs_splu"] = this["nnz"] / this["splu_nnz"] if solved else ""
    row["fill_vs_parent"] = this["nnz"] / parent["nnz"] if solved else ""
    return row


def main() -> None:
    """Measure every case on the parent tree and on this one (each in a
    child process of its own, with its ``src`` on ``PYTHONPATH``) and
    write ``benchmarks/results/BENCH_oracle_splu.json``."""
    import argparse
    import json
    import os
    import subprocess
    import sys
    import tarfile
    import tempfile
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description="splu oracle: parent vs this tree")
    ap.add_argument("--parent-src", help=f"src/ of a checkout of {PARENT_COMMIT} "
                    "(default: extracted from git history)")
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure:
        print(json.dumps({name: measure(name) for name in CASES}))
        return

    def child(src):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        return json.loads(subprocess.run(
            [sys.executable, __file__, "--measure"], check=True,
            capture_output=True, text=True, env=env).stdout)

    with tempfile.TemporaryDirectory() as tmp:
        parent = args.parent_src
        if parent is None:
            archive = Path(tmp) / "parent.tar"
            subprocess.run(["git", "archive", "-o", str(archive), PARENT_COMMIT,
                            "src"], cwd=root, check=True)
            with tarfile.open(archive) as tar:
                tar.extractall(tmp)
            parent = Path(tmp) / "src"
        old, new = child(parent), child(root / "src")
    rows = [_row(name, old[name], new[name]) for name in CASES]
    out = root / "benchmarks" / "results" / "BENCH_oracle_splu.json"
    out.write_text(json.dumps({"scale": f"parent = {PARENT_COMMIT}", "rows": rows},
                              indent=2))
    for r in rows:
        print({k: (f"{v:.3g}" if isinstance(v, float) else v) for k, v in r.items()})
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
