"""Host seconds of the numeric kernels, by supernode shape.

Not a paper table: the paper's argument is which kernel class runs the
flops (Sections 3-4, Theorem 1); this script measures what the host pays
per *call*, which is what a warm refactor on the benchmark patterns is
bound by (``service_warm`` in ``benchmarks/e2e``).  It runs the sequential
``Factor(K)`` / ``Update(K, ·)`` sweep and one block solve on the four
``service_warm`` patterns and the two ``cold_solve`` generators, on **two
source trees** — the commit before the kernels were dispatched on
supernode shape, and this checkout — and splits the sweep's host seconds
between block columns one wide and wider ones.

One command, from the repo root (needs the git history for the parent)::

    python benchmarks/bench_numeric_kernels.py
    python benchmarks/bench_numeric_kernels.py --parent-src /path/to/aac34d0/src

Each tree is measured in child processes of its own (``--measure SRC``),
alternating parent / this tree; a time is the best repeat of the best
process.  A separate, untimed pass counts the kernel calls (block products,
target subtracts, ``unit_lower_solve`` calls and how many of them were on
a ``1 x 1`` triangle).  The script refuses to write if the arena, the
pivots or the solution of any case differ between the trees; rows land in
``benchmarks/results/BENCH_numeric_kernels.json``.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT = ROOT / "benchmarks" / "results" / "BENCH_numeric_kernels.json"
PARENT_COMMIT = "aac34d0"
PROCESSES = 3  # child processes per tree, alternating
REPEATS = 5  # sweeps per case per process

#: name -> (generator, kwargs); the patterns of benchmarks/e2e/workloads.py
CASES = {
    "service_warm stencil_3d": ("stencil_3d", dict(nx=8, ny=8, nz=5, ndof=3)),
    "service_warm fem n=1400": (
        "fem_unstructured", dict(n=1400, avg_degree=12, nonsym=0.4)),
    "service_warm circuit n=991": ("circuit_like", dict(n=991)),
    "service_warm fem n=1800": (
        "fem_unstructured", dict(n=1800, avg_degree=14, nonsym=0.25)),
    "cold_solve fem n=600": (
        "fem_unstructured", dict(n=600, avg_degree=12, nonsym=0.4, seed=0)),
    "cold_solve circuit n=450": ("circuit_like", dict(n=450, seed=0)),
}

TIMES = ("factor_w1_s", "factor_wide_s", "update_w1_s", "update_wide_s", "solve_s")
COUNTS = ("products", "subtracts", "unit_lower_solve", "unit_lower_solve_1x1")


def _digest(*chunks) -> str:
    h = hashlib.blake2b(digest_size=16)
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def measure(src: str) -> list:
    """Time and count the sweep with ``repro`` imported from ``src``
    (child mode)."""
    sys.path.insert(0, src)
    import numpy as np
    from repro.matrices import generators
    from repro.numfact import (
        BlockLUMatrix, KernelCounter, LUFactorization, PivotMonitor, matrix_maxnorm,
    )
    from repro.numfact import tasks
    from repro.pipeline import analyze

    def sweep(om, art, times=None):
        """The sequential driver's loop (what ``sstar_factor`` runs for a
        solver), with each task timed into ``times`` by column width."""
        part, bstruct = art.part, art.bstruct
        m = BlockLUMatrix.from_csr(om.A, part, bstruct)
        counter = KernelCounter()
        monitor = PivotMonitor(matrix_maxnorm(om.A))
        clock = time.perf_counter
        for K in range(part.N):
            kind = "w1" if part.size(K) == 1 else "wide"
            t0 = clock()
            fc = tasks.factor_block_column(m, K, counter=counter, monitor=monitor)
            t1 = clock()
            tasks.update_block_columns(m, fc, bstruct.u_block_cols(K), counter=counter)
            t2 = clock()
            if times is not None:
                times[f"factor_{kind}_s"] += t1 - t0
                times[f"update_{kind}_s"] += t2 - t1
        return LUFactorization(m, art.sym, part, bstruct, counter)

    def counted(om, art):
        """One untimed sweep with the update's kernels wrapped."""
        calls = Counter()
        product, solve = tasks.block_product, tasks.unit_lower_solve

        def count_product(A, B, out):
            calls["products"] += 1
            return product(A, B, out)

        def count_solve(L, B, *args, **kwargs):
            calls["unit_lower_solve"] += 1
            calls["unit_lower_solve_1x1"] += L.shape[0] == 1
            return solve(L, B, *args, **kwargs)

        class CountingNumpy:
            """``tasks.np`` with ``subtract`` counted (the update binds it
            once per sweep)."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def subtract(*args, **kwargs):
                calls["subtracts"] += 1
                return np.subtract(*args, **kwargs)

        update = tasks.update_block_columns

        def update_counting(*args, **kwargs):
            tasks.np = CountingNumpy()
            try:
                return update(*args, **kwargs)
            finally:
                tasks.np = np

        tasks.block_product, tasks.unit_lower_solve = count_product, count_solve
        tasks.update_block_columns = update_counting
        try:
            sweep(om, art)
        finally:
            tasks.block_product, tasks.unit_lower_solve = product, solve
            tasks.update_block_columns = update
        return {key: calls[key] for key in COUNTS}

    rows = []
    for name, (gen, kwargs) in CASES.items():
        A = getattr(generators, gen)(**kwargs)
        art, om = analyze(A)
        B = np.random.default_rng(25).standard_normal((A.nrows, 3))
        best = dict.fromkeys(TIMES, float("inf"))
        for _ in range(REPEATS):
            times = dict.fromkeys(TIMES, 0.0)
            lu = sweep(om, art, times)
            t0 = time.perf_counter()
            X = lu.solve(B)
            times["solve_s"] = time.perf_counter() - t0
            best = {k: min(best[k], times[k]) for k in TIMES}
        widths = np.diff(art.part.bounds)
        rows.append({
            "case": name, "n": A.nrows, "N": art.part.N,
            "width1_columns": int((widths == 1).sum()),
            **best, **counted(om, art),
            "pivot_steps": A.nrows, "interchanges": lu.num_interchanges(),
            "arena_digest": _digest(lu.matrix.arena.tobytes()),
            "pivot_digest": _digest(np.int64(lu.pivot_rows()).tobytes()),
            "solution_digest": _digest(X.tobytes(), lu.solve(B[:, 0]).tobytes()),
        })
    return rows


def _parent_src(tmp: Path) -> Path:
    archive = tmp / "parent.tar"
    subprocess.run(
        ["git", "archive", "-o", str(archive), PARENT_COMMIT, "src"],
        cwd=ROOT, check=True,
    )
    with tarfile.open(archive) as tar:
        tar.extractall(tmp)
    return tmp / "src"


def _child(src: Path) -> list:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, __file__, "--measure", str(src)],
        check=True, capture_output=True, text=True, env=env,
    ).stdout
    return json.loads(out)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent-src", help=f"src/ of a checkout of {PARENT_COMMIT} "
                    "(default: extracted from git history)")
    ap.add_argument("--measure", metavar="SRC", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return

    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(args.parent_src) if args.parent_src else _parent_src(Path(tmp))
        runs = {"parent": [], "this": []}
        for _ in range(PROCESSES):
            runs["parent"].append(_child(parent))
            runs["this"].append(_child(ROOT / "src"))

    rows = []
    for i, name in enumerate(CASES):
        old = [run[i] for run in runs["parent"]]
        new = [run[i] for run in runs["this"]]
        for key in ("arena_digest", "pivot_digest", "solution_digest"):
            seen = {r[key] for r in old + new}
            if len(seen) != 1:
                sys.exit(f"{name}: {key} differs between the trees: {sorted(seen)}")
        row = {k: new[0][k] for k in ("case", "n", "N", "width1_columns")}
        for key in TIMES + COUNTS:
            row[f"parent_{key}"] = min(r[key] for r in old) if key in TIMES else old[0][key]
            row[key] = min(r[key] for r in new) if key in TIMES else new[0][key]
        row.update({k: new[0][k] for k in ("pivot_steps", "interchanges", "solution_digest")})
        rows.append(row)
        sweep_old = sum(row[f"parent_{k}"] for k in TIMES[:4])
        sweep_new = sum(row[k] for k in TIMES[:4])
        print(f"{name:28s} sweep {sweep_old:.4f} -> {sweep_new:.4f} s   solve "
              f"{row['parent_solve_s']:.4f} -> {row['solve_s']:.4f} s   products "
              f"{row['parent_products']} -> {row['products']}   1x1 solves "
              f"{row['parent_unit_lower_solve_1x1']} -> {row['unit_lower_solve_1x1']}")
    RESULT.write_text(json.dumps(
        {"scale": f"host seconds, parent = {PARENT_COMMIT}", "rows": rows}, indent=2))
    print(f"wrote {RESULT}")


if __name__ == "__main__":
    main()
