"""Host seconds of the ordering layer — AᵀA pattern and minimum degree.

Not a paper table: the paper orders with multiple minimum degree on the
graph of AᵀA (Section 3.1) and reports no time for it; here it is the
largest cost a never-seen pattern pays (``cold_solve`` in
``benchmarks/e2e``).  This script times the two kernels on the two
``cold_solve`` generators and on two larger patterns, on **two source
trees** — the commit before PR 23 rewrote both in set algebra, and this
checkout — and records the digest of the permutation, which must not move.

One command, from the repo root (needs the git history for the parent)::

    python benchmarks/bench_ordering_host.py
    python benchmarks/bench_ordering_host.py --parent-src /path/to/5fb0898/src

Each tree is measured in child processes of its own (``--measure SRC``),
alternating parent / this tree, and a case's time is the best repeat of the
best process.  Rows land in ``benchmarks/results/BENCH_ordering_host.json``.
"""

import argparse
import hashlib
import json
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT = ROOT / "benchmarks" / "results" / "BENCH_ordering_host.json"
PARENT_COMMIT = "5fb0898"
PROCESSES = 3  # child processes per tree, alternating

#: name -> (generator, kwargs, repeats per process)
CASES = {
    "cold_solve fem_unstructured": (
        "fem_unstructured", dict(n=600, avg_degree=12, nonsym=0.4, seed=0), 7),
    "cold_solve circuit_like": ("circuit_like", dict(n=450, seed=0), 7),
    "fem_unstructured n=2000": (
        "fem_unstructured", dict(n=2000, avg_degree=12, nonsym=0.4, seed=0), 3),
    # goodwin's order (ROADMAP item 3)
    "fem_unstructured n=7320": (
        "fem_unstructured", dict(n=7320, avg_degree=12, nonsym=0.4), 2),
}


def measure(src: str) -> list:
    """Time both kernels with ``repro`` imported from ``src`` (child mode)."""
    sys.path.insert(0, src)
    from repro.matrices import generators
    from repro.ordering import maximum_transversal, minimum_degree
    from repro.sparse import ata_pattern

    def best(repeats, fn, *args):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = fn(*args)
            times.append(time.perf_counter() - t0)
        return min(times), out

    rows = []
    for name, (gen, kwargs, repeats) in CASES.items():
        A = getattr(generators, gen)(**kwargs)
        trans, _ = maximum_transversal(A)
        At = A.permute(row_perm=trans)  # what prepare_matrix hands to ata_pattern
        ata_s, G = best(repeats, ata_pattern, At)
        mindeg_s, res = best(repeats, minimum_degree, G)
        rows.append({
            "case": name, "n": A.nrows, "nnz": A.nnz, "ata_nnz": G.nnz,
            "ata_pattern_s": ata_s, "mindeg_s": mindeg_s,
            "fill_edges": int(res.fill_edges),
            "perm_digest": hashlib.blake2b(
                res.perm.astype("int64").tobytes(), digest_size=16).hexdigest(),
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
    out = subprocess.run(
        [sys.executable, __file__, "--measure", str(src)],
        check=True, capture_output=True, text=True,
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
        digests = {r["perm_digest"] for r in old + new}
        fills = {r["fill_edges"] for r in old + new}
        if len(digests) != 1 or len(fills) != 1:
            sys.exit(f"{name}: the permutation moved between the trees: "
                     f"{sorted(digests)}, fill {sorted(fills)}")
        row = {k: new[0][k] for k in ("case", "n", "nnz", "ata_nnz")}
        for key in ("ata_pattern_s", "mindeg_s"):
            row[f"parent_{key}"] = min(r[key] for r in old)
            row[key] = min(r[key] for r in new)
        row.update(fill_edges=new[0]["fill_edges"], perm_digest=new[0]["perm_digest"])
        rows.append(row)
        print(f"{name:30s} ata_pattern {row['parent_ata_pattern_s']:.4f} -> "
              f"{row['ata_pattern_s']:.4f} s   mindeg {row['parent_mindeg_s']:.4f} -> "
              f"{row['mindeg_s']:.4f} s   perm {row['perm_digest']}")
    RESULT.write_text(json.dumps(
        {"scale": f"host seconds, parent = {PARENT_COMMIT}", "rows": rows}, indent=2))
    print(f"wrote {RESULT}")


if __name__ == "__main__":
    main()
