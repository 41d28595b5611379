"""Regenerate EXPERIMENTS.md from benchmarks/results/BENCH_*.json.

Usage:  python tools/make_experiments.py
        (after `pytest benchmarks/ -s --benchmark-disable` has populated
        benchmarks/results/)
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

PAPER_NOTES = {
    "table1": (
        "Table 1 — structure prediction",
        "Paper: S* overestimates SuperLU's factor entries by <50% on most "
        "matrices (sherman5 1.4x, orsreg1 1.3x band); Cholesky(AtA) is far "
        "looser; elementwise ops ratio up to ~5 (mean ~3.98).",
    ),
    "table2": (
        "Table 2 — sequential S* vs SuperLU",
        "Paper: exec-time ratios ~0.5-1.6; S* wins outright on dense1000 "
        "(~0.48 T3D / ~0.42 T3E) because r -> 1 and C~/C -> 1.",
    ),
    "table3": (
        "Table 3 — 1D RAPID absolute MFLOPS",
        "Paper: MFLOPS grow with P on both machines; T3E ~3x T3D; speedups "
        "to 17.7 (T3D) / 24.1 (T3E) at 64 nodes; small matrices saturate.",
    ),
    "fig11": (
        "Fig. 11 — Gantt charts, graph schedule vs compute-ahead",
        "Paper: on the 7x7 sample with comp weight 2 / comm weight 1, graph "
        "scheduling executes Factor(3) early and beats the CA schedule.",
    ),
    "fig16": (
        "Fig. 16 — scheduling strategy impact (1 - PT_RAPID/PT_CA)",
        "Paper: CA occasionally wins at P=2-4; RAPID 10-40% faster for P>4, "
        "gap grows with P.",
    ),
    "table4": (
        "Table 4 — amalgamation improvement (1 - PT_amalg/PT_exact)",
        "Paper: 10-55% improvement across P=1..32 (r=4-6 best).",
    ),
    "table5": (
        "Table 5 — 2D async on T3D, large matrices",
        "Paper: up to 1.48 GFLOPS on 64 nodes (23.1 MFLOPS/node; 32.8 at 16).",
    ),
    "table6": (
        "Table 6 — 2D async on T3E (headline)",
        "Paper: up to 6.878 GFLOPS on 128 nodes; 64-node T3E/T3D ratio "
        "3.1-3.4x against a 3.7x DGEMM-rate ratio.",
    ),
    "fig17": (
        "Fig. 17 — 1D RAPID vs 2D (1 - PT_RAPID/PT_2D)",
        "Paper: 1D RAPID wins whenever memory suffices; gap largest where "
        "2D's load-balance advantage is smallest.",
    ),
    "fig18": (
        "Fig. 18 — load balance factors",
        "Paper: 2D block-cyclic balances update work better than the 1D "
        "column mapping on most matrices.",
    ),
    "table7": (
        "Table 7 — 2D async vs sync improvement",
        "Paper: ~3-10% at P=2-4 rising to ~25-35% at P=16-64.",
    ),
    "eq4": (
        "Eq. (4) — analytic sequential model",
        "Paper: dense-case prediction 0.48 (T3D) / 0.42 (T3E) matches "
        "Table 2 almost exactly; sparse cases deviate with block-size "
        "nonuniformity.",
    ),
    "ablation_ordering": (
        "Ablation — ordering vs overestimation (memplus pathology)",
        "Paper: static fill 119x SuperLU's for memplus under the AtA "
        "ordering, 2.34x when orderings match; a nearly dense row is the "
        "failure mode named in the conclusion.",
    ),
    "ablation_grid": (
        "Ablation — 2D grid aspect ratio",
        "Paper: p_r <= p_c + 1 always better; p_c/p_r = 2 used in practice.",
    ),
    "ablation_blocksize": (
        "Ablation — supernode block-size cap",
        "Paper: block size 25; larger caps reduce available parallelism, "
        "smaller ones forfeit BLAS-3 rates.",
    ),
    "ablation_network": (
        "Ablation — message-latency sensitivity",
        "Paper: low-overhead RMA (2.7 us shmem_put) is critical for sparse "
        "code with mixed granularities.",
    ),
    "memory_scalability": (
        "Memory — 1D vs 2D per-node footprints",
        "Paper: 1D needs up to O(S1) per node (could not run the Table 6 "
        "giants); 2D needs S1/p plus Theorem 2 buffers.",
    ),
    "storage_backends": (
        "Storage — packed panels vs padded dense blocks",
        "The paper's packed supernode layout vs this repo's padded-block "
        "storage: same pivots, same flops, less memory.  A recorded "
        "comparison: these rows were measured at `73ec0d6`, the last commit "
        "that had the second storage backend and the bench script that wrote "
        "them (both deleted in PR 22 — no driver, ABFT or perturbation path "
        "ever used it); `BENCH_storage_backends.json` is kept as evidence.",
    ),
    "ordering_host": (
        "Ordering — host seconds of the AᵀA pattern and minimum degree",
        "Paper (Section 3.1): columns are ordered by multiple minimum degree "
        "on the graph of AᵀA; no time is reported for it.  Rows compare the "
        "commit before PR 23 (`parent_*`) with this tree, best repeat of the "
        "best of three alternating processes; the permutation digest and the "
        "fill are the same on both trees or the bench script refuses to write "
        "(`python benchmarks/bench_ordering_host.py`).",
    ),
    "numeric_kernels": (
        "Numeric kernels — host seconds by supernode shape",
        "Paper (Sections 3-4, Theorem 1): dense U subcolumns make the "
        "updates DGEMM; no host time is reported.  On the benchmark patterns "
        "most block columns are one wide and a call costs more than its "
        "flops.  Rows compare the commit before every L_KK^-1 became one "
        "product with an inverted unit triangle (`parent_*`) with this tree: "
        "the sequential Factor/Update sweep split by column width (`w1` one "
        "wide, `wide` wider), one `(n, 3)` block solve, and the update's "
        "kernel calls (triangles applied in Update, triangles inverted); best "
        "repeat of the best of three alternating processes.  Pivots are the "
        "same on both trees or the bench script refuses to write; "
        "`same_bits` says whether the arena and solution bytes are too (the "
        "inverted triangle moves them on purpose; "
        "`python benchmarks/bench_numeric_kernels.py`).",
    ),
    "oracle_splu": (
        "Oracle — S* against SuperLU (scipy's splu)",
        "Paper (Section 6, Table 2): S* is compared with SuperLU on time "
        "and fill.  Here SuperLU is the accuracy oracle, with the metrics of "
        "Li & Liu's survey: componentwise (Oettli-Prager) backward error "
        "`omega`, normwise `eta`, pivot growth `rho = max|U| / max|A|`, "
        "fill `nnz(L+U)` against splu's and the 1-norm condition estimate "
        "`condest` (Hager), over the exact `kappa_1` of a dense inverse "
        "where n <= 500, on the small suite, the benchmark workloads' "
        "patterns and an adversarial corpus, for the parent commit "
        "(`parent_*`) and this tree.  A case passes when "
        "`eta <= 3 n eps rho`, `omega` meets the same bound (or stays "
        "within 10x of splu's where splu's does not), the static fill is "
        "within 4x of splu's, `kappa1 / condest` is within 1.2, and a "
        "singular or unreadable case raises its named, typed error "
        "(`tests/test_oracle_splu.py`; the table comes from "
        "`PYTHONPATH=src python tests/test_oracle_splu.py`).",
    ),
    "trisolve": (
        "Triangular solves vs factorization",
        "Paper (Section 2): the triangular solvers are much less time "
        "consuming than the elimination; they are latency-bound.",
    ),
    "mutation": (
        "Lint census — seeded mutants against the rules and the dynamic gates",
        "Not in the paper.  S*'s static symbolic phase makes numerics and "
        "message order a function of the pattern alone; this census asks "
        "which `repro lint` rules catch a bug no run-time gate does.  Each "
        "row is one mutant of one rule's bug class, seeded alone into "
        "`src/repro` at the commit that had all ten rules: whether the "
        "mutated line runs under the gate modules, whether the rule "
        "reports it at `warning` or above, the tests failing under the "
        "default hash seed and `PYTHONHASHSEED=987654` (gate modules plus "
        "every tier-1 module importing the mutated one), and the failing "
        "tools (`verify-comm`, `check_e2e_exact.py`, `chaos --budget 70`), "
        "with this tree's run-time RNG watch (`tests/call_watch.py`) laid "
        "over the tests.  The watch turns D103-1 and D103-3 `dynamic`.  "
        "D103-2 stays `rule only` here because no module of its gate set "
        "calls `validate_matrix`; tier-1's one caller, "
        "`tests/test_cli.py::TestValidate`, fails under the watch on it, so "
        "the repo keeps no static rule "
        "(`python tools/lint_census.py --jobs 2`; DESIGN \"Static "
        "analysis\").",
    ),
    "tune_gain": (
        "Autotuning — model-guided search vs the static default",
        "The paper picks block size 25 and the p_c/p_r ~ 2 grid by hand "
        "(Section 6); repro.tune searches the declared space per pattern "
        "and must match or beat that hand configuration.",
    ),
}

ORDER = [
    "table1", "table2", "table3", "fig11", "fig16", "table4",
    "table5", "table6", "fig17", "fig18", "table7", "eq4",
    "ablation_ordering", "ablation_grid", "ablation_blocksize",
    "ablation_network", "memory_scalability", "storage_backends",
    "ordering_host", "numeric_kernels", "oracle_splu", "trisolve", "tune_gain",
    "mutation",
]


def fmt_value(v):
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.01:
            return f"{v:.3g}"
        return f"{v:.3f}".rstrip("0").rstrip(".")
    return str(v)


def md_table(rows) -> str:
    if not rows:
        return "_no rows recorded_\n"
    cols = list(rows[0].keys())
    out = ["| " + " | ".join(cols) + " |",
           "|" + "|".join("---" for _ in cols) + "|"]
    for r in rows:
        out.append("| " + " | ".join(fmt_value(r.get(c, "")) for c in cols) + " |")
    return "\n".join(out) + "\n"


def main() -> None:
    parts = [
        "# EXPERIMENTS — paper vs measured\n",
        "Generated by `tools/make_experiments.py` from "
        "`benchmarks/results/BENCH_*.json` (run `pytest benchmarks/ -s "
        "--benchmark-disable` first).\n",
        "Absolute numbers are *modeled* on the calibrated T3D/T3E simulator "
        "over reduced-scale synthetic analogues; the reproduction targets "
        "are the paper's comparative shapes, asserted inside each "
        "benchmark module.\n",
    ]
    for key in ORDER:
        title, note = PAPER_NOTES[key]
        path = RESULTS / f"BENCH_{key}.json"
        parts.append(f"\n## {title}\n")
        parts.append(f"**Paper reference.** {note}\n")
        if not path.exists():
            parts.append("_results file missing — bench not yet run_\n")
            continue
        data = json.loads(path.read_text())
        parts.append(f"**Measured** (scale `{data['scale']}`):\n")
        parts.append(md_table(data["rows"]))
    (ROOT / "EXPERIMENTS.md").write_text("\n".join(parts))
    print(f"wrote {ROOT / 'EXPERIMENTS.md'}")


if __name__ == "__main__":
    main()
