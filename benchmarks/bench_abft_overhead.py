"""ABFT checksum overhead — modeled cost of silent-corruption protection.

Not a paper table: this prices the checksum ledger (anchor at Factor,
Huang-Abraham carry through every Update GEMM, row-sum carry through the
triangular solves) against the unprotected factorization, in modeled
kernel seconds on the paper's T3E rates and the GENERIC host profile.

The carry is O(b^2) work per O(b^3) GEMM, so relative overhead scales as
~1/b: at the paper's dense supernode size (b=25) protection costs <15%
of modeled T3E factor time — the acceptance bound asserted here on the
dense rows — while tiny-block sparse cases (b=6) pay proportionally
more and are reported unasserted.  Every protected run must also stay
bit-identical to its unprotected twin: checksums ride alongside the
numerics, never inside them.

Rows land in ``benchmarks/results/BENCH_abft_overhead.json``.
"""

from conftest import print_table, save_results
from repro.machine import GENERIC, T3E
from repro.matrices import dense_matrix
from repro.numfact import sstar_factor
from repro.ordering import prepare_matrix
from repro.supernodes import build_partition
from repro.symbolic import static_symbolic_factorization
from repro.verify.checks import check_bit_identical

SUITE_MATRICES = ["sherman5", "orsreg1"]
DENSE_SIZES = [150, 200]
PAPER_BLOCK = 25
ABFT_BUDGET = 0.15  # acceptance: <15% modeled T3E factor time at b=25


def _measure(name, A, sym, part, block, asserted):
    base = sstar_factor(A, sym=sym, part=part)
    prot = sstar_factor(A, sym=sym, part=part, abft=True)
    c0, c1 = base.counter, prot.counter
    assert check_bit_identical(prot.matrix, base.matrix).ok
    assert prot.abft.detected == 0 and prot.abft.recovered == 0
    t3e0, t3e1 = c0.modeled_seconds(T3E), c1.modeled_seconds(T3E)
    gen0, gen1 = c0.modeled_seconds(GENERIC), c1.modeled_seconds(GENERIC)
    return {
        "matrix": name,
        "n": A.nrows,
        "block": block,
        "flops_overhead": c1.total / c0.total - 1.0,
        "t3e_overhead": t3e1 / t3e0 - 1.0,
        "generic_overhead": gen1 / gen0 - 1.0,
        "t3e_base_s": t3e0,
        "asserted": asserted,
    }


def test_abft_overhead_report(ctx_cache):
    rows = []
    for n in DENSE_SIZES:
        A = dense_matrix(n, seed=1)
        om = prepare_matrix(A)
        sym = static_symbolic_factorization(om.A)
        part = build_partition(sym, max_size=PAPER_BLOCK, amalgamation=4)
        rows.append(_measure(f"dense{n}", om.A, sym, part, PAPER_BLOCK,
                             asserted=True))
    for name in SUITE_MATRICES:
        ctx = ctx_cache(name)
        rows.append(_measure(name, ctx.ordered.A, ctx.sym, ctx.part,
                             ctx.block_size, asserted=False))

    header = ["matrix", "n", "b", "flops", "T3E", "GENERIC", "bound"]
    print_table(
        "ABFT checksum overhead (modeled factor time)",
        header,
        [
            (
                r["matrix"], r["n"], r["block"],
                f"{r['flops_overhead']:+.1%}", f"{r['t3e_overhead']:+.1%}",
                f"{r['generic_overhead']:+.1%}",
                "<15%" if r["asserted"] else "-",
            )
            for r in rows
        ],
    )
    save_results("abft_overhead", rows)

    for r in rows:
        assert r["flops_overhead"] > 0.0  # protection is never free
        if r["asserted"]:
            assert r["t3e_overhead"] < ABFT_BUDGET
            # the carry itself is cheaper than the modeled time overhead
            assert r["flops_overhead"] < r["t3e_overhead"] + 1e-12
