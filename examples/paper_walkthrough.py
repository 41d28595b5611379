"""A guided tour of the S* pipeline on a small matrix (the paper's figures).

Walks one small sparse matrix through every stage the paper illustrates:
static symbolic factorization (Fig. 2), the 2D L/U supernode partition and
its dense U subcolumns (Figs. 3-4, Theorem 1), the task dependence graph
(Fig. 9), the CA-vs-graph-schedule Gantt charts (Fig. 11), and a simulated
2D asynchronous run with its execution timeline.

Run:  python examples/paper_walkthrough.py
"""

import numpy as np

from repro.machine import T3E
from repro.matrices import random_nonsymmetric
from repro.ordering import prepare_matrix
from repro.parallel import run_2d
from repro.scheduling import demo_unit_weight_charts, gantt_from_trace
from repro.supernodes import build_block_structure, build_partition
from repro.symbolic import static_symbolic_factorization
from repro.taskgraph import build_task_graph, FACTOR


def pattern_str(mask):
    return "\n".join(
        "  " + " ".join("x" if v else "." for v in row) for row in mask
    )


def main():
    A = random_nonsymmetric(14, density=0.18, seed=73)
    om = prepare_matrix(A)
    n = om.n

    print("== input pattern (after transversal + min-degree ordering) ==")
    from repro.sparse import csr_to_dense

    print(pattern_str(csr_to_dense(om.A) != 0))

    print("\n== static symbolic factorization (Fig. 2): predicted L+U ==")
    sym = static_symbolic_factorization(om.A)
    print(pattern_str(sym.filled_pattern_dense()))
    print(f"  factor entries: {sym.factor_entries}")

    print("\n== 2D L/U supernode partition (Fig. 4) ==")
    part = build_partition(sym, max_size=3, amalgamation=2)
    print(f"  boundaries S = {part.bounds.tolist()}")
    bstruct = build_block_structure(sym, part)
    rep = bstruct.density_report()
    print(f"  nonzero U blocks: {rep['u_blocks']}, fully dense: "
          f"{rep['fully_dense_u_blocks']} (Theorem 1 payoff)")

    print("\n== task dependence graph (Fig. 9) ==")
    tg = build_task_graph(bstruct)
    factors = sum(1 for t in tg.tasks if t[0] == FACTOR)
    print(f"  {factors} Factor tasks, {len(tg.tasks) - factors} Update tasks,"
          f" critical path {tg.critical_path_seconds(T3E)*1e6:.1f} us (T3E)")
    for t in tg.tasks[:8]:
        succ = ", ".join(map(str, tg.succ.get(t, [])[:4]))
        print(f"  {t} -> {succ}")

    print("\n== Fig. 11: compute-ahead vs graph schedule (unit weights) ==")
    ca, gs = demo_unit_weight_charts(tg, nprocs=2)
    print("graph schedule:")
    print(gs.render(width=56))
    print("compute-ahead:")
    print(ca.render(width=56))

    print("\n== simulated 2D asynchronous run (Figs. 12-15) ==")
    res = run_2d(om.A, part, bstruct, 4, T3E)
    print(f"  modeled time {res.parallel_seconds*1e6:.1f} us, "
          f"{res.sim.messages} messages, overlap degree {res.overlap_degree()}"
          f" (Theorem 2 bound: p_c = {res.grid.pc})")
    print(gantt_from_trace(res.sim.spans).render(width=56))

    # and of course it still solves the system
    b = np.ones(n)
    from repro.numfact import LUFactorization

    lu = LUFactorization(res.factor, sym, part, bstruct, res.sim.total_counter())
    x = lu.solve(b)
    D = csr_to_dense(om.A)
    print(f"\nresidual of the parallel factorization: "
          f"{np.linalg.norm(D @ x - b):.2e}")


if __name__ == "__main__":
    main()
