"""The sparse LU task dependence graph.

Tasks (Section 4.1):

* ``('F', k)`` — ``Factor(k)``, one per block column;
* ``('U', k, j)`` — ``Update(k, j)``, one per structurally nonzero ``U_kj``.

Dependence rules (the four necessary ones plus the serializing fifth the
paper adds to forgo commutativity, at ~6% average cost):

1. ``Factor(k) -> Update(k, j)`` for every ``U_kj != 0``;
2. ``Update(k', k) -> Factor(k)`` where ``k'`` is the *last* update into
   column ``k`` (no ``Update(t, k)`` with ``k' < t < k``);
3. ``Update(k, j) -> Update(k'', j)`` for consecutive updates of the same
   column block (``k < k''``, none between).

Computation weights come from the static block structure (panel flops for
Factor, TRSM+GEMM flops for Update) priced per kernel class; communication
weights are the bytes of the factored column block ``k`` (L blocks + pivot
sequence) that ``Update(k, j)`` needs.
"""

from __future__ import annotations

from dataclasses import dataclass


from ..supernodes import BlockStructure

FACTOR = "F"
UPDATE = "U"


@dataclass
class TaskGraph:
    """DAG over Factor/Update tasks with per-task seconds and edge bytes."""

    N: int
    tasks: list  # task ids in a deterministic topological-friendly order
    comp: dict  # task id -> (kernel_class, flops, granularity)
    succ: dict  # task id -> list of successor ids
    pred: dict  # task id -> list of predecessor ids
    col_bytes: dict  # k -> bytes of factored column block k (the message)
    column_of: dict  # task id -> column block it modifies (owner-compute key)

    def seconds(self, task, spec) -> float:
        kernel, fl, gran = self.comp[task]
        return spec.compute_seconds(kernel, fl, gran)

    def b_levels(self, spec) -> dict:
        """Bottom levels (critical-path-to-exit lengths) per task, a
        Factor's column message included."""
        bl = {}
        for t in reversed(self.tasks):  # self.tasks is topologically ordered
            w = self.seconds(t, spec)
            best = 0.0
            for s in self.succ.get(t, ()):
                c = 0.0
                if t[0] == FACTOR:
                    c = spec.message_seconds(self.col_bytes[t[1]])
                best = max(best, bl[s] + c)
            bl[t] = w + best
        return bl

    def critical_path_seconds(self, spec) -> float:
        bl = self.b_levels(spec)
        entries = [t for t in self.tasks if not self.pred.get(t)]
        return max(bl[t] for t in entries) if entries else 0.0


def _factor_flops(bstruct: BlockStructure, K: int) -> float:
    """Panel factorization flops of Factor(K) (BLAS-1/2 work)."""
    part = bstruct.part
    bs = part.size(K)
    rows = bstruct.panel_rows_count(K)
    fl = 0.0
    for c in range(bs):
        r = rows - c - 1
        fl += r + 2.0 * r * max(bs - c - 1, 0)
    return fl


def _update_flops(bstruct: BlockStructure, K: int, J: int) -> float:
    """TRSM + GEMM flops of Update(K, J), restricted to dense subcolumns."""
    part = bstruct.part
    bs = part.size(K)
    cdense = len(bstruct.udense_cols[(K, J)])
    fl = float(bs) * bs * cdense  # unit-lower TRSM
    for I in bstruct.l_block_rows(K):
        if I > K:
            fl += 2.0 * bstruct.l_rows_count(I, K) * bs * cdense
    return fl


def part_size(bstruct: BlockStructure, K: int) -> int:
    """Block width of column block K (the granularity driver)."""
    return bstruct.part.size(K)


def _column_bytes(bstruct: BlockStructure, K: int) -> int:
    """Wire size of factored column block K: all L blocks + pivots."""
    part = bstruct.part
    bs = part.size(K)
    rows = sum(part.size(I) for I in bstruct.l_block_rows(K))
    return 8 * (rows * bs + 2 * bs)


def build_task_graph(bstruct: BlockStructure) -> TaskGraph:
    """Construct the DAG from a static block structure."""
    N = bstruct.N
    tasks = []
    comp = {}
    succ = {}
    pred = {}
    col_bytes = {}
    column_of = {}

    def add_edge(a, b):
        succ.setdefault(a, []).append(b)
        pred.setdefault(b, []).append(a)

    # enumerate per source column k: Factor(k) then its updates — this
    # order is topological for rules 1-3.
    updates_into = {j: [] for j in range(N)}
    for k in range(N):
        fk = (FACTOR, k)
        tasks.append(fk)
        comp[fk] = ("dgemv", _factor_flops(bstruct, k), part_size(bstruct, k))
        col_bytes[k] = _column_bytes(bstruct, k)
        column_of[fk] = k
        for j in bstruct.u_block_cols(k):
            u = (UPDATE, k, j)
            tasks.append(u)
            comp[u] = ("dgemm", _update_flops(bstruct, k, j), part_size(bstruct, k))
            column_of[u] = j
            add_edge(fk, u)  # rule 1
            updates_into[j].append(u)

    for j in range(N):
        chain = updates_into[j]
        for a, b in zip(chain, chain[1:]):
            add_edge(a, b)  # rule 3
        if chain:
            add_edge(chain[-1], (FACTOR, j))  # rule 2

    # re-sort tasks topologically (rule 2 edges point forward to Factor(j),
    # so the enumeration order F(0), U(0,*), F(1), U(1,*) ... is already
    # topological: every U(k,j) precedes F(j) because k < j).
    return TaskGraph(
        N=N,
        tasks=tasks,
        comp=comp,
        succ=succ,
        pred=pred,
        col_bytes=col_bytes,
        column_of=column_of,
    )


def task_graph_of(bstruct: BlockStructure) -> TaskGraph:
    """The task graph of ``bstruct``, built on first use and memoised on it.

    The graph is a pure function of the static block structure, so repeated
    runs (benchmark sweeps, restart rounds, refactorizations) share one —
    and with it the schedules memoised on the graph."""
    tg = getattr(bstruct, "_tg_cache", None)
    if tg is None:
        tg = bstruct._tg_cache = build_task_graph(bstruct)
    return tg
