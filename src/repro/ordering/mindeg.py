"""Minimum-degree ordering on an undirected graph pattern.

The paper orders columns with *multiple minimum degree* (MMD) applied to the
graph of :math:`A^T A`.  We implement a minimum-degree elimination with the
two classic MMD accelerations that matter at our scale:

* **mass elimination** — indistinguishable nodes (identical closed
  neighbourhoods) are eliminated together with their representative, and
* **multiple elimination** — at each round every node whose degree equals
  the current minimum (and which is not adjacent to a node already picked
  this round) is eliminated before degrees are recomputed.

Elimination uses the quotient-graph-free explicit-clique update: when node v
is eliminated its neighbours become a clique.  The adjacency is one Python
``set`` per node and the clique is merged in set algebra — per neighbour one
set difference (what it gains, which is also the fill count) and one in-place
union — so the O(deg²) pair work of an elimination runs inside the set
implementation, not in a Python pair loop.  Measured
(``benchmarks/results/BENCH_ordering_host.json``): about 9 ms and 15 ms on
the two ``cold_solve`` patterns (n = 600 and 450), 0.04 s at n = 2000 and
0.2 s on a goodwin-order pattern (n = 7320, 128 k entries in :math:`A^T A`);
the cost grows with Σ deg² over the eliminations, so a pattern whose
:math:`A^T A` is nearly dense still wants ``mindeg-aplusat``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse import CSRMatrix, check_column_indices


@dataclass
class MinDegreeResult:
    """Outcome of a minimum-degree run."""

    perm: np.ndarray  # perm[k] = original index eliminated k-th
    fill_edges: int  # number of fill edges the elimination created


def minimum_degree(G: CSRMatrix, multiple: bool = True) -> MinDegreeResult:
    """Compute a minimum-degree permutation of the symmetric pattern ``G``.

    ``G`` should be structurally symmetric (e.g. the :math:`A^T A` pattern);
    an entry stored in one direction only is taken as an undirected edge.
    The diagonal is ignored and ties are broken by ascending index.

    Raises ``ValueError`` when ``G`` is not square or holds a column index
    outside ``[0, n)``.
    """
    n = G.nrows
    adj = _adjacency(G)
    # an eliminated node's degree is parked at n, above every live degree,
    # so min() and index() over the plain list skip it at C speed
    deg = [len(a) for a in adj]
    perm = []
    fill_ends = 0  # every fill edge is counted once from each of its ends

    while len(perm) < n:
        dmin = min(deg)
        # multiple elimination: grab an independent set of min-degree nodes
        batch = []
        blocked = set()
        for v in _positions(deg, dmin):
            if v not in blocked:
                batch.append(v)
                blocked |= adj[v]
                if not multiple:
                    break
        for v in batch:
            clique = adj[v]
            nb = sorted(clique)
            # mass elimination: a neighbour whose closed neighbourhood equals
            # v's goes with v; equal sets have equal sizes, so test those first
            closed = clique | {v}
            size = len(clique)
            gone = [v] + [u for u in nb if len(adj[u]) == size and adj[u] <= closed]
            if len(gone) > 1:
                # indistinguishable nodes already neighbour the whole clique:
                # they add no fill and simply leave it
                clique = clique.difference(gone)
                nb = [u for u in nb if u in clique]
            # eliminate: the surviving neighbours form a clique
            for u in nb:
                s = adj[u]
                s.difference_update(gone)
                # a difference and a union of what is new, not `s |= clique`:
                # a union with a large set makes CPython over-allocate s
                new = clique - s
                new.discard(u)
                s |= new
                fill_ends += len(new)
                deg[u] = len(s)
            for u in gone:
                adj[u] = set()
                deg[u] = n
            perm.extend(gone)
    return MinDegreeResult(np.asarray(perm, dtype=np.int64), fill_ends // 2)


def _adjacency(G: CSRMatrix) -> list:
    """One set of neighbours per node: ``G`` symmetrised, diagonal dropped."""
    n = G.nrows
    if G.ncols != n:
        raise ValueError(f"minimum_degree needs a square pattern, got shape {G.shape}")
    check_column_indices(G)
    indptr = G.indptr.tolist()
    indices = G.indices.tolist()
    adj = [set(indices[indptr[i] : indptr[i + 1]]) for i in range(n)]
    for i, a in enumerate(adj):
        a.discard(i)
        for j in a:  # inserting i into each adj[j] commutes: set order is harmless
            adj[j].add(i)
    return adj


def _positions(seq: list, value):
    """Ascending positions of ``value`` in ``seq``, one C-speed scan each."""
    i = -1
    try:
        while True:
            i = seq.index(value, i + 1)
            yield i
    except ValueError:
        return
