"""Frozen reference implementations of the two ordering kernels.

These are the bodies of ``repro.ordering.minimum_degree`` and
``repro.sparse.ata_pattern`` as they stood at commit 5fb0898, before PR 23
rewrote both in set algebra.  They are the oracle the property tests in
``test_ordering.py`` and ``test_sparse_ops.py`` compare the live code with:
slow, obviously per-pair, and not to be "improved".
"""

import numpy as np

from repro.sparse import coo_to_csr


def reference_minimum_degree(G, multiple=True):
    """``(perm, fill_edges)`` by explicit pairwise clique formation."""
    n = G.nrows
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in G.row_indices(i):
            if i != j:
                adj[i].add(int(j))
                adj[j].add(i)

    eliminated = np.zeros(n, dtype=bool)
    perm = []
    fill_edges = 0
    degrees = np.array([len(a) for a in adj], dtype=np.int64)

    remaining = n
    while remaining > 0:
        dmin = degrees[~eliminated].min()
        batch = []
        blocked = set()
        for v in np.flatnonzero(~eliminated):
            if degrees[v] == dmin and v not in blocked:
                batch.append(int(v))
                blocked.add(int(v))
                blocked.update(adj[v])
                if not multiple:
                    break
        for v in batch:
            clique = adj[v]
            indistinct = [
                u
                for u in sorted(clique)
                if not eliminated[u] and adj[u] - {v} == clique - {u}
            ]
            nb = [u for u in sorted(clique) if not eliminated[u]]
            for idx, a in enumerate(nb):
                for b in nb[idx + 1:]:
                    if b not in adj[a]:
                        adj[a].add(b)
                        adj[b].add(a)
                        fill_edges += 1
            eliminated[v] = True
            perm.append(v)
            remaining -= 1
            for u in nb:
                adj[u].discard(v)
            adj[v] = set()
            for u in indistinct:
                if not eliminated[u]:
                    eliminated[u] = True
                    perm.append(u)
                    remaining -= 1
                    for w in sorted(adj[u]):
                        adj[w].discard(u)
                    adj[u] = set()
            for u in nb:
                if not eliminated[u]:
                    degrees[u] = len(adj[u])
    return np.asarray(perm, dtype=np.int64), fill_edges


def reference_ata_pattern(A):
    """Pattern of AᵀA as a per-entry union of row cliques."""
    n = A.ncols
    neighbors = [set() for _ in range(n)]
    for i in range(A.nrows):
        cl = A.row_indices(i).tolist()
        for j in cl:
            neighbors[j].update(cl)
    rows_out = []
    cols_out = []
    for j in range(n):
        nb = sorted(neighbors[j])
        rows_out.append(np.full(len(nb), j, dtype=np.int64))
        cols_out.append(np.asarray(nb, dtype=np.int64))
    rows_out = np.concatenate(rows_out) if rows_out else np.empty(0, np.int64)
    cols_out = np.concatenate(cols_out) if cols_out else np.empty(0, np.int64)
    return coo_to_csr(n, n, rows_out, cols_out, np.ones(len(rows_out)))
