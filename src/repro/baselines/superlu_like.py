"""Left-looking sparse LU with partial pivoting and dynamic symbolic fill.

This is the Gilbert-Peierls / SuperLU computational pattern the paper uses
as its sequential comparator: for each column, a symbolic depth-first search
finds the reachable set in the current L structure, a sparse triangular
solve produces the column, and the pivot is chosen by magnitude.  Symbolic
work happens *on the fly* — exactly the part S* moves to a static
preprocessing phase — and most numeric flops are BLAS-2-shaped (column
updates), which is why the machine model prices them at the DGEMV rate.

Outputs include the *dynamic* L/U structures (the "SuperLU" fill columns of
Table 1) and a flop count (the denominator of the paper's MFLOPS formula).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse import CSRMatrix, csr_transpose


@dataclass
class DynamicLU:
    """Factors produced by :func:`superlu_like_factor`.

    L is stored by columns over *original row ids*; ``perm_r`` maps an
    original row to its pivot position.  U is stored by columns over pivot
    positions.
    """

    n: int
    lcols_rows: list  # column j -> np.ndarray of original row ids (below diag)
    lcols_vals: list
    ucols_pos: list  # column j -> np.ndarray of pivot positions (< j)
    ucols_vals: list
    udiag: np.ndarray  # diagonal of U per column
    perm_r: np.ndarray  # original row id -> pivot position
    flops: float = 0.0
    symbolic_steps: int = 0  # DFS edge traversals: proxy for symbolic cost

    @property
    def factor_entries(self) -> int:
        """Entries of L + U with the diagonal counted once (L unit diag)."""
        return sum(len(c) for c in self.lcols_rows) + sum(
            len(c) for c in self.ucols_pos
        ) + self.n

    def l_column_structures(self) -> list:
        """L structure per column, diagonal included.

        It reports the storage positions under LAPACK swap semantics — at
        each step the pivot row is interchanged into the diagonal position
        — which is the coordinate system the George-Ng static prediction
        models (and what the S* block code physically does).
        """
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.perm_r] = np.arange(self.n)  # pivot position -> original row
        pos_of = np.arange(self.n, dtype=np.int64)  # original row -> position
        occupant = np.arange(self.n, dtype=np.int64)  # position -> original row
        out = []
        for j in range(self.n):
            pr = inv[j]  # original pivot row of step j
            pj = pos_of[pr]
            other = occupant[j]
            occupant[j], occupant[pj] = pr, other
            pos_of[pr], pos_of[other] = j, pj
            out.append(
                np.sort(
                    np.concatenate(
                        [[j], pos_of[self.lcols_rows[j]]]
                    ).astype(np.int64)
                )
            )
        return out

    def u_row_structures(self) -> list:
        """U structure per row (columns >= the diagonal), comparable with the
        static ``urow``."""
        rows = [[k] for k in range(self.n)]
        for j in range(self.n):
            for k in self.ucols_pos[j]:
                rows[int(k)].append(j)
        return [np.asarray(sorted(set(r)), dtype=np.int64) for r in rows]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` using the stored factors."""
        n = self.n
        # y in pivot-position space: y = L^{-1} P b
        y = np.empty(n)
        pos_of = self.perm_r
        borig = np.asarray(b, dtype=np.float64)
        y[pos_of] = borig  # permute
        for j in range(n):
            yj = y[j]
            if len(self.lcols_rows[j]):
                y[pos_of[self.lcols_rows[j]]] -= self.lcols_vals[j] * yj
        # back solve U x = y (U stored by columns over positions)
        x = y
        for j in range(n - 1, -1, -1):
            x[j] /= self.udiag[j]
            if len(self.ucols_pos[j]):
                x[self.ucols_pos[j]] -= self.ucols_vals[j] * x[j]
        return x


def superlu_like_factor(A: CSRMatrix, pivot_rule: str = "partial") -> DynamicLU:
    """Factor ``A`` (square) left-looking with dynamic symbolic fill.

    ``pivot_rule``:

    * ``"partial"`` — largest magnitude (the paper's GEPP);
    * ``"random"``  — any structurally valid nonzero candidate, chosen by a
      deterministic hash; used by the property tests to check that the
      *static* structure bounds the dynamic one for arbitrary pivot
      sequences.
    """
    n = A.nrows
    if A.ncols != n:
        raise ValueError("square matrix required")
    Acsc = csr_transpose(A)  # rows of Acsc are columns of A

    lcols_rows, lcols_vals = [], []
    ucols_pos, ucols_vals = [], []
    udiag = np.zeros(n)
    perm_r = np.full(n, -1, dtype=np.int64)  # original row -> pivot position
    row_of_pos = np.full(n, -1, dtype=np.int64)

    # L adjacency for the symbolic DFS, in pivot-position space:
    # lstruct[k] = original rows with a nonzero multiplier in L column k
    lstruct = [None] * n

    x = np.zeros(n)  # dense accumulator over original row ids
    flops = 0.0
    symbolic_steps = 0

    for j in range(n):
        cols, vals = Acsc.row(j)  # column j of A: original rows, values
        # ---- symbolic: find reach of the pivoted rows in column j's pattern
        visited = set()
        topo = []  # pivot positions in reverse topological order

        def dfs(k):
            nonlocal symbolic_steps
            stack = [(k, 0)]
            visited.add(k)
            while stack:
                node, ptr = stack[-1]
                rows = lstruct[node]
                pushed = False
                while ptr < len(rows):
                    r = int(rows[ptr])
                    ptr += 1
                    symbolic_steps += 1
                    kk = perm_r[r]
                    if kk >= 0 and kk not in visited:
                        visited.add(int(kk))
                        stack[-1] = (node, ptr)
                        stack.append((int(kk), 0))
                        pushed = True
                        break
                if not pushed:
                    stack.pop()
                    topo.append(node)

        for r in cols:
            k = perm_r[int(r)]
            if k >= 0 and int(k) not in visited:
                dfs(int(k))

        # ---- numeric: sparse lower solve along topological order
        x[cols] = vals
        nonzero_rows = set(int(r) for r in cols)
        for k in reversed(topo):  # topological order
            rk = row_of_pos[k]
            xk = x[rk]
            if xk != 0.0:
                rows = lstruct[k]
                lv = lcols_vals[k]
                x[rows] -= lv * xk
                flops += 2.0 * len(rows)
            nonzero_rows.add(int(rk))
            nonzero_rows.update(int(r) for r in lstruct[k])

        # ---- split into U part (pivoted rows) and candidate rows
        upos, uvals_j = [], []
        cand_rows, cand_vals = [], []
        for r in sorted(nonzero_rows):
            k = perm_r[r]
            if k >= 0:
                upos.append(int(k))
                uvals_j.append(x[r])
            else:
                cand_rows.append(r)
                cand_vals.append(x[r])

        if not cand_rows:
            raise np.linalg.LinAlgError(f"structurally singular at column {j}")
        cand_vals = np.asarray(cand_vals)
        if pivot_rule == "partial":
            pick = int(np.argmax(np.abs(cand_vals)))
        elif pivot_rule == "random":
            nz = np.flatnonzero(cand_vals)
            pool = nz if len(nz) else np.arange(len(cand_vals))
            pick = int(pool[(j * 2654435761 + len(pool)) % len(pool)])
        else:
            raise ValueError(f"unknown pivot rule {pivot_rule!r}")
        piv_row = cand_rows[pick]
        piv_val = cand_vals[pick]
        if piv_val == 0.0:
            raise np.linalg.LinAlgError(f"numerically singular at column {j}")

        perm_r[piv_row] = j
        row_of_pos[j] = piv_row
        udiag[j] = piv_val

        below_rows = np.asarray(
            [r for i, r in enumerate(cand_rows) if i != pick], dtype=np.int64
        )
        below_vals = np.asarray(
            [v for i, v in enumerate(cand_vals) if i != pick]
        )
        below_vals = below_vals / piv_val
        flops += float(len(below_vals))

        order = np.argsort(upos) if upos else []
        ucols_pos.append(np.asarray(upos, dtype=np.int64)[order] if upos else np.empty(0, np.int64))
        ucols_vals.append(np.asarray(uvals_j)[order] if upos else np.empty(0))
        lcols_rows.append(below_rows)
        lcols_vals.append(below_vals)
        lstruct[j] = below_rows

        # reset accumulator
        for r in sorted(nonzero_rows):
            x[r] = 0.0

    return DynamicLU(
        n,
        lcols_rows,
        lcols_vals,
        ucols_pos,
        ucols_vals,
        udiag,
        perm_r,
        flops=flops,
        symbolic_steps=symbolic_steps,
    )
