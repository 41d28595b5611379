"""L-supernode detection and the 2D L/U block partition (Section 3.2).

A supernode of the *static* structure is a maximal run of consecutive
columns ``k .. k+s`` whose L-column structures are nested exactly:
``lcol[k+1] == lcol[k] \\ {k}`` — i.e. identical below-diagonal structure
and a structurally dense diagonal block.  Following the paper, the column
partition is then applied to the **rows as well**, dividing the matrix into
``N x N`` submatrices; Theorem 1 guarantees every nonzero U submatrix then
consists of structurally dense subcolumns.

Supernodes larger than ``max_size`` are split (the paper uses block size 25
to balance cache reuse against lost parallelism).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..symbolic import SymbolicFactorization


def find_supernodes(sym: SymbolicFactorization, max_size: int = 25) -> list:
    """Return supernode boundaries ``[s0=0, s1, ..., n]`` from the static
    L structure, capping supernode width at ``max_size``."""
    n = sym.n
    if n == 0:
        return [0]  # no columns, no supernodes
    lens = np.fromiter(map(len, sym.lcol), dtype=np.int64, count=n)
    offs = np.cumsum(lens) - lens
    flat = np.concatenate(sym.lcol)
    # same supernode iff lcol[k] == lcol[k-1] minus its diagonal entry.  The
    # columns lie back to back in ``flat``, so when the lengths fit, entry i
    # of column k-1 (past its diagonal) faces entry i + len(k-1) - 1
    partner = np.arange(len(flat)) + np.repeat(lens - 1, lens)
    differs = flat != flat[np.minimum(partner, len(flat) - 1)]
    differs[offs] = False
    mismatches = np.add.reduceat(differs, offs)
    same = np.zeros(n, dtype=bool)
    same[1:] = (lens[1:] == lens[:-1] - 1) & (mismatches[:-1] == 0)
    # a run of "same" columns is cut every max_size columns
    pos = np.arange(n)
    run_start = np.maximum.accumulate(np.where(same, 0, pos))
    bounds = pos[(pos - run_start) % max_size == 0].tolist()
    bounds.append(n)
    return bounds


@dataclass
class BlockPartition:
    """The 2D partition: ``N`` row/column blocks with bounds ``S``.

    ``bounds[I] .. bounds[I+1]-1`` are the positions of block ``I``;
    ``block_of[p]`` maps a global position to its block.
    """

    bounds: np.ndarray

    def __post_init__(self) -> None:
        self.bounds = np.asarray(self.bounds, dtype=np.int64)
        self.block_of = np.repeat(
            np.arange(self.N, dtype=np.int64), np.diff(self.bounds)
        )
        # plain-int views of the bounds: start()/size() sit on the hot path
        # of every Factor/Update task, and indexing a Python list is several
        # times cheaper than ndarray scalar extraction
        self._bounds_list = self.bounds.tolist()
        self._sizes_list = np.diff(self.bounds).tolist()
        self._positions = {}

    @property
    def N(self) -> int:
        """Number of blocks."""
        return len(self.bounds) - 1

    @property
    def n(self) -> int:
        return self._bounds_list[-1]

    def start(self, b: int) -> int:
        """S(b): first position of block b."""
        return self._bounds_list[b]

    def size(self, b: int) -> int:
        return self._sizes_list[b]

    def positions(self, b: int) -> np.ndarray:
        pos = self._positions.get(b)
        if pos is None:
            pos = self._positions[b] = np.arange(
                self.bounds[b], self.bounds[b + 1]
            )
        return pos

    def sizes(self) -> np.ndarray:
        return np.diff(self.bounds)

    def __repr__(self) -> str:  # pragma: no cover
        return f"BlockPartition(N={self.N}, n={self.n})"


def build_partition(
    sym: SymbolicFactorization,
    max_size: int = 25,
    amalgamation: int = 0,
) -> BlockPartition:
    """Supernode partition of the static structure, optionally relaxed by
    amalgamation factor ``amalgamation`` (0 disables; the paper finds 4-6
    best)."""
    bounds = find_supernodes(sym, max_size=max_size)
    if amalgamation > 0:
        from .amalgamate import amalgamate_supernodes

        bounds = amalgamate_supernodes(
            sym, bounds, factor=amalgamation, max_size=max_size
        )
    return BlockPartition(np.asarray(bounds, dtype=np.int64))


def supernode_stats(sym: SymbolicFactorization, max_size: int = 25) -> dict:
    """Width statistics of the exact supernode partition.

    The paper motivates amalgamation with "the average size of a supernode
    after L/U partitioning is very small, about 1.5 to two columns"; this
    reports the measured distribution for a static structure.
    """
    bounds = find_supernodes(sym, max_size=max_size)
    widths = np.diff(np.asarray(bounds))
    return {
        "count": int(len(widths)),
        "mean_width": float(widths.mean()) if len(widths) else 0.0,
        "max_width": int(widths.max()) if len(widths) else 0,
        "singletons": int(np.count_nonzero(widths == 1)),
    }
