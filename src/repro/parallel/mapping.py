"""Data mappings: 1D block-cyclic columns and the 2D processor grid.

The 2D mapping is the paper's standard function: submatrix ``A_IJ`` lives on
processor ``(I mod p_r, J mod p_c)``.  The paper observes ``p_c ~ 2 p_r``
performs best; :func:`Grid2D.preferred` picks that shape.

A mapping answers the three questions the distributed triangular solve
(:mod:`repro.parallel.trisolve`) asks: ``seg_owner(K)`` — who holds segment
``x_K``; ``block_owner(I, J)`` — who holds block ``(I, J)``; ``col_group(K)``
— the ranks that must see the finalised ``x_K`` (every owner of a block in
column ``K``).  ``check(N, nprocs)`` raises ``ValueError`` when the mapping
does not fit a factor of ``N`` block columns run on ``nprocs`` ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def cyclic_owner(N: int, nprocs: int) -> np.ndarray:
    """1D block-cyclic column ownership."""
    return np.arange(N, dtype=np.int64) % nprocs


class ColumnMapping:
    """The 1D mapping: block column ``J``, and ``x_J`` with it, on ``owner[J]``."""

    def __init__(self, owner):
        self.owner = [int(p) for p in owner]

    def seg_owner(self, K: int) -> int:
        return self.owner[K]

    def block_owner(self, I: int, J: int) -> int:
        return self.owner[J]

    def col_group(self, K: int) -> tuple:
        return (self.owner[K],)

    def check(self, N: int, nprocs: int) -> None:
        if len(self.owner) != N:
            raise ValueError(
                f"owner maps {len(self.owner)} block columns, the factor has {N}"
            )
        for K, p in enumerate(self.owner):
            if not 0 <= p < nprocs:
                raise ValueError(
                    f"block column {K} is mapped to rank {p}, "
                    f"the run has ranks 0..{nprocs - 1}"
                )


@dataclass(frozen=True)
class Grid2D:
    """A ``p_r x p_c`` processor grid with row-major rank numbering."""

    pr: int
    pc: int

    @property
    def nprocs(self) -> int:
        return self.pr * self.pc

    def rank(self, r: int, c: int) -> int:
        return r * self.pc + c

    def coords(self, rank: int) -> tuple:
        return rank // self.pc, rank % self.pc

    def owner_of_block(self, I: int, J: int) -> int:
        return self.rank(I % self.pr, J % self.pc)

    block_owner = owner_of_block

    def seg_owner(self, K: int) -> int:
        return self.rank(K % self.pr, K % self.pc)

    def col_group(self, K: int) -> list:
        return self.col_ranks(K % self.pc)

    def check(self, N: int, nprocs: int) -> None:
        if self.nprocs != nprocs:
            raise ValueError(
                f"grid {self.pr}x{self.pc} has {self.nprocs} ranks, "
                f"the run has {nprocs}"
            )

    @lru_cache(maxsize=None)
    def row_ranks(self, r: int) -> list:
        """All ranks in processor row r (shared list: callers only iterate)."""
        return [self.rank(r, c) for c in range(self.pc)]

    @lru_cache(maxsize=None)
    def col_ranks(self, c: int) -> list:
        """All ranks in processor column c (shared list: callers only iterate)."""
        return [self.rank(r, c) for r in range(self.pr)]

    @classmethod
    def preferred(cls, nprocs: int) -> "Grid2D":
        """The paper's preferred shape: ``p_c / p_r ~ 2`` (e.g. 8 -> 2x4)."""
        best = None
        for pr in range(1, nprocs + 1):
            if nprocs % pr:
                continue
            pc = nprocs // pr
            if pc < pr:
                continue
            score = abs(pc / pr - 2.0)
            if best is None or score < best[0]:
                best = (score, pr, pc)
        return cls(best[1], best[2])
