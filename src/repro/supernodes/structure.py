"""Block-level nonzero structure and Theorem-1 dense-subcolumn metadata.

From the static symbolic structure and a :class:`BlockPartition` this module
derives:

* which ``(I, J)`` submatrices are nonzero (separately for L and U),
* for each nonzero U block, the set of structurally dense subcolumns
  (Theorem 1 / Corollary 3: after amalgamation they are *almost* dense),
* per-block entry counts used for FLOP accounting and buffer sizing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sparse import sorted_unique
from ..symbolic import SymbolicFactorization
from .partition import BlockPartition


@dataclass
class BlockStructure:
    """Static block nonzero structure of the partitioned factor."""

    part: BlockPartition
    lblocks: dict  # J -> sorted list of block rows I >= J with L_{IJ} != 0
    ublocks: dict  # I -> sorted list of block cols J >  I with U_{IJ} != 0
    udense_cols: dict  # (I, J) -> sorted array of global dense subcolumn ids
    lrows: dict  # (I, J), I >= J -> sorted array of global structural rows
    # the storage layout compiled from this structure
    # (repro.numfact.blocks.NumericPlan.of), built on first use
    _numeric_plan: object = field(default=None, init=False, repr=False,
                                  compare=False)

    @property
    def N(self) -> int:
        return self.part.N

    def l_block_rows(self, J: int) -> list:
        """Block rows I >= J with a nonzero L block in column J."""
        return self.lblocks.get(J, [])

    def u_block_cols(self, I: int) -> list:
        """Block columns J > I with a nonzero U block in row I."""
        return self.ublocks.get(I, [])

    def has_u(self, I: int, J: int) -> bool:
        return (I, J) in self.udense_cols

    def has_l(self, I: int, J: int) -> bool:
        return (I, J) in self.lrows

    def has_block(self, I: int, J: int) -> bool:
        return self.has_l(I, J) if I >= J else self.has_u(I, J)

    def nonzero_blocks(self):
        """Iterate all nonzero (I, J) block coordinates."""
        seen = set(self.lrows)
        seen.update(self.udense_cols)
        return sorted(seen)

    def l_rows_count(self, I: int, J: int) -> int:
        """Structural rows of L block (I, J) — the rows the paper's packed
        supernode storage holds (diagonal blocks are fully dense)."""
        if I == J:
            return self.part.size(I)
        rows = self.lrows.get((I, J))
        return 0 if rows is None else len(rows)

    def panel_rows_count(self, K: int) -> int:
        """Structural rows of the whole L panel of column block K."""
        return sum(self.l_rows_count(I, K) for I in self.l_block_rows(K))

    def block_entry_count(self, I: int, J: int) -> int:
        """Structural entries inside block (I, J) (before dense padding)."""
        if I >= J:
            rows = self.lrows.get((I, J))
            if rows is None:
                return 0
            if I == J:
                # dense lower triangle of the diagonal block plus U part rows
                bs = self.part.size(I)
                return bs * (bs + 1) // 2
            return len(rows) * self.part.size(J)
        cols = self.udense_cols.get((I, J))
        if cols is None:
            return 0
        return len(cols) * self.part.size(I)

    def density_report(self) -> dict:
        """Fraction of U-block subcolumns that are structurally dense, and
        the share of fully dense U blocks — the Theorem 1 payoff."""
        total_cols = 0
        full_blocks = 0
        nblocks = 0
        for (_I, J), cols in self.udense_cols.items():
            nblocks += 1
            total_cols += len(cols)
            if len(cols) == self.part.size(J):
                full_blocks += 1
        return {
            "u_blocks": nblocks,
            "dense_subcolumns": total_cols,
            "fully_dense_u_blocks": full_blocks,
            "fully_dense_fraction": full_blocks / nblocks if nblocks else 1.0,
        }


def _project(structs: list, block_of: np.ndarray, skip_own_block: bool):
    """Project per-position index lists onto the block grid.

    ``structs[k]`` holds the global indices position ``k`` touches.  Returns
    ``(segments, neighbours)``: ``segments[(B, C)]`` is the sorted array of
    distinct indices in block ``C`` touched from positions in block ``B``,
    and ``neighbours[B]`` the sorted list of those ``C``.  One gather, one
    sort and one split; no per-entry Python.
    """
    n = len(block_of)
    lens = np.fromiter(map(len, structs), dtype=np.int64, count=n)
    own = np.repeat(block_of, lens)
    idx = np.concatenate(structs) if n else np.empty(0, dtype=np.int64)
    if skip_own_block:
        off_block = block_of[idx] != own
        own, idx = own[off_block], idx[off_block]
    # block_of is monotone, so sorting (own block, index) pairs also groups
    # them by (own block, index's block)
    pairs = sorted_unique(own * n + idx)
    own, idx = np.divmod(pairs, n)
    other = block_of[idx]
    starts = _run_starts(own, other)
    own, other = own[starts], other[starts]
    segments = dict(zip(
        zip(own.tolist(), other.tolist()), _split(idx, starts)
    ))
    own_starts = _run_starts(own)
    neighbours = dict(zip(
        own[own_starts].tolist(),
        (a.tolist() for a in _split(other, own_starts)),
    ))
    return segments, neighbours


def _run_starts(*keys) -> np.ndarray:
    """Positions where any of the equally long ``keys`` arrays changes."""
    first = np.zeros(len(keys[0]), dtype=bool)
    for key in keys:
        first[1:] |= key[1:] != key[:-1]
    first[:1] = True
    return np.flatnonzero(first)


def _split(arr: np.ndarray, starts: np.ndarray) -> list:
    """Views of ``arr`` cut at ``starts`` (``np.split`` without its
    per-piece axis bookkeeping)."""
    cuts = starts.tolist()
    return [arr[a:b] for a, b in zip(cuts, cuts[1:] + [len(arr)])]


def build_block_structure(
    sym: SymbolicFactorization, part: BlockPartition
) -> BlockStructure:
    """Project the static structure onto the 2D block grid."""
    block_of = part.block_of
    # L column k: rows >= k, filed under (row block, column block)
    by_col, lblocks = _project(sym.lcol, block_of, skip_own_block=False)
    # U row k: columns >= k; the diagonal block is handled via lrows
    udense, ublocks = _project(sym.urow, block_of, skip_own_block=True)
    return BlockStructure(
        part=part,
        lblocks=lblocks,
        ublocks=ublocks,
        udense_cols=udense,
        lrows={(I, J): rows for (J, I), rows in by_col.items()},
    )
