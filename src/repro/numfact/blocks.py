"""Statically-allocated dense-block storage for the partitioned factor.

Every structurally nonzero submatrix of the 2D L/U partition is allocated
once, up front, as a dense ``bs_I x bs_J`` array — the embodiment of the
paper's "static data structures never change during numerical
factorization".  Structurally-zero positions inside a block hold exact 0.0
and *stay* exactly 0.0 throughout elimination (products with exact zeros are
exact zeros), which the test suite asserts; any operation that would touch a
block outside the static structure raises :class:`StructureViolation`.

Storage is **one float64 arena laid out block-column-major**: the blocks of
column ``J`` lie back to back in ascending ``I`` (U blocks, the diagonal,
then the L blocks), each C-contiguous, so the whole column — and in
particular its L panel, diagonal included — is one C-contiguous
``rows x size(J)`` array that ``Factor(J)`` eliminates in place.
``blocks[(I, J)]`` are views into the arena.  Where each block and each CSR
entry lands is a function of the pattern alone and is compiled once into a
:class:`NumericPlan`, memoised on the :class:`BlockStructure`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..sparse import CSRMatrix
from ..supernodes import BlockPartition, BlockStructure


class StructureViolation(RuntimeError):
    """An operation tried to move a nonzero outside the static structure —
    per George-Ng this cannot happen; raising loudly guards the invariant."""


class SingularMatrixError(RuntimeError):
    """No structural candidate with a usable value exists for some pivot.

    ``pivot_index`` is the offending global column (elimination index),
    when known.
    """

    def __init__(self, message, pivot_index: int = None):
        super().__init__(message)
        self.pivot_index = pivot_index


class NumericPlan:
    """Where everything lives in the arena, compiled from the pattern.

    Per nonzero block, in arena order (by ``J``, then ``I``): its key, block
    row, first row inside its column and structural row count; per block
    column: its block range, its diagonal block, its arena offset, the start
    of its L panel and that panel's structural rows.  Held as int64 arrays
    (plus one list of references to the structure's own key tuples), not as
    per-block Python objects: a plan rides on every cached
    :class:`BlockStructure`, outside ``AnalysisArtifacts.nbytes`` (see
    :attr:`nbytes`).

    The flat arena position of every entry of the *most recent* CSR pattern
    scattered through the plan is kept too, keyed by a digest of that
    pattern, so a same-pattern refactor is one fancy-index store.

    What every ``Update(K, J)`` needs of column ``K`` alone — the row range
    of each L block inside the panel (:meth:`below_diagonal`) — is tabulated
    on first use and kept, so repeated runs on one pattern read it instead
    of re-deriving it per update; a pattern that is factored once and
    dropped never builds more than the columns it touches.  The global rows
    of every width-1 column's L panel (:meth:`width1_rows`, for the
    triangular solve) are one int64 array, built on the first solve.  The
    panel's shape and wire size (:meth:`lpanel_shape`,
    :meth:`column_nbytes`) are O(1) from the offsets above.
    """

    def __init__(self, bstruct: BlockStructure):
        part = bstruct.part
        N = part.N
        keys = list(bstruct.lrows)
        keys.extend(bstruct.udense_cols)
        IJ = np.array(keys, dtype=np.int64).reshape(-1, 2)
        order = np.lexsort((IJ[:, 0], IJ[:, 1]))
        I, J = IJ[order, 0], IJ[order, 1]
        self.part = part
        self.keys = [keys[i] for i in order.tolist()]
        self.blk_I = I
        self.col_ptr = np.searchsorted(J, np.arange(N + 1))
        self.col_diag = np.flatnonzero(I == J)
        if len(self.col_diag) != N:
            raise StructureViolation("a diagonal block is structurally zero")
        sizes = self.sizes = part.sizes()
        rows = sizes[I]
        above = np.cumsum(rows) - rows  # rows before the block, arena-wide
        first = self.col_ptr[:-1]
        self.blk_row0 = above - np.repeat(above[first], np.diff(self.col_ptr))
        col_rows = np.add.reduceat(rows, first) if N else rows
        self.col_off = np.concatenate(([0], np.cumsum(col_rows * sizes)))
        self.lpanel_off = (
            self.col_off[:-1] + self.blk_row0[self.col_diag] * sizes
        )
        # structural rows the paper's packed storage holds: every row of a
        # diagonal block, the listed rows of an L block, none for U
        lrows = bstruct.lrows
        self.blk_srows = np.where(
            I == J, rows,
            np.fromiter(
                (len(lrows[k]) if k[0] > k[1] else 0 for k in self.keys),
                dtype=np.int64, count=len(self.keys),
            ),
        )
        self.col_srows = (
            np.add.reduceat(self.blk_srows, first) if N else self.blk_srows
        )
        self._below = {}  # K -> below_diagonal(K), built on first use
        self._w1_rows = self._w1_ptr = None  # width1_rows, built on first use
        self._pattern = None  # digest of the CSR pattern _scatter is for
        self._scatter = None

    @classmethod
    def of(cls, bstruct: BlockStructure) -> "NumericPlan":
        """The plan of ``bstruct``, built on first use."""
        plan = bstruct._numeric_plan
        if plan is None:
            plan = bstruct._numeric_plan = cls(bstruct)
        return plan

    @property
    def size(self) -> int:
        """Arena length in float64 elements."""
        return int(self.col_off[-1])

    @property
    def nbytes(self) -> int:
        """Bytes the plan holds, the cached scatter included."""
        arrays = (self.blk_I, self.blk_row0, self.blk_srows, self.sizes,
                  self.col_ptr, self.col_diag, self.col_off, self.lpanel_off,
                  self.col_srows)
        b = sum(a.nbytes for a in arrays) + 8 * len(self.keys)
        # a built below_diagonal table: a tuple of one 4-tuple per L block
        b += sum(64 + 80 * len(t) for t in self._below.values())
        if self._w1_rows is not None:
            b += self._w1_rows.nbytes + self._w1_ptr.nbytes
        if self._scatter is not None:
            b += self._scatter.nbytes + len(self._pattern)
        return b

    # -- views ---------------------------------------------------------------

    def views(self, arena: np.ndarray) -> dict:
        """``(I, J) -> view`` of every block inside ``arena``."""
        if arena.shape != (self.size,) or arena.dtype != np.float64:
            raise ValueError(
                f"arena must be float64 of shape ({self.size},); "
                f"got {arena.dtype} {arena.shape}"
            )
        part = self.part
        keys = self.keys
        lo = self.blk_row0.tolist()
        hi = (self.blk_row0 + self.sizes[self.blk_I]).tolist()
        ptr = self.col_ptr.tolist()
        off = self.col_off.tolist()
        blocks = {}
        for J in range(part.N):
            panel = arena[off[J] : off[J + 1]].reshape(-1, part.size(J))
            for b in range(ptr[J], ptr[J + 1]):
                blocks[keys[b]] = panel[lo[b] : hi[b]]
        return blocks

    def lpanel(self, arena: np.ndarray, K: int) -> np.ndarray:
        """The L panel of block column ``K`` — diagonal block, then the L
        blocks in ascending ``I`` — as one C-contiguous 2D view."""
        return arena[self.lpanel_off[K] : self.col_off[K + 1]].reshape(
            -1, self.part.size(K)
        )

    def lpanel_shape(self, K: int) -> tuple:
        """``(rows, width)`` of ``lpanel(K)``."""
        width = int(self.sizes[K])
        return int(self.col_off[K + 1] - self.lpanel_off[K]) // width, width

    def column_nbytes(self, K: int) -> int:
        """Wire size of factored column ``K``: its L panel plus 16 bytes
        per pivot pair."""
        return int(8 * (self.col_off[K + 1] - self.lpanel_off[K])
                   + 16 * self.sizes[K])

    def width1_rows(self, K: int) -> np.ndarray:
        """For a block column ``K`` one wide: the global row of every row of
        ``lpanel(K)[1:]`` (its L blocks below the diagonal, ascending ``I``),
        so a solve subtracts the column's stacked product from ``x`` in one
        fancy-index store; empty for a wider column.

        A slice of one int64 array over all width-1 columns, built on first
        use and kept, like :meth:`below_diagonal` (one small array per
        column costs a multiple of its bytes in resident memory: DESIGN.md
        "Numeric kernels by shape")."""
        if self._w1_rows is None:
            N = self.part.N
            blk_J = np.repeat(np.arange(N), np.diff(self.col_ptr))
            sel = np.flatnonzero((np.arange(len(blk_J)) > self.col_diag[blk_J])
                                 & (self.sizes[blk_J] == 1))
            Is = self.blk_I[sel]
            counts = self.sizes[Is]
            first = self.part.bounds[Is] - (np.cumsum(counts) - counts)
            self._w1_rows = np.repeat(first, counts) + np.arange(counts.sum())
            self._w1_ptr = np.searchsorted(np.repeat(blk_J[sel], counts),
                                           np.arange(N + 1))
        return self._w1_rows[self._w1_ptr[K] : self._w1_ptr[K + 1]]

    def below_diagonal(self, K: int) -> tuple:
        """``(I, first row, end row, structural rows)`` of each L block
        below the diagonal of column ``K`` in ascending ``I``, rows counted
        inside ``lpanel(K)[size(K):]``.  Built once per ``K`` — never per
        ``(K, J)`` pair, so the plan stays O(blocks) — and immutable: every
        ``Update(K, ·)`` of every run on this pattern reads the same tuple."""
        below = self._below.get(K)
        if below is None:
            a, b = int(self.col_diag[K]) + 1, int(self.col_ptr[K + 1])
            Is = self.blk_I[a:b]
            lo = self.blk_row0[a:b] - (self.blk_row0[a - 1] + self.part.size(K))
            below = self._below[K] = tuple(zip(
                Is.tolist(), lo.tolist(), (lo + self.sizes[Is]).tolist(),
                self.blk_srows[a:b].tolist()))
        return below

    # -- CSR scatter ---------------------------------------------------------

    def scatter_positions(self, A: CSRMatrix) -> np.ndarray:
        """Flat arena position of every stored entry of ``A``.

        Memoised for the last pattern seen and validated by a digest of
        ``A.indptr``/``A.indices``: a different pattern is never scattered
        through a stale map, it is mapped afresh — and raises
        :class:`StructureViolation` if an entry falls outside the static
        block structure."""
        n = self.part.n
        if A.nrows != n or A.ncols != n:
            raise StructureViolation(
                f"matrix is {A.nrows}x{A.ncols}, the block structure {n}x{n}"
            )
        h = hashlib.blake2b(digest_size=16)
        h.update(np.ascontiguousarray(A.indptr))
        h.update(np.ascontiguousarray(A.indices))
        pattern = h.digest()
        if pattern != self._pattern:
            self._scatter = self._map_entries(A)
            self._pattern = pattern
        return self._scatter

    def _map_entries(self, A: CSRMatrix) -> np.ndarray:
        part = self.part
        N = part.N
        rows = np.repeat(np.arange(A.nrows, dtype=np.int64), np.diff(A.indptr))
        cols = A.indices
        if len(cols) == 0:
            return np.empty(0, dtype=np.int64)
        if cols.min() < 0 or cols.max() >= part.n:
            raise StructureViolation("column index out of range")
        BI = part.block_of[rows]
        BJ = part.block_of[cols]
        blk_J = np.repeat(np.arange(N, dtype=np.int64), np.diff(self.col_ptr))
        blk_key = blk_J * N + self.blk_I  # ascending: arena order
        key = BJ * N + BI
        b = np.minimum(np.searchsorted(blk_key, key), len(blk_key) - 1)
        outside = np.flatnonzero(blk_key[b] != key)
        if len(outside):
            e = outside[0]
            raise StructureViolation(
                f"matrix entry ({rows[e]},{cols[e]}) falls outside the static "
                f"block structure at block ({BI[e]},{BJ[e]})"
            )
        bounds = part.bounds
        local_row = self.blk_row0[b] + rows - bounds[BI]
        return (self.col_off[BJ] + local_row * self.sizes[BJ]
                + cols - bounds[BJ])


class BlockLUMatrix:
    """The working LU storage: dense blocks over a 2D partition, all views
    into one arena (see the module docstring for the layout).

    Parameters
    ----------
    part, bstruct:
        The supernode partition and its static block structure.
    arena:
        The float64 storage to view; a zeroed one is allocated by default.
        Passing another matrix's arena shares its memory.

    A matrix exposing only some block columns of an arena — a 1D rank's
    local storage — comes from :meth:`column_subset`.
    """

    def __init__(self, part: BlockPartition, bstruct: BlockStructure,
                 arena: np.ndarray = None, _views: dict = None):
        self.part = part
        self.bstruct = bstruct
        self.plan = NumericPlan.of(bstruct)
        self.arena = np.zeros(self.plan.size) if arena is None else arena
        #: ``(I, J) -> ndarray`` view; missing keys are structural zeros
        self.blocks = self.plan.views(self.arena) if _views is None else _views
        self.n = part.n
        self.pivot_seq = [None] * part.N  # per block column: list of (m, t)
        self.abft = None  # optional repro.numfact.abft.AbftLedger

    # -- construction ------------------------------------------------------

    @classmethod
    def from_csr(
        cls, A: CSRMatrix, part: BlockPartition, bstruct: BlockStructure
    ) -> "BlockLUMatrix":
        """Allocate the full static block structure and scatter ``A``."""
        positions = NumericPlan.of(bstruct).scatter_positions(A)
        m = cls(part, bstruct)
        m.arena[positions] = A.data
        return m

    def column_subset(self, columns) -> "BlockLUMatrix":
        """A matrix over the same arena exposing only the given block
        columns, with pivot sequences of its own — a 1D rank's local
        storage.  The views are this matrix's, not sliced again."""
        keys, ptr, mine = self.plan.keys, self.plan.col_ptr, self.blocks
        views = {key: mine[key]
                 for J in columns for key in keys[ptr[J] : ptr[J + 1]]}
        return BlockLUMatrix(self.part, self.bstruct, arena=self.arena,
                             _views=views)

    def lpanel(self, K: int) -> np.ndarray:
        """The stacked L panel of block column ``K`` (diagonal block
        first): the rows ``Factor(K)`` searches, swaps and eliminates."""
        return self.plan.lpanel(self.arena, K)

    # -- queries -----------------------------------------------------------

    def block(self, I: int, J: int):
        """The dense block (I, J), or None when structurally zero."""
        return self.blocks.get((I, J))

    def to_dense(self) -> np.ndarray:
        """Materialise the full storage (tests only)."""
        D = np.zeros((self.n, self.n))
        b = self.part.bounds
        for (I, J), blk in self.blocks.items():
            D[b[I] : b[I + 1], b[J] : b[J + 1]] = blk
        return D

    # -- row swapping ------------------------------------------------------

    def swap_rows_in_block_column(self, J: int, r1: int, r2: int) -> None:
        """Exchange the contents of global rows ``r1`` and ``r2`` inside
        block column ``J`` (used to replay a pivot sequence)."""
        if r1 != r2:
            self.swap_block_rows(J, *self.locate_rows(r1, r2))

    def locate_rows(self, r1: int, r2: int) -> tuple:
        """``(I1, o1, I2, o2)``: the block row and the offset inside it of
        global rows ``r1`` and ``r2``."""
        part = self.part
        I1 = int(part.block_of[r1])
        I2 = int(part.block_of[r2])
        return I1, r1 - part.start(I1), I2, r2 - part.start(I2)

    def swap_block_rows(self, J: int, I1: int, o1: int, I2: int, o2: int) -> None:
        """Exchange row ``o1`` of block ``(I1, J)`` with row ``o2`` of
        block ``(I2, J)``.

        If one of the two rows lies in an absent (structurally zero) block,
        the other row's content must already be zero — otherwise the swap
        would create fill outside the static structure.
        """
        b1 = self.blocks.get((I1, J))
        b2 = self.blocks.get((I2, J))
        if b1 is not None and b2 is not None:
            if self.abft is not None:
                self.abft.on_swap(I1, o1, b1, I2, o2, b2, J)
            tmp = b1[o1].copy()
            b1[o1] = b2[o2]
            b2[o2] = tmp
        elif b1 is None and b2 is None:
            return
        elif b1 is None:
            if np.any(b2[o2]):
                raise StructureViolation(
                    f"pivot swap would move nonzeros of row "
                    f"{self.part.start(I2) + o2} into absent block ({I1},{J})"
                )
        else:
            if np.any(b1[o1]):
                raise StructureViolation(
                    f"pivot swap would move nonzeros of row "
                    f"{self.part.start(I1) + o1} into absent block ({I2},{J})"
                )

    # -- verification helpers ---------------------------------------------

    def check_static_zeros(self, sym) -> int:
        """Count stored nonzeros lying outside the static entry structure.

        Should be 0 before *and* after factorization (module invariant).
        Note: row swaps permute L-part rows within a column, so the check
        covers the U part and the block-level structure only.
        """
        bad = 0
        b = self.part.bounds
        for (I, J), blk in self.blocks.items():
            if I < J:
                cols = self.bstruct.udense_cols[(I, J)] - b[J]
                mask = np.ones(blk.shape[1], dtype=bool)
                mask[cols] = False
                bad += int(np.count_nonzero(blk[:, mask]))
        return bad
