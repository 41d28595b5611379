"""Per-processor memory modeling — the paper's 1D-vs-2D memory argument.

Section 5.2: a 1D code needs up to O(S1) bytes *per processor* (a processor
must buffer whole pivot column blocks from many concurrent stages, and with
graph scheduling may hold large parts of the matrix), so "1D codes cannot
solve the last six matrices of Table 6 due to memory constraint".  The 2D
code distributes blocks evenly and needs only ``S1/p + O(buffers)`` where
the Theorem 2 buffer total is a small multiple of one panel.

This module computes those footprints for concrete runs:

* data bytes owned per rank, placed by the same mapping object
  (:mod:`repro.parallel.mapping`) that places a run's blocks and its
  triangular solve,
* 1D: the measured high-water mark of received-column buffers,
* 2D: the Theorem 2 buffer provisioning,

and evaluates whether a problem *fits* a given per-node memory budget —
reproducing the paper's "dash" entries (matrices the 1D code could not run).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..parallel.buffers import buffer_requirements
from ..parallel.mapping import ColumnMapping, Grid2D
from ..supernodes import BlockStructure


def sequential_storage_bytes(bstruct: BlockStructure) -> int:
    """S1: bytes of the dense-block factor storage (the whole matrix)."""
    part = bstruct.part
    return 8 * sum(
        part.size(I) * part.size(J) for (I, J) in bstruct.nonzero_blocks()
    )


def owned_bytes(bstruct: BlockStructure, mapping, nprocs: int) -> list:
    """Per-rank bytes of the blocks a mapping places on each of ``nprocs``
    ranks (a :class:`~repro.parallel.mapping.ColumnMapping` or
    :class:`~repro.parallel.mapping.Grid2D`)."""
    part = bstruct.part
    out = [0] * nprocs
    for (I, J) in bstruct.nonzero_blocks():
        out[mapping.block_owner(I, J)] += 8 * part.size(I) * part.size(J)
    return out


@dataclass
class MemoryFootprint:
    """Peak per-rank memory of one mapping for one problem."""

    mapping: str
    nprocs: int
    data_peak: int  # bytes of owned matrix data on the fullest rank
    buffer_peak: int  # communication buffer high-water / provisioning
    sequential_bytes: int

    @property
    def peak(self) -> int:
        return self.data_peak + self.buffer_peak

    @property
    def fraction_of_s1(self) -> float:
        """Peak per-rank footprint relative to the sequential storage."""
        return self.peak / max(self.sequential_bytes, 1)

    def fits(self, node_bytes: float) -> bool:
        """Does the fullest rank fit in ``node_bytes`` of memory?"""
        return self.peak <= node_bytes


def footprint_1d(bstruct: BlockStructure, owner, buffer_high_water) -> MemoryFootprint:
    """Footprint of a 1D run (measured receive-buffer high water)."""
    nprocs = int(max(owner)) + 1 if len(owner) else 1
    owned = owned_bytes(bstruct, ColumnMapping(owner), nprocs)
    return MemoryFootprint(
        mapping="1d",
        nprocs=len(owned),
        data_peak=max(owned),
        buffer_peak=max(buffer_high_water) if buffer_high_water else 0,
        sequential_bytes=sequential_storage_bytes(bstruct),
    )


def footprint_2d(bstruct: BlockStructure, grid: Grid2D) -> MemoryFootprint:
    """Footprint of the 2D mapping (Theorem 2 buffer provisioning)."""
    owned = owned_bytes(bstruct, grid, grid.nprocs)
    rep = buffer_requirements(bstruct, grid)
    return MemoryFootprint(
        mapping="2d",
        nprocs=grid.nprocs,
        data_peak=max(owned),
        buffer_peak=rep.total,
        sequential_bytes=sequential_storage_bytes(bstruct),
    )
