"""Persist and reload factorizations (``.npz``).

A production user factors once and reuses the factors across runs
(the reservoir-simulation pattern); this module round-trips the complete
:class:`LUFactorization` state — blocks, pivot sequences, partition,
block structure and the static symbolic structure — through a single
compressed ``.npz`` archive.
"""

from __future__ import annotations

import numpy as np

from ..supernodes import BlockPartition, build_block_structure
from ..symbolic import SymbolicFactorization
from .blocks import BlockLUMatrix, StructureViolation
from .counter import KernelCounter
from .sequential import LUFactorization


def save_factorization(path, lu: LUFactorization) -> None:
    """Write a factorization to ``path`` (npz)."""
    payload = {
        "bounds": lu.part.bounds,
        "n": np.asarray([lu.n]),
    }
    keys = []
    for (I, J), blk in lu.matrix.blocks.items():
        keys.append((I, J))
        payload[f"blk_{I}_{J}"] = blk
    payload["block_keys"] = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
    piv = []
    for K, seq in enumerate(lu.matrix.pivot_seq):
        for m, t in seq or []:
            piv.append((K, m, t))
    payload["pivots"] = np.asarray(piv, dtype=np.int64).reshape(-1, 3)
    # static structure (ragged -> concatenated + offsets)
    for name, lists in (("lcol", lu.sym.lcol), ("urow", lu.sym.urow)):
        offs = np.zeros(len(lists) + 1, dtype=np.int64)
        for i, arr in enumerate(lists):
            offs[i + 1] = offs[i] + len(arr)
        payload[f"{name}_offs"] = offs
        payload[f"{name}_data"] = (
            np.concatenate(lists) if lists else np.empty(0, np.int64)
        )
    np.savez_compressed(path, **payload)


def load_factorization(path) -> LUFactorization:
    """Reload a factorization written by :func:`save_factorization`."""
    z = np.load(path)
    n = int(z["n"][0])
    part = BlockPartition(z["bounds"])

    def unragged(name):
        offs = z[f"{name}_offs"]
        data = z[f"{name}_data"]
        return [data[offs[i] : offs[i + 1]] for i in range(len(offs) - 1)]

    sym = SymbolicFactorization(n, unragged("lcol"), unragged("urow"))
    bstruct = build_block_structure(sym, part)
    m = BlockLUMatrix(part, bstruct)
    for I, J in z["block_keys"]:
        stored = z[f"blk_{I}_{J}"]
        blk = m.blocks.get((int(I), int(J)))
        if blk is None or blk.shape != stored.shape:
            raise StructureViolation(
                f"stored block ({I},{J}) does not fit the stored structure"
            )
        blk[...] = stored
    seqs = [[] for _ in range(part.N)]
    for K, a, b in z["pivots"]:
        seqs[int(K)].append((int(a), int(b)))
    m.pivot_seq = seqs
    return LUFactorization(m, sym, part, bstruct, KernelCounter())
