"""Supernode amalgamation (Section 3.3).

The average supernode of the static structure is only 1.5-2 columns wide,
which makes tasks too fine-grained.  The paper's remedy merges *consecutive*
supernodes whose below-diagonal structures differ by at most ``r`` entries
(the amalgamation factor; 4-6 works best in their experiments), requiring no
row/column permutation.  The paper's pass is O(n); this one makes a single
left-to-right sweep over the boundaries and at each compares the L and U
tails of two columns, so it costs the summed length of the tails compared.

Merging supernodes ``S1 = [a, b)`` and ``S2 = [b, c)`` admits explicit zeros
in two places: rows of ``lcol[a]`` not present below ``S2`` (they become
padded rows of the merged diagonal/L blocks) and the upper-triangular
coupling ``U[a:b, b:c]`` positions that were structurally zero.  We charge
only the L-structure difference, like the reference implementation [27].
"""

from __future__ import annotations

import numpy as np

from ..symbolic import SymbolicFactorization


def _below(arr: np.ndarray, pos: int) -> np.ndarray:
    """Entries of a sorted array strictly greater than ``pos``."""
    return arr[arr.searchsorted(pos, side="right"):]


def _tail_difference(a: np.ndarray, b: np.ndarray, pos: int) -> int:
    """Size of the symmetric difference of the entries ``> pos`` of two
    sorted duplicate-free arrays: every entry of their merge that is not one
    of an equal adjacent pair."""
    merged = np.concatenate((_below(a, pos), _below(b, pos)))
    merged.sort()
    return len(merged) - 2 * np.count_nonzero(merged[1:] == merged[:-1])


def amalgamate_supernodes(
    sym: SymbolicFactorization,
    bounds: list,
    factor: int = 4,
    max_size: int = 25,
) -> list:
    """Greedily merge consecutive supernodes left-to-right.

    ``bounds`` is the exact-supernode boundary list from
    :func:`find_supernodes`; the result is a coarser boundary list.  A merge
    of the current run ``[start, b)`` with the next supernode ``[b, c)`` is
    accepted when the number of extra zero entries it pads into the L
    structure is at most ``factor`` per column and the merged width stays
    within ``max_size``.
    """
    if len(bounds) <= 2:
        return list(bounds)
    out = [bounds[0]]
    start = bounds[0]
    for idx in range(1, len(bounds) - 1):
        b = bounds[idx]
        c = bounds[idx + 1]
        if c - start <= max_size:
            # rows below position c-1 that the run has but the next
            # supernode lacks, and vice versa
            diff = _tail_difference(sym.lcol[start], sym.lcol[b], c - 1)
            # the merged block's U rows also pad up to the union of the two
            # runs' U structures (Corollary 3's "almost dense" cost); charge it
            if diff <= factor:
                diff += _tail_difference(sym.urow[start], sym.urow[b], c - 1)
            if diff <= factor:
                continue  # merge: do not emit boundary b
        out.append(b)
        start = b
    out.append(bounds[-1])
    return out


def amalgamation_padding(sym: SymbolicFactorization, bounds: list) -> int:
    """Count explicit-zero L entries a partition pads in (for diagnostics)."""
    pad = 0
    for s, e in zip(bounds[:-1], bounds[1:]):
        union = np.unique(np.concatenate([_below(sym.lcol[k], e - 1) for k in range(s, e)]))
        for k in range(s, e):
            pad += len(union) - len(_below(sym.lcol[k], e - 1))
    return pad
