"""MFLOPS reporting, paper convention (Section 6).

The paper's achieved-MFLOPS formula deliberately excludes the extra
operations introduced by overestimation::

    Achieved MFLOPS = (operation count obtained from SuperLU)
                      / (parallel time of our algorithm)

so the numerator is the *dynamic* factorization's flop count and the
denominator is S*'s (simulated) runtime.
"""

from __future__ import annotations

def achieved_mflops(superlu_flops: float, parallel_seconds: float) -> float:
    """Achieved MFLOPS per the paper's formula."""
    if parallel_seconds <= 0:
        return float("inf")
    return superlu_flops / parallel_seconds / 1e6
