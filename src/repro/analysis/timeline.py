"""Overlap profile of a simulated parallel run.

Counts, across the run, how many ranks are inside a task span of
``SimResult.spans`` — what the 2D pipeline overlap of Table 7 looks like
over time.  The per-rank chart of the same spans is
``repro.scheduling.gantt_from_trace(spans).render()``, their Chrome trace
``repro.obs.to_chrome_trace(spans)``.
"""

from __future__ import annotations


def overlap_profile(spans, nprocs: int, samples: int = 200) -> list:
    """Number of concurrently busy ranks sampled across the run —
    integrates to the parallel efficiency."""
    if not spans:
        return []
    t_end = max(s.end for s in spans)
    out = []
    for i in range(samples):
        t = (i + 0.5) * t_end / samples
        busy = len({s.track for s in spans if s.start <= t < s.end})
        out.append(busy)
    return out
