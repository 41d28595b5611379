"""Structure-keyed analysis cache.

The analyze phase is a function of the nonzero pattern alone
(:mod:`repro.pipeline`; the package re-exports its :func:`pattern_key`,
:class:`AnalysisArtifacts` and :func:`analyze`), so workloads dominated by
repeated same-structure solves (Newton loops, circuit transient simulation)
can pay for the analysis once and re-run only the numeric Factor/Update
sweep.  :class:`AnalysisCache` makes that split operational: an LRU cache
with entry- and byte-bounded capacity and hit/miss/eviction/invalidation
accounting.

Invalidation: the cached structure never becomes *structurally* wrong, but
a numeric factorization that had to perturb tiny pivots or saw runaway
element growth signals that the static-structure assumption is doing real
numerical work for this pattern; :meth:`repro.api.SStarSolver.refactor`
then drops the entry so the next factorization re-derives (and re-verifies)
the analysis from scratch.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..pipeline import LRUStats, PatternLRU, pattern_key


def values_key(A) -> str:
    """Hex digest of pattern *and* values (used to batch identical systems)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(pattern_key(A).encode())
    h.update(np.ascontiguousarray(A.data, dtype=np.float64).tobytes())
    return h.hexdigest()


@dataclass
class CacheStats(LRUStats):
    """Counters accumulated over an :class:`AnalysisCache`'s lifetime."""

    invalidations: int = 0
    bytes: int = 0


@dataclass
class AnalysisCache(PatternLRU):
    """LRU cache of :class:`AnalysisArtifacts` keyed by pattern (plus any
    parameters the caller folds into the key, e.g. block size).

    Capacity is bounded both by entry count (``max_entries``) and by the
    artifacts' accounted byte size (``max_bytes``, ``None`` = unbounded);
    either bound evicts least-recently-used entries.

    ``max_bytes`` bounds ``AnalysisArtifacts.nbytes``, the analysis outputs.
    What later phases memoise *on* a cached block structure is not in that
    figure and lives exactly as long as the entry: the task graph and its
    schedules, and the numeric phase's storage plan
    (:class:`repro.numfact.NumericPlan`; its own ``nbytes`` is at most 8
    bytes per stored matrix entry plus 64 bytes per nonzero block).
    """

    max_entries: int = 32
    max_bytes: int = None
    #: optional repro.obs.MetricsRegistry mirroring the stats as counters
    metrics: object = None
    _entries: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _stats: CacheStats = field(default_factory=CacheStats, repr=False)

    metric_prefix = "cache"

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._entries.values())

    def _over_capacity(self) -> bool:
        return super()._over_capacity() or (
            self.max_bytes is not None
            and self.nbytes > self.max_bytes
            and len(self._entries) > 1
        )

    def invalidate(self, key) -> bool:
        removed = super().invalidate(key)
        if removed:
            self._bump("invalidations")
        return removed

    @property
    def stats(self) -> CacheStats:
        self._stats.bytes = self.nbytes
        return super().stats
