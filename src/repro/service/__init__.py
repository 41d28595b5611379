"""The serving layer: structure-cached analysis, numeric refactorization
and a deterministic solve-service front end.

* :mod:`cache` — pattern-keyed LRU cache of analyze-phase artifacts
  (transversal/ordering/symbolic/partition: :mod:`repro.pipeline`, whose
  ``analyze`` / ``AnalysisArtifacts`` / ``pattern_key`` are re-exported
  here), enabling
  :meth:`repro.api.SStarSolver.refactor`'s numeric-only fast path;
* :mod:`service` — :class:`SolveService`, a bounded-queue job front end
  with virtual-time worker lanes, multi-RHS batching, retry on delivery
  failures and a metrics snapshot.

See DESIGN.md "Serving layer" for cache keying, invalidation rules and
backpressure semantics.
"""

from ..pipeline import AnalysisArtifacts, analyze, pattern_key
from .cache import AnalysisCache, CacheStats, values_key
from .service import (
    MetricsSnapshot,
    ServiceOverloadError,
    SolveJob,
    SolveService,
)

__all__ = [
    "AnalysisArtifacts",
    "AnalysisCache",
    "CacheStats",
    "analyze",
    "pattern_key",
    "values_key",
    "MetricsSnapshot",
    "ServiceOverloadError",
    "SolveJob",
    "SolveService",
]
