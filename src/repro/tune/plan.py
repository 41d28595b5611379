"""``TuningPlan`` — one point of the configuration space — and the
pattern-keyed ``PlanCache`` that amortises tuning across same-structure
factorizations.

The paper tunes its knobs by hand: block size 25 "in our experiments",
``p_c / p_r = 2`` "in practice", 1D RAPID "whenever memory suffices", the
asynchronous pipelined 2D code over the synchronous one (Tables 3–7).  A
:class:`TuningPlan` records one complete assignment of those knobs, and —
because every knob is a function of the *nonzero pattern* and the machine,
never of the values — a tuned plan stays exactly valid for every matrix
sharing the pattern.  :class:`PlanCache` exploits that the same way
:class:`repro.service.AnalysisCache` does for the analyze phase: key on
the pattern digest (plus machine name and processor count), pay for the
search once, reuse the winner on every refactorization.

Both classes round-trip through JSON (including the cache's LRU order and
its hit/miss/eviction counters), so a service can persist its learned
plans across restarts.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Optional

from ..pipeline import LRUStats, PatternLRU


@dataclass(frozen=True)
class TuningPlan:
    """One complete configuration of the factorization pipeline.

    ``layout`` is ``"sequential"``, ``"1d"`` or ``"2d"``; ``pipeline``
    selects the 1D scheduling flavour (``"rapid"`` graph scheduling or
    ``"ca"`` compute-ahead) and ``synchronous`` the 2D communication
    schedule; ``pr``/``pc`` fix the 2D grid shape.  ``block_size`` and
    ``amalgamation`` shape the supernode partition and therefore the
    BLAS-3 granularity.  ``ckpt_interval`` rides along for the resilient
    drivers (``None`` = not requested by the plan).
    """

    block_size: int = 25
    amalgamation: int = 4
    layout: str = "sequential"
    nprocs: int = 1
    pr: int = 1
    pc: int = 1
    pipeline: str = "rapid"  # 1D flavour: "rapid" | "ca"
    synchronous: bool = False  # 2D flavour: sync vs async pipelined
    ckpt_interval: Optional[int] = None

    def __post_init__(self):
        if self.layout not in ("sequential", "1d", "2d"):
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.pipeline not in ("rapid", "ca"):
            raise ValueError(f"unknown 1D pipeline {self.pipeline!r}")
        if self.layout == "2d" and self.pr * self.pc != self.nprocs:
            raise ValueError(
                f"grid {self.pr}x{self.pc} does not match nprocs={self.nprocs}"
            )

    @property
    def method(self) -> str:
        """The :class:`repro.api.SStarSolver` ``method`` string."""
        if self.layout == "sequential" or self.nprocs == 1:
            return "sequential"
        if self.layout == "1d":
            return f"1d-{self.pipeline}"
        return "2d-sync" if self.synchronous else "2d"

    def grid(self):
        """The :class:`repro.parallel.Grid2D` for 2D plans, else ``None``."""
        if self.layout != "2d":
            return None
        from ..parallel import Grid2D

        return Grid2D(self.pr, self.pc)

    def solver_opts(self) -> dict:
        """Keyword arguments that reproduce this plan on ``SStarSolver``."""
        opts = {
            "block_size": self.block_size,
            "amalgamation": self.amalgamation,
            "method": self.method,
            "nprocs": self.nprocs if self.method != "sequential" else 1,
        }
        if self.layout == "2d":
            opts["grid"] = self.grid()
        if self.ckpt_interval is not None:
            opts["ckpt_interval"] = self.ckpt_interval
        return opts

    def describe(self) -> str:
        bits = [f"b={self.block_size}", f"r={self.amalgamation}", self.method]
        if self.layout == "2d":
            bits.append(f"grid={self.pr}x{self.pc}")
        if self.method != "sequential":
            bits.append(f"P={self.nprocs}")
        return " ".join(bits)

    # -- JSON ----------------------------------------------------------

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "TuningPlan":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown TuningPlan fields: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_json(cls, s: str) -> "TuningPlan":
        return cls.from_dict(json.loads(s))


def plan_cache_key(pattern: str, machine_name: str, nprocs: int) -> tuple:
    """A plan is specific to the pattern, the machine and the processor
    budget — never to the matrix values."""
    return (pattern, machine_name, int(nprocs))


@dataclass
class PlanCacheStats(LRUStats):
    """Counters accumulated over a :class:`PlanCache`'s lifetime."""


@dataclass
class PlanCache(PatternLRU):
    """LRU cache of :class:`TuningPlan` keyed by
    ``(pattern, machine, nprocs)`` (see :func:`plan_cache_key`).

    Plans are a few hundred bytes, so only an entry bound is needed.  The
    whole cache — entries in LRU order plus the stats counters — survives
    a :meth:`to_json` / :meth:`from_json` round trip bit-for-bit.
    """

    max_entries: int = 256
    #: optional repro.obs.MetricsRegistry mirroring the stats as counters
    metrics: object = None
    _entries: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _stats: PlanCacheStats = field(default_factory=PlanCacheStats, repr=False)

    metric_prefix = "tune.plan_cache"

    def _key(self, key) -> tuple:
        return tuple(key)  # JSON hands keys back as lists

    # -- JSON ----------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "max_entries": self.max_entries,
                "entries": [
                    {"key": list(k), "plan": p.as_dict()}
                    for k, p in self._entries.items()  # LRU -> MRU order
                ],
                "stats": {
                    "hits": self._stats.hits,
                    "misses": self._stats.misses,
                    "evictions": self._stats.evictions,
                },
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, s: str, metrics=None) -> "PlanCache":
        d = json.loads(s)
        cache = cls(max_entries=d["max_entries"], metrics=metrics)
        for e in d["entries"]:
            cache._entries[tuple(e["key"])] = TuningPlan.from_dict(e["plan"])
        st = d["stats"]
        cache._stats = PlanCacheStats(
            hits=st["hits"], misses=st["misses"], evictions=st["evictions"]
        )
        return cache
