"""Shared fixture plumbing for the test and benchmark suites.

``tests/conftest.py`` and ``benchmarks/conftest.py`` both need a
session-scoped, memoised cache of fully prepared pipelines keyed by their
build parameters; this module holds the one implementation both import
(they previously carried drifting copies).
"""

from __future__ import annotations

import inspect


#: small suite matrices that cover every generator family
SMALL_SUITE = ["sherman5", "lnsp3937", "jpwh991", "orsreg1", "goodwin", "vavasis3"]


class MemoCache:
    """Memoise ``builder(*args, **kwargs)`` keyed by its *bound* arguments,
    so positional and keyword spellings of the same call share one entry."""

    def __init__(self, builder):
        self._builder = builder
        self._cache = {}
        self._sig = inspect.signature(builder)

    def get(self, *args, **kwargs):
        bound = self._sig.bind(*args, **kwargs)
        bound.apply_defaults()
        key = tuple(sorted(bound.arguments.items()))
        if key not in self._cache:
            self._cache[key] = self._builder(*args, **kwargs)
        return self._cache[key]

    __call__ = get


def prepare_pipeline(name, block_size=25, amalgamation=4, scale="small") -> dict:
    """Fully prepared pipeline stages for one suite matrix (the dict shape
    the test suite's ``contexts`` fixture hands out)."""
    from ..matrices import get_matrix
    from ..pipeline import analyze
    from ..sparse import csr_to_dense

    A = get_matrix(name, scale)
    art, om = analyze(A, block_size, amalgamation)
    return dict(
        A=A, om=om, sym=art.sym, part=art.part, bstruct=art.bstruct,
        dense=csr_to_dense(om.A),
    )
