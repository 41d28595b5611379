"""Shared fixtures and helpers for the test suite.

The memoised pipeline cache and the suite list live in
:mod:`repro.api.fixtures`, shared with ``benchmarks/conftest.py``.  The
session-wide RNG watch (a test that draws from an unseeded or global RNG
fails) lives in :mod:`tests.call_watch`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.fixtures import MemoCache, prepare_pipeline, SMALL_SUITE  # noqa: F401
from repro.matrices import random_nonsymmetric
from repro.ordering import prepare_matrix
from repro.verify.pytest_support import trace_checked_simulations

from .call_watch import pytest_runtest_call, unseeded_rng_calls  # noqa: F401

#: simulator-driven test modules whose runs are protocol-checked for free
TRACE_CHECKED_MODULES = {
    "tests.test_parallel_1d",
    "tests.test_parallel_2d",
    "tests.test_trisolve",
    "tests.test_service",
    "tests.test_resilience",
    "tests.test_obs",
    "test_parallel_1d",
    "test_parallel_2d",
    "test_trisolve",
    "test_service",
    "test_resilience",
}


@pytest.fixture(scope="module", autouse=True)
def _comm_trace_check(request):
    """Trace-check every simulation in the parallel-code test modules: tag
    collisions, leaked messages, causality violations and write-after-send
    payload mutations (``sanitize=True``) fail the test."""
    if getattr(request.module, "__name__", "") not in TRACE_CHECKED_MODULES:
        yield
        return
    with trace_checked_simulations():
        yield


@pytest.fixture(scope="session")
def contexts():
    """Cache of fully prepared pipelines keyed by (name, block, amalg)."""
    return MemoCache(prepare_pipeline).get


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_ordered(n, density=0.06, seed=0):
    """A random ordered (transversal + mindeg) matrix for quick tests."""
    A = random_nonsymmetric(n, density=density, seed=seed)
    return prepare_matrix(A)


def residual(D, x, b):
    return np.linalg.norm(D @ x - b) / max(np.linalg.norm(b), 1e-30)
