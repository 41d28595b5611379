"""Watch the calls the code under test makes, by the file they come from.

One mechanism serves both run-time determinism watches
(``tests/test_determinism.py``):

* ``watched(fn, name, record, roots)`` wraps a function so that a call
  from a frame under ``roots`` appends ``"<name> from <file>:<line>"`` to
  ``record`` before it runs; ``TestNoHostClock`` wraps the ``time`` clocks
  with it;
* ``rng_watch()`` wraps every way to draw randomness that no seed
  fixes, called from ``src/repro`` or ``tests/``: ``numpy.random``'s
  ``default_rng``, ``RandomState``, ``SeedSequence`` and bit generators,
  and ``random.Random``, given no seed or ``None``; and every function of
  ``random`` or ``numpy.random`` that uses the module's shared generator.
  A class is replaced by a stand-in whose instances are the class's own,
  and ``isinstance`` / ``issubclass`` against the stand-in answer for the
  class, so third-party type checks (hypothesis checks ``random.Random``)
  keep working.  A name bound by ``from random import ...`` before the
  watch starts is not seen.

As a pytest plugin the RNG watch is on for the whole session, and a test
during which such a call was made fails, naming its file and line.
``tests/conftest.py`` imports the plugin; ``pytest -p tests.call_watch``
lays it over another checkout (``tools/lint_census.py`` does).
"""

import os
import random
import sys
from contextlib import contextmanager

import numpy as np
import pytest

import repro

#: the directory of the package under test; calls from it and from the
#: tests' directory are the RNG watch's (each ends in a separator, so a
#: sibling file such as ``src/repro_x.py`` is not under it)
REPRO = os.path.join(os.path.dirname(repro.__file__), "")
ROOTS = (REPRO, os.path.join(os.path.dirname(os.path.abspath(__file__)), ""))

#: the seedable classes, by module
SEEDABLE = (
    (random, ("Random",)),
    (np.random, ("RandomState", "SeedSequence", "PCG64", "PCG64DXSM",
                 "MT19937", "Philox", "SFC64")),
)
#: the keywords that seed one (``key`` seeds a ``Philox``)
SEED_KEYWORDS = ("seed", "entropy", "x", "key")


def _note(record, name, roots, args, kwargs, when):
    frame = sys._getframe(2)  # the caller of the wrapper
    path = frame.f_code.co_filename
    if path.startswith(roots) and (when is None or when(args, kwargs)):
        record.append(f"{name} from {path}:{frame.f_lineno}")


def watched(fn, name, record, roots, when=None):
    """``fn``, recording each call from a frame under ``roots`` (a prefix or
    a tuple of them) for which ``when(args, kwargs)`` holds, if given."""
    def call(*args, **kwargs):
        _note(record, name, roots, args, kwargs, when)
        return fn(*args, **kwargs)
    return call


def unseeded(args, kwargs) -> bool:
    """No seed: the first argument and every seed keyword absent or None."""
    return all(v is None for v in
               (*args[:1], *(kwargs.get(k) for k in SEED_KEYWORDS)))


#: the RNG watch's record since the last test's check
UNSEEDED = []

#: stand-in class -> (the class, its name)
_STANDS_FOR = {}


class _StandIn(type):
    """The metaclass of a stand-in for a seedable class: calling the
    stand-in records an unseeded call and returns an instance of the class
    itself; a class derived from the stand-in behaves as usual."""

    def __call__(cls, *args, **kwargs):
        if cls not in _STANDS_FOR:
            return super().__call__(*args, **kwargs)
        origin, name = _STANDS_FOR[cls]
        _note(UNSEEDED, name, ROOTS, args, kwargs, unseeded)
        return origin(*args, **kwargs)

    def __instancecheck__(cls, obj):
        if cls not in _STANDS_FOR:
            return super().__instancecheck__(obj)
        return isinstance(obj, _STANDS_FOR[cls][0])

    def __subclasscheck__(cls, sub):
        if cls not in _STANDS_FOR:
            return super().__subclasscheck__(sub)
        return issubclass(sub, _STANDS_FOR[cls][0])


def _stand_in(origin, name):
    cls = _StandIn(origin.__name__, (origin,), {
        "__module__": origin.__module__, "__qualname__": origin.__qualname__,
        "__doc__": origin.__doc__})
    _STANDS_FOR[cls] = (origin, name)
    return cls


@contextmanager
def rng_watch():
    """Record into ``UNSEEDED`` every unseeded or shared-generator RNG call
    (module docstring) made from under ``ROOTS`` while the context is open."""
    with pytest.MonkeyPatch.context() as mp:
        for module in (random, np.random):
            for name in module.__all__:
                fn = getattr(module, name)
                owner = getattr(fn, "__self__", None)
                if name == "seed" or isinstance(owner, (random.Random,
                                                        np.random.RandomState)):
                    mp.setattr(module, name, watched(
                        fn, f"{module.__name__}.{name}", UNSEEDED, ROOTS))
        mp.setattr(np.random, "default_rng", watched(
            np.random.default_rng, "numpy.random.default_rng", UNSEEDED,
            ROOTS, unseeded))
        stand_ins = []
        for module, names in SEEDABLE:
            for name in names:
                stand_ins.append(_stand_in(getattr(module, name),
                                           f"{module.__name__}.{name}"))
                mp.setattr(module, name, stand_ins[-1])
        try:
            yield
        finally:
            for cls in stand_ins:
                del _STANDS_FOR[cls]


@pytest.fixture(scope="session", autouse=True)
def unseeded_rng_calls():
    """The RNG watch, on for the session: yields the list it records into
    (a test that calls unseeded RNGs on purpose takes its entries out)."""
    with rng_watch():
        yield UNSEEDED


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Fail the test during which (or during whose setup) the watch recorded
    a call."""
    try:
        return (yield)
    finally:
        calls = UNSEEDED[:]
        UNSEEDED.clear()
        if calls:
            raise AssertionError(
                "unseeded or global RNG (use np.random.default_rng(seed)):\n  "
                + "\n  ".join(calls))
