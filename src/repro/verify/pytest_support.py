"""Plugin-style pytest support: trace-check every simulation for free.

``trace_checked_simulations()`` wraps the construction of every
:class:`repro.machine.Simulator` inside the context so that it keeps its
message records and runs the write-after-send checker (``trace=True``,
``sanitize=True``), and checks each run against the tag-uniqueness /
no-leak / causality rules as soon as it finishes; a violation raises
:class:`ProtocolViolationError` (an ``AssertionError``, so pytest reports it
as a plain test failure at the offending call site).  Delivery is the one
the simulator always uses, by reference with every payload array made
read-only at its send; ``sanitize=True`` adds the content hash that catches
a write through another view of the sender's memory.

The test suite activates it per module from ``tests/conftest.py``::

    @pytest.fixture(scope="module", autouse=True)
    def _comm_trace_check(request):
        with trace_checked_simulations():
            yield

so existing simulator-driven tests (1D, 2D, trisolve) double as protocol
regression tests without changing a line of them.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..machine.simulator import Simulator
from .tracecheck import check_messages, ProtocolViolationError


@contextmanager
def trace_checked_simulations():
    """Build every ``Simulator`` with ``trace=True, sanitize=True`` (pass
    both as keywords, if at all) and verify the message protocol of each
    run, so a rank program that mutates a posted payload, even through
    another view of it, fails the test with a typed
    :class:`repro.machine.PayloadMutationError`.
    """
    orig_init, orig_run = Simulator.__init__, Simulator.run

    def checked_init(self, *args, **kwargs):
        orig_init(self, *args, **{**kwargs, "trace": True, "sanitize": True})

    def checked_run(self):
        result = orig_run(self)
        violations = check_messages(
            self.trace, spec=self.spec, crashed=result.crashed)
        if violations:
            raise ProtocolViolationError(violations)
        return result

    Simulator.__init__, Simulator.run = checked_init, checked_run
    try:
        yield
    finally:
        Simulator.__init__, Simulator.run = orig_init, orig_run
