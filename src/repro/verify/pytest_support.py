"""Plugin-style pytest support: trace-check every simulation for free.

``trace_checked_simulations()`` patches :meth:`repro.machine.Simulator.run`
so that *every* simulation inside the context records a message trace and
is checked against the tag-uniqueness / no-leak / causality rules as soon
as it finishes; a violation raises :class:`ProtocolViolationError` (an
``AssertionError``, so pytest reports it as a plain test failure at the
offending call site).

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

from ..machine.simulator import SimTrace, Simulator
from .tracecheck import check_messages, ProtocolViolationError


@contextmanager
def trace_checked_simulations():
    """Patch ``Simulator.run`` to verify the message protocol of each run
    and to turn on the simulator's zero-copy write-after-send checker, so a
    rank program that mutates a posted payload fails the test with a typed
    :class:`repro.machine.PayloadMutationError` even though the simulator's
    defensive copy would have hidden the bug.
    """
    orig_run = Simulator.run

    def checked_run(self):
        if self.trace is None:
            self.trace = SimTrace()
        self.sanitize = True
        result = orig_run(self)
        violations = check_messages(
            self.trace, spec=self.spec, crashed=getattr(result, "crashed", ())
        )
        if violations:
            raise ProtocolViolationError(violations)
        return result

    Simulator.run = checked_run
    try:
        yield
    finally:
        Simulator.run = orig_run
