"""Span tracer: labeled virtual-time intervals across the whole stack.

A :class:`Tracer` collects :class:`Span` records (a named interval on a
*track*) and the simulator's :class:`MessageRecord` of every consumed
message (a matched send→recv pair), all stamped in **virtual time** — the
discrete-event clocks of the simulator and the modeled phase costs of the
sequential pipeline — so traces are
bit-reproducible across host scheduling orders (asserted by the replay
tests).

Tracks
------
* an ``int`` track is a simulator rank (exported as one Perfetto process
  per rank);
* a ``str`` track names a logical timeline, with an optional
  ``"process/thread"`` split: ``"pipeline/main"`` for the sequential
  analyze/numfact phases, ``"svc/w0"`` for a service worker lane,
  ``"svc/job3"`` for a job's queued→running lifecycle, ``"ckpt/rounds"``
  for checkpoint/restart rounds.

Zero overhead when disabled: every instrumentation site in the simulator,
solver and service is guarded by ``if tracer is not None`` — no tracer, no
spans, no appends (the simulator's message records exist either way: they
are the run's own accounting).  What it costs when enabled is the
benchmark's ``obs.tracer_overhead_ratio`` (traced over untraced host time
of the same simulated runs; 1.54 on ``python3 benchmarks/e2e/run.py
--workload sim_2d --trace 1``, the workload with the most spans per
host-second).

Categories are fixed strings (``compute``, ``send``, ``recv_wait``,
``retransmit_backoff``, ``barrier_wait``, ``checkpoint``, ``task``,
``phase``, plus the service's ``queue``/``job``/``batch``) so exporters
and the profiler can classify spans without string parsing.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

from .metrics import MetricsRegistry

#: slotted record classes where the runtime supports it (keeps the
#: per-span allocation cost low on the simulator hot path)
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}

# -- span categories --------------------------------------------------------

COMPUTE = "compute"
SEND = "send"
RECV_WAIT = "recv_wait"
RETRANSMIT = "retransmit_backoff"
BARRIER_WAIT = "barrier_wait"
CHECKPOINT = "checkpoint"
TASK = "task"  # the rank programs' labeled task spans (F3, U3,5, U2D4)
PHASE = "phase"  # pipeline phases: transversal/ordering/.../trisolve
MARK = "mark"  # zero-length instants
QUEUE = "queue"  # service: job waiting in the admission queue
JOB = "job"  # service: job running on a worker lane
BATCH = "batch"  # service: one coalesced multi-RHS batch on a lane

#: the sequential pipeline's phase names, in execution order
PIPELINE_PHASES = (
    "transversal", "ordering", "symbolic", "partition", "numfact", "trisolve",
)

#: categories counted as communication by the profiler
COMM_CATS = (SEND, RETRANSMIT)
#: categories counted as waiting (idle) by the profiler
WAIT_CATS = (RECV_WAIT, BARRIER_WAIT)

#: modeled virtual seconds per work unit for the analyze-phase spans
#: (deterministic stand-ins for the pointer-chasing integer phases; their
#: sum over nnz/factor entries tracks the serving layer's analyze model)
PHASE_UNIT_SECONDS = {
    "transversal": 25e-9,  # per nonzero of A
    "ordering": 55e-9,  # per nonzero of A
    "symbolic": 30e-9,  # per factor entry
    "partition": 10e-9,  # per column
}


def tag_label(tag) -> str:
    """Compact human-readable label for a message tag tuple."""
    if isinstance(tag, tuple):
        return ":".join(str(t) for t in tag)
    return str(tag)


@dataclass(**_SLOTS)
class Span:
    """A labeled interval of virtual time on one track."""

    track: object  # int rank or "process/thread" string
    name: str
    cat: str
    start: float
    end: float
    args: dict = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def key(self) -> tuple:
        """Deterministic comparison key (used by the replay tests)."""
        return (repr(self.track), self.name, self.cat, self.start, self.end)


@dataclass(**_SLOTS)
class MessageRecord:
    """One transmission attempt, and once consumed, one matched send→recv
    transfer.

    The simulator writes exactly one record per attempt, and the same
    object serves two views: :class:`repro.machine.SimTrace` keeps every
    attempt in send order, dropped and duplicate ones included, for
    :mod:`repro.verify`; a :class:`Tracer` keeps the consumed ones in
    consumption order and renders them as Perfetto flow arrows.

    ``logical`` identifies the logical transfer: retransmissions and
    fault-injected duplicates of one ``send`` share it, which is how the
    trace checker tells them apart from genuine tag reuse.
    """

    src: object
    dest: object
    tag: object
    t_send: float  # sender clock when the attempt was issued
    arrival: float = None  # when the payload lands in the destination mailbox
    nbytes: int = 0
    t_recv: float = None  # receiver clock at consumption (None = never)
    seq: int = 0  # simulator-wide attempt number
    logical: int = None  # logical transfer id (seq of the first attempt)
    attempt: int = 0  # 0 = first transmission, >0 = retransmit
    dropped: bool = False  # lost in the network (never deposited)
    duplicate: bool = False  # fault-injected extra copy
    corrupted: bool = False  # payload corrupted in flight
    mutated: bool = False  # a rank wrote to the payload after it was posted

    @property
    def consumed(self) -> bool:
        return self.t_recv is not None

    def key(self) -> tuple:
        return (repr(self.src), repr(self.dest), tag_label(self.tag),
                self.t_send, self.t_recv, self.nbytes)


class Tracer:
    """Collects spans and messages; owns a :class:`MetricsRegistry`.

    Pass one tracer through ``Simulator(tracer=...)``,
    ``SStarSolver(trace=...)`` and ``SolveService(tracer=...)`` to get a
    single unified timeline; every layer appends to the same lists.
    """

    def __init__(self, metrics: MetricsRegistry = None):
        self.spans = []
        self.messages = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # -- recording -----------------------------------------------------

    def span(self, track, name, cat, start, end, args=None) -> Span:
        s = Span(track, name, cat, float(start), float(end), args)
        self.spans.append(s)
        return s

    def instant(self, track, name, cat=MARK, t=0.0, args=None) -> Span:
        return self.span(track, name, cat, t, t, args)

    def add_span(self, s: Span) -> Span:
        """Keep a span another layer recorded (the simulator's task spans):
        one object, shared."""
        self.spans.append(s)
        return s

    def message(self, rec: MessageRecord) -> MessageRecord:
        """Keep a consumed :class:`MessageRecord` (the simulator's own)."""
        self.messages.append(rec)
        return rec

    # -- queries -------------------------------------------------------

    def tracks(self) -> list:
        """All tracks with at least one span, ints first, then strings."""
        seen = []
        for s in self.spans:
            if s.track not in seen:
                seen.append(s.track)
        ints = sorted(t for t in seen if isinstance(t, int))
        strs = sorted(t for t in seen if not isinstance(t, int))
        return ints + strs

    def track_end(self, track) -> float:
        """Latest span end on ``track`` (0.0 when the track is empty)."""
        return max((s.end for s in self.spans if s.track == track),
                   default=0.0)

    def offset(self, dt: float) -> "OffsetTracer":
        """A recording proxy that shifts every timestamp by ``dt`` —
        used by checkpoint/restart to splice per-round simulations (each
        starting at virtual 0) onto one continuous timeline."""
        return OffsetTracer(self, dt)


class OffsetTracer:
    """Forwarding proxy: same span/message API, timestamps shifted."""

    def __init__(self, base: Tracer, dt: float):
        self._base = base
        self._dt = float(dt)

    @property
    def metrics(self) -> MetricsRegistry:
        return self._base.metrics

    @property
    def spans(self) -> list:
        return self._base.spans

    @property
    def messages(self) -> list:
        return self._base.messages

    def span(self, track, name, cat, start, end, args=None) -> Span:
        return self._base.span(track, name, cat, start + self._dt,
                               end + self._dt, args)

    def instant(self, track, name, cat=MARK, t=0.0, args=None) -> Span:
        return self._base.instant(track, name, cat, t + self._dt, args)

    def add_span(self, s: Span) -> Span:
        return self.span(s.track, s.name, s.cat, s.start, s.end, s.args)

    def message(self, rec: MessageRecord) -> MessageRecord:
        # the shifted copy lives on the spliced timeline; the original stays
        # in its own run's virtual time, in that run's SimTrace
        dt = self._dt
        return self._base.message(replace(
            rec, t_send=rec.t_send + dt, t_recv=rec.t_recv + dt,
            arrival=None if rec.arrival is None else rec.arrival + dt,
        ))

    def track_end(self, track) -> float:
        return self._base.track_end(track)

    def offset(self, dt: float) -> "OffsetTracer":
        return OffsetTracer(self._base, self._dt + dt)


def as_tracer(trace) -> Tracer:
    """Normalise a ``trace=`` option: ``True`` → fresh tracer, a tracer
    passes through, ``None``/``False`` → ``None`` (tracing off)."""
    if trace is None or trace is False:
        return None
    if trace is True:
        return Tracer()
    return trace


@dataclass
class PhaseClock:
    """Cursor for laying consecutive phase spans on one track."""

    tracer: object
    track: str = "pipeline/main"
    t: float = 0.0

    def phase(self, name: str, seconds: float, args: dict = None) -> float:
        """Append a phase span of modeled ``seconds``; returns its end."""
        t0 = self.t
        self.t = t0 + max(float(seconds), 0.0)
        self.tracer.span(self.track, name, PHASE, t0, self.t, args)
        return self.t


def analyze_phase_spans(tracer, *, nnz: int, n: int, factor_entries: int,
                        t0: float = 0.0, track: str = "pipeline/main") -> float:
    """Emit the four analyze-phase spans with modeled durations; returns
    the cursor after the last one.  Durations are deterministic functions
    of the problem size (virtual time, not wall time)."""
    clk = PhaseClock(tracer, track, t0)
    clk.phase("transversal", PHASE_UNIT_SECONDS["transversal"] * nnz,
              {"nnz": int(nnz)})
    clk.phase("ordering", PHASE_UNIT_SECONDS["ordering"] * nnz,
              {"nnz": int(nnz)})
    clk.phase("symbolic", PHASE_UNIT_SECONDS["symbolic"] * factor_entries,
              {"factor_entries": int(factor_entries)})
    clk.phase("partition", PHASE_UNIT_SECONDS["partition"] * n, {"n": int(n)})
    return clk.t
