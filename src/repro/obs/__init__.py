"""repro.obs — unified tracing, metrics, and critical-path profiling.

One :class:`Tracer` threads through the simulator
(``Simulator(tracer=...)``), the solvers (``SStarSolver(trace=...)``)
and the serving layer (``SolveService(tracer=...)``), recording
virtual-time spans and matched messages.  Export with
:func:`to_chrome_trace` (Perfetto-loadable), summarize with
:func:`render_summary`, analyze with :func:`profile_trace` /
:func:`reconcile`, and count things with :class:`MetricsRegistry`.
"""

from .metrics import (
    DEFAULT_TIME_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracer import (
    BARRIER_WAIT,
    BATCH,
    CHECKPOINT,
    COMPUTE,
    JOB,
    MARK,
    PHASE,
    PIPELINE_PHASES,
    QUEUE,
    RECV_WAIT,
    RETRANSMIT,
    SEND,
    TASK,
    MessageRecord,
    OffsetTracer,
    PhaseClock,
    Span,
    Tracer,
    analyze_phase_spans,
    as_tracer,
    tag_label,
)
from .export import (
    from_chrome_trace,
    render_summary,
    to_chrome_trace,
    validate_trace,
)
from .profile import (
    PathSegment,
    RankBreakdown,
    TraceProfile,
    profile_trace,
    reconcile,
)

__all__ = [
    "BARRIER_WAIT",
    "BATCH",
    "CHECKPOINT",
    "COMPUTE",
    "Counter",
    "DEFAULT_TIME_BOUNDS",
    "Gauge",
    "Histogram",
    "JOB",
    "MARK",
    "MessageRecord",
    "MetricsRegistry",
    "OffsetTracer",
    "PHASE",
    "PIPELINE_PHASES",
    "PathSegment",
    "PhaseClock",
    "QUEUE",
    "RECV_WAIT",
    "RETRANSMIT",
    "RankBreakdown",
    "SEND",
    "Span",
    "TASK",
    "TraceProfile",
    "Tracer",
    "analyze_phase_spans",
    "as_tracer",
    "from_chrome_trace",
    "profile_trace",
    "reconcile",
    "render_summary",
    "tag_label",
    "to_chrome_trace",
    "validate_trace",
]
