"""Trace-derived profiling: busy/comm/idle, critical path, overlap.

Where :mod:`repro.taskgraph.profile` *predicts* a run's shape from the
task graph and machine model, this module *measures* it from an actual
trace, and :func:`reconcile` reports the drift between the two — the
paper's prediction-vs-measurement discussions (Figs. 16–18) as one
number.

The critical path is found by walking **backward** through the span +
message graph: start at the rank that finishes last; inside a span, time
is attributed to that span; when the walk enters a ``recv_wait`` span
whose end coincides with a message arrival that the rank actually waited
for, the walk jumps to the *sender* at its send time (the wait was caused
by the peer, not by local work).  Because the simulator's instrumentation
covers every clock advance with a span, the summed segment durations
reproduce the run's total virtual time exactly (asserted within 1e-9 in
tests and by ``repro trace``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tracer import COMM_CATS, COMPUTE, RECV_WAIT, Tracer, WAIT_CATS


@dataclass
class RankBreakdown:
    """Virtual-time attribution for one rank."""

    rank: int
    total: float = 0.0
    busy: float = 0.0  # compute spans
    comm: float = 0.0  # send + retransmit_backoff spans
    idle: float = 0.0  # recv_wait + barrier_wait spans

    def pct(self, x: float) -> float:
        return 100.0 * x / self.total if self.total > 0 else 0.0


@dataclass
class PathSegment:
    """One hop of the critical path."""

    kind: str  # "span" or "message"
    track: object
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class TraceProfile:
    """Measured profile of one traced run."""

    total_time: float
    ranks: list = field(default_factory=list)  # RankBreakdown, rank order
    critical_path: list = field(default_factory=list)  # PathSegment, fwd order
    overlap_ratio: float = 0.0  # fraction of comm time overlapped w/ compute

    @property
    def critical_path_seconds(self) -> float:
        return sum(seg.duration for seg in self.critical_path)

    def top_spans(self, k: int = 5) -> list:
        """The k longest span segments on the critical path."""
        spans = [seg for seg in self.critical_path if seg.kind == "span"]
        spans.sort(key=lambda s: (-s.duration, s.start, s.name))
        return spans[:k]

    def attribution(self) -> dict:
        """Aggregate ``{"busy", "comm", "idle"}`` fractions across all
        ranks — the communication-boundedness signal the autotuner uses
        to reject configurations early (:mod:`repro.tune`)."""
        busy = sum(rb.busy for rb in self.ranks)
        comm = sum(rb.comm for rb in self.ranks)
        idle = sum(rb.idle for rb in self.ranks)
        total = busy + comm + idle
        if total <= 0.0:
            return {"busy": 1.0, "comm": 0.0, "idle": 0.0}
        return {"busy": busy / total, "comm": comm / total,
                "idle": idle / total}

    def render(self, top: int = 5) -> str:
        lines = [f"total virtual time: {self.total_time:.6e} s"]
        lines.append(
            f"critical path:      {self.critical_path_seconds:.6e} s "
            f"({len(self.critical_path)} segments)"
        )
        lines.append(f"comm/comp overlap:  {self.overlap_ratio * 100.0:.1f}%")
        lines.append("per-rank breakdown (busy / comm / idle):")
        for rb in self.ranks:
            lines.append(
                f"  rank {rb.rank:<3d} {rb.pct(rb.busy):5.1f}% busy  "
                f"{rb.pct(rb.comm):5.1f}% comm  {rb.pct(rb.idle):5.1f}% idle"
                f"   (total {rb.total:.3e} s)"
            )
        tops = self.top_spans(top)
        if tops:
            lines.append(f"top {len(tops)} critical-path spans:")
            for seg in tops:
                lines.append(
                    f"  {seg.name:<12} rank={seg.track}  "
                    f"dur={seg.duration:.3e} s  at {seg.start:.3e} s"
                )
        return "\n".join(lines)


def _rank_spans(spans):
    """Int-track spans, excluding task/phase wrappers that *contain* the
    timing spans (task spans overlap their inner compute/send spans and
    would double-count)."""
    return [s for s in spans if isinstance(s.track, int)
            and s.cat in (COMPUTE,) + COMM_CATS + WAIT_CATS]


def profile_trace(spans, messages=(), total_time: float = None) -> TraceProfile:
    """Measure a profile from trace ``spans`` + ``messages``.

    Accepts a :class:`Tracer` in place of ``spans``.  ``total_time``
    defaults to the latest rank-span end (pass ``SimResult.total_time``
    to include a trailing barrier cost not covered by spans).
    """
    if isinstance(spans, Tracer):
        tracer = spans
        spans, messages = tracer.spans, tracer.messages
    messages = list(messages)
    timed = _rank_spans(spans)

    rank_ids = sorted({s.track for s in timed})
    if total_time is None:
        total_time = max((s.end for s in timed), default=0.0)

    ranks = []
    for r in rank_ids:
        rb = RankBreakdown(rank=r, total=total_time)
        last_end = 0.0
        for s in timed:
            if s.track != r:
                continue
            d = s.end - s.start
            if s.cat == COMPUTE:
                rb.busy += d
            elif s.cat in COMM_CATS:
                rb.comm += d
            else:
                rb.idle += d
            last_end = max(last_end, s.end)
        # spans tile [0, rank clock]; whatever remains until the run's
        # total time is trailing idle (e.g. waiting for slower ranks)
        rb.idle += max(0.0, total_time - last_end)
        ranks.append(rb)

    path = _critical_path(timed, messages, rank_ids, total_time)
    overlap = _overlap_ratio(timed, total_time)
    return TraceProfile(total_time=total_time, ranks=ranks,
                        critical_path=path, overlap_ratio=overlap)


def _critical_path(timed, messages, rank_ids, total_time) -> list:
    """Backward walk from the last-finishing rank; returns forward-ordered
    :class:`PathSegment` list whose durations sum to ``total_time``."""
    if not rank_ids or total_time <= 0:
        return []
    eps = 1e-12 * max(total_time, 1.0)
    by_rank = {r: sorted((s for s in timed if s.track == r),
                         key=lambda s: (s.start, s.end)) for r in rank_ids}
    # messages keyed by (dest rank, receive time) for the wait-jump test
    msgs_to = {r: [m for m in messages if m.dest == r] for r in rank_ids}

    # start at the rank whose spans end last
    rank = max(rank_ids, key=lambda r: (by_rank[r][-1].end if by_rank[r]
                                        else 0.0, -r))
    t = total_time
    segments = []
    budget = len(timed) + len(messages) + len(rank_ids) + 8
    while t > eps and budget > 0:
        budget -= 1
        covering = None
        for s in by_rank[rank]:
            if s.start < t - eps and s.end >= t - eps:
                if covering is None or s.start > covering.start:
                    covering = s
        if covering is None:
            # gap before the rank's first span (e.g. barrier warm-up):
            # attribute it to the rank as idle and stop
            segments.append(PathSegment("span", rank, "(untracked)", 0.0, t))
            break
        seg_end = t
        if covering.cat == RECV_WAIT:
            # did a message cause this wait to end at covering.end?
            cause = None
            for m in msgs_to[rank]:
                if abs(m.t_recv - covering.end) <= eps and (
                    m.arrival is None or m.arrival > covering.start + eps
                ):
                    if cause is None or m.t_send < cause.t_send:
                        cause = m
            if cause is not None and abs(t - covering.end) <= eps:
                # transit hop: sender's clock at send → receiver unblocked
                segments.append(PathSegment(
                    "message", f"{cause.src}->{cause.dest}",
                    f"msg {cause.tag}" if not isinstance(cause.tag, tuple)
                    else "msg " + ":".join(str(x) for x in cause.tag),
                    cause.t_send, seg_end,
                ))
                rank = cause.src
                t = cause.t_send
                continue
        start = covering.start
        segments.append(PathSegment("span", rank, covering.name, start,
                                    seg_end))
        t = start
    segments.reverse()
    return segments


def _overlap_ratio(timed, total_time) -> float:
    """Fraction of comm-active time during which at least one rank is
    computing (the paper's pipelining effectiveness in Figs. 16–18)."""
    events = []  # (time, kind, +1/-1) boundaries
    for s in timed:
        if s.end <= s.start:
            continue
        if s.cat == COMPUTE:
            kind = "comp"
        elif s.cat in COMM_CATS:
            kind = "comm"
        else:
            continue
        events.append((s.start, kind, 1))
        events.append((s.end, kind, -1))
    if not events:
        return 0.0
    events.sort(key=lambda e: (e[0], e[2]))
    comm_active = 0.0
    overlapped = 0.0
    ncomp = ncomm = 0
    prev = events[0][0]
    for t, kind, delta in events:
        if t > prev:
            if ncomm > 0:
                comm_active += t - prev
                if ncomp > 0:
                    overlapped += t - prev
            prev = t
        if kind == "comp":
            ncomp += delta
        else:
            ncomm += delta
        if t > prev:
            prev = t
    return overlapped / comm_active if comm_active > 0 else 0.0


def reconcile(profile: TraceProfile, tg, spec) -> dict:
    """Compare the measured critical path against the task-graph model's
    prediction (:meth:`TaskGraph.critical_path_seconds`).  Returns a dict
    with both numbers and the relative drift — the reportable
    prediction-vs-observation gap."""
    model_cp = float(tg.critical_path_seconds(spec))
    observed_cp = profile.critical_path_seconds
    denom = max(abs(model_cp), 1e-300)
    return {
        "model_critical_path_seconds": model_cp,
        "observed_critical_path_seconds": observed_cp,
        "observed_total_seconds": profile.total_time,
        "drift": (observed_cp - model_cp) / denom,
    }
