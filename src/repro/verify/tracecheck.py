"""Dynamic trace checking of simulated SPMD runs.

Consumes the message records a ``Simulator(trace=True)`` run hands to its
result (see :class:`repro.machine.SimTrace`) and verifies the protocol discipline the
simulator documents but cannot enforce cheaply during execution:

* **UNIQUE** — a ``(dest, tag)`` pair identifies at most one logical
  transfer per run (tag collisions silently reorder payloads);
* **LEAK** — every deposited message is eventually received (an
  unconsumed mailbox entry means a lost multicast or a dropped ``yield``);
* **CAUSAL** — every arrival respects the latency/bandwidth model and no
  receiver resumes before its message arrived;
* **MUTATE** — no rank wrote to a posted payload (records the simulator
  flagged: a write to a read-only payload array, or under
  ``sanitize=True`` a changed content hash);
* **DAG** (1D codes) — the executed task spans, parsed from their labels
  (``F{k}`` / ``U{k},{j}``), cover the :class:`repro.taskgraph.TaskGraph`
  exactly once each, on the scheduled owner rank, in an order that
  linearizes dependence rules 1-3 plus the serializing edge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..taskgraph import FACTOR, UPDATE


@dataclass
class Violation:
    """One protocol violation detected in a trace."""

    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.message}"


class ProtocolViolationError(AssertionError):
    """Raised by strict checking modes when a trace violates the protocol."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "\n  ".join(str(v) for v in self.violations)
        super().__init__(
            f"{len(self.violations)} communication-protocol violation(s):\n  {lines}"
        )


@dataclass
class TraceCheckReport:
    """Outcome of checking one simulated run."""

    violations: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        s = self.stats
        parts = [f"{s.get('messages', 0)} messages"]
        if s.get("spans") is not None:
            parts.append(f"{s['spans']} spans")
        if s.get("dag_edges") is not None:
            parts.append(f"{s['dag_edges']} DAG edges")
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        return f"{status} ({', '.join(parts)})"


# -- message-level checks ---------------------------------------------------


def _logical_id(record):
    """Logical transfer id: retransmissions and fault-injected duplicates of
    one ``send`` share it.  Legacy records (``logical=None``) fall back to
    their seq, i.e. every record is its own logical transfer."""
    logical = getattr(record, "logical", None)
    return record.seq if logical is None else logical


def check_messages(trace, spec=None, crashed=()) -> list:
    """UNIQUE / LEAK / CAUSAL checks over a :class:`SimTrace`.

    Fault-injection aware: records of the *same* logical transfer (the
    retry protocol's retransmits, or a fault-injected duplicate) do not
    trip the tag-uniqueness rule, but two distinct logical transfers on one
    ``(dest, tag)`` still do.  Dropped transmissions, unconsumed duplicate
    copies, and messages addressed to a rank in ``crashed`` are not leaks.
    """
    violations = []
    crashed = set(crashed)
    seen = {}  # (dest, tag) -> first record
    for r in trace.records:
        key = (r.dest, _hashable(r.tag))
        if key in seen:
            first = seen[key]
            if _logical_id(first) == _logical_id(r):
                continue  # retransmit or duplicated copy of the same send
            violations.append(Violation(
                "UNIQUE",
                f"tag collision on (dest={r.dest}, tag={r.tag!r}): sent by "
                f"rank {first.src} at t={first.t_send:.3g} and again by "
                f"rank {r.src} at t={r.t_send:.3g}",
            ))
        else:
            seen[key] = r
    for r in trace.undelivered():
        if r.dropped or r.duplicate:
            continue  # never deposited / extra copy the receiver ignores
        if r.dest in crashed:
            continue  # the receiver died; nobody is left to consume it
        violations.append(Violation(
            "LEAK",
            f"message (dest={r.dest}, tag={r.tag!r}) from rank {r.src} "
            f"(arrival t={r.arrival:.3g}, {r.nbytes} bytes) was never "
            "received",
        ))
    for r in trace.records:
        eps = 1e-12 * max(1.0, abs(r.arrival))
        if r.src != r.dest and spec is not None:
            floor = r.t_send + spec.latency_s + r.nbytes / spec.bandwidth_bps
            if r.arrival < floor - eps:
                violations.append(Violation(
                    "CAUSAL",
                    f"message (dest={r.dest}, tag={r.tag!r}) arrived at "
                    f"t={r.arrival:.6g} before the model floor {floor:.6g}",
                ))
        if r.consumed and r.t_recv < r.arrival - eps:
            violations.append(Violation(
                "CAUSAL",
                f"rank {r.dest} consumed tag {r.tag!r} at t={r.t_recv:.6g} "
                f"before its arrival t={r.arrival:.6g}",
            ))
        if r.mutated:
            violations.append(Violation(
                "MUTATE",
                f"rank {r.src} mutated the payload of tag {r.tag!r} "
                f"(posted to rank {r.dest} at t={r.t_send:.3g}) after "
                "sending it: write-after-send under zero-copy put semantics",
            ))
    return violations


def _hashable(tag):
    if isinstance(tag, (list, tuple)):
        return tuple(_hashable(t) for t in tag)
    return tag


# -- DAG linearization (1D codes) -------------------------------------------

_SPAN_RE = re.compile(r"^(?:F(\d+)|U(\d+),(\d+))$")


def parse_span_label(label: str):
    """``"F3"`` -> ``('F', 3)``; ``"U3,7"`` -> ``('U', 3, 7)``; else None."""
    m = _SPAN_RE.match(label)
    if not m:
        return None
    if m.group(1) is not None:
        return (FACTOR, int(m.group(1)))
    return (UPDATE, int(m.group(2)), int(m.group(3)))


def check_spans_against_dag(spans, tg, schedule=None) -> list:
    """Verify executed spans cover and linearize the task graph.

    ``spans`` are ``SimResult.spans`` (per-rank execution order is their
    recorded order).  A span whose name :func:`parse_span_label` cannot
    interpret is ignored, so auxiliary spans coexist with the check.
    """
    violations = []
    where = {}  # task -> (rank, per-rank index, start, end)
    per_rank_idx = {}
    for s in spans:
        task = parse_span_label(s.name)
        if task is None:
            continue
        idx = per_rank_idx.get(s.track, 0)
        per_rank_idx[s.track] = idx + 1
        if task in where:
            violations.append(Violation(
                "DAG",
                f"task {task!r} executed twice: on rank {where[task][0]} "
                f"and rank {s.track}",
            ))
            continue
        where[task] = (s.track, idx, s.start, s.end)

    known = set(tg.tasks)
    for task in tg.tasks:
        if task not in where:
            violations.append(Violation(
                "DAG", f"task {task!r} has no executed span on any rank"
            ))
    for task in where:
        if task not in known:
            violations.append(Violation(
                "DAG", f"executed span {task!r} is not a task of the graph"
            ))
    if schedule is not None:
        for task, (rank, _, _, _) in where.items():
            if task in known and schedule.task_owner(task) != rank:
                violations.append(Violation(
                    "DAG",
                    f"task {task!r} ran on rank {rank}, scheduled owner is "
                    f"rank {schedule.task_owner(task)}",
                ))

    max_end = max((w[3] for w in where.values()), default=0.0)
    eps = 1e-9 * max(1.0, max_end)
    checked = 0
    for a, succs in tg.succ.items():
        wa = where.get(a)
        if wa is None:
            continue
        for b in succs:
            wb = where.get(b)
            if wb is None:
                continue
            checked += 1
            if wa[0] == wb[0]:
                # same rank: strict execution-order precedence
                if wa[1] >= wb[1]:
                    violations.append(Violation(
                        "DAG",
                        f"rank {wa[0]} executed {b!r} (index {wb[1]}) before "
                        f"its dependence {a!r} (index {wa[1]})",
                    ))
            elif wa[3] > wb[3] + eps:
                # cross-rank: producer must complete no later than consumer
                violations.append(Violation(
                    "DAG",
                    f"{b!r} completed at t={wb[3]:.6g} on rank {wb[0]} "
                    f"before its dependence {a!r} completed at "
                    f"t={wa[3]:.6g} on rank {wa[0]}",
                ))
    return violations, checked


def check_run(result, spec=None, tg=None, schedule=None) -> TraceCheckReport:
    """Full dynamic check of one ``SimResult`` (with trace attached)."""
    report = TraceCheckReport()
    if result.trace is None:
        report.violations.append(Violation(
            "TRACE", "run has no message trace; pass trace=True to Simulator"
        ))
        return report
    report.stats["messages"] = len(result.trace.records)
    report.violations.extend(check_messages(
        result.trace, spec=spec, crashed=getattr(result, "crashed", ())
    ))
    if tg is not None:
        vs, checked = check_spans_against_dag(result.spans, tg, schedule=schedule)
        report.violations.extend(vs)
        report.stats["spans"] = sum(
            1 for s in result.spans if parse_span_label(s.name) is not None
        )
        report.stats["dag_edges"] = checked
    return report
