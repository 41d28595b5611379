"""Deterministic, seedable fault injection for the SPMD simulator.

A :class:`FaultPlan` describes which messages misbehave (drop, duplicate,
delay, corrupt) and which ranks crash, in a way that is **replayable**: the
decision for a message depends only on the plan's seed and the message's
identity ``(src, dest, tag, attempt)`` — never on host scheduling order or
on how many messages happened to be sent before it.  Re-running the same
program under a permuted ``host_order`` therefore sees the *same* faults,
which keeps :mod:`repro.verify.replay` bit-identical on faulty runs.

Message rules match by source/destination rank and by tag prefix (tags in
the parallel codes are tuples like ``("col", k)`` or ``("lcol", K)``), each
with an independent per-attempt probability.  Crash faults kill one rank at
a virtual time; the simulator applies them at yield (task) boundaries.

Besides probabilistic rules a plan may carry explicit **events**
(:class:`FaultEvent`): one action pinned to one exact transmission
``(src, dest, tag, attempt)``.  Events are what the chaos shrinker
(:mod:`repro.chaos.shrink`) manipulates — a failing probabilistic run is
first *materialised* into the event list of faults that actually fired
(``FaultStats.injected``), and delta debugging then minimises that list.

Plans serialize to/from JSON so the CLI can replay a fault scenario from a
file (``repro solve --faults plan.json``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

DROP = "drop"
DUPLICATE = "duplicate"
DELAY = "delay"
CORRUPT = "corrupt"
_ACTIONS = (DROP, DUPLICATE, DELAY, CORRUPT)


def _uniform(*key) -> float:
    """Deterministic uniform in [0, 1) from a stable hash of ``key``.

    Uses sha256 (not Python's randomized ``hash``) so decisions are stable
    across processes and host scheduling orders.
    """
    h = hashlib.sha256(repr(key).encode()).digest()
    return int.from_bytes(h[:7], "big") / float(1 << 56)


@dataclass(frozen=True)
class MessageFaultRule:
    """One message-fault rule: ``action`` applied with probability ``rate``
    to messages matching the (src, dest, tag-prefix) predicates."""

    action: str
    rate: float = 1.0
    src: int = None  # None = any source rank
    dest: int = None  # None = any destination rank
    tag_prefix: tuple = None  # None = any tag; else tag[:len(prefix)] match
    delay_s: float = 0.0  # extra arrival delay for DELAY rules

    def __post_init__(self):
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")

    def matches(self, src: int, dest: int, tag) -> bool:
        if self.src is not None and src != self.src:
            return False
        if self.dest is not None and dest != self.dest:
            return False
        if self.tag_prefix is not None:
            pre = self.tag_prefix
            if isinstance(tag, tuple):
                if tuple(tag[: len(pre)]) != tuple(pre):
                    return False
            elif len(pre) != 1 or tag != pre[0]:
                return False
        return True


def _tag_from_json(tag):
    """Tags round-trip through JSON as lists; restore the tuple form."""
    if isinstance(tag, list):
        return tuple(tag)
    return tag


@dataclass(frozen=True)
class FaultEvent:
    """One action pinned to one exact transmission attempt.

    Unlike a :class:`MessageFaultRule` (probabilistic, prefix-matched) an
    event fires deterministically on the single message identified by
    ``(src, dest, tag, attempt)`` and on nothing else — the minimal unit
    the chaos shrinker adds and removes.
    """

    action: str
    src: int
    dest: int
    tag: tuple
    attempt: int = 0
    delay_s: float = 0.0  # extra arrival delay for DELAY events

    def __post_init__(self):
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        # lists sneak in via JSON; normalise so matching stays exact
        object.__setattr__(self, "tag", _tag_from_json(self.tag))

    def matches(self, src: int, dest: int, tag, attempt: int) -> bool:
        return (
            src == self.src
            and dest == self.dest
            and attempt == self.attempt
            and tag == self.tag
        )

    def key(self) -> tuple:
        """Canonical ordering key (shrinker output is sorted by this)."""
        return (self.src, self.dest, repr(self.tag), self.attempt, self.action)

    def to_dict(self) -> dict:
        return {
            "action": self.action,
            "src": self.src,
            "dest": self.dest,
            "tag": list(self.tag) if isinstance(self.tag, tuple) else self.tag,
            "attempt": self.attempt,
            "delay_s": self.delay_s,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FaultEvent":
        return cls(
            d["action"],
            src=d["src"],
            dest=d["dest"],
            tag=_tag_from_json(d["tag"]),
            attempt=d.get("attempt", 0),
            delay_s=d.get("delay_s", 0.0),
        )


@dataclass(frozen=True)
class CrashFault:
    """Rank ``rank`` dies at virtual time ``at_time`` (applied at the next
    yield/task boundary the rank reaches at or after that time)."""

    rank: int
    at_time: float


class FaultPlan:
    """A replayable set of message faults and rank crashes."""

    def __init__(self, rules=(), crashes=(), seed: int = 0, events=()):
        self.rules = list(rules)
        self.crashes = list(crashes)
        self.events = list(events)
        self.seed = int(seed)
        ranks = [c.rank for c in self.crashes]
        if len(set(ranks)) != len(ranks):
            raise ValueError("at most one crash per rank")

    # -- construction helpers ----------------------------------------------

    @classmethod
    def drops(cls, rate: float, seed: int = 0, **match) -> "FaultPlan":
        """Uniformly drop a fraction ``rate`` of matching messages."""
        return cls([MessageFaultRule(DROP, rate=rate, **match)], seed=seed)

    def with_crash(self, rank: int, at_time: float) -> "FaultPlan":
        return FaultPlan(
            self.rules, self.crashes + [CrashFault(rank, at_time)], self.seed,
            events=self.events,
        )

    # -- message decisions -------------------------------------------------

    def message_fault(self, src, dest, tag, attempt: int = 0):
        """The rule or event (or None) afflicting this transmission attempt.

        Explicit events are consulted first (exact match, deterministic);
        otherwise the probabilistic rules apply.  A rule decision hashes
        ``(seed, rule#, src, dest, tag, attempt)`` — independent per
        message and per retry attempt, so retransmissions get fresh coin
        flips and host order never changes the outcome.
        """
        for ev in self.events:
            if ev.matches(src, dest, tag, attempt):
                return ev
        for i, rule in enumerate(self.rules):
            if not rule.matches(src, dest, tag):
                continue
            if rule.rate >= 1.0 or _uniform(
                self.seed, i, src, dest, repr(tag), attempt
            ) < rule.rate:
                return rule
        return None

    # -- crash decisions ---------------------------------------------------

    def crash_time(self, rank: int):
        """Virtual crash time for ``rank`` or None."""
        for c in self.crashes:
            if c.rank == rank:
                return c.at_time
        return None

    # -- recovery-time rewrites -------------------------------------------

    def after_crash(self, rank: int, elapsed: float = 0.0) -> "FaultPlan":
        """The plan as seen by a restarted run on the surviving ranks.

        The crashed rank's entry is removed, surviving ranks above it are
        renumbered down by one (process-grid shrinking), and remaining crash
        times shift by the virtual time already ``elapsed``.
        """

        def remap(r):
            if r is None:
                return None
            return r - 1 if r > rank else r

        rules = []
        for rule in self.rules:
            if rule.src == rank or rule.dest == rank:
                continue
            rules.append(
                MessageFaultRule(
                    rule.action, rule.rate, remap(rule.src), remap(rule.dest),
                    rule.tag_prefix, rule.delay_s,
                )
            )
        crashes = [
            CrashFault(remap(c.rank), max(c.at_time - elapsed, 0.0))
            for c in self.crashes
            if c.rank != rank
        ]
        events = []
        for ev in self.events:
            if ev.src == rank or ev.dest == rank:
                continue
            events.append(
                FaultEvent(ev.action, remap(ev.src), remap(ev.dest), ev.tag,
                           ev.attempt, ev.delay_s)
            )
        return FaultPlan(rules, crashes, self.seed, events=events)

    def shifted(self, elapsed: float) -> "FaultPlan":
        """The plan with crash times advanced by ``elapsed`` virtual seconds
        (for drivers that split one logical run into several simulations).
        A crash whose time already passed fires immediately (time 0)."""
        crashes = [
            CrashFault(c.rank, max(c.at_time - elapsed, 0.0))
            for c in self.crashes
        ]
        return FaultPlan(self.rules, crashes, self.seed, events=self.events)

    def without_corrupt(self) -> "FaultPlan":
        """The plan minus every CORRUPT rule and event.

        Recovery drivers re-run a window after ABFT flags silent
        corruption; the transient-SDC model (matching the clean-network
        retry in :mod:`repro.service`) says the same bits do not flip again
        on the retry, so the corrupting faults are stripped."""
        return FaultPlan(
            [r for r in self.rules if r.action != CORRUPT],
            self.crashes,
            self.seed,
            events=[e for e in self.events if e.action != CORRUPT],
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "rules": [
                {
                    "action": r.action,
                    "rate": r.rate,
                    "src": r.src,
                    "dest": r.dest,
                    "tag_prefix": list(r.tag_prefix) if r.tag_prefix else None,
                    "delay_s": r.delay_s,
                }
                for r in self.rules
            ],
            "crashes": [
                {"rank": c.rank, "at_time": c.at_time} for c in self.crashes
            ],
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        rules = [
            MessageFaultRule(
                r["action"],
                rate=r.get("rate", 1.0),
                src=r.get("src"),
                dest=r.get("dest"),
                tag_prefix=tuple(r["tag_prefix"]) if r.get("tag_prefix") else None,
                delay_s=r.get("delay_s", 0.0),
            )
            for r in d.get("rules", ())
        ]
        crashes = [
            CrashFault(c["rank"], c["at_time"]) for c in d.get("crashes", ())
        ]
        events = [FaultEvent.from_dict(e) for e in d.get("events", ())]
        return cls(rules, crashes, seed=d.get("seed", 0), events=events)

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2)
        if path is not None:
            with open(path, "w") as f:
                f.write(text + "\n")
        return text

    @classmethod
    def from_json(cls, source) -> "FaultPlan":
        """Parse a plan from a JSON string or a file path."""
        if "\n" not in source and "{" not in source:
            with open(source) as f:
                source = f.read()
        return cls.from_dict(json.loads(source))

    def __repr__(self):
        return (
            f"FaultPlan(rules={len(self.rules)}, crashes={len(self.crashes)}, "
            f"events={len(self.events)}, seed={self.seed})"
        )


@dataclass(frozen=True)
class ReliableDelivery:
    """Opt-in ack/timeout/retry transport for :class:`repro.machine.Env`.

    Each logical send is attempted up to ``max_attempts`` times.  A failed
    attempt (dropped, or corrupted when ``checksum`` is on) costs the sender
    the retransmission timeout ``rto_s * 2**attempt`` of virtual time before
    the next try; a successful attempt blocks the sender until the ack
    returns (``ack_s`` after arrival).  ``rto_s``/``ack_s`` default to
    4x / 1x the machine latency.  All attempts share one logical sequence
    number so the trace checker can tell retransmits from tag reuse.
    """

    max_attempts: int = 5
    rto_s: float = None
    ack_s: float = None
    checksum: bool = True

    def rto(self, spec) -> float:
        return self.rto_s if self.rto_s is not None else 4.0 * spec.latency_s

    def ack(self, spec) -> float:
        return self.ack_s if self.ack_s is not None else spec.latency_s


@dataclass
class FaultStats:
    """Per-run record of injected faults and protocol activity.

    The per-kind fault counts are read from ``injected``; ``retransmits``
    is counted where the simulator makes each retransmission's record."""

    retransmits: int = 0
    crashes: list = field(default_factory=list)  # (rank, at_clock)
    #: every message fault that actually fired, as replayable
    #: :class:`FaultEvent` records — the raw material the chaos shrinker
    #: turns a probabilistic failing run into an explicit schedule from
    injected: list = field(default_factory=list)

    def _count(self, action: str) -> int:
        return sum(1 for e in self.injected if e.action == action)

    @property
    def dropped(self) -> int:
        return self._count(DROP)

    @property
    def duplicated(self) -> int:
        return self._count(DUPLICATE)

    @property
    def delayed(self) -> int:
        return self._count(DELAY)

    @property
    def corrupted(self) -> int:
        return self._count(CORRUPT)

    def total_injected(self) -> int:
        return len(self.injected)

    def injected_events(self) -> list:
        """The realised faults as a canonically ordered event list."""
        return sorted(self.injected, key=lambda e: e.key())
