"""Deterministic discrete-event SPMD simulator.

Each rank is a Python **generator**: ordinary Python between yields runs the
real numerics; ``compute``/``send`` advance the rank's *virtual clock*
immediately, while ``recv`` and ``barrier`` yield control back to the
scheduler until they can be satisfied.  Message arrival times are computed
from the sender's clock with the machine spec's latency/bandwidth model, so
timing is causally correct no matter in which host order ranks execute.

Semantics (matching the shmem/RMA style the paper's codes rely on):

* ``send`` is asynchronous one-sided put: the sender pays the per-message
  overhead, the payload is deposited in the receiver's mailbox at
  ``sender_clock + latency + bytes/bandwidth``;
* ``recv(tag)`` blocks until a matching message exists and resumes at
  ``max(local_clock, arrival)``; payloads are deep-copied at send time so
  ranks never alias each other's memory — unless ``zero_copy`` delivery is
  active, in which case the lint certificate (``repro lint --certify``)
  proves the program never writes a posted buffer and the copy is skipped
  (true RMA put semantics, as on the paper's T3D);
* tags must uniquely identify a logical transfer (step/stage/source); the
  parallel codes in :mod:`repro.parallel` follow this discipline;
* ``barrier`` synchronises all ranks at ``max(clocks) + barrier cost``.

The simulator records per-rank busy time, labeled task spans (used for
Gantt charts, load-balance factors and the Theorem 2 overlap-degree
measurements) and one :class:`MessageRecord` per transmission attempt.
Every message count the run reports is taken where its record is made.
"""

from __future__ import annotations

import hashlib
import heapq
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..numfact.counter import KernelCounter
from ..obs import tracer as _obs
from ..obs.tracer import MessageRecord
from .faults import (
    CORRUPT,
    DELAY,
    DROP,
    DUPLICATE,
    FaultEvent,
    FaultStats,
    ReliableDelivery,
)
from .specs import MachineSpec


class DeliveryError(RuntimeError):
    """A message could not be delivered.

    Structured attributes: ``src``, ``dest``, ``tag``, ``attempts`` (number
    of transmission attempts made before giving up).
    """

    def __init__(self, message, src=None, dest=None, tag=None, attempts=0):
        super().__init__(message)
        self.src = src
        self.dest = dest
        self.tag = tag
        self.attempts = attempts


class PayloadMutationError(RuntimeError):
    """A sender mutated a posted payload before it was consumed.

    Raised by ``Simulator(sanitize=True)``: payloads are content-hashed at
    send time and re-verified when the receiver consumes them (and at the
    end of the run for messages never received).  The simulator's defensive
    deep copy means the receiver still observed the *pre-mutation* bytes —
    but on a real zero-copy RMA machine it would not have, so the program
    is incorrect.

    Structured attributes: ``src``, ``dest``, ``tag``, ``send_clock`` (the
    sender's virtual clock when the payload was posted), and ``span`` (the
    label of the sender's task span covering the send, or None).
    """

    def __init__(self, message, src=None, dest=None, tag=None,
                 send_clock=0.0, span=None):
        super().__init__(message)
        self.src = src
        self.dest = dest
        self.tag = tag
        self.send_clock = send_clock
        self.span = span


class MessageLostError(DeliveryError):
    """A rank is blocked waiting for a message the network dropped.

    Raised instead of :class:`DeadlockError` when the scheduler can prove
    the awaited transfer was lost to fault injection (and reliable delivery
    was off, so nothing will ever retransmit it).
    """


class RankCrashedError(RuntimeError):
    """A rank crashed before the run finished.

    Structured attributes: ``ranks`` (the crashed ranks), ``crash_times``
    (``{rank: virtual clock at death}``), ``detected_at`` (the virtual time
    at which the survivors' heartbeat timeout detected the failure), and
    ``blocked`` as for :class:`DeadlockError` — empty when the survivors
    finished without the dead rank.
    """

    def __init__(self, message, ranks=(), crash_times=None, detected_at=0.0,
                 blocked=None):
        super().__init__(message)
        self.ranks = list(ranks)
        self.crash_times = dict(crash_times or {})
        self.detected_at = detected_at
        self.blocked = blocked or []


class DeadlockError(RuntimeError):
    """All ranks are blocked and no message can satisfy any of them.

    Structured attributes (for tooling, e.g. :mod:`repro.verify`):

    * ``blocked`` — list of ``(rank, what)`` where ``what`` is the tag the
      rank's ``recv`` is waiting on, or the string ``"barrier"``;
    * ``pending`` — ``{rank: [(tag, arrival, src), ...]}`` of messages
      sitting undelivered in each blocked rank's mailbox (the tags the
      rank *could* have received instead — usually the smoking gun of a
      tag mismatch).
    """

    def __init__(self, message, blocked=None, pending=None):
        super().__init__(message)
        self.blocked = blocked or []
        self.pending = pending or {}


@dataclass
class SimTrace:
    """Every transmission attempt of one simulated run, as
    :class:`MessageRecord` objects in send order (``Simulator(trace=True)``,
    or a run whose network can lose messages)."""

    records: list = field(default_factory=list)

    def undelivered(self) -> list:
        """Messages deposited but never received (mailbox leaks)."""
        return [r for r in self.records if not r.consumed]

    def by_src(self) -> dict:
        """Records grouped per sender, preserving each sender's send order
        (the host-scheduling-independent view used by the replay checker)."""
        out = {}
        for r in self.records:
            out.setdefault(r.src, []).append(r)
        return out


# rank scheduling states (module-level so _post can test for _RECV)
_READY, _RECV, _BARRIER, _DONE, _CRASHED = 0, 1, 2, 3, 4


class _RecvRequest:
    __slots__ = ("tag",)

    def __init__(self, tag):
        self.tag = tag


class _BarrierRequest:
    __slots__ = ()


def _payload_nbytes(payload) -> int:
    """Estimate the wire size of a payload (ndarray-aware, recursive)."""
    if payload is None:
        return 8
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(payload, (tuple, list)):
        return 16 + sum(_payload_nbytes(p) for p in payload)
    if isinstance(payload, dict):
        return 16 + sum(8 + _payload_nbytes(v) for v in payload.values())
    if isinstance(payload, str):
        return len(payload)
    return 64


def _copy_payload(payload):
    """Deep-copy the ndarray parts of a payload (no aliasing across ranks)."""
    if isinstance(payload, np.ndarray):
        return payload.copy()
    if isinstance(payload, tuple):
        return tuple(_copy_payload(p) for p in payload)
    if isinstance(payload, list):
        return [_copy_payload(p) for p in payload]
    if isinstance(payload, dict):
        return {k: _copy_payload(v) for k, v in payload.items()}
    return payload


def _digest_into(h, p) -> None:
    """Feed a payload's content (with type/shape markers) into a hash."""
    if p is None:
        h.update(b"N")
    elif isinstance(p, np.ndarray):
        h.update(b"A")
        h.update(str(p.dtype).encode())
        h.update(repr(p.shape).encode())
        h.update(np.ascontiguousarray(p).tobytes())
    elif isinstance(p, (bool, int, float, complex,
                        np.integer, np.floating, np.bool_)):
        h.update(b"S")
        h.update(repr(p).encode())
    elif isinstance(p, str):
        h.update(b"T")
        h.update(p.encode())
    elif isinstance(p, bytes):
        h.update(b"B")
        h.update(p)
    elif isinstance(p, (tuple, list)):
        h.update(b"L(" if isinstance(p, list) else b"U(")
        for e in p:
            _digest_into(h, e)
        h.update(b")")
    elif isinstance(p, dict):
        h.update(b"D(")
        for k in p:
            h.update(repr(k).encode())
            _digest_into(h, p[k])
        h.update(b")")
    else:
        h.update(b"O")
        h.update(repr(p).encode())


def _payload_digest(payload) -> bytes:
    """Content hash of a payload (sanitize mode's write-after-send check)."""
    h = hashlib.blake2b(digest_size=16)
    _digest_into(h, payload)
    return h.digest()


#: (reason: module) strings already warned about in this process
_ZC_WARNED = set()


class _SanitizeGuard:
    """Send-time snapshot for one posted payload: the *original* object
    (not the simulator's defensive copy) plus its content hash.  Re-hashing
    the original later detects any write the sender made after posting."""

    __slots__ = ("payload", "digest")

    def __init__(self, payload):
        self.payload = payload
        self.digest = _payload_digest(payload)


def _corrupt_payload(payload):
    """Deterministically flip one value in a (copied) payload.

    Mutates the first numeric leaf found (depth-first) by scaling and
    shifting it — a visible, finite bit error.  Returns True on success so
    callers know whether anything was actually corruptible.
    """
    if isinstance(payload, np.ndarray):
        if payload.size:
            flat = payload.reshape(-1)
            flat[0] = flat[0] * 1.5 + 1.0
            return True
        return False
    if isinstance(payload, (list, tuple)):
        for p in payload:
            if _corrupt_payload(p):
                return True
        return False
    if isinstance(payload, dict):
        for v in payload.values():
            if _corrupt_payload(v):
                return True
        return False
    return False


class Env:
    """Per-rank handle passed to SPMD programs."""

    def __init__(self, sim: "Simulator", rank: int):
        self._sim = sim
        self.rank = rank
        self.clock = 0.0
        self.busy = 0.0
        self.counter = KernelCounter()
        # transmission attempts this rank paid for (counted by _wire)
        self.sent_messages = 0
        self.sent_bytes = 0
        self.spans = []

    @property
    def nprocs(self) -> int:
        return self._sim.nprocs

    @property
    def spec(self) -> MachineSpec:
        return self._sim.spec

    @property
    def metrics(self):
        """The run's :class:`repro.obs.MetricsRegistry`, or None when no
        tracer is attached (rank programs use this to count protocol-level
        observations such as ABFT detections)."""
        tr = self._sim.tracer
        return tr.metrics if tr is not None else None

    # -- compute -----------------------------------------------------------

    def compute(self, kernel: str, nflops: float, gran=None) -> None:
        """Charge ``nflops`` at the spec's rate for ``kernel`` operating at
        block granularity ``gran`` (None = nominal rate)."""
        if nflops <= 0:
            return
        dt = self._sim.spec.compute_seconds(kernel, nflops, gran)
        t0 = self.clock
        self.clock += dt
        self.busy += dt
        self.counter.add(kernel, nflops, gran)
        tr = self._sim.tracer
        if tr is not None:
            tr.span(self.rank, kernel, _obs.COMPUTE, t0, self.clock,
                    {"nflops": float(nflops)})

    def begin_counted(self):
        """Open a counted-compute window: kernels account into the rank
        counter as usual, and :meth:`end_counted` prices exactly the keys
        touched since, replaying the deltas in ``by_gran`` insertion
        order."""
        c = self.counter
        outer = c._touched
        t = c._touched = {}
        return (outer, t)

    def end_counted(self, window) -> None:
        """Close a :meth:`begin_counted` window and charge its deltas."""
        outer, touched = window
        c = self.counter
        c._touched = outer
        if touched:
            g = c.by_gran
            keys = (
                sorted(touched, key=c._korder.get)
                if len(touched) > 1 else touched
            )
            compute_seconds = self._sim.spec.compute_seconds
            tr = self._sim.tracer
            for key in keys:
                prev = touched[key]
                v = g[key]
                if v > prev:
                    kernel, gran = key
                    dt = compute_seconds(kernel, v - prev, gran)
                    t0 = self.clock
                    self.clock += dt
                    self.busy += dt
                    if tr is not None:
                        tr.span(self.rank, kernel, _obs.COMPUTE, t0,
                                self.clock, {"nflops": float(v - prev)})
            if outer is not None:
                # surface first-touch values to the enclosing window
                for key, prev in touched.items():
                    if key not in outer:
                        outer[key] = prev

    # -- communication -----------------------------------------------------

    def send(self, dest: int, tag, payload, nbytes: int = None) -> None:
        """One-sided put to ``dest``; sender pays the overhead.

        Each attempt is one :class:`MessageRecord`.  Under a
        :class:`FaultPlan` the transmission may be dropped, duplicated,
        delayed or corrupted; with :class:`ReliableDelivery` enabled a
        failed attempt is retried (ack/timeout/exponential backoff) up to
        ``max_attempts`` times, after which a typed :class:`DeliveryError`
        is raised — both are the run's network stage
        (:class:`_FaultyNetwork`), absent on a perfect network.  A ``dest``
        that is not a rank is a :class:`ValueError` here, at the send.
        """
        sim = self._sim
        if not 0 <= dest < sim.nprocs:
            raise ValueError(
                f"rank {self.rank} sends tag {tag!r} to rank {dest}: "
                f"not a rank of this {sim.nprocs}-rank run"
            )
        # the sanitizer hashes the sender's own object; the receiver gets
        # a copy unless the lint certificate proved it unnecessary
        guard = _SanitizeGuard(payload) if sim.sanitize else None
        if not sim.zero_copy:
            payload = _copy_payload(payload)
        if dest == self.rank:
            # local deposit: no network cost, no faults
            sim._post(MessageRecord(self.rank, dest, tag, self.clock,
                                    self.clock), payload, guard)
            return
        rec = self._wire(
            dest, tag, _payload_nbytes(payload) if nbytes is None else nbytes)
        if sim._network is not None:
            sim._network.deliver(self, rec, payload, guard)
            return
        sim._post(rec, payload, guard)
        if sim.tracer is not None:
            sim._trace_send(rec, self.clock)

    def _wire(self, dest, tag, nbytes):
        """Charge this rank one transmission attempt — its overhead and
        its count — and return its record, stamped with the arrival the
        latency/bandwidth model gives.  Every attempt a sender pays for,
        lost ones and retransmissions included, is made here; local
        deposits and injected duplicate copies are not."""
        spec = self._sim.spec
        t_send = self.clock
        self.clock = t_send + spec.latency_s
        self.sent_messages += 1
        self.sent_bytes += nbytes
        # positional: keyword arguments would double the record's cost
        return MessageRecord(self.rank, dest, tag, t_send,
                             self.clock + nbytes / spec.bandwidth_bps, nbytes)

    def multicast(self, dests, tag, payload, nbytes: int = None) -> None:
        """Sequential puts to each destination (shmem-style multicast)."""
        if nbytes is None:
            # size the payload once, not once per destination
            nbytes = _payload_nbytes(payload)
        for d in dests:
            if d != self.rank:
                self.send(d, tag, payload, nbytes=nbytes)

    def recv(self, tag):
        """Yieldable: block until a message tagged ``tag`` is available.
        A wait no message can end raises from :meth:`Simulator.run`."""
        return _RecvRequest(tag)

    def barrier(self):
        """Yieldable: global barrier."""
        return _BarrierRequest()

    # -- tracing -----------------------------------------------------------

    def span(self, label: str, start: float, end: float = None) -> None:
        """Record a labeled task interval ending at the current clock."""
        end = self.clock if end is None else end
        s = _obs.Span(self.rank, label, _obs.TASK, start, end)
        self.spans.append(s)
        tr = self._sim.tracer
        if tr is not None:
            # the same object; an OffsetTracer (restart rounds) keeps a
            # shifted copy instead
            tr.add_span(s)


class _FaultyNetwork:
    """The network stage of a run with a :class:`FaultPlan` or
    :class:`ReliableDelivery`: fault injection on each attempt, and the
    ack/timeout/backoff loop around it.  A run with neither has no stage,
    and its sends post straight to the destination mailbox."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim

    def deliver(self, env, rec, payload, guard) -> None:
        sim = self.sim
        spec, plan, rel, tr = sim.spec, sim.faults, sim.reliable, sim.tracer
        attempts = rel.max_attempts if rel is not None else 1
        while True:
            attempt = rec.attempt
            rule = (
                plan.message_fault(rec.src, rec.dest, rec.tag, attempt)
                if plan is not None else None
            )
            action = rule.action if rule is not None else None
            pay = payload
            if action == CORRUPT:
                # a private copy, so the bit flip reaches neither the
                # sender's memory (zero-copy) nor the next attempt
                pay = _copy_payload(payload)
                rec.corrupted = _corrupt_payload(pay)
                if not rec.corrupted:
                    action = None  # nothing numeric to flip: no fault fired
            elif action == DELAY:
                rec.arrival += rule.delay_s
            if action is not None:
                # the realised fault as a replayable event (the chaos
                # shrinker minimises this list; FaultStats counts it)
                sim.fault_stats.injected.append(FaultEvent(
                    action, rec.src, int(rec.dest), rec.tag, attempt,
                    delay_s=rule.delay_s if action == DELAY else 0.0,
                ))
            # with checksums, a corrupted frame is discarded at the
            # receiver's NIC — it behaves like a drop and gets retried
            rec.dropped = action == DROP or (
                rec.corrupted and rel is not None and rel.checksum)
            sim._post(rec, pay, guard)
            if not rec.dropped:
                if action == DUPLICATE:
                    sim._post(MessageRecord(
                        rec.src, rec.dest, rec.tag, rec.t_send,
                        rec.arrival + spec.latency_s, rec.nbytes,
                        logical=rec.logical, attempt=attempt, duplicate=True,
                    ), pay if sim.zero_copy else _copy_payload(pay), guard)
                if rel is not None:
                    # block until the ack returns
                    env.clock = max(env.clock, rec.arrival + rel.ack(spec))
                if tr is not None:
                    sim._trace_send(rec, env.clock)
                return
            if tr is not None:
                sim._trace_send(rec, env.clock, lost=True)
            if rel is None:
                # one-sided put: the sender never learns the message died
                # (a receiver blocked on it gets a MessageLostError)
                return
            if attempt + 1 == attempts:
                raise DeliveryError(
                    f"rank {rec.src} -> {rec.dest} tag {rec.tag!r}: all "
                    f"{attempts} transmission attempts lost",
                    src=rec.src, dest=rec.dest, tag=rec.tag,
                    attempts=attempts,
                )
            # retransmission timeout with exponential backoff
            t_back = env.clock
            env.clock += rel.rto(spec) * (2.0 ** attempt)
            if tr is not None:
                tr.span(
                    rec.src, f"rto {_obs.tag_label(rec.tag)}",
                    _obs.RETRANSMIT, t_back, env.clock,
                    {"dest": int(rec.dest), "attempt": int(attempt)},
                )
            logical = rec.logical
            rec = env._wire(rec.dest, rec.tag, rec.nbytes)
            rec.attempt, rec.logical = attempt + 1, logical
            sim.fault_stats.retransmits += 1


@dataclass
class SimResult:
    """Outcome of a simulated run."""

    total_time: float
    rank_clocks: list
    rank_busy: list
    counters: list  # per-rank KernelCounter
    spans: list  # every rank's task spans (repro.obs.Span, cat TASK)
    messages: int
    bytes_sent: int
    returns: list  # per-rank program return values
    trace: SimTrace = None  # the kept message records (see Simulator)
    crashed: list = field(default_factory=list)  # ranks dead at exit
    fault_stats: FaultStats = field(default_factory=FaultStats)
    zero_copy: bool = False  # payloads were delivered without a deep copy
    #: why a requested zero-copy delivery was not honoured: ``"sanitize"``,
    #: or ``"uncertified" / "stale sha256" / "dirty"`` + ``": <module>"``
    zero_copy_reason: str = None

    @property
    def nprocs(self) -> int:
        return len(self.rank_clocks)

    def total_counter(self) -> KernelCounter:
        c = KernelCounter()
        for rc in self.counters:
            c.merge(rc)
        return c

    def load_balance_factor(self) -> float:
        """work_total / (P * work_max) over per-rank busy time (Fig. 18)."""
        wmax = max(self.rank_busy)
        if wmax <= 0:
            return 1.0
        return sum(self.rank_busy) / (len(self.rank_busy) * wmax)


class Simulator:
    """Run ``nprocs`` SPMD generator programs under a machine spec."""

    def __init__(
        self,
        nprocs: int,
        spec: MachineSpec,
        program,
        args=(),
        trace: bool = False,
        host_order=None,
        faults=None,
        reliable=None,
        sanitize: bool = False,
        tracer=None,
        zero_copy=False,
    ):
        """``program(env, *args)`` must return a generator (it may also be a
        plain function for compute-only ranks).

        Every transmission attempt is one :class:`MessageRecord`, and
        every message count is taken where its record is made.
        ``trace=True`` keeps them all, as the :class:`SimTrace` attached to
        the result as ``SimResult.trace``, for the :mod:`repro.verify`
        checkers; so does a run with ``faults`` or ``reliable`` (its
        :class:`MessageLostError` looks the lost attempt up there).
        ``host_order`` is a permutation of ``range(nprocs)`` that
        perturbs the *host* scheduling order (which runnable rank the event
        loop advances first); simulated semantics must not depend on it —
        the replay checker asserts exactly that.

        ``faults`` is an optional :class:`repro.machine.FaultPlan`;
        ``reliable`` enables the ack/retry transport (pass ``True`` for the
        defaults or a :class:`ReliableDelivery` config).  Survivors declare
        a silent rank dead after a virtual-time heartbeat timeout of 100x
        the network latency.  The run's :class:`FaultStats` is
        ``SimResult.fault_stats``, or the ``fault_stats`` attribute of the
        exception a failed run raises.

        ``sanitize=True`` enables the zero-copy write-after-send checker:
        every payload is content-hashed when posted and re-verified when
        consumed (and at the end of the run for messages never received);
        a mismatch raises :class:`PayloadMutationError` naming the sender,
        tag and the sender's task span covering the send.  This is the
        dynamic counterpart of the ``Z201`` rule in :mod:`repro.lint`.

        ``tracer`` is an optional :class:`repro.obs.Tracer`; when set, the
        simulator emits virtual-time spans (compute/send/recv_wait/
        retransmit_backoff/barrier_wait + the programs' task spans) and
        the record of each consumed message into it, and adds the run's
        ``sim.*`` counts to its metrics when the run ends.  When ``None``
        (the default) every instrumentation site is skipped.

        ``zero_copy`` skips the defensive deep copy at send time — true
        one-sided-put semantics.  That is only sound when the program never
        writes a posted buffer (Z201) and never mutates a received payload
        it retained (Z202), which is exactly what the aliasing lint proves;
        so ``zero_copy=True`` consults the packaged certificate emitted by
        ``repro lint --certify`` and only engages when ``program``'s module
        is certified clean (and its source unchanged since certification).
        Pass a path / :class:`repro.lint.certify.ZeroCopyCertificate` to use
        a different certificate; one that cannot be read certifies nothing.
        ``sanitize=True`` always restores copying so the dynamic
        write-after-send checker keeps its pre-mutation reference bytes —
        CI cross-checks zero-copy runs bit-for-bit this way.  A request the
        certificate declines is not silent: the run copies, and says so —
        ``SimResult.zero_copy`` /
        ``zero_copy_reason``, one :class:`RuntimeWarning` per (module,
        reason) per process, and a ``sim.zero_copy.fallback`` count in the
        tracer's metrics.
        """
        self.nprocs = nprocs
        self.spec = spec
        self.sanitize = bool(sanitize)
        self.tracer = tracer
        # (dest, tag) -> heap of (arrival, seq, payload, record, guard)
        self._mailboxes = {}
        self._seq = 0
        self.faults = faults
        self.reliable = (
            ReliableDelivery() if reliable is True else (reliable or None)
        )
        self._network = (
            _FaultyNetwork(self)
            if faults is not None or self.reliable is not None else None
        )
        self.fault_stats = FaultStats()
        self._crash_time = {}
        if faults is not None:
            for c in faults.crashes:
                if 0 <= c.rank < nprocs:
                    self._crash_time[c.rank] = c.at_time
        self.trace = (
            SimTrace() if trace or self._network is not None else None
        )
        if host_order is None:
            self._order = list(range(nprocs))
        else:
            self._order = [int(r) for r in host_order]
            if sorted(self._order) != list(range(nprocs)):
                raise ValueError("host_order must be a permutation of ranks")
        # zero-copy delivery: requested at construction, certified against
        # the lint certificate, but only *effective* per run() — sanitize
        # mode (which the test harness may switch on after construction)
        # always restores copying so the mutation checker keeps honest
        # pre-mutation reference bytes.
        self._zc_requested = bool(zero_copy)
        self._zc_module = getattr(program, "__module__", None)
        self._zc_declined = None  # why the certificate said no, if it did
        if zero_copy:
            from ..lint.certify import certificate_decline_reason

            self._zc_declined = certificate_decline_reason(
                self._zc_module,
                cert=None if zero_copy is True else zero_copy,
            )
        self._zc_certified = self._zc_requested and self._zc_declined is None
        self.zero_copy = False  # effective flag, finalised at run()
        self.zero_copy_reason = None  # why a requested zero-copy is off
        # wake set + run-state views (populated by run(); _post consults
        # them to wake a rank blocked on the landed tag)
        self._wake = None
        self._state = None
        self._waiting_tag = None
        self.envs = [Env(self, r) for r in range(nprocs)]
        self._programs = [program(self.envs[r], *args) for r in range(nprocs)]

    def _note_zero_copy_fallback(self) -> None:
        """Zero-copy was asked for and the certificate declined: the run
        deep-copies every payload (correct, but up to 30 % slower on the
        1D codes).  Leave the reason on the result, count it, warn once."""
        self.zero_copy_reason = f"{self._zc_declined}: {self._zc_module}"
        if self.tracer is not None:
            self.tracer.metrics.counter("sim.zero_copy.fallback").inc()
        if self.zero_copy_reason not in _ZC_WARNED:
            _ZC_WARNED.add(self.zero_copy_reason)
            warnings.warn(
                f"zero-copy delivery requested but not certified "
                f"({self.zero_copy_reason}); payloads are deep-copied — "
                "regenerate the certificate with `repro lint --certify`",
                RuntimeWarning, stacklevel=4,
            )

    # -- mailbox -----------------------------------------------------------

    def _post(self, rec, payload, guard=None) -> None:
        """File one transmission attempt: number it, keep its record when
        the run keeps records and, unless the network dropped it, park the
        payload in the destination's mailbox."""
        self._seq += 1
        rec.seq = self._seq
        if rec.logical is None:
            rec.logical = rec.seq
        if self.trace is not None:
            self.trace.records.append(rec)
        if rec.dropped:
            return
        dest = rec.dest
        key = (dest, rec.tag)
        entry = (rec.arrival, rec.seq, payload, rec, guard)
        box = self._mailboxes.get(key)
        if box is None:
            # the unique-tag discipline makes one-message boxes the
            # overwhelmingly common case: arrival order is trivially
            # maintained without touching the heap machinery
            self._mailboxes[key] = [entry]
        else:
            heapq.heappush(box, entry)
        if (
            # run() has started (plain-function ranks send at construction)
            self._wake is not None
            and self._state[dest] == _RECV
            and self._waiting_tag[dest] == rec.tag
        ):
            # the landed message is exactly what the destination's recv
            # awaits — wake it
            self._wake.add(dest)

    def _trace_send(self, rec, t_end, **extra) -> None:
        """The sender's ``send`` span of one attempt, issue to ``t_end``."""
        self.tracer.span(
            rec.src, f"send {_obs.tag_label(rec.tag)}", _obs.SEND,
            rec.t_send, t_end,
            {"dest": int(rec.dest), "nbytes": int(rec.nbytes),
             "attempt": int(rec.attempt), **extra},
        )

    def _pending_by_rank(self) -> dict:
        """Undelivered mailbox contents, grouped per destination rank."""
        pending = {}
        for (dest, tag), box in self._mailboxes.items():
            for entry in sorted(box, key=lambda e: e[:2]):
                pending.setdefault(dest, []).append(
                    (tag, entry[0], entry[3].src))
        return pending

    # -- sanitize mode -------------------------------------------------------

    def _sending_span(self, src, send_clock):
        """Label of the sender's task span covering ``send_clock``, if any."""
        label = None
        for s in self.envs[src].spans:
            if s.start <= send_clock <= s.end:
                label = s.name  # keep the last (innermost) match
        return label

    def _check_guard(self, guard, rec, when="it was consumed"):
        """Re-verify a posted payload's content hash; raise on mutation."""
        if guard is None or _payload_digest(guard.payload) == guard.digest:
            return
        rec.mutated = True
        span = self._sending_span(rec.src, rec.t_send)
        where = f" during span {span!r}" if span is not None else ""
        raise PayloadMutationError(
            f"rank {rec.src} posted tag {rec.tag!r} to rank "
            f"{rec.dest} at t={rec.t_send:.3g}{where}, then mutated "
            f"the payload before {when}; zero-copy put semantics forbid "
            "write-after-send (post a defensive .copy())",
            src=rec.src, dest=rec.dest, tag=rec.tag,
            send_clock=rec.t_send, span=span,
        )

    def _deadlock_error(self, blocked, state, waiting_tag, RECV) -> DeadlockError:
        """Build a DeadlockError naming, per blocked rank, the tag it waits
        on and the undelivered messages parked in its mailbox."""
        pending = self._pending_by_rank()
        blocked_info = []
        lines = []
        for r in blocked:
            what = waiting_tag[r] if state[r] == RECV else "barrier"
            blocked_info.append((r, what))
            if state[r] == RECV:
                desc = f"rank {r} waiting on tag {waiting_tag[r]!r}"
            else:
                desc = f"rank {r} waiting on barrier"
            inbox = pending.get(r, [])
            if inbox:
                shown = ", ".join(
                    f"{tag!r} (from rank {src}, arrival {arrival:.3g})"
                    for tag, arrival, src in inbox[:4]
                )
                more = f", +{len(inbox) - 4} more" if len(inbox) > 4 else ""
                desc += f"; undelivered in its mailbox: {shown}{more}"
            else:
                desc += "; its mailbox is empty"
            lines.append(desc)
        return DeadlockError(
            "simulation deadlock:\n  " + "\n  ".join(lines),
            blocked=blocked_info,
            pending=pending,
        )

    def _crashed_error(self, crashed, blocked, state, waiting_tag, RECV):
        """Survivors' heartbeat timeout expired on a dead rank."""
        crash_times = {r: t for r, t in self.fault_stats.crashes}
        blocked_info = [
            (r, waiting_tag[r] if state[r] == RECV else "barrier")
            for r in blocked
        ]
        t_block = max((self.envs[r].clock for r in blocked), default=0.0)
        detected_at = t_block + 100.0 * self.spec.latency_s  # heartbeat
        names = ", ".join(
            f"rank {r} (died at t={crash_times.get(r, 0.0):.3g})" for r in crashed
        )
        waits = "; ".join(
            f"rank {r} waiting on {what!r}" for r, what in blocked_info
        )
        return RankCrashedError(
            f"rank crash detected by heartbeat timeout at t={detected_at:.3g}: "
            f"{names}; survivors blocked: {waits}",
            ranks=crashed,
            crash_times=crash_times,
            detected_at=detected_at,
            blocked=blocked_info,
        )

    def _lost_message_error(self, blocked, state, waiting_tag, RECV):
        """A blocked receiver's awaited message was provably dropped: the
        records show a lost attempt and no retransmission will come (a run
        that can lose one keeps its records)."""
        if self.reliable is not None or self.trace is None:
            return None  # a lost send was retried, or raised DeliveryError
        for r in blocked:
            if state[r] != RECV:
                continue
            want = repr(waiting_tag[r])
            for rec in self.trace.records:
                if rec.dropped and rec.dest == r and repr(rec.tag) == want:
                    return MessageLostError(
                        f"rank {r} waits on tag {waiting_tag[r]!r}, but the "
                        f"network dropped that message from rank {rec.src} "
                        "and reliable delivery is off (no retransmission "
                        "will come)",
                        src=rec.src, dest=r, tag=waiting_tag[r], attempts=1,
                    )
        return None

    def _publish_metrics(self) -> None:
        """Add the run's message, retransmit and fault counts to the
        tracer's metrics."""
        m = self.tracer.metrics
        m.counter("sim.messages").inc(sum(e.sent_messages for e in self.envs))
        m.counter("sim.bytes").inc(sum(e.sent_bytes for e in self.envs))
        m.counter("sim.retransmits").inc(self.fault_stats.retransmits)
        for kind in ("dropped", "duplicated", "delayed", "corrupted"):
            n = getattr(self.fault_stats, kind)
            if n:
                m.counter(f"sim.faults.{kind}").inc(n)

    # -- main loop ---------------------------------------------------------

    def run(self) -> SimResult:
        try:
            return self._run()
        except Exception as e:
            # the faults that fired before the run failed (the chaos
            # shrinker's input) leave with the error
            e.fault_stats = self.fault_stats
            raise
        finally:
            # once, however the run ends: a run that raised still
            # reports what it sent
            if self.tracer is not None:
                self._publish_metrics()

    def _run(self) -> SimResult:
        READY, RECV, BARRIER, DONE, CRASHED = (
            _READY, _RECV, _BARRIER, _DONE, _CRASHED)
        state = self._state = [READY] * self.nprocs
        waiting_tag = self._waiting_tag = [None] * self.nprocs
        blocked_at = [0.0] * self.nprocs  # clock when a rank last blocked
        returns = [None] * self.nprocs
        crash_time = dict(self._crash_time)
        tr = self.tracer
        # finalise the delivery mode here, not at construction: the test
        # harness switches sanitize on after constructing the simulator,
        # and sanitize must always restore copying (the mutation checker
        # needs the receiver to hold pre-mutation bytes)
        self.zero_copy = self._zc_certified and not self.sanitize
        if self._zc_declined is not None and not self.sanitize:
            self._note_zero_copy_fallback()
        elif self._zc_requested and self.sanitize:
            self.zero_copy_reason = "sanitize"
        wake = self._wake = set()
        order = self._order
        nord = len(order)
        oidx = {r: i for i, r in enumerate(order)}

        def crash(r, at=None):
            """Kill rank r at its next yield/task boundary."""
            env = self.envs[r]
            if at is not None:
                env.clock = max(env.clock, at)
            if tr is not None and env.clock > blocked_at[r]:
                # the rank died while blocked: close the open wait span so
                # its timeline still tiles [0, clock] (the chaos campaign's
                # trace-consistency oracle checks exactly this)
                if state[r] == RECV:
                    tr.span(
                        r, f"recv {_obs.tag_label(waiting_tag[r])}",
                        _obs.RECV_WAIT, blocked_at[r], env.clock,
                        {"crashed": True},
                    )
                elif state[r] == BARRIER:
                    tr.span(r, "barrier", _obs.BARRIER_WAIT,
                            blocked_at[r], env.clock, {"crashed": True})
            state[r] = CRASHED
            waiting_tag[r] = None
            wake.discard(r)
            crash_time.pop(r, None)
            self.fault_stats.crashes.append((r, env.clock))
            gen = self._programs[r]
            if hasattr(gen, "close"):
                gen.close()

        def maybe_crash(r) -> bool:
            """Apply a scheduled crash once the rank's clock reaches it."""
            t = crash_time.get(r)
            if (
                t is not None
                and state[r] not in (DONE, CRASHED)
                and self.envs[r].clock >= t
            ):
                crash(r)
                return True
            return False

        # generator send methods, resolved once (plain functions have none)
        gen_sends = [getattr(g, "send", None) for g in self._programs]
        mailboxes = self._mailboxes
        envs = self.envs

        def resume(r, value=None):
            """Advance rank r's generator until it blocks or finishes."""
            snd = gen_sends[r]
            try:
                if snd is None:
                    # plain function already ran at construction
                    state[r] = DONE
                    return
                req = snd(value)
            except StopIteration as stop:
                state[r] = DONE
                returns[r] = stop.value
                return
            if isinstance(req, _RecvRequest):
                state[r] = RECV
                waiting_tag[r] = req.tag
                blocked_at[r] = envs[r].clock
                if (r, req.tag) in mailboxes:
                    # the awaited message already landed: wake immediately
                    wake.add(r)
            elif isinstance(req, _BarrierRequest):
                state[r] = BARRIER
                blocked_at[r] = envs[r].clock
            else:
                raise TypeError(
                    f"rank {r} yielded {req!r}; yield env.recv(...) or env.barrier()"
                )
            if crash_time:
                maybe_crash(r)

        def service_recv(r) -> bool:
            """Try to satisfy rank r's pending recv.  Returns True when the
            rank made progress (consumed a message, or crashed trying)."""
            tag = waiting_tag[r]
            key = (r, tag)
            box = mailboxes.get(key)
            if not box:
                return False
            env = envs[r]
            if crash_time:
                ct = crash_time.get(r)
                if ct is not None and max(env.clock, box[0][0]) >= ct:
                    # the rank dies before it could process the message;
                    # leave it undelivered
                    crash(r, at=ct)
                    return True
            # single-entry boxes dominate (see _post)
            if len(box) == 1:
                arrival, _, payload, rec, guard = box[0]
                del mailboxes[key]
            else:
                arrival, _, payload, rec, guard = heapq.heappop(box)
            if guard is not None:
                self._check_guard(guard, rec)
            if arrival > env.clock:
                env.clock = arrival
            rec.t_recv = env.clock
            if tr is not None:
                if env.clock > blocked_at[r]:
                    tr.span(
                        r, f"recv {_obs.tag_label(tag)}",
                        _obs.RECV_WAIT, blocked_at[r], env.clock,
                        {"src": int(rec.src)},
                    )
                tr.message(rec)
            state[r] = READY
            waiting_tag[r] = None
            resume(r, payload)
            return True

        for r in self._order:
            resume(r)

        while True:
            progressed = False
            # satisfy receivers: only woken ranks (a deposit matching a
            # blocked recv, or a recv posted against a non-empty mailbox),
            # drained in passes over the host order.  That service order is
            # observable — it fixes ``_seq``, the order of
            # ``tracer.messages`` and so the Chrome-trace flow ids that
            # ``tests/data/trace_golden.json`` pins.  While a rank is
            # blocked every input of service_recv's checks is frozen (its
            # clock, the box head, crash time), so nothing is
            # missed by not looking at it between deposits.
            if len(wake) == 1:
                # overwhelmingly common: a single woken rank.  Servicing it
                # may wake later-order ranks, which this pass must also
                # drain; earlier-order wakes carry over to the next pass.
                r = wake.pop()
                if state[r] == RECV and service_recv(r):
                    progressed = True
                if wake:
                    for i in range(oidx[r] + 1, nord):
                        rr = order[i]
                        if rr not in wake:
                            continue
                        wake.discard(rr)
                        if state[rr] == RECV and service_recv(rr):
                            progressed = True
            elif wake:
                for r in order:
                    if r not in wake:
                        continue
                    wake.discard(r)
                    if state[r] == RECV and service_recv(r):
                        progressed = True
            if progressed:
                continue
            # barrier: everyone live must be at the barrier
            at_barrier = [r for r in self._order if state[r] == BARRIER]
            live = [r for r in range(self.nprocs) if state[r] not in (DONE, CRASHED)]
            crashed = sorted(r for r in range(self.nprocs) if state[r] == CRASHED)
            if at_barrier and len(at_barrier) == len(live):
                if crashed:
                    # a barrier can never complete once a participant died
                    raise self._crashed_error(crashed, at_barrier, state,
                                              waiting_tag, RECV)
                t = max(self.envs[r].clock for r in at_barrier)
                t += self.spec.barrier_seconds(self.nprocs)
                for r in at_barrier:
                    if tr is not None and t > blocked_at[r]:
                        tr.span(r, "barrier", _obs.BARRIER_WAIT,
                                blocked_at[r], t)
                    self.envs[r].clock = t
                    state[r] = READY
                for r in at_barrier:
                    if state[r] == READY:
                        resume(r)
                continue
            if not live:
                break
            blocked = [r for r in live if state[r] in (RECV, BARRIER)]
            if len(blocked) == len(live):
                # quiescent: no rank can advance on its own.  Fire the
                # earliest scheduled crash of a blocked rank before
                # declaring failure.  The choice is a min over (time,
                # rank): host scheduling order never matters.
                due = [(crash_time[r], r) for r in blocked if r in crash_time]
                if due:
                    t, r = min(due)
                    crash(r, at=t)
                    continue
                if crashed:
                    raise self._crashed_error(crashed, blocked, state,
                                              waiting_tag, RECV)
                lost = self._lost_message_error(blocked, state, waiting_tag, RECV)
                if lost is not None:
                    raise lost
                raise self._deadlock_error(blocked, state, waiting_tag, RECV)
            # should not happen: READY ranks are resumed inside resume()
            raise AssertionError("scheduler invariant violated")

        if self.sanitize:
            # messages never received: still verify the sender kept its
            # hands off the posted buffers until the end of the run
            for box in self._mailboxes.values():
                for entry in box:
                    self._check_guard(entry[4], entry[3],
                                      when="the run ended")
        spans = []
        for env in self.envs:
            spans.extend(env.spans)
        return SimResult(
            trace=self.trace,
            total_time=max(env.clock for env in self.envs) if self.envs else 0.0,
            rank_clocks=[env.clock for env in self.envs],
            rank_busy=[env.busy for env in self.envs],
            counters=[env.counter for env in self.envs],
            spans=spans,
            messages=sum(env.sent_messages for env in self.envs),
            bytes_sent=sum(env.sent_bytes for env in self.envs),
            returns=returns,
            crashed=sorted(r for r in range(self.nprocs) if state[r] == CRASHED),
            fault_stats=self.fault_stats,
            zero_copy=self.zero_copy,
            zero_copy_reason=self.zero_copy_reason,
        )
