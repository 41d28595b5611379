"""Deterministic discrete-event SPMD simulator.

Each rank is a Python **generator**: ordinary Python between yields runs the
real numerics; ``compute``/``charge``/``send`` advance the rank's *virtual
clock* immediately, while ``recv`` and ``barrier`` yield control back to the
scheduler until they can be satisfied.  Message arrival times are computed
from the sender's clock with the machine spec's latency/bandwidth model, so
timing is causally correct no matter in which host order ranks execute.

Semantics (matching the shmem/RMA style the paper's codes rely on):

* ``send`` is asynchronous one-sided put: the sender pays the per-message
  overhead, the payload is deposited in the receiver's mailbox at
  ``sender_clock + latency + bytes/bandwidth``;
* ``recv(tag)`` blocks until a matching message exists and resumes at
  ``max(local_clock, arrival)``;
* a payload is delivered by reference, never copied (the T3D/T3E codes'
  zero-copy put): ``send`` makes every ndarray it carries read-only, so a
  sender that writes a posted buffer, or a receiver that writes what it
  got, fails at that write with a :class:`PayloadMutationError`;
* tags must uniquely identify a logical transfer (step/stage/source); the
  parallel codes in :mod:`repro.parallel` follow this discipline;
* ``barrier`` synchronises all ranks at ``max(clocks) + barrier cost``.

The scheduler is one event heap ordered by virtual time: a rank's start, a
recv that can be served, a barrier release and a scheduled crash are its
events, and ``host_order`` only breaks ties between events at the same
virtual time.  A scheduled crash kills a rank blocked when the heap reaches
it, or a rank that yields or returns past it (see :class:`Simulator`).

The simulator records per-rank busy time, labeled task spans (used for
Gantt charts, load-balance factors and the Theorem 2 overlap-degree
measurements) and one :class:`MessageRecord` per transmission attempt.
Every message count the run reports is taken where its record is made.
"""

from __future__ import annotations

import hashlib
import heapq
import traceback
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
    """A rank wrote to a payload, which is delivered by reference.

    Raised at the write, since every array a payload carries is read-only
    from its send on, and by ``Simulator(sanitize=True)``, whose content
    hash (re-verified at consumption and at the end of the run) catches a
    write through another view of the same memory.  On the paper's
    zero-copy RMA machines the receiver would read the written bytes.

    Structured attributes: ``src``, ``dest`` (a receiver that wrote),
    ``tag``, ``send_clock`` (the sender's clock at the send), and ``span``
    (the sender's task span covering the send, or None).  A write no
    message can be found for has ``src`` None, and ``dest`` and ``span``
    name the writing rank and its span.
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

# event kinds, in the order the heap serves events of one virtual time:
# every rank starts first, and a crash pre-empts the delivery or barrier
# release it coincides with
_START, _CRASH, _SERVE, _RELEASE = 0, 1, 2, 3


class _RecvRequest:
    __slots__ = ("tag",)

    def __init__(self, tag):
        self.tag = tag


class _BarrierRequest:
    __slots__ = ()


#: what every ``env.barrier()`` yields
_BARRIER_REQUEST = _BarrierRequest()
#: what a rank "yields" when its program returns
_FINISHED = object()


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
    """Deep-copy the ndarray parts of a payload (a CORRUPT fault's private
    copy, whose bit flip must reach neither the sender nor a retry)."""
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
    """Per-rank handle passed to SPMD programs.

    Compute advances the clock in one of two ways, both counted as busy
    time: :meth:`compute` prices one ``(kernel, flops, gran)`` charge at
    the spec's rate and adds it to the rank's :attr:`counter`;
    :meth:`charge` adds clock increments a program priced before the run
    (the per-task prices of a 1D rank, the per-place prices of a 2D one),
    and that program sets the counter."""

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

    @property
    def traced(self) -> bool:
        """Whether a tracer records this run (:meth:`charge` then needs
        each increment's span)."""
        return self._sim.tracer is not None

    def charge(self, seconds, spans=None) -> None:
        """Advance the clock and busy time by each of ``seconds`` in turn:
        compute priced before the run (a 1D rank's task increments, a 2D
        rank's charge places), each bit-equal to the :meth:`compute` call
        it stands for.  With a tracer attached, ``spans`` holds each
        increment's ``(kernel, nflops)`` for its compute span; an increment
        of no flops is a place :meth:`compute` would have skipped, and adds
        nothing.  The rank's counter is not touched: the caller priced it
        with the increments and sets it."""
        clock = self.clock
        busy = self.busy
        tr = self._sim.tracer
        if tr is None:
            for dt in seconds:
                clock += dt
                busy += dt
        else:
            rank = self.rank
            for dt, (kernel, flops) in zip(seconds, spans):
                if flops <= 0:
                    continue
                t0 = clock
                clock += dt
                busy += dt
                tr.span(rank, kernel, _obs.COMPUTE, t0, clock,
                        {"nflops": flops})
        self.clock = clock
        self.busy = busy

    # -- communication -----------------------------------------------------

    def send(self, dest: int, tag, payload, nbytes: int = None) -> None:
        """One-sided put to ``dest``; sender pays the overhead.  The payload
        is delivered by reference, and every ndarray it carries is
        read-only from here on (:class:`PayloadMutationError` at a write).

        Each attempt is one :class:`MessageRecord`.  Under a
        :class:`FaultPlan` the transmission may be dropped, duplicated,
        delayed or corrupted; with :class:`ReliableDelivery` enabled a
        failed attempt is retried (ack/timeout/exponential backoff) up to
        ``max_attempts`` times, after which a typed :class:`DeliveryError`
        is raised — both are the run's network stage
        (:class:`_FaultyNetwork`), absent on a perfect network.  A ``dest``
        that is not a rank is a :class:`ValueError` here, at the send.
        """
        self._put((dest,), tag, payload, nbytes, False)

    def multicast(self, dests, tag, payload, nbytes: int = None) -> None:
        """Sequential puts of one payload to each destination but this
        rank (shmem-style multicast), frozen and sized once."""
        self._put(dests, tag, payload, nbytes, True)

    def _put(self, dests, tag, payload, nbytes, multicast) -> None:
        """Post ``payload`` itself to each of ``dests``, first making every
        ndarray it carries (through dicts, lists and tuples) read-only and
        indexing it by ``id`` to the first attempt's ``(src, dest, tag,
        send clock)`` (for ``_write_error``; the record itself is freed at
        consumption when the run keeps none): one walk per send, with no
        call per container or scalar."""
        sim = self._sim
        me = self.rank
        # sanitize: the posted object and its hash, re-checked at consumption
        guard = (payload, _payload_digest(payload)) if sim.sanitize else None
        todo = [payload]  # what is left to freeze
        for dest in dests:
            if dest == me:
                if multicast:
                    continue
                # local deposit: no network cost, no faults
                rec = MessageRecord(me, dest, tag, self.clock, self.clock)
            elif 0 <= dest < sim.nprocs:
                if nbytes is None:
                    nbytes = _payload_nbytes(payload)
                rec = self._wire(dest, tag, nbytes)
            else:
                raise ValueError(
                    f"rank {me} sends tag {tag!r} to rank {dest}: "
                    f"not a rank of this {sim.nprocs}-rank run"
                )
            if todo:
                frozen = sim._frozen
                sent = (me, rec.dest, tag, rec.t_send)
                for p in todo:
                    cls = p.__class__
                    if cls is int or cls is float:
                        continue  # most leaves: pivot pairs, sizes
                    if cls is tuple or cls is list:
                        todo += p
                    elif cls is dict:
                        todo += p.values()
                    elif np.ndarray in cls.__mro__:
                        p.setflags(write=False)
                        frozen[id(p)] = sent
                todo = None
            if dest == me:
                sim._post(rec, payload, guard)
            elif sim._network is not None:
                sim._network.deliver(self, rec, payload, guard)
            else:
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

    def recv(self, tag):
        """Yieldable: block until a message tagged ``tag`` is available.
        A wait no message can end raises from :meth:`Simulator.run`."""
        return _RecvRequest(tag)

    def barrier(self):
        """Yieldable: global barrier."""
        return _BARRIER_REQUEST

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
                # sender's memory nor the next attempt (nor any other rank:
                # it is the one payload left writable)
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
                    ), pay, guard)
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
    ):
        """``program(env, *args)`` must return a generator (it may also be a
        plain function for compute-only ranks).

        Every transmission attempt is one :class:`MessageRecord`, and
        every message count is taken where its record is made.
        ``trace=True`` keeps them all, as the :class:`SimTrace` attached to
        the result as ``SimResult.trace``, for the :mod:`repro.verify`
        checkers; so does a run with ``faults`` or ``reliable`` (its
        :class:`MessageLostError` looks the lost attempt up there).
        ``host_order`` is a permutation of ``range(nprocs)``: the tie-break
        among events at equal virtual time (which rank the event loop
        serves first).  Simulated semantics must not depend on it — the
        replay checker asserts exactly that.

        ``faults`` is an optional :class:`repro.machine.FaultPlan`;
        ``reliable`` enables the ack/retry transport (pass ``True`` for the
        defaults or a :class:`ReliableDelivery` config).  A rank with a
        scheduled crash at ``t`` dies at ``max(clock, t)`` the first time
        it is blocked (``recv`` or barrier) when the event loop reaches
        ``t``, or yields or returns with its clock at or past ``t``.
        Survivors declare a silent rank dead after a virtual-time heartbeat
        timeout of 100x the network latency.  The run's :class:`FaultStats`
        is ``SimResult.fault_stats``, or the ``fault_stats`` attribute of
        the exception a failed run raises.

        Every payload is delivered by reference, as the paper's one-sided
        puts deliver it, and every ndarray it carries is read-only from its
        send on, so a write to a posted or received array raises
        :class:`PayloadMutationError` at the write.  ``sanitize=True`` adds
        a content hash of every payload, re-verified when it is consumed
        (and at the end of the run for messages never received), for a
        write through another view of the same memory, or to a dict or
        list a payload carries.  These two are the codebase's one check of
        zero-copy discipline; there is no static counterpart.

        ``tracer`` is an optional :class:`repro.obs.Tracer`; when set, the
        simulator emits virtual-time spans (compute/send/recv_wait/
        retransmit_backoff/barrier_wait + the programs' task spans) and
        the record of each consumed message into it, and adds the run's
        ``sim.*`` counts to its metrics when the run ends.  When ``None``
        (the default) every instrumentation site is skipped.
        """
        self.nprocs = nprocs
        self.spec = spec
        self.sanitize = bool(sanitize)
        self.tracer = tracer
        # (dest, tag) -> heap of (arrival, seq, payload, record, guard)
        self._mailboxes = {}
        # id of every array a payload froze -> (src, dest, tag, send clock)
        # of the attempt it was first sent with
        self._frozen = {}
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
        self.trace = (
            SimTrace() if trace or self._network is not None else None
        )
        if host_order is None:
            self._order = list(range(nprocs))
        else:
            self._order = [int(r) for r in host_order]
            if sorted(self._order) != list(range(nprocs)):
                raise ValueError("host_order must be a permutation of ranks")
        self._tie = [0] * nprocs  # rank -> its place in the host order
        for i, r in enumerate(self._order):
            self._tie[r] = i
        # the run's state, which _post reads to schedule the serve of a
        # rank blocked on the landed tag: one event heap of (virtual time,
        # kind, tie, rank)
        self._state = [_READY] * nprocs
        self._waiting_tag = [None] * nprocs
        self._events = []
        self.envs = [Env(self, r) for r in range(nprocs)]
        self._programs = [program(self.envs[r], *args) for r in range(nprocs)]

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
            if box[0] is not entry:
                return  # an earlier arrival already scheduled the serve
        if self._state[dest] == _RECV and self._waiting_tag[dest] == rec.tag:
            # the landed message is what the destination's recv awaits:
            # serve it when both it and the receiver are there
            clock, arrival = self.envs[dest].clock, rec.arrival
            heapq.heappush(self._events, (
                arrival if arrival > clock else clock, _SERVE,
                self._tie[dest], dest))

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

    # -- payload writes -------------------------------------------------------

    def _sending_span(self, src, send_clock):
        """Label of the sender's task span covering ``send_clock``, if any."""
        label = None
        for s in self.envs[src].spans:
            if s.start <= send_clock <= s.end:
                label = s.name  # keep the last (innermost) match
        return label

    def _mutation_error(self, rec, what, writer=None) -> PayloadMutationError:
        """Flag ``rec`` (tracecheck's MUTATE rule) and name its send; a
        receiving ``writer`` is the error's ``dest``."""
        rec.mutated = True
        span = self._sending_span(rec.src, rec.t_send)
        where = f" during span {span!r}" if span is not None else ""
        return PayloadMutationError(
            f"rank {rec.src} posted tag {rec.tag!r} to rank "
            f"{rec.dest} at t={rec.t_send:.3g}{where}, then {what}; "
            "zero-copy put semantics forbid write-after-send and writes to "
            "a received buffer (post or take a .copy())",
            src=rec.src, dest=rec.dest if writer in (None, rec.src) else writer,
            tag=rec.tag, send_clock=rec.t_send, span=span,
        )

    def _check_guard(self, guard, rec, when="it was consumed"):
        """Re-verify a posted payload's content hash; raise on mutation."""
        if guard is None or _payload_digest(guard[0]) == guard[1]:
            return
        raise self._mutation_error(rec, f"mutated the payload before {when}")

    def _sent_record(self, src, dest, tag, t_send) -> MessageRecord:
        """The record of the attempt a ``_frozen`` entry names: the kept
        one when the run keeps records (its ``mutated`` flag is the trace
        checker's), else a stand-in with the same src, dest, tag and send
        clock."""
        if self.trace is not None:
            for rec in self.trace.records:
                if (rec.tag is tag and rec.src == src and rec.dest == dest
                        and rec.t_send == t_send):
                    return rec
        return MessageRecord(src, dest, tag, t_send)

    def _write_error(self, r, err) -> PayloadMutationError:
        """The typed error for rank ``r``'s write to a read-only array: the
        message of the first frozen array its failing frames hold
        (innermost frame first, one level into dicts, lists and tuples, a
        view's bases before the view), or else ``r`` and its task span."""
        frames = [f for f, _ in traceback.walk_tb(err.__traceback__)]
        for frame in reversed(frames[1:]):  # past the frame that resumed r
            for v in frame.f_locals.values():
                held = (v.values() if isinstance(v, dict)
                        else v if isinstance(v, (list, tuple)) else (v,))
                for base in held:
                    chain = []
                    while isinstance(base, np.ndarray):
                        chain.append(base)
                        base = base.base
                    for a in reversed(chain):
                        sent = self._frozen.get(id(a))
                        if sent is not None and not a.flags.writeable:
                            return self._mutation_error(
                                self._sent_record(*sent),
                                "wrote to it" if r == sent[0] else
                                f"rank {r} wrote to what it received", r)
        span = self._sending_span(r, self.envs[r].clock)
        return PayloadMutationError(
            f"rank {r} wrote to a read-only array (a payload or a view of "
            f"one) during span {span!r}: {err}", dest=r, span=span)

    def _stuck_error(self) -> RuntimeError:
        """Why live ranks are left blocked with no event to serve: a crashed
        rank (the survivors' heartbeat timeout expires on it), a message
        the network provably dropped with no retransmission coming, or else
        a deadlock naming each blocked rank's wait and its undelivered
        mailbox."""
        state, waiting_tag = self._state, self._waiting_tag
        blocked = [
            (r, waiting_tag[r] if state[r] == _RECV else "barrier")
            for r in range(self.nprocs) if state[r] in (_RECV, _BARRIER)
        ]
        if self.fault_stats.crashes:
            crash_times = dict(self.fault_stats.crashes)
            t_block = max(self.envs[r].clock for r, _ in blocked)
            detected_at = t_block + 100.0 * self.spec.latency_s  # heartbeat
            names = ", ".join(
                f"rank {r} (died at t={t:.3g})"
                for r, t in sorted(crash_times.items())
            )
            waits = "; ".join(
                f"rank {r} waiting on {what!r}" for r, what in blocked)
            return RankCrashedError(
                "rank crash detected by heartbeat timeout at "
                f"t={detected_at:.3g}: {names}; survivors blocked: {waits}",
                ranks=sorted(crash_times), crash_times=crash_times,
                detected_at=detected_at, blocked=blocked,
            )
        if self.reliable is None and self.trace is not None:
            # a run that can lose an attempt keeps its records; with
            # retries on, a lost send was retried or raised DeliveryError
            for r, tag in [(r, w) for r, w in blocked if state[r] == _RECV]:
                want = repr(tag)
                for rec in self.trace.records:
                    if rec.dropped and rec.dest == r and repr(rec.tag) == want:
                        return MessageLostError(
                            f"rank {r} waits on tag {tag!r}, but the network "
                            f"dropped that message from rank {rec.src} and "
                            "reliable delivery is off (no retransmission "
                            "will come)",
                            src=rec.src, dest=r, tag=tag, attempts=1,
                        )
        pending = self._pending_by_rank()
        lines = []
        for r, what in blocked:
            if state[r] == _RECV:
                desc = f"rank {r} waiting on tag {what!r}"
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
            blocked=blocked, pending=pending,
        )

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
            # the envs outlive the run only as records of what each rank
            # did; without their link back, a finished simulator (its
            # mailboxes, records and freeze index) is freed with its last
            # reference, not at the next cyclic collection
            for env in self.envs:
                env._sim = None

    def _run(self) -> SimResult:
        """Pop the earliest event and run the rank it names until it blocks
        again, dropping stale serves; live ranks on an empty heap fail."""
        READY, RECV, BARRIER, DONE, CRASHED = (
            _READY, _RECV, _BARRIER, _DONE, _CRASHED)
        heappush, heappop = heapq.heappush, heapq.heappop
        nprocs, envs, order, tie = self.nprocs, self.envs, self._order, self._tie
        state, waiting_tag = self._state, self._waiting_tag
        mailboxes, events, tr = self._mailboxes, self._events, self.tracer
        crashes = self.fault_stats.crashes
        blocked_at = [0.0] * nprocs  # clock when a rank last blocked
        returns = [None] * nprocs
        deadline = [float("inf")] * nprocs  # scheduled crash times
        events.extend((0.0, _START, tie[r], r) for r in range(nprocs))
        for c in self.faults.crashes if self.faults is not None else ():
            if 0 <= c.rank < nprocs:
                deadline[c.rank] = c.at_time
                events.append((c.at_time, _CRASH, c.rank, c.rank))
        heapq.heapify(events)
        barrier_cost = self.spec.barrier_seconds(nprocs)
        # generator send methods, resolved once (plain functions have none)
        gen_sends = [getattr(g, "send", None) for g in self._programs]
        live = nprocs  # ranks neither finished nor crashed
        at_barrier = 0  # ranks waiting at the open barrier ...
        barrier_t = 0.0  # ... and the latest clock they arrived with

        def close_wait(r, t, args=None):
            """The span of blocked rank r's wait, up to virtual time t."""
            if state[r] == RECV:
                tr.span(r, f"recv {_obs.tag_label(waiting_tag[r])}",
                        _obs.RECV_WAIT, blocked_at[r], t, args)
            else:
                tr.span(r, "barrier", _obs.BARRIER_WAIT, blocked_at[r], t, args)

        def crash(r, at):
            """Kill rank r at virtual time ``max(clock, at)``."""
            nonlocal live, at_barrier
            env = envs[r]
            if at > env.clock:
                env.clock = at
            if (tr is not None and state[r] in (RECV, BARRIER)
                    and env.clock > blocked_at[r]):
                # it died blocked: close the wait span so its timeline still
                # tiles [0, clock] (the chaos trace-consistency oracle checks)
                close_wait(r, env.clock, {"crashed": True})
            if state[r] == BARRIER:
                at_barrier -= 1
            state[r], waiting_tag[r] = CRASHED, None
            live -= 1
            crashes.append((r, env.clock))
            gen = self._programs[r]
            if hasattr(gen, "close"):
                gen.close()

        def resume(r, value=None):
            """Advance rank r's generator until it blocks or finishes."""
            nonlocal live, at_barrier, barrier_t
            snd = gen_sends[r]
            try:
                # a plain function already ran at construction
                req = snd(value) if snd is not None else _FINISHED
            except StopIteration as stop:
                req, value = _FINISHED, stop.value
            except ValueError as err:
                if "read-only" not in str(err):
                    raise
                raise self._write_error(r, err) from err
            clock = envs[r].clock
            if clock >= deadline[r]:
                # it ran past its crash time in a compute segment the
                # simulator cannot interrupt
                crash(r, clock)
            elif req.__class__ is _RecvRequest:
                state[r], waiting_tag[r], blocked_at[r] = RECV, req.tag, clock
                box = mailboxes.get((r, req.tag))
                if box is not None:
                    arrival = box[0][0]
                    heappush(events, (arrival if arrival > clock else clock,
                                      _SERVE, tie[r], r))
            elif req is _BARRIER_REQUEST:
                state[r], blocked_at[r] = BARRIER, clock
                if clock > barrier_t:
                    barrier_t = clock
                at_barrier += 1
            elif req is _FINISHED:
                state[r], returns[r] = DONE, value
                live -= 1
            else:
                raise TypeError(
                    f"rank {r} yielded {req!r}; yield env.recv(...) or env.barrier()"
                )
            if at_barrier == live and at_barrier and not crashes:
                # every live rank is at the barrier (this one arrived last,
                # or finished): release it once
                heappush(events, (barrier_t + barrier_cost, _RELEASE, 0, r))

        while events:
            t, kind, _, r = heappop(events)
            if kind == _SERVE:
                if state[r] != RECV:
                    continue
                key = (r, waiting_tag[r])
                box = mailboxes.get(key)
                if box is None:
                    continue
                env = envs[r]
                arrival = box[0][0]
                if (arrival if arrival > env.clock else env.clock) != t:
                    continue  # stale: this wait is served at another time
                # single-entry boxes dominate (see _post)
                if len(box) == 1:
                    _, _, payload, rec, guard = box[0]
                    del mailboxes[key]
                else:
                    _, _, payload, rec, guard = heappop(box)
                if guard is not None:
                    self._check_guard(guard, rec)
                env.clock = rec.t_recv = t
                if tr is not None:
                    if t > blocked_at[r]:
                        close_wait(r, t, {"src": int(rec.src)})
                    tr.message(rec)
                state[r], waiting_tag[r] = READY, None
                resume(r, payload)
            elif kind == _START:
                resume(r)
            elif kind == _CRASH:
                if state[r] == RECV or state[r] == BARRIER:
                    crash(r, t)
            elif not crashes:
                # a release no crash has broken since it was pushed
                released = [r for r in order if state[r] == BARRIER]
                for r in released:
                    if tr is not None and t > blocked_at[r]:
                        close_wait(r, t)
                    envs[r].clock, state[r] = t, READY
                at_barrier, barrier_t = 0, 0.0
                for r in released:
                    resume(r)

        if live:
            raise self._stuck_error()
        if self.sanitize:
            # messages never received: still verify the sender kept its
            # hands off the posted buffers until the end of the run
            for box in mailboxes.values():
                for entry in box:
                    self._check_guard(entry[4], entry[3],
                                      when="the run ended")
        return SimResult(
            trace=self.trace,
            total_time=max(env.clock for env in envs) if envs else 0.0,
            rank_clocks=[env.clock for env in envs],
            rank_busy=[env.busy for env in envs],
            counters=[env.counter for env in envs],
            spans=[s for env in envs for s in env.spans],
            messages=sum(env.sent_messages for env in envs),
            bytes_sent=sum(env.sent_bytes for env in envs),
            returns=returns,
            crashed=sorted(r for r, _ in crashes),
            fault_stats=self.fault_stats,
        )
