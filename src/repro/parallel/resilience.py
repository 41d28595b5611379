"""Checkpoint/restart for the parallel factorizations.

The paper's S* codes assume every PE survives the whole factorization.
This driver removes that assumption with a classic round-based scheme:

* the elimination is cut into **rounds** of ``ckpt_interval`` stages; each
  round runs as its own :class:`repro.machine.Simulator` execution over a
  *copy* of the last checkpoint, restricted to the stage window
  ``[k0, k1)`` via the rank programs' ``stage_range`` support;
* when a round completes, its merged state *is* the next checkpoint — a
  consistent partial factorization (every stage ``< k1`` fully applied),
  exactly the state a single uninterrupted run would have passed through;
* when a rank crashes mid-round (:class:`repro.machine.RankCrashedError`,
  detected by the simulator's heartbeat-timeout model), the round's
  (possibly tainted) state is **discarded**, the process grid shrinks by
  the dead rank (:meth:`repro.machine.FaultPlan.after_crash` renumbers the
  survivors), the data is redistributed from the checkpoint, and the
  window re-runs on the survivors.

Because a round replays the same Factor/Update kernels in the same
per-element order as an uninterrupted run, the recovered factorization is
numerically identical to the fault-free one up to the process count's
(nonexistent) influence on the numerics — the tests assert bit-identity.

Virtual-time accounting: the reported ``total_time`` sums every round's
simulated makespan, including the heartbeat detection latency and the
wasted work of rounds that crashed — the price of the recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machine import FaultPlan, RankCrashedError
from ..numfact import BlockLUMatrix, SilentCorruptionError
from ..obs import CHECKPOINT


@dataclass
class RoundInfo:
    """One executed round (successful or crashed-and-discarded)."""

    window: tuple  # (k0, k1) stage window
    nprocs: int
    ok: bool
    crashed: tuple = ()
    seconds: float = 0.0
    corrupted: tuple = None  # block coords when ABFT aborted the round


@dataclass
class ResilientResult:
    """Outcome of a checkpoint/restart factorization."""

    factor: BlockLUMatrix
    rounds: list = field(default_factory=list)
    results: list = field(default_factory=list)  # SimResult per good round
    total_time: float = 0.0
    nprocs_final: int = 0

    @property
    def parallel_seconds(self) -> float:
        return self.total_time

    @property
    def crashes(self) -> list:
        out = []
        for r in self.rounds:
            out.extend(r.crashed)
        return out

    @property
    def messages(self) -> int:
        return sum(r.messages for r in self.results)

    @property
    def bytes_sent(self) -> int:
        return sum(r.bytes_sent for r in self.results)

    def total_counter(self):
        """Kernel counter summed over the *successful* rounds (the work the
        surviving factorization actually consists of)."""
        agg = None
        for res in self.results:
            c = res.total_counter()
            if agg is None:
                agg = c
            else:
                agg.merge(c)
        return agg


def _copy_state(m: BlockLUMatrix) -> BlockLUMatrix:
    """Deep-copy a checkpoint so a crashed round cannot taint it."""
    out = BlockLUMatrix(m.part, m.bstruct, arena=m.arena.copy())
    out.pivot_seq = list(m.pivot_seq)
    return out


def run_checkpointed(runner, A, part, bstruct, nprocs, spec, *,
                     ckpt_interval, faults, reliable, sim_opts,
                     max_restarts, **runner_kwargs):
    """The checkpoint/restart loop over ``runner`` (:func:`run_1d` or
    :func:`run_2d`, with ``runner_kwargs``); see the module docstring.
    Reached through :func:`repro.parallel.factorize`."""
    if ckpt_interval < 1:  # the window would never advance
        raise ValueError(f"ckpt_interval must be >= 1, got {ckpt_interval}")
    if max_restarts is None:
        max_restarts = nprocs
    N = part.N
    plan = faults if faults is not None else FaultPlan()
    # each round's Simulator restarts virtual time at 0; an offset proxy
    # splices the rounds onto the caller's one continuous trace timeline
    tracer = (sim_opts or {}).get("tracer")

    def close_round(ok, seconds=0.0, crashed=(), corrupted=None):
        """Record the round that just ran and charge its virtual time."""
        out.rounds.append(RoundInfo(
            window, nprocs, ok=ok, crashed=tuple(crashed), seconds=seconds,
            corrupted=corrupted,
        ))
        out.total_time += seconds
        if tracer is None:
            return
        tracer.span(
            "ckpt/rounds", f"round {window[0]}:{window[1]}", CHECKPOINT,
            round_start, round_start + seconds,
            {"ok": ok, "nprocs": int(nprocs),
             "crashed": [int(c) for c in crashed]},
        )
        tracer.metrics.counter("ckpt.rounds").inc()
        if not ok:
            tracer.metrics.counter("ckpt.restarts").inc()

    def discard_crashed_round(err: RankCrashedError):
        """Ranks died in this round — the simulator raised ``err`` because
        the survivors were blocked, or the round "completed" for them with
        the dead ranks' in-window tasks possibly missing.  Either way the
        round state is not a checkpoint: record it, charge its time and
        shrink the run to the survivors; ``err`` propagates when the
        restart budget is spent or nobody is left."""
        nonlocal restarts, plan, nprocs
        restarts += 1
        if restarts > max_restarts:
            raise err
        close_round(False, err.detected_at, crashed=err.ranks)
        # drop the dead ranks, highest first so the renumbering in
        # after_crash stays consistent; the elapsed shift applies once,
        # not per dead rank
        elapsed = err.detected_at
        for dead in sorted(err.ranks, reverse=True):
            plan = plan.after_crash(dead, elapsed)
            elapsed = 0.0
            nprocs -= 1
        if nprocs < 1:
            raise err
        # a caller-fixed 2D grid no longer fits: run_2d re-picks
        # Grid2D.preferred for the surviving rank count
        runner_kwargs.pop("grid", None)

    checkpoint = None  # None = start from A itself
    out = ResilientResult(factor=None, nprocs_final=nprocs)
    restarts = 0
    k = 0
    while k < N:
        window = (k, min(k + int(ckpt_interval), N))
        round_start = out.total_time
        base_opts = dict(sim_opts or {})
        base_opts["faults"] = plan
        if reliable is not None:
            base_opts["reliable"] = reliable
        if tracer is not None:
            base_opts["tracer"] = tracer.offset(round_start)
        start = _copy_state(checkpoint) if checkpoint is not None else None
        try:
            res = runner(
                A, part, bstruct, nprocs, spec,
                sim_opts=base_opts,
                stage_range=window,
                start_from=start,
                **runner_kwargs,
            )
        except SilentCorruptionError as e:
            # ABFT caught a silently corrupted payload inside the round.
            # The corrupted message is gone (its inputs live only on the
            # sender), so localized recompute is impossible here: fall back
            # to checkpoint restart of the window.  Transient-SDC model:
            # the corrupting event will not repeat, so the replay runs on
            # the plan with CORRUPT rules/events stripped.
            restarts += 1
            if restarts > max_restarts:
                raise
            close_round(False, corrupted=e.block)
            if tracer is not None:
                tracer.metrics.counter("abft.recovered").inc()
            plan = plan.without_corrupt()
            continue  # re-run the same window from the checkpoint
        except RankCrashedError as e:
            discard_crashed_round(e)
            continue  # re-run the same window on the survivors
        if res.sim.crashed:
            discard_crashed_round(RankCrashedError(
                "rank(s) crashed with work outstanding",
                ranks=res.sim.crashed,
                crash_times=dict(res.sim.fault_stats.crashes),
                detected_at=res.sim.total_time,
            ))
            continue
        # the round committed: its merged state is the new checkpoint
        checkpoint = res.factor
        close_round(True, res.sim.total_time)
        out.results.append(res.sim)
        plan = plan.shifted(res.sim.total_time)
        k = window[1]
    out.factor = checkpoint
    out.nprocs_final = nprocs
    return out

