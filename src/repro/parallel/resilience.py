"""The one record of a parallel run, the launcher both layouts share, and
checkpoint/restart over either.

Every run returns a :class:`RunResult`; a plain run is one round, and
every total is read from the rounds, so no caller asks which kind of run
it got.  The paper's S* codes assume every PE survives the whole
factorization.  :func:`run_checkpointed` removes that assumption with a
classic round-based scheme:

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

Virtual-time accounting: ``parallel_seconds`` sums every round's
simulated makespan, including the heartbeat detection latency and the
wasted work of rounds that crashed — the price of the recovery.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

from ..machine import FaultPlan, FaultStats, RankCrashedError, Simulator
from ..numfact import BlockLUMatrix, SilentCorruptionError
from ..numfact.tasks import check_pivot_threshold
from ..obs import CHECKPOINT


@dataclass
class RoundInfo:
    """One executed round: committed (``ok``) or crashed and discarded."""

    window: tuple  # (k0, k1) stage window
    nprocs: int
    ok: bool
    crashed: tuple = ()
    seconds: float = 0.0
    corrupted: tuple = None  # block coords when ABFT aborted the round
    sim: object = None  # SimResult of a committed round


@dataclass
class RunResult:
    """Outcome of a parallel factorization: the merged (solvable)
    ``factor``, every executed round and the last round's mapping,
    ``schedule`` (1D codes) or ``grid`` (2D codes).  Totals cover the
    committed rounds; ``parallel_seconds`` also charges discarded ones."""

    factor: BlockLUMatrix
    rounds: list = field(default_factory=list)
    schedule: object = None
    grid: object = None

    @property
    def sims(self) -> list:
        return [r.sim for r in self.rounds if r.ok]

    @property
    def sim(self):
        """The ``SimResult`` of a one-round run (``ValueError`` when more
        rounds committed: read :attr:`sims`)."""
        (sim,) = self.sims
        return sim

    @property
    def parallel_seconds(self) -> float:
        return sum(r.seconds for r in self.rounds)

    @property
    def messages(self) -> int:
        return sum(sim.messages for sim in self.sims)

    @property
    def bytes_sent(self) -> int:
        return sum(sim.bytes_sent for sim in self.sims)

    def total_counter(self):
        """Kernel counter summed over the *committed* rounds (the work the
        surviving factorization actually consists of)."""
        total, *rest = [sim.total_counter() for sim in self.sims]
        for c in rest:
            total.merge(c)
        return total

    @property
    def fault_stats(self) -> FaultStats:
        stats = [sim.fault_stats for sim in self.sims]
        return FaultStats(sum(fs.retransmits for fs in stats),
                          [c for fs in stats for c in fs.crashes],
                          [e for fs in stats for e in fs.injected])

    @property
    def crashes(self) -> list:
        return [rank for r in self.rounds for rank in r.crashed]

    @property
    def nprocs_final(self) -> int:
        return self.rounds[-1].nprocs

    @property
    def buffer_high_water(self) -> list:
        """1D codes: each rank's peak bytes of cached remote columns."""
        return [ret["high_water"] for ret in self.sim.returns]

    def overlap_degree(self) -> int:
        """Measured stage-overlap degree of Update_2D tasks (Theorem 2):
        max |k' - k| over concurrent ``U2D{K}`` task spans of a round."""
        best = 0
        for sim in self.sims:
            spans = sorted(((s.start, s.end, int(s.name[3:])) for s in sim.spans
                            if s.name.startswith("U2D")), key=lambda s: s[0])
            for i, (s1, e1, k1) in enumerate(spans):
                for s2, e2, k2 in spans[i + 1:]:
                    if s2 >= e1:
                        break
                    if min(e1, e2) > max(s1, s2):
                        best = max(best, abs(k2 - k1))
        return best


def check_run(N, nprocs, stage_range, pivot_threshold) -> None:
    """``ValueError`` for what neither layout can run — no ranks, a
    threshold outside (0, 1], a ``stage_range`` that is not integers
    ``0 <= k0 < k1 <= N`` — raised first by :func:`repro.parallel.run_1d`
    and :func:`repro.parallel.run_2d`, so before any schedule or simulator
    exists, and by ``check_run_options`` (with ``N`` unknown)."""
    if nprocs < 1:
        raise ValueError(f"nprocs must be >= 1, got {nprocs}")
    check_pivot_threshold(pivot_threshold)
    if stage_range is not None:
        k0, k1 = stage_range
        if not (all(isinstance(k, numbers.Integral) for k in stage_range)
                and 0 <= k0 < k1 <= N):
            raise ValueError(f"stage_range must be integers 0 <= k0 < k1 <= "
                             f"{N}, got {stage_range!r}")


def launch(rank_program, ctx, A, part, bstruct, mapping, nprocs, spec, *,
           sim_opts, stage_range, start_from, pivot_threshold, monitor, abft,
           **result) -> RunResult:
    """One simulated run of ``rank_program(env, ctx)``, shared by
    :func:`repro.parallel.run_1d` and :func:`repro.parallel.run_2d`, whose
    common keywords mean the same in both: ``sim_opts`` go to
    :class:`repro.machine.Simulator` (``trace``, ``host_order``,
    ``faults``, ``reliable``, ``tracer``); ``stage_range=(k0, k1)`` runs
    only that window of stages and ``start_from`` resumes from a partially
    factored checkpoint instead of ``A``; ``monitor`` is a shared
    :class:`repro.numfact.PivotMonitor`; ``abft=True`` checksums the block
    payloads, and receivers raise :class:`repro.numfact.SilentCorruptionError`
    on a mismatch.  Every rank's storage is made here, alike for both
    layouts: the one matrix split by the layout's ``mapping`` (checked
    against the run), in ``ctx["locals"]`` beside the other keys every rank
    reads.  The ranks factor its arena in place; their pivot sequences,
    merged here, complete the factor, whose blocks are made writable again
    (a send made the ones it posted read-only).  ``result`` is the layout's
    ``schedule=`` or ``grid=``.  A run in which any rank crashed raises
    :class:`repro.machine.RankCrashedError`, whether or not the survivors
    finished; every error leaving the run carries its ``fault_stats``.
    """
    mapping.check(part.N, nprocs)
    merged = (BlockLUMatrix.from_csr(A, part, bstruct) if start_from is None
              else start_from)
    window = (0, part.N) if stage_range is None else tuple(stage_range)
    ctx.update(locals=merged.split(mapping.block_owner, nprocs),
               pivot_threshold=pivot_threshold, monitor=monitor, abft=abft,
               stage_range=window)
    sim = Simulator(nprocs, spec, rank_program, args=(ctx,),
                    **(sim_opts or {})).run()
    if sim.crashed:
        # the survivors finished, but the dead ranks' work may be missing
        err = RankCrashedError(
            "rank(s) crashed with work outstanding", ranks=sim.crashed,
            crash_times=dict(sim.fault_stats.crashes),
            detected_at=sim.total_time)
        err.fault_stats = sim.fault_stats
        raise err
    for ret in sim.returns:
        for K, seq in enumerate(ret["pivot_seq"]):
            if seq is not None:
                merged.pivot_seq[K] = seq
    # a send freezes what it posts, arena views of the factor included:
    # the returned factor is writable again
    for blk in merged.blocks.values():
        blk.flags.writeable = True
    rnd = RoundInfo(window, nprocs, True, seconds=sim.total_time, sim=sim)
    return RunResult(merged, [rnd], **result)


def _copy_state(m: BlockLUMatrix) -> BlockLUMatrix:
    """Deep-copy a checkpoint so a crashed round cannot taint it."""
    out = BlockLUMatrix(m.part, m.bstruct, arena=m.arena.copy())
    out.pivot_seq = list(m.pivot_seq)
    return out


def run_checkpointed(runner, A, part, bstruct, nprocs, spec, *,
                     ckpt_interval, sim_opts, max_restarts,
                     **runner_kwargs) -> RunResult:
    """The checkpoint/restart loop over ``runner`` (:func:`run_1d` or
    :func:`run_2d`, with ``runner_kwargs``); see the module docstring.
    The fault plan is ``sim_opts["faults"]``; each round runs on what is
    left of it (``after_crash`` / ``shifted`` / ``without_corrupt``).
    Reached through :func:`repro.parallel.factorize`."""
    if ckpt_interval < 1:  # the window would never advance
        raise ValueError(f"ckpt_interval must be >= 1, got {ckpt_interval}")
    if max_restarts is None:
        max_restarts = nprocs
    N = part.N
    opts = dict(sim_opts or {})
    plan = opts.get("faults") or FaultPlan()
    # each round's Simulator restarts virtual time at 0; an offset proxy
    # splices the rounds onto the caller's one continuous trace timeline
    tracer = opts.get("tracer")

    def close_round(rnd: RoundInfo):
        """Record the round that just ran, which charges its virtual time."""
        out.rounds.append(rnd)
        if tracer is None:
            return
        tracer.span(
            "ckpt/rounds", f"round {window[0]}:{window[1]}", CHECKPOINT,
            round_start, round_start + rnd.seconds,
            {"ok": rnd.ok, "nprocs": int(rnd.nprocs),
             "crashed": [int(c) for c in rnd.crashed]},
        )
        tracer.metrics.counter("ckpt.rounds").inc()
        if not rnd.ok:
            tracer.metrics.counter("ckpt.restarts").inc()

    def discard_crashed_round(err: RankCrashedError):
        """Ranks died in this round, so its state is not a checkpoint:
        record it, charge its time and shrink the run to the survivors;
        ``err`` propagates when the restart budget is spent or nobody is
        left."""
        nonlocal restarts, plan, nprocs
        restarts += 1
        if restarts > max_restarts:
            raise err
        close_round(RoundInfo(window, nprocs, ok=False,
                              crashed=tuple(err.ranks),
                              seconds=err.detected_at))
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
        order = opts.get("host_order")
        if order is not None:
            # the survivors keep their relative order, renumbered as
            # after_crash renumbers them
            dead = sorted(err.ranks)
            opts["host_order"] = [r - sum(d < r for d in dead)
                                  for r in order if r not in dead]
        # a caller-fixed 2D grid no longer fits: run_2d re-picks
        # Grid2D.preferred for the surviving rank count
        runner_kwargs.pop("grid", None)

    # out.factor is the last checkpoint (None = start from A itself)
    out = RunResult(factor=None)
    restarts = 0
    k = 0
    while k < N:
        window = (k, min(k + int(ckpt_interval), N))
        round_start = out.parallel_seconds
        opts["faults"] = plan
        if tracer is not None:
            opts["tracer"] = tracer.offset(round_start)
        start = _copy_state(out.factor) if out.factor is not None else None
        try:
            res = runner(
                A, part, bstruct, nprocs, spec,
                sim_opts=opts,
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
            close_round(RoundInfo(window, nprocs, ok=False,
                                  corrupted=e.block))
            if tracer is not None:
                tracer.metrics.counter("abft.recovered").inc()
            plan = plan.without_corrupt()
            continue  # re-run the same window from the checkpoint
        except RankCrashedError as e:
            discard_crashed_round(e)
            continue  # re-run the same window on the survivors
        (rnd,) = res.rounds
        # the round committed: its merged state is the new checkpoint
        out.factor, out.schedule, out.grid = res.factor, res.schedule, res.grid
        close_round(rnd)
        plan = plan.shifted(rnd.seconds)
        k = window[1]
    return out
