"""The run layer: the one table of parallel codes and the one way in.

The paper presents its four parallel codes (Section 5.1 1D RAPID and
compute-ahead, Section 5.2 2D asynchronous and synchronous) as
configurations of one Factor/Update program.  :data:`DRIVERS` says so as
data and :func:`factorize` is the only place a method name becomes a run:
the solver, the tuner, the chaos campaign, the CLI and the validation
battery call it instead of choosing between :func:`run_1d` and
:func:`run_2d` themselves.  A fifth code is one more row here.
"""

from __future__ import annotations

from typing import NamedTuple

from .oned import run_1d
from .resilience import check_run, run_checkpointed
from .twod import run_2d


class Driver(NamedTuple):
    """One parallel code: its data ``layout`` (``"1d"`` column blocks or
    ``"2d"`` block-cyclic), the ``runner`` that executes it and the
    ``fixed`` keywords that select this code among the runner's flavours."""

    layout: str
    runner: object
    fixed: dict


DRIVERS = {
    "1d-rapid": Driver("1d", run_1d, {"method": "rapid"}),
    "1d-ca": Driver("1d", run_1d, {"method": "ca"}),
    "2d": Driver("2d", run_2d, {"synchronous": False}),
    "2d-sync": Driver("2d", run_2d, {"synchronous": True}),
}

#: every ``method`` the solver (and the CLI's ``--method``) accepts;
#: ``METHODS[1:]`` are the parallel ones, the keys of :data:`DRIVERS`
METHODS = ("sequential", *DRIVERS)


def check_run_options(method, nprocs, ckpt_interval=None, grid=None,
                      methods=METHODS, pivot_threshold=1.0, block_size=1,
                      amalgamation=0) -> None:
    """``ValueError`` for run options no run can honour, raised before any
    analysis or simulator exists (by :func:`factorize` and by
    ``SStarSolver.__init__``) instead of a hang, an ``IndexError`` or a
    run that silently stops pivoting."""
    if method not in methods:
        raise ValueError(f"unknown method {method!r}: expected one of {methods}")
    check_run(None, nprocs, None, pivot_threshold)
    if ckpt_interval is not None and ckpt_interval < 1:
        raise ValueError(f"ckpt_interval must be >= 1, got {ckpt_interval}")
    if grid is not None:
        grid.check(None, nprocs)  # a grid's fit does not depend on N
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    if amalgamation < 0:
        raise ValueError(f"amalgamation must be >= 0, got {amalgamation}")


def factorize(
    method, A, part, bstruct, nprocs, spec, *,
    grid=None, tg=None, pivot_threshold=1.0, monitor=None, abft=False,
    sim_opts=None, stage_range=None, ckpt_interval=None, max_restarts=None,
):
    """Run the parallel code ``method`` (a key of :data:`DRIVERS`) on the
    ordered matrix ``A``; returns its :class:`RunResult`.

    Without ``ckpt_interval`` that is one :func:`run_1d` / :func:`run_2d`
    execution, one round (``stage_range=(k0, k1)``, integers with
    ``0 <= k0 < k1 <= part.N``, restricts it to a window of stages); a
    rank crash ends it as :class:`repro.machine.RankCrashedError`.  With
    it the same code runs in checkpointed rounds of that many stages,
    restarting on the survivors when a rank crashes (``max_restarts``,
    default ``nprocs``).  The keywords mean the same on both paths:
    ``sim_opts`` go to every :class:`repro.machine.Simulator`, the fault
    plan and retry transport included (``"faults"``, ``"reliable"``);
    ``grid`` fixes the 2D process grid (while the run keeps its rank
    count), ``tg`` hands the 1D codes a prebuilt task graph.
    """
    check_run_options(method, nprocs, ckpt_interval, grid, tuple(DRIVERS),
                      pivot_threshold)
    layout, runner, fixed = DRIVERS[method]
    kwargs = dict(fixed, pivot_threshold=pivot_threshold, monitor=monitor,
                  abft=abft)
    if layout == "1d":
        kwargs["tg"] = tg
    else:
        kwargs["grid"] = grid
    if ckpt_interval is not None:
        if stage_range is not None:
            raise ValueError("stage_range and ckpt_interval are exclusive: "
                             "the checkpoint rounds are the stage windows")
        return run_checkpointed(
            runner, A, part, bstruct, nprocs, spec,
            ckpt_interval=ckpt_interval, sim_opts=sim_opts,
            max_restarts=max_restarts, **kwargs,
        )
    return runner(A, part, bstruct, nprocs, spec, sim_opts=sim_opts,
                  stage_range=stage_range, **kwargs)
