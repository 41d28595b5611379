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
from .resilience import run_checkpointed
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
                      methods=METHODS) -> None:
    """``ValueError`` for run options no run can honour, raised before any
    analysis or simulator exists (by :func:`factorize` and by
    ``SStarSolver.__init__``) instead of a hang or an ``IndexError``."""
    if method not in methods:
        raise ValueError(f"unknown method {method!r}: expected one of {methods}")
    if nprocs < 1:
        raise ValueError(f"nprocs must be >= 1, got {nprocs}")
    if ckpt_interval is not None and ckpt_interval < 1:
        raise ValueError(f"ckpt_interval must be >= 1, got {ckpt_interval}")
    if grid is not None:
        grid.check(None, nprocs)  # a grid's fit does not depend on N


def factorize(
    method, A, part, bstruct, nprocs, spec, *,
    grid=None, tg=None, pivot_threshold=1.0, monitor=None, abft=False,
    sim_opts=None, stage_range=None, faults=None, reliable=None,
    ckpt_interval=None, max_restarts=None,
):
    """Run the parallel code ``method`` (a key of :data:`DRIVERS`) on the
    ordered matrix ``A``; returns what the driver returns.

    Without ``ckpt_interval`` that is one :func:`run_1d` / :func:`run_2d`
    execution (``faults`` / ``reliable`` join ``sim_opts``; ``stage_range``
    restricts it to a window of stages) and its ``OneDResult`` /
    ``TwoDResult``.  With it the same code runs in checkpointed rounds of
    that many stages, restarting on the survivors when a rank crashes
    (``max_restarts``, default ``nprocs``) — a :class:`ResilientResult`.
    The keywords mean the same on both paths: ``grid`` fixes the 2D process
    grid (while the run keeps its rank count), ``tg`` hands the 1D codes a
    prebuilt task graph.
    """
    check_run_options(method, nprocs, ckpt_interval, grid, tuple(DRIVERS))
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
            ckpt_interval=ckpt_interval, faults=faults, reliable=reliable,
            sim_opts=sim_opts, max_restarts=max_restarts, **kwargs,
        )
    opts = dict(sim_opts or {})
    if faults is not None:
        opts["faults"] = faults
    if reliable is not None:
        opts["reliable"] = reliable
    return runner(A, part, bstruct, nprocs, spec, sim_opts=opts,
                  stage_range=stage_range, **kwargs)
