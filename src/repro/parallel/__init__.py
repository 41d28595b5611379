"""The parallel sparse LU codes, executed on the simulated machine.

* :mod:`oned` — the 1D column-block codes: a generic schedule-driven
  executor that realises both the RAPID-style graph-scheduled code and the
  compute-ahead (CA) code (Section 5.1);
* :mod:`twod` — the 2D block-cyclic codes: synchronous and asynchronous
  pipelined SPMD algorithms (Section 5.2, Figs. 12-15);
* :mod:`mapping` — the 1D column and 2D grid data mappings: where every
  block lives, for both factorizations, the triangular solve and the
  memory model;
* :mod:`trisolve` — the distributed triangular solves: one SPMD program
  over either mapping;
* :mod:`buffers` — communication-buffer accounting for Theorem 2;
* :mod:`resilience` — :class:`RunResult`, the one record of a run, the
  launcher both layouts share, and checkpoint/restart rounds over either;
* :mod:`drivers` — the run layer: the :data:`DRIVERS` table (method name ->
  layout, runner, fixed keywords) and :func:`factorize`, the one entry
  point every caller outside this package uses to start a run.
"""

from .mapping import Grid2D
from .oned import run_1d
from .twod import run_2d
from .buffers import buffer_requirements, BufferReport
from .trisolve import run_1d_trisolve, run_2d_trisolve, TriSolveResult
from .resilience import RoundInfo, RunResult
from .drivers import DRIVERS, METHODS, Driver, check_run_options, factorize

__all__ = [
    "Grid2D",
    "run_1d",
    "run_2d",
    "buffer_requirements",
    "BufferReport",
    "run_1d_trisolve",
    "run_2d_trisolve",
    "TriSolveResult",
    "RoundInfo",
    "RunResult",
    "DRIVERS",
    "METHODS",
    "Driver",
    "check_run_options",
    "factorize",
]
