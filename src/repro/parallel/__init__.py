"""The parallel sparse LU codes, executed on the simulated machine.

* :mod:`oned` — the 1D column-block codes: a generic schedule-driven
  executor that realises both the RAPID-style graph-scheduled code and the
  compute-ahead (CA) code (Section 5.1);
* :mod:`twod` — the 2D block-cyclic codes: synchronous and asynchronous
  pipelined SPMD algorithms (Section 5.2, Figs. 12-15);
* :mod:`mapping` — 1D cyclic and 2D grid data mappings;
* :mod:`trisolve` — the distributed triangular solves: one SPMD program
  over either mapping;
* :mod:`buffers` — communication-buffer accounting for Theorem 2;
* :mod:`resilience` — checkpoint/restart rounds over either code;
* :mod:`drivers` — the run layer: the :data:`DRIVERS` table (method name ->
  layout, runner, fixed keywords) and :func:`factorize`, the one entry
  point every caller outside this package uses to start a run.
"""

from .mapping import Grid2D, cyclic_owner
from .oned import run_1d, OneDResult
from .twod import run_2d, TwoDResult
from .buffers import buffer_requirements, BufferReport
from .trisolve import run_1d_trisolve, run_2d_trisolve, TriSolveResult
from .shared_memory import sstar_factor_threads
from .resilience import (
    run_1d_resilient,
    run_2d_resilient,
    ResilientResult,
    RoundInfo,
)
from .drivers import DRIVERS, METHODS, Driver, check_run_options, factorize

__all__ = [
    "Grid2D",
    "cyclic_owner",
    "run_1d",
    "OneDResult",
    "run_2d",
    "TwoDResult",
    "buffer_requirements",
    "BufferReport",
    "run_1d_trisolve",
    "run_2d_trisolve",
    "TriSolveResult",
    "sstar_factor_threads",
    "run_1d_resilient",
    "run_2d_resilient",
    "ResilientResult",
    "RoundInfo",
    "DRIVERS",
    "METHODS",
    "Driver",
    "check_run_options",
    "factorize",
]
