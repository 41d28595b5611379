"""Shared experiment plumbing for the benchmark harness.

Every table/figure bench needs the same preprocessing (generate matrix,
order, static symbolic, partition, dynamic baseline); an
:class:`ExperimentContext` runs the analyze phase (:func:`repro.pipeline.analyze`)
and the dynamic baseline lazily, once each, and hands out their stages.
"""

from __future__ import annotations

from functools import cached_property

from ..baselines import superlu_like_factor
from ..matrices import get_matrix, SUITE
from ..pipeline import analyze
from ..sparse import structural_symmetry, ata_pattern
from ..symbolic import cholesky_ata_structure, structure_stats


class ExperimentContext:
    """Lazily-computed pipeline stages for one suite matrix."""

    def __init__(
        self,
        name: str,
        scale: str = "small",
        block_size: int = 25,
        amalgamation: int = 4,
    ):
        self.name = name
        self.scale = scale
        self.block_size = block_size
        self.amalgamation = amalgamation
        self.spec = SUITE.get(name)

    @cached_property
    def A(self):
        return get_matrix(self.name, self.scale)

    @cached_property
    def _analysis(self):
        """``(artifacts, ordered matrix)`` of the one analyze phase."""
        return analyze(self.A, self.block_size, self.amalgamation)

    @property
    def ordered(self):
        return self._analysis[1]

    @property
    def sym(self):
        return self._analysis[0].sym

    @property
    def part(self):
        return self._analysis[0].part

    @property
    def bstruct(self):
        return self._analysis[0].bstruct

    @property
    def taskgraph(self):
        return self._analysis[0].task_graph

    @cached_property
    def dynamic(self):
        """The SuperLU-like dynamic factorization of the ordered matrix."""
        return superlu_like_factor(self.ordered.A)

    @cached_property
    def superlu_flops(self) -> float:
        """The paper's MFLOPS numerator: dynamic factorization flops."""
        return self.dynamic.flops

    @cached_property
    def fill_stats(self):
        """The Table 1 row for this matrix."""
        chol = cholesky_ata_structure(ata_pattern(self.ordered.A))
        return structure_stats(
            self.name,
            self.A,
            self.sym,
            self.dynamic.l_column_structures(),
            self.dynamic.u_row_structures(),
            chol,
            structural_symmetry(self.A),
        )

    def sequential_factor(self):
        from ..numfact import sstar_factor

        return sstar_factor(self.ordered.A, sym=self.sym, part=self.part)
