"""The benchmark suite: synthetic analogues of the paper's Table 1 matrices.

Each :class:`MatrixSpec` records the paper's published statistics (order,
|A|, structural-symmetry regime) and how to generate a deterministic
synthetic stand-in.  Two scales are provided:

``small``
    Orders of a few hundred — used by the unit/property tests so the whole
    suite factorizes in seconds.
``bench``
    Orders around 1-3k — used by the benchmark harness; big enough that the
    supernodal/BLAS-3 effects the paper measures are visible.

The ``paper`` columns are retained so EXPERIMENTS.md can print
paper-vs-measured tables side by side.  ``memplus`` and ``wang3`` are the
paper's two overestimation-pathology examples (119x and 4x the SuperLU
fill under the AtA ordering); they are kept out of the default Table 1-7
matrix lists, matching the paper, and exercised by the ordering ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import generators as g
from ..sparse import CSRMatrix


@dataclass(frozen=True)
class MatrixSpec:
    """One row of the (synthetic) Table 1 suite."""

    name: str
    paper_order: int
    paper_nnz: int
    paper_symmetry: float  # nnz(A + A^T)/nnz(A) regime reported in Table 1
    kind: str  # generator family
    small: Callable[[], CSRMatrix]
    bench: Callable[[], CSRMatrix]

    def generate(self, scale: str = "small") -> CSRMatrix:
        if scale == "small":
            return self.small()
        if scale == "bench":
            return self.bench()
        raise ValueError(f"unknown scale {scale!r} (use 'small' or 'bench')")


SUITE = {
    "sherman5": MatrixSpec(
        "sherman5", 3312, 20793, 1.26, "reservoir-3d",
        small=lambda: g.stencil_3d(4, 4, 4, ndof=3, seed=11),
        bench=lambda: g.stencil_3d(8, 8, 5, ndof=3, seed=11),
    ),
    "lnsp3937": MatrixSpec(
        "lnsp3937", 3937, 25407, 2.15, "navier-stokes-2d",
        small=lambda: g.stencil_2d(16, 16, convection=2.5, seed=21),
        bench=lambda: g.stencil_2d(40, 32, convection=2.5, seed=21),
    ),
    "lns3937": MatrixSpec(
        "lns3937", 3937, 25407, 2.15, "navier-stokes-2d",
        small=lambda: g.stencil_2d(16, 16, convection=3.5, seed=22),
        bench=lambda: g.stencil_2d(40, 32, convection=3.5, seed=22),
    ),
    "sherman3": MatrixSpec(
        "sherman3", 5005, 20033, 1.0, "reservoir-3d",
        small=lambda: g.stencil_3d(6, 6, 6, ndof=1, seed=31),
        bench=lambda: g.stencil_3d(12, 12, 9, ndof=1, seed=31),
    ),
    "jpwh991": MatrixSpec(
        "jpwh991", 991, 6027, 1.05, "circuit",
        small=lambda: g.circuit_like(220, seed=41),
        bench=lambda: g.circuit_like(991, seed=41),
    ),
    "orsreg1": MatrixSpec(
        "orsreg1", 2205, 14133, 1.0, "reservoir-3d",
        small=lambda: g.stencil_3d(5, 5, 5, ndof=1, seed=51),
        bench=lambda: g.stencil_3d(21, 21, 5, ndof=1, seed=51),
    ),
    "saylr4": MatrixSpec(
        "saylr4", 3564, 22316, 1.0, "reservoir-3d",
        small=lambda: g.stencil_3d(6, 6, 5, ndof=1, seed=61),
        bench=lambda: g.stencil_3d(12, 11, 9, ndof=1, seed=61),
    ),
    "goodwin": MatrixSpec(
        "goodwin", 7320, 324772, 1.64, "fem-fluid",
        small=lambda: g.fem_unstructured(260, avg_degree=10, nonsym=0.4, seed=71),
        bench=lambda: g.fem_unstructured(1400, avg_degree=12, nonsym=0.4, seed=71),
    ),
    "e40r0100": MatrixSpec(
        "e40r0100", 17281, 553562, 1.32, "fem-fluid",
        small=lambda: g.fem_unstructured(300, avg_degree=12, nonsym=0.25, seed=81),
        bench=lambda: g.fem_unstructured(1800, avg_degree=14, nonsym=0.25, seed=81),
    ),
    "ex11": MatrixSpec(
        "ex11", 16614, 1096948, 1.0, "fem-fluid",
        small=lambda: g.fem_unstructured(320, avg_degree=14, nonsym=0.05, seed=91),
        bench=lambda: g.fem_unstructured(2000, avg_degree=16, nonsym=0.05, seed=91),
    ),
    "raefsky4": MatrixSpec(
        "raefsky4", 19779, 1316789, 1.0, "fem-structures",
        small=lambda: g.fem_unstructured(320, avg_degree=14, nonsym=0.02, seed=101),
        bench=lambda: g.fem_unstructured(2200, avg_degree=16, nonsym=0.02, seed=101),
    ),
    "inaccura": MatrixSpec(
        "inaccura", 16146, 1015156, 1.0, "fem-structures",
        small=lambda: g.fem_unstructured(300, avg_degree=14, nonsym=0.1, seed=111),
        bench=lambda: g.fem_unstructured(2000, avg_degree=16, nonsym=0.1, seed=111),
    ),
    "af23560": MatrixSpec(
        "af23560", 23560, 460598, 1.0, "fem-fluid",
        small=lambda: g.fem_unstructured(340, avg_degree=10, nonsym=0.1, seed=121),
        bench=lambda: g.fem_unstructured(2400, avg_degree=12, nonsym=0.1, seed=121),
    ),
    "vavasis3": MatrixSpec(
        "vavasis3", 41092, 1683902, 1.0, "block-pde",
        small=lambda: g.block_structured(360, block=30, seed=131),
        bench=lambda: g.block_structured(2600, block=50, seed=131),
    ),
    "dense1000": MatrixSpec(
        "dense1000", 1000, 1000000, 1.0, "dense",
        small=lambda: g.dense_matrix(120, seed=141),
        bench=lambda: g.dense_matrix(600, seed=141),
    ),
    "memplus": MatrixSpec(
        "memplus", 17758, 99147, 1.0, "circuit-pathological",
        small=lambda: g.nearly_dense_row(200, row_fill=0.6, base_density=0.01, seed=161),
        bench=lambda: g.nearly_dense_row(1200, row_fill=0.5, base_density=0.004, seed=161),
    ),
    "wang3": MatrixSpec(
        "wang3", 26064, 177168, 1.0, "device-3d",
        small=lambda: g.stencil_3d(5, 5, 4, ndof=2, anisotropy=4.0, seed=171),
        bench=lambda: g.stencil_3d(11, 11, 9, ndof=2, anisotropy=4.0, seed=171),
    ),
    "b33_5600": MatrixSpec(
        "b33_5600", 5600, 331438, 1.0, "fem-structures",
        small=lambda: g.fem_unstructured(280, avg_degree=16, nonsym=0.02, seed=151),
        bench=lambda: g.fem_unstructured(1600, avg_degree=18, nonsym=0.02, seed=151),
    ),
}


def suite_names() -> list:
    """Suite matrix names in Table 1 order."""
    return list(SUITE)


def get_matrix(name: str, scale: str = "small") -> CSRMatrix:
    """Generate the synthetic analogue of ``name`` at the given scale."""
    return SUITE[name].generate(scale)
