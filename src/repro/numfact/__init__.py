"""Numerical factorization: block storage, kernels, Factor/Update tasks,
the sequential S* driver and triangular solvers (Section 4, Figs. 6-8)."""

from .counter import KernelCounter
from .kernels import (
    unit_lower_apply,
    unit_lower_inverse,
    upper_solve,
    FLOP_TRSM,
)
from .blocks import (
    BlockLUMatrix,
    NumericPlan,
    StructureViolation,
    SingularMatrixError,
)
from .tasks import (
    factor_block_column,
    update_block_column,
    update_block_columns,
    factored_column_of,
    FactoredColumn,
)
from .sequential import sstar_factor, LUFactorization
from .serialize import save_factorization, load_factorization
from .robust import (
    NumericalError,
    PerturbationRecord,
    PivotMonitor,
    SilentCorruptionError,
    matrix_maxnorm,
)
from .abft import (
    AbftLedger,
    column_leaves,
    payload_checksums,
    recover_block_column,
    verify_payload,
)

__all__ = [
    "KernelCounter",
    "unit_lower_apply",
    "unit_lower_inverse",
    "upper_solve",
    "FLOP_TRSM",
    "BlockLUMatrix",
    "NumericPlan",
    "StructureViolation",
    "SingularMatrixError",
    "factor_block_column",
    "update_block_column",
    "update_block_columns",
    "factored_column_of",
    "FactoredColumn",
    "sstar_factor",
    "LUFactorization",
    "save_factorization",
    "load_factorization",
    "NumericalError",
    "PerturbationRecord",
    "PivotMonitor",
    "SilentCorruptionError",
    "matrix_maxnorm",
    "AbftLedger",
    "column_leaves",
    "payload_checksums",
    "recover_block_column",
    "verify_payload",
]
