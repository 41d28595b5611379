"""Performance analysis: MFLOPS reporting, load balance, the Eq. (1)-(4)
sequential model, and Theorem 2 overlap checks."""

from .mflops import achieved_mflops, operation_count
from .loadbalance import load_balance_factor
from .model import (
    PlanTimeModel,
    SequentialModel,
    plan_time_model,
    sequential_time_model,
)
from .memory import (
    MemoryFootprint,
    footprint_1d,
    footprint_2d,
    sequential_storage_bytes,
)
from .stability import (
    backward_error,
    factor_max_element,
    growth_factor,
    iterative_refinement,
)
from .condest import condest, onenorm, onenormest_inverse
from .timeline import overlap_profile
from .comm import CommReport, comm_report_from_envs, predicted_1d_volume

__all__ = [
    "achieved_mflops",
    "operation_count",
    "load_balance_factor",
    "sequential_time_model",
    "SequentialModel",
    "plan_time_model",
    "PlanTimeModel",
    "MemoryFootprint",
    "footprint_1d",
    "footprint_2d",
    "sequential_storage_bytes",
    "backward_error",
    "factor_max_element",
    "growth_factor",
    "iterative_refinement",
    "condest",
    "onenorm",
    "onenormest_inverse",
    "overlap_profile",
    "CommReport",
    "comm_report_from_envs",
    "predicted_1d_volume",
]
