"""High-level public API."""

from ..parallel import METHODS
from .solver import SStarSolver, FactorizationReport
from .experiment import ExperimentContext
from .fixtures import MemoCache, prepare_pipeline, SMALL_SUITE
from .validate import validate_matrix, format_report, CheckResult

__all__ = [
    "METHODS",
    "SStarSolver",
    "FactorizationReport",
    "ExperimentContext",
    "MemoCache",
    "prepare_pipeline",
    "SMALL_SUITE",
    "validate_matrix",
    "format_report",
    "CheckResult",
]
