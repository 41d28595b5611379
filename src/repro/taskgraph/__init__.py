"""Task DAG construction for the partitioned sparse LU (Section 4.1)."""

from .dag import TaskGraph, build_task_graph, task_graph_of, FACTOR, UPDATE
from .profile import parallelism_profile, ParallelismProfile

__all__ = [
    "TaskGraph",
    "build_task_graph",
    "task_graph_of",
    "FACTOR",
    "UPDATE",
    "parallelism_profile",
    "ParallelismProfile",
]
