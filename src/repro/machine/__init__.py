"""Simulated distributed-memory machine.

The paper ran on Cray T3D and T3E.  Offline Python cannot drive real MPI
hardware at the fine message granularity the asynchronous S* codes need
(see DESIGN.md), so this package provides a deterministic **discrete-event
SPMD simulator**: ranks are Python generators that execute the *real*
numerics; compute and communication advance per-rank virtual clocks priced
by a :class:`MachineSpec` calibrated to the paper's published kernel and
network figures.

:mod:`faults` adds deterministic fault injection (message drop/duplicate/
delay/corrupt, rank crashes) and the opt-in reliable-delivery transport;
see DESIGN.md "Resilience".
"""

from .specs import MachineSpec, T3D, T3E, GENERIC, MACHINES, spec_by_name
from .faults import (
    FaultPlan,
    MessageFaultRule,
    CrashFault,
    ReliableDelivery,
    FaultStats,
)
from .simulator import (
    Simulator,
    Env,
    SimResult,
    SimTrace,
    MessageRecord,
    DeadlockError,
    DeliveryError,
    MessageLostError,
    PayloadMutationError,
    RankCrashedError,
    Timeout,
    TIMEOUT,
)

__all__ = [
    "MachineSpec",
    "T3D",
    "T3E",
    "GENERIC",
    "MACHINES",
    "spec_by_name",
    "FaultPlan",
    "MessageFaultRule",
    "CrashFault",
    "ReliableDelivery",
    "FaultStats",
    "Simulator",
    "Env",
    "SimResult",
    "SimTrace",
    "MessageRecord",
    "DeadlockError",
    "DeliveryError",
    "MessageLostError",
    "PayloadMutationError",
    "RankCrashedError",
    "Timeout",
    "TIMEOUT",
]
