"""Communication-volume analysis of simulated runs.

Summarises a run's message traffic — counts, bytes, per-rank fan-out and a
log2 size histogram — and computes the *predicted* 1D communication volume
from the task graph (each factored column travels once per consumer
processor), which the paper's delayed-pivoting/message-aggregation design
minimises.
"""

from __future__ import annotations

from dataclasses import dataclass



@dataclass
class CommReport:
    """Aggregate message statistics of one simulated run."""

    messages: int
    bytes_total: int
    per_rank_messages: list
    per_rank_bytes: list

    @property
    def mean_message_bytes(self) -> float:
        return self.bytes_total / self.messages if self.messages else 0.0

    def imbalance(self) -> float:
        """max/mean per-rank byte volume (1.0 = perfectly even)."""
        if not self.per_rank_bytes or sum(self.per_rank_bytes) == 0:
            return 1.0
        mean = sum(self.per_rank_bytes) / len(self.per_rank_bytes)
        return max(self.per_rank_bytes) / mean if mean else 1.0


def comm_report_from_envs(envs) -> CommReport:
    """Per-rank-resolved report straight from the simulator's Env objects."""
    return CommReport(
        messages=sum(e.sent_messages for e in envs),
        bytes_total=sum(e.sent_bytes for e in envs),
        per_rank_messages=[e.sent_messages for e in envs],
        per_rank_bytes=[e.sent_bytes for e in envs],
    )


def predicted_1d_volume(tg, schedule) -> int:
    """Bytes the 1D consumer-multicast design must move: each factored
    column block once per remote consumer processor."""
    total = 0
    for k in range(tg.N):
        consumers = {
            int(schedule.owner[t[2]])
            for t in tg.succ.get(("F", k), ())
            if t[0] == "U"
        } - {int(schedule.owner[k])}
        total += tg.col_bytes[k] * len(consumers)
    return total
