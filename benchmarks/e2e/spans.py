"""Host-time spans recorded by the benchmark around calls into each layer.

Spans are kept in memory as rows and written out once, when the episode
ends, as Chrome-trace JSON.  The tree is ``workload -> round -> op ->
section -> layer call``: the three sections of an op are ``e2e`` (the
public end-to-end call), ``staged`` (the benchmark calling the layers'
public functions in pipeline order on the same input) and ``extra``
(layer calls that are not on the op's path, e.g. a memoised task graph
rebuilt to see what it costs).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

#: layer of the structural spans the benchmark adds itself
BENCH = "bench"
SECTIONS = ("e2e", "staged", "extra")

NAME, LAYER, PARENT, OP, START, END = range(6)


class SpanLog:
    """Append-only span rows ``[name, layer, parent index, op id, start, end]``."""

    def __init__(self):
        self.rows = []
        self._open = []

    @contextmanager
    def span(self, name: str, layer: str, op: str = None):
        """Time the body.  ``op`` defaults to the enclosing span's op id, so
        every span below an op span carries that op's identifier."""
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.rows[parent][OP]
        row = [name, layer, parent, op, 0.0, None]
        self._open.append(len(self.rows))
        self.rows.append(row)
        row[START] = time.perf_counter()
        try:
            yield row
        finally:
            row[END] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` under a span; returns its result."""
        with self.span(name, layer):
            return fn(*args, **kwargs)

    # -- analysis ------------------------------------------------------

    def sections(self) -> list:
        """Per row: which op section (``e2e``/``staged``/``extra``) it lies
        in, or ``None`` for the structural spans above the sections."""
        out = []
        for name, layer, parent, *_ in self.rows:
            if layer == BENCH and name in SECTIONS:
                out.append(name)
            else:
                out.append(out[parent] if parent is not None else None)
        return out

    def self_times(self, first: int = 0) -> dict:
        """Row index -> duration minus the durations of its direct children,
        for the (closed) rows from ``first`` on."""
        selfs = {}
        for idx in range(first, len(self.rows)):
            row = self.rows[idx]
            dur = row[END] - row[START]
            selfs[idx] = dur  # a parent's row precedes its children's
            if row[PARENT] is not None and row[PARENT] >= first:
                selfs[row[PARENT]] -= dur
        return selfs

    def to_chrome_trace(self, metadata: dict) -> dict:
        """Chrome ``trace_event`` document (complete ``X`` events on one
        thread nest by time, which is the parent/child relation)."""
        t0 = self.rows[0][START] if self.rows else 0.0
        events = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 1,
             "args": {"name": "benchmarks/e2e host time"}},
        ]
        for idx, (name, layer, parent, op, start, end) in enumerate(self.rows):
            events.append({
                "ph": "X", "name": name, "cat": layer, "pid": 1, "tid": 1,
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": idx, "parent": parent, "op": op},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata, time_unit="host"),
        }
