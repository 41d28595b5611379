"""FLOP accounting by BLAS kernel class and block granularity.

The paper's central performance argument is *which kernel class executes the
flops*: S* routes most update flops through BLAS-3 ``DGEMM`` while SuperLU is
BLAS-2 ``DGEMV``-bound.  Every numeric kernel in this package reports its
flops to a :class:`KernelCounter` tagged with a kernel class and, where it
matters, the block width it operated at; a
:class:`repro.machine.MachineSpec` then converts the tally into modeled
seconds at the published per-kernel rates, derated for narrow blocks (the
cache effect that makes supernode amalgamation profitable).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Kernel classes
DGEMM = "dgemm"  # BLAS-3 matrix-matrix
DGEMV = "dgemv"  # BLAS-2 matrix-vector / rank-1
BLAS1 = "blas1"  # scaling, axpy, pivot search


@dataclass
class KernelCounter:
    """Tally of floating-point operations per kernel class.

    ``flops`` aggregates per kernel name (for the DGEMM-fraction statistics);
    ``by_gran`` keeps the ``(kernel, granularity)`` breakdown used for
    time modeling.
    """

    flops: dict = field(default_factory=dict)
    by_gran: dict = field(default_factory=dict)
    # open accounting window (``Env.begin_counted``): first-touch snapshot
    # values of the ``by_gran`` keys mutated since the window opened, so the
    # time model can price exactly the delta without scanning the whole
    # tally.  ``_korder`` records each key's global insertion index so the
    # window replays deltas in ``by_gran`` order.
    _touched: dict = field(default=None, init=False, repr=False, compare=False)
    _korder: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def add(self, kernel: str, nflops: float, gran=None) -> None:
        nflops = float(nflops)
        f = self.flops
        f[kernel] = f.get(kernel, 0.0) + nflops
        key = (kernel, gran)
        g = self.by_gran
        prev = g.get(key)
        if prev is None:
            self._korder[key] = len(self._korder)
            prev = 0.0
        t = self._touched
        if t is not None and key not in t:
            t[key] = prev
        g[key] = prev + nflops

    @property
    def total(self) -> float:
        return sum(self.flops.values())

    def fraction(self, kernel: str) -> float:
        """Fraction of all flops executed by ``kernel`` (the paper's
        ">64 percent of numerical updates ... by DGEMM" statistic)."""
        t = self.total
        return self.flops.get(kernel, 0.0) / t if t else 0.0

    def merge(self, other: "KernelCounter") -> None:
        for k, v in other.flops.items():
            self.flops[k] = self.flops.get(k, 0.0) + v
        for k, v in other.by_gran.items():
            if k not in self.by_gran:
                self._korder[k] = len(self._korder)
            self.by_gran[k] = self.by_gran.get(k, 0.0) + v

    def copy(self) -> "KernelCounter":
        c = KernelCounter()
        c.flops = dict(self.flops)
        c.by_gran = dict(self.by_gran)
        c._korder = dict(self._korder)
        return c

    def modeled_seconds(self, spec) -> float:
        """Convert the tally to seconds using a machine spec's kernel rates
        (granularity-aware)."""
        return spec.kernel_seconds(self.by_gran)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{k}={v:.3g}" for k, v in sorted(self.flops.items()))
        return f"KernelCounter({parts})"
