"""FLOP accounting by BLAS kernel class and block granularity.

The paper's central performance argument is *which kernel class executes the
flops*: S* routes most update flops through BLAS-3 ``DGEMM`` while SuperLU is
BLAS-2 ``DGEMV``-bound.  A :class:`KernelCounter` tallies flops tagged
with a kernel class and, where it matters, the block width the kernel
operates at; a :class:`repro.machine.MachineSpec` then converts the tally
into modeled seconds at the published per-kernel rates, derated for narrow
blocks (the cache effect that makes supernode amalgamation profitable).

The charges of ``Factor(K)`` and ``Update(K, J)`` depend on the pattern
alone, so the kernels do not count: :class:`repro.numfact.NumericPlan`
gives each task's ordered charges and the tally of a whole sequential
sweep, and a 1D rank adds prices computed from them once per schedule
(:mod:`repro.parallel.oned`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Kernel classes
DGEMM = "dgemm"  # BLAS-3 matrix-matrix
DGEMV = "dgemv"  # BLAS-2 matrix-vector / rank-1
BLAS1 = "blas1"  # scaling, axpy, pivot search
#: every kernel class, in the order compact charge tables code them
KERNEL_CLASSES = (BLAS1, DGEMV, DGEMM)


@dataclass
class KernelCounter:
    """Tally of floating-point operations per kernel class.

    ``flops`` aggregates per kernel name (for the DGEMM-fraction statistics);
    ``by_gran`` keeps the ``(kernel, granularity)`` breakdown used for
    time modeling.
    """

    flops: dict = field(default_factory=dict)
    by_gran: dict = field(default_factory=dict)

    def add(self, kernel: str, nflops: float, gran=None) -> None:
        """Charge ``nflops`` to ``kernel`` at ``gran``; a zero charge still
        creates its keys (the insertion order is part of the tally)."""
        nflops = float(nflops)
        f = self.flops
        f[kernel] = f.get(kernel, 0.0) + nflops
        g = self.by_gran
        key = (kernel, gran)
        g[key] = g.get(key, 0.0) + nflops

    def add_all(self, charges) -> None:
        """Add ``(kernel, gran, flops)`` charges in order, as
        :meth:`repro.numfact.NumericPlan.factor_charges` and
        :meth:`~repro.numfact.NumericPlan.update_charges` list them."""
        for kernel, gran, nflops in charges:
            self.add(kernel, nflops, gran)

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
            self.by_gran[k] = self.by_gran.get(k, 0.0) + v

    def copy(self) -> "KernelCounter":
        return KernelCounter(dict(self.flops), dict(self.by_gran))

    def modeled_seconds(self, spec) -> float:
        """Convert the tally to seconds using a machine spec's kernel rates
        (granularity-aware)."""
        return spec.kernel_seconds(self.by_gran)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{k}={v:.3g}" for k, v in sorted(self.flops.items()))
        return f"KernelCounter({parts})"
