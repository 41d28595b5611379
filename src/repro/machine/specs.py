"""Machine cost models calibrated from the paper (Section 6).

Published figures used for calibration:

Cray T3D
    DGEMM 103 MFLOPS, DGEMV 85 MFLOPS (block size 25, in cache);
    shmem_put: 126 MB/s bandwidth, 2.7 us overhead.
Cray T3E
    DGEMM 388 MFLOPS, DGEMV 255 MFLOPS (block size 25);
    peak 500 MB/s inter-node bandwidth, 0.5-2 us round-trip latency
    (we use 1 us one-way).

BLAS-1 work (scaling, pivot search) is priced slightly below the DGEMV
rate, reflecting its lower cache reuse.
"""

from __future__ import annotations

from dataclasses import dataclass


#: surface-to-volume half-width per kernel class: a kernel operating on
#: blocks of width g runs at peak * (g / (g + half)) / (ref / (ref + half)),
#: normalised so the paper's published rates hold at the reference block
#: size 25.  DGEMM gains the most from wide blocks (cache reuse grows with
#: the inner dimension); DGEMV a little; BLAS-1 is streaming either way.
GRAN_HALF = {"dgemm": 8.0, "dgemv": 2.0, "blas1": 0.0}
REF_GRAN = 25.0


@dataclass(frozen=True)
class MachineSpec:
    """Per-kernel compute rates and a latency/bandwidth network model.

    Kernel rates are the paper's measured numbers at block size 25; the
    granularity-efficiency curve (``GRAN_HALF``) scales them down for
    narrower blocks, modelling the cache behaviour that makes supernode
    amalgamation pay off (Section 3.3).
    """

    name: str
    dgemm_mflops: float
    dgemv_mflops: float
    blas1_mflops: float
    latency_s: float  # per-message send overhead / latency
    bandwidth_bps: float  # bytes per second
    barrier_factor: float = 2.0  # barrier cost = factor * latency * log2(p)

    def __post_init__(self):
        # (kernel, gran) -> flops/s memo; the efficiency curve is pure, so
        # each pair is priced once per spec instance (the simulator prices
        # every compute span through here — it is a host hot path)
        object.__setattr__(self, "_rate_cache", {})

    def efficiency(self, kernel: str, gran) -> float:
        """Granularity efficiency relative to the reference block size."""
        if gran is None:
            return 1.0
        half = GRAN_HALF.get(kernel, 0.0)
        if half <= 0.0:
            return 1.0
        g = max(float(gran), 1.0)
        return (g / (g + half)) / (REF_GRAN / (REF_GRAN + half))

    def kernel_rate(self, kernel: str, gran=None) -> float:
        """Flops/second for a kernel class at block granularity ``gran``
        (None = the nominal, block-25 rate)."""
        try:
            return self._rate_cache[(kernel, gran)]
        except KeyError:
            pass
        rates = {
            "dgemm": self.dgemm_mflops,
            "dgemv": self.dgemv_mflops,
            "blas1": self.blas1_mflops,
        }
        rate = rates[kernel] * 1e6 * self.efficiency(kernel, gran)
        self._rate_cache[(kernel, gran)] = rate
        return rate

    def kernel_seconds(self, flops_by_kernel: dict) -> float:
        """Seconds to execute a tally keyed either by kernel name or by
        ``(kernel, granularity)`` pairs (KernelCounter's ``by_gran``)."""
        total = 0.0
        for key, fl in flops_by_kernel.items():
            if isinstance(key, tuple):
                kernel, gran = key
            else:
                kernel, gran = key, None
            total += fl / self.kernel_rate(kernel, gran)
        return total

    def compute_seconds(self, kernel: str, nflops: float, gran=None) -> float:
        return nflops / self.kernel_rate(kernel, gran)

    def message_seconds(self, nbytes: float) -> float:
        """In-flight time of one message."""
        return self.latency_s + nbytes / self.bandwidth_bps

    def barrier_seconds(self, nprocs: int) -> float:
        import math

        return self.barrier_factor * self.latency_s * max(1.0, math.log2(max(nprocs, 2)))


T3D = MachineSpec(
    name="T3D",
    dgemm_mflops=103.0,
    dgemv_mflops=85.0,
    blas1_mflops=60.0,
    latency_s=2.7e-6,
    bandwidth_bps=126e6,
)

T3E = MachineSpec(
    name="T3E",
    dgemm_mflops=388.0,
    dgemv_mflops=255.0,
    blas1_mflops=180.0,
    latency_s=1.0e-6,
    bandwidth_bps=500e6,
)

#: A neutral modern-ish machine for examples (not used by the paper benches).
GENERIC = MachineSpec(
    name="GENERIC",
    dgemm_mflops=2000.0,
    dgemv_mflops=600.0,
    blas1_mflops=400.0,
    latency_s=2.0e-6,
    bandwidth_bps=1e9,
)

#: the built-in machines by name — the one table ``--machine`` choices and
#: :func:`spec_by_name` read
MACHINES = {spec.name: spec for spec in (T3D, T3E, GENERIC)}


def spec_by_name(name: str) -> MachineSpec:
    """The built-in :class:`MachineSpec` called ``name`` (any case)."""
    spec = MACHINES.get(str(name).upper())
    if spec is None:
        raise ValueError(
            f"unknown machine {name!r}: expected one of {tuple(MACHINES)}")
    return spec
