"""RAW static features (paper Table IIa, after Grewe et al. CGO'13).

The paper keeps four of the six original OpenCL metrics, adapted to
PULP/OpenMP:

* ``op`` — number of computational opcodes (ALU, FP and JUMP families);
* ``tcdm`` — number of accesses to the on-cluster TCDM (all data lives
  there; the global/local and coalescing distinctions of the GPU world
  do not apply);
* ``transfer`` — amount of data the kernel works on, in bytes;
* ``avgws`` — average number of iterations of the kernel's parallel
  regions (the OpenMP replacement for OpenCL's per-kernel work-items).
"""

from __future__ import annotations

from repro.ir.nodes import Kernel
from repro.features.static_counts import KernelStaticSummary, summarize_kernel

RAW_FEATURES = ("op", "tcdm", "transfer", "avgws")


def extract_raw(kernel: Kernel,
                summary: KernelStaticSummary | None = None
                ) -> dict[str, float]:
    """Extract the four RAW metrics from a kernel's IR.

    *summary* is the kernel's :func:`summarize_kernel` result when the
    caller already has it; without it the kernel is summarised here.
    """
    if summary is None:
        summary = summarize_kernel(kernel)
    trips = summary.region_trips
    avgws = sum(trips) / len(trips) if trips else 0.0
    return {
        "op": summary.total.comp,
        "tcdm": summary.total.tcdm,
        "transfer": float(kernel.total_array_bytes),
        "avgws": avgws,
    }
