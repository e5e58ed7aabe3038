"""Machine-code-analyser features (paper Table IIb).

The paper feeds its decision tree the statistics LLVM-MCA reports for the
kernel's instruction flow: micro-ops per cycle, IPC, reverse block
throughput, and the *resource pressure* on each execution port of the
modelled micro-architecture (ports 0-7 plus the integer and FP divider
units — the port naming in the paper's Table IIb).

This module reproduces that analysis for our abstract ISA: instructions
decompose into micro-ops, each eligible on a subset of ports; pressure is
the per-iteration cycle load the optimal (water-filling) dispatch places
on each port, mirroring how LLVM-MCA's scheduler balances eligible ports;
the reverse block throughput is the bottleneck resource's load.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FeatureError
from repro.features.static_counts import (
    KernelStaticSummary,
    StaticCounts,
    summarize_kernel,
)
from repro.ir.nodes import Kernel

MCA_FEATURES = ("uOPSpc", "IPC", "RBP", "RPDiv", "RPFPDiv",
                "RP0", "RP1", "RP2", "RP3", "RP4", "RP5", "RP6", "RP7")

N_PORTS = 8
DISPATCH_WIDTH = 4
#: divider occupancies (cycles per operation, matching core latencies)
DIV_RTHROUGHPUT = 8.0
FPDIV_RTHROUGHPUT = 12.0

#: micro-op groups in increasing port flexibility; (label, ports) pairs.
_UOP_GROUPS = (
    ("branch", (6,)),
    ("store_data", (4,)),
    ("div_uop", (0,)),
    ("fp", (0, 1)),
    ("load", (2, 3)),
    ("store_agu", (2, 3, 7)),
    ("alu", (0, 1, 5, 6)),
)


@dataclass(frozen=True)
class McaResult:
    """Per-iteration MCA statistics of one instruction mix."""

    uops_per_iteration: float
    instructions_per_iteration: float
    port_pressure: tuple
    div_pressure: float
    fpdiv_pressure: float

    @property
    def rblock_throughput(self) -> float:
        """Reverse block throughput: cycles per iteration at steady state."""
        bottleneck = max(
            self.uops_per_iteration / DISPATCH_WIDTH,
            max(self.port_pressure, default=0.0),
            self.div_pressure,
            self.fpdiv_pressure,
        )
        return max(bottleneck, 1e-12)

    @property
    def ipc(self) -> float:
        return self.instructions_per_iteration / self.rblock_throughput

    @property
    def uops_per_cycle(self) -> float:
        return self.uops_per_iteration / self.rblock_throughput

    def as_features(self) -> dict[str, float]:
        feats = {
            "uOPSpc": self.uops_per_cycle,
            "IPC": self.ipc,
            "RBP": self.rblock_throughput,
            "RPDiv": self.div_pressure,
            "RPFPDiv": self.fpdiv_pressure,
        }
        for port in range(N_PORTS):
            feats[f"RP{port}"] = self.port_pressure[port]
        return feats


def _waterfill(loads: list[float], ports: tuple, amount: float) -> None:
    """Distribute *amount* uops over *ports*, equalising the final loads.

    Classic continuous water-filling: repeatedly raise the least-loaded
    eligible ports together until the amount is exhausted.  This is the
    min-max-optimal assignment for divisible unit work, which is what
    LLVM-MCA's average pressure figures converge to.
    """
    if amount <= 0.0:
        return
    levels = sorted(ports, key=lambda p: loads[p])
    remaining = amount
    active = [levels[0]]
    for nxt in levels[1:]:
        gap = loads[nxt] - loads[active[0]]
        fill = gap * len(active)
        if fill >= remaining:
            break
        remaining -= fill
        for port in active:
            loads[port] = loads[nxt]
        active.append(nxt)
    per_port = remaining / len(active)
    for port in active:
        loads[port] += per_port


def analyse_mix(counts: StaticCounts, iterations: float) -> McaResult:
    """Run the port model on a trip-weighted mix over *iterations*."""
    if iterations <= 0:
        raise FeatureError("cannot analyse a mix with zero iterations")
    scale = 1.0 / iterations
    group_amounts = {
        "branch": counts.jump * scale,
        "store_data": (counts.l1_stores + counts.l2_stores
                       + counts.lock_ops) * scale,
        "div_uop": (counts.div + counts.fpdiv) * scale,
        "fp": (counts.fp + counts.fpdiv) * scale,
        "load": (counts.l1_loads + counts.l2_loads
                 + counts.lock_ops) * scale,
        "store_agu": (counts.l1_stores + counts.l2_stores
                      + counts.lock_ops) * scale,
        "alu": (counts.alu + counts.nop) * scale,
    }
    # FP divisions already consume the div_uop slot; plain FP ops use the
    # "fp" group, so subtract the double-counted fdiv uops from it.
    group_amounts["fp"] -= counts.fpdiv * scale

    loads = [0.0] * N_PORTS
    for label, ports in _UOP_GROUPS:
        _waterfill(loads, ports, group_amounts[label])

    uops = sum(group_amounts.values())
    instructions = (counts.instructions + counts.lock_ops) * scale
    return McaResult(
        uops_per_iteration=uops,
        instructions_per_iteration=instructions,
        port_pressure=tuple(loads),
        div_pressure=(counts.div * DIV_RTHROUGHPUT
                      + counts.fpdiv * FPDIV_RTHROUGHPUT) * scale,
        fpdiv_pressure=counts.fpdiv * FPDIV_RTHROUGHPUT * scale,
    )


def extract_mca(kernel: Kernel,
                summary: KernelStaticSummary | None = None
                ) -> dict[str, float]:
    """Kernel-level MCA features.

    Each parallel region is analysed per iteration of its work-share
    loop; region results are averaged weighted by the region's share of
    the kernel's instructions (the hot region dominates, like the hot
    loop dominates an LLVM-MCA run over the kernel's text).  *summary*
    is the kernel's :func:`summarize_kernel` result when the caller
    already has it; without it the kernel is summarised here.
    """
    if summary is None:
        summary = summarize_kernel(kernel)
    results: list[tuple[float, dict]] = []
    # identical region instances (say, one per iteration of an enclosing
    # sequential-for) share one analysis; the merge below still visits
    # every instance in order
    analysed: dict[tuple, dict] = {}
    for counts, trip in zip(summary.region_counts, summary.region_trips):
        if trip <= 0:
            continue
        key = (*vars(counts).values(), trip)
        features = analysed.get(key)
        if features is None:
            features = analysed[key] = analyse_mix(
                counts, float(trip)).as_features()
        results.append((counts.instructions, features))
    if not results:
        raise FeatureError(f"kernel {kernel.name!r} has no analysable "
                           f"parallel region")
    total_weight = sum(w for w, _ in results) or 1.0
    merged: dict[str, float] = {name: 0.0 for name in MCA_FEATURES}
    for weight, features in results:
        for name, value in features.items():
            merged[name] += value * (weight / total_weight)
    return merged


def mca_report(kernel: Kernel) -> str:
    """Human-readable report in the spirit of ``llvm-mca`` output."""
    features = extract_mca(kernel)
    lines = [
        f"MCA summary for kernel {kernel.name!r}",
        f"  uOps per cycle:            {features['uOPSpc']:8.3f}",
        f"  IPC:                       {features['IPC']:8.3f}",
        f"  Reverse block throughput:  {features['RBP']:8.3f}",
        "",
        "Resource pressure per iteration:",
        f"  Divider:                   {features['RPDiv']:8.3f}",
        f"  FP divider:                {features['RPFPDiv']:8.3f}",
    ]
    for port in range(N_PORTS):
        lines.append(f"  Port {port}:                    "
                     f"{features[f'RP{port}']:8.3f}")
    return "\n".join(lines)
