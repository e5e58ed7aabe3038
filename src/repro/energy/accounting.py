"""Integrate an :class:`EnergyModel` over simulation counters.

The accounting follows the paper's scheme (§III.C): every *physical*
component contributes leakage over the whole kernel window regardless of
how many cores the team uses; switching energy follows the event counts;
a core cycle is exactly one of {issue of an opcode, active wait priced
as a NOP, clock-gated} so the per-core budget closes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.energy.model import EnergyModel
from repro.errors import EnergyModelError

if TYPE_CHECKING:  # avoid a circular package import at runtime
    from repro.sim.counters import ClusterCounters


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-component energies of one run, in femtojoules."""

    pe: float
    fpu: float
    l1: float
    l2: float
    icache: float
    dma: float
    other: float

    @property
    def total(self) -> float:
        return (self.pe + self.fpu + self.l1 + self.l2 + self.icache
                + self.dma + self.other)

    def as_dict(self) -> dict[str, float]:
        return {"pe": self.pe, "fpu": self.fpu, "l1": self.l1,
                "l2": self.l2, "icache": self.icache, "dma": self.dma,
                "other": self.other, "total": self.total}


def compute_energy(counters: "ClusterCounters",
                   model: EnergyModel) -> EnergyBreakdown:
    """Energy breakdown of one simulated run under *model*."""
    cycles = counters.cycles
    if cycles < 0:
        raise EnergyModelError(f"negative cycle count {cycles}")

    pe = 0.0
    for core in counters.cores:
        wait_cycles = core.stall_cycles + core.nop_ops
        pe += (model.pe.leakage * cycles
               + model.pe.alu * core.alu_class_ops
               + model.pe.fp * core.fp_class_ops
               + model.pe.l1 * core.l1_ops
               + model.pe.l2 * core.l2_ops
               + model.pe.nop * wait_cycles
               + model.pe.cg * core.cg_cycles)

    fpu = 0.0
    for ops in counters.fpu_ops:
        idle = cycles - ops
        if idle < 0:
            raise EnergyModelError("FPU busier than the kernel window")
        fpu += (model.fpu.leakage * cycles
                + model.fpu.operative * ops
                + model.fpu.idle * idle)

    l1 = 0.0
    for bank in counters.l1_banks:
        idle = cycles - bank.accesses
        if idle < 0:
            raise EnergyModelError("L1 bank busier than the kernel window")
        l1 += (model.l1_bank.leakage * cycles
               + model.l1_bank.read * bank.reads
               + model.l1_bank.write * bank.writes
               + model.l1_bank.idle * idle)

    l2 = 0.0
    for bank in counters.l2_banks:
        idle = cycles - bank.accesses
        if idle < 0:
            raise EnergyModelError("L2 bank busier than the kernel window")
        l2 += (model.l2_bank.leakage * cycles
               + model.l2_bank.read * bank.reads
               + model.l2_bank.write * bank.writes
               + model.l2_bank.idle * idle)

    icache = (model.icache.leakage * cycles
              + model.icache.use * counters.icache_fetches
              + model.icache.refill * counters.icache_refills)

    dma_idle = cycles - counters.dma_transfers  # one word per busy cycle
    if dma_idle < 0:
        raise EnergyModelError("DMA busier than the kernel window")
    dma = (model.dma.leakage * cycles
           + model.dma.transfer * counters.dma_transfers
           + model.dma.idle * dma_idle)

    other = model.other.leakage * cycles + model.other.active * cycles

    return EnergyBreakdown(pe=pe, fpu=fpu, l1=l1, l2=l2, icache=icache,
                           dma=dma, other=other)
