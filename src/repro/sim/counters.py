"""Event counters accumulated during a simulation.

These are the quantities GVSOC traces expose (paper §IV.A): per-core
opcode counts split by class, active-wait and clock-gated cycles,
per-bank read/write/conflict counts, FPU activity, I-cache traffic.
Energy accounting and the dynamic features (paper Table III) are both
pure functions of one :class:`ClusterCounters` instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError


@dataclass
class CoreCounters:
    """Per-core event counts over the kernel window."""

    alu_ops: int = 0        # single-cycle integer ops (incl. address math)
    jump_ops: int = 0       # taken branches
    div_ops: int = 0        # integer divisions
    fp_ops: int = 0         # FP ops executed on the shared FPU
    fpdiv_ops: int = 0      # FP divisions
    l1_ops: int = 0         # TCDM accesses issued (loads+stores+lock words)
    l2_ops: int = 0         # L2 accesses issued
    nop_ops: int = 0        # explicit NOP instructions
    stall_cycles: int = 0   # active-wait cycles (contention / multi-cycle)
    cg_cycles: int = 0      # clock-gated cycles (barriers, idle team slots)

    @property
    def issue_cycles(self) -> int:
        """Cycles spent issuing an instruction of any class."""
        return (self.alu_ops + self.jump_ops + self.div_ops + self.fp_ops
                + self.fpdiv_ops + self.l1_ops + self.l2_ops + self.nop_ops)

    @property
    def alu_class_ops(self) -> int:
        """Opcodes priced as ALU by the energy model (paper groups
        branches and dividers with the integer datapath)."""
        return self.alu_ops + self.jump_ops + self.div_ops

    @property
    def fp_class_ops(self) -> int:
        return self.fp_ops + self.fpdiv_ops

    def as_dict(self) -> dict[str, int]:
        return {
            "alu_ops": self.alu_ops, "jump_ops": self.jump_ops,
            "div_ops": self.div_ops, "fp_ops": self.fp_ops,
            "fpdiv_ops": self.fpdiv_ops, "l1_ops": self.l1_ops,
            "l2_ops": self.l2_ops, "nop_ops": self.nop_ops,
            "stall_cycles": self.stall_cycles, "cg_cycles": self.cg_cycles,
        }


@dataclass
class BankCounters:
    """Per-memory-bank event counts."""

    reads: int = 0
    writes: int = 0
    conflicts: int = 0      # requests deferred because the port was taken

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    def as_dict(self) -> dict[str, int]:
        return {"reads": self.reads, "writes": self.writes,
                "conflicts": self.conflicts}


@dataclass
class ClusterCounters:
    """All counters of one simulation run."""

    n_cores: int
    n_l1_banks: int
    n_l2_banks: int
    n_fpus: int
    cycles: int = 0
    cores: list = field(default_factory=list)
    l1_banks: list = field(default_factory=list)
    l2_banks: list = field(default_factory=list)
    fpu_ops: list = field(default_factory=list)
    icache_fetches: int = 0
    icache_refills: int = 0
    dma_transfers: int = 0

    def __post_init__(self) -> None:
        if not self.cores:
            self.cores = [CoreCounters() for _ in range(self.n_cores)]
        if not self.l1_banks:
            self.l1_banks = [BankCounters() for _ in range(self.n_l1_banks)]
        if not self.l2_banks:
            self.l2_banks = [BankCounters() for _ in range(self.n_l2_banks)]
        if not self.fpu_ops:
            self.fpu_ops = [0] * self.n_fpus

    # -- aggregate views --------------------------------------------------------

    @property
    def total_l1_reads(self) -> int:
        return sum(b.reads for b in self.l1_banks)

    @property
    def total_l1_writes(self) -> int:
        return sum(b.writes for b in self.l1_banks)

    @property
    def total_l1_conflicts(self) -> int:
        return sum(b.conflicts for b in self.l1_banks)

    def validate(self) -> None:
        """Check the per-core cycle budget adds up to the kernel window."""
        for idx, core in enumerate(self.cores):
            budget = core.issue_cycles + core.stall_cycles + core.cg_cycles
            if budget != self.cycles:
                raise SimulationError(
                    f"core {idx}: cycle budget {budget} != window "
                    f"{self.cycles}")

    # -- (de)serialisation for the on-disk cache ----------------------------------

    def as_dict(self) -> dict:
        return {
            "n_cores": self.n_cores,
            "n_l1_banks": self.n_l1_banks,
            "n_l2_banks": self.n_l2_banks,
            "n_fpus": self.n_fpus,
            "cycles": self.cycles,
            "cores": [c.as_dict() for c in self.cores],
            "l1_banks": [b.as_dict() for b in self.l1_banks],
            "l2_banks": [b.as_dict() for b in self.l2_banks],
            "fpu_ops": list(self.fpu_ops),
            "icache_fetches": self.icache_fetches,
            "icache_refills": self.icache_refills,
            "dma_transfers": self.dma_transfers,
        }

    @staticmethod
    def from_dict(data: dict) -> "ClusterCounters":
        counters = ClusterCounters(
            n_cores=data["n_cores"],
            n_l1_banks=data["n_l1_banks"],
            n_l2_banks=data["n_l2_banks"],
            n_fpus=data["n_fpus"],
            cycles=data["cycles"],
            cores=[CoreCounters(**c) for c in data["cores"]],
            l1_banks=[BankCounters(**b) for b in data["l1_banks"]],
            l2_banks=[BankCounters(**b) for b in data["l2_banks"]],
            fpu_ops=list(data["fpu_ops"]),
        )
        counters.icache_fetches = data["icache_fetches"]
        counters.icache_refills = data["icache_refills"]
        counters.dma_transfers = data["dma_transfers"]
        return counters
