"""Cluster configuration (the paper's 8c4f1p instance by default).

Latency and runtime-overhead parameters are first-order models of the
GVSOC platform the paper simulates: single-cycle TCDM hits, a 15-cycle
L2, one-stage pipelined shared FPUs, and an OpenMP runtime whose
fork/join costs are explicit instruction counts (the PULP runtime wakes
the team through the event unit; the tax is real and matters for small
payloads).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of one PULP cluster instance."""

    # -- topology ------------------------------------------------------------
    n_cores: int = 8
    n_fpus: int = 4
    n_l1_banks: int = 16
    n_l2_banks: int = 32
    tcdm_bytes: int = 64 * 1024
    l2_bytes: int = 512 * 1024

    # -- core timing ----------------------------------------------------------
    #: total cycles of a load/store hitting L2 (paper: 15-cycle latency).
    l2_latency: int = 15
    #: cycles an L2 bank (and its slice of the bus) stays busy per access;
    #: concurrent requesters to the same bank serialise on this window.
    l2_bank_occupancy: int = 4
    #: total cycles of a taken branch (issue + refetch bubble).
    jump_cycles: int = 2
    #: total cycles of an integer division on RI5CY.
    div_latency: int = 8
    #: total cycles of an FP division (occupies the shared FPU throughout).
    fpdiv_latency: int = 12
    #: cycles between a failed lock probe and the next attempt.
    lock_retry_cycles: int = 4

    # -- OpenMP runtime model ---------------------------------------------------
    #: integer ops the master executes to open a parallel region
    #: (team wake-up through the event unit, descriptor setup).
    fork_instrs: int = 80
    #: integer ops each team member executes entering the region
    #: (chunk-bound computation, frame setup).
    worker_prologue_instrs: int = 24
    #: integer ops the master executes after the join barrier.
    join_instrs: int = 16
    #: cycles between barrier release by the event unit and first issue.
    barrier_wakeup_cycles: int = 3

    # -- instruction cache -------------------------------------------------------
    #: instructions per I-cache line (refills counted on cold blocks).
    icache_line_instrs: int = 4

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise SimulationError("cluster needs at least one core")
        if self.n_fpus < 1 or self.n_fpus > self.n_cores:
            raise SimulationError("n_fpus must be in [1, n_cores]")
        if self.n_l1_banks < 1 or self.n_l1_banks & (self.n_l1_banks - 1):
            raise SimulationError("n_l1_banks must be a power of two")
        if self.n_l2_banks < 1 or self.n_l2_banks & (self.n_l2_banks - 1):
            raise SimulationError("n_l2_banks must be a power of two")
        if self.l2_latency < 1 or self.jump_cycles < 1:
            raise SimulationError("latencies must be at least one cycle")

    def fpu_of_core(self, core: int) -> int:
        """Fixed core-to-FPU mapping: cores ``u`` and ``u + n_fpus`` share FPU ``u``."""
        return core % self.n_fpus

    def cache_key(self) -> str:
        """Stable textual fingerprint for on-disk result caching."""
        fields = sorted(self.__dataclass_fields__)
        return ";".join(f"{name}={getattr(self, name)}" for name in fields)


#: The configuration evaluated in the paper (Montagna et al. 8c4f1p).
DEFAULT_CONFIG = ClusterConfig()
