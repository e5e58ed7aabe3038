"""Result containers and the per-kernel core sweep.

``sweep_cores`` is step (C) of the paper's workflow: simulate the same
kernel once per team size, attach the Table-I energy, and report the
minimum-energy core count (the sample's label).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.accounting import EnergyBreakdown, compute_energy
from repro.energy.model import EnergyModel
from repro.ir.nodes import Kernel
from repro.platform.config import ClusterConfig
from repro.sim.counters import ClusterCounters
from repro.sim.engine import simulate


@dataclass(frozen=True)
class SimulationResult:
    """One (kernel, team size) simulation with its energy breakdown."""

    kernel_name: str
    team_size: int
    counters: ClusterCounters
    energy: EnergyBreakdown

    @property
    def cycles(self) -> int:
        return self.counters.cycles

    @property
    def total_energy_fj(self) -> float:
        return self.energy.total


def run_one(kernel: Kernel, team_size: int,
            config: ClusterConfig | None = None,
            model: EnergyModel | None = None) -> SimulationResult:
    """Simulate one configuration and account its energy."""
    config = config or ClusterConfig()
    model = model or EnergyModel.paper_table1()
    counters = simulate(kernel, team_size, config)
    return SimulationResult(kernel.name, team_size, counters,
                            compute_energy(counters, model))


def sweep_cores(kernel: Kernel, config: ClusterConfig | None = None,
                team_sizes: tuple[int, ...] | None = None,
                ) -> list[SimulationResult]:
    """Simulate *kernel* for every team size (1..n_cores by default)."""
    config = config or ClusterConfig()
    sizes = team_sizes or tuple(range(1, config.n_cores + 1))
    return [run_one(kernel, n, config) for n in sizes]


def minimum_energy_label(results: list[SimulationResult]) -> int:
    """The paper's label: the team size with minimum total energy."""
    best = min(results, key=lambda r: r.total_energy_fj)
    return best.team_size
