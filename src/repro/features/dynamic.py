"""Dynamic features (paper Table III), per simulated team size.

The paper's dynamic features are read off the GVSOC traces for each of
the eight parallelism configurations; a sample's dynamic feature vector
therefore contains every metric **per team size** ("PE sleep 8" in
Table IV is the clock-gating fraction measured with 8 cores).

Aggregation across the cluster's physical components follows the trace
semantics: fractions are averaged over the 8 cores, event counts are
summed over cores/banks.
"""

from __future__ import annotations

from repro.sim.counters import ClusterCounters

DYNAMIC_METRICS = (
    "PE_idle",       # fraction: contention / multi-cycle wait cycles
    "PE_sleep",      # fraction: clock-gated cycles
    "PE_alu",        # count: ALU-class opcodes
    "PE_fp",         # count: FP-class opcodes
    "PE_l1",         # count: TCDM access opcodes
    "PE_l2",         # count: L2 access opcodes
    "L1_idle",       # count: idle bank-cycles over all TCDM banks
    "L1_read",       # count: reads over all TCDM banks
    "L1_write",      # count: writes over all TCDM banks
    "L1_conflicts",  # count: conflicted requests over all TCDM banks
)


def extract_dynamic(counters: ClusterCounters) -> dict[str, float]:
    """The ten Table-III metrics of one simulated run."""
    cycles = counters.cycles or 1
    n_cores = counters.n_cores
    idle = sum(c.stall_cycles for c in counters.cores) / (cycles * n_cores)
    sleep = sum(c.cg_cycles for c in counters.cores) / (cycles * n_cores)
    return {
        "PE_idle": idle,
        "PE_sleep": sleep,
        "PE_alu": float(sum(c.alu_class_ops for c in counters.cores)),
        "PE_fp": float(sum(c.fp_class_ops for c in counters.cores)),
        "PE_l1": float(sum(c.l1_ops for c in counters.cores)),
        "PE_l2": float(sum(c.l2_ops for c in counters.cores)),
        "L1_idle": float(sum(cycles - b.accesses
                             for b in counters.l1_banks)),
        "L1_read": float(counters.total_l1_reads),
        "L1_write": float(counters.total_l1_writes),
        "L1_conflicts": float(counters.total_l1_conflicts),
    }


def dynamic_feature_names() -> list[str]:
    """Flat feature names, one per (metric, team size 1..8) pair."""
    return [f"{metric}@{team}" for metric in DYNAMIC_METRICS
            for team in range(1, 9)]


def flatten_dynamic(per_team: dict[int, dict[str, float]]) -> dict[str, float]:
    """Merge per-team metric dicts into the flat ``metric@team`` form."""
    flat: dict[str, float] = {}
    for team, metrics in sorted(per_team.items()):
        for metric, value in metrics.items():
            flat[f"{metric}@{team}"] = value
    return flat
