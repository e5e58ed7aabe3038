"""Ablations beyond the paper (A1/A2 in DESIGN.md).

A1 — energy-model sensitivity: re-label the dataset under Table-I
variants (zero leakage, scaled background, pricier active waits) and
compare label distributions.  Cached simulation counters are reused, so
only the energy integration reruns.

A2 — pruning sweep: accuracy at a fixed tolerance as a function of how
many top-importance features the tree keeps, quantifying the plateau the
paper's ``static-opt`` sits on.

Both ablations are thin clients: A1 re-labels through
:func:`repro.dataset.build.build_dataset`, A2 ranks and scores through
:func:`repro.api.rank_features` / :func:`repro.api.evaluate_features`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import evaluate_features, rank_features
from repro.dataset.build import Dataset, build_dataset
from repro.dataset.table import ColumnTable
from repro.energy.model import EnergyModel
from repro.features.sets import feature_names


@dataclass
class EnergyModelAblation:
    profile: str
    distributions: dict = field(default_factory=dict)  # variant -> {label: n}

    def render(self) -> str:
        labels = sorted({label for dist in self.distributions.values()
                         for label in dist})
        table = ColumnTable(["variant"] + [f"c{label}" for label in labels])
        for variant, dist in self.distributions.items():
            table.add_row(variant, *[dist.get(label, 0)
                                     for label in labels])
        return "\n".join([
            "A1: label distribution under energy-model variants",
            table.render(),
        ])


def run_energy_model_ablation(profile: str = "paper") -> EnergyModelAblation:
    base = EnergyModel.paper_table1()
    variants = {
        "table1": base,
        "zero-leakage": base.zero_leakage(),
        "leakage-x4": base.scaled(leakage=4.0),
        "nop-x4": base.scaled(nop=4.0),
    }
    result = EnergyModelAblation(profile=profile)
    for name, model in variants.items():
        dataset = build_dataset(profile, model=model)
        result.distributions[name] = dataset.class_distribution()
    return result


@dataclass
class PruningSweep:
    tolerance: float
    points: list = field(default_factory=list)  # (k, accuracy)

    def render(self) -> str:
        table = ColumnTable(["features kept", f"accuracy @{self.tolerance:g}%"])
        for k, acc in self.points:
            table.add_row(k, acc)
        return "\n".join([
            "A2: accuracy vs number of top-importance static features",
            table.render(),
        ])


def run_pruning_sweep(dataset: Dataset, repeats: int = 5,
                      ks=(1, 2, 3, 4, 6, 8, 12, 16, 20)) -> PruningSweep:
    """Accuracy at 5% tolerance keeping the top-*k* static features."""
    names = feature_names("static-all")
    tolerance, n_splits, seed = 5.0, 10, 0
    ranking = rank_features(dataset, names, n_splits=n_splits,
                            repeats=repeats, seed=seed)
    sweep = PruningSweep(tolerance=tolerance)
    for k in ks:
        if k > len(ranking):
            break
        kept = [name for name, _ in ranking[:k]]
        report = evaluate_features(dataset, kept, tolerances=[tolerance],
                                   n_splits=n_splits, repeats=repeats,
                                   seed=seed)
        sweep.points.append((k, report.curve[0]))
    return sweep
