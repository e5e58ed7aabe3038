"""Figure 2: classification accuracy vs energy-tolerance threshold.

Left panel: ``static-agg``, ``static-opt``, ``dynamic``, ``dynamic-opt``
against the naive ``always-8`` policy.  Right panel: the static
feature-set exploration (``static-raw+mca``, ``static-agg``,
``static-agg+mca``, ``static-opt``).

This driver is a thin client of :mod:`repro.api`: every learned series
is one :func:`repro.api.evaluate_features` call, the baseline series is
the registered ``always-k`` model family, and the ``*-opt`` series
prune their base sets through :func:`repro.api.optimised_set`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import (
    Classifier,
    ReproConfig,
    evaluate_features,
    optimised_set,
)
from repro.api.config import DEFAULT_TOLERANCES, cv_repeats
from repro.dataset.build import Dataset
from repro.dataset.table import ColumnTable
from repro.errors import ExperimentError
from repro.features.sets import feature_names

PANELS: dict[str, tuple[str, ...]] = {
    "left": ("static-agg", "static-opt", "dynamic", "dynamic-opt",
             "always-8"),
    "right": ("static-raw+mca", "static-agg", "static-agg+mca",
              "static-opt"),
}

#: which base set each ``*-opt`` series prunes.
_OPT_BASES = {"static-opt": "static-all", "dynamic-opt": "dynamic"}


@dataclass
class Figure2Result:
    """Accuracy-vs-tolerance series for one panel."""

    panel: str
    tolerances: tuple
    series: dict = field(default_factory=dict)       # name -> [accuracy]
    opt_features: dict = field(default_factory=dict)  # name -> kept list

    def accuracy_at(self, series_name: str, tolerance: int) -> float:
        curve = self.series[series_name]
        return curve[self.tolerances.index(tolerance)]

    def render(self) -> str:
        table = ColumnTable(["tol%"] + list(self.series))
        for i, tol in enumerate(self.tolerances):
            table.add_row(tol, *[self.series[name][i]
                                 for name in self.series])
        lines = [f"Figure 2 ({self.panel} panel): accuracy vs energy "
                 f"tolerance", table.render()]
        for name, kept in self.opt_features.items():
            lines.append(f"{name} keeps {len(kept)} features: "
                         f"{', '.join(kept)}")
        return "\n".join(lines)


def _series_curve(dataset: Dataset, names: list[str], tolerances,
                  n_splits: int, repeats: int, seed: int) -> list[float]:
    report = evaluate_features(dataset, names, tolerances=tolerances,
                               n_splits=n_splits, repeats=repeats,
                               seed=seed)
    return report.curve


def _baseline_curve(dataset: Dataset, k: int, tolerances,
                    n_splits: int, repeats: int) -> list[float]:
    baseline = Classifier(ReproConfig(model="always-k",
                                      model_params={"k": k}))
    report = baseline.evaluate(dataset, tolerances=tolerances,
                               n_splits=n_splits, repeats=repeats,
                               feature_names=[])
    return report.curve


def run_figure2(dataset: Dataset, panel: str = "left",
                repeats: int | None = None, seed: int = 0) -> Figure2Result:
    """Regenerate one panel of Figure 2 on *dataset* (stratified 10-fold
    CV at the ``DEFAULT_TOLERANCES``)."""
    if panel not in PANELS:
        raise ExperimentError(f"unknown panel {panel!r}; "
                              f"expected one of {sorted(PANELS)}")
    tolerances, n_splits = DEFAULT_TOLERANCES, 10
    repeats = repeats if repeats is not None else cv_repeats()
    result = Figure2Result(panel=panel, tolerances=tuple(tolerances))

    for series_name in PANELS[panel]:
        if series_name == "always-8":
            curve = _baseline_curve(dataset, 8, tolerances, n_splits,
                                    repeats)
        elif series_name in _OPT_BASES:
            base = feature_names(_OPT_BASES[series_name])
            kept = optimised_set(dataset, base, n_splits=n_splits,
                                 repeats=max(3, repeats // 2), seed=seed)
            result.opt_features[series_name] = kept
            curve = _series_curve(dataset, kept, tolerances, n_splits,
                                  repeats, seed)
        else:
            curve = _series_curve(dataset, feature_names(series_name),
                                  tolerances, n_splits, repeats, seed)
        result.series[series_name] = curve
    return result
