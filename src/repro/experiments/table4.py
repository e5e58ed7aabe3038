"""Table IV: the most relevant dynamic and static features.

Features are scored by the decision tree's gini importance averaged over
the repeated stratified CV, exactly as the paper builds its ranking; the
dynamic half lists (metric, team-size) pairs, the static half plain
feature names.  The ranking itself comes from the service layer
(:func:`repro.api.rank_features`); this driver only formats it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import rank_features
from repro.api.config import cv_repeats
from repro.dataset.build import Dataset
from repro.dataset.table import ColumnTable
from repro.features.sets import feature_names

N_DYNAMIC_ROWS = 12  # the paper lists twelve dynamic entries
N_STATIC_ROWS = 6    # and six static ones


@dataclass
class Table4Result:
    """Importance rankings (percentages) for both feature families."""

    dynamic_rows: list = field(default_factory=list)  # (label, pes, pct)
    static_rows: list = field(default_factory=list)   # (label, pct)

    def render(self) -> str:
        dyn = ColumnTable(["Label", "PEs", "Importance %"])
        for label, pes, pct in self.dynamic_rows:
            dyn.add_row(label, pes, pct)
        sta = ColumnTable(["Label", "Importance %"])
        for label, pct in self.static_rows:
            sta.add_row(label, pct)
        return "\n".join([
            "Table IV: Most Relevant Features",
            "", "Dynamic Features", dyn.render(float_fmt="{:.1f}"),
            "", "Static Features", sta.render(float_fmt="{:.1f}"),
        ])


def run_table4(dataset: Dataset, repeats: int | None = None,
               seed: int = 0) -> Table4Result:
    """Regenerate Table IV on *dataset* (stratified 10-fold CV)."""
    n_splits = 10
    repeats = repeats if repeats is not None else cv_repeats()
    result = Table4Result()

    dynamic_ranking = rank_features(dataset, feature_names("dynamic"),
                                    n_splits=n_splits, repeats=repeats,
                                    seed=seed)
    total = sum(score for _, score in dynamic_ranking) or 1.0
    for name, score in dynamic_ranking[:N_DYNAMIC_ROWS]:
        metric, _, team = name.partition("@")
        result.dynamic_rows.append((metric, int(team),
                                    100.0 * score / total))

    static_ranking = rank_features(dataset, feature_names("static-all"),
                                   n_splits=n_splits, repeats=repeats,
                                   seed=seed)
    total = sum(score for _, score in static_ranking) or 1.0
    for name, score in static_ranking[:N_STATIC_ROWS]:
        result.static_rows.append((name, 100.0 * score / total))
    return result
