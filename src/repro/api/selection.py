"""Importance-based feature ranking and pruning (paper §IV.C).

This is the home of the ``*-opt`` machinery: rank features by gini
importance averaged over the repeated stratified CV, then keep the
shortest ranked prefix covering a target share of the total importance.
The :mod:`repro.api.registry` feature-set resolvers (``static-opt``,
``dynamic-opt``) call them directly.
"""

from __future__ import annotations

import numpy as np

from repro.dataset.build import Dataset
from repro.ml.model_selection import repeated_cv_predict
from repro.ml.tree import DecisionTreeClassifier

#: cumulative importance share the pruned set must retain.
DEFAULT_COVERAGE = 0.90
#: never prune below this many features.
MIN_FEATURES = 3


def rank_features(dataset: Dataset, names: list[str], n_splits: int = 10,
                  repeats: int = 5, seed: int = 0,
                  ) -> list[tuple[str, float]]:
    """(feature, mean importance) pairs, sorted by importance."""
    X = dataset.matrix(names)
    y = dataset.labels
    _, importances = repeated_cv_predict(
        lambda: DecisionTreeClassifier(random_state=seed), X, y,
        n_splits=n_splits, repeats=repeats, seed=seed)
    order = np.argsort(importances)[::-1]
    return [(names[i], float(importances[i])) for i in order]


def prune_by_importance(ranking: list[tuple[str, float]]) -> list[str]:
    """Shortest importance-ranked prefix covering ``DEFAULT_COVERAGE`` of
    the mass, and at least ``MIN_FEATURES`` long."""
    total = sum(score for _, score in ranking) or 1.0
    kept: list[str] = []
    acc = 0.0
    for name, score in ranking:
        kept.append(name)
        acc += score / total
        if acc >= DEFAULT_COVERAGE and len(kept) >= MIN_FEATURES:
            break
    return kept


def optimised_set(dataset: Dataset, base_names: list[str],
                  n_splits: int = 10, repeats: int = 5,
                  seed: int = 0) -> list[str]:
    """The pruned (``*-opt``) feature list for a base feature set."""
    ranking = rank_features(dataset, base_names, n_splits=n_splits,
                            repeats=repeats, seed=seed)
    return prune_by_importance(ranking)
