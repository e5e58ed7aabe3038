"""Importance-based feature ranking and pruning (paper §IV.C).

This is the home of the ``*-opt`` machinery: rank features by gini
importance averaged over the repeated stratified CV, then keep the
shortest ranked prefix covering a target share of the total importance.
The :mod:`repro.api.registry` feature-set resolvers (``static-opt``,
``dynamic-opt``) call them directly.

It is also the home of :func:`_tree_cv`, the one path by which the
paper's tree is cross-validated on a dataset: the ranking here and
:func:`repro.api.evaluate_features` both read their CV repeats through
it, so a repeat one of them fitted is not fitted again.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.dataset.build import Dataset
from repro.errors import MLError
from repro.ml.model_selection import cv_repeats, merge_repeats
from repro.ml.tree import DecisionTreeClassifier

#: cumulative importance share the pruned set must retain.
DEFAULT_COVERAGE = 0.90
#: never prune below this many features.
MIN_FEATURES = 3


def _tree_cv(dataset: Dataset, names: list[str], n_splits: int,
             repeats: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Repeated stratified CV of the default tree over *names*.

    Returns what :func:`repro.ml.model_selection.repeated_cv_predict`
    would, bit for bit.  Each repeat is keyed by the feature matrix's
    content, the labels, *n_splits* and its seed (``seed + r``), and
    kept in ``dataset.cv_memo``; only the repeats not kept there are
    fitted (through the ``$REPRO_JOBS`` pool).  The tree draws nothing
    at random, so a kept repeat is the one a refit would produce.  Only
    the calling thread touches the memo; threads sharing a dataset may
    both fit a missing repeat, and then both store the same bits.
    """
    if repeats < 1:
        raise MLError(f"repeats must be >= 1, got {repeats}")
    X = dataset.matrix(list(names))
    y = dataset.labels
    content = hashlib.blake2b(repr(X.shape).encode(), digest_size=16)
    content.update(X.tobytes())
    content.update(y.tobytes())
    keys = [(content.digest(), n_splits, s)
            for s in range(seed, seed + repeats)]
    memo = dataset.cv_memo
    missing = [key for key in keys if key not in memo]
    if missing:
        fitted = cv_repeats(DecisionTreeClassifier, X, y, n_splits,
                            [s for _, _, s in missing])
        memo.update(zip(missing, fitted))
    return merge_repeats([memo[key] for key in keys])


def rank_features(dataset: Dataset, names: list[str], n_splits: int = 10,
                  repeats: int = 5, seed: int = 0,
                  ) -> list[tuple[str, float]]:
    """(feature, mean importance) pairs, sorted by importance."""
    _, importances = _tree_cv(dataset, names, n_splits, repeats, seed)
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
