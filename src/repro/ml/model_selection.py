"""Stratified cross-validation drivers (paper §IV.B evaluation protocol).

The paper evaluates with 10-fold *stratified* cross-validation repeated
100 times with random seeds.  :func:`repeated_cv_predict` reproduces
that: it returns the out-of-fold prediction matrix (repeats x samples),
so any metric — plain accuracy or the energy-tolerance accuracy — can be
computed over exactly the same predictions, plus the fold-averaged
feature importances used to build the ``*-opt`` pruned sets.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator

import numpy as np

from repro.errors import MLError
from repro.parallel import resolve_jobs


def stratified_kfold(y, n_splits: int, seed: int | None = None,
                     ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(train_idx, test_idx)`` pairs with per-class balance.

    Each class's samples are shuffled and dealt round-robin over the
    folds, so every fold's class proportions match the dataset's as
    closely as integer counts allow (classes smaller than ``n_splits``
    simply appear in fewer folds).
    """
    y = np.asarray(y)
    if n_splits < 2:
        raise MLError(f"n_splits must be >= 2, got {n_splits}")
    if n_splits > len(y):
        raise MLError(f"n_splits {n_splits} exceeds dataset size {len(y)}")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(n_splits)]
    offset = 0
    for cls in np.unique(y):
        members = np.nonzero(y == cls)[0]
        rng.shuffle(members)
        for i, idx in enumerate(members):
            folds[(offset + i) % n_splits].append(int(idx))
        offset += len(members)  # stagger classes across folds
    all_idx = np.arange(len(y))
    for i, fold in enumerate(folds):
        test = np.asarray(sorted(fold), dtype=int)
        if len(test) == 0:
            warnings.warn(
                f"stratified_kfold: fold {i} is empty "
                f"(n_splits={n_splits} too large for the class sizes); "
                f"skipping it", RuntimeWarning, stacklevel=2)
            continue
        train = np.setdiff1d(all_idx, test, assume_unique=True)
        yield train, test


def cross_val_predict(model_factory: Callable, X, y, n_splits: int = 10,
                      seed: int | None = None,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-fold predictions plus fold-averaged feature importances."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    predictions = np.empty(len(y), dtype=y.dtype)
    importances = np.zeros(X.shape[1])
    n_folds = 0
    for train, test in stratified_kfold(y, n_splits, seed):
        model = model_factory()
        model.fit(X[train], y[train])
        predictions[test] = model.predict(X[test])
        if getattr(model, "feature_importances_", None) is not None:
            importances += model.feature_importances_
        n_folds += 1
    if n_folds == 0:
        raise MLError("cross-validation produced no folds")
    return predictions, importances / n_folds


def cv_repeats(model_factory: Callable, X, y, n_splits: int,
               seeds) -> list[tuple[np.ndarray, np.ndarray]]:
    """One :func:`cross_val_predict` per seed in *seeds*, in seed order.

    ``$REPRO_JOBS`` (default 1) distributes the repeats over a thread
    pool.  Threads rather than processes: *model_factory* is usually a
    closure (unpicklable), each repeat is seeded independently, and the
    fit/predict hot paths live in numpy which releases the GIL.  Results
    come back in seed order, so they are identical for any worker count.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    seeds = list(seeds)
    jobs = resolve_jobs()

    def one_repeat(seed: int) -> tuple[np.ndarray, np.ndarray]:
        return cross_val_predict(model_factory, X, y, n_splits, seed=seed)

    if jobs > 1 and len(seeds) > 1:
        with ThreadPoolExecutor(max_workers=min(jobs, len(seeds))) as pool:
            return list(pool.map(one_repeat, seeds))
    return [one_repeat(seed) for seed in seeds]


def merge_repeats(results) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-repeat ``(predictions, importances)`` pairs into the
    ``(repeats, n_samples)`` prediction matrix and the grand-average
    importances, summed in repeat order."""
    importances = np.zeros(len(results[0][1]))
    for _, imp in results:
        importances += imp
    return (np.stack([preds for preds, _ in results]),
            importances / len(results))


def repeated_cv_predict(model_factory: Callable, X, y,
                        n_splits: int = 10, repeats: int = 10,
                        seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Repeat stratified CV with varying seeds.

    Returns ``(predictions, importances)`` where predictions has shape
    ``(repeats, n_samples)`` (one out-of-fold prediction per repeat,
    repeat *r* seeded ``seed + r``) and importances is the grand
    average over folds and repeats.  The repeats run through
    :func:`cv_repeats`, so ``$REPRO_JOBS`` threads them.
    """
    if repeats < 1:
        raise MLError(f"repeats must be >= 1, got {repeats}")
    return merge_repeats(cv_repeats(model_factory, X, y, n_splits,
                                    range(seed, seed + repeats)))
