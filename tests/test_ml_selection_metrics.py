"""Cross-validation and metric tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MLError
from repro.ml import (
    AlwaysKClassifier,
    DecisionTreeClassifier,
    accuracy,
    cross_val_predict,
    repeated_cv_predict,
    stratified_kfold,
    tolerance_accuracy,
    tolerance_curve,
)
from repro.ml.metrics import mean_tolerance_curve


class TestStratifiedKFold:
    def test_folds_partition_dataset(self):
        y = np.array([1] * 30 + [2] * 20 + [3] * 10)
        seen = []
        for train, test in stratified_kfold(y, 5, seed=0):
            assert set(train) & set(test) == set()
            seen.extend(test.tolist())
        assert sorted(seen) == list(range(60))

    def test_class_balance_per_fold(self):
        y = np.array([1] * 40 + [2] * 20)
        for train, test in stratified_kfold(y, 4, seed=1):
            values, counts = np.unique(y[test], return_counts=True)
            ratio = dict(zip(values.tolist(), counts.tolist()))
            assert ratio == {1: 10, 2: 5}

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=9999),
           splits=st.integers(min_value=2, max_value=10))
    def test_partition_property(self, seed, splits):
        rng = np.random.default_rng(seed)
        y = rng.integers(1, 5, size=57)
        collected = []
        for train, test in stratified_kfold(y, splits, seed=seed):
            collected.extend(test.tolist())
        assert sorted(collected) == list(range(len(y)))

    def test_small_classes_spread(self):
        y = np.array([1] * 18 + [2, 2])
        fold_has_2 = sum(1 for _, test in stratified_kfold(y, 4, seed=0)
                         if 2 in y[test])
        assert fold_has_2 == 2  # one fold per minority sample

    def test_invalid_splits_rejected(self):
        with pytest.raises(MLError):
            list(stratified_kfold(np.ones(5), 1))
        with pytest.raises(MLError):
            list(stratified_kfold(np.ones(3), 10))


class TestCrossValidation:
    def test_out_of_fold_predictions_cover_everything(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(80, 3))
        y = (X[:, 0] > 0).astype(int) + 1
        preds, importances = cross_val_predict(
            lambda: DecisionTreeClassifier(), X, y, n_splits=5, seed=0)
        assert preds.shape == (80,)
        assert accuracy(y, preds) > 0.7
        assert importances.shape == (3,)

    def test_repeated_cv_shape_and_seed_variation(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 3))
        y = rng.integers(1, 4, size=60)
        preds, _ = repeated_cv_predict(
            lambda: DecisionTreeClassifier(max_depth=3), X, y,
            n_splits=5, repeats=4, seed=2)
        assert preds.shape == (4, 60)
        # different repeats shuffle folds differently: rows should differ
        assert any((preds[0] != preds[r]).any() for r in range(1, 4))

    def test_baseline_in_cv(self):
        X = np.zeros((40, 2))
        y = np.array([8] * 30 + [1] * 10)
        preds, _ = cross_val_predict(lambda: AlwaysKClassifier(8), X, y,
                                     n_splits=4, seed=0)
        assert (preds == 8).all()


class TestToleranceAccuracy:
    def setup_method(self):
        # two samples, 4 candidate teams
        self.energy = np.array([
            [100.0, 90.0, 95.0, 120.0],   # optimum team 2
            [50.0, 52.0, 55.0, 49.0],     # optimum team 4
        ])

    def test_exact_match(self):
        assert tolerance_accuracy([2, 4], self.energy, 0.0) == 1.0

    def test_miss_without_tolerance(self):
        assert tolerance_accuracy([3, 1], self.energy, 0.0) == 0.0

    def test_tolerance_forgives_close_energy(self):
        # team 3 wastes 5/90 = 5.6% on sample 1; team 1 wastes 1/49 = 2.04%
        assert tolerance_accuracy([3, 1], self.energy, 2.0) == 0.0
        assert tolerance_accuracy([3, 1], self.energy, 3.0) == 0.5
        assert tolerance_accuracy([3, 1], self.energy, 6.0) == 1.0

    def test_curve_is_monotone(self):
        curve = tolerance_curve([3, 1], self.energy, range(0, 9))
        assert curve == sorted(curve)

    def test_mean_curve_averages_repeats(self):
        preds = np.array([[2, 4], [3, 1]])
        curve = mean_tolerance_curve(preds, self.energy, [0.0])
        assert curve[0] == pytest.approx(0.5)

    def test_custom_team_sizes(self):
        acc = tolerance_accuracy([5], np.array([[10.0, 20.0]]), 0.0,
                                 team_sizes=[5, 6])
        assert acc == 1.0

    def test_invalid_prediction_rejected(self):
        with pytest.raises(MLError):
            tolerance_accuracy([9], self.energy[:1], 0.0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(MLError):
            tolerance_accuracy([2, 4], self.energy, -1.0)


class TestConfusionMatrix:
    def test_accuracy_raises_on_shape_mismatch(self):
        with pytest.raises(MLError):
            accuracy([1, 2], [1])
