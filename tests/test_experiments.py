"""Experiment driver tests on the tiny (real) dataset."""

from pathlib import Path

import pytest

from repro.api import Classifier, ReproConfig, evaluate_features
from repro.dataset.build import Dataset
from repro.errors import ExperimentError
from repro.experiments.dataset_stats import run_dataset_stats
from repro.experiments.figure2 import PANELS, run_figure2
from repro.experiments.headline import run_headline
from repro.api.selection import (
    optimised_set,
    prune_by_importance,
    rank_features,
)
from repro.experiments.table4 import run_table4
from repro.experiments.ablation import run_pruning_sweep
from repro.features.sets import feature_names
from repro.ml.tree import DecisionTreeClassifier

UNIT_DATASET = (Path(__file__).resolve().parent.parent / ".repro_cache"
                / "dataset_unit-112-ea0f08eafe.json")


@pytest.fixture()
def fits(monkeypatch):
    """Count every DecisionTreeClassifier.fit call."""
    counter = {"n": 0}
    real_fit = DecisionTreeClassifier.fit

    def counting_fit(self, X, y):
        counter["n"] += 1
        return real_fit(self, X, y)

    monkeypatch.setattr(DecisionTreeClassifier, "fit", counting_fit)
    return counter


class TestOptsets:
    def test_rank_features_orders_by_importance(self, tiny_dataset):
        ranking = rank_features(tiny_dataset, feature_names("static-all"),
                                repeats=2)
        scores = [score for _, score in ranking]
        assert scores == sorted(scores, reverse=True)

    def test_prune_by_importance_coverage(self):
        # 90% of the mass needs four features, past the floor of three
        ranking = [("a", 0.4), ("b", 0.3), ("c", 0.15), ("d", 0.1),
                   ("e", 0.05)]
        assert prune_by_importance(ranking) == ["a", "b", "c", "d"]

    def test_prune_respects_min_features(self):
        # one feature covers the mass; the floor still keeps three
        ranking = [("a", 1.0), ("b", 0.0), ("c", 0.0), ("d", 0.0)]
        assert prune_by_importance(ranking) == ["a", "b", "c"]

    def test_optimised_set_is_subset(self, tiny_dataset):
        base = feature_names("static-all")
        kept = optimised_set(tiny_dataset, base, repeats=2)
        assert set(kept) <= set(base)
        assert len(kept) >= 3


class TestFigure2:
    def test_left_panel_series(self, tiny_dataset):
        result = run_figure2(tiny_dataset, "left", repeats=2)
        assert set(result.series) == set(PANELS["left"])
        for curve in result.series.values():
            assert len(curve) == 9
            assert all(0.0 <= v <= 1.0 for v in curve)
            # tolerance accuracy is monotone in the threshold
            assert curve == sorted(curve)

    def test_right_panel_series(self, tiny_dataset):
        result = run_figure2(tiny_dataset, "right", repeats=2)
        assert set(result.series) == set(PANELS["right"])
        assert "static-opt" in result.opt_features

    def test_unknown_panel_rejected(self, tiny_dataset):
        with pytest.raises(ExperimentError):
            run_figure2(tiny_dataset, "middle")

    def test_render(self, tiny_dataset):
        result = run_figure2(tiny_dataset, "left", repeats=2)
        text = result.render()
        assert "Figure 2" in text and "always-8" in text

    def test_accuracy_at(self, tiny_dataset):
        result = run_figure2(tiny_dataset, "left", repeats=2)
        assert result.accuracy_at("dynamic", 0) \
            == result.series["dynamic"][0]


class TestTable4:
    def test_rows_and_percentages(self, tiny_dataset):
        result = run_table4(tiny_dataset, repeats=2)
        assert 0 < len(result.dynamic_rows) <= 12
        assert 0 < len(result.static_rows) <= 6
        for label, pes, pct in result.dynamic_rows:
            assert 1 <= pes <= 8
            assert 0.0 <= pct <= 100.0
        text = result.render()
        assert "Dynamic Features" in text and "Static Features" in text

    def test_dynamic_rows_sorted(self, tiny_dataset):
        result = run_table4(tiny_dataset, repeats=2)
        pcts = [row[2] for row in result.dynamic_rows]
        assert pcts == sorted(pcts, reverse=True)


class TestDatasetStats:
    def test_counts_add_up(self, tiny_dataset):
        stats = run_dataset_stats(tiny_dataset)
        assert stats.n_samples == len(tiny_dataset)
        assert sum(stats.class_counts.values()) == stats.n_samples
        assert sum(stats.suite_counts.values()) == stats.n_samples
        assert stats.render()

    def test_majority_and_share(self, tiny_dataset):
        stats = run_dataset_stats(tiny_dataset)
        label = stats.majority_label
        assert stats.class_share(label) == max(
            stats.class_share(k) for k in stats.class_counts)


class TestHeadline:
    def test_headline_fields(self, tiny_dataset):
        result = run_headline(tiny_dataset, repeats=2)
        assert 0.0 <= result.static_opt_at_0 <= 1.0
        assert result.static_opt_at_8 >= result.static_opt_at_0
        assert isinstance(result.learned_beats_always8, bool)
        assert "static-opt" in result.render()


class TestPruningSweep:
    def test_sweep_points(self, tiny_dataset):
        sweep = run_pruning_sweep(tiny_dataset, repeats=2, ks=(1, 3, 6))
        assert [k for k, _ in sweep.points] == [1, 3, 6]
        assert all(0.0 <= acc <= 1.0 for _, acc in sweep.points)
        assert sweep.render()


class TestCvRepeatMemo:
    """Each distinct CV repeat of the default tree is fitted once per
    Dataset object, and a kept repeat gives the bits a refit would."""

    def test_figure2_left_fits_each_repeat_once(self, fits):
        dataset = Dataset.load(str(UNIT_DATASET))
        first = run_figure2(dataset, "left", repeats=4)
        # 4 learned series x 40 fits + two 3-repeat rankings x 30 fits,
        # less the 30 the dynamic-opt ranking shares with "dynamic"
        assert fits["n"] == 190
        again = run_figure2(dataset, "left", repeats=4)
        assert fits["n"] == 190
        # the memo dies with its dataset: a reloaded copy refits
        reloaded = Dataset.load(str(UNIT_DATASET))
        assert reloaded.cv_memo == {}
        fresh = run_figure2(reloaded, "left", repeats=4)
        assert fits["n"] == 2 * 190
        for result in (again, fresh):
            assert (result.series, result.opt_features) \
                == (first.series, first.opt_features)

    @pytest.mark.parametrize("evaluated, ranked, refits", [
        (3, 3, 0),    # every ranked repeat is kept
        (2, 3, 10),   # partial coverage: only the third repeat is fitted
        (3, 2, 0),    # a prefix of the kept repeats
    ])
    def test_ranking_after_evaluation_is_bit_identical(
            self, fits, evaluated, ranked, refits):
        names = feature_names("dynamic")
        fresh = rank_features(Dataset.load(str(UNIT_DATASET)), names,
                              repeats=ranked, seed=3)
        dataset = Dataset.load(str(UNIT_DATASET))
        evaluate_features(dataset, names, repeats=evaluated, seed=3)
        before = fits["n"]
        assert rank_features(dataset, names, repeats=ranked,
                             seed=3) == fresh
        assert fits["n"] - before == refits

    def test_explicit_model_factory_bypasses_the_memo(self, fits):
        dataset = Dataset.load(str(UNIT_DATASET))
        names = feature_names("static-agg")
        kept = evaluate_features(dataset, names, repeats=2)
        kept_keys = list(dataset.cv_memo)
        tree = Classifier(ReproConfig(model="tree"))
        report = tree.evaluate(dataset, repeats=2, feature_names=names)
        assert fits["n"] == 2 * 20
        assert list(dataset.cv_memo) == kept_keys
        assert report.curve == kept.curve
