"""The paper's shape claims, checked on the 448-sample ``paper`` profile.

Every test here carries the ``paper`` marker, which ``tests/conftest.py``
deselects unless the ``-m`` expression names it, so tier-1 never builds
the paper dataset.  Run them with::

    repro build-dataset --profile paper --jobs 2   # ~340 counter files
    python -m pytest -q -m paper

The paper's artefacts and where each is checked:

* E1 — Figure 2 left: every learned series starts at or above always-8
  and rises with the tolerance (:class:`TestFigure2Left`);
* E2 — Figure 2 right: the static feature-set curves are
  tolerance-monotone (:class:`TestFigure2Right`);
* E3 — Table IV: a clock-gating metric is among the top dynamic
  features (:class:`TestTable4`);
* E4 — §IV.B dataset statistics: 448 samples, class-8 plurality, the
  exact labels (:class:`TestDatasetStats`);
* E5 — Table I: the energy model's values are pinned in
  ``tests/test_energy.py``; here every sample's energy is positive;
* E6 — Tables II/III: the feature inventories are pinned in
  ``tests/test_features_{static,mca,dynamic}.py``;
* E7 — the headline scalar claims (:class:`TestHeadline`);
* A1/A2 — our ablations: energy-model sensitivity and the pruning sweep
  (:class:`TestAblations`).

The bounds are generous: the substrate is a simulator, not the board.
"""

import pytest

from repro.dataset.build import build_dataset
from repro.experiments.ablation import (
    run_energy_model_ablation,
    run_pruning_sweep,
)
from repro.experiments.dataset_stats import run_dataset_stats
from repro.experiments.figure2 import run_figure2
from repro.experiments.headline import run_headline
from repro.experiments.table4 import run_table4
from repro.features.sets import feature_names
from repro.ml.tree import DecisionTreeClassifier

pytestmark = pytest.mark.paper

#: CV repeats of Figure 2, the headline claims and Table IV (the
#: pruning sweep keeps its own 3).
REPEATS = 5

#: samples per label (team size 1..8) of the paper profile.
PAPER_CLASS_COUNTS = {1: 5, 2: 17, 3: 12, 4: 62, 5: 40, 6: 32, 7: 88,
                      8: 192}
#: class-8 samples per kernel size (bytes) of the paper profile.
PAPER_CLASS8_BY_SIZE = {512: 15, 2048: 35, 8192: 64, 32768: 78}


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("paper")


@pytest.fixture(scope="module")
def headline(dataset):
    return run_headline(dataset, repeats=REPEATS)


class TestDatasetStats:
    def test_class_balance(self, dataset):
        stats = run_dataset_stats(dataset)
        assert stats.n_samples == 448
        # class 8 holds the plurality of the dataset
        assert stats.majority_label == 8
        assert stats.class_share(8) > 20.0
        assert all(count > 0 for count in stats.class_counts.values())
        assert stats.class_counts == PAPER_CLASS_COUNTS

    def test_class8_by_size(self, dataset):
        by_size = {size: 0 for size in PAPER_CLASS8_BY_SIZE}
        for sample in dataset.samples:
            if sample.label == 8:
                by_size[sample.size_bytes] += 1
        assert by_size == PAPER_CLASS8_BY_SIZE

    def test_energy_positive(self, dataset):
        assert (dataset.energy_matrix > 0).all()


class TestFigure2Left:
    def test_learned_series_dominate_always8_at_zero(self, headline):
        fig = headline.figure2
        assert fig.tolerances == tuple(range(9))
        assert all(len(curve) == 9 for curve in fig.series.values())
        always8 = fig.series["always-8"]
        for name in ("static-agg", "static-opt", "dynamic", "dynamic-opt"):
            curve = fig.series[name]
            assert curve[0] >= always8[0] - 1e-9
            assert curve[-1] >= curve[0]


class TestHeadline:
    def test_scalar_claims(self, headline):
        assert headline.static_opt_at_0 > 0.35
        assert headline.static_opt_at_5 > headline.static_opt_at_0
        assert headline.max_static_dynamic_gap < 0.20
        # every learned series at or above always-8 at every tolerance
        assert headline.learned_beats_always8


class TestFigure2Right:
    def test_curves_are_tolerance_monotone(self, dataset):
        fig = run_figure2(dataset, "right", repeats=REPEATS)
        for curve in fig.series.values():
            assert curve == sorted(curve)

    def test_richest_static_set_splits(self, dataset):
        X = dataset.matrix(feature_names("static-agg+mca"))
        tree = DecisionTreeClassifier(random_state=0).fit(X, dataset.labels)
        assert tree.n_leaves() > 1


class TestTable4:
    def test_clock_gating_leads_dynamic_features(self, dataset):
        result = run_table4(dataset, repeats=REPEATS)
        top_metrics = [label for label, _, _ in result.dynamic_rows[:4]]
        assert any(metric in ("PE_sleep", "PE_idle")
                   for metric in top_metrics)


class TestAblations:
    def test_energy_model_ablation(self, dataset):
        result = run_energy_model_ablation("paper")
        table1 = result.distributions["table1"]
        # with no background cost, shortening the runtime stops paying:
        # high-parallelism labels must lose mass
        assert result.distributions["zero-leakage"].get(8, 0) < \
            table1.get(8, 0)
        # pricier active waits also push away from max parallelism
        assert result.distributions["nop-x4"].get(8, 0) <= table1.get(8, 0)
        for dist in result.distributions.values():
            assert sum(dist.values()) == len(dataset)
        text = result.render()
        assert all(variant in text for variant in result.distributions)

    def test_pruning_sweep(self, dataset):
        sweep = run_pruning_sweep(dataset, repeats=3,
                                  ks=(1, 2, 3, 4, 6, 8, 12, 16))
        ks = [k for k, _ in sweep.points]
        accs = [acc for _, acc in sweep.points]
        assert ks == sorted(ks)
        # more informative features never catastrophically hurt: the
        # best multi-feature point beats the single-feature tree
        assert max(accs[1:]) >= accs[0] - 0.02
