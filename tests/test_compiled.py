"""Compiled decision tables: byte-identical to the node-walk oracles.

The contract under test is absolute equality, not closeness: for every
registered model family the one scoring path must reproduce the
per-row oracle prediction for prediction — including argmax
tie-breaks — on every input, whether the model was just trained or
loaded from an artifact.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import (
    Classifier,
    ReproConfig,
    available_model_families,
    load_cached,
    load_or_train,
)
from repro.errors import MLError
from repro.ml import DecisionTreeClassifier, RandomForestClassifier
from repro.ml.compiled import _WALK_MAX_ROWS, CompiledForest, CompiledTree


def _blobs(n=300, n_features=5, n_classes=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features))
    y = rng.integers(1, n_classes + 1, size=n)
    # inject structure so trees actually split
    y = np.where(X[:, 0] > 0.3, n_classes + 1, y)
    return X, y


class TestCompiledTree:
    def test_matches_vectorized_and_rowwise_reference(self):
        X, y = _blobs()
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        compiled = CompiledTree.from_model(tree)
        X_test, _ = _blobs(seed=1)
        np.testing.assert_array_equal(compiled.predict(X_test),
                                      tree.predict(X_test))
        np.testing.assert_array_equal(compiled.predict(X_test),
                                      tree._predict_rowwise(X_test))

    def test_predict_proba_matches(self):
        X, y = _blobs()
        tree = DecisionTreeClassifier(random_state=0,
                                      min_samples_leaf=5).fit(X, y)
        compiled = CompiledTree.from_model(tree)
        X_test, _ = _blobs(seed=2)
        np.testing.assert_array_equal(compiled.predict_proba(X_test),
                                      tree.predict_proba(X_test))

    def test_exact_threshold_boundary_rows(self):
        """Rows landing exactly on a split threshold must branch the
        same way (<= goes left) in both engines."""
        X, y = _blobs()
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        compiled = CompiledTree.from_model(tree)
        thresholds = compiled.threshold[compiled.feature >= 0]
        if thresholds.size == 0:
            pytest.skip("degenerate tree (no splits)")
        boundary = np.tile(thresholds[:, None], (1, X.shape[1]))
        np.testing.assert_array_equal(compiled.predict(boundary),
                                      tree.predict(boundary))

    def test_unfitted_tree_rejected(self):
        with pytest.raises(MLError):
            CompiledTree.from_model(DecisionTreeClassifier())

    def test_shape_validation(self):
        X, y = _blobs()
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        compiled = CompiledTree.from_model(tree)
        with pytest.raises(MLError):
            compiled.predict(np.zeros((4, X.shape[1] + 1)))


def _tie_heavy_matrix(rng, n, kinds):
    """Training columns full of ties: small integers, constants,
    one-ulp neighbours and plain normals."""
    columns = []
    for kind in kinds:
        if kind == "int":
            columns.append(rng.integers(0, 4, size=n).astype(float))
        elif kind == "const":
            columns.append(np.full(n, rng.normal()))
        elif kind == "ulp":
            base = np.float64(abs(rng.normal()) + 1.0).view(np.int64)
            columns.append((base + rng.integers(0, 3, size=n))
                           .view(np.float64))
        else:
            columns.append(rng.normal(size=n))
    return np.column_stack(columns)


def _edge_queries(rng, tree, X, n_rows):
    """Query rows whose cells mix training values, thresholds of splits
    on that column (exact and f32-rounded), NaN, +-inf and -0.0."""
    Q = np.empty((n_rows, X.shape[1]))
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
    table = CompiledTree.from_model(tree)
    for col in range(X.shape[1]):
        thresholds = table.threshold[table.feature == col]
        pool = np.concatenate([X[:, col], thresholds, thresholds,
                               specials])
        values = rng.choice(pool, size=n_rows)
        f32 = rng.random(n_rows) < 0.2
        values[f32] = values[f32].astype(np.float32)
        Q[:, col] = values
    return Q


class TestSmallBlockWalk:
    """Blocks of at most ``_WALK_MAX_ROWS`` rows walk plain lists, larger
    ones take the numpy loop; both must equal the per-row node walk."""

    @settings(max_examples=60, deadline=None)
    @example(seed=0, kinds=["normal"], n_classes=1, min_samples_leaf=1,
             max_depth=None, n_rows=1)
    @example(seed=0, kinds=["normal"], n_classes=1, min_samples_leaf=1,
             max_depth=None, n_rows=_WALK_MAX_ROWS + 1)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           kinds=st.lists(st.sampled_from(["int", "const", "ulp",
                                           "normal"]),
                          min_size=1, max_size=5),
           n_classes=st.integers(min_value=1, max_value=4),
           min_samples_leaf=st.integers(min_value=1, max_value=3),
           max_depth=st.one_of(st.none(), st.integers(1, 6)),
           n_rows=st.sampled_from([1, _WALK_MAX_ROWS, _WALK_MAX_ROWS + 1,
                                   3 * _WALK_MAX_ROWS]))
    def test_both_engines_match_rowwise_oracle(
            self, seed, kinds, n_classes, min_samples_leaf, max_depth,
            n_rows):
        rng = np.random.default_rng(seed)
        X = _tie_heavy_matrix(rng, 60, kinds)
        # one class gives a single-leaf tree
        y = rng.integers(0, n_classes, size=len(X))
        tree = DecisionTreeClassifier(
            min_samples_leaf=min_samples_leaf,
            max_depth=max_depth).fit(X, y)
        if n_classes == 1:
            assert tree.n_leaves() == 1
        Q = _edge_queries(rng, tree, X, n_rows)
        labels = tree._predict_rowwise(Q)
        proba = tree._predict_proba_rowwise(Q)
        for engine in (tree, CompiledTree.from_model(tree)):
            np.testing.assert_array_equal(engine.predict(Q), labels)
            np.testing.assert_array_equal(engine.predict_proba(Q), proba)


class TestCompiledForest:
    def test_matches_reference_and_loop(self):
        X, y = _blobs(n=400)
        forest = RandomForestClassifier(n_estimators=7,
                                        random_state=0).fit(X, y)
        compiled = CompiledForest.from_model(forest)
        X_test, _ = _blobs(n=500, seed=3)
        np.testing.assert_array_equal(compiled.predict(X_test),
                                      forest.predict(X_test))
        np.testing.assert_array_equal(compiled.predict(X_test),
                                      forest._predict_loop(X_test))

    def test_tie_break_equivalence_randomized(self):
        """Even-sized ensembles produce vote ties; the compiled tally
        must break them exactly as the reference bincount argmax does
        (toward the lowest class index), across many random draws."""
        for seed in range(5):
            X, y = _blobs(n=120, n_classes=3, seed=seed)
            forest = RandomForestClassifier(n_estimators=4,
                                            random_state=seed).fit(X, y)
            compiled = CompiledForest.from_model(forest)
            X_test = np.random.default_rng(seed + 100).normal(
                size=(200, X.shape[1]))
            np.testing.assert_array_equal(compiled.predict(X_test),
                                          forest.predict(X_test))

    def test_node_table_is_fully_concatenated(self):
        X, y = _blobs()
        forest = RandomForestClassifier(n_estimators=3,
                                        random_state=1).fit(X, y)
        compiled = CompiledForest.from_model(forest)
        assert compiled.n_trees_ == 3
        assert compiled.n_nodes_ == sum(
            CompiledTree.from_model(t).n_nodes_ for t in forest.trees_)

    def test_unfitted_forest_rejected(self):
        with pytest.raises(MLError):
            CompiledForest.from_model(RandomForestClassifier())

    def test_predict_equals_loop_after_fit_and_from_dict(self):
        """The forest scores through its own table, built by ``fit``
        and rebuilt by ``from_dict``; both equal the per-row loop."""
        X, y = _blobs(n=200)
        forest = RandomForestClassifier(n_estimators=9,
                                        random_state=2).fit(X, y)
        loaded = RandomForestClassifier.from_dict(forest.to_dict())
        X_test, _ = _blobs(n=2 * _WALK_MAX_ROWS + 1, seed=4)
        for block in _blocks(X_test):
            oracle = forest._predict_loop(block)
            for model in (forest, loaded):
                np.testing.assert_array_equal(model.predict(block), oracle)
        with pytest.raises(MLError):
            RandomForestClassifier().predict(X_test)


def _family_oracle(model, X) -> np.ndarray:
    """The per-row reference each model family's scorer must equal."""
    if isinstance(model, DecisionTreeClassifier):
        return model._predict_rowwise(X)
    if isinstance(model, RandomForestClassifier):
        return model._predict_loop(X)
    return np.full(len(X), model.k, dtype=int)


def _blocks(X):
    """One block on each side of the ``_WALK_MAX_ROWS`` cut-off."""
    reps = -(-(2 * _WALK_MAX_ROWS + 1) // len(X))
    big = np.tile(X, (reps, 1))[:2 * _WALK_MAX_ROWS + 1]
    return big[:_WALK_MAX_ROWS], big


class TestClassifierBackend:
    """A classifier has one scoring path, the same after training and
    after a save/load round trip, and it equals the family's oracle."""

    @pytest.mark.parametrize("family", sorted(available_model_families()))
    def test_every_family_parity(self, family, tiny_dataset, tmp_path):
        trained = Classifier(ReproConfig(profile="unit",
                                         model=family)).train(tiny_dataset)
        path = str(tmp_path / "model.json")
        trained.save(path)
        loaded = Classifier.load(path)
        assert loaded.info() == trained.info()
        small, big = _blocks(tiny_dataset.matrix(trained.feature_names_))
        assert len(small) == _WALK_MAX_ROWS < len(big)
        for block in (small, big):
            oracle = _family_oracle(trained.model_, block)
            for clf in (trained, loaded):
                got = clf.predict_batch(block)
                assert got.dtype == oracle.dtype
                assert got.tobytes() == oracle.tobytes()
        assert [loaded.predict(row) for row in small] == \
            _family_oracle(trained.model_, small).tolist()

    def test_load_defaults_to_compiled(self, tiny_dataset, tmp_path):
        clf = Classifier(ReproConfig(profile="unit")).train(tiny_dataset)
        path = str(tmp_path / "model.json")
        clf.save(path)
        X = tiny_dataset.matrix(clf.feature_names_)
        loaded = Classifier.load(path)
        assert isinstance(loaded.model_._table, CompiledTree)
        np.testing.assert_array_equal(loaded.predict_batch(X),
                                      clf.predict_batch(X))


class TestArtifactCacheBackend:
    def test_cache_paths_honour_backend(self, tiny_dataset):
        """A train-on-miss and a later cache hit score identically."""
        config = ReproConfig(profile="unit")
        trained, hit = load_or_train(config, dataset=tiny_dataset)
        assert not hit
        cached = load_cached(config, dataset=tiny_dataset)
        assert cached is not None
        X = tiny_dataset.matrix(trained.feature_names_)
        np.testing.assert_array_equal(trained.predict_batch(X),
                                      cached.predict_batch(X))
