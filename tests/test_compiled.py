"""Compiled decision tables: byte-identical to the node-walk oracles.

The contract under test is absolute equality, not closeness: for every
registered model family the one scoring path must reproduce the
per-row oracle (for trees, a walk of the node graph built from the
payload, in ``tests/tree_oracle.py``) prediction for prediction —
including argmax tie-breaks — on every input, whether the model was
just trained or loaded from an artifact.
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
from repro.ml import DecisionTreeClassifier
from repro.ml.compiled import (
    _DESCENT_ROWS,
    _WALK_MAX_ROWS,
    CompiledTree,
    float_matrix,
)
from tests.tree_oracle import predict_proba_rowwise, predict_rowwise


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
        compiled = tree._table
        X_test, _ = _blobs(seed=1)
        np.testing.assert_array_equal(compiled.predict(X_test),
                                      tree.predict(X_test))
        np.testing.assert_array_equal(compiled.predict(X_test),
                                      predict_rowwise(tree, X_test))

    def test_predict_proba_matches(self):
        X, y = _blobs()
        tree = DecisionTreeClassifier(random_state=0,
                                      min_samples_leaf=5).fit(X, y)
        compiled = tree._table
        X_test, _ = _blobs(seed=2)
        np.testing.assert_array_equal(compiled.predict_proba(X_test),
                                      tree.predict_proba(X_test))

    def test_exact_threshold_boundary_rows(self):
        """Rows landing exactly on a split threshold must branch the
        same way (<= goes left) in both engines."""
        X, y = _blobs()
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        compiled = tree._table
        thresholds = compiled.threshold[compiled.feature >= 0]
        if thresholds.size == 0:
            pytest.skip("degenerate tree (no splits)")
        boundary = np.tile(thresholds[:, None], (1, X.shape[1]))
        np.testing.assert_array_equal(compiled.predict(boundary),
                                      tree.predict(boundary))

    def test_unfitted_tree_rejected(self):
        """An unfitted tree has no table: every reader of it refuses."""
        tree = DecisionTreeClassifier()
        for read in (lambda: tree.predict(np.zeros((1, 2))),
                     lambda: tree.predict_proba(np.zeros((1, 2))),
                     tree.to_dict, tree.depth, tree.n_leaves):
            with pytest.raises(MLError):
                read()

    def test_shape_validation(self):
        X, y = _blobs()
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        compiled = tree._table
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
    table = tree._table
    for col in range(X.shape[1]):
        thresholds = table.threshold[table.feature == col]
        pool = np.concatenate([X[:, col], thresholds, thresholds,
                               specials])
        values = rng.choice(pool, size=n_rows)
        f32 = rng.random(n_rows) < 0.2
        values[f32] = values[f32].astype(np.float32)
        Q[:, col] = values
    return Q


def _f32_edge_queries(rng, table, n_features, n_rows):
    """f32 query rows: each cell is the f32 nearest a threshold of a split
    on its column (exactly on it when the threshold is an f32 value), one
    f32 ulp either side of that, NaN or +-inf."""
    Q = np.empty((n_rows, n_features), dtype=np.float32)
    specials = np.array([np.nan, np.inf, -np.inf], dtype=np.float32)
    up, down = np.float32(np.inf), np.float32(-np.inf)
    for col in range(n_features):
        near = table.threshold[table.feature == col].astype(np.float32)
        pool = np.concatenate([near, np.nextafter(near, up),
                               np.nextafter(near, down), specials])
        Q[:, col] = rng.choice(pool, size=n_rows)
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
        labels = predict_rowwise(tree, Q)
        proba = predict_proba_rowwise(tree, Q)
        # f32 cells score as they are, where their f64 lift lands
        Q32 = Q.astype(np.float32)
        labels32 = predict_rowwise(tree, Q32.astype(np.float64))
        for engine in (tree, tree._table):
            np.testing.assert_array_equal(engine.predict(Q), labels)
            np.testing.assert_array_equal(engine.predict_proba(Q), proba)
            np.testing.assert_array_equal(engine.predict(Q32), labels32)


def _chain_payload(depth: int) -> dict:
    """A :meth:`DecisionTreeClassifier.to_dict` payload of a degenerate
    tree: *depth* splits in a chain, each with a leaf on its left and
    the next split on its right (DFS preorder), leaves alternating
    between the two classes."""
    nodes: dict = {"feature": [], "threshold": [], "left": [], "right": [],
                   "value": []}

    def leaf(k):
        nodes["feature"].append(-1)
        nodes["threshold"].append(0.0)
        nodes["left"].append(-1)
        nodes["right"].append(-1)
        nodes["value"].append([1.0, 0.0] if k % 2 else [0.0, 2.0])

    for k in range(depth):
        i = len(nodes["feature"])
        nodes["feature"].append(k % 2)
        nodes["threshold"].append(float(k))
        nodes["left"].append(i + 1)
        nodes["right"].append(i + 2)
        nodes["value"].append(None)
        leaf(k)
    leaf(depth)
    return {"params": {"max_depth": None, "min_samples_split": 2,
                       "min_samples_leaf": 1, "max_features": None,
                       "random_state": 0},
            "classes": [0, 1], "n_features": 2,
            "feature_importances": [0.5, 0.5], "nodes": nodes}


class TestBlockDescent:
    """Blocks above ``_WALK_MAX_ROWS`` take ``depth`` steps of the numpy
    descent, with leaves as their own children; every row must land
    where the per-row node walk puts it."""

    @pytest.mark.parametrize("n_rows", [_WALK_MAX_ROWS + 1, 1000,
                                        _DESCENT_ROWS + 1, 16384])
    def test_equals_rowwise_with_nan_and_thresholds(self, n_rows):
        rng = np.random.default_rng(n_rows)
        X = _tie_heavy_matrix(rng, 200, ["normal", "int", "ulp", "normal"])
        y = rng.integers(0, 3, size=len(X))
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        Q = _edge_queries(rng, tree, X, n_rows)
        assert np.isnan(Q).any()
        # the first splits in preorder (the root and its left spine
        # among them) each see one row exactly on their threshold
        table = tree._table
        splits = np.nonzero(table.feature >= 0)[0][:n_rows // 2]
        assert splits[0] == 0
        rows = np.arange(len(splits))
        Q[rows, table.feature[splits]] = table.threshold[splits]
        np.testing.assert_array_equal(tree.predict(Q),
                                      predict_rowwise(tree, Q))
        np.testing.assert_array_equal(tree.predict_proba(Q),
                                      predict_proba_rowwise(tree, Q))

    @pytest.mark.parametrize("kinds", [["int", "int", "int"],
                                       ["normal", "int", "ulp", "normal"]])
    @pytest.mark.parametrize("n_rows", [1, _WALK_MAX_ROWS, _WALK_MAX_ROWS + 1,
                                        _DESCENT_ROWS + 1])
    def test_f32_cells_land_where_their_f64_lift_does(self, kinds, n_rows):
        """f32 rows score uncopied, on both sides of the walk cut-off:
        the same leaves, labels and probabilities as their f64 lift.
        Integer columns split at x.5, an f32 value, so their cells sit
        exactly on every threshold as well as one ulp either side."""
        rng = np.random.default_rng(n_rows)
        X = _tie_heavy_matrix(rng, 200, kinds)
        y = rng.integers(0, 3, size=len(X))
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        table = tree._table
        Q = _f32_edge_queries(rng, table, X.shape[1], n_rows)
        # every split sees a row on its threshold's f32 nearest
        splits = np.nonzero(table.feature >= 0)[0][:n_rows]
        Q[np.arange(len(splits)), table.feature[splits]] = \
            table.threshold[splits]
        Q64 = Q.astype(np.float64)
        if kinds == ["int"] * 3:
            assert np.isin(table.threshold[splits],
                           Q64[np.arange(len(splits)),
                               table.feature[splits]]).all()
        assert float_matrix(Q) is Q
        np.testing.assert_array_equal(table._leaf_indices(Q),
                                      table._leaf_indices(Q64))
        np.testing.assert_array_equal(tree.predict(Q),
                                      predict_rowwise(tree, Q64))
        np.testing.assert_array_equal(tree.predict_proba(Q),
                                      predict_proba_rowwise(tree, Q64))

    def test_degenerate_tree_deeper_than_100_levels(self):
        depth = 120
        tree = DecisionTreeClassifier.from_dict(_chain_payload(depth))
        rng = np.random.default_rng(7)
        Q = rng.uniform(-1.0, depth + 1.0, size=(500, 2))
        Q[::5] = np.round(Q[::5])            # exactly on a threshold
        Q[::11, 1] = np.nan
        Q[:3] = [[np.nan, np.nan], [depth + 5.0, depth + 5.0],
                 [-1.0, -1.0]]
        oracle = predict_rowwise(tree, Q)
        # all-NaN rows go right at every level into the deepest leaf
        assert oracle[0] == (0 if depth % 2 else 1)
        for block in (Q, Q[:_WALK_MAX_ROWS + 1]):
            np.testing.assert_array_equal(tree.predict(block),
                                          oracle[:len(block)])

    def test_to_dict_keeps_minus_one_leaf_children(self):
        payload = _chain_payload(5)
        tree = DecisionTreeClassifier.from_dict(payload)
        assert tree.to_dict() == payload
        table = tree._table
        leaves = np.nonzero(table.feature < 0)[0]
        assert leaves.tolist() == [1, 3, 5, 7, 9, 10]
        np.testing.assert_array_equal(table.left[leaves], leaves)
        np.testing.assert_array_equal(table.right[leaves], leaves)


def _stump(threshold: float) -> dict:
    """A one-split tree payload: ``x0 <= threshold`` is class 0, else 1."""
    return {"params": {"max_depth": None, "min_samples_split": 2,
                       "min_samples_leaf": 1, "max_features": None,
                       "random_state": 0},
            "classes": [0, 1], "n_features": 1,
            "feature_importances": [1.0],
            "nodes": {"feature": [0, -1, -1],
                      "threshold": [threshold, 0.0, 0.0],
                      "left": [1, -1, -1], "right": [2, -1, -1],
                      "value": [None, [1.0, 0.0], [0.0, 1.0]]}}


class TestF32AgainstThresholdArrays:
    """An f32 cell must meet the f64 threshold *array*.  Under NumPy 2's
    promotion rules (NEP 50) a Python-float or ``np.float32`` threshold
    makes the comparison f32, and a cell one f32 ulp above the
    threshold would go left."""

    def test_a_scalar_threshold_would_flip_the_row(self):
        threshold = 0.1
        cell = np.float32(threshold)  # the f32 nearest 0.1 lies above it
        assert float(cell) > threshold
        cells = np.full(3, cell, dtype=np.float32)
        assert (cells <= threshold).all()  # the trap, twice
        assert (cells <= np.float32(threshold)).all()
        assert not (cells <= np.full(3, threshold)).any()
        tree = DecisionTreeClassifier.from_dict(_stump(threshold))
        for n_rows in (1, _WALK_MAX_ROWS + 1):
            Q = np.full((n_rows, 1), cell, dtype=np.float32)
            assert tree.predict(Q).tolist() == [1] * n_rows
            np.testing.assert_array_equal(
                tree.predict(Q), tree.predict(Q.astype(np.float64)))


class TestFloatMatrix:
    def test_f32_and_f64_pass_through_other_dtypes_lift(self):
        for dtype in (np.float32, np.float64):
            X = np.ones((3, 2), dtype=dtype)
            assert float_matrix(X) is X
        for X in (np.ones((3, 2), dtype=np.int64),
                  np.ones((3, 2), dtype=np.float16),
                  np.ones((3, 2), dtype=">f4"), [[1, 2], [3, 4]]):
            lifted = float_matrix(X)
            assert lifted.dtype == np.float64
            np.testing.assert_array_equal(lifted, np.asarray(X, dtype=float))


def _family_oracle(model, X) -> np.ndarray:
    """The per-row reference each model family's scorer must equal."""
    if isinstance(model, DecisionTreeClassifier):
        return predict_rowwise(model, X)
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
