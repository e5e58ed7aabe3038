"""Decision tree tests: correctness, invariants, importances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ml.forest as forest_module
from repro.errors import MLError
from repro.ml import DecisionTreeClassifier, RandomForestClassifier
from repro.ml.metrics import accuracy
from repro.ml.tree import _Node


def _reference_gini(class_counts: np.ndarray) -> float:
    total = class_counts.sum()
    if total <= 0:
        return 0.0
    p = class_counts / total
    return float(1.0 - np.dot(p, p))


def _reference_grow(self, X: np.ndarray, y: np.ndarray,
                    n_feat: int) -> _Node:
    """Per-node growth: each node copies its rows and searches them
    with ``_best_split``.  With ``_reference_best_split`` it is the
    oracle for TestBatchedSplitSearch."""
    root = _Node()
    stack = [(X, y, 0, root)]
    while stack:
        X_node, y_node, node_depth, node = stack.pop()
        self.n_nodes_ += 1
        counts = np.bincount(y_node,
                             minlength=self._n_classes).astype(float)
        node_gini = _reference_gini(counts)
        n = len(y_node)

        split = None
        if (node_gini > 0.0 and n >= self.min_samples_split
                and (self.max_depth is None
                     or node_depth < self.max_depth)):
            split = self._best_split(X_node, y_node, counts, node_gini,
                                     n_feat)
        if split is None:
            node.value = counts
            continue

        feature, threshold, gain = split
        mask = X_node[:, feature] <= threshold
        n_left = int(mask.sum())
        if n_left == 0 or n_left == n:  # degenerate split: leaf
            node.value = counts
            continue
        self._importance[feature] += (n / self._n_total) * gain
        node.feature = feature
        node.threshold = threshold
        node.left = _Node()
        node.right = _Node()
        stack.append((X_node[mask], y_node[mask], node_depth + 1,
                      node.left))
        stack.append((X_node[~mask], y_node[~mask], node_depth + 1,
                      node.right))
    return root


def _reference_best_split(self, X: np.ndarray, y: np.ndarray,
                          counts: np.ndarray, node_gini: float,
                          n_feat: int):
    """The per-feature split scan of one node: the other half of the
    oracle for TestBatchedSplitSearch."""
    n = len(y)
    min_leaf = self.min_samples_leaf
    best_gain = 1e-12
    best = None

    if n_feat < self.n_features_:
        candidates = self._rng.choice(self.n_features_, size=n_feat,
                                      replace=False)
        candidates.sort()
    else:
        candidates = range(self.n_features_)

    onehot = np.zeros((n, self._n_classes))
    onehot[np.arange(n), y] = 1.0

    for feature in candidates:
        column = X[:, feature]
        order = np.argsort(column, kind="mergesort")
        sorted_col = column[order]
        # cumulative class counts left of each split position
        left_counts = np.cumsum(onehot[order], axis=0)
        # valid split positions: between distinct values, honouring
        # the minimum leaf size
        distinct = sorted_col[:-1] < sorted_col[1:]
        positions = np.nonzero(distinct)[0] + 1  # left side size
        if min_leaf > 1:
            positions = positions[(positions >= min_leaf)
                                  & (positions <= n - min_leaf)]
        elif len(positions):
            positions = positions[(positions >= 1)
                                  & (positions <= n - 1)]
        if not len(positions):
            continue
        lc = left_counts[positions - 1]
        rc = counts - lc
        nl = positions.astype(float)
        nr = n - nl
        gini_l = 1.0 - np.einsum("ij,ij->i", lc, lc) / (nl * nl)
        gini_r = 1.0 - np.einsum("ij,ij->i", rc, rc) / (nr * nr)
        gains = node_gini - (nl / n) * gini_l - (nr / n) * gini_r
        idx = int(np.argmax(gains))
        if gains[idx] > best_gain:
            best_gain = float(gains[idx])
            pos = positions[idx]
            lo, hi = float(sorted_col[pos - 1]), float(sorted_col[pos])
            threshold = (lo + hi) / 2.0
            if not threshold < hi:
                # adjacent values one ulp apart round the midpoint up,
                # and -inf beside +inf have a NaN one — split on the
                # lower value instead so both children are non-empty
                threshold = lo
            best = (int(feature), float(threshold), best_gain)
    return best


class _ReferenceTree(DecisionTreeClassifier):
    _grow = _reference_grow
    _best_split = _reference_best_split


def _tie_heavy_matrix(seed, n, kinds):
    """Columns built to stress the split scan's tie rules: small
    integers (heavy ties), constants, one-ulp neighbours, and plain
    normals."""
    rng = np.random.default_rng(seed)
    columns = []
    for kind in kinds:
        if kind == "int":
            columns.append(rng.integers(0, 4, size=n).astype(float))
        elif kind == "const":
            columns.append(np.full(n, rng.normal()))
        elif kind == "ulp":
            base = np.float64(abs(rng.normal()) + 1.0).view(np.int64)
            steps = rng.integers(0, 3, size=n)
            columns.append((base + steps).view(np.float64))
        else:
            columns.append(rng.normal(size=n))
    return np.column_stack(columns)


def _blobs(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = np.where(X[:, 0] + 0.5 * X[:, 1] > 0, 1, 2)
    return X, y


class TestFitPredict:
    def test_memorises_training_data(self):
        X, y = _blobs()
        tree = DecisionTreeClassifier().fit(X, y)
        assert accuracy(y, tree.predict(X)) == 1.0

    def test_single_class_is_single_leaf(self):
        X = np.zeros((10, 3))
        y = np.full(10, 5)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.n_leaves() == 1
        assert (tree.predict(X) == 5).all()

    def test_constant_features_yield_majority_leaf(self):
        X = np.ones((12, 2))
        y = np.array([1] * 8 + [2] * 4)
        tree = DecisionTreeClassifier().fit(X, y)
        assert (tree.predict(X) == 1).all()

    def test_max_depth_limits_depth(self):
        X, y = _blobs(400)
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert tree.depth() <= 3

    def test_min_samples_leaf_respected(self):
        X, y = _blobs(100)
        tree = DecisionTreeClassifier(min_samples_leaf=10).fit(X, y)

        def leaf_sizes(node):
            if node.is_leaf:
                return [int(node.value.sum())]
            return leaf_sizes(node.left) + leaf_sizes(node.right)

        assert min(leaf_sizes(tree._root)) >= 10

    def test_labels_preserved_non_contiguous(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]] * 5)
        y = np.array([3, 5, 8, 8] * 5)
        tree = DecisionTreeClassifier().fit(X, y)
        assert set(tree.predict(X)) <= {3, 5, 8}
        assert accuracy(y, tree.predict(X)) == 1.0

    def test_shapes_validated(self):
        with pytest.raises(MLError):
            DecisionTreeClassifier().fit(np.zeros(5), np.zeros(5))
        with pytest.raises(MLError):
            DecisionTreeClassifier().fit(np.zeros((5, 2)), np.zeros(4))
        tree = DecisionTreeClassifier().fit(np.zeros((4, 2)),
                                            np.array([1, 1, 2, 2]))
        with pytest.raises(MLError):
            tree.predict(np.zeros((3, 5)))

    def test_unfitted_predict_rejected(self):
        with pytest.raises(MLError):
            DecisionTreeClassifier().predict(np.zeros((2, 2)))

    def test_bad_hyperparams_rejected(self):
        with pytest.raises(MLError):
            DecisionTreeClassifier(min_samples_split=1)
        with pytest.raises(MLError):
            DecisionTreeClassifier(min_samples_leaf=0)


class TestImportances:
    def test_normalised(self):
        X, y = _blobs()
        tree = DecisionTreeClassifier().fit(X, y)
        imp = tree.feature_importances_
        assert imp.shape == (4,)
        assert imp.sum() == pytest.approx(1.0)
        assert (imp >= 0).all()

    def test_informative_feature_dominates(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 5))
        y = (X[:, 2] > 0).astype(int)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.feature_importances_.argmax() == 2

    def test_pure_fit_has_zero_importance_mass(self):
        X = np.zeros((10, 3))
        tree = DecisionTreeClassifier().fit(X, np.ones(10, dtype=int))
        assert tree.feature_importances_.sum() == 0.0


class TestTreeProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           n=st.integers(min_value=5, max_value=60))
    def test_predictions_are_training_labels(self, seed, n):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        y = rng.integers(1, 5, size=n)
        tree = DecisionTreeClassifier().fit(X, y)
        assert set(tree.predict(X)) <= set(y)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_proba_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 3, size=30)
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        probs = tree.predict_proba(X)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_deterministic_given_seed(self):
        X, y = _blobs(150, seed=7)
        a = DecisionTreeClassifier(max_features=2, random_state=11).fit(X, y)
        b = DecisionTreeClassifier(max_features=2, random_state=11).fit(X, y)
        assert (a.predict(X) == b.predict(X)).all()


class TestForest:
    def test_fits_and_beats_chance(self):
        X, y = _blobs(300)
        forest = RandomForestClassifier(n_estimators=15,
                                        random_state=0).fit(X, y)
        assert accuracy(y, forest.predict(X)) > 0.9

    def test_importances_normalised(self):
        X, y = _blobs(200)
        forest = RandomForestClassifier(n_estimators=10,
                                        random_state=1).fit(X, y)
        assert forest.feature_importances_.sum() == pytest.approx(1.0)

    def test_unfitted_rejected(self):
        with pytest.raises(MLError):
            RandomForestClassifier().predict(np.zeros((2, 2)))


_ORACLE_CASES = dict(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=2, max_value=40),
    kinds=st.lists(st.sampled_from(["int", "const", "ulp", "normal"]),
                   min_size=1, max_size=6),
    n_classes=st.integers(min_value=1, max_value=4),
    min_samples_leaf=st.integers(min_value=1, max_value=4),
    max_depth=st.one_of(st.none(), st.integers(1, 5)),
    max_features=st.sampled_from([None, "sqrt", "log2", 1, 2]),
    random_state=st.integers(min_value=0, max_value=1000))


def _oracle_case(seed, n, kinds, n_classes, min_samples_leaf, max_depth,
                 max_features, random_state):
    """One tie-heavy training set and the tree parameters to fit it."""
    X = _tie_heavy_matrix(seed, n, kinds)
    y = np.random.default_rng(seed + 1).integers(0, n_classes, size=n)
    if isinstance(max_features, int):
        max_features = min(max_features, len(kinds))
    params = dict(min_samples_leaf=min_samples_leaf, max_depth=max_depth,
                  max_features=max_features, random_state=random_state)
    return X, y, params


def _assert_matches_reference(**case):
    X, y, params = _oracle_case(**case)
    fast = DecisionTreeClassifier(**params).fit(X, y)
    reference = _ReferenceTree(**params).fit(X, y)
    assert fast.to_dict() == reference.to_dict()


def _node_walk(tree):
    """(depth, leaves) counted over the fitted node graph."""
    deepest, leaves = 0, 0
    stack = [(tree._root, 0)]
    while stack:
        node, level = stack.pop()
        if node.is_leaf:
            deepest, leaves = max(deepest, level), leaves + 1
        else:
            stack.append((node.left, level + 1))
            stack.append((node.right, level + 1))
    return deepest, leaves


class TestBatchedSplitSearch:
    """The presorted kernel grows the same trees as per-node growth
    with the per-feature reference scan, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(**_ORACLE_CASES)
    def test_matches_reference_scan(self, **case):
        _assert_matches_reference(**case)

    @pytest.mark.slow
    @settings(max_examples=3000, deadline=None)
    @given(**_ORACLE_CASES)
    def test_matches_reference_scan_long(self, **case):
        _assert_matches_reference(**case)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           n=st.integers(min_value=2, max_value=60),
           kinds=_ORACLE_CASES["kinds"],
           n_classes=st.integers(min_value=2, max_value=4),
           max_features=st.sampled_from(["sqrt", "log2", 1, 2]),
           random_state=st.integers(min_value=0, max_value=1000))
    def test_forest_matches_reference_trees(self, seed, n, kinds,
                                            n_classes, max_features,
                                            random_state):
        X, y, params = _oracle_case(seed, n, kinds, n_classes, 1, None,
                                    max_features, random_state)
        forest = RandomForestClassifier(
            n_estimators=3, max_features=params["max_features"],
            random_state=random_state).fit(X, y)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(forest_module, "DecisionTreeClassifier",
                          _ReferenceTree)
            reference = RandomForestClassifier(
                n_estimators=3, max_features=params["max_features"],
                random_state=random_state).fit(X, y)
        assert isinstance(reference.trees_[0], _ReferenceTree)
        assert forest.to_dict() == reference.to_dict()

    def test_edge_columns_match_reference(self):
        """Infinite, NaN and signed-zero cells, where a midpoint can be
        infinite or NaN."""
        X = np.array([[-np.inf, np.nan, -0.0, -np.inf],
                      [np.inf, 1.0, 0.0, np.inf],
                      [-np.inf, np.nan, 0.0, -np.inf],
                      [np.inf, 2.0, -0.0, np.inf],
                      [1.0, np.inf, 1.0, np.inf],
                      [np.inf, -np.inf, -1.0, -np.inf]])
        y = np.array([0, 1, 0, 1, 1, 0])
        for columns in ([0], [1], [2], [3], [3, 0], [0, 1, 2, 3]):
            # -inf and +inf side by side have a NaN midpoint, which
            # must neither be computed in numpy nor become a threshold
            with np.errstate(invalid="raise"):
                fast = DecisionTreeClassifier().fit(X[:, columns], y)
                reference = _ReferenceTree().fit(X[:, columns], y)
            assert fast.to_dict() == reference.to_dict()
        # the column of only +-inf splits into two non-empty children
        fast = DecisionTreeClassifier().fit(X[:, [3]], y)
        assert (fast.depth(), fast.n_leaves()) == (1, 2)
        assert fast.predict(X[:, [3]]).tolist() == y.tolist()


class TestIntrospection:
    @settings(max_examples=50, deadline=None)
    @given(**_ORACLE_CASES)
    def test_depth_and_leaves_equal_node_walk(self, **case):
        X, y, params = _oracle_case(**case)
        tree = DecisionTreeClassifier(**params).fit(X, y)
        assert (tree.depth(), tree.n_leaves()) == _node_walk(tree)
        loaded = DecisionTreeClassifier.from_dict(tree.to_dict())
        assert (loaded.depth(), loaded.n_leaves()) == _node_walk(tree)
