"""Decision tree tests: correctness, invariants, importances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MLError
from repro.ml import DecisionTreeClassifier
from repro.ml.metrics import accuracy
from tests.tree_oracle import ReferenceTree, depth_and_leaves, node_graph


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

        assert min(leaf_sizes(node_graph(tree.to_dict()))) >= 10

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
        a = DecisionTreeClassifier(random_state=11).fit(X, y)
        b = DecisionTreeClassifier(random_state=11).fit(X, y)
        assert (a.predict(X) == b.predict(X)).all()
        assert a.to_dict() == b.to_dict()


_ORACLE_CASES = dict(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=2, max_value=40),
    kinds=st.lists(st.sampled_from(["int", "const", "ulp", "normal"]),
                   min_size=1, max_size=6),
    n_classes=st.integers(min_value=1, max_value=4),
    min_samples_leaf=st.integers(min_value=1, max_value=4),
    max_depth=st.one_of(st.none(), st.integers(1, 5)),
    random_state=st.integers(min_value=0, max_value=1000))


def _oracle_case(seed, n, kinds, n_classes, min_samples_leaf, max_depth,
                 random_state):
    """One tie-heavy training set and the tree parameters to fit it."""
    X = _tie_heavy_matrix(seed, n, kinds)
    y = np.random.default_rng(seed + 1).integers(0, n_classes, size=n)
    params = dict(min_samples_leaf=min_samples_leaf, max_depth=max_depth,
                  random_state=random_state)
    return X, y, params


def _assert_matches_reference(**case):
    X, y, params = _oracle_case(**case)
    fast = DecisionTreeClassifier(**params).fit(X, y)
    reference = ReferenceTree(**params).fit(X, y)
    assert fast.to_dict() == reference.to_dict()


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
                reference = ReferenceTree().fit(X[:, columns], y)
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
        assert (tree.depth(), tree.n_leaves()) == depth_and_leaves(tree)
        loaded = DecisionTreeClassifier.from_dict(tree.to_dict())
        assert (loaded.depth(), loaded.n_leaves()) == depth_and_leaves(tree)


def _three_class_payload(split_feature: int = 1) -> dict:
    """A 3-class, 2-feature payload whose second node splits on
    *split_feature*."""
    return {"params": {"max_depth": None, "min_samples_split": 2,
                       "min_samples_leaf": 1, "max_features": None,
                       "random_state": 0},
            "classes": [0, 1, 2], "n_features": 2,
            "feature_importances": [0.5, 0.5],
            "nodes": {"feature": [0, split_feature, -1, -1, -1],
                      "threshold": [0.5, 0.5, 0.0, 0.0, 0.0],
                      "left": [1, 2, -1, -1, -1],
                      "right": [4, 3, -1, -1, -1],
                      "value": [None, None, [3.0, 0.0, 0.0],
                                [0.0, 2.0, 0.0], [0.0, 0.0, 4.0]]}}


class TestPayloadValidation:
    """A malformed payload is refused at load with a typed error."""

    def test_valid_payload_round_trips(self):
        payload = _three_class_payload()
        tree = DecisionTreeClassifier.from_dict(payload)
        assert tree.to_dict() == payload
        assert (tree.depth(), tree.n_leaves()) == (2, 3)
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert tree.predict(X).tolist() == [0, 1, 2]

    def test_refused_payloads(self):
        def edited(edit):
            payload = _three_class_payload()
            edit(payload)
            return payload

        nodes = "nodes"
        cases = {
            # a split on a column the tree does not have: without the
            # check, the block descent reads the next row's cell
            "feature out of range": _three_class_payload(split_feature=2),
            "no nodes": edited(lambda p: p[nodes].update(
                {key: [] for key in p[nodes]})),
            "backward child": edited(lambda p: p[nodes]["left"].__setitem__(
                1, 0)),
            "self child": edited(lambda p: p[nodes]["right"].__setitem__(
                0, 0)),
            "child past the end": edited(
                lambda p: p[nodes]["right"].__setitem__(0, 5)),
            "missing key": edited(lambda p: p.pop("n_features")),
            "missing node list": edited(lambda p: p[nodes].pop("threshold")),
            "short value row": edited(lambda p: p[nodes]["value"]
                                      .__setitem__(2, [3.0, 0.0])),
            "long value row": edited(lambda p: p[nodes]["value"]
                                     .__setitem__(2, [3.0, 0.0, 0.0, 1.0])),
            "one-count value row": edited(lambda p: p[nodes]["value"]
                                          .__setitem__(2, [3.0])),
            "max_features sqrt": edited(lambda p: p["params"].__setitem__(
                "max_features", "sqrt")),
            "max_features 2": edited(lambda p: p["params"].__setitem__(
                "max_features", 2)),
        }
        for name, payload in cases.items():
            with pytest.raises(MLError):
                DecisionTreeClassifier.from_dict(payload)
                pytest.fail(f"{name}: payload accepted")

    def test_refused_shapes_other_than_dfs_preorder(self):
        """Children that follow their parent are not enough: each leaf
        needs one path from the root for the leaf-path product."""
        def edited(edit):
            payload = _three_class_payload()
            edit(payload["nodes"])
            return payload

        def orphan(nodes):
            for key, value in (("feature", -1), ("threshold", 0.0),
                               ("left", -1), ("right", -1),
                               ("value", [1.0, 0.0, 0.0])):
                nodes[key].append(value)

        def right_first(nodes):
            # root's right leaf is row 1, its left subtree rows 2-4
            nodes.update(feature=[0, -1, 1, -1, -1], left=[2, -1, 3, -1, -1],
                         right=[1, -1, 4, -1, -1])

        cases = {
            # node 0's right child is node 1's right child
            "a shared child": edited(lambda n: n["right"].__setitem__(0, 3)),
            "a skipped left child": edited(
                lambda n: n["left"].__setitem__(0, 2)),
            "right child first": edited(right_first),
            "a row no split reaches": edited(orphan),
        }
        for name, payload in cases.items():
            with pytest.raises(MLError, match="DFS preorder"):
                DecisionTreeClassifier.from_dict(payload)
                pytest.fail(f"{name}: payload accepted")

