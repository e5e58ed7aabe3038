"""Random forest on top of the CART tree (robustness extension).

The paper's model is a single decision tree; reference [7] of the paper
uses random forests for OpenMP energy prediction.  We ship a small
bagged-forest implementation both as an ablation (does bagging close the
static/dynamic gap?) and as a stress test of the tree implementation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MLError
from repro.ml.compiled import CompiledForest
from repro.ml.tree import DecisionTreeClassifier


class RandomForestClassifier:
    """Bootstrap-aggregated CART trees with per-node feature sampling."""

    def __init__(self, n_estimators: int = 50,
                 max_depth: int | None = None,
                 min_samples_leaf: int = 1,
                 max_features: int | str | None = "sqrt",
                 random_state: int | None = None) -> None:
        if n_estimators < 1:
            raise MLError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.trees_: list[DecisionTreeClassifier] = []
        self.classes_: np.ndarray | None = None
        self.feature_importances_: np.ndarray | None = None
        self._table: CompiledForest | None = None

    def fit(self, X, y) -> "RandomForestClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if len(X) != len(y) or len(X) == 0:
            raise MLError("X and y must be non-empty and aligned")
        rng = np.random.default_rng(self.random_state)
        self.classes_ = np.unique(y)
        self.trees_ = []
        importances = np.zeros(X.shape[1])
        for b in range(self.n_estimators):
            idx = rng.integers(0, len(X), size=len(X))
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2**31 - 1)))
            tree.fit(X[idx], y[idx])
            self.trees_.append(tree)
            importances += tree.feature_importances_
        total = importances.sum()
        self.feature_importances_ = (importances / total if total > 0
                                     else importances)
        self._table = CompiledForest.from_model(self)
        return self

    def predict(self, X) -> np.ndarray:
        """Majority vote over the trees, scored through the forest's
        one concatenated decision table (built at fit/load time); ties
        break toward the lowest class, as in :meth:`_predict_loop`."""
        if self._table is None:
            raise MLError("forest is not fitted")
        return self._table.predict(X)

    # -- serialization ----------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe payload: hyper-parameters plus every fitted tree."""
        if not self.trees_:
            raise MLError("forest is not fitted")
        return {
            "params": {
                "n_estimators": self.n_estimators,
                "max_depth": self.max_depth,
                "min_samples_leaf": self.min_samples_leaf,
                "max_features": self.max_features,
                "random_state": self.random_state,
            },
            "classes": self.classes_.tolist(),
            "feature_importances": self.feature_importances_.tolist(),
            "trees": [tree.to_dict() for tree in self.trees_],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RandomForestClassifier":
        """Rebuild a fitted forest from a :meth:`to_dict` payload."""
        try:
            forest = cls(**data["params"])
            forest.classes_ = np.asarray(data["classes"])
            forest.feature_importances_ = np.asarray(
                data["feature_importances"], dtype=np.float64)
            forest.trees_ = [DecisionTreeClassifier.from_dict(tree)
                             for tree in data["trees"]]
        except MLError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise MLError(f"malformed random-forest payload: {exc!r}")
        if not forest.trees_:
            raise MLError("forest payload has no trees")
        forest._table = CompiledForest.from_model(forest)
        return forest

    def _predict_loop(self, X) -> np.ndarray:
        """Per-tree/per-row dict voting over the trees' node walks: the
        oracle for :meth:`predict`."""
        if not self.trees_:
            raise MLError("forest is not fitted")
        X = np.asarray(X, dtype=np.float64)
        votes = np.zeros((len(X), len(self.classes_)), dtype=int)
        class_index = {c: i for i, c in enumerate(self.classes_)}
        for tree in self.trees_:
            for i, pred in enumerate(tree._predict_rowwise(X)):
                votes[i, class_index[pred]] += 1
        return self.classes_[votes.argmax(axis=1)]
