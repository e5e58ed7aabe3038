"""CART decision tree with gini impurity (numpy implementation).

Supports the knobs the reproduction needs: depth/leaf-size limits,
per-node feature subsampling (for the random forest), deterministic
tie-breaking, gini feature importances normalised to sum to one.

The split search scores every candidate feature of a node at once: one
stable ``argsort`` of the node's columns, one cumulative class-count
tensor (positions x features x classes) and one gain matrix, in which
invalid positions are ``-inf``.  Class counts are exact integers, so
each gain is bit-identical to a per-feature scan.  Ties go to the first
feature, then the first position (argmax over the transposed matrix).

After fitting, the tree flattens itself into a
:class:`~repro.ml.compiled.CompiledTree`, so it scores through the same
descent as a served model: small blocks walk in plain Python, large ones
in numpy.  The per-row node walk (``_predict_rowwise``) is the oracle
the equivalence tests check both against.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MLError
from repro.ml.compiled import CompiledTree


class _Node:
    """One tree node; leaves carry a class distribution."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature: int = -1, threshold: float = 0.0,
                 left=None, right=None, value=None) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value

    @property
    def is_leaf(self) -> bool:
        return self.value is not None


def _gini(class_counts: np.ndarray) -> float:
    total = class_counts.sum()
    if total <= 0:
        return 0.0
    p = class_counts / total
    return float(1.0 - np.dot(p, p))


class DecisionTreeClassifier:
    """CART classifier (gini criterion, binary splits on thresholds)."""

    def __init__(self, max_depth: int | None = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features: int | str | None = None,
                 random_state: int | None = None) -> None:
        if min_samples_split < 2:
            raise MLError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise MLError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._root: _Node | None = None
        self.classes_: np.ndarray | None = None
        self.n_features_: int = 0
        self.feature_importances_: np.ndarray | None = None
        self.n_nodes_: int = 0

    # -- fitting ------------------------------------------------------------------

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2:
            raise MLError(f"X must be 2-D, got shape {X.shape}")
        if len(X) != len(y):
            raise MLError(f"X and y disagree: {len(X)} vs {len(y)}")
        if len(X) == 0:
            raise MLError("cannot fit on an empty dataset")

        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        self._n_classes = len(self.classes_)
        self._rng = np.random.default_rng(self.random_state)
        self._importance = np.zeros(self.n_features_)
        self._n_total = len(X)
        self.n_nodes_ = 0

        n_feat = self._resolve_max_features()
        self._root = self._grow(X, y_enc, depth=0, n_feat=n_feat)
        self._flatten()

        total = self._importance.sum()
        self.feature_importances_ = (self._importance / total if total > 0
                                     else self._importance.copy())
        return self

    def _resolve_max_features(self) -> int:
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if self.max_features == "log2":
            return max(1, int(np.log2(self.n_features_)))
        n = int(self.max_features)
        if not 1 <= n <= self.n_features_:
            raise MLError(f"max_features {n} outside [1, "
                          f"{self.n_features_}]")
        return n

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int,
              n_feat: int) -> _Node:
        """Grow the tree iteratively (degenerate data can produce paths
        hundreds of nodes deep, beyond Python's recursion limit)."""
        root = _Node()
        stack = [(X, y, depth, root)]
        while stack:
            X_node, y_node, node_depth, node = stack.pop()
            self.n_nodes_ += 1
            counts = np.bincount(y_node,
                                 minlength=self._n_classes).astype(float)
            node_gini = _gini(counts)
            n = len(y_node)

            split = None
            if (node_gini > 0.0 and n >= self.min_samples_split
                    and (self.max_depth is None
                         or node_depth < self.max_depth)):
                split = self._best_split(X_node, y_node, counts,
                                         node_gini, n_feat)
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

    def _best_split(self, X: np.ndarray, y: np.ndarray,
                    counts: np.ndarray, node_gini: float,
                    n_feat: int):
        """Best ``(feature, threshold, gain)`` over the node's candidate
        features, or ``None`` when no split gains more than 1e-12."""
        n = len(y)
        min_leaf = self.min_samples_leaf
        if n_feat < self.n_features_:
            candidates = self._rng.choice(self.n_features_, size=n_feat,
                                          replace=False)
            candidates.sort()
            X = X[:, candidates]
        else:
            candidates = np.arange(self.n_features_)

        onehot = np.zeros((n, self._n_classes))
        onehot[np.arange(n), y] = 1.0
        order = np.argsort(X, axis=0, kind="mergesort")
        sorted_X = np.take_along_axis(X, order, axis=0)
        # row i holds the split with i + 1 samples on the left; lc is
        # (positions, features, classes) cumulative class counts
        lc = np.cumsum(onehot[order[:-1]], axis=0)
        rc = counts - lc
        nl = np.arange(1, n, dtype=np.float64)[:, None]
        nr = n - nl
        gini_l = 1.0 - np.einsum("pfc,pfc->pf", lc, lc) / (nl * nl)
        gini_r = 1.0 - np.einsum("pfc,pfc->pf", rc, rc) / (nr * nr)
        gains = node_gini - (nl / n) * gini_l - (nr / n) * gini_r
        # valid split positions: between distinct values, honouring the
        # minimum leaf size
        gains[~(sorted_X[:-1] < sorted_X[1:])] = -np.inf
        gains[:min_leaf - 1] = -np.inf
        gains[n - min_leaf:] = -np.inf
        # feature-major argmax: first feature, then first position
        f, i = divmod(int(np.argmax(gains.T)), n - 1)
        best_gain = float(gains[i, f])
        if best_gain <= 1e-12:
            return None
        lo, hi = sorted_X[i, f], sorted_X[i + 1, f]
        threshold = (lo + hi) / 2.0
        if threshold >= hi:
            # adjacent values one ulp apart: the midpoint rounds up and
            # would send every sample left — split on the lower value
            # instead so both children are non-empty
            threshold = lo
        return int(candidates[f]), float(threshold), best_gain

    # -- prediction -----------------------------------------------------------------

    def _check_fitted(self) -> None:
        if self._root is None:
            raise MLError("classifier is not fitted")

    def _flatten(self) -> None:
        """Flatten the node graph into the :class:`CompiledTree` that
        ``predict`` descends.

        ``feature[i] == -1`` marks node *i* as a leaf; internal nodes
        carry (feature, threshold) and the indices of both children,
        and a leaf is its own left and right child.  Per-leaf argmax
        classes and probability rows are precomputed once so prediction
        is pure indexing; the DFS also records the tree's depth.
        """
        order: list[_Node] = []
        index: dict[int, int] = {}
        stack = [(self._root, 0)]
        depth = 0
        while stack:
            node, level = stack.pop()
            index[id(node)] = len(order)
            order.append(node)
            if node.is_leaf:
                if level > depth:
                    depth = level
            else:
                level += 1
                stack.append((node.right, level))
                stack.append((node.left, level))
        n = len(order)
        feature = np.full(n, -1, dtype=np.intp)
        threshold = np.zeros(n, dtype=np.float64)
        # a leaf keeps itself as both children
        left = np.arange(n, dtype=np.intp)
        right = np.arange(n, dtype=np.intp)
        values = np.zeros((n, self._n_classes), dtype=np.float64)
        for i, node in enumerate(order):
            if node.is_leaf:
                values[i] = node.value
            else:
                feature[i] = node.feature
                threshold[i] = node.threshold
                left[i] = index[id(node.left)]
                right[i] = index[id(node.right)]
        sums = values.sum(axis=1)
        sums[sums == 0.0] = 1.0
        self._table = CompiledTree(feature, threshold, left, right,
                                   values.argmax(axis=1),
                                   values / sums[:, None], self.classes_,
                                   self.n_features_, depth)

    def predict(self, X) -> np.ndarray:
        if self._root is None:  # inline: this is every served block
            raise MLError("classifier is not fitted")
        return self._table.predict(X)

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        return self._table.predict_proba(X)

    # -- row-wise oracles (seed behaviour) -------------------------------------------

    def _predict_rowwise(self, X) -> np.ndarray:
        """Seed per-row recursive descent over the node graph; kept as
        the oracle for ``predict`` and the compiled tables."""
        self._check_fitted()
        X = self._table._validate_X(X)
        out = np.empty(len(X), dtype=int)
        for i, row in enumerate(X):
            node = self._root
            while not node.is_leaf:
                node = (node.left if row[node.feature] <= node.threshold
                        else node.right)
            out[i] = int(np.argmax(node.value))
        return self.classes_[out]

    def _predict_proba_rowwise(self, X) -> np.ndarray:
        self._check_fitted()
        X = self._table._validate_X(X)
        probs = np.empty((len(X), self._n_classes))
        for i, row in enumerate(X):
            node = self._root
            while not node.is_leaf:
                node = (node.left if row[node.feature] <= node.threshold
                        else node.right)
            total = node.value.sum() or 1.0
            probs[i] = node.value / total
        return probs

    # -- serialization ----------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe payload of the fitted tree (flattened node arrays).

        Node 0 is the root; ``feature == -1`` marks a leaf, whose
        ``value`` row carries the training class counts.  The payload
        round-trips exactly: :meth:`from_dict` rebuilds the node graph
        and re-flattens it, so predictions are bit-identical.
        """
        self._check_fitted()
        order: list[_Node] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            order.append(node)
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)
        index = {id(node): i for i, node in enumerate(order)}
        nodes: dict[str, list] = {"feature": [], "threshold": [],
                                  "left": [], "right": [], "value": []}
        for node in order:
            if node.is_leaf:
                nodes["feature"].append(-1)
                nodes["threshold"].append(0.0)
                nodes["left"].append(-1)
                nodes["right"].append(-1)
                nodes["value"].append([float(v) for v in node.value])
            else:
                nodes["feature"].append(int(node.feature))
                nodes["threshold"].append(float(node.threshold))
                nodes["left"].append(index[id(node.left)])
                nodes["right"].append(index[id(node.right)])
                nodes["value"].append(None)
        return {
            "params": {
                "max_depth": self.max_depth,
                "min_samples_split": self.min_samples_split,
                "min_samples_leaf": self.min_samples_leaf,
                "max_features": self.max_features,
                "random_state": self.random_state,
            },
            "classes": self.classes_.tolist(),
            "n_features": int(self.n_features_),
            "feature_importances": self.feature_importances_.tolist(),
            "nodes": nodes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTreeClassifier":
        """Rebuild a fitted tree from a :meth:`to_dict` payload."""
        try:
            tree = cls(**data["params"])
            raw = data["nodes"]
            n = len(raw["feature"])
            if n == 0:
                raise MLError("tree payload has no nodes")
            nodes = [_Node() for _ in range(n)]
            for i in range(n):
                if raw["feature"][i] < 0:
                    nodes[i].value = np.asarray(raw["value"][i],
                                                dtype=np.float64)
                else:
                    left, right = int(raw["left"][i]), int(raw["right"][i])
                    # to_dict emits nodes in DFS preorder, so children
                    # always follow their parent; enforcing that here
                    # rejects cycles and negative-index aliasing in
                    # hand-edited payloads instead of hanging _flatten()
                    if not (i < left < n and i < right < n):
                        raise MLError(
                            f"tree payload node {i} has invalid "
                            f"children ({left}, {right}); child indices "
                            f"must lie in ({i}, {n})")
                    nodes[i].feature = int(raw["feature"][i])
                    nodes[i].threshold = float(raw["threshold"][i])
                    nodes[i].left = nodes[left]
                    nodes[i].right = nodes[right]
            tree.classes_ = np.asarray(data["classes"])
            tree.n_features_ = int(data["n_features"])
            tree._n_classes = len(tree.classes_)
            tree.n_nodes_ = n
            tree.feature_importances_ = np.asarray(
                data["feature_importances"], dtype=np.float64)
            tree._root = nodes[0]
            tree._flatten()
        except MLError:
            raise
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise MLError(f"malformed decision-tree payload: {exc!r}")
        return tree

    # -- introspection ----------------------------------------------------------------

    def depth(self) -> int:
        self._check_fitted()
        deepest = 0
        stack = [(self._root, 0)]
        while stack:
            node, level = stack.pop()
            if node.is_leaf:
                deepest = max(deepest, level)
            else:
                stack.append((node.left, level + 1))
                stack.append((node.right, level + 1))
        return deepest

    def n_leaves(self) -> int:
        self._check_fitted()
        leaves = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves += 1
            else:
                stack.append(node.left)
                stack.append(node.right)
        return leaves
