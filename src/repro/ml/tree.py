"""CART decision tree with gini impurity (numpy implementation).

Supports the knobs the reproduction needs: depth/leaf-size limits,
per-node feature subsampling (for the random forest), deterministic
tie-breaking, gini feature importances normalised to sum to one.

Each fit sorts every column once (a stable mergesort).  Every node
carries its (features x rows) order, and a child's order is its parent's
filtered by the split mask: a stable filter of a stable sort equals the
child's own mergesort, ties included.  A node scores every candidate
feature at once from two running sums along that order, both exact
integers: the sum of squared left class counts (a running sum of
``2r - 1``, where ``r`` is a row's rank within its class, found by one
radix ``argsort`` of (feature, class) keys) and the counts-weighted left
counts, from which the right side's sum of squares follows.  The gini
and gain float expressions keep the operation order of a per-feature
scan, so every tree is bit-identical to it.  Gains are laid out
feature-major with invalid positions at ``-inf``, so ``argmax`` breaks
ties toward the first feature, then the first position.

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


class _SplitKernel:
    """The split search of one fit: its columns sorted once, its class
    codes and its per-size weight vectors.  Built per fit and dropped
    with it, so no cache outlives the data it was built for."""

    def __init__(self, X: np.ndarray, y: np.ndarray, n_classes: int,
                 n_feat: int, min_leaf: int) -> None:
        n_rows = len(X)
        self.columns = np.ascontiguousarray(X.T)
        self.order = np.argsort(self.columns, axis=1, kind="mergesort")
        self.n_feat = n_feat
        self.min_leaf = min_leaf
        # (candidate, class) keys small enough for a radix argsort
        key_type = np.min_scalar_type(n_feat * n_classes - 1)
        self.codes = y.astype(key_type)
        self._key_offsets = (n_classes
                             * np.arange(n_feat, dtype=key_type))[:, None]
        self._row_offsets = n_rows * np.arange(n_feat)[:, None]
        self._odd = 2 * np.arange(n_rows) + 1
        self._sizes = np.arange(n_rows, dtype=np.float64)
        self._weights: dict[int, tuple] = {}

    def best_split(self, order: np.ndarray, class_n: np.ndarray,
                   candidates: np.ndarray | None):
        """Best ``(feature, threshold, gain)`` of an impure node, or
        ``None`` when no split gains more than 1e-12.  Column *i* of the
        gain matrix is the split with ``i + 1`` rows on the left."""
        n_feat = self.n_feat
        n = order.shape[1]
        p = class_n / n
        node_gini = float(1.0 - np.dot(p, p))
        if candidates is None:
            values = self.columns.reshape(-1)[order + self._row_offsets]
        else:
            order = order[candidates]
            values = self.columns.reshape(-1)[
                order + self.columns.shape[1] * candidates[:, None]]
        weights = self._weights.get(n)
        if weights is None:
            nl = self._sizes[1:n]
            nl_nr = np.array((nl, nl[::-1]))[:, None]
            weights = self._weights[n] = (nl_nr * nl_nr, nl_nr / n)
        squares, fractions = weights
        # exact integer running sums along each order, both sides at
        # once: sum_c lc_c**2 is the running sum of 2r - 1 (r a row's
        # rank within its class), and sum_c rc_c**2 = sum_c counts_c**2
        # - 2 sum_c counts_c lc_c + sum_c lc_c**2 is the running sum of
        # 2r - 1 - 2 counts[class], started at sum_c counts_c**2
        codes = self.codes[order]
        ranks = (codes + self._key_offsets).reshape(-1).argsort(
            kind="stable")
        terms = np.empty((2, n_feat, n), dtype=np.int64)
        starts = class_n.cumsum() - class_n
        terms[0].reshape(-1)[ranks.reshape(n_feat, n)] = (
            self._odd[:n] - 2 * starts.repeat(class_n))
        (-2 * class_n).take(codes, out=terms[1])
        terms[1] += terms[0]
        terms[1, :, 0] += int(class_n @ class_n)
        sums = terms[:, :, :-1].cumsum(axis=2)
        # (nl / n) * gini_l and (nr / n) * gini_r
        parts = fractions * (1.0 - sums / squares)
        gains = node_gini - parts[0] - parts[1]
        # valid split positions: between distinct values, honouring the
        # minimum leaf size
        gains[~(values[:, :-1] < values[:, 1:])] = -np.inf
        min_leaf = self.min_leaf
        if min_leaf > 1:
            gains[:, :min_leaf - 1] = -np.inf
            gains[:, n - min_leaf:] = -np.inf
        # feature-major argmax: first feature, then first position
        f, i = divmod(int(gains.argmax()), n - 1)
        gain = float(gains[f, i])
        if gain <= 1e-12:
            return None
        lo, hi = float(values[f, i]), float(values[f, i + 1])
        threshold = (lo + hi) / 2.0
        if not threshold < hi:
            # adjacent values one ulp apart round the midpoint up, and
            # -inf beside +inf have a NaN one: either would send every
            # row one way -- split on the lower value instead so both
            # children are non-empty
            threshold = lo
        feature = f if candidates is None else int(candidates[f])
        return feature, float(threshold), gain


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

        self._root = self._grow(X, y_enc, self._resolve_max_features())
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

    def _grow(self, X: np.ndarray, y: np.ndarray, n_feat: int) -> _Node:
        """Grow the tree depth first, right child first: the order in
        which forests draw candidate features and importances are
        summed.  The loop is iterative: degenerate data can produce
        paths hundreds of nodes deep, beyond Python's recursion limit.
        """
        kernel = _SplitKernel(X, y, self._n_classes, n_feat,
                              self.min_samples_leaf)
        root = _Node()
        stack = [(kernel.order,
                  np.bincount(kernel.codes, minlength=self._n_classes),
                  0, root)]
        while stack:
            order, class_n, depth, node = stack.pop()
            self.n_nodes_ += 1
            n = order.shape[1]
            split = None
            if (n >= self.min_samples_split
                    and np.count_nonzero(class_n) > 1
                    and (self.max_depth is None or depth < self.max_depth)):
                candidates = None
                if n_feat < self.n_features_:
                    candidates = self._rng.choice(self.n_features_,
                                                  size=n_feat,
                                                  replace=False)
                    candidates.sort()
                split = kernel.best_split(order, class_n, candidates)
            if split is None:
                node.value = class_n.astype(float)
                continue

            feature, threshold, gain = split
            goes_left = (kernel.columns[feature] <= threshold)[order]
            n_left = int(np.count_nonzero(goes_left[0]))
            if n_left == 0 or n_left == n:  # degenerate split: leaf
                node.value = class_n.astype(float)
                continue
            self._importance[feature] += (n / self._n_total) * gain
            node.feature = feature
            node.threshold = threshold
            node.left = _Node()
            node.right = _Node()
            left = order[goes_left].reshape(-1, n_left)
            left_n = np.bincount(kernel.codes[left[0]],
                                 minlength=self._n_classes)
            stack.append((left, left_n, depth + 1, node.left))
            stack.append((order[~goes_left].reshape(-1, n - n_left),
                          class_n - left_n, depth + 1, node.right))
        return root

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
        the oracle for ``predict`` and the compiled tables, on the
        float64 lift of *X*."""
        self._check_fitted()
        X = self._table._validate_X(np.asarray(X, dtype=np.float64))
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
        X = self._table._validate_X(np.asarray(X, dtype=np.float64))
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
        return self._table.depth

    def n_leaves(self) -> int:
        self._check_fitted()
        return int(np.count_nonzero(self._table.feature < 0))
