"""CART decision tree with gini impurity (numpy implementation).

Supports the knobs the reproduction needs: depth/leaf-size limits,
deterministic tie-breaking, gini feature importances normalised to sum
to one.

Each fit sorts every column once (a stable mergesort).  Every node
carries its (features x rows) order, and a child's order is its parent's
filtered by the split mask: a stable filter of a stable sort equals the
child's own mergesort, ties included.  A node scores every feature at
once from two running sums along that order, both exact integers: the
sum of squared left class counts (a running sum of ``2r - 1``, where
``r`` is a row's rank within its class, found by one radix ``argsort``
of (feature, class) keys) and the counts-weighted left counts, from
which the right side's sum of squares follows.  The gini and gain float
expressions keep the operation order of a per-feature scan, so every
tree is bit-identical to it.  Gains are laid out feature-major with
invalid positions at ``-inf``, so ``argmax`` breaks ties toward the
first feature, then the first position.

The fitted tree is one table, a :class:`~repro.ml.compiled.CompiledTree`
with a row per node in DFS preorder (left child first): feature,
threshold, children and leaf class counts.  ``_grow`` writes the rows as
it reaches the nodes, ``predict`` descends them (small blocks in plain
Python, large ones in numpy), ``to_dict`` reads them back and
``from_dict`` checks a payload's rows and builds the table from them.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MLError
from repro.ml.compiled import CompiledTree


class _SplitKernel:
    """The split search of one fit: its columns sorted once, its class
    codes and its per-size weight vectors.  Built per fit and dropped
    with it, so no cache outlives the data it was built for."""

    def __init__(self, X: np.ndarray, y: np.ndarray, n_classes: int,
                 min_leaf: int) -> None:
        n_rows, n_feat = X.shape
        self.columns = np.ascontiguousarray(X.T)
        self.order = np.argsort(self.columns, axis=1, kind="mergesort")
        self.n_feat = n_feat
        self.min_leaf = min_leaf
        # (feature, class) keys small enough for a radix argsort
        key_type = np.min_scalar_type(n_feat * n_classes - 1)
        self.codes = y.astype(key_type)
        self._key_offsets = (n_classes
                             * np.arange(n_feat, dtype=key_type))[:, None]
        self._row_offsets = n_rows * np.arange(n_feat)[:, None]
        self._odd = 2 * np.arange(n_rows) + 1
        self._sizes = np.arange(n_rows, dtype=np.float64)
        self._weights: dict[int, tuple] = {}

    def best_split(self, order: np.ndarray, class_n: np.ndarray):
        """Best ``(feature, threshold, gain)`` of an impure node, or
        ``None`` when no split gains more than 1e-12.  Column *i* of the
        gain matrix is the split with ``i + 1`` rows on the left."""
        n_feat = self.n_feat
        n = order.shape[1]
        p = class_n / n
        node_gini = float(1.0 - np.dot(p, p))
        values = self.columns.reshape(-1)[order + self._row_offsets]
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
        return f, float(threshold), gain


class DecisionTreeClassifier:
    """CART classifier (gini criterion, binary splits on thresholds).

    The fit draws nothing at random; ``random_state`` is only recorded
    in the payload's ``params``, as the service layer's seed.
    """

    def __init__(self, max_depth: int | None = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 random_state: int | None = None) -> None:
        if min_samples_split < 2:
            raise MLError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise MLError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state
        self._table: CompiledTree | None = None
        self.classes_: np.ndarray | None = None
        self.n_features_: int = 0
        self.feature_importances_: np.ndarray | None = None

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
        self._table, importance = self._grow(X, y_enc)
        total = importance.sum()
        self.feature_importances_ = (importance / total if total > 0
                                     else importance.copy())
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray) -> tuple:
        """Grow the tree depth first, left child first, writing each
        node's row as it is reached; returns the table and the
        unnormalised importances.  The loop is iterative: degenerate
        data can produce paths hundreds of nodes deep, beyond Python's
        recursion limit."""
        n_classes = len(self.classes_)
        kernel = _SplitKernel(X, y, n_classes, self.min_samples_leaf)
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        terms: list[float] = []  # a split's share of the importance
        leaf_rows: list[int] = []
        leaf_counts: list[np.ndarray] = []
        depth = 0
        n_total = len(X)
        # (order, class counts, depth, the parent's child list, parent)
        stack = [(kernel.order, np.bincount(kernel.codes,
                                            minlength=n_classes),
                  0, left, 0)]
        while stack:
            order, class_n, level, side, parent = stack.pop()
            row = len(feature)
            # a leaf keeps itself as both children
            feature.append(-1)
            threshold.append(0.0)
            left.append(row)
            right.append(row)
            terms.append(0.0)
            side[parent] = row
            n = order.shape[1]
            split = None
            if (n >= self.min_samples_split
                    and np.count_nonzero(class_n) > 1
                    and (self.max_depth is None or level < self.max_depth)):
                split = kernel.best_split(order, class_n)
            if split is not None:
                f, t, gain = split
                goes_left = (kernel.columns[f] <= t)[order]
                n_left = int(np.count_nonzero(goes_left[0]))
                if 0 < n_left < n:  # else degenerate split: leaf
                    feature[row] = f
                    threshold[row] = t
                    terms[row] = (n / n_total) * gain
                    left_order = order[goes_left].reshape(-1, n_left)
                    left_n = np.bincount(kernel.codes[left_order[0]],
                                         minlength=n_classes)
                    # the left child pops first: it is the next row
                    stack.append((order[~goes_left].reshape(-1, n - n_left),
                                  class_n - left_n, level + 1, right, row))
                    stack.append((left_order, left_n, level + 1, left, row))
                    continue
            leaf_rows.append(row)
            leaf_counts.append(class_n)
            depth = max(depth, level)
        counts = np.zeros((len(feature), n_classes))
        counts[leaf_rows] = leaf_counts
        table = CompiledTree(
            np.array(feature, dtype=np.intp), np.array(threshold),
            np.array(left, dtype=np.intp), np.array(right, dtype=np.intp),
            counts, self.classes_, self.n_features_, depth)
        # importances add up in right-first preorder, the order the
        # golden Table IV was summed in: float addition order is part of
        # its bits
        importance = np.zeros(self.n_features_)
        stack = [0]
        while stack:
            row = stack.pop()
            if feature[row] >= 0:
                importance[feature[row]] += terms[row]
                stack.append(left[row])
                stack.append(right[row])
        return table, importance

    # -- prediction -----------------------------------------------------------------

    def _check_fitted(self) -> None:
        if self._table is None:
            raise MLError("classifier is not fitted")

    def predict(self, X) -> np.ndarray:
        if self._table is None:  # inline: this is every served block
            raise MLError("classifier is not fitted")
        return self._table.predict(X)

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        return self._table.predict_proba(X)

    # -- serialization ----------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe payload of the fitted tree: the table's rows.

        Node 0 is the root; ``feature == -1`` marks a leaf, whose
        children are written as -1 and whose ``value`` row carries the
        training class counts.  ``params`` writes ``max_features`` as
        null, the one value :meth:`from_dict` accepts.
        """
        self._check_fitted()
        table = self._table
        leaf = table.feature < 0
        nodes = {
            "feature": table.feature.tolist(),
            "threshold": table.threshold.tolist(),
            "left": np.where(leaf, -1, table.left).tolist(),
            "right": np.where(leaf, -1, table.right).tolist(),
            "value": [counts if is_leaf else None for counts, is_leaf
                      in zip(table.counts.tolist(), leaf.tolist())],
        }
        return {
            "params": {
                "max_depth": self.max_depth,
                "min_samples_split": self.min_samples_split,
                "min_samples_leaf": self.min_samples_leaf,
                "max_features": None,
                "random_state": self.random_state,
            },
            "classes": self.classes_.tolist(),
            "n_features": int(self.n_features_),
            "feature_importances": self.feature_importances_.tolist(),
            "nodes": nodes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTreeClassifier":
        """Rebuild a fitted tree from a :meth:`to_dict` payload.

        The payload's rows become the table as they are, so they must
        be one tree in DFS preorder, the shape ``to_dict`` writes: a
        split's left child is the next row, its right child the row
        after its left subtree, and every row but the root has exactly
        one parent, so each leaf has one path from the root.  A split
        must also split on a column the tree has.
        """
        try:
            params = dict(data["params"])
            if params.pop("max_features", None) is not None:
                raise MLError(f"tree payload sets max_features="
                              f"{data['params']['max_features']!r}; "
                              f"only null is supported")
            tree = cls(**params)
            raw = data["nodes"]
            feature = np.array(raw["feature"], dtype=np.intp)
            n = len(feature)
            if n == 0:
                raise MLError("tree payload has no nodes")
            threshold = np.array(raw["threshold"], dtype=np.float64)
            left = np.array(raw["left"], dtype=np.intp)
            right = np.array(raw["right"], dtype=np.intp)
            if not (feature.shape == threshold.shape == left.shape
                    == right.shape == (n,) and len(raw["value"]) == n):
                raise MLError("tree payload node lists differ in length")
            classes = np.asarray(data["classes"])
            n_features = int(data["n_features"])
            leaf = feature < 0
            # a walk from the root, left child first, reaches the rows of
            # a tree in DFS preorder in order; a cycle, a shared child, a
            # child out of range or a row left over breaks that order
            stack, reached, depth = [(0, 0)], 0, 0
            kids = list(zip(leaf.tolist(), left.tolist(), right.tolist()))
            while stack:
                i, level = stack.pop()
                if i != reached or i >= n:
                    raise MLError(f"tree payload reaches node {i} where "
                                  f"node {reached} is due in DFS preorder")
                reached += 1
                is_leaf, lo, hi = kids[i]
                if is_leaf:
                    depth = max(depth, level)
                else:
                    stack += ((hi, level + 1), (lo, level + 1))
            if reached < n:
                raise MLError(f"tree payload node {reached} is not reached "
                              f"from the root in DFS preorder")
            bad = ~leaf & (feature >= n_features)
            if bad.any():
                i = int(np.argmax(bad))
                raise MLError(
                    f"tree payload node {i} splits on feature "
                    f"{feature[i]} of a tree with {n_features}")
            leaf_counts = np.asarray([raw["value"][i]
                                      for i in np.flatnonzero(leaf)],
                                     dtype=np.float64)
            if leaf_counts.shape != (np.count_nonzero(leaf), len(classes)):
                raise MLError(f"tree payload leaf values must be rows of "
                              f"{len(classes)} class counts")
            counts = np.zeros((n, len(classes)))
            counts[leaf] = leaf_counts
            feature[leaf] = -1
            threshold[leaf] = 0.0
            left[leaf] = right[leaf] = np.flatnonzero(leaf)
            tree._table = CompiledTree(feature, threshold, left, right,
                                       counts, classes, n_features, depth)
            tree.classes_ = classes
            tree.n_features_ = n_features
            tree.feature_importances_ = np.asarray(
                data["feature_importances"], dtype=np.float64)
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
