"""Independent oracles for the CART tree, shared by the tree tests.

They share nothing with :mod:`repro.ml.tree` but the payload format:

* :func:`node_graph` builds a graph of :class:`Node` objects from a
  ``to_dict()`` payload, and :func:`predict_rowwise` /
  :func:`predict_proba_rowwise` walk it one row at a time -- the oracle
  of both descents of the compiled table;
* :class:`ReferenceTree` grows a tree node by node, copying each node's
  rows and scanning one feature at a time, and writes the same payload
  -- the oracle of the presorted split kernel.
"""

from __future__ import annotations

import numpy as np


class Node:
    """One tree node; leaves carry their class counts."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self) -> None:
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = None

    @property
    def is_leaf(self) -> bool:
        return self.value is not None


def node_graph(payload: dict) -> Node:
    """The root of the node graph a ``to_dict()`` payload describes."""
    raw = payload["nodes"]
    nodes = [Node() for _ in raw["feature"]]
    for i, node in enumerate(nodes):
        if raw["feature"][i] < 0:
            node.value = np.asarray(raw["value"][i], dtype=np.float64)
        else:
            node.feature = raw["feature"][i]
            node.threshold = raw["threshold"][i]
            node.left = nodes[raw["left"][i]]
            node.right = nodes[raw["right"][i]]
    return nodes[0]


def _leaves(tree, X):
    """The leaf node each row of *X* (lifted to float64) lands in."""
    X = np.asarray(X, dtype=np.float64)
    assert X.ndim == 2 and X.shape[1] == tree.n_features_
    root = node_graph(tree.to_dict())
    leaves = []
    for row in X:
        node = root
        while not node.is_leaf:
            node = (node.left if row[node.feature] <= node.threshold
                    else node.right)
        leaves.append(node)
    return leaves


def predict_rowwise(tree, X) -> np.ndarray:
    """Per-row descent of the payload's node graph: the class of each
    row's leaf, its first largest count."""
    return tree.classes_[np.array(
        [int(np.argmax(leaf.value)) for leaf in _leaves(tree, X)],
        dtype=int)]


def predict_proba_rowwise(tree, X) -> np.ndarray:
    probs = np.empty((len(X), len(tree.classes_)))
    for i, leaf in enumerate(_leaves(tree, X)):
        probs[i] = leaf.value / (leaf.value.sum() or 1.0)
    return probs


def depth_and_leaves(tree) -> tuple[int, int]:
    """(depth, leaves) counted over the payload's node graph."""
    deepest, leaves = 0, 0
    stack = [(node_graph(tree.to_dict()), 0)]
    while stack:
        node, level = stack.pop()
        if node.is_leaf:
            deepest, leaves = max(deepest, level), leaves + 1
        else:
            stack.append((node.left, level + 1))
            stack.append((node.right, level + 1))
    return deepest, leaves


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.dot(p, p))


def _best_split(X: np.ndarray, y: np.ndarray, counts: np.ndarray,
                node_gini: float, n_classes: int, min_leaf: int):
    """The per-feature split scan of one node."""
    n = len(y)
    best_gain = 1e-12
    best = None
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    for feature in range(X.shape[1]):
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
                # and -inf beside +inf have a NaN one -- split on the
                # lower value instead so both children are non-empty
                threshold = lo
            best = (feature, float(threshold), best_gain)
    return best


class ReferenceTree:
    """Per-node growth with the per-feature scan: each node copies its
    rows, and the stack pops the right child first, the order in which
    importances are summed."""

    def __init__(self, max_depth=None, min_samples_split=2,
                 min_samples_leaf=1, random_state=None) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state

    def fit(self, X, y) -> "ReferenceTree":
        X = np.asarray(X, dtype=np.float64)
        self.classes_, y = np.unique(y, return_inverse=True)
        n_classes = len(self.classes_)
        importance = np.zeros(X.shape[1])
        self.root = Node()
        stack = [(X, y, 0, self.root)]
        while stack:
            X_node, y_node, depth, node = stack.pop()
            counts = np.bincount(y_node, minlength=n_classes).astype(float)
            node_gini = _gini(counts)
            n = len(y_node)
            split = None
            if (node_gini > 0.0 and n >= self.min_samples_split
                    and (self.max_depth is None or depth < self.max_depth)):
                split = _best_split(X_node, y_node, counts, node_gini,
                                    n_classes, self.min_samples_leaf)
            if split is None:
                node.value = counts
                continue
            feature, threshold, gain = split
            mask = X_node[:, feature] <= threshold
            n_left = int(mask.sum())
            if n_left == 0 or n_left == n:  # degenerate split: leaf
                node.value = counts
                continue
            importance[feature] += (n / len(X)) * gain
            node.feature = feature
            node.threshold = threshold
            node.left = Node()
            node.right = Node()
            stack.append((X_node[mask], y_node[mask], depth + 1,
                          node.left))
            stack.append((X_node[~mask], y_node[~mask], depth + 1,
                          node.right))
        total = importance.sum()
        self.feature_importances_ = (importance / total if total > 0
                                     else importance)
        self.n_features_ = X.shape[1]
        return self

    def to_dict(self) -> dict:
        """The payload, nodes in DFS preorder, left child first."""
        order = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)
        index = {id(node): i for i, node in enumerate(order)}
        nodes: dict = {"feature": [], "threshold": [], "left": [],
                       "right": [], "value": []}
        for node in order:
            leaf = node.is_leaf
            nodes["feature"].append(-1 if leaf else int(node.feature))
            nodes["threshold"].append(0.0 if leaf
                                      else float(node.threshold))
            nodes["left"].append(-1 if leaf else index[id(node.left)])
            nodes["right"].append(-1 if leaf else index[id(node.right)])
            nodes["value"].append([float(v) for v in node.value]
                                  if leaf else None)
        return {
            "params": {
                "max_depth": self.max_depth,
                "min_samples_split": self.min_samples_split,
                "min_samples_leaf": self.min_samples_leaf,
                "max_features": None,
                "random_state": self.random_state,
            },
            "classes": self.classes_.tolist(),
            "n_features": self.n_features_,
            "feature_importances": self.feature_importances_.tolist(),
            "nodes": nodes,
        }
