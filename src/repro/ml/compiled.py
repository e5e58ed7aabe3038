"""Compiled decision tables: how trees and forests score.

The training representation of :class:`~repro.ml.tree.DecisionTreeClassifier`
is a ``_Node`` graph.  These classes are *pure* inference tables built
once from a fitted model, and the only way trees and forests score: a
tree flattens itself into a :class:`CompiledTree` at fit/load time, and
a forest builds its :class:`CompiledForest` at the end of ``fit`` and
in ``from_dict``:

* :class:`CompiledTree` — one tree's flat arrays plus plain-list copies
  of its split tables.  Blocks of at most ``_WALK_MAX_ROWS`` rows walk
  the lists row by row in Python; larger blocks descend in one
  level-synchronous numpy loop.
* :class:`CompiledForest` — **all** trees of a forest concatenated into
  a single node table with absolute child indices, so the whole
  ensemble descends in one level-synchronous vectorized loop instead
  of a per-tree Python loop, and votes are tallied with one
  flat ``bincount`` + ``argmax``.

Both have zero per-node Python objects on the scoring path and give
**byte-identical** predictions to the node-walk oracles
(``DecisionTreeClassifier._predict_rowwise`` and
``RandomForestClassifier._predict_loop``; asserted across every
registered model family in ``tests/test_compiled.py``): the split
comparisons (``x <= t`` goes left, NaN goes right), the per-leaf argmax
and the tie-breaking bincount order are copied exactly, not
approximated.

The ``_Node`` graph remains the representation of record for training,
serialization and the oracles; compiled tables are runtime-only and
never serialized into artifacts.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MLError

__all__ = ["CompiledTree", "CompiledForest"]

#: Blocks of at most this many rows walk the tree in plain Python; larger
#: blocks take the numpy loop, whose cost is a few numpy calls per tree
#: level whatever the block size.  Leaf lookup on the served unit model
#: (65 nodes, depth 13) on a 2-vCPU Xeon, walk against numpy: 1.5 us
#: against 31 us for 1 row, 37 against 85 us for 32 rows, 84 against
#: 114 us for 64 rows, 335 against 216 us for 256 rows and 25 against
#: 5.9 ms for 16,384 rows.  The crossover lies between 80 and 128 rows;
#: 64 is the largest power of two under it.
_WALK_MAX_ROWS = 64


class CompiledTree:
    """One fitted CART tree as contiguous flat decision tables, plus
    plain-list copies of the split tables (``_walk``) for small blocks."""

    __slots__ = ("feature", "threshold", "left", "right", "leaf_class",
                 "leaf_proba", "classes_", "n_features_", "_walk")

    def __init__(self, feature, threshold, left, right, leaf_class,
                 leaf_proba, classes, n_features) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.leaf_class = leaf_class
        self.leaf_proba = leaf_proba
        self.classes_ = classes
        self.n_features_ = int(n_features)
        self._walk = (feature.tolist(), threshold.tolist(), left.tolist(),
                      right.tolist())

    @classmethod
    def from_model(cls, tree) -> "CompiledTree":
        """The table of a fitted :class:`DecisionTreeClassifier`.

        The tree flattens itself into one at fit/load time and scores
        through it, so the served table *is* the tree's own: identical
        descent, identical ties, byte-identical predictions.
        """
        tree._check_fitted()
        return tree._table

    @property
    def n_nodes_(self) -> int:
        return len(self.feature)

    def _validate_X(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise MLError(f"X must have shape (n, {self.n_features_})")
        return X

    def _leaf_indices(self, X: np.ndarray) -> np.ndarray:
        """Flat node index of the leaf each row of *X* lands in."""
        if len(X) <= _WALK_MAX_ROWS:
            feature, threshold, left, right = self._walk
            leaves = []
            for row in X.tolist():
                i = 0
                f = feature[0]
                while f >= 0:
                    # NaN compares False, so it goes right as in numpy
                    i = left[i] if row[f] <= threshold[i] else right[i]
                    f = feature[i]
                leaves.append(i)
            return np.array(leaves, dtype=np.intp)
        # all rows descend together, one level per iteration
        idx = np.zeros(len(X), dtype=np.intp)
        active = np.nonzero(self.feature[idx] >= 0)[0]
        while active.size:
            node = idx[active]
            go_left = (X[active, self.feature[node]]
                       <= self.threshold[node])
            idx[active] = np.where(go_left, self.left[node],
                                   self.right[node])
            active = active[self.feature[idx[active]] >= 0]
        return idx

    def predict(self, X) -> np.ndarray:
        X = self._validate_X(X)
        return self.classes_[self.leaf_class[self._leaf_indices(X)]]

    def predict_proba(self, X) -> np.ndarray:
        X = self._validate_X(X)
        return self.leaf_proba[self._leaf_indices(X)]


class CompiledForest:
    """A whole random forest as one concatenated decision table.

    Per-tree node arrays are stacked with child indices shifted to
    absolute positions; ``roots[t]`` is tree *t*'s root node.  Each
    leaf carries its vote pre-mapped to a *forest* class index (a
    ``searchsorted`` class map per tree), so scoring is: descend
    ``n_trees * n_rows`` cursors in one level-synchronous loop, gather
    ``leaf_vote``, tally with one flat ``bincount`` + ``argmax`` (ties
    toward the lowest class index) — zero Python per tree.
    """

    __slots__ = ("feature", "threshold", "left", "right", "leaf_vote",
                 "roots", "classes_", "n_features_")

    def __init__(self, feature, threshold, left, right, leaf_vote,
                 roots, classes, n_features) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.leaf_vote = leaf_vote
        self.roots = roots
        self.classes_ = classes
        self.n_features_ = int(n_features)

    @classmethod
    def from_model(cls, forest) -> "CompiledForest":
        """Compile a fitted :class:`RandomForestClassifier`."""
        if not forest.trees_:
            raise MLError("forest is not fitted")
        features, thresholds, lefts, rights, votes, roots = \
            [], [], [], [], [], []
        offset = 0
        for tree in forest.trees_:
            table = CompiledTree.from_model(tree)
            n = len(table.feature)
            features.append(table.feature)
            thresholds.append(table.threshold)
            lefts.append(table.left + offset)
            rights.append(table.right + offset)
            # tree.classes_ is a subset of forest.classes_ (both come
            # from the same y), so searchsorted is the exact
            # class -> forest-index map; internal nodes get a harmless
            # never-read placeholder
            votes.append(np.searchsorted(
                forest.classes_, tree.classes_[table.leaf_class]))
            roots.append(offset)
            offset += n
        return cls(
            np.ascontiguousarray(np.concatenate(features)),
            np.ascontiguousarray(np.concatenate(thresholds)),
            np.ascontiguousarray(np.concatenate(lefts)),
            np.ascontiguousarray(np.concatenate(rights)),
            np.ascontiguousarray(np.concatenate(votes)),
            np.asarray(roots, dtype=np.intp),
            forest.classes_,
            forest.trees_[0].n_features_,
        )

    @property
    def n_trees_(self) -> int:
        return len(self.roots)

    @property
    def n_nodes_(self) -> int:
        return len(self.feature)

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise MLError(f"X must have shape (n, {self.n_features_})")
        n, k = len(X), len(self.classes_)
        n_trees = len(self.roots)
        # one cursor per (tree, row), tree-major — every still-internal
        # cursor advances one level per iteration, so the loop runs
        # max-depth times over the whole ensemble
        idx = np.repeat(self.roots, n)
        cols = np.tile(np.arange(n, dtype=np.intp), n_trees)
        active = np.nonzero(self.feature[idx] >= 0)[0]
        while active.size:
            node = idx[active]
            go_left = (X[cols[active], self.feature[node]]
                       <= self.threshold[node])
            idx[active] = np.where(go_left, self.left[node],
                                   self.right[node])
            active = active[self.feature[idx[active]] >= 0]
        # flat (row, class) keys into one bincount, argmax ties toward
        # the lowest class index
        flat = self.leaf_vote[idx] + cols * k
        counts = np.bincount(flat, minlength=n * k).reshape(n, k)
        return self.classes_[counts.argmax(axis=1)]
