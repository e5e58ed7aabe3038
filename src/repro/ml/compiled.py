"""Compiled decision tables: how trees and forests score.

The training representation of :class:`~repro.ml.tree.DecisionTreeClassifier`
is a ``_Node`` graph.  These classes are *pure* inference tables built
once from a fitted model, and the only way trees and forests score: a
tree flattens itself into a :class:`CompiledTree` at fit/load time, and
a forest builds its :class:`CompiledForest` at the end of ``fit`` and
in ``from_dict``:

* :class:`CompiledTree` — one tree's flat arrays plus plain-list copies
  of its split tables.  Blocks of at most ``_WALK_MAX_ROWS`` rows walk
  the lists row by row in Python; in larger blocks every row takes
  ``depth`` numpy steps with no per-level compaction, since a leaf is
  its own left and right child.
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

Both score float32 and float64 matrices as they are (:func:`float_matrix`):
a float32 cell is compared with the float64 threshold *array*, which
NumPy evaluates in float64, so every row lands where its float64 lift
would.  A scalar threshold would not do: under NumPy 2's promotion rules
an f32 array compared with a Python float or an ``np.float32`` compares
in f32, and a row one f32 ulp above an f64 threshold could go left.

The ``_Node`` graph remains the representation of record for training,
serialization and the oracles; compiled tables are runtime-only and
never serialized into artifacts.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MLError

__all__ = ["CompiledTree", "CompiledForest", "float_matrix"]

#: Blocks of at most this many rows walk the tree in plain Python; larger
#: blocks take the numpy descent, a few numpy calls per tree level
#: whatever the block size.  Leaf lookup on the served unit model (65
#: nodes, depth 13) on a 2-vCPU Xeon, walk against numpy, fastest of 25:
#: 1.1 us against 31 us for 1 row, 25 against 31 us for 32 rows, 50-68
#: against 34-60 us for 64 rows, 200 against 49 us for 256 rows and
#: 16-20 ms against 1.6-2.3 ms for 16,384 rows.  The crossover lies near
#: 48 rows, below this cut-off.
_WALK_MAX_ROWS = 64

#: Larger blocks descend this many rows at a time, so every temporary of a
#: step is at most 32 KiB: cache-resident and reused from the allocator's
#: free lists.  Block-sized temporaries at every tree level made a
#: daemon's alternating worker threads grow and trim their heaps on every
#: 16,384-row call (tens of page faults per call), and were no faster.
_DESCENT_ROWS = 4096

_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


def float_matrix(X) -> np.ndarray:
    """*X* as the tables score it: a float32 or float64 array passes
    through uncopied, anything else is lifted to float64."""
    X = np.asarray(X)
    return X if X.dtype in _FLOATS else X.astype(np.float64)


class CompiledTree:
    """One fitted CART tree as contiguous flat decision tables, plus
    plain-list copies of the split tables (``_walk``) for small blocks
    and the slot tables of the block descent (``_descend``).  ``depth``
    is the longest root-to-leaf path, the steps that descent takes."""

    __slots__ = ("feature", "threshold", "left", "right", "leaf_class",
                 "leaf_proba", "classes_", "n_features_", "depth", "_walk",
                 "_descend")

    def __init__(self, feature, threshold, left, right, leaf_class,
                 leaf_proba, classes, n_features, depth) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.leaf_class = leaf_class
        self.leaf_proba = leaf_proba
        self.classes_ = classes
        self.n_features_ = int(n_features)
        self.depth = int(depth)
        self._walk = (feature.tolist(), threshold.tolist(), left.tolist(),
                      right.tolist())
        # built by the first block above _WALK_MAX_ROWS: the trees fitted
        # in cross-validation only ever score small folds
        self._descend = None

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
        X = float_matrix(X)
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
        # every row takes `depth` steps with no compaction; a row parked
        # on a leaf steps onto that leaf again.  ``x <= t`` adds 1 and
        # picks the left slot, NaN compares False and goes right
        feature, threshold, children = self._descend or self._slot_tables()
        n_rows, n_cols = X.shape
        cells = X.ravel()
        leaves = np.empty(n_rows, dtype=np.intp)
        for lo in range(0, n_rows, _DESCENT_ROWS):
            hi = min(lo + _DESCENT_ROWS, n_rows)
            row_start = np.arange(lo * n_cols, hi * n_cols, n_cols)
            slot = np.zeros(hi - lo, dtype=np.intp)
            for _ in range(self.depth):
                slot = children[slot + (cells[row_start + feature[slot]]
                                        <= threshold[slot])]
            np.right_shift(slot, 1, out=leaves[lo:hi])
        return leaves

    def _slot_tables(self) -> tuple:
        """The block descent's tables, indexed by slot.

        Node *i* owns slots ``2i`` (its right child) and ``2i + 1`` (its
        left child); a child is stored as its own slot ``2c``.  A leaf
        is its own child on both sides and reads column 0, so a cursor
        on it stays put.  Concurrent first calls build equal tables.
        """
        children = np.empty(2 * len(self.feature), dtype=np.intp)
        children[0::2] = 2 * self.right
        children[1::2] = 2 * self.left
        self._descend = (np.repeat(np.maximum(self.feature, 0), 2),
                         np.repeat(self.threshold, 2), children)
        return self._descend

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
    def n_nodes_(self) -> int:
        return len(self.feature)

    def predict(self, X) -> np.ndarray:
        X = float_matrix(X)
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
