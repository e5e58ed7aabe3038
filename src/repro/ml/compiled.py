"""The compiled decision table: how a tree scores.

A fitted :class:`~repro.ml.tree.DecisionTreeClassifier` *is* one
:class:`CompiledTree`: contiguous flat arrays with a row per node in DFS
preorder, plus plain-list copies of its split tables.  The fit writes
the rows, ``to_dict`` reads them back and ``from_dict`` builds them from
a payload, so training, artifacts and scoring share one representation.
Blocks of at most ``_WALK_MAX_ROWS`` rows walk the lists row by row in
Python; in larger blocks every row takes ``depth`` numpy steps with no
per-level compaction, since a leaf is its own left and right child.

There are no per-node Python objects on the scoring path, and both
descents give **byte-identical** predictions to a per-row walk of a
node graph built from the payload (the oracle in ``tests/tree_oracle.py``):
the split comparison (``x <= t`` goes left, NaN goes right) and the
per-leaf argmax are copied exactly, not approximated.

Float32 and float64 matrices score as they are (:func:`float_matrix`):
a float32 cell is compared with the float64 threshold *array*, which
NumPy evaluates in float64, so every row lands where its float64 lift
would.  A scalar threshold would not do: under NumPy 2's promotion rules
an f32 array compared with a Python float or an ``np.float32`` compares
in f32, and a row one f32 ulp above an f64 threshold could go left.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MLError

__all__ = ["CompiledTree", "float_matrix"]

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
    and the slot tables of the block descent (``_descend``).

    ``feature[i] == -1`` marks row *i* as a leaf, which is its own left
    and right child; ``counts`` holds each leaf's training class counts
    (zero on split rows), from which the per-leaf argmax class and
    probability row are precomputed so that scoring is pure indexing.
    ``depth`` is the longest root-to-leaf path, the steps that the
    block descent takes."""

    __slots__ = ("feature", "threshold", "left", "right", "counts",
                 "leaf_class", "leaf_proba", "classes_", "n_features_",
                 "depth", "_walk", "_descend")

    def __init__(self, feature, threshold, left, right, counts, classes,
                 n_features, depth) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.counts = counts
        sums = counts.sum(axis=1)
        sums[sums == 0.0] = 1.0
        self.leaf_class = counts.argmax(axis=1)
        self.leaf_proba = counts / sums[:, None]
        self.classes_ = classes
        self.n_features_ = int(n_features)
        self.depth = int(depth)
        self._walk = (feature.tolist(), threshold.tolist(), left.tolist(),
                      right.tolist())
        # built by the first block above _WALK_MAX_ROWS: the trees fitted
        # in cross-validation only ever score small folds
        self._descend = None

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
