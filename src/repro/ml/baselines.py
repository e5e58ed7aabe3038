"""Naive policies the paper compares against.

The headline baseline is *always-8*: always use the full cluster — the
policy a programmer chasing speed-up would pick, and the dashed grey
line of Figure 2 (left).
"""

from __future__ import annotations

import numpy as np

from repro.errors import MLError


class AlwaysKClassifier:
    """Predicts the constant team size *k* for every sample."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise MLError(f"team size must be >= 1, got {k}")
        self.k = k
        self.feature_importances_ = None

    def fit(self, X, y) -> "AlwaysKClassifier":
        X = np.asarray(X)
        self.feature_importances_ = np.zeros(X.shape[1] if X.ndim == 2
                                             else 0)
        return self

    def predict(self, X) -> np.ndarray:
        return np.full(len(X), self.k, dtype=int)

    def to_dict(self) -> dict:
        return {"params": {"k": self.k}}

    @classmethod
    def from_dict(cls, data: dict) -> "AlwaysKClassifier":
        try:
            return cls(k=int(data["params"]["k"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise MLError(f"malformed always-k payload: {exc!r}")
