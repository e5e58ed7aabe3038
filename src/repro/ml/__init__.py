"""Machine-learning stack (from scratch, numpy only).

The paper trains a CART-style decision tree and reports accuracy under
10-fold stratified cross-validation repeated 100 times, plus gini
feature importances (Table IV) and an energy-tolerance-aware accuracy
(Figure 2).  scikit-learn is not available offline, so this package
implements the required pieces directly:

* :class:`DecisionTreeClassifier` — CART with gini impurity and
  impurity-decrease feature importances, scored through its own
  compiled table (:mod:`repro.ml.compiled`);
* :func:`stratified_kfold` / :func:`cross_val_predict` /
  :func:`repeated_cv_predict` — evaluation drivers;
* :mod:`repro.ml.metrics` — plain and tolerance accuracies;
* :mod:`repro.ml.baselines` — the paper's "always-8" policy.
"""

from repro.ml.tree import DecisionTreeClassifier
from repro.ml.model_selection import (
    cross_val_predict,
    repeated_cv_predict,
    stratified_kfold,
)
from repro.ml.metrics import (
    accuracy,
    tolerance_accuracy,
    tolerance_curve,
)
from repro.ml.baselines import AlwaysKClassifier

__all__ = [
    "DecisionTreeClassifier",
    "stratified_kfold",
    "cross_val_predict",
    "repeated_cv_predict",
    "accuracy",
    "tolerance_accuracy",
    "tolerance_curve",
    "AlwaysKClassifier",
]
