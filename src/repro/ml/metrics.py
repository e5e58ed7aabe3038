"""Classification metrics, including the paper's tolerance accuracy.

The tolerance accuracy (Figure 2's x axis) treats a prediction as
correct when the energy wasted by running the kernel with the predicted
team instead of the optimal one stays below ``t%`` of the minimum:
``E[pred] <= E_min * (1 + t/100)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MLError


def accuracy(y_true, y_pred) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise MLError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if len(y_true) == 0:
        raise MLError("empty prediction arrays")
    return float(np.mean(y_true == y_pred))


def tolerance_accuracy(y_pred, energy_matrix, tolerance_pct: float,
                       team_sizes=None) -> float:
    """Fraction of samples whose predicted team wastes <= tolerance.

    *energy_matrix* has one row per sample and one column per candidate
    team size (``team_sizes``, default 1..n_columns).
    """
    y_pred = np.asarray(y_pred)
    energy = np.asarray(energy_matrix, dtype=np.float64)
    if energy.ndim != 2 or len(y_pred) != len(energy):
        raise MLError("energy matrix must be (n_samples, n_teams) and "
                      "aligned with predictions")
    if tolerance_pct < 0:
        raise MLError(f"tolerance must be >= 0, got {tolerance_pct}")
    teams = list(team_sizes) if team_sizes is not None else list(
        range(1, energy.shape[1] + 1))
    col = {team: i for i, team in enumerate(teams)}
    try:
        pred_cols = np.asarray([col[int(p)] for p in y_pred])
    except KeyError as exc:
        raise MLError(f"prediction {exc} is not a candidate team size")
    predicted_energy = energy[np.arange(len(energy)), pred_cols]
    minima = energy.min(axis=1)
    limit = minima * (1.0 + tolerance_pct / 100.0)
    return float(np.mean(predicted_energy <= limit))


def tolerance_curve(y_pred, energy_matrix, tolerances,
                    team_sizes=None) -> list[float]:
    """Tolerance accuracy at each threshold (Figure 2 series)."""
    return [tolerance_accuracy(y_pred, energy_matrix, t, team_sizes)
            for t in tolerances]


def mean_tolerance_curve(pred_matrix, energy_matrix, tolerances,
                         team_sizes=None) -> list[float]:
    """Average the tolerance curve over repeated-CV prediction rows."""
    pred_matrix = np.asarray(pred_matrix)
    if pred_matrix.ndim == 1:
        pred_matrix = pred_matrix[None, :]
    curves = np.asarray([
        tolerance_curve(row, energy_matrix, tolerances, team_sizes)
        for row in pred_matrix])
    return [float(v) for v in curves.mean(axis=0)]

