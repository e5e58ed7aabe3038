"""Typed run configuration for the :mod:`repro.api` service layer.

:class:`ReproConfig` gathers every knob that used to be scattered across
environment variables and per-function keyword arguments — dataset
profile, worker count, feature set, model family and hyper-parameters,
seed and evaluation protocol — into one validated, immutable object
that can be embedded verbatim in serialized model artifacts.

The environment helpers :func:`active_profile` and :func:`cv_repeats`
are the readers of ``$REPRO_PROFILE`` and ``$REPRO_CV_REPEATS``;
``$REPRO_JOBS`` is read by :func:`repro.parallel.resolve_jobs`.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

from repro.dataset.spec import PROFILES
from repro.errors import ConfigError

#: energy-tolerance thresholds of Figure 2 (percent).
DEFAULT_TOLERANCES = tuple(range(0, 9))

#: CV repeat count when ``$REPRO_CV_REPEATS`` is unset or invalid.
DEFAULT_CV_REPEATS = 10


def cv_repeats() -> int:
    """Repeat count for the CV protocol (``$REPRO_CV_REPEATS``)."""
    raw = os.environ.get("REPRO_CV_REPEATS")
    if raw is None:
        return DEFAULT_CV_REPEATS
    try:
        return max(1, int(raw))
    except ValueError:
        warnings.warn(
            f"invalid REPRO_CV_REPEATS={raw!r} (not an integer); "
            f"falling back to {DEFAULT_CV_REPEATS}", RuntimeWarning,
            stacklevel=2)
        return DEFAULT_CV_REPEATS


def active_profile() -> str:
    """The dataset profile selected by ``$REPRO_PROFILE`` (default
    ``paper``)."""
    profile = os.environ.get("REPRO_PROFILE", "paper")
    if profile not in PROFILES:
        warnings.warn(
            f"unknown REPRO_PROFILE={profile!r}; known profiles: "
            f"{sorted(PROFILES)}", RuntimeWarning, stacklevel=2)
    return profile


@dataclass(frozen=True)
class ReproConfig:
    """Everything a :class:`repro.api.Classifier` needs to run.

    ``model`` and ``feature_set`` name entries in the
    :mod:`repro.api.registry`; they are validated lazily (at train /
    resolve time) so sets and families registered after construction
    remain usable.
    """

    profile: str = "paper"
    jobs: int | None = None          # None -> $REPRO_JOBS or 1
    feature_set: str = "static-all"
    model: str = "tree"
    model_params: dict = field(default_factory=dict)
    seed: int = 0
    n_splits: int = 10
    repeats: int | None = None       # None -> $REPRO_CV_REPEATS or 10

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            raise ConfigError(f"unknown profile {self.profile!r}; "
                              f"available: {sorted(PROFILES)}")
        if self.n_splits < 2:
            raise ConfigError(f"n_splits must be >= 2, got {self.n_splits}")
        if self.repeats is not None and self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        if not isinstance(self.model, str) or not self.model:
            raise ConfigError("model must be a non-empty family name")
        if not isinstance(self.feature_set, str) or not self.feature_set:
            raise ConfigError("feature_set must be a non-empty set name")

    def resolved_repeats(self) -> int:
        return self.repeats if self.repeats is not None else cv_repeats()

    # -- artifact embedding ----------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "profile": self.profile,
            "jobs": self.jobs,
            "feature_set": self.feature_set,
            "model": self.model,
            "model_params": dict(self.model_params),
            "seed": self.seed,
            "n_splits": self.n_splits,
            "repeats": self.repeats,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReproConfig":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})
