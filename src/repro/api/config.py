"""Typed run configuration for the :mod:`repro.api` service layer.

:class:`ReproConfig` gathers every knob that used to be scattered across
environment variables and per-function keyword arguments — dataset
profile, worker count, feature set, model family and hyper-parameters,
seed and evaluation protocol — into one validated, immutable object
that can be embedded verbatim in serialized model artifacts.

The environment helpers (:func:`active_profile`, :func:`cv_repeats`,
:func:`default_jobs`) are the canonical readers of ``$REPRO_PROFILE``,
``$REPRO_CV_REPEATS`` and ``$REPRO_JOBS``; the legacy
:mod:`repro.experiments.runner` module re-exports them for
backwards compatibility.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field, replace

from repro.dataset.spec import PROFILES
from repro.errors import ConfigError
from repro.parallel import resolve_jobs

#: energy-tolerance thresholds of Figure 2 (percent).
DEFAULT_TOLERANCES = tuple(range(0, 9))


def cv_repeats(default: int = 10) -> int:
    """Repeat count for the CV protocol (``$REPRO_CV_REPEATS``)."""
    raw = os.environ.get("REPRO_CV_REPEATS")
    if raw is None:
        return max(1, default)
    try:
        return max(1, int(raw))
    except ValueError:
        warnings.warn(
            f"invalid REPRO_CV_REPEATS={raw!r} (not an integer); "
            f"falling back to {default}", RuntimeWarning, stacklevel=2)
        return default


def active_profile(default: str = "paper") -> str:
    """The dataset profile selected by ``$REPRO_PROFILE``."""
    profile = os.environ.get("REPRO_PROFILE", default)
    if profile not in PROFILES:
        warnings.warn(
            f"unknown REPRO_PROFILE={profile!r}; known profiles: "
            f"{sorted(PROFILES)}", RuntimeWarning, stacklevel=2)
    return profile


def default_jobs(default: int = 1) -> int:
    """Worker count from ``$REPRO_JOBS`` (see :mod:`repro.parallel`)."""
    return resolve_jobs(None, default=default)


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

    @classmethod
    def from_env(cls, **overrides) -> "ReproConfig":
        """A config seeded from the ``REPRO_*`` environment variables."""
        base = {"profile": active_profile(), "jobs": None, "repeats": None}
        base.update(overrides)
        return cls(**base)

    def replace(self, **changes) -> "ReproConfig":
        """A copy with the given fields changed (re-validated)."""
        return replace(self, **changes)

    def resolved_repeats(self, default: int = 10) -> int:
        return self.repeats if self.repeats is not None \
            else cv_repeats(default)

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
