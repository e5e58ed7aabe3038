"""Model-family and feature-set tables for the service layer.

* **model families** — named constructors plus JSON codecs: ``tree``
  (the paper's CART) and ``always-k`` (the naive baseline;
  ``trains=False`` because its predictions do not depend on the
  training data).  Fleets serve several variants of the tree side by
  side, keyed by feature set and dataset tag.
* **feature sets** — the fixed sets of
  :data:`repro.features.sets.FEATURE_SETS`, plus the dataset-derived
  ``static-opt`` / ``dynamic-opt`` sets, which prune the base set
  :data:`OPT_BASES` names for them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from repro.api.selection import optimised_set
from repro.errors import MLError
from repro.features.sets import FEATURE_SETS
from repro.ml.baselines import AlwaysKClassifier
from repro.ml.tree import DecisionTreeClassifier


# -- model families ---------------------------------------------------------------


@dataclass(frozen=True)
class ModelFamily:
    """One classifier family.

    ``factory(seed, **params)`` builds an unfitted model;
    ``to_payload`` / ``from_payload`` convert a *fitted* model to and
    from a JSON-safe dict.  ``trains=False`` marks families whose
    predictions are independent of the training data (baselines), which
    evaluation exploits by skipping cross-validation.
    """

    name: str
    factory: Callable
    to_payload: Callable
    from_payload: Callable
    trains: bool


_MODEL_FAMILIES: dict[str, ModelFamily] = {
    "tree": ModelFamily(
        name="tree",
        factory=lambda seed=None, **params: DecisionTreeClassifier(
            random_state=seed, **params),
        to_payload=lambda model: model.to_dict(),
        from_payload=DecisionTreeClassifier.from_dict,
        trains=True,
    ),
    "always-k": ModelFamily(
        name="always-k",
        factory=lambda seed=None, k=8: AlwaysKClassifier(k=k),
        to_payload=lambda model: model.to_dict(),
        from_payload=AlwaysKClassifier.from_dict,
        trains=False,
    ),
}


def model_family(name: str) -> ModelFamily:
    try:
        return _MODEL_FAMILIES[name]
    except KeyError:
        raise MLError(f"unknown model family {name!r}; available: "
                      f"{available_model_families()}")


def available_model_families() -> list[str]:
    return sorted(_MODEL_FAMILIES)


def model_payload_bytes(family_name: str, model) -> int:
    """Approximate resident size of a fitted model, in bytes.

    Measured as the JSON payload length of the family's artifact codec
    — the same representation the artifact cache stores — so the
    serving fleet's memory budget (see
    :class:`repro.api.fleet.ModelPool`) accounts every family on one
    consistent scale without a numpy-internals walk.
    """
    payload = model_family(family_name).to_payload(model)
    return len(json.dumps(payload, separators=(",", ":")))


# -- feature sets -----------------------------------------------------------------

#: the base set each dataset-derived ``*-opt`` set prunes.
OPT_BASES = {"static-opt": "static-all", "dynamic-opt": "dynamic"}


def resolve_feature_set(name: str, dataset=None, n_splits: int = 10,
                        seed: int = 0) -> list[str]:
    """The ordered feature-name list behind a named set.

    Fixed sets ignore *dataset*; derived sets (``static-opt``,
    ``dynamic-opt``) need one and raise :class:`MLError` without it.
    """
    if name in FEATURE_SETS:
        return list(FEATURE_SETS[name])
    if name not in OPT_BASES:
        raise MLError(f"unknown feature set {name!r}; available: "
                      f"{available_feature_sets()}")
    if dataset is None:
        raise MLError(f"feature set {name!r} is derived by importance "
                      f"pruning and needs a dataset")
    return optimised_set(dataset, list(FEATURE_SETS[OPT_BASES[name]]),
                         n_splits=n_splits, seed=seed)


def available_feature_sets() -> list[str]:
    return sorted([*FEATURE_SETS, *OPT_BASES])
