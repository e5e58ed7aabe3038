"""Model-family and feature-set registries for the service layer.

Two small plugin points keep :class:`repro.api.Classifier` open for
extension without touching its callers:

* **model families** — named constructors plus JSON codecs.  Shipped:
  ``tree`` (the paper's CART), ``forest`` (the bagged extension) and
  ``always-k`` (the naive baseline; ``trains=False`` because its
  predictions do not depend on the training data).
* **feature sets** — named resolvers from a set name to an ordered
  feature-name list.  The static sets of
  :data:`repro.features.sets.FEATURE_SETS` are pre-registered, plus the
  dataset-derived ``static-opt`` / ``dynamic-opt`` pruned sets.

New entries plug in via :func:`register_model_family` /
:func:`register_feature_set`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from repro.api.selection import optimised_set
from repro.errors import MLError
from repro.features.sets import FEATURE_SETS
from repro.ml.baselines import AlwaysKClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier


# -- model families ---------------------------------------------------------------


@dataclass(frozen=True)
class ModelFamily:
    """One pluggable classifier family.

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
    trains: bool = True
    description: str = ""


_MODEL_FAMILIES: dict[str, ModelFamily] = {}


def register_model_family(family: ModelFamily,
                          override: bool = False) -> ModelFamily:
    if family.name in _MODEL_FAMILIES and not override:
        raise MLError(f"model family {family.name!r} is already "
                      f"registered (pass override=True to replace it)")
    _MODEL_FAMILIES[family.name] = family
    return family


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
    :class:`repro.api.fleet.ModelPool`) accounts trees and forests on
    one consistent scale without a numpy-internals walk.
    """
    payload = model_family(family_name).to_payload(model)
    return len(json.dumps(payload, separators=(",", ":")))


register_model_family(ModelFamily(
    name="tree",
    factory=lambda seed=None, **params: DecisionTreeClassifier(
        random_state=seed, **params),
    to_payload=lambda model: model.to_dict(),
    from_payload=DecisionTreeClassifier.from_dict,
    description="CART decision tree (the paper's model)",
))

register_model_family(ModelFamily(
    name="forest",
    factory=lambda seed=None, **params: RandomForestClassifier(
        random_state=seed, **params),
    to_payload=lambda model: model.to_dict(),
    from_payload=RandomForestClassifier.from_dict,
    description="bagged CART forest (robustness extension)",
))

register_model_family(ModelFamily(
    name="always-k",
    factory=lambda seed=None, k=8: AlwaysKClassifier(k=k),
    to_payload=lambda model: model.to_dict(),
    from_payload=AlwaysKClassifier.from_dict,
    trains=False,
    description="constant-team baseline (always-8 by default)",
))


# -- feature sets -----------------------------------------------------------------

#: resolver signature: (dataset, n_splits, repeats, seed) -> list[str].
FeatureSetResolver = Callable[..., "list[str]"]

_FEATURE_RESOLVERS: dict[str, FeatureSetResolver] = {}


def register_feature_set(name: str, names=None, resolver=None,
                         override: bool = False) -> None:
    """Register a named feature set, either a fixed name list or a
    resolver callable deriving the list from a dataset."""
    if (names is None) == (resolver is None):
        raise MLError("pass exactly one of names= or resolver=")
    if name in _FEATURE_RESOLVERS and not override:
        raise MLError(f"feature set {name!r} is already registered "
                      f"(pass override=True to replace it)")
    if names is not None:
        fixed = tuple(names)
        resolver = lambda dataset=None, **kw: list(fixed)  # noqa: E731
    _FEATURE_RESOLVERS[name] = resolver


def resolve_feature_set(name: str, dataset=None, n_splits: int = 10,
                        repeats: int = 5, seed: int = 0) -> list[str]:
    """The ordered feature-name list behind a named set.

    Fixed sets ignore *dataset*; derived sets (``static-opt``,
    ``dynamic-opt``) need one and raise :class:`MLError` without it.
    """
    resolver = _FEATURE_RESOLVERS.get(name)
    if resolver is None:
        raise MLError(f"unknown feature set {name!r}; available: "
                      f"{available_feature_sets()}")
    return resolver(dataset=dataset, n_splits=n_splits, repeats=repeats,
                    seed=seed)


def available_feature_sets() -> list[str]:
    return sorted(_FEATURE_RESOLVERS)


def _opt_resolver(base_set: str, opt_name: str) -> FeatureSetResolver:
    def resolve(dataset=None, n_splits: int = 10, repeats: int = 5,
                seed: int = 0) -> list[str]:
        if dataset is None:
            raise MLError(f"feature set {opt_name!r} is derived by "
                          f"importance pruning and needs a dataset")
        return optimised_set(dataset, list(FEATURE_SETS[base_set]),
                             n_splits=n_splits, repeats=repeats, seed=seed)
    return resolve


for _name, _names in FEATURE_SETS.items():
    register_feature_set(_name, names=_names)
register_feature_set("static-opt", resolver=_opt_resolver("static-all",
                                                          "static-opt"))
register_feature_set("dynamic-opt", resolver=_opt_resolver("dynamic",
                                                           "dynamic-opt"))
