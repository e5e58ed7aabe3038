"""The :class:`Classifier` facade: train / save / load / predict.

This is the product the paper describes — a classifier mapping source
code to the minimum-energy core configuration — packaged as a persistent
service instead of a one-shot experiment:

* :meth:`Classifier.train` fits the configured model family on a
  labelled dataset (building one from the configured profile when none
  is given);
* :meth:`Classifier.predict` scores a kernel IR, a feature mapping or a
  plain feature vector; :meth:`Classifier.predict_batch` scores many
  rows in one vectorized pass;
* :meth:`Classifier.save` / :meth:`Classifier.load` serialize the
  fitted model to a JSON artifact (flattened node arrays, feature
  names, ``CODE_VERSION``) so a model trains once and serves forever;
* :meth:`Classifier.evaluate` (and the module-level
  :func:`evaluate_features`) run the paper's repeated stratified-CV
  protocol and return the energy-tolerance accuracy curve — the
  experiment drivers in :mod:`repro.experiments` are thin clients of
  this entry point.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.api.config import DEFAULT_TOLERANCES, ReproConfig
from repro.api.registry import (
    available_feature_sets,
    model_family,
    resolve_feature_set,
)
from repro.api.selection import _tree_cv
from repro.dataset.build import Dataset, build_dataset, static_features
from repro.errors import ConfigError, MLError
from repro.features.dynamic import extract_dynamic, flatten_dynamic
from repro.features.sets import sample_vector
from repro.ir.nodes import Kernel
from repro.ml.compiled import _WALK_MAX_ROWS, float_matrix
from repro.ml.metrics import mean_tolerance_curve
from repro.ml.model_selection import repeated_cv_predict
from repro.platform.config import ClusterConfig
from repro.sim.engine import simulate
from repro.version import CODE_VERSION, __version__

ARTIFACT_FORMAT = "repro-classifier"
ARTIFACT_VERSION = 1

#: the cell types a row walked off its list may hold
_NUMBER_TYPES = frozenset((int, float))
_FLOAT_TYPE = frozenset((float,))


@dataclass
class EvaluationReport:
    """Repeated-CV evaluation of one feature set / model pairing."""

    feature_names: list
    tolerances: tuple
    curve: list                                  # accuracy per tolerance
    importances: np.ndarray
    predictions: np.ndarray                      # (repeats, n_samples)

    def accuracy_at(self, tolerance) -> float:
        return self.curve[self.tolerances.index(tolerance)]


def evaluate_features(dataset: Dataset, feature_names: list,
                      model_factory=None, tolerances=DEFAULT_TOLERANCES,
                      n_splits: int = 10, repeats: int = 10,
                      seed: int = 0, trains: bool = True,
                      ) -> EvaluationReport:
    """The paper's evaluation protocol over an explicit feature list.

    With the default *model_factory* this fits the paper's decision
    tree under repeated stratified CV, and a CV repeat already fitted on
    *dataset* (by an earlier evaluation or ranking of the same columns)
    is reused, not refitted.  An explicit *model_factory* is always
    fitted; with *trains=False* (constant baselines) it skips CV and
    scores a single whole-dataset prediction pass, since the
    predictions cannot depend on the training split.
    """
    if model_factory is None:
        preds, importances = _tree_cv(dataset, feature_names, n_splits,
                                      repeats, seed)
    else:
        X = dataset.matrix(list(feature_names))
        y = dataset.labels
        if trains:
            preds, importances = repeated_cv_predict(
                model_factory, X, y, n_splits=n_splits, repeats=repeats,
                seed=seed)
        else:
            model = model_factory().fit(X, y)
            preds = model.predict(X)
            importances = np.zeros(X.shape[1])
    curve = mean_tolerance_curve(preds, dataset.energy_matrix,
                                 tolerances, dataset.team_sizes)
    return EvaluationReport(feature_names=list(feature_names),
                            tolerances=tuple(tolerances), curve=curve,
                            importances=importances,
                            predictions=np.atleast_2d(preds))


def kernel_features(kernel: Kernel, feature_names: list) -> list:
    """Extract the named features from a kernel IR.

    Static features come from :func:`repro.dataset.build.static_features`,
    which summarises the kernel once and reads every static family off
    that summary.  Dynamic (``metric@team``) features require simulating
    the kernel at every team size of the default cluster, which only
    happens when the name list asks for them.
    """
    return _kernel_vector(kernel, static_features(kernel), feature_names)


def _kernel_vector(kernel: Kernel, static: dict, feature_names: list) -> list:
    """:func:`kernel_features` given *kernel*'s *static* features."""
    dynamic: dict = {}
    if any(name not in static for name in feature_names):
        cluster = ClusterConfig()
        per_team = {
            team: extract_dynamic(simulate(kernel, team, cluster))
            for team in range(1, cluster.n_cores + 1)
        }
        dynamic = flatten_dynamic(per_team)
    return sample_vector(static, dynamic, list(feature_names))


class Classifier:
    """Facade over the model/feature registries and the CV protocol."""

    def __init__(self, config: ReproConfig | None = None) -> None:
        self.config = config or ReproConfig()
        self.model_ = None
        self.feature_names_: list | None = None
        self.classes_: list | None = None
        self.trained_profile_: str | None = None
        self.n_training_samples_: int | None = None

    # -- training ----------------------------------------------------------------

    def train(self, dataset: Dataset | None = None,
              progress=None) -> "Classifier":
        """Fit the configured model on *dataset* (built if omitted)."""
        cfg = self.config
        if dataset is None:
            dataset = build_dataset(cfg.profile, progress=progress,
                                    jobs=cfg.jobs)
        names = resolve_feature_set(cfg.feature_set, dataset=dataset,
                                    n_splits=cfg.n_splits, seed=cfg.seed)
        family = model_family(cfg.model)
        model = family.factory(seed=cfg.seed, **cfg.model_params)
        model.fit(dataset.matrix(names), dataset.labels)
        self.model_ = model
        self.feature_names_ = list(names)
        self.classes_ = [int(c) for c in np.unique(dataset.labels)]
        self.trained_profile_ = dataset.profile
        self.n_training_samples_ = len(dataset)
        return self

    @property
    def is_fitted(self) -> bool:
        return self.model_ is not None

    def _require_fitted(self) -> None:
        if self.model_ is None:
            raise MLError("classifier is not trained; call train() or "
                          "Classifier.load() first")

    # -- prediction --------------------------------------------------------------

    def _vectorize(self, item) -> list:
        names = self.feature_names_
        if isinstance(item, Kernel):
            return kernel_features(item, names)
        if isinstance(item, Mapping):
            missing = [n for n in names if n not in item]
            if missing:
                raise MLError(f"feature mapping is missing "
                              f"{len(missing)} feature(s): "
                              f"{', '.join(missing[:5])}")
            return [float(item[n]) for n in names]
        vector = np.asarray(item, dtype=np.float64)
        if vector.shape != (len(names),):
            raise MLError(f"feature vector must have shape "
                          f"({len(names)},), got {vector.shape}")
        return vector.tolist()

    def _as_matrix(self, rows) -> np.ndarray:
        """The scoring matrix of *rows*: a float32 or float64 matrix as
        it is, any other rows as float64 (see
        :func:`repro.ml.compiled.float_matrix`)."""
        names = self.feature_names_
        if isinstance(rows, np.ndarray) and rows.ndim == 2:
            X = float_matrix(rows)
        else:
            rows = list(rows)
            if rows and isinstance(rows[0], (Mapping, Kernel)):
                X = np.asarray([self._vectorize(r) for r in rows],
                               dtype=np.float64)
            else:
                X = np.asarray(rows, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(names):
            raise MLError(f"rows must form a (n, {len(names)}) matrix, "
                          f"got shape {X.shape}")
        return X

    def predict(self, item) -> int:
        """Minimum-energy team size for one kernel / mapping / vector."""
        self._require_fitted()
        row = self._vectorize(item)
        return int((self._walk_rows([row]) or self.model_.predict(
            np.asarray([row], dtype=np.float64)))[0])

    def _walk_rows(self, rows) -> list | None:
        """Predictions for at most ``_WALK_MAX_ROWS`` *rows* of exact
        ints and floats, walked through the tree's table with no matrix
        (an int is ``float()``-ed, rounding as NumPy does); ``None``
        when a row or the model takes the matrix path."""
        table = getattr(self.model_, "_table", None)
        n = len(self.feature_names_)
        if table is None or len(rows) > _WALK_MAX_ROWS:
            return None
        floats = []
        try:
            for row in rows:
                types = set(map(type, row))
                if len(row) != n or not types <= _NUMBER_TYPES:
                    return None
                floats.append(row if types == _FLOAT_TYPE else list(map(float, row)))
            return list(map(int, table.predict_rows(floats)))
        except (OverflowError, TypeError, ValueError):
            return None  # an int too large for a float, an odd class

    def predict_batch(self, rows) -> np.ndarray:
        """Vectorized predictions for many rows (matrix, dicts, kernels)."""
        self._require_fitted()
        if isinstance(rows, np.ndarray):
            if rows.shape[:1] == (0,):  # no rows; (1, n, 0) has size 0 too
                return np.empty(0, dtype=int)
        else:
            rows = list(rows)
            if not rows:
                return np.empty(0, dtype=int)
        X = self._as_matrix(rows)
        return np.asarray(self.model_.predict(X), dtype=int)

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, dataset: Dataset | None = None,
                 tolerances=DEFAULT_TOLERANCES, n_splits: int | None = None,
                 repeats: int | None = None,
                 feature_names: list | None = None) -> EvaluationReport:
        """Run the repeated-CV protocol for this classifier's config.

        An explicit *feature_names* list overrides the configured set
        (the experiment drivers use this for the pruned ``*-opt``
        series they derive themselves).
        """
        cfg = self.config
        if dataset is None:
            dataset = build_dataset(cfg.profile, jobs=cfg.jobs)
        n_splits = cfg.n_splits if n_splits is None else n_splits
        repeats = cfg.resolved_repeats() if repeats is None else repeats
        seed = cfg.seed
        family = model_family(cfg.model)
        if feature_names is None:
            feature_names = (self.feature_names_
                             if self.feature_names_ is not None else
                             resolve_feature_set(cfg.feature_set, dataset,
                                                 n_splits=n_splits,
                                                 seed=seed))
        factory = lambda: family.factory(  # noqa: E731
            seed=seed, **cfg.model_params)
        return evaluate_features(dataset, feature_names,
                                 model_factory=factory,
                                 tolerances=tolerances, n_splits=n_splits,
                                 repeats=repeats, seed=seed,
                                 trains=family.trains)

    # -- persistence -------------------------------------------------------------

    def info(self) -> dict:
        """JSON-safe summary of the fitted classifier."""
        self._require_fitted()
        return {
            "model_family": self.config.model,
            "feature_set": self.config.feature_set,
            "n_features": len(self.feature_names_),
            "feature_names": list(self.feature_names_),
            "classes": list(self.classes_ or []),
            "trained_profile": self.trained_profile_,
            "n_training_samples": self.n_training_samples_,
            "code_version": CODE_VERSION,
            "repro_version": __version__,
        }

    def save(self, path: str) -> None:
        """Atomically write the JSON model artifact."""
        self._require_fitted()
        family = model_family(self.config.model)
        payload = {
            "format": ARTIFACT_FORMAT,
            "format_version": ARTIFACT_VERSION,
            "code_version": CODE_VERSION,
            "repro_version": __version__,
            "model_family": self.config.model,
            "feature_set": self.config.feature_set,
            "feature_names": list(self.feature_names_),
            "classes": list(self.classes_ or []),
            "trained_profile": self.trained_profile_,
            "n_training_samples": self.n_training_samples_,
            "config": self.config.as_dict(),
            "model": family.to_payload(self.model_),
        }
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(path)) or ".",
            prefix=os.path.basename(path) + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str) -> "Classifier":
        """Rebuild a classifier from a :meth:`save` artifact.

        Artifacts written under a different ``CODE_VERSION`` (simulator
        semantics changed, so the training labels may no longer hold)
        are refused: retrain them.  Artifacts naming an unknown feature
        set / model family are refused too; each refusal is a clear
        :class:`MLError`.  A loaded model scores exactly as it did
        when trained: a tree's flat decision table
        (:mod:`repro.ml.compiled`) is built straight from the
        artifact's rows.
        """
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise MLError(f"cannot read model artifact {path!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise MLError(f"model artifact {path!r} is not valid JSON: "
                          f"{exc}")
        if not isinstance(payload, dict) or \
                payload.get("format") != ARTIFACT_FORMAT:
            raise MLError(f"{path!r} is not a repro classifier artifact "
                          f"(format != {ARTIFACT_FORMAT!r})")
        format_version = payload.get("format_version", 1)
        if not isinstance(format_version, int) or \
                format_version > ARTIFACT_VERSION:
            raise MLError(
                f"model artifact {path!r} uses artifact format version "
                f"{format_version!r}, but this build supports up to "
                f"{ARTIFACT_VERSION}; upgrade the library or retrain")
        artifact_code = payload.get("code_version")
        if artifact_code != CODE_VERSION:
            raise MLError(
                f"model artifact {path!r} was trained under code "
                f"version {artifact_code} but this library is at "
                f"{CODE_VERSION}; retrain it (repro train)")
        try:
            config = ReproConfig.from_dict(payload.get("config", {}))
        except (ConfigError, TypeError) as exc:
            raise MLError(f"model artifact {path!r} carries an invalid "
                          f"config: {exc}")
        family = model_family(payload.get("model_family", ""))
        # the registry is the contract: an artifact naming a feature set
        # this build does not know is not servable.
        set_name = payload.get("feature_set", "")
        if set_name not in available_feature_sets():
            raise MLError(f"model artifact {path!r} uses unknown "
                          f"feature set {set_name!r}; available: "
                          f"{available_feature_sets()}")
        try:
            model = family.from_payload(payload["model"])
            feature_names = list(payload["feature_names"])
        except KeyError as exc:
            raise MLError(f"model artifact {path!r} is missing field "
                          f"{exc}")
        n_features = getattr(model, "n_features_", None)
        if n_features is not None and n_features != len(feature_names):
            raise MLError(f"model artifact {path!r} is inconsistent: "
                          f"model expects {n_features} features, "
                          f"artifact lists {len(feature_names)}")
        clf = cls(config)
        clf.model_ = model
        clf.feature_names_ = feature_names
        clf.classes_ = [int(c) for c in payload.get("classes", [])]
        clf.trained_profile_ = payload.get("trained_profile")
        clf.n_training_samples_ = payload.get("n_training_samples")
        return clf
