"""Model-artifact cache: train once per (data, code, model) identity.

``repro train`` (and the default-model paths of ``repro predict`` /
``repro serve``) used to retrain from scratch on every invocation even
when nothing relevant had changed.  This module keys saved classifier
artifacts on the full identity of what a training run would produce:

* the **dataset tag** (profile name, and sample count when a concrete
  dataset is supplied),
* ``CODE_VERSION`` (simulator semantics — changing it relabels the
  campaign, so every older artifact is stale),
* the **model family** and its hyper-parameters and seed,
* the **feature set** name.

Identical inputs resolve to the same artifact path and are served from
disk without a second ``fit``; changing any key component forces a
retrain.  Artifacts that exist but fail to load (corrupt file, written
under a different ``CODE_VERSION``) are retrained over, never trusted.

The cache directory defaults to ``.repro_cache/models`` next to the
simulation cache and can be pointed elsewhere with
``$REPRO_ARTIFACT_CACHE``.  Long-running deployments can additionally
bound artifact *age*: a TTL in seconds (``$REPRO_ARTIFACT_TTL``) treats
artifacts older than the bound as stale, so a daemon restarted after
the TTL refits against fresh campaign data instead of serving an
arbitrarily old model forever.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings

from repro.api.classifier import Classifier
from repro.api.config import ReproConfig
from repro.errors import MLError
from repro.version import CODE_VERSION

#: default artifact directory, next to the simulation cache.
DEFAULT_ARTIFACT_DIR = os.path.join(".repro_cache", "models")

#: environment variable bounding artifact age (seconds) fleet-wide.
TTL_ENV_VAR = "REPRO_ARTIFACT_TTL"


def artifact_cache_dir(cache_dir: str | None = None) -> str:
    """Resolve the artifact directory (arg > env > default)."""
    if cache_dir is not None:
        return cache_dir
    return os.environ.get("REPRO_ARTIFACT_CACHE", DEFAULT_ARTIFACT_DIR)


def artifact_ttl() -> float | None:
    """The artifact TTL in seconds from ``$REPRO_ARTIFACT_TTL``.

    ``None`` means artifacts never age out (the pre-TTL behaviour).  A
    non-positive TTL treats every existing artifact as stale — the
    explicit "always refit" knob.  An unparsable ``$REPRO_ARTIFACT_TTL``
    warns and is ignored rather than silently disabling caching.
    """
    raw = os.environ.get(TTL_ENV_VAR)
    if raw is None or not raw.strip():
        return None
    try:
        return float(raw)
    except ValueError:
        warnings.warn(
            f"invalid {TTL_ENV_VAR}={raw!r} (not a number of seconds); "
            f"artifacts will not expire",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


def _expired(path: str, ttl: float | None) -> bool:
    """Whether the artifact at *path* is older than *ttl* seconds."""
    if ttl is None:
        return False
    if ttl <= 0:
        return True
    try:
        age = time.time() - os.path.getmtime(path)
    except OSError:
        return True  # racing deletion: treat as a miss
    return age > ttl


def dataset_tag(dataset=None, profile: str | None = None) -> str:
    """The dataset component of the cache key.

    A concrete dataset is tagged by profile, sample count and a digest
    of its sample ids, so a classifier trained on a hand-picked subset
    never aliases one trained on the full campaign — or on a different
    same-size subset; a bare profile name tags the build-on-demand
    path.
    """
    if dataset is not None:
        ids = ",".join(sample.sample_id for sample in dataset.samples)
        digest = hashlib.sha1(ids.encode("utf-8")).hexdigest()[:8]
        return f"{dataset.profile}-{len(dataset)}-{digest}"
    return str(profile)


def artifact_key(config: ReproConfig, tag: str) -> str:
    """Digest of everything that determines the trained artifact."""
    identity = {
        "dataset": tag,
        "code_version": CODE_VERSION,
        "model": config.model,
        "model_params": dict(config.model_params),
        "feature_set": config.feature_set,
        "seed": config.seed,
        "n_splits": config.n_splits,
    }
    payload = json.dumps(identity, sort_keys=True)
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]


def artifact_path(
    config: ReproConfig,
    dataset=None,
    cache_dir: str | None = None,
) -> str:
    """Where the artifact for this training identity lives on disk."""
    key = artifact_key(config, dataset_tag(dataset, config.profile))
    name = f"model_{config.model}_{config.feature_set}_{key}.json"
    return os.path.join(artifact_cache_dir(cache_dir), name)


def load_cached(
    config: ReproConfig | None = None,
    dataset=None,
    cache_dir: str | None = None,
) -> Classifier | None:
    """The cached classifier for *config*, or ``None`` on a miss.

    The load-only half of :func:`load_or_train`: stale or corrupt
    artifacts count as misses, and nothing is ever trained.  The
    serving fleet (:mod:`repro.api.fleet`) uses this for cold model
    keys, where a request must not silently kick off a training
    campaign.  ``$REPRO_ARTIFACT_TTL`` bounds artifact age in seconds;
    older artifacts count as misses too.
    """
    config = config or ReproConfig()
    path = artifact_path(config, dataset, cache_dir)
    if not os.path.exists(path):
        return None
    if _expired(path, artifact_ttl()):
        return None  # aged out: refit rather than serve a stale model
    try:
        return Classifier.load(path)
    except MLError:
        return None  # stale or corrupt artifact


def load_or_train(
    config: ReproConfig | None = None,
    dataset=None,
    cache_dir: str | None = None,
    force: bool = False,
    progress=None,
) -> tuple:
    """A fitted classifier for *config*, cached across invocations.

    Returns ``(classifier, cache_hit)``.  On a miss (or ``force=True``,
    an artifact older than ``$REPRO_ARTIFACT_TTL`` seconds, or
    a stale/corrupt artifact) the classifier is trained — building the
    configured dataset when none is given — and the fresh artifact is
    saved back to the cache.
    """
    config = config or ReproConfig()
    if not force:
        cached = load_cached(config, dataset, cache_dir)
        if cached is not None:
            return cached, True
    path = artifact_path(config, dataset, cache_dir)
    classifier = Classifier(config).train(dataset, progress=progress)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    classifier.save(path)
    return classifier, False
