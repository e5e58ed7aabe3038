"""The :mod:`repro` service layer — the classifier as a product.

The paper's deliverable is a classifier that maps source-code features
to the most energy-efficient PULP core configuration.  This package is
its canonical entry point:

>>> from repro.api import Classifier, ReproConfig
>>> clf = Classifier(ReproConfig(profile="unit")).train()
>>> clf.save("model.json")
>>> Classifier.load("model.json").predict_batch(rows)

Everything else layers on top: the :mod:`repro.experiments` drivers are
thin clients of :func:`evaluate_features` / :class:`Classifier`, and
the ``repro train`` / ``repro predict`` / ``repro serve`` CLI commands
are thin clients of this package.

Serving: :class:`ScoringDaemon` keeps one loaded classifier (or a
multi-model fleet) resident behind a Unix/TCP socket and answers the
JSON-lines protocol for many concurrent clients — stdio and the
event-loop socket server both dispatch through the unified core in
:mod:`repro.api.transport`.  :class:`ShardSupervisor` scales that
to N daemon processes behind one unix endpoint and keeps them healthy
(crash respawn, graceful drain, rolling restart, zero-downtime model
hot-swap);
:class:`ScoringClient` is the wire client (sequential and pipelined),
:class:`AdminClient` the typed fleet-ops surface; and :func:`load_or_train`
caches trained model artifacts keyed on ``(dataset tag, CODE_VERSION,
model family, feature set)`` — bounded in age by
``$REPRO_ARTIFACT_TTL`` — so identical configurations never retrain.

The wire format is negotiated: connections start as JSON-lines and
may upgrade to the length-prefixed binary codec via a
``{"cmd": "hello"}`` handshake (see :mod:`repro.api.wire`).  Inference
has one path: a trained or loaded tree scores through its own flat
decision table, the one its fit wrote and its artifact stores (see
:mod:`repro.ml.compiled`).
"""

from repro.api.artifact_cache import (
    artifact_key,
    artifact_path,
    artifact_ttl,
    dataset_tag,
    load_cached,
    load_or_train,
)
from repro.api.classifier import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    Classifier,
    EvaluationReport,
    evaluate_features,
    kernel_features,
)
from repro.api.admin import (
    AdminClient,
    FleetMetrics,
    FleetStats,
    ModelInfo,
    ModelListing,
    ShardHealth,
    collect_metrics,
    collect_stats,
)
from repro.api.client import DEFAULT_PIPELINE_WINDOW, ScoringClient
from repro.api.daemon import (
    DEFAULT_WORKERS,
    ScoringDaemon,
    parse_tcp_endpoint,
)
from repro.api.shard import (
    classifier_factory,
    fleet_factory,
    registry_epoch,
)
from repro.api.supervisor import (
    HotSwapReport,
    ShardSupervisor,
)
from repro.api.transport import (
    RequestEngine,
    serve,
)
from repro.api.fleet import (
    ModelFleet,
    ModelKey,
    ModelPool,
)
from repro.api.config import (
    DEFAULT_TOLERANCES,
    ReproConfig,
    active_profile,
    cv_repeats,
)
from repro.api.registry import (
    ModelFamily,
    available_feature_sets,
    available_model_families,
    model_family,
    resolve_feature_set,
)
from repro.api.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_INTERNAL,
    ERROR_INVALID_JSON,
    error_frame,
    ok_frame,
)
from repro.api.selection import (
    optimised_set,
    prune_by_importance,
    rank_features,
)
from repro.api.wire import (
    CODEC_BINARY_V2,
    CODEC_JSON,
    DEFAULT_CODECS,
    WireSession,
)

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "Classifier",
    "EvaluationReport",
    "evaluate_features",
    "kernel_features",
    "artifact_key",
    "artifact_path",
    "artifact_ttl",
    "dataset_tag",
    "load_cached",
    "load_or_train",
    "ModelFleet",
    "ModelKey",
    "ModelPool",
    "AdminClient",
    "FleetMetrics",
    "FleetStats",
    "ModelInfo",
    "ModelListing",
    "ShardHealth",
    "ScoringClient",
    "ScoringDaemon",
    "ShardSupervisor",
    "HotSwapReport",
    "classifier_factory",
    "collect_metrics",
    "collect_stats",
    "fleet_factory",
    "registry_epoch",
    "CODEC_BINARY_V2",
    "CODEC_JSON",
    "DEFAULT_CODECS",
    "WireSession",
    "DEFAULT_PIPELINE_WINDOW",
    "DEFAULT_WORKERS",
    "parse_tcp_endpoint",
    "RequestEngine",
    "ERROR_BAD_REQUEST",
    "ERROR_INTERNAL",
    "ERROR_INVALID_JSON",
    "error_frame",
    "ok_frame",
    "DEFAULT_TOLERANCES",
    "ReproConfig",
    "active_profile",
    "cv_repeats",
    "ModelFamily",
    "available_feature_sets",
    "available_model_families",
    "model_family",
    "resolve_feature_set",
    "optimised_set",
    "prune_by_importance",
    "rank_features",
    "serve",
]
