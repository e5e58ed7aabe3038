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

Extension points: :func:`register_model_family` (e.g. a new ensemble)
and :func:`register_feature_set` (e.g. a new static feature family)
plug new behaviour in without touching any caller.

Serving: :class:`ScoringDaemon` keeps one loaded classifier (or a
multi-model fleet) resident behind a Unix/TCP socket and answers the
JSON-lines protocol for many concurrent clients — stdio and the
event-loop socket server both dispatch through the unified core in
:mod:`repro.api.transport`.  :class:`ShardManager` scales that
to N daemon processes behind one endpoint and
:class:`ShardSupervisor` keeps the fleet healthy (crash respawn,
graceful drain, rolling restart, zero-downtime model hot-swap);
:class:`ScoringClient` is the wire client (sequential and pipelined),
:class:`AdminClient` the typed fleet-ops surface; and :func:`load_or_train`
caches trained model artifacts keyed on ``(dataset tag, CODE_VERSION,
model family, feature set)`` — bounded in age by
``$REPRO_ARTIFACT_TTL`` — so identical configurations never retrain.

Wire format and execution backend are both negotiated/pluggable:
connections start as JSON-lines and may upgrade to the length-prefixed
binary codec via a ``{"cmd": "hello"}`` handshake (see
:mod:`repro.api.wire`), and loaded classifiers predict through
compiled flat decision tables by default with a ``backend="reference"``
opt-out (see :meth:`Classifier.compile`).
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
    BACKEND_COMPILED,
    BACKEND_REFERENCE,
    BACKENDS,
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
    ShardManager,
    classifier_factory,
    fleet_factory,
    registry_epoch,
)
from repro.api.supervisor import (
    HotSwapReport,
    ShardSupervisor,
)
from repro.api.transport import (
    EventLoopServer,
    RequestEngine,
    serve_stdio,
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
    default_jobs,
)
from repro.api.registry import (
    ModelFamily,
    available_feature_sets,
    available_model_families,
    model_family,
    register_feature_set,
    register_model_family,
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
from repro.api.service import handle_request, serve
from repro.api.wire import (
    CODEC_BINARY_V2,
    CODEC_JSON,
    DEFAULT_CODECS,
    WireSession,
    get_codec,
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
    "ShardManager",
    "ShardSupervisor",
    "HotSwapReport",
    "classifier_factory",
    "collect_metrics",
    "collect_stats",
    "fleet_factory",
    "registry_epoch",
    "BACKEND_COMPILED",
    "BACKEND_REFERENCE",
    "BACKENDS",
    "CODEC_BINARY_V2",
    "CODEC_JSON",
    "DEFAULT_CODECS",
    "WireSession",
    "get_codec",
    "DEFAULT_PIPELINE_WINDOW",
    "DEFAULT_WORKERS",
    "parse_tcp_endpoint",
    "EventLoopServer",
    "RequestEngine",
    "serve_stdio",
    "ERROR_BAD_REQUEST",
    "ERROR_INTERNAL",
    "ERROR_INVALID_JSON",
    "error_frame",
    "ok_frame",
    "DEFAULT_TOLERANCES",
    "ReproConfig",
    "active_profile",
    "cv_repeats",
    "default_jobs",
    "ModelFamily",
    "available_feature_sets",
    "available_model_families",
    "model_family",
    "register_feature_set",
    "register_model_family",
    "resolve_feature_set",
    "optimised_set",
    "prune_by_importance",
    "rank_features",
    "handle_request",
    "serve",
]
