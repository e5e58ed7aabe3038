"""Resident multi-model pool: many artifacts, one memory budget.

A :class:`ModelPool` hosts fitted :class:`repro.api.Classifier`
instances keyed by :class:`ModelKey` — *(model family, feature set,
dataset tag)*, the same identity the artifact cache uses.  Keys can be
**warm pre-loaded** at startup, **lazily loaded** on first request (from
the artifact cache, never by silently training), and **evicted** —
either explicitly or by LRU pressure when the pool exceeds its
configurable memory budget.  The daemon's default model is admitted
*pinned*: it is never evicted, so old single-model clients keep a
resident model no matter what traffic the rest of the fleet sees.

Loads are single-flight: concurrent first requests for the same cold
key share one load instead of racing, and prediction traffic for
already-resident keys never blocks behind a load of a different key.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.api.artifact_cache import load_cached
from repro.api.classifier import Classifier
from repro.api.config import ReproConfig
from repro.api.registry import model_payload_bytes
from repro.errors import FleetError, MLError
from repro.obs import MetricsRegistry


@dataclass(frozen=True)
class ModelKey:
    """Identity of one servable model variant.

    The wire spelling (the ``"model"`` request field) is
    ``family:feature_set[:dataset_tag]`` — e.g. ``tree:static-all`` or
    ``tree:dynamic-opt:paper``; the dataset tag defaults to the
    pool's default profile when omitted.
    """

    family: str
    feature_set: str
    dataset_tag: str

    @property
    def spec(self) -> str:
        return f"{self.family}:{self.feature_set}:{self.dataset_tag}"

    @classmethod
    def parse(cls, spec, default_tag: str = "paper") -> "ModelKey":
        if not isinstance(spec, str) or not spec.strip():
            raise FleetError(
                f"model key must be a non-empty string "
                f"'family:feature_set[:dataset_tag]', got {spec!r}")
        parts = [p.strip() for p in spec.split(":")]
        if len(parts) == 2:
            parts.append(default_tag)
        if len(parts) != 3 or not all(parts):
            raise FleetError(
                f"model key {spec!r} does not parse as "
                f"'family:feature_set[:dataset_tag]'")
        return cls(*parts)

    @classmethod
    def for_classifier(cls, classifier: Classifier,
                       default_tag: str = "paper") -> "ModelKey":
        """The key a fitted classifier naturally serves under."""
        cfg = classifier.config
        tag = classifier.trained_profile_ or cfg.profile or default_tag
        return cls(cfg.model, cfg.feature_set, tag)


def cache_loader(train_on_miss: bool = False):
    """The default pool loader: artifact cache in, classifier out.

    Maps a :class:`ModelKey` to a :class:`ReproConfig` whose profile is
    the key's dataset tag and loads the matching cached artifact from
    the artifact cache directory
    (:func:`repro.api.artifact_cache.artifact_cache_dir`).  A
    cache miss raises :class:`FleetError` unless *train_on_miss* — a
    scoring request must not silently start a training campaign; train
    the variant first (``repro train``) or pre-load it explicitly.
    """

    def load(key: ModelKey) -> Classifier:
        try:
            config = ReproConfig(profile=key.dataset_tag, model=key.family,
                                 feature_set=key.feature_set)
        except Exception as exc:
            raise FleetError(f"model key {key.spec!r} is not servable: "
                             f"{exc}")
        classifier = load_cached(config)
        if classifier is not None:
            return classifier
        if train_on_miss:
            from repro.api.artifact_cache import load_or_train
            classifier, _ = load_or_train(config)
            return classifier
        raise FleetError(
            f"no cached artifact for model key {key.spec!r}; train it "
            f"first (repro train --model {key.family} --features "
            f"{key.feature_set} --profile {key.dataset_tag}) or start "
            f"the daemon with --preload")

    return load


class _Entry:
    """One resident model plus its bookkeeping (guarded by the pool lock)."""

    __slots__ = ("classifier", "size_bytes", "hits", "loads", "loaded_at")

    def __init__(self, classifier: Classifier, size_bytes: int) -> None:
        self.classifier = classifier
        self.size_bytes = size_bytes
        self.hits = 0
        self.loads = 1
        self.loaded_at = time.monotonic()


class ModelPool:
    """LRU-bounded host for many resident classifiers.

    *loader* maps a :class:`ModelKey` to a fitted classifier (default:
    :func:`cache_loader`, the artifact cache).  *memory_budget_bytes* /
    *max_models* bound the resident set: crossing either bound evicts
    least-recently-used entries.  The most recently admitted entry
    always survives admission (a single over-budget model is served,
    not refused), and the default key is pinned: it is never evicted.

    :attr:`obs` is the serving telemetry registry.  The pool counts its
    hits, misses, loads and evictions there from construction (so a
    preload counts), and every engine and daemon serving a fleet over
    this pool counts its traffic into the same registry.
    """

    def __init__(self, loader=None, memory_budget_bytes: int | None = None,
                 max_models: int | None = None,
                 default_tag: str = "paper") -> None:
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise FleetError("memory_budget_bytes must be positive")
        if max_models is not None and max_models < 1:
            raise FleetError("max_models must be >= 1")
        self._loader = loader if loader is not None else cache_loader()
        self.memory_budget_bytes = memory_budget_bytes
        self.max_models = max_models
        self.default_tag = default_tag
        self._lock = threading.Lock()
        self._entries: "OrderedDict[ModelKey, _Entry]" = OrderedDict()
        self._loading: dict = {}        # key -> threading.Event
        self._load_errors: dict = {}    # key -> FleetError (while loading)
        self.default_key: ModelKey | None = None
        #: the default key's classifier (``None`` until one is
        #: admitted): rebound under the lock by add/promote, read
        #: without it by the event loop's coalesced scoring step
        self.default: Classifier | None = None
        self.obs = MetricsRegistry()
        self._obs_hits = self.obs.counter(
            "repro_pool_requests_total", outcome="hit")
        self._obs_misses = self.obs.counter(
            "repro_pool_requests_total", outcome="miss")
        self._obs_load_us = self.obs.histogram("repro_pool_load_us")
        self._obs_evict_us = self.obs.histogram("repro_pool_evict_us")
        self._obs_evictions = self.obs.counter("repro_pool_evictions_total")

    # -- admission ---------------------------------------------------------

    def resolve_key(self, spec) -> ModelKey:
        """Parse a wire spec against this pool's default dataset tag."""
        if isinstance(spec, ModelKey):
            return spec
        return ModelKey.parse(spec, default_tag=self.default_tag)

    def add(self, classifier: Classifier, key: ModelKey | str | None = None,
            default: bool = False) -> ModelKey:
        """Admit an already-fitted classifier under *key*.

        ``default=True`` makes the entry the pool's default model
        (served to requests without a ``"model"`` field), which pins
        it.  *key* defaults to :meth:`ModelKey.for_classifier`.
        """
        if not classifier.is_fitted:
            raise FleetError("cannot pool an unfitted classifier")
        if key is None:
            key = ModelKey.for_classifier(classifier, self.default_tag)
        else:
            key = self.resolve_key(key)
        size = self._estimate_size(classifier)
        with self._lock:
            if default:
                self.default_key = key
            entry = _Entry(classifier, size)
            if key in self._entries:
                entry.loads = self._entries[key].loads + 1
                entry.hits = self._entries[key].hits
            self._entries[key] = entry
            self._entries.move_to_end(key)
            if key == self.default_key:
                self.default = classifier
            self._evict_over_budget_locked()
        return key

    def _estimate_size(self, classifier: Classifier) -> int:
        try:
            return model_payload_bytes(classifier.config.model,
                                       classifier.model_)
        except (MLError, TypeError, ValueError):
            return 0  # unknown family codec: exempt from the budget

    # -- lookup ------------------------------------------------------------

    def get(self, key: ModelKey | str | None = None) -> Classifier:
        """The resident classifier for *key* (the default when omitted).

        Cold keys are loaded on first request via the pool loader
        (single-flight across threads) and admitted evictable, so later
        memory pressure can evict them; a key the loader cannot satisfy
        raises :class:`FleetError`.
        """
        if key is None:
            with self._lock:
                if self.default_key is None:
                    raise FleetError("pool has no default model; requests "
                                     "must name a model key")
                key = self.default_key
        key = self.resolve_key(key)
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    entry.hits += 1
                    self._entries.move_to_end(key)
                    self._obs_hits.inc()
                    return entry.classifier
                waiter = self._loading.get(key)
                if waiter is None:
                    self._loading[key] = threading.Event()
                    break  # this thread performs the load
            waiter.wait()
            with self._lock:
                error = self._load_errors.get(key)
            if error is not None:
                raise error
            # else: loaded (or evicted again already) — re-check
        self._obs_misses.inc()
        load_from = time.perf_counter_ns()
        try:
            classifier = self._loader(key)
        except FleetError as exc:
            self._finish_load(key, error=exc)
            raise
        except Exception as exc:
            error = FleetError(f"loading model {key.spec!r} failed: {exc}")
            self._finish_load(key, error=error)
            raise error
        self._obs_load_us.record((time.perf_counter_ns() - load_from) / 1000.0)
        if not isinstance(classifier, Classifier) or not classifier.is_fitted:
            error = FleetError(f"loader returned no fitted classifier for "
                               f"model {key.spec!r}")
            self._finish_load(key, error=error)
            raise error
        self.add(classifier, key)
        self._finish_load(key)
        return classifier

    def peek(self, key: ModelKey | str) -> Classifier | None:
        """The resident classifier for *key*, or ``None`` — never loads.

        Counts as an LRU touch when resident.  The daemon event loop
        uses this to coalesce model-routed rows without ever blocking
        the IO thread on an artifact load (default-route rows read
        :attr:`default` instead).
        """
        key = self.resolve_key(key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            entry.hits += 1
            self._entries.move_to_end(key)
            self._obs_hits.inc()
            return entry.classifier

    def _finish_load(self, key: ModelKey, error=None) -> None:
        with self._lock:
            waiter = self._loading.pop(key, None)
            if error is not None:
                self._load_errors[key] = error
            else:
                self._load_errors.pop(key, None)
        if waiter is not None:
            waiter.set()

    def preload(self, keys) -> list:
        """Warm-load every key (specs or :class:`ModelKey`); returns them."""
        resolved = [self.resolve_key(k) for k in keys]
        for key in resolved:
            self.get(key)
        return resolved

    # -- eviction ----------------------------------------------------------

    def evict(self, key: ModelKey | str) -> bool:
        """Drop one resident entry; ``False`` when it was not resident.

        The pinned default model is protected: evicting it raises
        :class:`FleetError`.  An evicted key stays servable — the
        next request for it transparently reloads through the loader.
        """
        key = self.resolve_key(key)
        evict_from = time.perf_counter_ns()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            if key == self.default_key:
                raise FleetError(f"model {key.spec!r} is pinned (the "
                                 f"default model) and cannot be evicted")
            del self._entries[key]
            self._load_errors.pop(key, None)
            self._obs_evictions.inc()
        self._obs_evict_us.record((time.perf_counter_ns() - evict_from) / 1000.0)
        return True

    def promote(self, key: ModelKey | str) -> ModelKey:
        """Make an already-resident *key* the pool's pinned default.

        The hot-swap endgame (see :mod:`repro.api.supervisor`): after
        the new artifact is warm-loaded and canary-checked, promotion
        atomically repoints the default route — requests without a
        ``"model"`` field — at it.  The previous default stays resident
        but becomes evictable under LRU pressure.  A key that is not
        resident raises :class:`FleetError`: promotion must never block
        scoring traffic behind an artifact load — warm the key first
        (:meth:`get` / ``load_model``).
        """
        key = self.resolve_key(key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                raise FleetError(
                    f"model {key.spec!r} is not resident and cannot be "
                    f"promoted; warm-load it first (load_model)")
            if self.default_key == key:
                return key
            self.default_key = key
            self.default = entry.classifier
            self._entries.move_to_end(key)
        return key

    def _evict_over_budget_locked(self) -> None:
        def over() -> bool:
            if self.max_models is not None and \
                    len(self._entries) > self.max_models:
                return True
            if self.memory_budget_bytes is not None and \
                    self._resident_bytes_locked() > self.memory_budget_bytes:
                return True
            return False

        newest = next(reversed(self._entries), None)
        while over():
            victim = next((k for k in self._entries
                           if k != self.default_key and k != newest), None)
            if victim is None:
                return  # only the default (or the newest) remains
            del self._entries[victim]
            self._obs_evictions.inc()

    def _resident_bytes_locked(self) -> int:
        return sum(e.size_bytes for e in self._entries.values())

    # -- introspection -----------------------------------------------------

    def __contains__(self, key) -> bool:
        try:
            key = self.resolve_key(key)
        except FleetError:
            return False
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries(self) -> list:
        """JSON-safe per-model rows (the ``list_models`` payload), in
        LRU order — least recently used first."""
        with self._lock:
            return [{
                "model": key.spec,
                "family": key.family,
                "feature_set": key.feature_set,
                "dataset_tag": key.dataset_tag,
                "size_bytes": entry.size_bytes,
                "hits": entry.hits,
                "loads": entry.loads,
                "pinned": key == self.default_key,
                "default": key == self.default_key,
            } for key, entry in self._entries.items()]

    def stats(self) -> dict:
        with self._lock:
            return {
                "resident_models": len(self._entries),
                "resident_bytes": self._resident_bytes_locked(),
                "memory_budget_bytes": self.memory_budget_bytes,
                "max_models": self.max_models,
                "evictions": self._obs_evictions.value,
                "default_model": (self.default_key.spec
                                  if self.default_key else None),
            }
