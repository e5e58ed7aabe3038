"""The fleet router: one protocol endpoint, many resident models.

A scoring request is one JSON object: ``{"kernel": "gemm", "dtype":
"fp32", "size": 2048}`` builds and scores a dataset kernel (``dtype``
defaults to ``int32``, ``size`` to 2048 bytes), ``{"features": {...}}``
scores a feature mapping, ``{"rows": [[...], ...]}`` a batch of
feature vectors, and ``{"cmd": "info"}`` describes the model.  The
answer is ``{"ok": true, "prediction": k}`` (``"predictions"`` for
rows, an integer array until a codec encodes it, ``"info"`` for info)
or a typed error frame (see
:mod:`repro.api.protocol`), with any request ``"id"`` echoed.

:class:`ModelFleet` is the layer between the JSON-lines protocol and
the classifiers.  It extends every scoring request with an optional
``"model"`` field naming a :class:`repro.api.fleet.ModelKey` spec
(``family:feature_set[:dataset_tag]``); requests that omit the field
are served by the pool's pinned default model, so pre-fleet clients
keep working unchanged.  Four admin verbs manage the pool over the
wire (see :class:`repro.api.admin.AdminClient` for the typed client
surface)::

    {"cmd": "list_models"}                     -> resident set + stats
    {"cmd": "load_model",  "model": "<spec>"}  -> warm-load one key
    {"cmd": "evict_model", "model": "<spec>"}  -> drop one key
    {"cmd": "promote",     "model": "<spec>"}  -> resident key -> default

A request naming a key the pool cannot serve answers a typed
``unknown_model`` error frame; a malformed key spec answers
``bad_request``.  :meth:`ModelFleet.single` wraps one classifier as a
fleet whose pool never loads another key, so single-model serving runs
through this same router.  A kernel's static features are extracted
once per fleet, into :attr:`ModelFleet.kernel_memo`: a repeated kernel
request is a row read off it, scored on the socket's coalesced step.

Serving transports do not call this class directly any more: the
unified transport core (:mod:`repro.api.transport`) wraps a fleet in a
:class:`~repro.api.transport.RequestEngine`, which routes scoring and
model-admin verbs here and handles server-level concerns (framing,
size guards, the ``stats`` verb, event-loop coalescing) itself.
"""

from __future__ import annotations

import threading

from repro.api.classifier import Classifier, _kernel_vector
from repro.api.fleet.pool import ModelKey, ModelPool
from repro.api.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_UNKNOWN_MODEL,
    error_frame,
    ok_frame,
    request_id,
)
from repro.dataset.build import static_features
from repro.dataset.registry import get_kernel_spec
from repro.errors import FleetError, ReproError
from repro.ir.types import parse_dtype


def kernel_key(request) -> tuple:
    """The normalised ``(kernel, dtype, size)`` of a kernel request."""
    return (get_kernel_spec(str(request["kernel"])).name,
            parse_dtype(str(request.get("dtype", "int32"))),
            int(request.get("size", 2048)))


class ModelFleet:
    """Route protocol requests across a :class:`ModelPool`.

    ``default`` (a fitted classifier) is admitted pinned as the pool's
    default model.  The fleet plugs into
    :class:`repro.api.daemon.ScoringDaemon` via its ``fleet=`` argument
    and into stdio serving via :func:`repro.api.transport.serve`.
    """

    #: bound on :attr:`kernel_memo` (shared by every model), ~2 KB an entry
    KERNEL_MEMO_ENTRIES = 1024

    def __init__(self, pool: ModelPool | None = None,
                 default: Classifier | None = None) -> None:
        self.pool = pool if pool is not None else ModelPool()
        if default is not None:
            self.pool.add(default, default=True)
        #: :func:`kernel_key` -> static features; written under the lock
        self.kernel_memo: dict = {}
        self._memo_lock = threading.Lock()

    @classmethod
    def single(cls, classifier: Classifier) -> "ModelFleet":
        """A one-model fleet serving *classifier* as its pinned default.

        Its pool never loads another key: a request naming any model
        but the classifier's own key answers ``unknown_model`` instead
        of reaching the artifact cache.
        """
        key = ModelKey.for_classifier(classifier)

        def refuse(requested: ModelKey) -> Classifier:
            raise FleetError(f"this server serves only model {key.spec!r}; "
                             f"it does not load {requested.spec!r}")

        pool = ModelPool(loader=refuse, default_tag=key.dataset_tag)
        return cls(pool, default=classifier)

    # -- request routing ---------------------------------------------------

    def _resolve(self, request) -> Classifier:
        """The classifier behind a request's ``"model"`` field.

        Malformed specs raise plain :class:`ReproError` (answered as
        ``bad_request``); keys the pool cannot serve raise
        :class:`FleetError` (answered as ``unknown_model``).
        """
        spec = request.get("model")
        if spec is not None:
            spec = self._parse_key(spec)
        return self.pool.get(spec)

    def _parse_key(self, spec) -> ModelKey:
        try:
            return self.pool.resolve_key(spec)
        except FleetError as exc:
            raise ReproError(str(exc))  # malformed spec -> bad_request

    def handle_request(self, request) -> dict:
        """One decoded request to one response frame (synchronous)."""
        req_id = request_id(request)
        try:
            if not isinstance(request, dict):
                raise ReproError("request must be a JSON object")
            admin = self._handle_admin(request, req_id)
            if admin is not None:
                return admin
            classifier = self._resolve(request)
            if request.get("cmd") == "info":
                return ok_frame({"info": classifier.info()}, req_id)
            if "rows" in request:
                # an array: BinaryCodec packs it, only JSON lists it
                preds = classifier.predict_batch(request["rows"])
                return ok_frame({"predictions": preds}, req_id)
            if "features" in request:
                prediction = classifier.predict(request["features"])
                return ok_frame({"prediction": prediction}, req_id)
            if "kernel" in request:
                row = self.kernel_row(request, classifier.feature_names_)
                if row is None:
                    key = kernel_key(request)
                    kernel = get_kernel_spec(key[0]).build(key[1], key[2])
                    row = _kernel_vector(kernel, self._remember(key, kernel),
                                         classifier.feature_names_)
                return ok_frame({"prediction": classifier.predict(row)},
                                req_id)
            raise ReproError(
                "unsupported request; expected one of the keys "
                "'kernel', 'features', 'rows' or cmd='info'")
        except FleetError as exc:
            return error_frame(ERROR_UNKNOWN_MODEL, str(exc), req_id)
        except (ReproError, TypeError, ValueError) as exc:
            # bare KeyError is deliberately NOT caught here: no
            # well-formed client input raises it, so one surfacing is a
            # server bug and belongs in the protocol turn's 'internal'
            # frame, not 'bad_request'
            return error_frame(ERROR_BAD_REQUEST, str(exc), req_id)

    def kernel_row(self, request, names) -> list | None:
        """The *names* row of a kernel request the memo holds; ``None``
        when it is new or malformed, or *names* are not all static."""
        try:
            static = self.kernel_memo[kernel_key(request)]
            return [static[name] for name in names]
        except (KeyError, ReproError, TypeError, ValueError, OverflowError):
            return None

    def _remember(self, key, kernel) -> dict:
        with self._memo_lock:  # one extraction, even for racing misses
            memo = self.kernel_memo
            if key not in memo:
                if len(memo) >= self.KERNEL_MEMO_ENTRIES:
                    del memo[next(iter(memo))]  # the oldest goes first
                memo[key] = static_features(kernel)
            return memo[key]

    def _handle_admin(self, request, req_id) -> dict | None:
        """The fleet admin verbs; ``None`` when the request is not one."""
        cmd = request.get("cmd")
        if cmd == "list_models":
            return ok_frame({"models": self.pool.entries(),
                             "stats": self.stats()}, req_id)
        if cmd == "load_model":
            key = self._parse_key(self._required_model(request))
            self.pool.get(key)
            return ok_frame({"model": key.spec, "loaded": True}, req_id)
        if cmd == "evict_model":
            key = self._parse_key(self._required_model(request))
            try:
                evicted = self.pool.evict(key)
            except FleetError as exc:
                # the key is known, just protected -> bad_request
                raise ReproError(str(exc))
            return ok_frame({"model": key.spec, "evicted": evicted},
                            req_id)
        if cmd == "promote":
            # FleetError (key not resident) propagates to the caller's
            # unknown_model answer: promotion never loads
            key = self.pool.promote(
                self._parse_key(self._required_model(request)))
            return ok_frame({"model": key.spec, "promoted": True},
                            req_id)
        return None

    @staticmethod
    def _required_model(request) -> str:
        spec = request.get("model")
        if spec is None:
            raise ReproError(
                f"cmd={request.get('cmd')!r} requires a 'model' key "
                f"('family:feature_set[:dataset_tag]')")
        return spec

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        return {"pool": self.pool.stats()}
