"""The transport core: one engine, stdio, and the coalesced row block.

Every serving path dispatches through this module:

* :class:`RequestEngine` — protocol dispatch over a
  :class:`repro.api.fleet.ModelFleet` (a bare
  :class:`repro.api.Classifier` is wrapped as a one-model fleet).  It
  owns the protocol turn on a decoded request (:meth:`RequestEngine.
  turn`: handle, encode, typed ``internal`` frames, telemetry), the
  server-level admin verbs (``stats``, ``health``, ``metrics``,
  ``drain``), and the one coalesced scoring path the socket server
  batches with: :meth:`RequestEngine.classify` turns a single-row or
  memo-hit kernel request or a stream frame into a :class:`RowBlock`, and
  :meth:`RequestEngine.execute` scores a round's blocks with one
  ``predict_batch`` call per classifier and scatters the answers.
  An engine counts into its fleet's :class:`repro.obs.MetricsRegistry`
  (the pool's, which outlives every engine) and owns a
  :class:`repro.obs.Tracer`.
* :func:`serve` — the stdin/stdout loop behind
  ``repro serve``.

The socket server, :class:`repro.api.daemon.ScoringDaemon`, funnels
every request through the same engine, so stdio and socket answers are
**byte-identical frames** for the same requests; regression-tested in
``tests/test_transport.py``.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro.api.fleet import ModelFleet
from repro.api.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_DRAINING,
    ERROR_INTERNAL,
    error_frame,
    ok_frame,
    request_id,
)
from repro.api.wire import (
    BINARY_V2_CODEC,
    CODEC_JSON,
    JSON_CODEC,
    NO_ID,
    PredictStream,
)
from repro.errors import FleetError, MLError
from repro.obs import SIZE_BUCKET_BOUNDS_BYTES, Tracer

_DRAINING = ("server is draining and accepts no new scoring requests; "
             "retry on another shard")


@dataclass(slots=True, eq=False)
class RowBlock:
    """One unit of coalesced scoring: rows for one classifier, the ids
    they answer and the codec that frames the answer.

    A ``{"features": ...}`` or memo-hit ``{"kernel": ...}`` request — a
    JSON line, or a JSON frame embedded in the binary codec — is a
    1-row block: ``ids`` and
    ``rows`` are 1-tuples (the request id, the feature vector) and
    ``codec`` is the connection's :class:`~repro.api.wire.WireSession`,
    so the prediction frame speaks the codec in force when written.  A
    binary-v2 ``PREDICT_STREAM`` is an N-row block (``stream`` set): an
    ``<i8`` id array (:data:`~repro.api.wire.NO_ID` for none) and an
    ``(N, cols)`` ``<f4`` matrix, a view of the received frame that is
    scored as it is, answered with one packed ``PREDICTIONS_STREAM``
    frame by the binary-v2 codec.  *token* is opaque transport state
    (the socket server's connection).
    """

    token: object
    classifier: object
    ids: object
    rows: object
    codec: object
    stream: bool

    def __len__(self) -> int:
        return len(self.ids)

    def answer(self, ids, predictions) -> bytes:
        """The success reply for *ids*, this block's ids or a subset."""
        if self.stream:
            return self.codec.encode_predictions_stream(ids, predictions)
        return self.codec.encode_prediction(ids[0], int(predictions[0]))


class RequestEngine:
    """Protocol dispatch over a model fleet: one engine, every transport.

    *scorer* is a :class:`repro.api.fleet.ModelFleet` or a fitted
    :class:`repro.api.Classifier`, which is served as a one-model fleet
    (:meth:`ModelFleet.single`).  The engine owns:

    * request dispatch (:meth:`handle`), including the server-level
      ``{"cmd": "stats"}`` admin verb;
    * the protocol turn on a decoded request (:meth:`turn`): handle,
      encode in the connection's codec, a typed ``internal`` frame on
      an unexpected exception, and the request's telemetry;
    * coalesced scoring: :meth:`classify` turns a single row (or a
      memo-hit kernel request) or a binary-v2 stream frame into a
      :class:`RowBlock` (or answers it inline), and :meth:`execute`
      scores many blocks with one ``predict_batch`` call per
      classifier and one per-row fallback (:meth:`_score_rows`);
    * the fleet-ops control verbs ``{"cmd": "health"}`` (liveness /
      drain state) and ``{"cmd": "drain"}`` (begin a graceful drain
      through :attr:`drain_hook` — see :meth:`repro.api.daemon.
      ScoringDaemon.request_drain`).  While :attr:`draining` is set,
      scoring requests are refused with a typed ``draining`` frame so
      clients re-resolve the shard registry and land on a live sibling.
    """

    def __init__(self, scorer) -> None:
        self.fleet = (scorer if isinstance(scorer, ModelFleet)
                      else ModelFleet.single(scorer))
        self._stats_sources: dict = {}
        #: the fleet's telemetry registry (see :mod:`repro.obs`)
        self.obs = self.fleet.pool.obs
        self.tracer = Tracer.from_env()
        # the hot-path pair (score latency, bytes out) per codec: one
        # interned-string dict hit per scoring request instead of two
        # tuple-keyed lookups (see observe_request)
        self._hot_cache: dict = {}
        #: set by the owning daemon once a drain begins; checked on
        #: both the slow path (:meth:`handle`) and the coalesced path
        #: (:meth:`classify`), which bypasses handle entirely
        self.draining = False
        #: callable starting a graceful drain (wired by the daemon);
        #: ``None`` means this engine's transport cannot drain
        self.drain_hook = None

    # -- introspection -----------------------------------------------------

    def add_stats_source(self, name: str, source) -> None:
        """Register a named callable contributing to the stats verb."""
        self._stats_sources[name] = source

    def stats(self) -> dict:
        """The stats tree: every registered source plus scorer stats."""
        stats: dict = {}
        for name, source in self._stats_sources.items():
            stats[name] = source()
        stats["fleet"] = self.fleet.stats()
        return stats

    def health(self) -> dict:
        """The ``{"cmd": "health"}`` payload: status, pid, shard identity."""
        payload = {
            "status": "draining" if self.draining else "serving",
            "pid": os.getpid(),
            "draining": bool(self.draining),
        }
        shard = self._stats_sources.get("shard")
        if shard is not None:
            payload["shard"] = shard()
        return payload

    # -- observability -----------------------------------------------------

    def metrics_payload(self) -> dict:
        """The ``{"cmd": "metrics"}`` payload: one registry snapshot.

        ``enabled`` is always true (telemetry cannot be switched off).
        Merge the ``series`` of many shards with
        :func:`repro.obs.merge_series` (bucket-wise), never by
        averaging percentiles.
        """
        payload = self.obs.snapshot()
        payload["enabled"] = True
        payload["trace"] = self.tracer.snapshot()
        return payload

    def latency_histogram(self, verb: str, codec: str, model: str):
        """The request-latency histogram for one label combination."""
        return self.obs.histogram("repro_request_latency_us", verb=verb,
                                  codec=codec, model=model)

    def _size_histogram(self, codec: str):
        return self.obs.histogram("repro_request_bytes",
                                  bounds=SIZE_BUCKET_BOUNDS_BYTES,
                                  direction="out", codec=codec)

    def hot_metrics(self, codec: str):
        """The pre-resolved (latency, bytes-out) pair for plain
        scoring requests under *codec* — the hot-path shape.

        Transports resolve it for every offered codec at start, so
        :meth:`observe_request` on a scoring request is one dict hit
        plus the records themselves — never a registry lock.
        """
        pair = self._hot_cache.get(codec)
        if pair is None:
            pair = (self.latency_histogram("score", codec, "default"),
                    self._size_histogram(codec))
            self._hot_cache[codec] = pair
        return pair

    def observe_request(self, request, codec: str, started_ns: int,
                        bytes_out: int, ended_ns: int) -> None:
        """Record one answered request: latency, answer size, slow log.

        Called with the codec the transport spoke and the
        ``perf_counter_ns`` readings taken at ingress and egress.
        """
        elapsed_us = (ended_ns - started_ns) / 1000.0
        verb = model = None
        if type(request) is dict:
            cmd = request.get("cmd")
            if cmd is not None:
                verb = str(cmd)
            spec = request.get("model")
            if spec is not None:
                model = str(spec)
        if verb is None and model is None:
            # the hot shape (a scoring request on the default model,
            # including decoded PredictStreams): pre-resolved handles
            latency, size_out = self.hot_metrics(codec)
        else:
            verb = verb or "score"
            model = model or "default"
            latency = self.latency_histogram(verb, codec, model)
            size_out = self._size_histogram(codec)
        latency.record(elapsed_us)
        size_out.record(bytes_out)
        tracer = self.tracer
        if tracer.slow_request_us and elapsed_us >= tracer.slow_request_us:
            # threshold inlined: the common (fast-request) case skips
            # the call and its keyword packing entirely
            tracer.observe_slow(elapsed_us, verb or "score",
                                codec=codec,
                                model=model or "default")

    def close_observability(self) -> None:
        """Flush buffered trace events (called off the serving paths)."""
        try:
            self.tracer.flush()
        except OSError:
            pass  # an unwritable trace path must not fail shutdown

    # -- dispatch ----------------------------------------------------------

    def handle(self, request) -> dict:
        """One decoded request to one response frame."""
        if isinstance(request, dict):
            cmd = request.get("cmd")
            if self.draining and cmd is None:
                # scoring requests (features / rows / kernel) are
                # refused while draining; control and admin verbs keep
                # answering so supervisors can watch the drain complete
                return error_frame(ERROR_DRAINING, _DRAINING,
                                   request_id(request))
            if cmd == "stats":
                return ok_frame({"stats": self.stats()},
                                request_id(request))
            if cmd == "health":
                return ok_frame({"health": self.health()},
                                request_id(request))
            if cmd == "metrics":
                return ok_frame({"metrics": self.metrics_payload()},
                                request_id(request))
            if cmd == "drain":
                if self.drain_hook is None:
                    return error_frame(
                        ERROR_BAD_REQUEST,
                        "this server has no drain support (no owning "
                        "daemon wired a drain hook)",
                        request_id(request),
                    )
                # set synchronously so the ack already guarantees new
                # scoring requests are refused; the hook runs the slow
                # half (pause accept, wait, stop) off this thread
                self.draining = True
                started = self.drain_hook()
                return ok_frame(
                    {"draining": True, "started": bool(started)},
                    request_id(request),
                )
            if cmd == "hello":
                # codec negotiation is per-connection transport state;
                # the socket server negotiates through its WireSession
                # before a request reaches the engine, so an
                # engine-level hello can only come from stdio, which
                # keeps speaking JSON
                return ok_frame({"codec": CODEC_JSON},
                                request_id(request))
        return self.fleet.handle_request(request)

    def turn(self, request, codec, started_ns: int | None = None,
             sampled: bool = False) -> bytes:
        """One protocol turn on a decoded request; returns the answer.

        Handles *request*, encodes the frame with *codec* (a
        :mod:`repro.api.wire` codec), answers a typed ``internal``
        frame carrying the request id when handling or encoding
        raises, and records the request's telemetry.  *started_ns* is
        the ``perf_counter_ns`` reading the latency counts from
        (default: now); *sampled* records ``predict`` / ``encode``
        trace spans.
        """
        tracer = self.tracer if sampled else None
        if started_ns is None:
            started_ns = time.perf_counter_ns()
        opened = handled = (time.perf_counter_ns()
                            if tracer is not None else 0)
        try:
            frame = self.handle(request)
            if tracer is not None:
                handled = time.perf_counter_ns()
            encoded = codec.encode_response(frame)
        except Exception as exc:
            encoded = codec.encode_response(error_frame(
                ERROR_INTERNAL, f"internal error: {exc}",
                request_id(request)))
        done = time.perf_counter_ns()
        self.observe_request(request, codec.name, started_ns,
                             bytes_out=len(encoded), ended_ns=done)
        if tracer is not None:
            tracer.complete("predict", opened, handled)
            tracer.complete("encode", handled, done)
        return encoded

    # -- coalesced scoring: classify -> execute ---------------------------

    def classify(self, request, codec, token):
        """Classify a decoded request for coalesced scoring.

        Returns ``None`` for the worker path (anything but a single-row
        ``{"features": ...}`` request, a kernel request whose row the
        fleet's kernel memo holds, or a
        :class:`~repro.api.wire.PredictStream`, or a row whose model is
        not resident — loading must never block an IO thread), a list
        of typed error frames answering every id inline, or a
        :class:`RowBlock` for *token*.  Default-route rows read
        :attr:`ModelPool.default`, which ``promote`` rebinds, without
        taking the pool lock.
        """
        stream = type(request) is PredictStream
        if stream:
            ids, spec, codec = request.ids, None, BINARY_V2_CODEC
        elif (isinstance(request, dict) and "rows" not in request
                and ("features" in request) != ("kernel" in request)
                and request.get("cmd") is None):
            ids, spec = (request.get("id"),), request.get("model")
        else:
            return None
        if self.draining:
            # coalesced rows bypass handle(), so the drain refusal is
            # answered here too or they would slip through a drain
            return self._refuse(ids, stream, ERROR_DRAINING, _DRAINING)
        if spec is None:
            classifier = self.fleet.pool.default
        else:
            try:
                classifier = self.fleet.pool.peek(spec)
            except FleetError as exc:
                return [error_frame(ERROR_BAD_REQUEST, str(exc), ids[0])]
        if classifier is None:
            if not stream:
                return None  # not resident: the worker path loads it
            return self._refuse(
                ids, stream, ERROR_BAD_REQUEST,
                "no default model is available to score a stream frame")
        n_features = len(classifier.feature_names_)
        if stream:
            rows = request.rows
            if rows.shape[1] != n_features:
                return self._refuse(
                    ids, stream, ERROR_BAD_REQUEST,
                    f"stream rows carry {rows.shape[1]} features; the "
                    f"default model expects {n_features}")
        elif "kernel" in request:
            rows = (self.fleet.kernel_row(request, classifier.feature_names_),)
            if rows[0] is None:
                return None  # new, malformed or dynamic: the worker path
        elif (type(request["features"]) is list
                and len(request["features"]) == n_features):
            # JSON already delivered plain numbers: a well-shaped list
            # skips the _vectorize re-conversion (non-numeric elements
            # surface through _score_rows as typed bad_request frames)
            rows = (request["features"],)
        else:
            try:
                rows = (classifier._vectorize(request["features"]),)
            except (MLError, TypeError, ValueError) as exc:
                return [error_frame(ERROR_BAD_REQUEST, str(exc), ids[0])]
        return RowBlock(token, classifier, ids, rows, codec, stream)

    @staticmethod
    def _refuse(ids, stream: bool, code: str, message: str) -> list:
        """One typed error frame per row id (the same message each)."""
        if stream:
            ids = [None if rid == NO_ID else rid for rid in ids.tolist()]
        return [error_frame(code, message, rid) for rid in ids]

    def execute(self, blocks, emit) -> None:
        """Score coalesced row blocks; answer each through *emit*.

        ``emit(block, encoded)`` is called exactly once per block, with
        bytes answering each of its ids exactly once.  A group of list
        rows only (JSON rows, memo hits) whose cells are all exactly
        ints or floats walks the tree off the lists
        (:meth:`Classifier._walk_rows`); any other group of blocks sharing a
        classifier takes one ``predict_batch`` call (stream rows stay
        float32: f32 cells meet f64 thresholds exactly), and the
        predictions are scattered back in block order.  A group whose
        call raises falls back to :meth:`_score_rows`, so one bad row
        cannot fail its neighbours.
        """
        tracer = self.tracer
        sampled = tracer.sampling and tracer.sample()
        groups: dict = {}
        for block in blocks:
            groups.setdefault(id(block.classifier), []).append(block)
        for group in groups.values():
            opened_at = time.perf_counter_ns() if sampled else 0
            classifier = group[0].classifier
            rows = [block.rows for block in group]
            try:
                predictions = (None if any(b.stream for b in group) else
                               classifier._walk_rows([r[0] for r in rows]))
                if predictions is None:
                    predictions = classifier.predict_batch(
                        np.asarray(rows[0]) if len(rows) == 1
                        else np.concatenate(rows))
            except Exception:
                for block in group:
                    emit(block, self._score_rows(block))
                continue
            predicted_at = time.perf_counter_ns() if sampled else 0
            offset = 0
            for block in group:
                end = offset + len(block)
                emit(block, block.answer(block.ids, predictions[offset:end]))
                offset = end
            if sampled:
                tracer.complete("predict", opened_at, predicted_at,
                                rows=offset)
                tracer.complete("encode", predicted_at,
                                time.perf_counter_ns(), rows=offset)

    @staticmethod
    def _score_rows(block: RowBlock) -> bytes:
        """Per-row scoring for a block whose batch call raised.

        Rows that still score are answered together (one prediction or
        packed stream frame); each failing row draws its own typed
        error frame — every id answered exactly once, in one blob.
        """
        ids, rows = block.ids, block.rows
        if block.stream:
            # f32 -> Python float is exact: each row lands where it would
            # in the batch call
            ids, rows = ids.tolist(), rows.tolist()
        chunks: list = []
        good_ids: list = []
        good: list = []
        for rid, row in zip(ids, rows):
            try:
                prediction = block.classifier.predict(row)
            except Exception as exc:
                if isinstance(exc, (MLError, TypeError, ValueError)):
                    code, message = ERROR_BAD_REQUEST, str(exc)
                else:
                    code, message = ERROR_INTERNAL, f"internal error: {exc}"
                chunks.append(block.codec.encode_response(error_frame(
                    code, message,
                    None if block.stream and rid == NO_ID else rid)))
            else:
                good_ids.append(rid)
                good.append(int(prediction))
        if good_ids:
            chunks.append(block.answer(good_ids, good))
        return b"".join(chunks)


def serve(scorer, stdin=None, stdout=None) -> int:
    """Serve JSON-lines requests on stdin/stdout until EOF.

    What ``repro serve`` runs without a socket.  *scorer* is a fitted
    :class:`~repro.api.Classifier` (served as a one-model fleet), a
    :class:`~repro.api.fleet.ModelFleet` or an already-built
    :class:`RequestEngine`; returns the requests handled.  Each line is
    decoded (blank lines skipped, malformed or oversized lines answered
    with their typed error frame) and answered through
    :meth:`RequestEngine.turn`, so stdio frames are byte-identical to
    the socket server's JSON frames.
    """
    engine = scorer if isinstance(scorer, RequestEngine) else \
        RequestEngine(scorer)
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    handled = 0
    for line in stdin:
        request, decode_error = JSON_CODEC.decode_request(
            line.encode("utf-8", "replace"))
        if decode_error is not None:
            response = JSON_CODEC.encode_response(decode_error)
        elif request is None:
            continue
        else:
            response = engine.turn(request, JSON_CODEC)
        stdout.write(response.decode("utf-8"))
        stdout.flush()
        handled += 1
    return handled
