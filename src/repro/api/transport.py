"""The unified transport core: one engine, one socket server, stdio.

Every serving path dispatches through this module:

* :class:`RequestEngine` — protocol dispatch over a
  :class:`repro.api.fleet.ModelFleet` (a bare
  :class:`repro.api.Classifier` is wrapped as a one-model fleet).  It
  owns the protocol turn on a decoded request (:meth:`RequestEngine.
  turn`: handle, encode, typed ``internal`` frames, telemetry), the
  server-level admin verbs (``stats``, ``health``, ``metrics``,
  ``drain``), and the one coalesced scoring path the event loop
  batches with: :meth:`RequestEngine.classify` turns a single-row
  request or a binary-v2 stream frame into a :class:`RowBlock`, and
  :meth:`RequestEngine.execute` scores a round's blocks with one
  ``predict_batch`` call per classifier and scatters the answers.
* :class:`EventLoopServer` — the socket server (one selectors IO
  thread, adaptive request coalescing, a worker pool for slow
  requests, per-connection write buffers with ``EVENT_WRITE`` flow
  control).
* :func:`serve` / :func:`serve_stdio` — the stdin/stdout loop behind
  ``repro serve``.

Both adapters produce **byte-identical frames** for the same requests
because every request funnels through the same engine;
regression-tested in ``tests/test_transport.py``.  The adapters own
sockets and threads only — they never interpret a request themselves.
"""

from __future__ import annotations

import os
import selectors
import socket
import sys
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
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
    DEFAULT_CODECS,
    JSON_CODEC,
    NO_ID,
    CodecCounters,
    PredictStream,
    WireSession,
)
from repro.errors import FleetError, MLError
from repro.obs import (
    BATCH_BUCKET_BOUNDS_ROWS,
    MetricsRegistry,
    SIZE_BUCKET_BOUNDS_BYTES,
    Tracer,
)

#: bytes read per ``recv`` on a readable connection.
RECV_BYTES = 262144

#: default size of the socket server's slow-request worker pool.
DEFAULT_WORKERS = 16

#: default bound on the single-row requests the event loop coalesces
#: into one ``predict_batch`` call.
DEFAULT_MAX_BATCH = 64

_DRAINING = ("server is draining and accepts no new scoring requests; "
             "retry on another shard")


@dataclass(slots=True, eq=False)
class RowBlock:
    """One unit of coalesced scoring: rows for one classifier, the ids
    they answer and the codec that frames the answer.

    A ``{"features": ...}`` request — a JSON line, or a JSON frame
    embedded in the binary codec — is a 1-row block: ``ids`` and
    ``rows`` are 1-tuples (the request id, the feature vector) and
    ``codec`` is the connection's :class:`~repro.api.wire.WireSession`,
    so the prediction frame speaks the codec in force when written.  A
    binary-v2 ``PREDICT_STREAM`` is an N-row block (``stream`` set): an
    ``<i8`` id array (:data:`~repro.api.wire.NO_ID` for none) and an
    ``(N, cols)`` ``<f4`` matrix, answered with one packed
    ``PREDICTIONS_STREAM`` frame by the binary-v2 codec.  *token* is
    opaque transport state (the event loop's connection).
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
    * coalesced scoring: :meth:`classify` turns a single row or a
      binary-v2 stream frame into a :class:`RowBlock` (or answers it
      inline), and :meth:`execute` scores many blocks with one
      ``predict_batch`` call per classifier and one per-row fallback
      (:meth:`_score_rows`);
    * the fleet-ops control verbs ``{"cmd": "health"}`` (liveness /
      drain state) and ``{"cmd": "drain"}`` (begin a graceful drain
      through :attr:`drain_hook` — see :meth:`repro.api.daemon.
      ScoringDaemon.request_drain`).  While :attr:`draining` is set,
      scoring requests are refused with a typed ``draining`` frame so
      clients re-resolve the shard registry and land on a live sibling.
    """

    def __init__(self, scorer, metrics=None) -> None:
        self.fleet = (scorer if isinstance(scorer, ModelFleet)
                      else ModelFleet.single(scorer))
        self._stats_sources: dict = {}
        #: the telemetry registry (see :mod:`repro.obs`): pass
        #: ``metrics=False`` to serve uninstrumented, a registry to
        #: share one across components, or nothing for a fresh
        #: per-engine registry
        if metrics is False:
            self.obs = None
            self.tracer = None
        else:
            self.obs = (metrics if metrics is not None
                        else MetricsRegistry())
            self.tracer = Tracer.from_env()
        # instrument sites resolve metrics once and cache the object,
        # so the per-request path never takes the registry lock
        self._metric_cache: dict = {}
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

        ``enabled`` distinguishes "no traffic yet" from "serving with
        metrics off"; merge the ``series`` of many shards with
        :func:`repro.obs.merge_series` (bucket-wise), never by
        averaging percentiles.
        """
        if self.obs is None:
            return {"enabled": False, "series": []}
        payload = self.obs.snapshot()
        payload["enabled"] = True
        if self.tracer is not None:
            payload["trace"] = self.tracer.snapshot()
        return payload

    def latency_histogram(self, verb: str, codec: str, model: str):
        """The request-latency histogram for one label combination."""
        key = ("latency", verb, codec, model)
        hist = self._metric_cache.get(key)
        if hist is None:
            hist = self.obs.histogram("repro_request_latency_us",
                                      verb=verb, codec=codec,
                                      model=model)
            self._metric_cache[key] = hist
        return hist

    def _size_histogram(self, codec: str):
        key = ("bytes", codec)
        hist = self._metric_cache.get(key)
        if hist is None:
            hist = self.obs.histogram("repro_request_bytes",
                                      bounds=SIZE_BUCKET_BOUNDS_BYTES,
                                      direction="out", codec=codec)
            self._metric_cache[key] = hist
        return hist

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
                        bytes_out: int,
                        ended_ns: int | None = None) -> None:
        """Record one answered request: latency, answer size, slow log.

        Called by every transport with the codec it spoke and the
        ``perf_counter_ns`` reading it took at ingress; a no-op on
        uninstrumented engines, so transports need no guard of their
        own beyond skipping the clock read.  Transports that already
        took an egress clock reading pass it as *ended_ns* so the
        request costs no extra clock call here.
        """
        if self.obs is None:
            return
        if ended_ns is None:
            ended_ns = time.perf_counter_ns()
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
        if (tracer is not None and tracer.slow_request_us
                and elapsed_us >= tracer.slow_request_us):
            # threshold inlined: the common (fast-request) case skips
            # the call and its keyword packing entirely
            tracer.observe_slow(elapsed_us, verb or "score",
                                codec=codec,
                                model=model or "default")

    def close_observability(self) -> None:
        """Flush buffered trace events (called off the serving paths)."""
        if self.tracer is not None:
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
        raises, and records the request's telemetry (a no-op when
        telemetry is off).  *started_ns* is the ``perf_counter_ns``
        reading the latency counts from (default: now); *sampled*
        records ``predict`` / ``encode`` trace spans.
        """
        tracer = self.tracer if sampled else None
        if started_ns is None and self.obs is not None:
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
        if self.obs is not None:
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
        ``{"features": ...}`` request or a
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
        elif (isinstance(request, dict) and "features" in request
                and "rows" not in request and "kernel" not in request
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
        bytes answering each of its ids exactly once.  Blocks sharing a
        classifier are concatenated and lifted to float64 **once**
        (stream blocks straight from their f32 buffers — no Python
        floats), scored by one ``predict_batch`` call, and the
        predictions are scattered back in block order.  A group whose
        batch call raises falls back to :meth:`_score_rows`, so one bad
        row cannot fail its neighbours.
        """
        tracer = self.tracer
        sampled = tracer is not None and tracer.sampling \
            and tracer.sample()
        groups: dict = {}
        for block in blocks:
            groups.setdefault(id(block.classifier), []).append(block)
        for group in groups.values():
            opened_at = time.perf_counter_ns() if sampled else 0
            rows = [block.rows for block in group]
            try:
                predictions = np.asarray(group[0].classifier.predict_batch(
                    np.asarray(rows[0], dtype=np.float64) if len(rows) == 1
                    else np.concatenate(rows, dtype=np.float64)))
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
            # f32 -> Python float is exact, like the batch's float64 lift
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
    :class:`RequestEngine`; returns the requests handled.
    """
    if not isinstance(scorer, RequestEngine):
        scorer = RequestEngine(scorer)
    return serve_stdio(scorer, stdin, stdout)


def serve_stdio(engine: RequestEngine, stdin=None, stdout=None) -> int:
    """Serve JSON-lines requests until EOF; returns requests handled.

    Each line is decoded (blank lines skipped, malformed or oversized
    lines answered with their typed error frame) and answered through
    :meth:`RequestEngine.turn`, so stdio frames are byte-identical to
    the socket server's JSON frames.
    """
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


class _Connection:
    """Per-socket state owned by the loop thread (no locking needed)."""

    __slots__ = ("sock", "wire", "wbuf", "closed", "want_write",
                 "eof", "pending")

    def __init__(self, sock: socket.socket,
                 codecs=DEFAULT_CODECS) -> None:
        self.sock = sock
        self.wire = WireSession(codecs)
        self.wbuf = bytearray()
        self.closed = False
        self.want_write = False  # EVENT_WRITE interest is registered
        self.eof = False  # half-closed: finish answering, then close
        self.pending = 0  # routed requests not yet staged


class EventLoopServer:
    """Serve a :class:`RequestEngine` from one selectors IO thread.

    The only socket server.  Thread-per-connection serving spends most
    of each request's budget on thread hand-offs, buffered-IO layers
    and GIL churn; this server removes that overhead:

    * **one IO thread** owns every socket: it accepts, reads, splits
      lines, and is the *only* writer, so there are no per-request
      thread wake-ups and no locks on the hot path;
    * every select round drains all readable connections and turns
      their single rows and binary-v2 stream frames into row blocks
      (``engine.classify``), scored together by ``engine.execute``
      calls of at most ``max_batch`` blocks — the batching window is
      *adaptive*: it is exactly the time the previous round spent
      scoring and writing, so a lone client is never delayed and 16
      concurrent clients coalesce to ~16-row batches automatically;
    * everything else — kernel simulation, explicit batches, admin
      verbs, cold-model loads — is handed to a pool of *workers*
      threads through ``engine.turn``; completed frames come back
      through a queue and a self-pipe wake-up, and the loop writes
      them.  The pool bounds concurrent slow requests, not
      connections: the loop serves every accepted connection.

    *listener* is a bound, listening socket; stopping the server
    closes it along with every accepted connection.
    """

    def __init__(self, engine: RequestEngine, listener: socket.socket,
                 workers: int = 4, max_batch: int = DEFAULT_MAX_BATCH,
                 codecs=DEFAULT_CODECS) -> None:
        self.engine = engine
        self.listener = listener
        self.codecs = tuple(codecs)
        self._codec_counters = CodecCounters(self.codecs)
        self.max_batch = max(1, int(max_batch))
        self._workers = max(1, int(workers))
        self._stopping = threading.Event()
        self._pausing = threading.Event()  # drain: stop accepting
        self._thread: threading.Thread | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._completions: deque = deque()  # (conn, encoded bytes)
        self._lock = threading.Lock()       # completions + counters
        self._requests_served = 0
        self._connections_served = 0
        self._active = 0
        self._fast_rows = 0
        self._fast_batches = 0
        self._largest_fast_batch = 0
        self._slow_requests = 0
        self._stream_frames = 0
        self._stream_rows = 0
        # telemetry handles, resolved once in start() when the engine
        # carries a registry (None otherwise: zero overhead)
        self._obs_queue_wait = None
        self._obs_fast_batch = None
        self._obs_fast_latency = None
        self._obs_loop_lag = None
        self._obs_stream_rows = None
        self._obs_stream_latency = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "EventLoopServer":
        self.listener.setblocking(False)
        obs = self.engine.obs
        if obs is not None:
            self._obs_queue_wait = obs.histogram(
                "repro_loop_queue_wait_us")
            self._obs_loop_lag = obs.gauge("repro_loop_lag_us")
            # every row of a coalesced chunk shares one service time;
            # a chunk may mix connections, codecs and models, so the
            # labels name the framing ("coalesced" single rows,
            # "stream" rows) rather than pretending per-row identity
            self._obs_fast_batch = obs.histogram(
                "repro_loop_fast_batch_rows",
                bounds=BATCH_BUCKET_BOUNDS_ROWS)
            self._obs_fast_latency = obs.histogram(
                "repro_request_latency_us", verb="score",
                codec="coalesced", model="default")
            self._obs_stream_rows = obs.histogram(
                "repro_loop_stream_rows",
                bounds=BATCH_BUCKET_BOUNDS_ROWS)
            self._obs_stream_latency = obs.histogram(
                "repro_request_latency_us", verb="score",
                codec="stream", model="default")
            for name in self.codecs:
                self.engine.hot_metrics(name)
        self._executor = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="repro-slow")
        self._thread = threading.Thread(target=self._run,
                                        name="repro-ioloop", daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread is None:
            return
        self._stopping.set()
        self._wake()
        self._thread.join(timeout)
        self._thread = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        for fd in (self._wake_r, self._wake_w):
            try:
                os.close(fd)
            except OSError:
                pass
        try:
            self.listener.close()
        except OSError:
            pass

    def pause_accept(self) -> None:
        """Stop accepting new connections; live sessions keep serving.

        The transport half of a graceful drain.  The selector belongs
        to the loop thread, so this only raises a flag and wakes the
        loop — the loop unregisters and closes the listener on its
        next round.  One-way for this server instance.
        """
        self._pausing.set()
        self._wake()

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"\0")
        except (OSError, ValueError):
            pass  # pipe full (a wake-up is already pending) or closed

    def stats(self) -> dict:
        with self._lock:
            fast_rows, fast_batches = self._fast_rows, self._fast_batches
            return {
                "transport": "eventloop",
                "requests_served": self._requests_served,
                "connections_served": self._connections_served,
                "active_connections": self._active,
                "fast_rows": fast_rows,
                "fast_batches": fast_batches,
                "mean_fast_batch": (round(fast_rows / fast_batches, 2)
                                    if fast_batches else 0.0),
                "largest_fast_batch": self._largest_fast_batch,
                "slow_requests": self._slow_requests,
                "stream_frames": self._stream_frames,
                "stream_rows": self._stream_rows,
                "max_batch": self.max_batch,
                "codec": self._codec_counters.snapshot(),
            }

    # -- the loop ----------------------------------------------------------

    def _run(self) -> None:
        sel = selectors.DefaultSelector()
        sel.register(self.listener, selectors.EVENT_READ, None)
        sel.register(self._wake_r, selectors.EVENT_READ, None)
        self._conns: set = set()
        accepting = True
        lag_gauge = self._obs_loop_lag
        try:
            while not self._stopping.is_set():
                if accepting and self._pausing.is_set():
                    # graceful drain: retire the listener while every
                    # accepted connection keeps being served
                    accepting = False
                    try:
                        sel.unregister(self.listener)
                    except (KeyError, ValueError):
                        pass
                    try:
                        self.listener.close()
                    except OSError:
                        pass
                blocks: list = []
                events = sel.select(timeout=0.5)
                if self._stopping.is_set():
                    break
                busy_from = (time.perf_counter_ns()
                             if lag_gauge is not None else 0)
                self._dispatch(events, sel, blocks)
                # greedy top-up: whatever arrived while this round was
                # being read joins the same batch — but never wait
                while blocks and len(blocks) < self.max_batch:
                    more = sel.select(timeout=0)
                    if not more:
                        break
                    self._dispatch(more, sel, blocks)
                self._drain_completions(sel)
                for start in range(0, len(blocks), self.max_batch):
                    self._execute(blocks[start:start + self.max_batch],
                                  sel)
                if lag_gauge is not None:
                    # how long the loop was busy (unavailable to new
                    # I/O) this round — the event-loop lag
                    lag_gauge.set(
                        (time.perf_counter_ns() - busy_from) / 1000.0)
        finally:
            for conn in list(self._conns):
                self._close(conn, sel)
            try:
                sel.unregister(self.listener)
            except (KeyError, ValueError):
                pass
            sel.close()

    def _dispatch(self, events, sel, blocks) -> None:
        for key, mask in events:
            if key.fileobj is self.listener:
                self._accept(sel)
            elif key.fileobj == self._wake_r:
                try:
                    os.read(self._wake_r, 4096)
                except OSError:
                    pass
            else:
                conn = key.data
                if mask & selectors.EVENT_WRITE:
                    self._flush(conn, sel)
                if mask & selectors.EVENT_READ and not conn.closed:
                    self._read(conn, sel, blocks)

    def _accept(self, sel) -> None:
        while True:
            try:
                sock, _ = self.listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed under us (stop())
            sock.setblocking(False)
            conn = _Connection(sock, self.codecs)
            self._conns.add(conn)
            sel.register(sock, selectors.EVENT_READ, conn)
            with self._lock:
                self._connections_served += 1
                self._active = len(self._conns)

    def _close(self, conn, sel) -> None:
        if conn.closed:
            return
        conn.closed = True
        self._conns.discard(conn)
        try:
            sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        with self._lock:
            self._active = len(self._conns)
            self._codec_counters.fold(conn.wire)

    def _read(self, conn, sel, blocks) -> None:
        try:
            data = conn.sock.recv(RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not data:
            # half-close (or disconnect): route a final line the
            # client sent without a trailing newline through the
            # normal coalesced/worker machinery, then close once every
            # outstanding answer has been staged and written — a
            # shutdown(SHUT_WR) client still reads all its responses
            tail = conn.wire.eof_tail()
            if tail is not None:
                self._route(conn, tail, sel, blocks)
            conn.eof = True
            # drop read interest: a half-closed socket stays readable
            # forever and would spin the loop; completions wake it via
            # the self-pipe and _flush re-registers write interest
            try:
                sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conn.want_write = False
            self._flush(conn, sel)
            self._maybe_finish(conn, sel)
            return
        conn.wire.push(data)
        while not conn.wire.fatal:
            raw = conn.wire.next_frame()
            if raw is None:
                break
            self._route(conn, raw, sel, blocks)
        # inline answers (decode/validation error frames) don't pass
        # through _execute or the completion queue: flush them now
        self._flush(conn, sel)
        if conn.wire.fatal:
            # unrecoverable framing (a newline-less flood, an oversized
            # or malformed binary frame): answer once, then drop the
            # stream (it cannot be resynchronized)
            farewell = conn.wire.take_pending_error()
            if farewell is not None:
                self._stage(conn, farewell, sel)
            self._flush(conn, sel)
            self._close(conn, sel)

    # -- request routing ---------------------------------------------------

    def _route(self, conn, raw: bytes, sel, blocks) -> None:
        tracer = self.engine.tracer
        sampled = (tracer is not None and tracer.sampling
                   and tracer.sample())
        decode_from = time.perf_counter_ns() if sampled else 0
        request, decode_error = conn.wire.decode(raw)
        if sampled:
            tracer.complete("decode", decode_from,
                            time.perf_counter_ns(),
                            codec=conn.wire.codec.name)
        if decode_error is not None:
            self._stage(conn, conn.wire.encode_response(decode_error), sel)
            return
        if request is None:
            return
        hello = conn.wire.negotiate(request)
        if hello is not None:
            self._stage(conn, hello, sel)
            return
        verdict = self.engine.classify(request, conn.wire, conn)
        if verdict is None:
            conn.pending += 1
            self._submit_slow(conn, request)
        elif type(verdict) is list:
            for frame in verdict:
                self._stage(conn, conn.wire.encode_response(frame), sel)
        else:
            conn.pending += len(verdict)
            blocks.append(verdict)

    def _submit_slow(self, conn, request) -> None:
        with self._lock:
            self._slow_requests += 1
        # capture the codec at submit time: a worker-encoded response
        # must speak the codec its request arrived under, even if the
        # connection re-negotiates while the request is in flight
        codec = conn.wire.codec
        engine = self.engine
        queue_wait = self._obs_queue_wait
        tracer = engine.tracer if queue_wait is not None else None
        sampled = (tracer is not None and tracer.sampling
                   and tracer.sample())
        submitted = (time.perf_counter_ns()
                     if queue_wait is not None else 0)

        def run() -> None:
            if queue_wait is not None:
                started = time.perf_counter_ns()
                queue_wait.record((started - submitted) / 1000.0)
                if sampled:
                    tracer.complete("queue", submitted, started,
                                    codec=codec.name)
            encoded = engine.turn(request, codec, submitted, sampled)
            with self._lock:
                self._completions.append((conn, encoded))
            self._wake()

        self._executor.submit(run)

    def _drain_completions(self, sel) -> None:
        while True:
            with self._lock:
                if not self._completions:
                    return
                conn, encoded = self._completions.popleft()
            conn.pending -= 1
            if not conn.closed:
                self._stage(conn, encoded, sel)
                self._flush(conn, sel)
                self._maybe_finish(conn, sel)

    def _execute(self, chunk, sel) -> None:
        """Score one coalesced chunk of row blocks; stage every answer."""
        latency = self._obs_fast_latency
        tracer = self.engine.tracer if latency is not None else None
        sampled = (tracer is not None and tracer.sampling
                   and tracer.sample())
        opened = time.perf_counter_ns() if latency is not None else 0

        def emit(block, encoded) -> None:
            block.token.pending -= len(block)
            self._stage(block.token, encoded, sel, requests=len(block))

        self.engine.execute(chunk, emit)
        for conn in {block.token for block in chunk}:
            self._flush(conn, sel)
            self._maybe_finish(conn, sel)
        frames = sum(block.stream for block in chunk)
        stream_rows = sum(len(block) for block in chunk if block.stream)
        singles = len(chunk) - frames
        rows = singles + stream_rows
        self._fast_rows += rows
        self._fast_batches += 1
        self._largest_fast_batch = max(self._largest_fast_batch, rows)
        self._stream_frames += frames
        self._stream_rows += stream_rows
        if latency is None:
            return
        done = time.perf_counter_ns()
        elapsed_us = (done - opened) / 1000.0
        # record_many keeps the per-row cost off the loop thread
        if singles:
            self._obs_fast_batch.record(singles)
            latency.record_many(elapsed_us, singles)
        if stream_rows:
            self._obs_stream_rows.record(stream_rows)
            self._obs_stream_latency.record_many(elapsed_us, stream_rows)
        if tracer is not None:
            tracer.observe_slow(elapsed_us, "score",
                                codec="stream" if frames else "coalesced",
                                rows=rows)
            if sampled:
                tracer.complete("batch", opened, done, rows=rows)

    # -- writing -----------------------------------------------------------

    def _stage(self, conn, encoded, sel, requests: int = 1) -> None:
        # loop-thread only (completions are staged by the loop after
        # draining the queue), so the counter needs no lock.  *encoded*
        # is codec bytes; *requests* is how many protocol requests the
        # blob answers (a stream response answers its whole row block)
        if conn.closed:
            return
        conn.wbuf += encoded
        conn.wire.count_out(len(encoded))
        self._requests_served += requests

    def _flush(self, conn, sel) -> None:
        if conn.closed or not conn.wbuf:
            return
        try:
            sent = conn.sock.send(conn.wbuf)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:
            self._close(conn, sel)
            return
        if sent:
            del conn.wbuf[:sent]
        # toggle EVENT_WRITE interest only on actual transitions — the
        # common full-write case costs zero selector calls per row.
        # half-closed (eof) connections are no longer registered for
        # reads, so their transitions use register/unregister instead
        if conn.wbuf and not conn.want_write:
            conn.want_write = True
            try:
                if conn.eof:
                    sel.register(conn.sock, selectors.EVENT_WRITE, conn)
                else:
                    sel.modify(conn.sock,
                               selectors.EVENT_READ
                               | selectors.EVENT_WRITE,
                               conn)
            except (KeyError, ValueError):
                pass  # raced with close
        elif not conn.wbuf and conn.want_write:
            conn.want_write = False
            try:
                if conn.eof:
                    sel.unregister(conn.sock)
                else:
                    sel.modify(conn.sock, selectors.EVENT_READ, conn)
            except (KeyError, ValueError):
                pass
        self._maybe_finish(conn, sel)

    def _maybe_finish(self, conn, sel) -> None:
        """Close a half-closed connection once fully answered."""
        if (conn.eof and not conn.closed and not conn.wbuf
                and conn.pending == 0):
            self._close(conn, sel)
