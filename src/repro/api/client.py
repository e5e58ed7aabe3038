"""Wire client for the persistent scoring daemon.

:class:`ScoringClient` speaks the JSON-lines protocol of
:mod:`repro.api.protocol` over a Unix domain socket or TCP connection
to a :class:`repro.api.daemon.ScoringDaemon`.  Every verb runs one
send/receive loop, the pipelined one (:meth:`~ScoringClient.request`
is a pipeline of one request).  Every request is stamped with a
monotonically increasing ``"id"`` and each response is paired back to
its request by id, so a desynchronized stream surfaces as a loud
:class:`repro.errors.ScoringError` instead of silently mis-pairing
answers.  Typed error frames from the daemon raise
:class:`ScoringError` with the frame's machine-readable ``code``.

A daemon restart mid-session (``ConnectionResetError`` /
``BrokenPipeError`` / EOF before every response arrived) is retried
once on a fresh connection by default (``reconnect_retries``);
requests are idempotent reads, so resending the unanswered ones is
safe, and a daemon that stays down surfaces as one clean
``ScoringError(code="transport")`` — never a raw ``OSError``.  A frame
that cannot be decoded or paired to a request tears the connection
down, and the next call re-dials.  Response frames are bounded by
:data:`repro.api.protocol.MAX_RESPONSE_BYTES`, mirroring the server's
request guard, so a misbehaving server cannot grow the receive buffer
without limit.

**Sharded endpoints** (see :mod:`repro.api.shard`): when the unix
``socket_path`` turns out to be a shard *registry* rather than a
socket, the client picks a shard from it — rotating across
(re)connections — and reconnect-with-retry re-reads the registry, so a
request retried after a shard crash lands on a live shard.  A
``draining`` refusal hands the unanswered requests to a live sibling
the same way.

**Codecs** (see :mod:`repro.api.wire`): with ``codec="binary-v2"``
the client opens every (re)connection with a
``{"cmd": "hello", "codecs": ["binary-v2"]}`` handshake and — when the
server agrees — switches to the length-prefixed binary codec:
default-model rows travel as packed float32 stream frames (a single
:meth:`predict` is a 1-row stream) and predictions come back as packed
ints, with every cold verb, model-routed row and error shape embedded
as JSON frames inside the binary framing.  Servers that predate codecs
(or were started JSON-only) answer the hello with an error or a
``json`` choice and the client simply stays on JSON — requesting the
binary codec is always safe.  Reconnects re-negotiate from scratch and
pending requests are re-encoded in whatever codec the new connection
agreed to.

**Pipelining**: :meth:`request_pipelined` /
:meth:`predict_pipelined` keep up to ``window`` requests in flight on
the one connection, completing them out of order by id — this is what
feeds the daemon's micro-batch coalescing from a single client and is
several times faster than sequential single rows (the ``serve_stream``
workload of ``perfbench`` measures it).  The connection's codec frames
each flush: on ``binary-v2`` the rows of a :meth:`predict_pipelined`
window travel as one packed stream frame, on every other codec each
request is its own frame.  Reconnects, ``draining`` hand-offs and codec
changes happen inside the loop, so a reconnect that lands on another
codec simply finishes the leftover requests in the new one.

Usage::

    with ScoringClient(socket_path="/tmp/repro.sock") as client:
        client.predict({"op": 3072.0, ...})     # feature mapping
        client.predict_kernel("gemm", size=512)  # registry kernel
        client.predict_batch(rows)               # (n, n_features) rows
        client.predict_pipelined(rows)           # n single rows, 1 conn
        client.info()                            # loaded-model summary

Against a fleet daemon (see :mod:`repro.api.fleet`) every scoring verb
accepts ``model="family:feature_set[:dataset_tag]"`` to pick the
serving model per request.  The admin/ops verbs (stats, model
management, drain/health/promote) live on the typed
:class:`repro.api.admin.AdminClient` surface.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import numpy as np

from repro.api.protocol import ERROR_DRAINING, MAX_RESPONSE_BYTES
from repro.api.wire import BINARY_V2_CODEC, CODEC_JSON, CODECS, JSON_CODEC
from repro.errors import ScoringError

#: raised (as ScoringError.code) on response-id mismatches.
ERROR_ID_MISMATCH = "id_mismatch"
#: raised (as ScoringError.code) on transport-level failures.
ERROR_TRANSPORT = "transport"

#: default bound on in-flight pipelined requests per connection.
DEFAULT_PIPELINE_WINDOW = 32

#: first pause before re-dialing an endpoint nothing listened on,
#: seconds; it doubles per attempt up to REDIAL_PAUSE_MAX_S.
REDIAL_PAUSE_S = 0.01
REDIAL_PAUSE_MAX_S = 0.5


def _daemon_error(frame: dict) -> ScoringError:
    """The error a typed daemon error frame stands for."""
    return ScoringError(
        str(frame.get("error", "unspecified daemon error")),
        code=frame.get("code"),
        request_id=frame.get("id"),
    )


def _float_matrix(rows) -> bool:
    """Whether *rows* is a 2-D ndarray whose ``tolist()`` is already a
    list of rows of Python floats (``longdouble`` keeps numpy scalars)."""
    return (isinstance(rows, np.ndarray) and rows.ndim == 2
            and rows.dtype.kind == "f" and rows.dtype.itemsize <= 8)


class ScoringClient:
    """One connection to a scoring daemon; thread-safe request pairing.

    Exactly one endpoint must be given: ``socket_path`` (Unix domain
    socket, or a shard registry written by
    :class:`repro.api.supervisor.ShardSupervisor`) or ``tcp`` (a
    ``(host, port)`` pair).  The connection opens eagerly so a bad
    endpoint fails at construction, not first use.
    ``reconnect_retries`` bounds how many fresh connections one call
    may try after the daemon drops the current one or refuses work
    while draining (0 disables reconnection).
    """

    def __init__(
        self,
        socket_path: str | None = None,
        tcp: tuple | None = None,
        timeout: float = 30.0,
        reconnect_retries: int = 1,
        codec: str = CODEC_JSON,
    ) -> None:
        if (socket_path is None) == (tcp is None):
            raise ScoringError(
                "configure exactly one endpoint: socket_path=PATH or tcp=(host, port)",
                code=ERROR_TRANSPORT,
            )
        if reconnect_retries < 0:
            raise ScoringError(
                f"reconnect_retries must be >= 0, got {reconnect_retries}",
                code=ERROR_TRANSPORT,
            )
        if codec not in CODECS:
            raise ScoringError(
                f"unknown codec {codec!r}; this client speaks {sorted(CODECS)}",
                code=ERROR_TRANSPORT,
            )
        self._codec_pref = codec
        self._codec = JSON_CODEC  # pre-negotiation state
        self._socket_path = socket_path
        self._tcp = tuple(tcp) if tcp is not None else None
        self._timeout = timeout
        self._reconnect_retries = reconnect_retries
        self._lock = threading.Lock()
        self._next_id = 0
        self._closed = False
        self._dead = True  # no live connection yet
        self._rbuf = bytearray()
        # sharded unix endpoints rotate across candidate shards; the
        # start offset spreads independent clients over the fleet
        self._rotation = int.from_bytes(os.urandom(2), "big")
        self._sock = self._connect()

    # -- connection management ---------------------------------------------

    def _candidate_endpoints(self) -> list:
        """Concrete endpoints behind the configured one, in try-order.

        A unix ``socket_path`` that holds a shard registry (see
        :mod:`repro.api.shard`) expands to the shard socket paths; the
        registry is re-read on every (re)connect, so crashed or
        re-sharded deployments are picked up without restarting the
        client.
        """
        if self._socket_path is None:
            return [("tcp", self._tcp)]
        if os.path.isfile(self._socket_path):
            from repro.api.shard import read_registry

            shards = read_registry(self._socket_path)
            if shards:
                return [("unix", shard["path"]) for shard in shards]
        return [("unix", self._socket_path)]

    def _connect(self) -> socket.socket:
        """Open one connection, trying every candidate shard once."""
        candidates = self._candidate_endpoints()
        start = self._rotation
        self._rotation += 1
        last_error: OSError | None = None
        last_endpoint: object = None
        for offset in range(len(candidates)):
            kind, target = candidates[(start + offset) % len(candidates)]
            if kind == "unix":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                endpoint: object = target
            else:
                host, port = target
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                endpoint = (host, int(port))
            sock.settimeout(self._timeout)
            try:
                sock.connect(endpoint)
            except OSError as exc:
                sock.close()
                last_error, last_endpoint = exc, endpoint
                continue
            self._rbuf.clear()
            self._dead = False
            self._sock = sock
            self._codec = JSON_CODEC
            if self._codec_pref != CODEC_JSON:
                try:
                    self._negotiate()
                except OSError as exc:
                    # the daemon dropped us mid-handshake: treat like a
                    # failed connect and move to the next candidate
                    self._teardown_connection()
                    last_error, last_endpoint = exc, endpoint
                    continue
            return sock
        raise ScoringError(
            f"cannot connect to scoring daemon at {last_endpoint!r}: {last_error}",
            code=ERROR_TRANSPORT,
        )

    def _negotiate(self) -> None:
        """The hello handshake: offer the preferred codec, adopt the
        server's choice.

        Always spoken in JSON (the pre-negotiation floor).  A server
        that predates codecs answers a typed error frame, and a server
        configured JSON-only answers ``{"codec": "json"}`` — in both
        cases the client simply keeps speaking JSON, so requesting a
        codec never breaks compatibility.
        """
        req_id = self._next_id
        self._next_id += 1
        hello = {"cmd": "hello", "codecs": [self._codec_pref], "id": req_id}
        self._sock.sendall(JSON_CODEC.encode_request(hello))
        line = self._recv_frame()
        if not line:
            raise ConnectionResetError("connection closed during codec negotiation")
        try:
            response = JSON_CODEC.decode_response(line)
        except ValueError:
            response = None
        if (
            isinstance(response, dict)
            and response.get("ok")
            and response.get("id") == req_id
            and response.get("codec") in CODECS
        ):
            self._codec = CODECS[response["codec"]]

    def _recv_frame(self) -> bytes:
        """One response frame in the active codec; ``b""`` on EOF.

        JSON connections read newline-terminated lines; binary
        connections read a 5-byte header (u32 length + u8 type) and
        return the type byte and the declared payload.  A hand-rolled
        buffer instead of ``makefile().readline()``: the buffered-text
        layer costs real microseconds on the hot single-row path.
        Mirrors the server's request guard: a frame growing past
        :data:`~repro.api.protocol.MAX_RESPONSE_BYTES` tears the
        connection down and raises cleanly.
        """
        buf = self._rbuf
        json_lines = self._codec is JSON_CODEC
        while True:
            if json_lines:
                start, end = 0, buf.find(b"\n") + 1
                if not end and len(buf) > MAX_RESPONSE_BYTES:
                    self._teardown_connection()
                    raise ScoringError(
                        f"daemon streamed more than {MAX_RESPONSE_BYTES} "
                        f"bytes without a newline; closing the "
                        f"desynchronized connection",
                        code=ERROR_TRANSPORT,
                    )
            else:
                start, end = 4, 0
                if len(buf) >= 5:
                    length = int.from_bytes(buf[:4], "little")
                    if length > MAX_RESPONSE_BYTES:
                        self._teardown_connection()
                        raise ScoringError(
                            f"daemon announced a {length}-byte binary "
                            f"frame; the protocol accepts at most "
                            f"{MAX_RESPONSE_BYTES}",
                            code=ERROR_TRANSPORT,
                        )
                    if len(buf) >= 5 + length:
                        end = 5 + length
            if end:
                raw = bytes(buf[start:end])
                del buf[:end]
                return raw
            chunk = self._sock.recv(65536)
            if not chunk:
                return b""
            if json_lines and not buf and chunk.find(b"\n") == len(chunk) - 1:
                return chunk  # one whole line and nothing buffered
            buf += chunk

    def _teardown_connection(self) -> None:
        # leaves the client re-dialable: the next request re-connects
        # lazily (see the _dead check in _pipeline)
        self._dead = True
        try:
            self._sock.close()
        except OSError:
            pass
        self._rbuf.clear()
        self._codec = JSON_CODEC  # a fresh connection re-negotiates

    # -- plumbing ----------------------------------------------------------

    def request(self, payload: dict) -> dict:
        """Send one request and return its decoded success frame.

        A pipeline of one request (window 1), so it shares every rule
        of :meth:`request_pipelined`: reconnects, ``draining``
        hand-offs, id pairing and transport errors.  A typed error
        frame raises :class:`ScoringError` carrying the daemon's
        ``code`` and the frame's id.
        """
        response = self._pipeline([dict(payload)], 1)[0]
        if not response.get("ok"):
            raise _daemon_error(response)
        return response

    def request_pipelined(
        self,
        payloads,
        window: int = DEFAULT_PIPELINE_WINDOW,
    ) -> list:
        """Send many requests with up to *window* in flight at once.

        Responses may complete **out of order** (the daemon's event
        loop answers coalesced rows and worker-pool verbs as they
        finish); each is paired back to its request by id.  Returns
        the decoded response frames in *request* order — typed error
        frames are returned in place, not raised, so one bad request
        mid-pipeline does not discard the others' results
        (:meth:`request` and :meth:`predict_pipelined` layer raising
        semantics on top).

        A dropped connection (reset, broken pipe, EOF before every
        response arrived) is re-dialed (through the shard registry
        when one is configured) up to ``reconnect_retries`` times and
        every request still unanswered is resent — requests are
        idempotent reads, so replaying them is safe.  A re-dial that
        finds nothing listening (every shard restarting) counts as one
        of those attempts, and the next one waits a little longer.  A
        ``draining`` refusal hands every unanswered request to a live
        sibling the same way.  Any other socket error, an undecodable
        frame, an id-less error frame (raised with the daemon's code)
        and a frame that cannot be paired to an in-flight id (raised as
        ``id_mismatch``) tear the connection down.
        """
        return self._pipeline([dict(p) for p in payloads], window)

    def _pipeline(self, frames, window: int, matrix=None) -> list:
        """The client's one send/receive loop.

        *frames* are request dicts this call owns (ids are stamped
        into them here), or ``None`` with *matrix*, an ``(n, cols)``
        f32 array of default-model rows.  The connection's codec
        frames each flush: on ``binary-v2`` a matrix flush travels as
        one packed ``PREDICT_STREAM`` frame built straight from the
        arrays, otherwise every request is its own frame (built from
        the matrix's f32 values only once a connection needs them).  A
        reconnect re-negotiates, and the unanswered requests continue
        in whatever codec it chose.

        Returns one entry per request, in order: the decoded response
        frame, or the bare ``int`` a packed stream frame answered.
        """
        if window < 1:
            raise ScoringError(
                f"window must be >= 1, got {window}", code=ERROR_TRANSPORT
            )
        count = len(matrix) if frames is None else len(frames)
        if not count:
            return []
        with self._lock:
            if self._closed:
                raise ScoringError("client is closed", code=ERROR_TRANSPORT)
            base = self._next_id
            self._next_id += count
            if frames is not None:
                for index, frame in enumerate(frames):
                    frame["id"] = base + index
            results: list = [None] * count
            unsent = list(range(count))  # request indices, oldest first
            in_flight: dict = {}  # req_id -> request index
            codec = wires = None  # wires: each request encoded in codec
            drops = done = 0
            while done < count:
                try:
                    if self._dead:
                        try:
                            self._sock = self._connect()
                        except ScoringError as exc:
                            # nothing listens (a shard may be respawning):
                            # a lost connection, retried after a pause
                            raise ConnectionRefusedError(str(exc)) from None
                    if self._codec is not codec:
                        # encode every request before the first send, so
                        # a payload the codec rejects fails with nothing
                        # in flight; a reconnect may bring another codec
                        codec = self._codec
                        wires = None
                        if matrix is None or codec is not BINARY_V2_CODEC:
                            if frames is None:
                                rows = matrix.tolist()
                                frames = [
                                    {"features": row, "id": base + i}
                                    for i, row in enumerate(rows)
                                ]
                            wires = list(map(codec.encode_request, frames))
                    if unsent and len(in_flight) < window:
                        batch = unsent[: window - len(in_flight)]
                        del unsent[: len(batch)]
                        for index in batch:
                            in_flight[base + index] = index
                        if wires is None:
                            # unsent ascends: one slice unless a reconnect
                            lo, hi = batch[0], batch[-1] + 1
                            if hi - lo == len(batch):
                                ids = np.arange(base + lo, base + hi)
                                block = matrix[lo:hi]
                            else:
                                ids, block = np.add(batch, base), matrix[batch]
                            blob = codec.encode_predict_stream(ids, block)
                        elif len(batch) == 1:
                            blob = wires[batch[0]]
                        else:
                            blob = b"".join(
                                b"".join(wire) if type(wire) is tuple else wire
                                for wire in map(wires.__getitem__, batch)
                            )
                        # a large BATCH is its (head, rows buffer) parts
                        for part in blob if type(blob) is tuple else (blob,):
                            self._sock.sendall(part)
                    raw = self._recv_frame()
                    if not raw:
                        raise ConnectionResetError(
                            "connection closed by the daemon before every "
                            "response arrived"
                        )
                    try:
                        response = self._codec.decode_response(raw)
                    except ValueError as exc:
                        raise ScoringError(
                            f"daemon sent an undecodable frame: {exc}",
                            code=ERROR_TRANSPORT,
                        )
                    if not isinstance(response, dict):
                        raise ScoringError(
                            "daemon sent a non-object frame", code=ERROR_TRANSPORT
                        )
                    stream = response.get("stream")
                    if stream is not None:
                        # one packed frame completes a whole flush of ids
                        pairs = zip(stream[0].tolist(), stream[1].tolist())
                        for rid, prediction in pairs:
                            index = in_flight.pop(rid, None)
                            if index is None:
                                raise ScoringError(
                                    f"stream response id {rid!r} does not match "
                                    f"any in-flight request; stream is "
                                    f"desynchronized",
                                    code=ERROR_ID_MISMATCH,
                                )
                            results[index] = prediction
                            done += 1
                        continue
                    index = in_flight.pop(response.get("id"), None)
                    if index is None:
                        if not response.get("ok") and "id" not in response:
                            # an error frame may legitimately lack an id
                            # (e.g. the server's flood guard could not
                            # decode far enough to find one): surface the
                            # daemon's code, not a spurious id mismatch
                            raise _daemon_error(response)
                        raise ScoringError(
                            f"response id {response.get('id')!r} does not match "
                            f"any in-flight request; stream is desynchronized",
                            code=ERROR_ID_MISMATCH,
                        )
                    if response.get("ok") or response.get("code") != ERROR_DRAINING:
                        results[index] = response
                        done += 1
                        continue
                    # the shard started draining: a hand-off to a live
                    # sibling through the registry, not a request failure
                    in_flight[base + index] = index
                    refused = False
                    lost = ScoringError(
                        "the server kept draining and no live sibling "
                        f"answered within {drops + 1} reconnect attempt(s)",
                        code=ERROR_DRAINING,
                    )
                except (
                    ConnectionResetError,
                    BrokenPipeError,
                    ConnectionRefusedError,
                ) as exc:
                    refused = isinstance(exc, ConnectionRefusedError)
                    lost = ScoringError(
                        f"connection to the daemon was dropped ({exc}) and "
                        f"was not recovered after {drops + 1} attempt(s)",
                        code=ERROR_TRANSPORT,
                    )
                except ScoringError:
                    # an undecodable, unpaired or id-less frame leaves the
                    # stream untrusted: tear it down (the next call re-dials)
                    self._teardown_connection()
                    raise
                except OSError as exc:
                    # timeouts and other socket errors may leave responses
                    # queued: the stream cannot be trusted either
                    self._teardown_connection()
                    raise ScoringError(
                        f"transport failure talking to the daemon: {exc}",
                        code=ERROR_TRANSPORT,
                    )
                # the connection dropped or refuses work: the loop top
                # re-dials and resends every unanswered request
                drops += 1
                self._teardown_connection()
                if drops > self._reconnect_retries:
                    raise lost
                if refused:
                    time.sleep(min(REDIAL_PAUSE_MAX_S, REDIAL_PAUSE_S * 2**drops))
                unsent[:0] = sorted(in_flight.values())
                in_flight.clear()
            return results

    @staticmethod
    def _with_model(payload: dict, model: str | None) -> dict:
        if model is not None:
            payload["model"] = str(model)
        return payload

    def _features_payload(self, features, model: str | None = None) -> dict:
        if hasattr(features, "keys"):
            payload = {"features": {k: float(v) for k, v in features.items()}}
        else:
            payload = {"features": list(map(float, features))}
        return self._with_model(payload, model)

    # -- scoring verbs -----------------------------------------------------

    def predict(self, features, model: str | None = None) -> int:
        """Score one feature mapping or feature vector (a 1-row
        :meth:`predict_pipelined`)."""
        return self.predict_pipelined([features], model)[0]

    def predict_pipelined(
        self,
        rows,
        model: str | None = None,
        window: int = DEFAULT_PIPELINE_WINDOW,
    ) -> list:
        """Score many single rows with up to *window* in flight.

        The single-connection streaming workhorse: unlike
        :meth:`predict_batch` (one big request) the rows travel as
        individual protocol requests, so the daemon's event loop
        coalesces them adaptively alongside other clients' traffic —
        and unlike looping :meth:`predict` the connection is never
        idle waiting for a round trip.  Returns predictions in row
        order; the first typed error frame (in row order) raises
        :class:`ScoringError` with the daemon's code.

        On a negotiated ``binary-v2`` connection, default-model vector
        rows skip per-request dicts entirely: each flush of the
        in-flight window is one packed multi-row ``PREDICT_STREAM``
        frame built straight from ``(req_id, f32 row)`` arrays, and
        packed ``PREDICTIONS_STREAM`` responses are paired back by id —
        a handful of syscalls per window instead of one per row.  A
        reconnect that lands on another codec finishes the leftover
        rows as per-request frames carrying the same f32 values.
        """
        # a 2-D ndarray is already the matrix: it is never iterated
        ndarray = isinstance(rows, np.ndarray) and rows.ndim == 2
        if not ndarray:
            rows = list(rows)
        matrix = None
        if (
            model is None
            and self._codec is BINARY_V2_CODEC
            and (ndarray or not any(hasattr(row, "keys") for row in rows))
        ):
            try:
                matrix = np.ascontiguousarray(rows, dtype="<f4")
            except (TypeError, ValueError):
                pass
            if matrix is not None and matrix.ndim != 2:
                matrix = None
        payloads = None
        if matrix is None:
            payloads = [self._features_payload(row, model) for row in rows]
        results = self._pipeline(payloads, window, matrix)
        for index, frame in enumerate(results):
            if type(frame) is dict:
                if not frame.get("ok"):
                    raise _daemon_error(frame)
                results[index] = int(frame["prediction"])
        return results

    def predict_kernel(
        self,
        name: str,
        dtype: str = "int32",
        size: int = 2048,
        model: str | None = None,
    ) -> int:
        """Score a registry kernel built server-side."""
        payload = {"kernel": name, "dtype": dtype, "size": size}
        response = self.request(self._with_model(payload, model))
        return int(response["prediction"])

    def predict_batch(self, rows, model: str | None = None) -> list:
        """Score many pre-assembled feature vectors in one round trip.

        On a negotiated binary connection an ndarray travels as one
        contiguous float32 matrix — no per-row Python lists are built
        on either side of the wire, and a large one is sent from the
        array's own buffer.  Returns the predictions as a list of ints
        under every codec.
        """
        if model is None and hasattr(rows, "ndim") and self._codec.name != CODEC_JSON:
            payload: dict = {"rows": rows}
        elif _float_matrix(rows):
            # tolist() already yields the Python floats float() would
            payload = self._with_model({"rows": rows.tolist()}, model)
        else:
            if hasattr(rows, "tolist"):
                rows = rows.tolist()
            encoded = [[float(v) for v in row] for row in rows]
            payload = self._with_model({"rows": encoded}, model)
        return self.request(payload)["predictions"]

    def info(self, model: str | None = None) -> dict:
        """The daemon's loaded-model summary (family, features, versions)."""
        payload = self._with_model({"cmd": "info"}, model)
        return dict(self.request(payload)["info"])

    # -- lifecycle ---------------------------------------------------------

    @property
    def codec(self) -> str:
        """The codec the current connection negotiated."""
        return self._codec.name

    def disconnect(self) -> None:
        """Drop the current connection; the next request re-dials.

        Drain orchestration uses this: a server that acknowledged a
        ``drain`` waits for its connections to empty before stopping,
        so the admin connection must let go promptly instead of
        pinning the drain open until its grace deadline.
        """
        with self._lock:
            if not self._closed:
                self._teardown_connection()

    def close(self) -> None:
        """Close the connection; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._teardown_connection()

    def __enter__(self) -> "ScoringClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
