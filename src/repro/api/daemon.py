"""Persistent scoring daemon: the one socket server.

:class:`ScoringDaemon` keeps one fitted :class:`repro.api.Classifier`
(or a whole :class:`repro.api.fleet.ModelFleet`) resident and serves
the protocol of :mod:`repro.api.protocol` to many concurrent clients
over a Unix domain socket or a TCP endpoint, where ``repro serve`` on
stdin/stdout pays the model load per process and serves one client.
It owns the sockets and threads — bind (with stale-socket reclaim),
the selectors event loop, graceful drain and stop — and never
interprets a request itself: a
:class:`~repro.api.transport.RequestEngine` does.  A single classifier
is served as a one-model fleet, so stdio, classifier daemons and fleet
daemons emit byte-identical frames for the same requests::

    with ScoringDaemon(classifier, socket_path="/tmp/repro.sock"):
        ...  # clients connect via repro.api.client.ScoringClient

or ``repro serve --socket /tmp/repro.sock --workers 8``.  With
``fleet=``, requests are routed by their ``"model"`` field, and those
without one hit the pinned default model.  For N-process serving of
one unix endpoint see :class:`repro.api.supervisor.ShardSupervisor`.
"""

from __future__ import annotations

import os
import selectors
import signal
import socket
import stat
import threading
import time
from collections import deque
from contextlib import suppress
from concurrent.futures import ThreadPoolExecutor

from repro.api.classifier import Classifier
from repro.api.fleet import ModelFleet
from repro.api.transport import RequestEngine
from repro.api.wire import (
    CLOSE,
    CLOSED,
    DEFAULT_CODECS,
    OPEN,
    READ,
    SHUT,
    WRITE,
    WireSession,
)
from repro.errors import DaemonError
from repro.obs import BATCH_BUCKET_BOUNDS_ROWS

__all__ = [
    "DRAIN_GRACE",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_WORKERS",
    "ScoringDaemon",
    "parse_tcp_endpoint",
    "server_stats",
]

#: upper bound on how long a drain waits for connections to empty
#: before force-stopping the daemon anyway, seconds.
DRAIN_GRACE = 30.0

#: seconds :meth:`ScoringDaemon.stop` waits for the event loop to exit.
STOP_TIMEOUT = 10.0

#: default size of the slow-request worker pool.
DEFAULT_WORKERS = 16

#: default bound on the single-row requests the event loop coalesces
#: into one ``predict_batch`` call.
DEFAULT_MAX_BATCH = 64

#: pending-connection queue length passed to ``listen``.
BACKLOG = 128

#: seconds a connection lingers after a fatal framing error: its write
#: side shut, it discards what the peer still sends before closing (a
#: close with received bytes unread answers with RST, which discards
#: the answers still on their way to the peer).
LINGER_S = 2.0


def _total(series, name: str, field: str = "value", **labels) -> int:
    """*field* summed over the rows of *name* that carry *labels*."""
    return int(
        sum(
            row.get(field, 0)
            for row in series
            if row.get("name") == name and labels.items() <= row["labels"].items()
        )
    )


def _by_codec(series, name: str, **labels) -> dict:
    """The values of *name* (with *labels*) keyed by their codec label."""
    return {
        row["labels"]["codec"]: int(row["value"])
        for row in series
        if row.get("name") == name and labels.items() <= row["labels"].items()
    }


def server_stats(series) -> dict:
    """The counters of the ``stats`` verb's ``server`` section, read from
    registry series: one daemon's snapshot, or a fleet's
    :func:`repro.obs.merge_series`.

    Each connection counts once in ``repro_loop_connections_total``
    when accepted and once in ``repro_codec_connections_total`` (by the
    codec it ended on) when closed, so the live ones are the
    difference.  ``slow_requests`` is the count of worker-path queue
    waits; ``stream_rows`` and ``fast_rows`` are sums of the coalesced
    row histograms.
    """
    opened = _total(series, "repro_loop_connections_total")
    closed = _by_codec(series, "repro_codec_connections_total")
    stream_rows = _total(series, "repro_loop_stream_rows", "sum")
    fast_rows = stream_rows + _total(series, "repro_loop_fast_batch_rows", "sum")
    fast_batches = _total(series, "repro_loop_fast_batches_total")
    return {
        "requests_served": _total(series, "repro_loop_requests_total"),
        "connections_served": opened,
        "active_connections": opened - sum(closed.values()),
        "fast_rows": fast_rows,
        "fast_batches": fast_batches,
        "mean_fast_batch": (
            round(fast_rows / fast_batches, 2) if fast_batches else 0.0
        ),
        "largest_fast_batch": _total(series, "repro_loop_largest_fast_batch_rows"),
        "slow_requests": _total(series, "repro_loop_queue_wait_us", "count"),
        "stream_frames": _total(series, "repro_loop_stream_frames_total"),
        "stream_rows": stream_rows,
        "codec": {
            "connections": closed,
            "requests": _by_codec(series, "repro_codec_requests_total"),
            "bytes_in": _by_codec(series, "repro_codec_bytes_total", direction="in"),
            "bytes_out": _by_codec(series, "repro_codec_bytes_total", direction="out"),
        },
    }


def _reclaim_stale_unix_socket(path: str) -> None:
    """Unlink *path* if it is a socket nobody is listening on.

    A daemon that died without :meth:`ScoringDaemon.stop` leaves its
    socket file behind; binding over it must work, but silently
    deleting a live daemon's socket (or an unrelated file) must not.
    """
    if not os.path.exists(path):
        return
    if not stat.S_ISSOCK(os.stat(path).st_mode):
        raise DaemonError(
            f"socket path {path!r} exists and is not a socket; refusing "
            f"to overwrite it"
        )
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(0.2)
        probe.connect(path)
    except OSError:
        os.unlink(path)  # stale: no listener behind it
    else:
        raise DaemonError(f"socket path {path!r} already has a live listener")
    finally:
        probe.close()


class ScoringDaemon:
    """Serve one loaded scorer to many clients over a socket.

    Exactly one scorer must be configured (``classifier``, served as a
    one-model fleet, or ``fleet``) and exactly one transport:
    ``socket_path`` (a Unix domain socket) or ``tcp`` (a ``(host,
    port)`` pair; port 0 binds an ephemeral port, readable back from
    :attr:`address`).  ``workers`` sizes the slow-request pool (new
    kernels, explicit batches, admin verbs, cold-model loads); it
    does not bound concurrent connections, which the event loop serves
    all at once.  ``max_batch`` bounds the single-row requests the
    loop coalesces into one ``predict_batch`` call (values below 1
    serve every row on its own).  ``stats_extra`` contributes
    static sections (e.g. shard identity) to the ``{"cmd": "stats"}``
    verb.  ``codecs`` is the ordered tuple of wire codec names the
    daemon offers during hello negotiation (see :mod:`repro.api.wire`);
    the default offers the binary codec and falls back to JSON, and
    ``("json",)`` pins the daemon to JSON-lines only.

    Serving runs on one selectors IO thread, which owns every socket
    and is the *only* writer, so the hot path has no thread wake-ups
    and no locks.  Each round drains all readable connections, scores
    their single rows (memo-hit kernels too) and binary-v2 stream
    frames as row blocks in
    ``engine.execute`` calls of at most ``max_batch`` blocks (the
    batching window is the time the previous round spent, so a lone
    client is never delayed and 16 clients coalesce to ~16-row
    batches), and hands everything else to the worker pool through
    ``engine.turn``; completed frames come back through a queue and a
    self-pipe wake-up.

    Each connection is a socket-free :class:`~repro.api.wire.WireSession`:
    the loop receives into the session's own buffer (``recv_into``) and
    feeds it events (the byte count received, 0 at peer EOF; answer staged;
    bytes sent; the clock for a lingering close) and
    ``_sync`` applies the selector interest or action it wants.  Its
    state is ``open``, then ``draining`` from peer EOF or a fatal
    framing error until every answer is written, then ``closed`` — or,
    after a fatal error, ``lingering``: the write side is shut and
    reads are discarded until the peer closes or :data:`LINGER_S`
    passes, so a peer still sending gets its answers, not an RST.

    Every serving event is counted once, in the fleet pool's
    :class:`~repro.obs.MetricsRegistry` (:attr:`obs`), which outlives
    each ``start()``; :meth:`stats` is a view of it, so the counters
    keep their values after :meth:`stop` and count on across a
    restart.
    """

    def __init__(
        self,
        classifier: Classifier | None = None,
        socket_path: str | None = None,
        tcp: tuple | None = None,
        workers: int = DEFAULT_WORKERS,
        fleet=None,
        stats_extra: dict | None = None,
        codecs: tuple | None = None,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> None:
        if (classifier is None) == (fleet is None):
            raise DaemonError(
                "configure exactly one scorer: classifier=Classifier or "
                "fleet=ModelFleet"
            )
        if (socket_path is None) == (tcp is None):
            raise DaemonError(
                "configure exactly one transport: socket_path=PATH or "
                "tcp=(host, port)"
            )
        if classifier is not None and not classifier.is_fitted:
            raise DaemonError(
                "classifier is not fitted; train or load a model before "
                "serving it"
            )
        if workers < 1:
            raise DaemonError(f"workers must be >= 1, got {workers}")
        self.fleet = fleet if fleet is not None else ModelFleet.single(classifier)
        self.max_batch = max(1, int(max_batch))
        self.socket_path = socket_path
        self.tcp = tuple(tcp) if tcp is not None else None
        self.workers = workers
        self.stats_extra = dict(stats_extra) if stats_extra else {}
        self.codecs = tuple(codecs) if codecs is not None else DEFAULT_CODECS
        self._listener: socket.socket | None = None
        self._engine: RequestEngine | None = None
        self._thread: threading.Thread | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._conns: dict = {}  # WireSession -> socket, loop thread only
        self._lingering: set = set()  # loop thread only
        self._completions: deque = deque()  # (session, encoded bytes)
        self._lock = threading.Lock()  # completions: workers vs the loop
        #: the telemetry registry every serving event is counted in
        self.obs = obs = self.fleet.pool.obs
        self._served = obs.counter("repro_loop_requests_total")
        self._opened = obs.counter("repro_loop_connections_total")
        self._batches = obs.counter("repro_loop_fast_batches_total")
        self._frames = obs.counter("repro_loop_stream_frames_total")
        self._largest_batch = obs.gauge("repro_loop_largest_fast_batch_rows")
        self._queue_wait = obs.histogram("repro_loop_queue_wait_us")
        self._loop_lag = obs.gauge("repro_loop_lag_us")
        # every row of a coalesced chunk shares one service time; a
        # chunk may mix connections, codecs and models, so the labels
        # name the framing ("coalesced" single rows, "stream" rows)
        # rather than pretending per-row identity
        self._fast_batch_rows = obs.histogram(
            "repro_loop_fast_batch_rows", bounds=BATCH_BUCKET_BOUNDS_ROWS
        )
        self._fast_latency = obs.histogram(
            "repro_request_latency_us", verb="score", codec="coalesced", model="default"
        )
        self._stream_rows_hist = obs.histogram(
            "repro_loop_stream_rows", bounds=BATCH_BUCKET_BOUNDS_ROWS
        )
        self._stream_latency = obs.histogram(
            "repro_request_latency_us", verb="score", codec="stream", model="default"
        )
        self._stopping = threading.Event()
        self._stop_lock = threading.Lock()  # drain thread vs owner stop
        self._draining = threading.Event()
        #: set once :meth:`stop` has finished (a drained shard exits on it)
        self.stopped = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    @property
    def engine(self) -> RequestEngine | None:
        """The dispatch engine while running (``None`` when stopped)."""
        return self._engine

    @property
    def address(self) -> tuple:
        """The bound endpoint: ``("unix", path)`` or ``("tcp", host, port)``.

        For TCP the port is the *actual* bound port, so requesting port
        0 and reading the address back yields a usable endpoint.
        """
        if self.socket_path is not None:
            return ("unix", self.socket_path)
        if self._listener is not None:
            host, port = self._listener.getsockname()[:2]
            return ("tcp", host, port)
        return ("tcp",) + self.tcp

    def _bind(self) -> socket.socket:
        if self.socket_path is not None:
            _reclaim_stale_unix_socket(self.socket_path)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                listener.bind(self.socket_path)
            except OSError as exc:
                listener.close()
                raise DaemonError(
                    f"cannot bind unix socket {self.socket_path!r}: {exc}"
                )
            return listener
        host, port = self.tcp
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((host, int(port)))
        except OSError as exc:
            listener.close()
            raise DaemonError(f"cannot bind tcp {host}:{port}: {exc}")
        return listener

    def start(self) -> "ScoringDaemon":
        """Bind the socket and start the event loop and the worker pool."""
        with self._stop_lock:
            if self._listener is not None:
                raise DaemonError("daemon is already started")
            listener = self._bind()
            listener.listen(BACKLOG)
            listener.setblocking(False)
            self._stopping.clear()
            self.stopped.clear()
            self._draining.clear()
            engine = RequestEngine(self.fleet)
            engine.drain_hook = self.request_drain
            for name, payload in self.stats_extra.items():
                engine.add_stats_source(name, lambda p=payload: dict(p))
            engine.add_stats_source("server", self.stats)
            self._wake_r, self._wake_w = os.pipe()
            os.set_blocking(self._wake_r, False)
            os.set_blocking(self._wake_w, False)
            self._listener = listener
            self._engine = engine
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-slow"
            )
            self._thread = threading.Thread(
                target=self._run, name="repro-ioloop", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving, close live connections, drain workers.

        Idempotent, and safe to race: a background drain finishing
        while the owner tears the daemon down must not trip over a
        half-stopped loop.
        """
        with self._stop_lock:
            if self._listener is None:
                return
            self._stopping.set()
            self._wake()
            self._thread.join(STOP_TIMEOUT)  # the loop closes every connection
            self._thread = None
            self._executor.shutdown(wait=True)
            self._executor = None
            for fd in (self._wake_r, self._wake_w):
                with suppress(OSError):
                    os.close(fd)
            with suppress(OSError):
                self._listener.close()
            self._listener = None
            # write any sampled trace spans out now, while the serving
            # threads are already quiesced
            self._engine.close_observability()
            self._engine = None
            if self.socket_path is not None:
                with suppress(OSError):
                    os.unlink(self.socket_path)
            self.stopped.set()

    def _wake(self) -> None:
        # a full pipe means a wake-up is already pending
        with suppress(OSError, ValueError):
            os.write(self._wake_w, b"\0")

    # -- graceful drain ----------------------------------------------------

    def request_drain(self) -> bool:
        """Begin a graceful drain in the background; returns immediately.

        The drain sequence: mark the engine draining (new scoring
        requests answer typed ``draining`` frames on every path,
        control verbs keep working), stop accepting connections (the
        loop closes the listener on its next round; established
        sessions keep serving), wait up to ``DRAIN_GRACE`` seconds for the
        active-connection count to reach zero, then :meth:`stop`
        (setting :attr:`stopped`).  In-flight requests therefore always
        complete: the daemon only ever refuses *new* work.  Returns
        ``False`` when the daemon is not running or a drain is already
        under way — the wire verb ``{"cmd": "drain"}`` lands here
        through the engine's drain hook.
        """
        if self._listener is None:
            return False
        if self._draining.is_set():
            return False
        self._draining.set()
        engine = self._engine
        if engine is not None:
            engine.draining = True
        self._wake()
        threading.Thread(target=self._do_drain, name="repro-drain", daemon=True).start()
        return True

    def _do_drain(self) -> None:
        deadline = time.monotonic() + DRAIN_GRACE
        # the loop thread owns _conns; its truth value is safe to read
        while self._conns and time.monotonic() < deadline:
            time.sleep(0.05)
        self.stop()

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`stop` is called.

        From the main thread: SIGINT or SIGTERM triggers a clean
        :meth:`stop` (see :func:`stop_on_signals`).
        """
        if self._listener is None:
            self.start()
        wait_for_stop(stop_on_signals(), self.stopped)
        self.stop()

    def __enter__(self) -> "ScoringDaemon":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """The ``server`` section of the ``{"cmd": "stats"}`` verb.

        A view of :attr:`obs` (see :func:`server_stats` for the series
        each field is read from) plus the configuration fields
        ``transport``, ``max_batch`` and the offered codecs.  The
        counters are lifetime totals: they keep their values after
        :meth:`stop` and count on across a restart.
        """
        counters = server_stats(self.obs.snapshot()["series"])
        codec = counters.pop("codec")
        return {
            "transport": "eventloop",
            **counters,
            "max_batch": self.max_batch,
            "codec": {"offered": list(self.codecs), **codec},
        }

    # -- the loop ----------------------------------------------------------

    def _run(self) -> None:
        listener = self._listener
        sel = selectors.DefaultSelector()
        sel.register(listener, READ, None)
        sel.register(self._wake_r, READ, None)
        accepting = True
        lag = self._loop_lag
        try:
            while not self._stopping.is_set():
                if accepting and self._draining.is_set():
                    # graceful drain: retire the listener while every
                    # accepted connection keeps being served
                    accepting = False
                    sel.unregister(listener)
                    with suppress(OSError):
                        listener.close()
                blocks: list = []
                events = sel.select(timeout=0.5)
                if self._stopping.is_set():
                    break
                busy_from = time.perf_counter_ns()
                self._dispatch(events, sel, blocks)
                # greedy top-up: whatever arrived while this round was
                # being read joins the same batch — but never wait, and
                # only after a select that found several keys ready: a
                # lone sequential peer sends again only once answered
                while len(events) > 1 and blocks and len(blocks) < self.max_batch:
                    more = sel.select(timeout=0)
                    if not more:
                        break
                    self._dispatch(more, sel, blocks)
                if self._completions:  # workers append, then wake us
                    self._drain_completions(sel)
                for start in range(0, len(blocks), self.max_batch):
                    self._execute(blocks[start : start + self.max_batch], sel)
                if self._lingering:
                    now = time.monotonic()
                    for conn in list(self._lingering):
                        conn.tick(now)
                        self._sync(conn, sel)
                # how long the loop was busy (unavailable to new I/O)
                # this round — the event-loop lag
                lag.set((time.perf_counter_ns() - busy_from) / 1000.0)
        finally:
            for conn in list(self._conns):
                self._close(conn, sel)
            sel.close()

    def _dispatch(self, events, sel, blocks) -> None:
        for key, mask in events:
            conn = key.data  # None for the listener and the wake-up pipe
            if conn is not None:
                if mask & WRITE:
                    self._sync(conn, sel)
                if mask & READ and conn.state is not CLOSED:
                    self._read(conn, sel, blocks)
            elif key.fileobj is self._listener:
                self._accept(sel)
            else:
                with suppress(OSError):
                    os.read(self._wake_r, 4096)

    def _accept(self, sel) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # none pending, or the listener closed under us
            sock.setblocking(False)
            conn = WireSession(self.codecs)
            self._conns[conn] = sock
            sel.register(sock, READ, conn)
            self._opened.inc()

    def _close(self, conn, sel) -> None:
        sock = self._conns.pop(conn, None)
        if sock is None:
            return
        conn.close()
        self._lingering.discard(conn)
        if conn.interest:
            sel.unregister(sock)
        with suppress(OSError):
            sock.close()
        # fold the session's per-codec traffic; a connection counts
        # under the codec it ended on
        obs = self.obs
        obs.counter("repro_codec_connections_total", codec=conn.codec.name).inc()
        for name, n in conn.requests.items():
            obs.counter("repro_codec_requests_total", codec=name).inc(n)
        for direction, counts in (("in", conn.bytes_in), ("out", conn.bytes_out)):
            for name, n in counts.items():
                obs.counter(
                    "repro_codec_bytes_total", codec=name, direction=direction
                ).inc(n)

    def _read(self, conn, sel, blocks) -> None:
        try:
            n = self._conns[conn].recv_into(conn.buffer())
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            n = 0
        fatal = conn.fatal
        for raw in conn.received(n):
            self._route(conn, raw, blocks)
        if conn.fatal and not fatal:
            self._served.inc()  # the farewell answers the bad frame
        # an open session with nothing staged wants the READ it has
        if conn.out or conn.state is not OPEN:
            self._sync(conn, sel)

    # -- request routing ---------------------------------------------------

    def _route(self, conn, raw: bytes, blocks) -> None:
        engine = self._engine
        tracer = engine.tracer
        sampled = tracer.sampling and tracer.sample()
        decode_from = time.perf_counter_ns() if sampled else 0
        request, decode_error = conn.decode(raw)
        if sampled:
            tracer.complete(
                "decode",
                decode_from,
                time.perf_counter_ns(),
                codec=conn.codec.name,
            )
        if decode_error is not None:
            self._stage(conn, conn.encode_response(decode_error))
            return
        if request is None:
            return
        verdict = engine.classify(request, conn, conn)
        if verdict is None:
            # a hello (a verb, never a row) is answered here, in order
            hello = conn.negotiate(request)
            if hello is not None:
                self._stage(conn, hello)
                return
            conn.defer()
            self._submit_slow(conn, request)
        elif type(verdict) is list:
            for frame in verdict:
                self._stage(conn, conn.encode_response(frame))
        else:
            conn.defer(len(verdict))
            blocks.append(verdict)

    def _submit_slow(self, conn, request) -> None:
        # capture the codec at submit time: a worker-encoded response
        # must speak the codec its request arrived under, even if the
        # connection re-negotiates while the request is in flight
        codec = conn.codec
        engine = self._engine
        queue_wait = self._queue_wait
        tracer = engine.tracer
        sampled = tracer.sampling and tracer.sample()
        submitted = time.perf_counter_ns()

        def run() -> None:
            started = time.perf_counter_ns()
            queue_wait.record((started - submitted) / 1000.0)
            if sampled:
                tracer.complete("queue", submitted, started, codec=codec.name)
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
            self._stage(conn, encoded, settles=1)
            self._sync(conn, sel)

    def _execute(self, chunk, sel) -> None:
        """Score one coalesced chunk of row blocks; stage every answer."""
        engine = self._engine
        tracer = engine.tracer
        sampled = tracer.sampling and tracer.sample()
        opened = time.perf_counter_ns()
        # tallied as the blocks are answered: the rows served (a closed
        # session drops its answer) and the stream frames and rows
        served = frames = stream_rows = 0

        def emit(block, encoded) -> None:
            nonlocal served, frames, stream_rows
            n = len(block.ids)
            if block.stream:
                frames += 1
                stream_rows += n
            if block.token.stage(encoded, n):
                served += n

        engine.execute(chunk, emit)
        tokens = {b.token for b in chunk} if len(chunk) > 1 else (chunk[0].token,)
        for conn in tokens:
            self._sync(conn, sel)
        done = time.perf_counter_ns()
        singles = len(chunk) - frames
        rows = singles + stream_rows
        self._served.inc(served)
        self._batches.inc()
        if frames:
            self._frames.inc(frames)
        self._largest_batch.set_max(rows)
        elapsed_us = (done - opened) / 1000.0
        # record_many keeps the per-row cost off the loop thread
        if singles:
            self._fast_batch_rows.record(singles)
            self._fast_latency.record_many(elapsed_us, singles)
        if stream_rows:
            self._stream_rows_hist.record(stream_rows)
            self._stream_latency.record_many(elapsed_us, stream_rows)
        slow_us = tracer.slow_request_us  # checked inline: no call when fast
        if slow_us and elapsed_us >= slow_us:
            codec = "stream" if frames else "coalesced"
            tracer.observe_slow(elapsed_us, "score", codec=codec, rows=rows)
        if sampled:
            tracer.complete("batch", opened, done, rows=rows)

    # -- writing -----------------------------------------------------------

    def _stage(self, conn, encoded, settles: int = 0) -> None:
        # *encoded* answers one request, deferred if *settles*
        if conn.stage(encoded, settles):
            self._served.inc()

    def _sync(self, conn, sel) -> None:
        """Send what *conn* has staged, then apply what it wants (a full
        write leaves the interest as it is: no selector call)."""
        sock = self._conns.get(conn)
        if sock is None:
            return  # already closed
        if conn.out:
            try:
                sent = sock.send(conn.out)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:
                self._close(conn, sel)
                return
            conn.sent(sent)
        want = conn.wants
        if want == conn.interest:
            return
        if want == SHUT:
            # lingering close: the peer may still be sending, and a
            # close with its bytes unread would answer with RST
            try:
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                want = CLOSE
            else:
                conn.linger(time.monotonic() + LINGER_S)
                self._lingering.add(conn)
                want = READ
        if want == CLOSE:
            self._close(conn, sel)
            return
        if not conn.interest:
            sel.register(sock, want, conn)
        elif want:
            sel.modify(sock, want, conn)
        else:
            sel.unregister(sock)
        conn.interest = want


def parse_tcp_endpoint(endpoint: str) -> tuple:
    """Parse ``HOST:PORT`` (the ``repro serve --tcp`` argument)."""
    host, sep, port = endpoint.rpartition(":")
    if not sep or not host:
        raise DaemonError(f"endpoint must look like HOST:PORT, got {endpoint!r}")
    try:
        return host, int(port)
    except ValueError:
        raise DaemonError(f"tcp port must be an integer, got {port!r}")


def stop_on_signals() -> threading.Event:
    """A new flag SIGINT and SIGTERM set, over inherited handlers (main
    thread only): a server started with SIGINT ignored still stops, and
    SIGTERM reaches its clean shutdown.  Wait with :func:`wait_for_stop`."""
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    return stop


def wait_for_stop(*flags: threading.Event) -> None:
    """Sleep until one of *flags* is set, polling: a signal handler
    setting one takes its lock, which a blocking wait could hold."""
    while not any(flag.is_set() for flag in flags):
        time.sleep(0.2)
