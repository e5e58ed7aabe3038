"""Persistent scoring daemon: the JSON-lines protocol over a socket.

``repro serve`` on stdin/stdout pays the model-load cost on every
process start and serves exactly one client.  :class:`ScoringDaemon`
keeps one fitted :class:`repro.api.Classifier` (or a whole
:class:`repro.api.fleet.ModelFleet`) resident and serves the same
protocol (see :mod:`repro.api.protocol`) to many concurrent clients
over a Unix domain socket or a TCP endpoint.

The daemon owns the **endpoint lifecycle** only — binding, stale-socket
reclaim, address reporting, unlinking on shutdown.  Actual serving is
delegated to the unified transport core (:mod:`repro.api.transport`):
a :class:`~repro.api.transport.RequestEngine` dispatches every request
behind the selectors event loop with adaptive micro-batch coalescing
(:class:`~repro.api.transport.EventLoopServer`).  A single classifier
is served as a one-model fleet, so stdio, classifier daemons and fleet
daemons emit byte-identical frames for the same requests.

Typical embedding::

    daemon = ScoringDaemon(classifier, socket_path="/tmp/repro.sock")
    with daemon:
        ...  # clients connect via repro.api.client.ScoringClient

or from the shell: ``repro serve --socket /tmp/repro.sock --workers 8``.

A fleet serves many resident models routed by the request's
``"model"`` field::

    daemon = ScoringDaemon(fleet=fleet, socket_path="/tmp/repro.sock")

Requests without a ``"model"`` field hit the fleet's pinned default
model, so pre-fleet clients see identical behaviour.  For N-process
serving of one unix endpoint see
:class:`repro.api.supervisor.ShardSupervisor`.
"""

from __future__ import annotations

import os
import socket
import stat
import threading
import time

from repro.api.classifier import Classifier
from repro.api.fleet import ModelFleet
from repro.api.transport import (
    DEFAULT_MAX_BATCH,
    DEFAULT_WORKERS,
    EventLoopServer,
    RequestEngine,
)
from repro.api.wire import DEFAULT_CODECS
from repro.errors import DaemonError

__all__ = [
    "DEFAULT_DRAIN_GRACE",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_WORKERS",
    "ScoringDaemon",
    "parse_tcp_endpoint",
]

#: default upper bound on how long a drain waits for connections to
#: empty before force-stopping the transport anyway.
DEFAULT_DRAIN_GRACE = 30.0


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
    :attr:`address`).  ``workers`` sizes the slow-request pool (kernel
    requests, explicit batches, admin verbs, cold-model loads); it
    does not bound concurrent connections, which the event loop serves
    all at once.  ``max_batch`` bounds the single-row requests the
    loop coalesces into one ``predict_batch`` call (values below 1
    serve every row on its own).  ``stats_extra`` contributes
    static sections (e.g. shard identity) to the ``{"cmd": "stats"}``
    verb.  ``codecs`` is the ordered tuple of wire codec names the
    daemon offers during hello negotiation (see :mod:`repro.api.wire`);
    the default offers the binary codec and falls back to JSON, and
    ``("json",)`` pins the daemon to JSON-lines only.
    """

    def __init__(
        self,
        classifier: Classifier | None = None,
        socket_path: str | None = None,
        tcp: tuple | None = None,
        workers: int = DEFAULT_WORKERS,
        backlog: int = 128,
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
        self.max_batch = max_batch
        self.socket_path = socket_path
        self.tcp = tuple(tcp) if tcp is not None else None
        self.workers = workers
        self.backlog = backlog
        self.stats_extra = dict(stats_extra) if stats_extra else {}
        self.codecs = tuple(codecs) if codecs is not None else DEFAULT_CODECS
        # REPRO_METRICS=0 is the fleet-wide telemetry kill switch
        self.metrics = os.environ.get("REPRO_METRICS", "1") not in ("0", "false", "off")
        self._listener: socket.socket | None = None
        self._engine: RequestEngine | None = None
        self._server: EventLoopServer | None = None
        self._last_server_stats: dict | None = None
        self._stopping = threading.Event()
        self._stop_lock = threading.Lock()  # drain thread vs owner stop
        self._stopped = threading.Event()
        self._draining = threading.Event()
        self._drain_thread: threading.Thread | None = None
        #: called (no arguments) once a drain has fully stopped the
        #: daemon — shard processes hook their shutdown flag here so a
        #: drained shard exits instead of idling (see
        #: :func:`repro.api.shard._shard_main`)
        self.on_drained = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def is_running(self) -> bool:
        return self._listener is not None and not self._stopping.is_set()

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
        """Bind the socket and start accepting connections."""
        with self._stop_lock:
            if self._listener is not None:
                raise DaemonError("daemon is already started")
            listener = self._bind()
            listener.listen(self.backlog)
            self._stopping.clear()
            self._stopped.clear()
            self._draining.clear()
            self._listener = listener
            self._engine = RequestEngine(
                self.fleet, metrics=(None if self.metrics else False)
            )
            self._engine.drain_hook = self.request_drain
            for name, payload in self.stats_extra.items():
                self._engine.add_stats_source(name, lambda p=payload: dict(p))
            self.fleet.pool.bind_metrics(self._engine.obs)
            server = EventLoopServer(
                self._engine,
                listener,
                workers=self.workers,
                max_batch=self.max_batch,
                codecs=self.codecs,
            )
            self._engine.add_stats_source("server", server.stats)
            self._server = server.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop serving, close live connections, drain workers.

        Idempotent, and safe to race: a background drain finishing
        while the owner tears the daemon down must not trip over a
        half-cleared server.
        """
        with self._stop_lock:
            if self._listener is None:
                return
            self._stopping.set()
            if self._server is not None:
                self._server.stop(timeout)  # closes the listener too
                self._last_server_stats = self._server.stats()
                self._server = None
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
            if self._engine is not None:
                # write any sampled trace spans out now, while the
                # serving threads are already quiesced
                self._engine.close_observability()
            self._engine = None
            if self.socket_path is not None:
                try:
                    os.unlink(self.socket_path)
                except OSError:
                    pass
            self._stopped.set()

    # -- graceful drain ----------------------------------------------------

    def request_drain(self, grace: float = DEFAULT_DRAIN_GRACE) -> bool:
        """Begin a graceful drain in the background; returns immediately.

        The drain sequence: mark the engine draining (new scoring
        requests answer typed ``draining`` frames on every path,
        control verbs keep working), stop accepting connections
        (``pause_accept`` — established sessions keep serving), wait
        up to *grace* seconds for the active-connection count to reach
        zero, then :meth:`stop` and fire :attr:`on_drained`.  In-flight
        requests therefore always complete: the transports only ever
        refuse *new* work.  Returns ``False`` when the daemon is not
        running or a drain is already under way — the wire verb
        ``{"cmd": "drain"}`` lands here through the engine's drain
        hook.
        """
        if self._listener is None:
            return False
        if self._draining.is_set():
            return False
        self._draining.set()
        engine = self._engine
        if engine is not None:
            engine.draining = True
        thread = threading.Thread(
            target=self._do_drain, args=(float(grace),),
            name="repro-drain", daemon=True,
        )
        self._drain_thread = thread
        thread.start()
        return True

    def _do_drain(self, grace: float) -> None:
        server = self._server
        if server is not None:
            server.pause_accept()
            deadline = time.monotonic() + grace
            while time.monotonic() < deadline:
                try:
                    if server.stats()["active_connections"] == 0:
                        break
                except (KeyError, RuntimeError):
                    break
                time.sleep(0.05)
        self.stop()
        hook = self.on_drained
        if hook is not None:
            hook()

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`stop` is called.

        A ``KeyboardInterrupt`` triggers a clean :meth:`stop`, so
        Ctrl-C on ``repro serve --socket`` shuts down gracefully.
        """
        if self._listener is None:
            self.start()
        try:
            self._stopped.wait()
        except KeyboardInterrupt:
            self.stop()

    def __enter__(self) -> "ScoringDaemon":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Lifetime counters (requests, connections, live connections),
        the event loop's own counters (``loop``) and the fleet's."""
        if self._server is not None:
            server_stats = self._server.stats()
        else:
            server_stats = self._last_server_stats
        stats = {
            "requests_served": 0,
            "connections_served": 0,
            "active_connections": 0,
            "workers": self.workers,
        }
        if server_stats is not None:
            for key in ("requests_served", "connections_served", "active_connections"):
                stats[key] = server_stats[key]
            stats["codec"] = server_stats["codec"]
            stats["loop"] = server_stats
        stats["fleet"] = self.fleet.stats()
        return stats


def parse_tcp_endpoint(endpoint: str) -> tuple:
    """Parse ``HOST:PORT`` (the ``repro serve --tcp`` argument)."""
    host, sep, port = endpoint.rpartition(":")
    if not sep or not host:
        raise DaemonError(f"endpoint must look like HOST:PORT, got {endpoint!r}")
    try:
        return host, int(port)
    except ValueError:
        raise DaemonError(f"tcp port must be an integer, got {port!r}")
