"""Process-level sharding: N daemon processes behind one endpoint.

One daemon process tops out at one core's worth of scoring (the GIL
serializes everything but the numpy kernels).  The low-voltage
parallel-systems literature the paper builds on makes the scaling
argument explicit: aggregate throughput comes from *parallel
replication of slower units*.  :class:`ShardManager` applies it to the
serving stack — ``repro serve --shards N`` runs N full scoring daemons
(one per process, each with its own model pool and event loop) that
together serve a single logical endpoint:

* **TCP** — every shard binds the same ``(host, port)`` with
  ``SO_REUSEPORT``; the kernel load-balances incoming connections
  across the shard listeners.  Clients connect to the one port and
  need no changes at all.
* **Unix sockets** — shard *i* binds ``<path>.<i>`` and the manager
  writes a **shard registry** (a small JSON file with shard socket
  paths and PIDs) at ``<path>`` itself.
  :class:`repro.api.client.ScoringClient` recognizes the registry,
  picks a shard (rotating across connections), and — because its
  reconnect logic re-reads the registry — a request retried after a
  shard crash lands on a live shard.

Shard processes are forked **before** any serving threads exist, so
each child starts clean; the scorer is built inside the child by a
picklable *factory* callable (see :func:`classifier_factory` /
:func:`fleet_factory`), which also keeps spawn-based platforms
working.  Each shard daemon carries a ``shard`` stats section
(``{"index": i, "pid": ...}``) so the ``{"cmd": "stats"}`` verb
reports per-shard request counts.

Clean fan-out shutdown: :meth:`ShardManager.stop` signals every child
(SIGTERM -> daemon.stop() -> sockets unlinked), joins them, escalates
to SIGKILL for stragglers, and removes the registry.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import stat
import tempfile
import threading
import time

from repro.api.daemon import (
    DEFAULT_MAX_BATCH,
    DEFAULT_WORKERS,
    ScoringDaemon,
    _reclaim_stale_unix_socket,
)
from repro.api.fleet import ModelFleet
from repro.errors import DaemonError
from repro.obs import get_logger

#: registry format marker (bumped on incompatible layout changes).
REGISTRY_VERSION = 1


def shard_socket_path(base: str, index: int) -> str:
    """Where shard *index* of a unix-socket deployment listens."""
    return f"{base}.{index}"


def write_registry(path: str, shards: list, epoch: int = 0) -> None:
    """Atomically write the shard registry file at *path*.

    *epoch* counts registry refreshes (respawns, deregistrations) so
    observers can tell "the fleet changed under me" apart from "I read
    the same snapshot twice" without diffing rows.
    """
    payload = {
        "repro_shards": REGISTRY_VERSION,
        "base": path,
        "epoch": int(epoch),
        "shards": shards,
    }
    directory = os.path.dirname(os.path.abspath(path))
    fd, staging = tempfile.mkstemp(prefix=".shards-", dir=directory)
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        os.replace(staging, path)
    except BaseException:
        try:
            os.unlink(staging)
        except OSError:
            pass
        raise


def read_registry(path: str) -> list | None:
    """The shard rows of the registry at *path*, or ``None``.

    ``None`` means "not a shard registry": the path is missing, is a
    socket, or holds anything but a well-formed registry document —
    callers fall back to treating the path as a plain socket.  Never
    raises on malformed input.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError, UnicodeDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("repro_shards") != REGISTRY_VERSION:
        return None
    shards = payload.get("shards")
    if not isinstance(shards, list) or not shards:
        return None
    rows = [s for s in shards if isinstance(s, dict) and s.get("path")]
    return rows or None


def registry_epoch(path: str) -> int | None:
    """The refresh epoch of the registry at *path*, or ``None``.

    ``None`` means the path does not hold a well-formed registry;
    registries written before epochs read as ``0``.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError, UnicodeDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("repro_shards") != REGISTRY_VERSION:
        return None
    epoch = payload.get("epoch")
    return epoch if isinstance(epoch, int) else 0


def _pid_alive(pid) -> bool:
    if not isinstance(pid, int) or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


# -- picklable scorer factories (run inside the shard process) -------------


def classifier_factory(artifact_path: str, backend: str | None = None):
    """A factory loading one saved model artifact (single-model shards)."""
    from repro.api.classifier import BACKEND_COMPILED, Classifier

    return Classifier.load(
        artifact_path,
        backend=backend if backend is not None else BACKEND_COMPILED)


def fleet_factory(
    model_path: str | None = None,
    profile: str = "paper",
    family: str = "tree",
    feature_set: str = "static-all",
    models: tuple = (),
    preload: bool = False,
    memory_budget_bytes: int | None = None,
    max_models: int | None = None,
    default=None,
    on_preload=None,
    backend: str | None = None,
):
    """Build the serving fleet ``repro serve`` deploys.

    The default model is *default* (an already-fitted classifier —
    the un-sharded CLI passes the one it just loaded), or is built
    here from *model_path* (a saved artifact) / the artifact cache for
    ``(profile, family, feature_set)``, training on a miss.  Extra
    *models* specs are warm pre-loaded (*on_preload* is called per
    loaded key, for progress reporting).  *backend* selects the
    execution backend every model in the fleet runs on (default:
    compiled decision tables; see :meth:`repro.api.Classifier.compile`).
    Both serve paths assemble through this one function: the CLI calls
    it inline for a single-process fleet, and :class:`ShardManager`
    runs it (picklable, built-in defaults) inside every shard process
    so each shard owns its own pool and event loop.
    """
    from repro.api.artifact_cache import load_or_train
    from repro.api.classifier import BACKEND_COMPILED, Classifier
    from repro.api.config import ReproConfig
    from repro.api.fleet import ModelPool, cache_loader

    if backend is None:
        backend = BACKEND_COMPILED
    if default is None:
        if model_path:
            default = Classifier.load(model_path, backend=backend)
        else:
            config = ReproConfig(profile=profile, model=family,
                                 feature_set=feature_set)
            default, _ = load_or_train(config, backend=backend)
    pool = ModelPool(loader=cache_loader(train_on_miss=preload,
                                         backend=backend),
                     memory_budget_bytes=memory_budget_bytes,
                     max_models=max_models,
                     default_tag=profile)
    fleet = ModelFleet(pool, default=default)
    if models:
        keys = pool.preload([s for s in models if str(s).strip()])
        if on_preload is not None:
            for key in keys:
                on_preload(key)
    return fleet


def _shard_main(factory, kind, endpoint, index, workers, ready,
                codecs=None, max_batch=DEFAULT_MAX_BATCH) -> None:
    """One shard process: build the scorer, serve until SIGTERM."""
    stop = threading.Event()

    def request_stop(signum, frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, request_stop)
    signal.signal(signal.SIGINT, request_stop)
    scorer = factory()
    kwargs: dict = {}
    if isinstance(scorer, ModelFleet):
        kwargs["fleet"] = scorer
    else:
        kwargs["classifier"] = scorer
    daemon = ScoringDaemon(
        socket_path=endpoint if kind == "unix" else None,
        tcp=endpoint if kind == "tcp" else None,
        workers=workers,
        reuse_port=(kind == "tcp"),
        stats_extra={"shard": {"index": index, "pid": os.getpid()}},
        codecs=codecs,
        max_batch=max_batch,
        **kwargs,
    )
    # a {"cmd": "drain"} verb finishes in-flight work, stops the daemon
    # and then fires this hook: flip the same flag SIGTERM uses so the
    # shard process exits cleanly and its supervisor can retire or
    # replace it
    daemon.on_drained = stop.set
    daemon.start()
    ready.set()
    log = get_logger("shard", shard=index)
    log.info("serving", kind=kind, endpoint=str(endpoint),
             workers=workers)
    try:
        # a plain flag + timed wait is robust to signal delivery
        # semantics across platforms (handlers only set the flag)
        while not stop.wait(0.2):
            pass
    finally:
        daemon.stop()
        log.info("exit")


class ShardManager:
    """Run and supervise N shard daemons serving one logical endpoint.

    *factory* is a picklable callable returning the scorer each shard
    serves (a fitted classifier or a fleet) — it runs **inside** the
    shard process.  Exactly one endpoint must be configured:
    ``socket_path`` (unix sockets + registry file) or ``tcp`` (a
    ``(host, port)`` pair shared via ``SO_REUSEPORT``; port 0 reserves
    an ephemeral port all shards then share, readable back from
    :attr:`address`).  *workers* and *max_batch* configure every
    shard's :class:`~repro.api.daemon.ScoringDaemon`.

    Usage::

        manager = ShardManager(
            functools.partial(classifier_factory, "model.json"),
            shards=4, socket_path="/tmp/repro.sock")
        with manager:
            ...  # ScoringClient(socket_path="/tmp/repro.sock")
    """

    def __init__(
        self,
        factory,
        shards: int,
        socket_path: str | None = None,
        tcp: tuple | None = None,
        workers: int = DEFAULT_WORKERS,
        start_timeout: float = 120.0,
        codecs: tuple | None = None,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> None:
        if shards < 1:
            raise DaemonError(f"shards must be >= 1, got {shards}")
        if (socket_path is None) == (tcp is None):
            raise DaemonError(
                "configure exactly one endpoint: socket_path=PATH or "
                "tcp=(host, port)"
            )
        self.factory = factory
        self.shards = int(shards)
        self.socket_path = socket_path
        self.tcp = tuple(tcp) if tcp is not None else None
        self.workers = workers
        self.start_timeout = start_timeout
        self.codecs = tuple(codecs) if codecs is not None else None
        self.max_batch = max_batch
        self._ctx = self._pick_context()
        # the fleet state a supervisor mutates concurrently with the
        # owning thread (respawn vs stop): all writes go under the lock
        self._lock = threading.Lock()
        self._procs: list = []
        self._retired: list = []       # replaced processes awaiting reap
        self._deregistered: set = set()  # shard indexes hidden from clients
        self._epoch = 0                # registry refresh counter
        self._guard: socket.socket | None = None  # TCP port reservation
        self._bound_tcp: tuple | None = None
        self._registry_written = False

    @staticmethod
    def _pick_context():
        # fork is cheap (the parent's imports and page cache are
        # shared copy-on-write) and needs no pickling; platforms
        # without it fall back to the default start method
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    # -- lifecycle ---------------------------------------------------------

    @property
    def is_running(self) -> bool:
        return any(proc.is_alive() for proc in self._procs)

    @property
    def address(self) -> tuple:
        """``("unix", base_path)`` or ``("tcp", host, port)`` (bound)."""
        if self.socket_path is not None:
            return ("unix", self.socket_path)
        if self._bound_tcp is not None:
            return ("tcp",) + self._bound_tcp
        return ("tcp",) + self.tcp

    @property
    def pids(self) -> list:
        return [proc.pid for proc in self._procs]

    def alive(self) -> list:
        """Liveness flags, one per shard (``alive()[i]`` = shard i)."""
        return [proc.is_alive() for proc in self._procs]

    def shard_paths(self) -> list:
        """The per-shard unix socket paths (empty for TCP)."""
        if self.socket_path is None:
            return []
        return [shard_socket_path(self.socket_path, i)
                for i in range(self.shards)]

    def start(self) -> "ShardManager":
        if self._procs:
            raise DaemonError("shard manager is already started")
        if self.socket_path is not None:
            self._prepare_base_path()
            endpoints = [("unix", path) for path in self.shard_paths()]
        else:
            self._reserve_tcp_port()
            endpoints = [("tcp", self._bound_tcp)] * self.shards
        events = []
        try:
            for index, (kind, endpoint) in enumerate(endpoints):
                proc, ready = self._spawn(index, kind, endpoint)
                with self._lock:
                    self._procs.append(proc)
                events.append(ready)
            deadline = time.monotonic() + self.start_timeout
            for index, ready in enumerate(events):
                # poll readiness against child liveness: a shard whose
                # factory raised (bad artifact, failed bind) dies
                # immediately and must fail start() fast, not after
                # the full start_timeout
                while not ready.wait(0.2):
                    proc = self._procs[index]
                    if not proc.is_alive():
                        raise DaemonError(
                            f"shard {index} died during startup "
                            f"(exit code {proc.exitcode})"
                        )
                    if time.monotonic() > deadline:
                        raise DaemonError(
                            f"shard {index} did not become ready "
                            f"within {self.start_timeout}s"
                        )
            self._refresh_registry()
        except BaseException:
            self.stop()
            raise
        return self

    def _spawn(self, index: int, kind: str, endpoint):
        """Fork one shard process; returns ``(process, ready_event)``."""
        ready = self._ctx.Event()
        proc = self._ctx.Process(
            target=_shard_main,
            args=(self.factory, kind, endpoint, index,
                  self.workers, ready, self.codecs, self.max_batch),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        proc.start()
        return proc, ready

    def _endpoint_for(self, index: int) -> tuple:
        if self.socket_path is not None:
            return ("unix", shard_socket_path(self.socket_path, index))
        return ("tcp", self._bound_tcp)

    # -- supervision hooks -------------------------------------------------

    @property
    def epoch(self) -> int:
        """The registry refresh counter (see :func:`write_registry`)."""
        with self._lock:
            return self._epoch

    def proc(self, index: int):
        """The current process object serving shard *index*."""
        with self._lock:
            if not 0 <= index < len(self._procs):
                raise DaemonError(f"no shard with index {index}")
            return self._procs[index]

    def deregister(self, index: int) -> None:
        """Hide shard *index* from the registry (the drain hand-off).

        Client (re)connections resolve endpoints through the registry,
        so a deregistered shard stops receiving fresh connections while
        it finishes in-flight work; :meth:`respawn` re-registers the
        replacement.
        """
        with self._lock:
            if not 0 <= index < self.shards:
                raise DaemonError(f"no shard with index {index}")
            self._deregistered.add(index)
        self._refresh_registry()

    def respawn(self, index: int, ready_timeout: float | None = None) -> int:
        """Replace shard *index* with a fresh process; returns its pid.

        The old process must already be dead (crashed, killed or
        drained to exit) — respawning over a live shard raises, because
        two processes racing for one endpoint is never what a
        supervisor wants.  The replaced process object is retired and
        reaped by :meth:`stop`, and the registry is refreshed (new pid,
        bumped epoch, deregistration cleared) once the replacement is
        ready.
        """
        old = self.proc(index)
        if old.is_alive():
            raise DaemonError(
                f"shard {index} (pid {old.pid}) is still alive; drain "
                f"or kill it before respawning")
        old.join(0.1)  # reap promptly; stop() covers stragglers
        kind, endpoint = self._endpoint_for(index)
        proc, ready = self._spawn(index, kind, endpoint)
        with self._lock:
            self._retired.append(old)
            self._procs[index] = proc
        timeout = (ready_timeout if ready_timeout is not None
                   else self.start_timeout)
        deadline = time.monotonic() + timeout
        try:
            while not ready.wait(0.2):
                if not proc.is_alive():
                    raise DaemonError(
                        f"respawned shard {index} died during startup "
                        f"(exit code {proc.exitcode})")
                if time.monotonic() > deadline:
                    raise DaemonError(
                        f"respawned shard {index} did not become ready "
                        f"within {timeout}s")
        except BaseException:
            if proc.is_alive():
                proc.terminate()
                proc.join(5.0)
            raise
        with self._lock:
            self._deregistered.discard(index)
        self._refresh_registry()
        return proc.pid

    def _refresh_registry(self) -> None:
        """Rewrite the registry from live state (bumps the epoch)."""
        if self.socket_path is None:
            return
        with self._lock:
            if not self._procs:
                return
            self._epoch += 1
            epoch = self._epoch
            rows = [
                {"index": i,
                 "path": shard_socket_path(self.socket_path, i),
                 "pid": self._procs[i].pid}
                for i in range(self.shards)
                if i not in self._deregistered
            ]
        write_registry(self.socket_path, rows, epoch=epoch)
        self._registry_written = True

    def stop(self, timeout: float = 10.0) -> None:
        """Fan-out shutdown: SIGTERM all shards, join, escalate, clean.

        Covers supervision leftovers too: processes respawned after the
        initial fork set and the retired originals they replaced are
        all reaped here, so a supervised shutdown leaves no zombies.
        """
        with self._lock:
            procs = list(self._procs) + list(self._retired)
            self._procs = []
            self._retired = []
            self._deregistered = set()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout)
        for proc in procs:
            if proc.is_alive():
                proc.kill()
                proc.join(5.0)
        if self._guard is not None:
            try:
                self._guard.close()
            except OSError:
                pass
            self._guard = None
        if self.socket_path is not None:
            if self._registry_written:
                try:
                    os.unlink(self.socket_path)
                except OSError:
                    pass
                self._registry_written = False
            for path in self.shard_paths():
                # clean exits unlink their own socket; this reaps the
                # leftovers of killed shards
                try:
                    if stat.S_ISSOCK(os.stat(path).st_mode):
                        os.unlink(path)
                except OSError:
                    pass

    def __enter__(self) -> "ShardManager":
        if not self._procs:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- endpoint preparation ----------------------------------------------

    def _prepare_base_path(self) -> None:
        base = self.socket_path
        if not os.path.exists(base):
            return
        if stat.S_ISSOCK(os.stat(base).st_mode):
            # a plain (un-sharded) daemon endpoint: reclaim only if dead
            _reclaim_stale_unix_socket(base)
            return
        shards = read_registry(base)
        if shards is not None:
            if any(_pid_alive(s.get("pid")) for s in shards):
                raise DaemonError(
                    f"socket path {base!r} holds a shard registry with "
                    f"live shard processes; refusing to serve over it"
                )
            os.unlink(base)  # stale registry from a dead manager
            return
        raise DaemonError(
            f"socket path {base!r} exists and is neither a socket nor "
            f"a shard registry; refusing to overwrite it"
        )

    def _reserve_tcp_port(self) -> None:
        if not hasattr(socket, "SO_REUSEPORT"):
            raise DaemonError(
                "this platform does not support SO_REUSEPORT; sharded "
                "TCP serving is unavailable (use unix sockets)"
            )
        host, port = self.tcp
        guard = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        guard.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        try:
            guard.bind((host, int(port)))
        except OSError as exc:
            guard.close()
            raise DaemonError(f"cannot bind tcp {host}:{port}: {exc}")
        # bound but never listening: reserves the port for the shard
        # lifetime without receiving connections (the kernel only
        # balances across *listening* SO_REUSEPORT sockets)
        self._guard = guard
        self._bound_tcp = (host, guard.getsockname()[1])

