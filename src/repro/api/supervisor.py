"""Sharded serving: N scoring daemons behind one unix endpoint, self-healing.

One daemon process tops out at one core's worth of scoring (the GIL
serializes everything but the numpy kernels); the low-voltage
parallel-systems literature the paper builds on gets throughput from
*parallel replication of slower units*.  ``repro serve --socket PATH
--shards N`` runs N full scoring daemons, one per process: shard *i*
listens at ``PATH.<i>`` and ``PATH`` holds the shard registry that
:class:`repro.api.ScoringClient` resolves (see :mod:`repro.api.shard`).

:class:`ShardSupervisor` is the one owner of those processes.  It
forks them, writes the registry and, from ``start()`` on, runs a
health loop that cannot be switched off: a shard whose process exited
(or whose health probe keeps failing) is respawned and the registry
refreshed (new pid, bumped epoch).  On top it offers graceful drain
(the ``drain`` verb: in-flight work finishes, fresh requests go to
siblings), rolling restart (never below N-1 serving shards) and
zero-downtime model hot swap (canary-score, then promote everywhere
and verify the default route answers byte-identically).  ``stop()``
fans out: SIGTERM every shard, join, SIGKILL stragglers, remove the
registry.

Usage::

    factory = functools.partial(classifier_factory, "model.json")
    with ShardSupervisor(factory, shards=4, socket_path=base) as fleet:
        ...                           # ScoringClient(socket_path=base)
        fleet.rolling_restart()       # pick up a new artifact/config
        fleet.hot_swap("tree:static-agg", probe_rows)
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import stat
import threading
import time
from dataclasses import dataclass

from repro.api.admin import AdminClient
from repro.api.daemon import (
    DEFAULT_MAX_BATCH,
    DEFAULT_WORKERS,
    _reclaim_stale_unix_socket,
)
from repro.api.shard import (
    _shard_main,
    read_registry,
    shard_socket_path,
    write_registry,
)
from repro.errors import DaemonError, ScoringError
from repro.obs import MetricsRegistry, get_logger

__all__ = [
    "DEFAULT_INTERVAL",
    "HotSwapReport",
    "ShardSupervisor",
]

#: seconds between health passes.
DEFAULT_INTERVAL = 1.0
#: seconds a (re)spawned shard may take to build its scorer and bind.
START_TIMEOUT = 120.0
#: per-probe connect/answer budget, seconds.
PROBE_TIMEOUT = 5.0
#: consecutive failed probes of a live process before it is replaced.
MAX_PROBE_FAILURES = 3
#: seconds a drained shard may take to finish in-flight work and exit.
DRAIN_TIMEOUT = 60.0
#: per-request budget of the hot-swap admin calls, seconds.
OP_TIMEOUT = 60.0

#: bound on the retained event history.
_EVENT_LIMIT = 256


@dataclass(frozen=True)
class HotSwapReport:
    """What one :meth:`ShardSupervisor.hot_swap` did.

    ``predictions`` is the canary's (shard 0's) probe-set scoring
    under the new model; ``shard_predictions[i]`` is what shard
    ``promoted[i]`` answered on the *default* route after promotion.
    ``identical`` is the acceptance gate: every shard's default route
    reproduced the canary predictions exactly.
    """

    model: str
    predictions: tuple
    promoted: tuple
    shard_predictions: tuple
    identical: bool


def _fork_context():
    # fork is cheap (the parent's imports and page cache are shared
    # copy-on-write) and needs no pickling; platforms without it fall
    # back to the default start method
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


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


def _terminate(proc) -> None:
    """SIGTERM *proc* if it still runs, escalating to SIGKILL."""
    if proc.is_alive():
        proc.terminate()
        proc.join(5.0)
    if proc.is_alive():
        proc.kill()
        proc.join(5.0)


class ShardSupervisor:
    """Own, health-check and operate N shard daemons behind one endpoint.

    *factory* is a picklable callable returning the scorer each shard
    serves (see :func:`~repro.api.shard.classifier_factory` and
    :func:`~repro.api.shard.fleet_factory`); it runs **inside** the
    shard process.  Shard *i* listens at ``<socket_path>.<i>`` and the
    registry lives at *socket_path*.  *workers*, *codecs* and
    *max_batch* configure every shard's
    :class:`~repro.api.daemon.ScoringDaemon`; *interval* is the
    seconds between health passes.

    Each pass checks every shard (process liveness, then a ``health``
    probe over its socket) and respawns the dead and the persistently
    unresponsive.  A shard under :meth:`drain_shard` or
    :meth:`rolling_restart` is skipped, so the loop never fights an
    operator.  Every event is logged (``supervisor`` JSON lines on
    stderr), counted on :attr:`metrics` and kept on :attr:`events`.
    """

    def __init__(
        self,
        factory,
        shards: int,
        socket_path: str,
        workers: int = DEFAULT_WORKERS,
        codecs: tuple | None = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        interval: float = DEFAULT_INTERVAL,
    ) -> None:
        if shards < 1:
            raise DaemonError(f"shards must be >= 1, got {shards}")
        if interval <= 0:
            raise DaemonError(f"interval must be > 0, got {interval}")
        self.factory = factory
        self.shards = int(shards)
        self.socket_path = socket_path
        self.interval = float(interval)
        # what every shard's ScoringDaemon is built with
        self._options = {"workers": workers, "codecs": codecs, "max_batch": max_batch}
        # supervision telemetry: event counters by kind plus the
        # health-probe round-trip distribution (see repro.obs)
        self.metrics = MetricsRegistry()
        self._probe_rtt = self.metrics.histogram("repro_supervisor_probe_rtt_us")
        self._log = get_logger("supervisor")
        self._ctx = _fork_context()
        # _lock guards the fleet state below and is only held briefly;
        # _ops serializes the process-level mutations (heal, drain,
        # respawn, hot swap, stop) so two actors never replace one shard
        self._lock = threading.Lock()
        self._ops = threading.RLock()
        self._procs: list = []
        self._retired: list = []  # replaced processes awaiting reap
        self._excluded: set = set()  # shards under an operator: not healed
        self._deregistered: set = set()  # shards hidden from clients
        self._failures: dict = {}  # consecutive failed probes per shard
        self._epoch = 0  # registry refresh counter
        self._registry_written = False
        self._events: list = []
        self._halt = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def pids(self) -> list:
        """The current process id of every shard, in shard order."""
        with self._lock:
            return [proc.pid for proc in self._procs]

    def alive(self) -> list:
        """Liveness flags, one per shard (``alive()[i]`` = shard i)."""
        with self._lock:
            return [proc.is_alive() for proc in self._procs]

    def start(self) -> "ShardSupervisor":
        """Fork the shards, write the registry, start the health loop."""
        if self._thread is not None:
            raise DaemonError("supervisor is already running")
        self._prepare_base_path()
        self._halt.clear()
        try:
            spawned = []
            for index in range(self.shards):
                proc, ready = self._spawn(index)
                with self._lock:
                    self._procs.append(proc)
                spawned.append((proc, ready))
            deadline = time.monotonic() + START_TIMEOUT
            for index, (proc, ready) in enumerate(spawned):
                self._await_ready(proc, ready, deadline, f"shard {index}")
            self._refresh_registry()
        except BaseException:
            self.stop()
            raise
        self._thread = threading.Thread(
            target=self._supervise, name="repro-supervise", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Halt the health loop, then shut every shard down.

        SIGTERM every shard (respawned ones and the retired originals
        they replaced included, so none is left a zombie), join,
        SIGKILL stragglers, then remove the registry and any socket a
        killed shard left behind.
        """
        self._halt.set()
        if self._thread is not None:
            self._thread.join(PROBE_TIMEOUT + 30.0)
            self._thread = None
        with self._ops:
            with self._lock:
                procs = self._procs + self._retired
                self._procs = []
                self._retired = []
                self._excluded.clear()
                self._deregistered.clear()
                self._failures.clear()
                written = self._registry_written
                self._registry_written = False
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            for proc in procs:
                _terminate(proc)
            if written:
                with contextlib.suppress(OSError):
                    os.unlink(self.socket_path)
            for path in map(self._path, range(self.shards)):
                # clean exits unlink their own socket; this reaps the
                # leftovers of killed shards
                with contextlib.suppress(OSError):
                    if stat.S_ISSOCK(os.stat(path).st_mode):
                        os.unlink(path)

    def __enter__(self) -> "ShardSupervisor":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _path(self, index: int) -> str:
        return shard_socket_path(self.socket_path, index)

    def _spawn(self, index: int) -> tuple:
        """Fork shard *index*; returns ``(process, ready_event)``."""
        ready = self._ctx.Event()
        proc = self._ctx.Process(
            target=_shard_main,
            args=(self.factory, self._path(index), index, ready, self._options),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        proc.start()
        return proc, ready

    def _await_ready(self, proc, ready, deadline: float, label: str) -> None:
        """Wait for a shard's *ready* event, polling its liveness.

        A shard whose factory raised (bad artifact, failed bind) dies at
        once and fails fast, not after the whole start timeout;
        *deadline* is the ``time.monotonic()`` reading the wait gives up
        at.  A :meth:`stop` aborts the wait.
        """
        while not ready.wait(0.2):
            if not proc.is_alive():
                raise DaemonError(
                    f"{label} died during startup (exit code {proc.exitcode})"
                )
            if self._halt.is_set():
                raise DaemonError(f"{label}: the supervisor is stopping")
            if time.monotonic() > deadline:
                raise DaemonError(
                    f"{label} did not become ready within {START_TIMEOUT}s"
                )

    def _refresh_registry(self) -> None:
        """Rewrite the registry from live state (bumps the epoch)."""
        with self._lock:
            self._epoch += 1
            rows = [
                {"index": index, "path": self._path(index), "pid": proc.pid}
                for index, proc in enumerate(self._procs)
                if index not in self._deregistered
            ]
            write_registry(self.socket_path, rows, epoch=self._epoch)
            self._registry_written = True

    def _prepare_base_path(self) -> None:
        base = self.socket_path
        if not os.path.exists(base):
            return
        if stat.S_ISSOCK(os.stat(base).st_mode):
            # a plain (un-sharded) daemon endpoint: reclaim only if dead
            _reclaim_stale_unix_socket(base)
            return
        shards = read_registry(base)
        if shards is None:
            raise DaemonError(
                f"socket path {base!r} exists and is neither a socket nor "
                f"a shard registry; refusing to overwrite it"
            )
        if any(_pid_alive(s.get("pid")) for s in shards):
            raise DaemonError(
                f"socket path {base!r} holds a shard registry with "
                f"live shard processes; refusing to serve over it"
            )
        os.unlink(base)  # stale registry from a dead fleet

    # -- the health loop ---------------------------------------------------

    def _supervise(self) -> None:
        # never dies on a bad pass: a supervisor that crashes on the
        # failure it exists to handle is worse than none
        while not self._halt.wait(self.interval):
            try:
                self.check_once()
            except Exception as exc:
                self._emit("error", None, error=str(exc))

    def check_once(self) -> list:
        """One health pass; returns the shard indexes healed.

        Dead processes are respawned at once; live processes that fail
        their health probe ``MAX_PROBE_FAILURES`` times in a row (wedged
        event loop, unreachable socket) are killed and respawned.
        Shards under a manual operation are skipped.
        """
        healed: list = []
        for index in range(self.shards):
            with self._lock:
                if index >= len(self._procs):
                    break  # stopped under us
                if index in self._excluded:
                    continue
                proc = self._procs[index]
            try:
                reason = "exit"
                if proc.is_alive():
                    ok = self._probe(index)
                    with self._lock:
                        failures = 0 if ok else self._failures.get(index, 0) + 1
                        self._failures[index] = failures
                    if failures < MAX_PROBE_FAILURES:
                        continue
                    reason = "probe"
                if self._heal(index, reason) is not None:
                    healed.append(index)
            except DaemonError as exc:
                # a failed respawn must not stop the pass: the other
                # shards still deserve their checks, and the next pass
                # retries this one
                self._emit("error", index, error=str(exc))
        return healed

    def _heal(self, index: int, reason: str) -> int | None:
        """Replace shard *index*; ``None`` when healing was not needed."""
        with self._ops:
            with self._lock:
                if index in self._excluded or index >= len(self._procs):
                    return None  # an operator claimed it meanwhile
                proc = self._procs[index]
            if proc.is_alive():
                if reason != "probe":
                    return None  # already healed while we waited
                # a live process that stopped answering: take it down
                # before handing the endpoint to a replacement
                _terminate(proc)
            pid = self.respawn(index)
            self._emit("respawn", index, pid=pid, reason=reason)
            return pid

    def _probe(self, index: int) -> bool:
        probe_from = time.perf_counter_ns()
        try:
            with AdminClient(
                socket_path=self._path(index),
                timeout=PROBE_TIMEOUT,
                reconnect_retries=0,
            ) as admin:
                admin.health()
        except ScoringError:
            return False
        self._probe_rtt.record((time.perf_counter_ns() - probe_from) / 1000.0)
        return True

    # -- manual fleet operations -------------------------------------------

    def drain_shard(self, index: int) -> int:
        """Gracefully retire shard *index*; returns its (exited) pid.

        Takes the shard out of the registry (fresh client connections
        re-resolve to its siblings), sends the ``drain`` verb (new
        scoring requests are refused with a typed retryable frame while
        in-flight work finishes) and waits for the process to exit,
        escalating to SIGTERM/SIGKILL past ``DRAIN_TIMEOUT``.  The shard
        stays out of the registry and the health loop until
        :meth:`respawn` (what :meth:`rolling_restart` does) brings a
        replacement up.
        """
        with self._ops:
            with self._lock:
                if not 0 <= index < len(self._procs):
                    raise DaemonError(f"no running shard with index {index}")
                proc = self._procs[index]
                self._excluded.add(index)
                self._deregistered.add(index)
            self._refresh_registry()
            if proc.is_alive():
                try:
                    with AdminClient(
                        socket_path=self._path(index),
                        timeout=PROBE_TIMEOUT,
                        reconnect_retries=0,
                    ) as admin:
                        admin.drain()
                except ScoringError:
                    pass  # already dead or unreachable: the join decides
            proc.join(DRAIN_TIMEOUT)
            _terminate(proc)
            self._emit("drain", index, pid=proc.pid, exitcode=proc.exitcode)
            return proc.pid

    def respawn(self, index: int) -> int:
        """Replace dead or drained shard *index*; returns the new pid.

        Once the replacement is ready it rejoins the registry (new pid,
        bumped epoch) and the health loop; the replaced process is
        retired and reaped by :meth:`stop`.
        """
        with self._ops:
            with self._lock:
                if not 0 <= index < len(self._procs):
                    raise DaemonError(f"no running shard with index {index}")
                old = self._procs[index]
            if old.is_alive():
                raise DaemonError(
                    f"shard {index} (pid {old.pid}) is still alive; drain "
                    f"or kill it before respawning"
                )
            old.join(0.1)  # reap promptly; stop() covers stragglers
            proc, ready = self._spawn(index)
            with self._lock:
                self._retired.append(old)
                self._procs[index] = proc
            label = f"respawned shard {index}"
            try:
                self._await_ready(proc, ready, time.monotonic() + START_TIMEOUT, label)
            except BaseException:
                _terminate(proc)
                raise
            with self._lock:
                self._excluded.discard(index)
                self._deregistered.discard(index)
                self._failures.pop(index, None)
            self._refresh_registry()
            return proc.pid

    def rolling_restart(self) -> list:
        """Cycle every shard (drain, then respawn) one at a time.

        The fleet never drops below N-1 serving shards: shard *i+1* is
        only drained once shard *i*'s replacement is serving.  Returns
        the replacement pids in shard order.  A respawn that fails
        hands its shard back to the health loop, which retries it on
        its next pass.
        """
        pids: list = []
        for index in range(self.shards):
            try:
                self.drain_shard(index)
                pid = self.respawn(index)
            finally:
                with self._lock:
                    self._excluded.discard(index)
            self._emit("restart", index, pid=pid)
            pids.append(pid)
        return pids

    def hot_swap(self, model: str, probe_rows, expected=None) -> HotSwapReport:
        """Zero-downtime model refresh: warm, canary-score, promote.

        Warm-loads *model* into the canary's (shard 0's) pool and scores
        *probe_rows* against it via per-request model routing — the
        serving default is untouched, so a bad artifact is caught
        before any traffic shifts.  *expected* (optional) gates
        promotion on the canary predictions matching exactly.  The key
        is then warm-loaded and promoted on every shard and the
        default route re-scored everywhere; the returned
        :class:`HotSwapReport` says whether all shards answered
        byte-identically to the canary.
        """
        rows = [[float(v) for v in row] for row in probe_rows]
        if not rows:
            raise DaemonError("hot swap needs a non-empty probe set")
        with self._ops:
            path = self._path(0)
            with AdminClient(socket_path=path, timeout=OP_TIMEOUT) as admin:
                spec = admin.load_model(model)
                predictions = tuple(admin.client.predict_batch(rows, model=spec))
            if expected is not None and tuple(map(int, expected)) != predictions:
                raise DaemonError(
                    f"canary predictions for {spec!r} diverge from the "
                    f"expected gate; aborting before promotion"
                )
            shard_predictions: list = []
            for index in range(self.shards):
                path = self._path(index)
                with AdminClient(socket_path=path, timeout=OP_TIMEOUT) as admin:
                    admin.load_model(spec)
                    admin.promote(spec)
                    # the *default* route must now serve the new model
                    shard_predictions.append(tuple(admin.client.predict_batch(rows)))
            identical = all(got == predictions for got in shard_predictions)
            self._emit("hot_swap", None, model=spec, identical=identical)
            return HotSwapReport(
                model=spec,
                predictions=predictions,
                promoted=tuple(range(self.shards)),
                shard_predictions=tuple(shard_predictions),
                identical=identical,
            )

    # -- bookkeeping --------------------------------------------------------

    @property
    def events(self) -> tuple:
        """A snapshot of the recent supervision events (bounded)."""
        with self._lock:
            return tuple(self._events)

    def _emit(self, event: str, shard=None, **extra) -> None:
        entry = {"event": event, "shard": shard, **extra}
        with self._lock:
            self._events.append(entry)
            del self._events[:-_EVENT_LIMIT]
        self.metrics.counter("repro_supervisor_events_total", event=event).inc()
        # "pid" is reserved in the log schema (the supervisor's own);
        # the subject shard's pid travels as shard_pid
        fields = {("shard_pid" if k == "pid" else k): v for k, v in extra.items()}
        log = self._log.error if event == "error" else self._log.info
        log(event, shard=shard, **fields)
