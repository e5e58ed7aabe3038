"""Sharded serving: N scoring daemons behind one unix endpoint, self-healing.

One daemon process tops out at one core's worth of scoring (the GIL
serializes everything but the numpy kernels); the low-voltage
parallel-systems literature the paper builds on gets throughput from
*parallel replication of slower units*.  ``repro serve --socket PATH
--shards N`` runs N scoring daemons, one per process: shard *i* listens
at ``PATH.<i>`` and ``PATH`` holds the registry clients resolve (see
:mod:`repro.api.shard`).  :class:`ShardSupervisor` owns the processes:
its health loop respawns a shard that exited or keeps failing probes,
and it offers drain, rolling restart (never below N-1 serving) and
zero-downtime model hot swap.

The fleet's state is one :class:`ShardTable`, which holds no process,
socket or clock.  Each shard moves through ``starting`` (forked, not
listening yet) -> ``serving`` -> ``draining`` (an operator takes it
out) -> ``exited``, with its count of failed probes and whether an
operator claimed it (then it is never healed).  The registry,
:attr:`~ShardSupervisor.pids` and :meth:`~ShardSupervisor.alive` mean
"serving".  The supervisor feeds the table events and applies the
actions it answers with; its one observer of processes learns of an
exit from ``Process.sentinel`` (readable once the child is gone,
whoever reaped it), so the health loop wakes on a death.

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
from multiprocessing.connection import wait

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

__all__ = ["DEFAULT_INTERVAL", "HotSwapReport", "ShardSupervisor", "ShardTable"]

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

#: the shard states, in lifecycle order.
STARTING, SERVING, DRAINING, EXITED = "starting", "serving", "draining", "exited"


@dataclass(frozen=True)
class HotSwapReport:
    """What one :meth:`ShardSupervisor.hot_swap` did: the canary's
    (shard 0's) probe-set ``predictions`` under the new model, what
    shard ``promoted[i]`` then answered on its *default* route, and
    whether every shard reproduced the canary exactly."""

    model: str
    predictions: tuple
    promoted: tuple
    shard_predictions: tuple
    identical: bool


class _Shard:
    state = EXITED
    pid = None  # the newest process, serving or not
    failures = 0  # consecutive failed health probes
    claimed = False  # drained by an operator: never healed
    exitcode = None


class ShardTable:
    """The fleet without its processes, sockets or clock.

    Each event method answers with the actions it wants: a
    ``("registry", rows, epoch)`` rewrite (``rows`` ``None``: remove it)
    whenever the serving set changes, then ``("terminate", pid)``,
    ``("drain", index)`` and ``("spawn", index)``.  Only a shard with no
    process is spawned.  The owner serializes the calls.
    """

    def __init__(self, paths) -> None:
        self.paths = tuple(paths)
        self.shards = [_Shard() for _ in self.paths]
        self.running: set = set()  # pids forked and not yet seen exiting
        self.epoch = 0
        self.stopped = True

    def pids(self) -> list:
        return [s.pid if s.state == SERVING else None for s in self.shards]

    def rows(self) -> list:
        pids = enumerate(self.pids())
        return [{"index": i, "path": self.paths[i], "pid": p} for i, p in pids if p]

    def _move(self, shard: _Shard, state: str) -> list:
        serving, shard.state = shard.state == SERVING, state
        if serving == (state == SERVING):
            return []
        self.epoch += 1
        return [("registry", self.rows(), self.epoch)]

    def _spawn(self, index: int) -> list:
        shard = self.shards[index]
        shard.pid, shard.failures, shard.claimed = None, 0, False
        return self._move(shard, STARTING) + [("spawn", index)]

    def _shard(self, index: int) -> _Shard:
        if self.stopped or not 0 <= index < len(self.shards):
            raise DaemonError(f"no running shard with index {index}")
        return self.shards[index]

    def _of(self, pid: int) -> _Shard:
        # no shard runs *pid*: a detached record, so the event is a no-op
        return next((s for s in self.shards if s.pid == pid), _Shard())

    def start(self) -> list:
        self.stopped = False
        return [a for i in range(len(self.shards)) for a in self._spawn(i)]

    def spawned(self, index: int, pid: int | None) -> list:
        """Shard *index* was forked as *pid* (``None``: the fork failed)."""
        if pid is None:
            return self._move(self.shards[index], EXITED)
        self.shards[index].pid = pid
        self.running.add(pid)
        return []

    def ready(self, pid: int) -> list:
        shard = self._of(pid)
        return self._move(shard, SERVING) if shard.state == STARTING else []

    def exited(self, pid: int, exitcode: int | None) -> list:
        self.running.discard(pid)
        shard = self._of(pid)
        if shard.state == EXITED:
            return []
        shard.exitcode = exitcode
        return self._move(shard, EXITED)

    def probed(self, pid: int, ok: bool) -> list:
        shard = self._of(pid)
        shard.failures = 0 if ok else shard.failures + 1
        return []

    def heal(self, index: int) -> list:
        """Replace shard *index* if it exited or keeps failing probes."""
        shard = self.shards[index]
        if self.stopped or shard.claimed:
            return []
        if shard.state == EXITED:
            return self._spawn(index)
        if shard.state == SERVING and shard.failures >= MAX_PROBE_FAILURES:
            return [("terminate", shard.pid)] + self._spawn(index)
        return []

    def drain(self, index: int) -> list:
        """An operator takes shard *index* out while all others serve."""
        shard = self._shard(index)
        down = [i for i, s in enumerate(self.shards) if s.state != SERVING]
        if shard.state in (STARTING, DRAINING) or set(down) - {index}:
            raise DaemonError(f"cannot drain shard {index}: shards {down} are down")
        shard.claimed = True
        if shard.state == EXITED:
            return []
        return self._move(shard, DRAINING) + [("drain", index)]

    def respawn(self, index: int) -> list:
        """An operator replaces shard *index*, handing it back to healing."""
        shard = self._shard(index)
        if shard.state != EXITED:
            raise DaemonError(f"shard {index} is {shard.state}; drain or kill it first")
        return self._spawn(index)

    def stop(self) -> list:
        actions = [("terminate", pid) for pid in sorted(self.running)]
        if not self.stopped and self.epoch:
            self.epoch += 1
            actions.append(("registry", None, self.epoch))
        self.stopped = True
        for shard in self.shards:
            shard.state, shard.claimed = EXITED, False
        return actions


def _pid_alive(pid) -> bool:
    try:
        return isinstance(pid, int) and pid > 0 and os.kill(pid, 0) is None
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else


class ShardSupervisor:
    """Own, health-check and operate N shard daemons behind one endpoint.

    *factory* is a picklable callable run **inside** each shard process
    to build its scorer (see :mod:`repro.api.shard`); *workers*,
    *codecs* and *max_batch* configure every shard's
    :class:`~repro.api.daemon.ScoringDaemon`; *interval* is the seconds
    between health passes.  Events are logged (``supervisor`` JSON lines
    on stderr) and counted on :attr:`metrics`.  Reads never wait on a
    running operation.
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
        self.metrics = MetricsRegistry()
        self._probe_rtt = self.metrics.histogram("repro_supervisor_probe_rtt_us")
        self._log = get_logger("supervisor")
        # fork shares imports copy-on-write and pickles nothing
        fork = "fork" in multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if fork else None)
        # _lock guards the table and the processes and is held briefly;
        # _ops serializes the operations that fork or take shards down
        self._lock = threading.RLock()
        self._ops = threading.RLock()
        self._table = ShardTable(map(self._path, range(self.shards)))
        self._procs: dict = {}  # pid -> (process, its ready pipe)
        self._halt = threading.Event()
        self._wake: tuple | None = None  # while running: a pipe stop() writes
        self._thread: threading.Thread | None = None

    @property
    def pids(self) -> list:
        """The serving process id of every shard (``None``: not serving)."""
        with self._lock:
            return self._table.pids()

    def alive(self) -> list:
        """Serving flags, one per shard (``alive()[i]`` = shard i)."""
        return [pid is not None for pid in self.pids]

    def start(self) -> "ShardSupervisor":
        """Fork the shards, write the registry, start the health loop."""
        if self._thread is not None:
            raise DaemonError("supervisor is already running")
        self._prepare_base_path()
        self._halt.clear()
        self._wake = os.pipe()
        try:
            with self._ops:
                deadline = time.monotonic() + START_TIMEOUT
                for index, pid in enumerate(self._apply(self._feed("start"))):
                    self._await_ready(index, pid, deadline)
        except BaseException:
            self.stop()
            raise
        self._thread = threading.Thread(
            target=self._supervise, name="repro-supervise", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Halt the health loop, remove the registry, SIGTERM (then
        SIGKILL) and reap every process still running."""
        self._halt.set()
        if self._wake is not None:
            os.write(self._wake[1], b"\0")
        if self._thread is not None:
            self._thread.join(PROBE_TIMEOUT + 30.0)
            self._thread = None
        with self._ops:
            self._apply(self._feed("stop"))
            for path in map(self._path, range(self.shards)):
                # clean exits unlink their own; killed shards leave theirs
                with contextlib.suppress(OSError):
                    if stat.S_ISSOCK(os.stat(path).st_mode):
                        os.unlink(path)
            for fd in self._wake or ():
                os.close(fd)
            self._wake = None

    def __enter__(self) -> "ShardSupervisor":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _path(self, index: int) -> str:
        return shard_socket_path(self.socket_path, index)

    def _admin(self, index: int, timeout: float = PROBE_TIMEOUT) -> AdminClient:
        return AdminClient(
            socket_path=self._path(index), timeout=timeout, reconnect_retries=0
        )

    def _prepare_base_path(self) -> None:
        base = self.socket_path
        if not os.path.exists(base):
            return
        if stat.S_ISSOCK(os.stat(base).st_mode):
            # a plain (un-sharded) daemon endpoint: reclaim only if dead
            return _reclaim_stale_unix_socket(base)
        shards = read_registry(base)
        if shards is None or any(_pid_alive(s.get("pid")) for s in shards):
            raise DaemonError(
                f"socket path {base!r} holds no shard registry or one with "
                f"live shard processes; refusing to serve over it"
            )
        os.unlink(base)  # stale registry from a dead fleet

    def _feed(self, event: str, *args) -> list:
        """Feed the table one event, write the registry rows it wants (in
        epoch order: the lock is held); returns its other actions."""
        with self._lock:
            actions = getattr(self._table, event)(*args)
            for _, rows, epoch in (a for a in actions if a[0] == "registry"):
                if rows is None:
                    with contextlib.suppress(OSError):
                        os.unlink(self.socket_path)
                else:
                    write_registry(self.socket_path, rows, epoch=epoch)
        return [a for a in actions if a[0] != "registry"]

    def _apply(self, actions) -> list:
        """Terminate, send drain verbs, then fork; returns the new pids."""
        with self._lock:
            procs = {pid: proc for pid, (proc, _) in self._procs.items()}
        doomed = [procs[p] for k, p in actions if k == "terminate" and p in procs]
        for signal_it in ("terminate", "kill"):  # SIGTERM, then SIGKILL
            # never signal an exited process: another waiter may have
            # reaped it, and its pid may be someone else's by now
            doomed = [p for p in doomed if not wait([p.sentinel], 0)]
            for proc in doomed:
                getattr(proc, signal_it)()
            deadline = time.monotonic() + 5.0
            for proc in doomed:
                wait([proc.sentinel], deadline - time.monotonic())
        self._sync()  # reap the terminated and tell the table
        for kind, index in actions:
            if kind == "drain":
                with contextlib.suppress(ScoringError), self._admin(index) as admin:
                    admin.drain()  # unreachable: the exit decides
        return [self._spawn(index) for kind, index in actions if kind == "spawn"]

    def _spawn(self, index: int) -> int:
        reader, ready = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_shard_main,
            args=(self.factory, self._path(index), index, ready, self._options),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        try:
            proc.start()
        except BaseException:
            reader.close()
            self._feed("spawned", index, None)
            raise
        finally:
            ready.close()  # the child's end
        with self._lock:
            self._procs[proc.pid] = (proc, reader)
            self._table.spawned(index, proc.pid)
        return proc.pid

    def _sync(self, done=None, deadline: float = 0.0) -> bool:
        """Feed the table every ready message and exit it has not seen,
        waiting for more until ``done()`` holds (True), *deadline*
        passes or :meth:`stop` (False)."""
        while True:
            with self._lock:
                for pid, (proc, ready) in list(self._procs.items()):
                    if ready.poll():
                        with contextlib.suppress(EOFError):  # EOF: it exited
                            ready.recv()
                            self._feed("ready", pid)
                    if wait([proc.sentinel], 0):
                        proc.join(1.0)  # reaps it, unless another waiter did
                        if proc.exitcode is None:  # another waiter reaped it
                            # private API: else atexit may SIGTERM a reused pid
                            multiprocessing.process._children.discard(proc)
                        del self._procs[pid]
                        ready.close()
                        self._feed("exited", pid, proc.exitcode)
                if done is not None and done():
                    return True
                fds = [self._wake[0]] if self._wake else []
                for proc, ready in self._procs.values():
                    fds += [proc.sentinel, ready.fileno()]
            left = deadline - time.monotonic()
            if left <= 0 or self._halt.is_set() or not self._wake:
                return False
            # bounded: a process another thread forks after this snapshot
            # (or a descriptor closed and reused under it) shows next round
            wait(fds, min(left, 0.2))

    def _await_ready(self, index: int, pid: int, deadline: float | None = None):
        """Wait until *pid* serves shard *index*: an exit fails at once,
        a stop or the deadline (default ``START_TIMEOUT``) takes it down."""
        shard = self._table.shards[index]
        deadline = deadline or time.monotonic() + START_TIMEOUT
        self._sync(lambda: shard.pid != pid or shard.state != STARTING, deadline)
        with self._lock:
            state = shard.state if shard.pid == pid else EXITED
        if state == SERVING:
            return
        why = f"died during startup (exit code {shard.exitcode})"
        if state == STARTING:
            self._apply([("terminate", pid)])
            why = f"did not become ready within {START_TIMEOUT}s"
            why = "the supervisor is stopping" if self._halt.is_set() else why
        raise DaemonError(f"shard {index}: {why}")

    def _supervise(self) -> None:
        # never dies on a bad pass.  Between passes it wakes on each
        # exit, so the registry drops a dead shard at once
        while not self._halt.is_set():
            try:
                self._sync(deadline=time.monotonic() + self.interval)
                if not self._halt.is_set():
                    self.check_once()
            except Exception as exc:
                self._emit("error", None, error=str(exc))

    def check_once(self) -> list:
        """One health pass: probe the serving shards, then respawn the
        exited and those failing ``MAX_PROBE_FAILURES`` probes in a row
        (not those an operator drained).  Returns the indexes healed."""
        self._sync()
        with self._lock:
            rows = self._table.rows()
        for row in rows:
            self._feed("probed", row["pid"], self._probe(row["index"]))
        healed: list = []
        for index in range(self.shards):
            try:
                with self._ops:
                    actions = self._feed("heal", index)
                    if not actions:
                        continue
                    pid = self._apply(actions)[0]
                    self._await_ready(index, pid)
            except DaemonError as exc:
                # the others still get their turn; the next pass retries
                self._emit("error", index, error=str(exc))
                continue
            reason = "probe" if actions[0][0] == "terminate" else "exit"
            self._emit("respawn", index, pid=pid, reason=reason)
            healed.append(index)
        return healed

    def _probe(self, index: int) -> bool:
        probe_from = time.perf_counter_ns()
        try:
            with self._admin(index) as admin:
                admin.health()
        except ScoringError:
            return False
        self._probe_rtt.record((time.perf_counter_ns() - probe_from) / 1000.0)
        return True

    def drain_shard(self, index: int) -> int:
        """Gracefully retire shard *index*; returns its (exited) pid.

        Refused while another shard is not serving.  Deregisters the
        shard, sends the ``drain`` verb (in-flight work finishes, fresh
        requests get a retryable refusal) and waits for the exit, killing
        it past ``DRAIN_TIMEOUT``.  It stays down until :meth:`respawn`.
        """
        with self._ops:
            self._apply(self._feed("drain", index))
            shard = self._table.shards[index]
            deadline = time.monotonic() + DRAIN_TIMEOUT
            if not self._sync(lambda: shard.state == EXITED, deadline):
                self._apply([("terminate", shard.pid)])
            self._emit("drain", index, pid=shard.pid, exitcode=shard.exitcode)
            return shard.pid

    def respawn(self, index: int) -> int:
        """Replace exited or drained shard *index*; returns the new pid.
        The shard is back under the health loop even if the start fails."""
        with self._ops:
            pid = self._apply(self._feed("respawn", index))[0]
            self._await_ready(index, pid)
            return pid

    def rolling_restart(self) -> list:
        """Drain and respawn each shard in turn, once all others serve
        (never below N-1 serving); returns the new pids in shard order."""
        pids: list = []
        for index in range(self.shards):
            others = self._table.shards[:index] + self._table.shards[index + 1 :]
            deadline = time.monotonic() + START_TIMEOUT
            self._sync(lambda: all(s.state == SERVING for s in others), deadline)
            self.drain_shard(index)
            pids.append(self.respawn(index))
            self._emit("restart", index, pid=pids[-1])
        return pids

    def hot_swap(self, model: str, probe_rows, expected=None) -> HotSwapReport:
        """Zero-downtime model refresh: the canary (shard 0) scores
        *probe_rows* with *model* through per-request routing (gated on
        *expected* when given), then every shard promotes it and re-scores
        its default route; the report says whether all match the canary."""
        rows = [[float(v) for v in row] for row in probe_rows]
        if not rows:
            raise DaemonError("hot swap needs a non-empty probe set")
        with self._ops:
            with self._admin(0, OP_TIMEOUT) as admin:
                spec = admin.load_model(model)
                predictions = tuple(admin.client.predict_batch(rows, model=spec))
            if expected is not None and tuple(map(int, expected)) != predictions:
                raise DaemonError(f"canary {spec!r} diverges from expected")
            answers: list = []
            for index in range(self.shards):
                with self._admin(index, OP_TIMEOUT) as admin:
                    admin.load_model(spec)
                    admin.promote(spec)
                    # the *default* route must now serve the new model
                    answers.append(tuple(admin.client.predict_batch(rows)))
            identical = all(got == predictions for got in answers)
            self._emit("hot_swap", None, model=spec, identical=identical)
            shards = tuple(range(self.shards))
            return HotSwapReport(spec, predictions, shards, tuple(answers), identical)

    def _emit(self, event: str, shard=None, **extra) -> None:
        labels = {"event": event}
        if event == "respawn":
            labels["reason"] = extra["reason"]  # exit / probe
        self.metrics.counter("repro_supervisor_events_total", **labels).inc()
        # "pid" is the logger's own field: a shard's pid goes as shard_pid
        fields = {("shard_pid" if k == "pid" else k): v for k, v in extra.items()}
        log = self._log.error if event == "error" else self._log.info
        log(event, shard=shard, **fields)
