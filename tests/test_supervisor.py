"""Self-healing shard supervision (:mod:`repro.api.supervisor`).

Covers the registry epoch, supervisor argument validation, crash ->
respawn healing (direct ``check_once`` and the background thread),
healing of a child another waiter reaped, a respawned shard that reads
as serving only once it listens, graceful drain, healing of a
drained-then-respawned shard and of a failed rolling restart, rolling
restart under sustained pipelined load (zero failed requests), the
zero-downtime hot swap (canary-score then promote, byte-identical
everywhere), zombie-free shutdown after a supervised respawn, the
``repro fleet`` operator CLI against a live 2-shard deployment, and
:class:`SupervisorLifecycle`, a model of the process-free
:class:`~repro.api.supervisor.ShardTable`.

Tests that drive :meth:`ShardSupervisor.check_once` by hand run the
health loop with an interval (``MANUAL``) no test outlives, so the
background pass never races them: between passes the loop only
observes exits.
"""

import contextlib
import functools
import json
import logging
import multiprocessing
import os
import signal
import threading
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.api import (
    AdminClient,
    Classifier,
    HotSwapReport,
    ReproConfig,
    ScoringClient,
    ShardSupervisor,
    classifier_factory,
    registry_epoch,
)
from repro.api.shard import (
    REGISTRY_VERSION,
    read_registry,
    write_registry,
)
from repro.api.supervisor import (
    DRAINING,
    EXITED,
    SERVING,
    STARTING,
    ShardTable,
)
from repro.cli import main as cli_main
from repro.errors import DaemonError

TREE = "tree:static-all:unit"
AGG = "tree:static-agg:unit"
#: a health-loop interval no test outlives: check_once runs by hand.
MANUAL = 3600.0


@pytest.fixture()
def trained(tiny_dataset) -> Classifier:
    return Classifier(ReproConfig(profile="unit")).train(tiny_dataset)


@pytest.fixture()
def artifact(trained, tmp_path) -> str:
    path = str(tmp_path / "model.json")
    trained.save(path)
    return path


def _wait(predicate, timeout: float = 20.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


def _count(supervisor, event: str, **labels) -> int:
    """``repro_supervisor_events_total`` for *event*, summed over the
    label values *labels* does not pin."""
    return sum(
        int(row["value"])
        for row in supervisor.metrics.snapshot()["series"]
        if row["name"] == "repro_supervisor_events_total"
        and row["labels"].get("event") == event
        and all(row["labels"].get(k) == v for k, v in labels.items()))


@contextlib.contextmanager
def _supervisor_log():
    """The fields of every ``supervisor`` log record emitted inside."""
    records: list = []
    handler = logging.Handler()
    handler.emit = lambda record: records.append(
        {"event": record.getMessage(), **record.fields})
    logger = logging.getLogger("repro.supervisor")
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)


def _gated_factory(artifact: str, gate, entered):
    """A shard factory that signals *entered*, then waits for *gate*."""
    entered.set()
    gate.wait()
    return classifier_factory(artifact)


def _variant_fleet_factory(paths: dict):
    """Shard factory hosting prebuilt artifacts under fixed specs."""
    from repro.api import Classifier, ModelFleet, ModelPool
    from repro.errors import FleetError

    variants = {spec: Classifier.load(path)
                for spec, path in paths.items()}

    def loader(key):
        try:
            return variants[key.spec]
        except KeyError:
            raise FleetError(f"no artifact for {key.spec!r}")

    pool = ModelPool(loader=loader, default_tag="unit")
    return ModelFleet(pool, default=variants[TREE])


class TestRegistryEpoch:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "fleet.sock")
        rows = [{"index": 0, "path": "p.0", "pid": 1}]
        write_registry(path, rows, epoch=7)
        assert registry_epoch(path) == 7
        assert read_registry(path) == rows

    def test_pre_epoch_registry_reads_as_zero(self, tmp_path):
        path = str(tmp_path / "fleet.sock")
        payload = {"repro_shards": REGISTRY_VERSION, "base": path,
                   "shards": [{"index": 0, "path": "p.0", "pid": 1}]}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert registry_epoch(path) == 0

    def test_non_registry_is_none(self, tmp_path):
        path = str(tmp_path / "junk")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not a registry\n")
        assert registry_epoch(path) is None
        assert registry_epoch(str(tmp_path / "missing")) is None


class TestValidation:
    def test_bad_supervisor_arguments(self, tmp_path):
        with pytest.raises(DaemonError, match="interval"):
            ShardSupervisor(None, shards=1,
                            socket_path=str(tmp_path / "s.sock"),
                            interval=0)

    def test_hot_swap_rejects_bad_probe_set(self, tmp_path):
        supervisor = ShardSupervisor(None, shards=2,
                                     socket_path=str(tmp_path / "s.sock"))
        with pytest.raises(DaemonError, match="non-empty probe set"):
            supervisor.hot_swap("tree:static-agg", [])

    def test_start_twice_is_an_error(self, artifact, tmp_path):
        factory = functools.partial(classifier_factory, artifact)
        with ShardSupervisor(factory, shards=1,
                             socket_path=str(tmp_path / "s.sock"),
                             workers=1) as supervisor:
            with pytest.raises(DaemonError, match="already running"):
                supervisor.start()


class TestHealing:
    def test_check_once_respawns_a_killed_shard(
            self, trained, tiny_dataset, artifact, tmp_path):
        """Acceptance: crash detection -> respawn -> registry refresh."""
        rows = tiny_dataset.matrix(trained.feature_names_).tolist()
        expected = [int(trained.predict(row)) for row in rows]
        base = str(tmp_path / "heal.sock")
        factory = functools.partial(classifier_factory, artifact)
        with ShardSupervisor(factory, shards=2, socket_path=base,
                             workers=2, interval=MANUAL) as supervisor:
            old_pid = supervisor.pids[0]
            epoch_before = registry_epoch(base)
            os.kill(old_pid, signal.SIGKILL)
            assert _wait(lambda: not supervisor.alive()[0])

            assert supervisor.check_once() == [0]

            new_pid = supervisor.pids[0]
            assert supervisor.alive()[0]
            assert new_pid != old_pid
            registry = read_registry(base)
            assert {s["index"]: s["pid"] for s in registry} == \
                {0: new_pid, 1: supervisor.pids[1]}
            assert registry_epoch(base) > epoch_before
            assert _count(supervisor, "respawn", reason="exit") == 1
            assert _count(supervisor, "respawn") == 1
            # the replacement serves through the shared endpoint
            with ScoringClient(socket_path=base) as client:
                assert client.predict_pipelined(rows) == expected

    def test_background_thread_heals(self, trained, tiny_dataset,
                                     artifact, tmp_path):
        rows = tiny_dataset.matrix(trained.feature_names_).tolist()
        expected = [int(trained.predict(row)) for row in rows]
        base = str(tmp_path / "loop.sock")
        factory = functools.partial(classifier_factory, artifact)
        with ShardSupervisor(factory, shards=2, socket_path=base,
                             workers=2, interval=0.1) as supervisor:
            victim = supervisor.pids[1]
            os.kill(victim, signal.SIGKILL)
            assert _wait(lambda: supervisor.alive()[1]
                         and supervisor.pids[1] != victim)
            assert _wait(lambda: (read_registry(base) or [])
                         and {s["pid"] for s in read_registry(base)}
                         == set(supervisor.pids))
            with ScoringClient(socket_path=base) as client:
                assert client.predict_pipelined(rows) == expected

    def test_stop_reaps_respawned_children(self, artifact, tmp_path):
        """Satellite: a supervised respawn leaves no zombies behind."""
        base = str(tmp_path / "reap.sock")
        factory = functools.partial(classifier_factory, artifact)
        with ShardSupervisor(factory, shards=2, socket_path=base,
                             workers=2, interval=MANUAL) as supervisor:
            os.kill(supervisor.pids[0], signal.SIGKILL)
            assert _wait(lambda: not supervisor.alive()[0])
            assert supervisor.check_once() == [0]
        # stop() ran: both current shards and the retired corpse are
        # reaped -- no zombie children, no leftover endpoint files
        assert multiprocessing.active_children() == []
        assert not os.path.exists(base)

    def test_exit_seen_after_another_waiter_reaped_the_child(
            self, artifact, tmp_path):
        """An exit reaches the supervisor even when another waiter (an
        embedder's SIGCHLD handler, say) reaped the child first, and
        multiprocessing stops listing the dead child, whose pid its exit
        handler would otherwise SIGTERM after the kernel reused it."""
        base = str(tmp_path / "reaped.sock")
        factory = functools.partial(classifier_factory, artifact)
        with ShardSupervisor(factory, shards=2, socket_path=base,
                             workers=2, interval=MANUAL) as supervisor:
            pid = supervisor.pids[0]
            # holding the supervisor's lock keeps its own observer from
            # reaping the child before this test does
            with supervisor._lock:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            assert supervisor.check_once() == [0]
            assert _count(supervisor, "respawn", reason="exit") == 1
            assert supervisor.alive() == [True, True]
            assert supervisor.pids[0] != pid
            assert pid not in [child.pid for child in
                               multiprocessing.active_children()]


class TestServingMeansListening:
    def test_respawned_shard_shows_only_once_it_listens(
            self, trained, tiny_dataset, artifact, tmp_path):
        """While a replacement builds its scorer, neither ``alive()``
        nor ``pids`` report it; once it listens, both do."""
        rows = tiny_dataset.matrix(trained.feature_names_).tolist()
        expected = [int(trained.predict(row)) for row in rows]
        ctx = multiprocessing.get_context("fork")
        gate, entered = ctx.Event(), ctx.Event()
        gate.set()
        base = str(tmp_path / "gate.sock")
        factory = functools.partial(_gated_factory, artifact, gate, entered)
        with ShardSupervisor(factory, shards=2, socket_path=base,
                             workers=2, interval=MANUAL) as supervisor:
            old_pid = supervisor.pids[0]
            gate.clear()
            entered.clear()
            os.kill(old_pid, signal.SIGKILL)
            assert _wait(lambda: not supervisor.alive()[0])
            result: dict = {}
            respawn = threading.Thread(
                target=lambda: result.update(pid=supervisor.respawn(0)))
            respawn.start()
            try:
                assert entered.wait(20)  # forked, held before it binds
                for _ in range(5):
                    assert not supervisor.alive()[0]
                    assert supervisor.pids[0] is None
                    assert [s["index"] for s in read_registry(base)] == [1]
                    time.sleep(0.02)
            finally:
                gate.set()
                respawn.join(30)
            assert not respawn.is_alive()
            assert supervisor.pids[0] == result["pid"] != old_pid
            assert supervisor.alive() == [True, True]
            with ScoringClient(socket_path=f"{base}.0") as client:
                assert client.predict(rows[0]) == expected[0]


class TestDrainShard:
    def test_drain_retires_one_shard_gracefully(
            self, trained, tiny_dataset, artifact, tmp_path):
        rows = tiny_dataset.matrix(trained.feature_names_).tolist()
        expected = [int(trained.predict(row)) for row in rows]
        base = str(tmp_path / "drain.sock")
        factory = functools.partial(classifier_factory, artifact)
        with ShardSupervisor(factory, shards=2, socket_path=base,
                             workers=2, interval=0.1) as supervisor:
            pid = supervisor.pids[1]
            with _supervisor_log() as records:
                drained_pid = supervisor.drain_shard(1)
            assert drained_pid == pid
            assert supervisor.pids[1] is None
            assert not supervisor.alive()[1]
            # exit code 0: the shard finished its in-flight work and
            # ran its clean shutdown, it was not killed
            drains = [r for r in records if r["event"] == "drain"]
            assert drains == [{"event": "drain", "shard": 1,
                               "shard_pid": drained_pid, "exitcode": 0}]
            assert _count(supervisor, "drain") == 1
            assert [s["index"] for s in read_registry(base)] == [0]
            # the drained shard stays excluded: healing (the running
            # loop included) must not fight the operator by
            # resurrecting it
            time.sleep(0.5)
            assert supervisor.check_once() == []
            assert not supervisor.alive()[1]
            # the survivor keeps serving the shared endpoint
            with ScoringClient(socket_path=base) as client:
                assert client.predict_pipelined(rows) == expected

    def test_respawned_drained_shard_heals_again(
            self, trained, tiny_dataset, artifact, tmp_path):
        """Drain, respawn, SIGKILL the replacement: the next pass heals
        it like any never-drained shard."""
        rows = tiny_dataset.matrix(trained.feature_names_).tolist()
        expected = [int(trained.predict(row)) for row in rows]
        base = str(tmp_path / "redrain.sock")
        factory = functools.partial(classifier_factory, artifact)
        with ShardSupervisor(factory, shards=2, socket_path=base,
                             workers=2, interval=MANUAL) as supervisor:
            supervisor.drain_shard(0)
            replacement = supervisor.respawn(0)
            assert [s["index"] for s in read_registry(base)] == [0, 1]
            os.kill(replacement, signal.SIGKILL)
            assert _wait(lambda: not supervisor.alive()[0])

            assert supervisor.check_once() == [0]
            assert supervisor.alive()[0]
            assert supervisor.pids[0] != replacement
            with ScoringClient(socket_path=base) as client:
                assert client.predict_pipelined(rows) == expected


class TestRollingRestart:
    @pytest.mark.slow
    def test_restart_under_load_zero_failures(
            self, trained, tiny_dataset, artifact, tmp_path):
        """Acceptance: every pid turns over while a pipelined client
        hammers the fleet, and not one request fails."""
        rows = tiny_dataset.matrix(trained.feature_names_).tolist()
        expected = [int(trained.predict(row)) for row in rows]
        base = str(tmp_path / "roll.sock")
        factory = functools.partial(classifier_factory, artifact)
        with ShardSupervisor(factory, shards=2, socket_path=base,
                             workers=2) as supervisor:
            pids_before = list(supervisor.pids)
            done = threading.Event()
            outcomes: list = []

            def hammer() -> None:
                with ScoringClient(socket_path=base,
                                   reconnect_retries=8) as client:
                    while not done.is_set():
                        try:
                            got = client.predict_pipelined(rows, window=8)
                        except Exception as exc:
                            outcomes.append(exc)
                            return
                        outcomes.append(got == expected)

            load = threading.Thread(target=hammer)
            load.start()
            try:
                new_pids = supervisor.rolling_restart()
            finally:
                done.set()
                load.join(60)
            assert not load.is_alive()
            assert outcomes and all(o is True for o in outcomes)
            assert len(new_pids) == 2
            assert not set(new_pids) & set(pids_before)
            registry = read_registry(base)
            assert [s["pid"] for s in sorted(
                registry, key=lambda s: s["index"])] == new_pids
            assert new_pids == supervisor.pids
            assert _count(supervisor, "restart") == 2

    def test_failed_restart_is_healed_next_pass(
            self, trained, tiny_dataset, artifact, tmp_path):
        """A rolling restart whose respawn fails (artifact gone) hands
        the shard back to healing: once the artifact is restored, the
        next pass brings it up."""
        rows = tiny_dataset.matrix(trained.feature_names_).tolist()
        expected = [int(trained.predict(row)) for row in rows]
        base = str(tmp_path / "failroll.sock")
        factory = functools.partial(classifier_factory, artifact)
        with ShardSupervisor(factory, shards=2, socket_path=base,
                             workers=2, interval=MANUAL) as supervisor:
            os.rename(artifact, artifact + ".moved")
            with pytest.raises(DaemonError, match="died during startup"):
                supervisor.rolling_restart()
            os.rename(artifact + ".moved", artifact)
            assert not supervisor.alive()[0]

            assert supervisor.check_once() == [0]
            assert supervisor.alive() == [True, True]
            assert [s["index"] for s in read_registry(base)] == [0, 1]
            with ScoringClient(socket_path=base) as client:
                assert client.predict_pipelined(rows) == expected


class TestHotSwap:
    def test_canary_gate_then_promote_byte_identical(
            self, trained, tiny_dataset, tmp_path):
        """Acceptance: warm -> canary-score -> promote, and every
        shard's default route answers byte-identically."""
        agg = Classifier(ReproConfig(
            profile="unit", feature_set="static-agg")).train(tiny_dataset)
        paths = {TREE: str(tmp_path / "tree.json"),
                 AGG: str(tmp_path / "agg.json")}
        trained.save(paths[TREE])
        agg.save(paths[AGG])
        rows = tiny_dataset.matrix(agg.feature_names_).tolist()
        expected = tuple(int(agg.predict(row)) for row in rows)

        base = str(tmp_path / "swap.sock")
        factory = functools.partial(_variant_fleet_factory, paths)
        with ShardSupervisor(factory, shards=2, socket_path=base,
                             workers=2) as supervisor:
            # a wrong expectation aborts before any traffic shifts
            wrong = tuple((v + 1) % 4 for v in expected)
            with pytest.raises(DaemonError, match="diverge"):
                supervisor.hot_swap("tree:static-agg", rows,
                                    expected=wrong)
            with AdminClient(socket_path=f"{base}.0") as admin:
                assert admin.list_models().default.model == TREE

            report = supervisor.hot_swap("tree:static-agg", rows,
                                         expected=expected)
            assert isinstance(report, HotSwapReport)
            assert report.model == AGG
            assert report.promoted == (0, 1)
            assert report.predictions == expected
            assert report.shard_predictions == (expected, expected)
            assert report.identical

            # both shards now serve the new model on the default route
            for index in range(2):
                with AdminClient(socket_path=f"{base}.{index}") as admin:
                    assert admin.list_models().default.model == AGG
            with ScoringClient(socket_path=base) as client:
                assert client.predict_batch(rows) == list(expected)
            assert _count(supervisor, "hot_swap") == 1


class TestFleetCli:
    def test_stats_health_and_rolling_restart(self, artifact, tmp_path,
                                              capsys):
        """``repro fleet`` drives a live 2-shard supervised deployment."""
        base = str(tmp_path / "cli.sock")
        factory = functools.partial(classifier_factory, artifact)
        with ShardSupervisor(factory, shards=2, socket_path=base,
                             workers=2, interval=0.1) as supervisor:
            assert cli_main(["fleet", "stats", "--socket", base]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert len(stats["shards"]) == 2
            assert not any("error" in row for row in stats["shards"])
            assert cli_main(["fleet", "health", "--socket", base,
                             "--shard", "0"]) == 0
            out = capsys.readouterr().out
            assert out.startswith("serving shard 0 ")
            old = list(supervisor.pids)
            assert cli_main(["fleet", "restart", "--socket", base]) == 0
            out = capsys.readouterr().out
            assert "rolling restart complete" in out
            new = supervisor.pids
            assert all(n != o for n, o in zip(new, old))
            assert {s["pid"] for s in read_registry(base)} == set(new)


class _Fake:
    """A shard process as :class:`SupervisorLifecycle` plays it."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.listening = False
        self.drained = False  # got the drain verb
        self.dead = False


class SupervisorLifecycle(RuleBasedStateMachine):
    """One :class:`ShardTable` driven the way :class:`ShardSupervisor`
    drives it, against fake processes.

    The machine applies the actions the table answers with the way the
    supervisor's apply step does: a registry write first, then
    terminations (the fake dies at once and its exit is fed back), drain
    verbs, and forks.  Fake processes bind and report ready, or exit,
    whenever a step picks them.  Health-pass steps (a probe of one
    serving shard, the heal phase) and operator steps (drain, respawn,
    one step of a rolling restart, stop, start) are separate rules, so
    hypothesis draws their interleavings.
    """

    @initialize(n=st.integers(1, 3))
    def begin(self, n: int) -> None:
        self.n = n
        self.table = ShardTable(f"fleet.sock.{i}" for i in range(n))
        self.procs: dict = {}  # pid -> _Fake
        self.next_pid = 100
        self.registry = None  # the last rows written, as {index: pid}
        self.epoch = 0
        self.claimed: set = set()  # drained by an operator, not respawned
        self.restart = None  # (index, phase) of a rolling restart
        self._apply(self.table.start())

    # -- the supervisor's side --------------------------------------------

    def _apply(self, actions) -> None:
        for action in actions:
            if action[0] == "registry":
                _, rows, epoch = action
                assert epoch > self.epoch  # the epoch only rises
                self.epoch = epoch
                self.registry = (None if rows is None
                                 else {r["index"]: r["pid"] for r in rows})
        for kind, arg, *_ in actions:
            if kind == "terminate":
                self._die(arg, -15)
        for kind, arg, *_ in actions:
            if kind == "drain":
                self.procs[self.table.shards[arg].pid].drained = True
        for kind, arg, *_ in actions:
            if kind == "spawn":
                # no shard is replaced by two actors: its old process
                # is gone before a new one is forked
                assert not any(p.index == arg and not p.dead
                               for p in self.procs.values())
                pid, self.next_pid = self.next_pid, self.next_pid + 1
                self.procs[pid] = _Fake(arg)
                self._apply(self.table.spawned(arg, pid))

    def _die(self, pid: int, code: int) -> None:
        self.procs[pid].dead = True
        self._apply(self.table.exited(pid, code))

    def _serving(self) -> dict:
        """The model's serving shards: the newest process of a shard,
        listening, not told to drain, not dead."""
        newest = {p.index: pid for pid, p in sorted(self.procs.items())}
        return {i: pid for i, pid in newest.items()
                if self.procs[pid].listening
                and not self.procs[pid].drained
                and not self.procs[pid].dead
                and not self.table.stopped}

    def _pick(self, pids: list, k: int):
        return sorted(pids)[k % len(pids)] if pids else None

    # -- the processes -----------------------------------------------------

    @rule(k=st.integers(0, 7))
    def listen(self, k: int) -> None:
        pid = self._pick([pid for pid, p in self.procs.items()
                          if not p.dead and not p.listening], k)
        if pid is not None:
            self.procs[pid].listening = True
            self._apply(self.table.ready(pid))

    @rule(k=st.integers(0, 7), code=st.sampled_from([0, -9]))
    def exit(self, k: int, code: int) -> None:
        """A crash, or a drained shard finishing its work."""
        pid = self._pick([pid for pid, p in self.procs.items()
                          if not p.dead], k)
        if pid is not None:
            self._die(pid, code)

    # -- the health loop ---------------------------------------------------

    @rule(k=st.integers(0, 7), ok=st.booleans())
    def probe(self, k: int, ok: bool) -> None:
        pid = self._pick([row["pid"] for row in self.table.rows()], k)
        if pid is not None:
            self._apply(self.table.probed(pid, ok))

    @rule()
    def heal(self) -> None:
        """The heal phase of a pass: one shard at a time, in order."""
        for index in range(self.n):
            actions = self.table.heal(index)
            if index in self.claimed:
                assert actions == []  # a claimed shard is never healed
            self._apply(actions)

    # -- the operator ------------------------------------------------------

    def _drain(self, index: int) -> None:
        self._apply(self.table.drain(index))
        self.claimed.add(index)
        # never fewer than N-1 serving by an operator's hand
        assert len(self._serving()) >= self.n - 1

    def _respawn(self, index: int) -> None:
        self._apply(self.table.respawn(index))
        self.claimed.discard(index)

    @rule(index=st.integers(0, 2))
    def drain(self, index: int) -> None:
        with contextlib.suppress(DaemonError):
            self._drain(index % self.n)

    @rule(index=st.integers(0, 2))
    def respawn(self, index: int) -> None:
        index %= self.n
        try:
            self._respawn(index)
        except DaemonError:
            assert self.table.stopped or any(
                p.index == index and not p.dead for p in self.procs.values())

    @precondition(lambda self: not self.table.stopped)
    @rule()
    def restart_step(self) -> None:
        """One step of :meth:`ShardSupervisor.rolling_restart`: drain
        shard i once every other shard serves, respawn it once it
        exited, move on once its replacement left ``starting``."""
        index, phase = self.restart or (0, "drain")
        shards = self.table.shards
        state = shards[index].state
        if phase == "drain":
            if all(s.state == SERVING for j, s in enumerate(shards)
                   if j != index) and state in (SERVING, EXITED):
                self._drain(index)
                phase = "respawn"
        elif phase == "respawn":
            if state == EXITED:
                self._respawn(index)
                phase = "ready"
            elif state != DRAINING:
                phase = "ready"  # replaced meanwhile
        elif state != STARTING:
            index, phase = index + 1, "drain"
        self.restart = (index, phase) if index < self.n else None

    @rule()
    def stop(self) -> None:
        live = {pid for pid, p in self.procs.items() if not p.dead}
        actions = self.table.stop()
        # every process not seen exiting is terminated, replaced or not
        assert {a[1] for a in actions if a[0] == "terminate"} == live
        self.claimed.clear()
        self.restart = None
        self._apply(actions)
        assert self.registry is None

    @precondition(lambda self: self.table.stopped)
    @rule()
    def start(self) -> None:
        self._apply(self.table.start())

    # -- invariants --------------------------------------------------------

    @invariant()
    def registry_lists_only_serving_shards(self) -> None:
        serving = self._serving()
        assert (self.registry or {}) == serving
        assert self.table.pids() == [serving.get(i) for i in range(self.n)]
        assert self.table.epoch == self.epoch


class TestSupervisorLifecycle:
    """The invariants of :class:`SupervisorLifecycle` on hypothesis-chosen
    event sequences; the long run is ``slow``."""

    def test_lifecycle(self):
        run_state_machine_as_test(SupervisorLifecycle, settings=settings(
            max_examples=150, stateful_step_count=20, deadline=None))

    @pytest.mark.slow
    def test_lifecycle_long(self):
        run_state_machine_as_test(SupervisorLifecycle, settings=settings(
            max_examples=2000, stateful_step_count=40, deadline=None))
