"""Self-healing shard supervision (:mod:`repro.api.supervisor`).

Covers the registry epoch, supervisor argument validation, crash ->
respawn healing (direct ``check_once`` and the background thread),
graceful drain, healing of a drained-then-respawned shard and of a
failed rolling restart, rolling restart under sustained pipelined load
(zero failed requests), the zero-downtime hot swap (canary-score then
promote, byte-identical everywhere), zombie-free shutdown after a
supervised respawn and the ``repro fleet`` operator CLI against a
live 2-shard deployment.

Tests that drive :meth:`ShardSupervisor.check_once` by hand run the
health loop with an interval (``MANUAL``) no test outlives, so the
background pass never races them.
"""

import functools
import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

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
        with pytest.raises(DaemonError, match="no shard with index"):
            supervisor.hot_swap("tree:static-agg", [[0.0]], canary=5)

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
            events = [e for e in supervisor.events
                      if e["event"] == "respawn"]
            assert events == [{"event": "respawn", "shard": 0,
                               "pid": new_pid, "reason": "exit"}]
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
            drained_pid = supervisor.drain_shard(1, timeout=30.0)
            assert drained_pid == pid == supervisor.pids[1]
            assert not supervisor.alive()[1]
            # exit code 0: the shard finished its in-flight work and
            # ran its clean shutdown, it was not killed
            drains = [e for e in supervisor.events if e["event"] == "drain"]
            assert drains == [{"event": "drain", "shard": 1,
                               "pid": drained_pid, "exitcode": 0}]
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
            supervisor.drain_shard(0, timeout=30.0)
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
            assert sorted(s["pid"] for s in registry) == sorted(new_pids)
            restarted = [e["shard"] for e in supervisor.events
                         if e["event"] == "restart"]
            assert restarted == [0, 1]

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
            assert report.canary_shard == 0
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
            swaps = [e for e in supervisor.events
                     if e["event"] == "hot_swap"]
            assert swaps == [{"event": "hot_swap", "shard": None,
                              "model": AGG, "identical": True}]


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
