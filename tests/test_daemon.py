"""Tests for the persistent scoring daemon and its wire client."""

import collections
import json
import os
import selectors
import socket
import threading
import time
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from repro.api import Classifier, ReproConfig, ScoringClient, ScoringDaemon
from repro.api import registry as api_registry
from repro.api.daemon import parse_tcp_endpoint
from repro.errors import DaemonError, ScoringError


@pytest.fixture()
def trained(tiny_dataset) -> Classifier:
    config = ReproConfig(profile="unit")
    return Classifier(config).train(tiny_dataset)


@pytest.fixture()
def unix_path(tmp_path) -> str:
    return str(tmp_path / "repro.sock")


def _raw_exchange(sock_path: str, lines: list) -> list:
    """Send raw protocol lines over one connection, return the frames."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(sock_path)
    with sock, sock.makefile("rw", encoding="utf-8") as stream:
        responses = []
        for line in lines:
            stream.write(line + "\n")
            stream.flush()
            responses.append(json.loads(stream.readline()))
        return responses


class TestScoringDaemonUnix:
    def test_round_trip_matches_local(self, trained, tiny_dataset,
                                      unix_path):
        X = tiny_dataset.matrix(trained.feature_names_)
        with ScoringDaemon(trained, socket_path=unix_path, workers=2):
            with ScoringClient(socket_path=unix_path) as client:
                assert client.predict_batch(X) == \
                    [int(p) for p in trained.predict_batch(X)]
                mapping = dict(zip(trained.feature_names_, X[0]))
                assert client.predict(mapping) == trained.predict(X[0])
                assert client.predict(list(X[1])) == trained.predict(X[1])
                assert client.predict_kernel("gemm", size=512) in \
                    range(1, 9)
                assert client.info()["model_family"] == "tree"

    def test_sixteen_concurrent_clients_byte_identical(
            self, trained, tiny_dataset, unix_path):
        """Acceptance: >= 16 concurrent clients, predictions identical
        to a local Classifier.predict_batch."""
        X = tiny_dataset.matrix(trained.feature_names_)
        expected = [int(p) for p in trained.predict_batch(X)]
        n_clients = 16
        barrier = threading.Barrier(n_clients)
        results: list = [None] * n_clients
        errors: list = []

        def worker(slot: int) -> None:
            try:
                with ScoringClient(socket_path=unix_path) as client:
                    barrier.wait(timeout=30)  # all 16 connected at once
                    batches = [client.predict_batch(X) for _ in range(3)]
                    singles = [client.predict(list(row)) for row in X[:4]]
                    results[slot] = (batches, singles)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        daemon = ScoringDaemon(trained, socket_path=unix_path,
                               workers=n_clients)
        with daemon:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n_clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        stats = daemon.stats()  # post-stop: all handlers have drained
        assert not errors
        for batches, singles in results:
            assert batches == [expected] * 3
            assert singles == expected[:4]
        assert stats["connections_served"] == n_clients
        assert stats["requests_served"] == n_clients * (3 + 4)

    def test_model_loaded_once_under_traffic(self, trained, tiny_dataset,
                                             tmp_path, unix_path,
                                             monkeypatch):
        """One daemon lifetime = exactly one artifact load, however many
        requests and connections it serves."""
        artifact = str(tmp_path / "model.json")
        trained.save(artifact)
        loads = {"n": 0}
        family = api_registry.model_family("tree")

        def counting_from_payload(payload):
            loads["n"] += 1
            return family.from_payload(payload)

        monkeypatch.setitem(
            api_registry._MODEL_FAMILIES, "tree",
            dc_replace(family, from_payload=counting_from_payload))
        clf = Classifier.load(artifact)
        assert loads["n"] == 1
        X = tiny_dataset.matrix(clf.feature_names_)
        with ScoringDaemon(clf, socket_path=unix_path, workers=4):
            for _ in range(10):
                with ScoringClient(socket_path=unix_path) as client:
                    for row in X[:10]:
                        client.predict(list(row))
        assert loads["n"] == 1

    def test_error_frames_do_not_kill_the_connection(self, trained,
                                                     unix_path):
        n_features = len(trained.feature_names_)
        with ScoringDaemon(trained, socket_path=unix_path, workers=1):
            frames = _raw_exchange(unix_path, [
                "this is not json",
                json.dumps({"features": {"op": 1.0}, "id": 7}),
                json.dumps({"rows": [[1.0, 2.0]], "id": 8}),
                json.dumps({"features": [0.0] * n_features, "id": 9}),
            ])
        assert [f["ok"] for f in frames] == [False, False, False, True]
        assert frames[0]["code"] == "invalid_json"
        assert frames[1]["code"] == "bad_request"
        assert frames[1]["id"] == 7
        assert "missing" in frames[1]["error"]
        assert frames[2]["code"] == "bad_request"
        assert frames[3]["id"] == 9

    def test_internal_error_frame_carries_id_and_code(
            self, trained, unix_path, monkeypatch):
        """An unexpected server-side exception must answer a typed
        'internal' frame with the request id — the client surfaces the
        daemon's code, not a spurious id mismatch — and the serving
        loop must survive it."""
        daemon = ScoringDaemon(trained, socket_path=unix_path, workers=1)
        real_handle = daemon.fleet.handle_request
        blow_up = {"armed": True}

        def exploding_handle(request):
            if blow_up["armed"]:
                raise RuntimeError("synthetic server bug")
            return real_handle(request)

        monkeypatch.setattr(daemon.fleet, "handle_request",
                            exploding_handle)
        with daemon:
            with ScoringClient(socket_path=unix_path) as client:
                with pytest.raises(ScoringError,
                                   match="synthetic") as excinfo:
                    client.info()
                assert excinfo.value.code == "internal"
                blow_up["armed"] = False
                # same connection keeps serving after the internal error
                assert client.info()["model_family"] == "tree"

    def test_clean_shutdown(self, trained, unix_path):
        daemon = ScoringDaemon(trained, socket_path=unix_path, workers=2)
        daemon.start()
        assert daemon.engine is not None
        client = ScoringClient(socket_path=unix_path)
        assert client.info()["model_family"] == "tree"
        daemon.stop()
        assert daemon.engine is None
        assert not os.path.exists(unix_path)
        with pytest.raises(ScoringError):
            client.request({"cmd": "info"})
        client.close()
        daemon.stop()  # idempotent

    def test_restart_after_stop(self, trained, unix_path):
        daemon = ScoringDaemon(trained, socket_path=unix_path, workers=1)
        daemon.start()
        daemon.stop()
        daemon.start()
        try:
            with ScoringClient(socket_path=unix_path) as client:
                assert client.info()["n_features"] == \
                    len(trained.feature_names_)
        finally:
            daemon.stop()

    def test_stale_socket_file_is_reclaimed(self, trained, unix_path):
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(unix_path)
        stale.close()  # leaves the filesystem entry behind
        assert os.path.exists(unix_path)
        with ScoringDaemon(trained, socket_path=unix_path, workers=1):
            with ScoringClient(socket_path=unix_path) as client:
                assert client.info()["model_family"] == "tree"

    def test_live_socket_is_not_stolen(self, trained, unix_path):
        with ScoringDaemon(trained, socket_path=unix_path, workers=1):
            second = ScoringDaemon(trained, socket_path=unix_path,
                                   workers=1)
            with pytest.raises(DaemonError, match="live"):
                second.start()
            with ScoringClient(socket_path=unix_path) as client:
                assert client.info()["model_family"] == "tree"

    def test_path_appears_already_listening(self, trained, tmp_path,
                                            monkeypatch):
        """A client that connects the moment the path exists is never
        refused, start after start, and no temporary name is left.  A
        slowed ``listen`` widens the window a bind at the path would
        leave open."""
        unix_path = str(tmp_path / "repro.sock")
        daemon = ScoringDaemon(trained, socket_path=unix_path, workers=1)
        refused = []
        listen = socket.socket.listen

        def slow_listen(sock, *args):
            time.sleep(0.002)
            return listen(sock, *args)

        monkeypatch.setattr(socket.socket, "listen", slow_listen)

        def connect_on_sight():
            while not os.path.exists(unix_path):
                pass
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
                try:
                    probe.connect(unix_path)
                except ConnectionRefusedError as exc:
                    refused.append(exc)

        for _ in range(20):
            watcher = threading.Thread(target=connect_on_sight)
            watcher.start()
            daemon.start()
            watcher.join(10.0)
            daemon.stop()
            assert os.listdir(tmp_path) == []
        assert refused == []

    def test_path_at_the_sun_path_limit(self, trained, tmp_path):
        """The temporary name is no longer than the path, so a path
        that fits ``sun_path`` (107 bytes and a NUL on Linux) binds."""
        room = 107 - len(os.fsencode(str(tmp_path))) - 1
        if room < 2:
            pytest.skip("the temporary directory's path is too long")
        for name in ("s", "s" * room):
            unix_path = str(tmp_path / name)
            with ScoringDaemon(trained, socket_path=unix_path, workers=1):
                with ScoringClient(socket_path=unix_path) as client:
                    assert client.info()["model_family"] == "tree"
            assert os.listdir(tmp_path) == []

    def test_non_socket_path_is_refused(self, trained, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{}")
        daemon = ScoringDaemon(trained, socket_path=str(path), workers=1)
        with pytest.raises(DaemonError, match="not a socket"):
            daemon.start()
        assert path.exists()  # the innocent file survives


class TestScoringDaemonTcp:
    def test_ephemeral_port_round_trip(self, trained, tiny_dataset):
        X = tiny_dataset.matrix(trained.feature_names_)
        daemon = ScoringDaemon(trained, tcp=("127.0.0.1", 0), workers=2)
        with daemon:
            kind, host, port = daemon.address
            assert kind == "tcp" and port > 0
            with ScoringClient(tcp=(host, port)) as client:
                assert client.predict_batch(X) == \
                    [int(p) for p in trained.predict_batch(X)]

    def test_parse_tcp_endpoint(self):
        assert parse_tcp_endpoint("127.0.0.1:7878") == ("127.0.0.1", 7878)
        assert parse_tcp_endpoint("localhost:0") == ("localhost", 0)
        with pytest.raises(DaemonError):
            parse_tcp_endpoint("no-port")
        with pytest.raises(DaemonError):
            parse_tcp_endpoint("host:notaport")
        with pytest.raises(DaemonError):
            parse_tcp_endpoint(":7878")


class TestDaemonValidation:
    def test_requires_exactly_one_transport(self, trained):
        with pytest.raises(DaemonError, match="exactly one"):
            ScoringDaemon(trained)
        with pytest.raises(DaemonError, match="exactly one"):
            ScoringDaemon(trained, socket_path="/tmp/x",
                          tcp=("127.0.0.1", 0))

    def test_requires_fitted_classifier(self, unix_path):
        with pytest.raises(DaemonError, match="not fitted"):
            ScoringDaemon(Classifier(), socket_path=unix_path)

    def test_requires_positive_workers(self, trained, unix_path):
        with pytest.raises(DaemonError, match="workers"):
            ScoringDaemon(trained, socket_path=unix_path, workers=0)

    def test_cli_rejects_socket_and_tcp_together(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["serve", "--socket", "/tmp/x", "--tcp", "h:1"])


class TestScoringClient:
    def _fake_server(self, unix_path, reply_lines):
        """A one-connection server replying with canned lines."""
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(unix_path)
        listener.listen(1)

        def run():
            conn, _ = listener.accept()
            with conn:
                conn.makefile("r").readline()  # swallow the request
                for line in reply_lines:
                    conn.sendall((line + "\n").encode())

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return listener

    def test_requires_exactly_one_endpoint(self):
        with pytest.raises(ScoringError, match="exactly one"):
            ScoringClient()

    def test_unreachable_endpoint(self, tmp_path):
        with pytest.raises(ScoringError, match="cannot connect"):
            ScoringClient(socket_path=str(tmp_path / "nowhere.sock"))

    def test_id_mismatch_raises(self, unix_path):
        listener = self._fake_server(
            unix_path, [json.dumps({"ok": True, "id": 999})])
        try:
            client = ScoringClient(socket_path=unix_path)
            with pytest.raises(ScoringError,
                               match="desynchronized") as excinfo:
                client.request({"cmd": "info"})
            assert excinfo.value.code == "id_mismatch"
            client.close()
        finally:
            listener.close()

    def test_eof_raises_transport_error(self, unix_path):
        listener = self._fake_server(unix_path, [])
        try:
            # reconnection would re-dial the fake one-shot server and
            # wait out the timeout; the no-retry path must still raise
            # a clean typed error
            client = ScoringClient(socket_path=unix_path,
                                   reconnect_retries=0)
            with pytest.raises(ScoringError) as excinfo:
                client.request({"cmd": "info"})
            assert excinfo.value.code == "transport"
            client.close()
        finally:
            listener.close()

    def test_undecodable_frame_raises(self, unix_path):
        listener = self._fake_server(unix_path, ["not json at all"])
        try:
            client = ScoringClient(socket_path=unix_path)
            with pytest.raises(ScoringError, match="undecodable"):
                client.request({"cmd": "info"})
            client.close()
        finally:
            listener.close()

    def test_typed_error_carries_daemon_code(self, trained, unix_path):
        with ScoringDaemon(trained, socket_path=unix_path, workers=1):
            with ScoringClient(socket_path=unix_path) as client:
                with pytest.raises(ScoringError) as excinfo:
                    client.predict({"op": 1.0})
                assert excinfo.value.code == "bad_request"
                assert excinfo.value.request_id == 0
                # the connection survives the error
                assert client.info()["model_family"] == "tree"

    def test_closed_client_raises(self, trained, unix_path):
        with ScoringDaemon(trained, socket_path=unix_path, workers=1):
            client = ScoringClient(socket_path=unix_path)
            client.close()
            client.close()  # idempotent
            with pytest.raises(ScoringError, match="closed"):
                client.request({"cmd": "info"})


class TestSequentialWorkCount:
    """A lone connection of sequential JSON predicts costs each request
    one ``select``, one ``recv_into`` and one ``send`` on the daemon's
    loop and one ``sendall`` and one ``recv`` on the client, counted
    through wrappers installed here."""

    def test_one_call_of_each_per_request(self, trained, tiny_dataset,
                                          unix_path, monkeypatch):
        counts = collections.Counter()
        loop = "repro-ioloop"

        def count(cls, name, thread):
            original = getattr(cls, name)

            def counted(self, *args, **kwargs):
                # counted before the call: a send is counted before its
                # answer can reach the client
                if threading.current_thread().name == thread:
                    counts[name] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counted)

        select = selectors.DefaultSelector.select

        def counted_select(self, timeout=None):
            events = select(self, timeout)
            # counted on return, leaving out an idle timeout
            on_loop = threading.current_thread().name == loop
            if on_loop and (events or timeout == 0):
                counts["select"] += 1
            return events

        monkeypatch.setattr(selectors.DefaultSelector, "select",
                            counted_select)
        for name in ("recv_into", "send"):
            count(socket.socket, name, loop)
        for name in ("sendall", "recv"):
            count(socket.socket, name, threading.current_thread().name)
        rows = tiny_dataset.matrix(trained.feature_names_).tolist()
        n = 200
        with ScoringDaemon(trained, socket_path=unix_path, workers=1):
            with ScoringClient(socket_path=unix_path) as client:
                for row in rows[:20]:  # warm-up
                    client.predict(row)
                counts.clear()
                for i in range(n):
                    client.predict(rows[i % len(rows)])
                client_counts = {k: counts[k] for k in ("sendall", "recv")}
                daemon_counts = {k: counts[k]
                                 for k in ("select", "recv_into", "send")}
        assert client_counts == {"sendall": n, "recv": n}
        assert all(1 <= c <= n for c in daemon_counts.values()), daemon_counts


class TestCollectStats:
    """collect_stats must survive shards dying under it (the registry
    read -> connect window is an unavoidable race)."""

    def test_dead_shard_becomes_error_row(self, trained, tmp_path):
        from repro.api.admin import collect_stats
        from repro.api.shard import write_registry

        live = str(tmp_path / "live.sock")
        dead = str(tmp_path / "dead.sock")  # never bound
        base = str(tmp_path / "fleet.sock")
        with ScoringDaemon(trained, socket_path=live, workers=1):
            with ScoringClient(socket_path=live) as client:
                client.predict([0.0] * len(trained.feature_names_))
            write_registry(base, [
                {"index": 0, "path": live, "pid": os.getpid()},
                {"index": 1, "path": dead, "pid": 999999},
            ])
            stats = collect_stats(base, timeout=2.0)
        assert len(stats["shards"]) == 2
        ok_row, err_row = stats["shards"]
        assert "error" not in ok_row
        assert err_row["shard"] == {"index": 1, "path": dead}
        assert err_row["error"]
        assert err_row["code"] == "transport"
        # the live shard's counters still aggregate
        assert stats["requests_served"] >= 1
        assert stats["connections_served"] >= 1

    def test_all_shards_dead_still_returns(self, tmp_path):
        from repro.api.admin import collect_stats
        from repro.api.shard import write_registry

        base = str(tmp_path / "fleet.sock")
        write_registry(base, [
            {"index": 0, "path": str(tmp_path / "a.sock"), "pid": 1},
            {"index": 1, "path": str(tmp_path / "b.sock"), "pid": 2},
        ])
        stats = collect_stats(base, timeout=2.0)
        assert [r["shard"]["index"] for r in stats["shards"]] == [0, 1]
        assert all(r["error"] for r in stats["shards"])
        assert stats["requests_served"] == 0
        assert stats["codec"] is None

    def test_plain_dead_endpoint_is_one_error_row(self, tmp_path):
        from repro.api.admin import collect_stats

        stats = collect_stats(str(tmp_path / "gone.sock"), timeout=2.0)
        (row,) = stats["shards"]
        assert row["error"]
        assert row["code"] == "transport"


class TestSmokeScript:
    def test_daemon_smoke_main(self, capsys):
        from scripts.daemon_smoke import main as smoke_main
        assert smoke_main(["--rows", "24", "--clients", "3"]) == 0
        out = capsys.readouterr().out
        assert "daemon smoke OK" in out

    @pytest.mark.slow
    def test_kill_storm_smoke_main(self, capsys):
        from scripts.daemon_smoke import main as smoke_main
        assert smoke_main(["--kill-storm", "--rows", "24",
                           "--clients", "2", "--storm-kills", "2"]) == 0
        out = capsys.readouterr().out
        assert "kill-storm smoke OK" in out
        assert "zero failures" in out

    def test_byte_identity_diff_is_actionable(self):
        from scripts.daemon_smoke import SmokeFailure, check_identical

        check_identical("leg", [1, 2, 3], [1, 2, 3])  # identical: quiet
        with pytest.raises(SmokeFailure) as excinfo:
            check_identical("client 2 batch", list(range(40)),
                            [0, 9] + list(range(2, 40)))
        message = str(excinfo.value)
        assert "client 2 batch" in message
        assert "row 1: got 1, want 9" in message
        with pytest.raises(SmokeFailure, match="length mismatch"):
            check_identical("leg", [1, 2], [1])
        with pytest.raises(SmokeFailure, match="and 2 more"):
            check_identical("leg", [0] * 12, [1] * 12)

    def test_smoke_failure_exits_nonzero(self, capsys, monkeypatch):
        """A diverging prediction must turn into exit 1 + a diff on
        stderr, not a traceback."""
        import scripts.daemon_smoke as smoke

        real = smoke.check_identical

        def sabotage(label, got, want):
            if label.startswith("client 0 batch"):
                got = list(got)
                got[0] += 1
            real(label, got, want)

        monkeypatch.setattr(smoke, "check_identical", sabotage)
        assert smoke.main(["--rows", "12", "--clients", "2"]) == 1
        err = capsys.readouterr().err
        assert "daemon smoke FAILED" in err
        assert "client 0 batch" in err
        assert "row 0: got" in err


def test_predictions_byte_identical_to_predict_batch_json(
        trained, tiny_dataset, tmp_path):
    """The wire responses round-trip through JSON byte-identically to a
    local predict_batch (ints, not floats or numpy scalars)."""
    X = tiny_dataset.matrix(trained.feature_names_)
    local = json.dumps([int(p) for p in trained.predict_batch(X)])
    unix_path = str(tmp_path / "repro.sock")
    with ScoringDaemon(trained, socket_path=unix_path, workers=1):
        frames = _raw_exchange(
            unix_path, [json.dumps({"rows": X.tolist()})])
    assert json.dumps(frames[0]["predictions"]) == local
    assert np.asarray(frames[0]["predictions"]).dtype.kind == "i"
