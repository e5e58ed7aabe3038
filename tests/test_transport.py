"""Tests for the unified transport core, sharding and pipelining.

Covers the ISSUE 5 acceptance surface: byte-identical frames across
the stdio / classifier-daemon / fleet-daemon serving paths, the
``{"cmd": "stats"}`` verb, the pipelined client (bounded in-flight
window, out-of-order completion, typed error frames mid-pipeline,
reconnect-with-resend), and process-level sharding (1 vs N shard
byte-identity, crash -> retry lands on a live shard, registry
lifecycle, SO_REUSEPORT TCP).
"""

import functools
import io
import json
import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.api import (
    AdminClient,
    Classifier,
    ModelFleet,
    ReproConfig,
    ScoringClient,
    ScoringDaemon,
    ShardManager,
    classifier_factory,
    serve,
)
from repro.api.client import DEFAULT_PIPELINE_WINDOW
from repro.api.shard import read_registry, shard_socket_path, write_registry
from repro.api.transport import RequestEngine
from repro.api.wire import (
    BINARY_V2_CODEC,
    CODEC_BINARY_V2,
    CODEC_JSON,
    FRAME_JSON,
    HEADER,
    JSON_CODEC,
    NO_ID,
    WireSession,
)
from repro.errors import DaemonError, ScoringError


@pytest.fixture()
def trained(tiny_dataset) -> Classifier:
    return Classifier(ReproConfig(profile="unit")).train(tiny_dataset)


@pytest.fixture()
def unix_path(tmp_path) -> str:
    return str(tmp_path / "repro.sock")


@pytest.fixture()
def artifact(trained, tmp_path) -> str:
    path = str(tmp_path / "model.json")
    trained.save(path)
    return path


def _raw_exchange(sock_path: str, lines: list) -> list:
    """Send raw protocol lines over one connection; return raw frames."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30.0)
    sock.connect(sock_path)
    frames = []
    with sock:
        reader = sock.makefile("rb")
        for line in lines:
            sock.sendall((line + "\n").encode("utf-8"))
            frames.append(reader.readline())
    return frames


def _request_lines(trained, tiny_dataset) -> list:
    X = tiny_dataset.matrix(trained.feature_names_)
    mapping = dict(zip(trained.feature_names_, map(float, X[0])))
    return [
        json.dumps({"features": list(map(float, X[0])), "id": 1}),
        json.dumps({"features": mapping, "id": 2}),
        json.dumps({"rows": X[:4].tolist(), "id": 3}),
        json.dumps({"cmd": "info", "id": 4}),
        "this is not json",
        json.dumps({"features": {"bogus": 1.0}, "id": 5}),
        json.dumps({"cmd": "frobnicate", "id": 6}),
        json.dumps({"features": list(map(float, X[1]))}),  # no id
    ]


class TestByteIdenticalAcrossTransports:
    def test_three_serving_paths_emit_identical_frames(
            self, trained, tiny_dataset, tmp_path):
        """Acceptance: stdio, a classifier daemon and a fleet daemon all
        dispatch through the shared engine and answer byte-identical
        frames for the same request lines."""
        lines = _request_lines(trained, tiny_dataset)

        # (a) stdio
        out = io.StringIO()
        serve(trained, io.StringIO("\n".join(lines) + "\n"), out)
        stdio_frames = [(f + "\n").encode("utf-8")
                        for f in out.getvalue().splitlines()]

        # (b) classifier daemon (a one-model fleet)
        classifier_path = str(tmp_path / "classifier.sock")
        with ScoringDaemon(trained, socket_path=classifier_path,
                           workers=2):
            classifier_frames = _raw_exchange(classifier_path, lines)

        # (c) fleet daemon (same pinned model)
        fleet_path = str(tmp_path / "fleet.sock")
        fleet = ModelFleet(default=trained)
        with ScoringDaemon(fleet=fleet, socket_path=fleet_path,
                           workers=2):
            fleet_frames = _raw_exchange(fleet_path, lines)

        assert stdio_frames == classifier_frames
        assert classifier_frames == fleet_frames
        # sanity: the lines exercised success, error and id-less paths
        decoded = [json.loads(f) for f in stdio_frames]
        assert [f["ok"] for f in decoded] == \
            [True, True, True, True, False, False, False, True]


class TestStatsVerb:
    def test_stdio_stats(self, trained):
        out = io.StringIO()
        serve(trained, io.StringIO('{"cmd": "stats", "id": 9}\n'), out)
        frame = json.loads(out.getvalue())
        assert frame["ok"] is True and frame["id"] == 9
        assert isinstance(frame["stats"], dict)

    def test_classifier_daemon_stats(self, trained, unix_path):
        with ScoringDaemon(trained, socket_path=unix_path, workers=2):
            with ScoringClient(socket_path=unix_path) as client:
                client.info()
                stats = AdminClient(client).stats()
        server = stats["server"]
        assert server["requests_served"] >= 1
        assert server["connections_served"] >= 0
        assert stats["fleet"]["pool"]["resident_models"] == 1

    def test_fleet_daemon_stats_carry_pool_and_loop(
            self, trained, tiny_dataset, unix_path):
        X = tiny_dataset.matrix(trained.feature_names_)
        fleet = ModelFleet(default=trained)
        with ScoringDaemon(fleet=fleet, socket_path=unix_path,
                           workers=2):
            with ScoringClient(socket_path=unix_path) as client:
                client.predict(list(map(float, X[0])))
                stats = AdminClient(client).stats()
        assert stats["server"]["transport"] == "eventloop"
        assert stats["server"]["fast_rows"] >= 1
        assert "mean_fast_batch" in stats["server"]
        pool = stats["fleet"]["pool"]
        assert pool["resident_models"] == 1
        assert "evictions" in pool
        # the engine's stats verb counts itself once answered
        assert stats["server"]["requests_served"] >= 1


class TestClassifierDaemonModelField:
    def test_other_model_key_answers_unknown_model_without_loading(
            self, trained, tiny_dataset, unix_path, monkeypatch):
        """A classifier daemon is a one-model fleet: a request naming
        another key answers unknown_model on both the coalesced and the
        worker path, and never reaches the artifact cache."""
        import repro.api.artifact_cache as artifact_cache
        import repro.api.fleet.pool as pool_mod

        loads: list = []

        def spy(*args, **kwargs):
            loads.append(args)
            raise AssertionError("the artifact cache must not be read")

        monkeypatch.setattr(pool_mod, "load_cached", spy)
        monkeypatch.setattr(artifact_cache, "load_or_train", spy)
        X = tiny_dataset.matrix(trained.feature_names_)
        row = list(map(float, X[0]))
        with ScoringDaemon(trained, socket_path=unix_path, workers=2):
            frames = [json.loads(f) for f in _raw_exchange(unix_path, [
                json.dumps({"features": row, "id": 1,
                            "model": "forest:static-agg"}),
                json.dumps({"rows": [row], "id": 2,
                            "model": "forest:static-agg"}),
                json.dumps({"features": row, "id": 3,
                            "model": "tree:static-all"}),
            ])]
            with AdminClient(socket_path=unix_path) as admin:
                listing = admin.list_models()
        assert [(f["id"], f.get("code")) for f in frames[:2]] == \
            [(1, "unknown_model"), (2, "unknown_model")]
        # the classifier's own key still serves
        assert frames[2] == {"ok": True, "id": 3,
                             "prediction": trained.predict(X[0])}
        assert [info.model for info in listing] == \
            ["tree:static-all:unit"]
        assert loads == []


def _binary_frames(blob: bytes) -> list:
    """Split a blob of length-prefixed frames into decoded responses."""
    frames = []
    while blob:
        length, _ = HEADER.unpack_from(blob)
        frames.append(BINARY_V2_CODEC.decode_response(
            blob[4:HEADER.size + length]))
        blob = blob[HEADER.size + length:]
    return frames


def _distinct_f32_rows(trained, tiny_dataset) -> np.ndarray:
    return np.unique(tiny_dataset.matrix(trained.feature_names_).astype(
        np.float32), axis=0)


class TestCoalescedExecute:
    """The engine's one classify -> execute step, driven directly with
    stub tokens and a stub emit."""

    def _blocks(self, engine, rows):
        """JSON rows with an int, a string and no id, a JSON-embedded
        row on a binary-v2 session and a 4-row binary-v2 stream block
        (ids 20..23, one without)."""
        stream, _ = BINARY_V2_CODEC.decode_request(
            BINARY_V2_CODEC.encode_predict_stream(
                [20, 21, NO_ID, 23], rows[:4])[4:])
        v2_session = WireSession()
        v2_session.negotiate({"cmd": "hello", "codecs": [CODEC_BINARY_V2]})
        requests = [
            ("json-int", {"id": 7, "features": rows[1].tolist()},
             JSON_CODEC),
            ("json-str", {"id": "row-b", "features": rows[2].tolist()},
             JSON_CODEC),
            ("json-none", {"features": rows[3].tolist()}, JSON_CODEC),
            ("v2-json", {"id": 9, "features": rows[4].tolist()},
             v2_session),
            ("v2", stream, BINARY_V2_CODEC),
        ]
        return [engine.classify(request, codec, token)
                for token, request, codec in requests]

    def _run(self, engine, blocks) -> list:
        answers = []
        engine.execute(blocks, lambda block, encoded: answers.append(
            (block.token, encoded)))
        return answers

    def test_mixed_group_answers_every_id_once(self, trained,
                                              tiny_dataset):
        rows = _distinct_f32_rows(trained, tiny_dataset)
        engine = RequestEngine(trained, metrics=False)
        blocks = self._blocks(engine, rows)
        answers = self._run(engine, blocks)
        assert [token for token, _ in answers] == \
            ["json-int", "json-str", "json-none", "v2-json", "v2"]
        # byte-identical to scoring each request on its own
        alone = [self._run(engine, [block])[0] for block in blocks]
        assert answers == alone
        want = [int(p) for p in trained.predict_batch(rows[:5])]
        got = dict(answers)
        assert got["json-int"] == JSON_CODEC.encode_prediction(7, want[1])
        assert got["json-str"] == JSON_CODEC.encode_prediction(
            "row-b", want[2])
        assert got["json-none"] == JSON_CODEC.encode_prediction(
            None, want[3])
        assert got["v2-json"][4] == FRAME_JSON
        assert _binary_frames(got["v2-json"]) == [
            {"ok": True, "id": 9, "prediction": want[4]}]
        assert got["v2"] == BINARY_V2_CODEC.encode_predictions_stream(
            [20, 21, NO_ID, 23], want[:4])

    def test_poisoned_batch_falls_back_per_row(self, trained,
                                               tiny_dataset, monkeypatch):
        rows = _distinct_f32_rows(trained, tiny_dataset)
        want = [int(p) for p in trained.predict_batch(rows[:5])]
        engine = RequestEngine(trained, metrics=False)
        blocks = self._blocks(engine, rows)
        bad = rows[1].tolist()
        predict = trained.predict

        def poisoned_predict(row):
            if list(row) == bad:
                raise ValueError("poisoned row")
            return predict(row)

        def broken_batch(X):
            raise RuntimeError("batch scoring failed")

        monkeypatch.setattr(trained, "predict_batch", broken_batch)
        monkeypatch.setattr(trained, "predict", poisoned_predict)
        got = dict(self._run(engine, blocks))
        # the bad row is rows[1]: the JSON id-7 row and stream id 21
        assert json.loads(got["json-int"]) == {
            "ok": False, "code": "bad_request", "error": "poisoned row",
            "id": 7}
        assert got["json-str"] == JSON_CODEC.encode_prediction(
            "row-b", want[2])
        assert got["json-none"] == JSON_CODEC.encode_prediction(
            None, want[3])
        assert got["v2-json"] == BINARY_V2_CODEC.encode_prediction(
            9, want[4])
        error, packed = _binary_frames(got["v2"])
        assert error == {"ok": False, "code": "bad_request",
                         "error": "poisoned row", "id": 21}
        ids, predictions = packed["stream"]
        assert ids.tolist() == [20, NO_ID, 23]
        assert predictions.tolist() == [want[0], want[2], want[3]]


class _FakeServer:
    """A scripted one-connection-at-a-time server for client tests."""

    def __init__(self, unix_path: str, session) -> None:
        self.listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.listener.bind(unix_path)
        self.listener.listen(2)
        self.errors: list = []

        def run() -> None:
            try:
                session(self.listener)
            except Exception as exc:  # surfaced by the test
                self.errors.append(exc)

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()

    def close(self) -> None:
        self.listener.close()
        self.thread.join(timeout=10)


def _read_lines(conn, n: int) -> list:
    reader = conn.makefile("rb")
    return [json.loads(reader.readline()) for _ in range(n)]


class TestPipelinedClient:
    def test_out_of_order_completion(self, unix_path):
        """Responses arriving in reverse order still pair by id."""
        def session(listener) -> None:
            conn, _ = listener.accept()
            with conn:
                requests = _read_lines(conn, 3)
                for request in reversed(requests):
                    conn.sendall((json.dumps(
                        {"ok": True, "id": request["id"],
                         "echo": request["n"]}) + "\n").encode())

        server = _FakeServer(unix_path, session)
        try:
            with ScoringClient(socket_path=unix_path) as client:
                frames = client.request_pipelined(
                    [{"n": i} for i in range(3)], window=3)
            assert [f["echo"] for f in frames] == [0, 1, 2]
        finally:
            server.close()
        assert not server.errors

    def test_window_bounds_in_flight_requests(self, unix_path):
        """With window=2 the third request is only sent after a
        response frees a slot."""
        observed: dict = {}

        def session(listener) -> None:
            conn, _ = listener.accept()
            with conn:
                reader = conn.makefile("rb")
                first = [json.loads(reader.readline())
                         for _ in range(2)]
                # the client is now blocked: nothing else may arrive
                conn.settimeout(0.4)
                try:
                    extra = conn.recv(1)
                except socket.timeout:
                    extra = b""
                observed["extra_before_reply"] = extra
                conn.settimeout(30.0)
                conn.sendall((json.dumps(
                    {"ok": True, "id": first[0]["id"]}) + "\n").encode())
                third = json.loads(reader.readline())
                for request in (first[1], third):
                    conn.sendall((json.dumps(
                        {"ok": True, "id": request["id"]}) + "\n"
                    ).encode())

        server = _FakeServer(unix_path, session)
        try:
            with ScoringClient(socket_path=unix_path) as client:
                frames = client.request_pipelined(
                    [{"n": i} for i in range(3)], window=2)
            assert len(frames) == 3
            assert observed["extra_before_reply"] == b""
        finally:
            server.close()
        assert not server.errors

    def test_error_frames_mid_pipeline(self, trained, tiny_dataset,
                                       unix_path):
        """A typed error frame answers its own request and the rest of
        the pipeline completes; predict_pipelined raises the code."""
        X = tiny_dataset.matrix(trained.feature_names_)
        good = {"features": list(map(float, X[0]))}
        bad = {"features": {"bogus": 1.0}}
        fleet = ModelFleet(default=trained)
        with ScoringDaemon(fleet=fleet, socket_path=unix_path,
                           workers=2):
            with ScoringClient(socket_path=unix_path) as client:
                frames = client.request_pipelined(
                    [good, bad, good, bad, good], window=4)
                assert [f["ok"] for f in frames] == \
                    [True, False, True, False, True]
                assert frames[1]["code"] == "bad_request"
                assert frames[0]["prediction"] == \
                    trained.predict(X[0])
                with pytest.raises(ScoringError) as excinfo:
                    client.predict_pipelined([list(map(float, X[0])),
                                              {"bogus": 1.0}])
                assert excinfo.value.code == "bad_request"

    def test_reconnect_resends_unanswered(self, unix_path):
        """EOF mid-pipeline: the client reconnects and resends every
        request still unanswered (idempotent reads)."""
        def session(listener) -> None:
            conn, _ = listener.accept()
            with conn:
                requests = _read_lines(conn, 2)
                conn.sendall((json.dumps(
                    {"ok": True, "id": requests[0]["id"],
                     "echo": requests[0]["n"]}) + "\n").encode())
                # drop the connection with request 1 unanswered and
                # requests 2..4 unsent or in flight
            conn2, _ = listener.accept()
            with conn2:
                reader = conn2.makefile("rb")
                answered = 0
                while answered < 4:
                    request = json.loads(reader.readline())
                    conn2.sendall((json.dumps(
                        {"ok": True, "id": request["id"],
                         "echo": request["n"]}) + "\n").encode())
                    answered += 1

        server = _FakeServer(unix_path, session)
        try:
            with ScoringClient(socket_path=unix_path,
                               reconnect_retries=1) as client:
                frames = client.request_pipelined(
                    [{"n": i} for i in range(5)], window=2)
            assert [f["echo"] for f in frames] == [0, 1, 2, 3, 4]
        finally:
            server.close()
        assert not server.errors

    def test_exhausted_retries_raise_transport(self, unix_path):
        def session(listener) -> None:
            conn, _ = listener.accept()
            with conn:
                _read_lines(conn, 1)
            # EOF; no second accept with a useful reply
            conn2, _ = listener.accept()
            conn2.close()

        server = _FakeServer(unix_path, session)
        try:
            with ScoringClient(socket_path=unix_path,
                               reconnect_retries=1) as client:
                with pytest.raises(ScoringError) as excinfo:
                    client.request_pipelined([{"n": 0}, {"n": 1}],
                                             window=2)
            assert excinfo.value.code == "transport"
        finally:
            server.close()

    def test_idless_error_frame_surfaces_daemon_code(self, unix_path):
        """An error frame without an id (e.g. the server's flood
        guard) raises with the daemon's code, not a spurious
        id_mismatch, and tears the unusable stream down."""
        def session(listener) -> None:
            conn, _ = listener.accept()
            with conn:
                # drain both requests before answering, and half-close
                # instead of closing, so no RST can race ahead of the
                # response and discard it from the client's buffer
                _read_lines(conn, 2)
                conn.sendall(b'{"ok": false, "code": "too_large", '
                             b'"error": "request line exceeds ..."}\n')
                conn.shutdown(socket.SHUT_WR)
                try:
                    conn.recv(65536)  # wait for the client's close
                except OSError:
                    pass

        server = _FakeServer(unix_path, session)
        try:
            with ScoringClient(socket_path=unix_path,
                               reconnect_retries=0) as client:
                with pytest.raises(ScoringError) as excinfo:
                    client.request_pipelined([{"n": 0}, {"n": 1}],
                                             window=2)
            assert excinfo.value.code == "too_large"
        finally:
            server.close()

    def test_unknown_response_id_is_desync(self, unix_path):
        def session(listener) -> None:
            conn, _ = listener.accept()
            with conn:
                _read_lines(conn, 1)
                conn.sendall(b'{"ok": true, "id": 424242}\n')

        server = _FakeServer(unix_path, session)
        try:
            with ScoringClient(socket_path=unix_path) as client:
                with pytest.raises(ScoringError) as excinfo:
                    client.request_pipelined([{"n": 0}], window=1)
            assert excinfo.value.code == "id_mismatch"
        finally:
            server.close()

    def test_window_validation_and_empty_input(self, unix_path,
                                               trained):
        with ScoringDaemon(trained, socket_path=unix_path, workers=1):
            with ScoringClient(socket_path=unix_path) as client:
                assert client.request_pipelined([]) == []
                with pytest.raises(ScoringError):
                    client.request_pipelined([{"n": 0}], window=0)
        assert DEFAULT_PIPELINE_WINDOW >= 1

    def test_pipelined_matches_sequential_against_daemon(
            self, trained, tiny_dataset, unix_path):
        X = tiny_dataset.matrix(trained.feature_names_)
        rows = [list(map(float, row)) for row in X] * 3
        expected = [int(trained.predict(row)) for row in rows]
        fleet = ModelFleet(default=trained)
        with ScoringDaemon(fleet=fleet, socket_path=unix_path,
                           workers=2):
            with ScoringClient(socket_path=unix_path) as client:
                assert client.predict_pipelined(rows,
                                                window=8) == expected


    @pytest.mark.parametrize("codec", [CODEC_JSON, CODEC_BINARY_V2])
    def test_drain_hands_pipelined_rows_to_live_daemon(
            self, trained, tiny_dataset, tmp_path, codec):
        """A pipelined client connected to a draining daemon requeues
        every refused row and finishes them all on the live daemon the
        shard registry names, in both framings."""
        X = np.asarray(tiny_dataset.matrix(trained.feature_names_),
                       dtype=np.float32).astype(np.float64)
        expected = [int(p) for p in trained.predict_batch(X)]
        base = str(tmp_path / "fleet.sock")
        paths = [str(tmp_path / f"d{i}.sock") for i in range(2)]
        shards = [{"index": i, "path": path, "pid": os.getpid()}
                  for i, path in enumerate(paths)]
        with ScoringDaemon(trained, socket_path=paths[0],
                           workers=1) as draining, \
                ScoringDaemon(trained, socket_path=paths[1],
                              workers=1) as live:
            draining.engine.draining = True
            write_registry(base, shards[:1])
            with ScoringClient(socket_path=base, codec=codec,
                               reconnect_retries=4) as client:
                assert client.codec == codec  # on the draining daemon
                write_registry(base, shards)
                assert client.predict_pipelined(X, window=8) == expected
            # the loop counts a chunk just after writing its answers
            deadline = time.monotonic() + 5.0
            while (live.stats()["loop"]["fast_rows"] < len(X)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert live.stats()["loop"]["fast_rows"] == len(X)
            assert draining.stats()["loop"]["fast_rows"] == 0


class TestClientResponseBound:
    def test_newline_less_flood_raises_cleanly(self, unix_path,
                                               monkeypatch):
        import repro.api.client as client_mod
        monkeypatch.setattr(client_mod, "MAX_RESPONSE_BYTES", 4096)

        def session(listener) -> None:
            conn, _ = listener.accept()
            with conn:
                conn.makefile("rb").readline()
                conn.sendall(b"x" * 65536)  # no newline anywhere

        server = _FakeServer(unix_path, session)
        try:
            client = ScoringClient(socket_path=unix_path,
                                   reconnect_retries=0)
            with pytest.raises(ScoringError,
                               match="without a newline") as excinfo:
                client.request({"cmd": "info"})
            assert excinfo.value.code == "transport"
            client.close()
        finally:
            server.close()


class TestSharded:
    def _rows(self, trained, tiny_dataset, reps: int = 4) -> tuple:
        X = tiny_dataset.matrix(trained.feature_names_)
        rows = [list(map(float, row)) for row in X] * reps
        expected = [int(trained.predict(row)) for row in rows]
        return rows, expected

    def test_byte_identical_across_shard_counts(
            self, trained, tiny_dataset, artifact, tmp_path):
        """Acceptance: the same rows score identically through 1 and 2
        shards (and match the local classifier)."""
        rows, expected = self._rows(trained, tiny_dataset)
        factory = functools.partial(classifier_factory, artifact)
        results = {}
        for n_shards in (1, 2):
            base = str(tmp_path / f"shards{n_shards}.sock")
            with ShardManager(factory, shards=n_shards,
                              socket_path=base, workers=2):
                with ScoringClient(socket_path=base) as client:
                    results[n_shards] = client.predict_pipelined(
                        rows, window=8)
        assert results[1] == expected
        assert results[2] == expected

    def test_registry_lifecycle_and_per_shard_stats(
            self, trained, tiny_dataset, artifact, tmp_path):
        rows, expected = self._rows(trained, tiny_dataset, reps=1)
        base = str(tmp_path / "fleet.sock")
        factory = functools.partial(classifier_factory, artifact)
        manager = ShardManager(factory, shards=2, socket_path=base,
                               workers=2)
        with manager:
            registry = read_registry(base)
            assert [s["index"] for s in registry] == [0, 1]
            assert sorted(s["pid"] for s in registry) == \
                sorted(manager.pids)
            # per-shard stats: query each shard socket directly
            seen = []
            for row in registry:
                with ScoringClient(socket_path=row["path"]) as client:
                    assert client.predict(rows[0]) == expected[0]
                    stats = AdminClient(client).stats()
                    assert stats["shard"]["pid"] == row["pid"]
                    assert stats["server"]["requests_served"] >= 1
                    seen.append(stats["shard"]["index"])
            assert seen == [0, 1]
        assert not os.path.exists(base)
        for i in range(2):
            assert not os.path.exists(shard_socket_path(base, i))

    def test_shard_crash_retry_lands_on_live_shard(
            self, trained, tiny_dataset, artifact, tmp_path):
        """Acceptance: kill the shard a client is connected to; its
        next (retried) request is served by a surviving shard."""
        rows, expected = self._rows(trained, tiny_dataset, reps=1)
        base = str(tmp_path / "crash.sock")
        factory = functools.partial(classifier_factory, artifact)
        with ShardManager(factory, shards=2, socket_path=base,
                          workers=2) as manager:
            with ScoringClient(socket_path=base) as client:
                victim = AdminClient(client).stats()["shard"]["index"]
                os.kill(manager.pids[victim], 9)
                deadline = time.monotonic() + 10
                while manager.alive()[victim] and \
                        time.monotonic() < deadline:
                    time.sleep(0.05)
                assert client.predict(rows[0]) == expected[0]
                survivor = AdminClient(client).stats()["shard"]["index"]
                assert survivor != victim

    def test_tcp_shards_share_one_port(self, trained, tiny_dataset,
                                       artifact):
        rows, expected = self._rows(trained, tiny_dataset, reps=1)
        factory = functools.partial(classifier_factory, artifact)
        if not hasattr(socket, "SO_REUSEPORT"):
            pytest.skip("platform without SO_REUSEPORT")
        with ShardManager(factory, shards=2, tcp=("127.0.0.1", 0),
                          workers=2) as manager:
            kind, host, port = manager.address
            assert kind == "tcp" and port > 0
            with ScoringClient(tcp=(host, port)) as client:
                assert client.predict_pipelined(rows) == expected
                assert AdminClient(client).stats()["shard"]["index"] \
                    in (0, 1)

    def test_shard_that_dies_during_startup_fails_fast(self, tmp_path):
        """A factory that raises (missing artifact) must fail start()
        within seconds, not after the full start_timeout."""
        factory = functools.partial(classifier_factory,
                                    str(tmp_path / "missing.json"))
        manager = ShardManager(factory, shards=1,
                               socket_path=str(tmp_path / "x.sock"),
                               start_timeout=120.0)
        start = time.monotonic()
        with pytest.raises(DaemonError, match="died during startup"):
            manager.start()
        assert time.monotonic() - start < 30

    def test_validation(self, artifact):
        factory = functools.partial(classifier_factory, artifact)
        with pytest.raises(DaemonError, match="shards"):
            ShardManager(factory, shards=0, socket_path="/tmp/x.sock")
        with pytest.raises(DaemonError, match="exactly one"):
            ShardManager(factory, shards=2)
        with pytest.raises(DaemonError, match="exactly one"):
            ShardManager(factory, shards=2, socket_path="/tmp/x.sock",
                         tcp=("127.0.0.1", 0))

    def test_live_registry_is_not_stolen(self, trained, tiny_dataset,
                                         artifact, tmp_path):
        base = str(tmp_path / "taken.sock")
        factory = functools.partial(classifier_factory, artifact)
        with ShardManager(factory, shards=1, socket_path=base,
                          workers=1):
            second = ShardManager(factory, shards=1, socket_path=base,
                                  workers=1)
            with pytest.raises(DaemonError, match="live shard"):
                second.start()

    def test_stale_registry_is_reclaimed(self, artifact, tmp_path):
        base = str(tmp_path / "stale.sock")
        with open(base, "w") as handle:
            json.dump({"repro_shards": 1, "base": base,
                       "shards": [{"index": 0, "path": base + ".0",
                                   "pid": 2 ** 22 + 12345}]}, handle)
        factory = functools.partial(classifier_factory, artifact)
        with ShardManager(factory, shards=1, socket_path=base,
                          workers=1):
            assert read_registry(base)  # fresh registry written over
        assert not os.path.exists(base)

    def test_unrelated_file_is_refused(self, artifact, tmp_path):
        base = str(tmp_path / "file.sock")
        with open(base, "w") as handle:
            handle.write("precious data\n")
        factory = functools.partial(classifier_factory, artifact)
        manager = ShardManager(factory, shards=1, socket_path=base)
        with pytest.raises(DaemonError, match="refusing"):
            manager.start()
        assert open(base).read() == "precious data\n"


class TestUnterminatedFinalLine:
    def _half_close_exchange(self, sock_path: str, payload: bytes):
        """Send *payload* with no trailing newline, half-close, read."""
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10.0)
        sock.connect(sock_path)
        with sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            return sock.makefile("rb").readline()

    @pytest.mark.parametrize("mode", ["classifier", "fleet"])
    def test_final_line_without_newline_is_answered(
            self, trained, mode, unix_path):
        """A client that half-closes after an unterminated final line
        still gets its response (PR 3 makefile behaviour, preserved
        by classifier and fleet daemons and matching stdio)."""
        kwargs = ({"classifier": trained} if mode == "classifier"
                  else {"fleet": ModelFleet(default=trained)})
        with ScoringDaemon(socket_path=unix_path, workers=2, **kwargs):
            frame = json.loads(self._half_close_exchange(
                unix_path, b'{"cmd": "info", "id": 7}'))
        assert frame["ok"] is True and frame["id"] == 7

    @pytest.mark.parametrize("mode", ["classifier", "fleet"])
    def test_half_close_after_terminated_slow_request_is_answered(
            self, trained, tiny_dataset, mode, unix_path):
        """shutdown(SHUT_WR) right after a newline-terminated worker-
        pool request: the response must still be written before the
        connection closes (the event loop defers the close until every
        outstanding answer is staged and flushed)."""
        X = tiny_dataset.matrix(trained.feature_names_)
        kwargs = ({"classifier": trained} if mode == "classifier"
                  else {"fleet": ModelFleet(default=trained)})
        payload = json.dumps({"rows": X[:4].tolist(), "id": 11}) + "\n"
        with ScoringDaemon(socket_path=unix_path, workers=2, **kwargs):
            frame = json.loads(self._half_close_exchange(
                unix_path, payload.encode("utf-8")))
        assert frame["ok"] is True and frame["id"] == 11
        assert frame["predictions"] == \
            [int(p) for p in trained.predict_batch(X[:4])]

    def test_half_close_after_fast_row_is_answered(
            self, trained, tiny_dataset, unix_path):
        """Same for a coalescible fast-path row on the event loop."""
        X = tiny_dataset.matrix(trained.feature_names_)
        payload = json.dumps(
            {"features": list(map(float, X[0])), "id": 12}) + "\n"
        fleet = ModelFleet(default=trained)
        with ScoringDaemon(fleet=fleet, socket_path=unix_path,
                           workers=2):
            frame = json.loads(self._half_close_exchange(
                unix_path, payload.encode("utf-8")))
        assert frame == {"ok": True, "id": 12,
                         "prediction": trained.predict(X[0])}


class TestClientRedialsAfterDesync:
    def test_request_after_pipeline_desync_reconnects(self, trained,
                                                      unix_path,
                                                      tmp_path):
        """A desync teardown leaves the client usable: the next
        request dials a fresh connection instead of failing on the
        closed socket forever."""
        bad_path = str(tmp_path / "bad.sock")

        def session(listener) -> None:
            conn, _ = listener.accept()
            with conn:
                _read_lines(conn, 1)
                conn.sendall(b'{"ok": true, "id": 424242}\n')

        server = _FakeServer(bad_path, session)
        client = ScoringClient(socket_path=bad_path)
        try:
            with pytest.raises(ScoringError):
                client.request_pipelined([{"n": 0}], window=1)
            # swap a real daemon behind the same endpoint: the client
            # must redial and serve normally
            server.close()
            os.unlink(bad_path)
            with ScoringDaemon(trained, socket_path=bad_path,
                               workers=1):
                assert client.info()["model_family"] == "tree"
        finally:
            client.close()
            server.close()


class TestClientTimeoutTeardown:
    def test_timeout_tears_down_and_next_request_redials(
            self, unix_path):
        """A recv timeout leaves queued responses untrusted: the
        connection is torn down and the next request dials fresh
        instead of reading a stale frame."""
        def session(listener) -> None:
            conn, _ = listener.accept()
            _read_lines(conn, 1)  # never answered; conn held open
            conn2, _ = listener.accept()
            with conn2:
                request = _read_lines(conn2, 1)[0]
                conn2.sendall((json.dumps(
                    {"ok": True, "id": request["id"],
                     "late": False}) + "\n").encode())
            conn.close()

        server = _FakeServer(unix_path, session)
        try:
            client = ScoringClient(socket_path=unix_path, timeout=0.5,
                                   reconnect_retries=0)
            with pytest.raises(ScoringError) as excinfo:
                client.request({"n": 0})
            assert excinfo.value.code == "transport"
            assert client.request({"n": 1})["late"] is False
            client.close()
        finally:
            server.close()


class TestCliShards:
    def test_shards_require_daemon_endpoint(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["serve", "--shards", "2"])
        with pytest.raises(SystemExit):
            main(["serve", "--shards", "0", "--socket", "/tmp/x.sock"])
