"""Wire codec layer: negotiation, binary framing, legacy byte-identity."""

import json
import socket
import struct
import time
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
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
    ReproConfig,
    ScoringClient,
    ScoringDaemon,
)
from repro.api.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_INVALID_FRAME,
    ERROR_INVALID_JSON,
    ERROR_TOO_LARGE,
    MAX_REQUEST_BYTES,
    encode_frame,
    ok_frame,
)
from repro.api.protocol import error_frame
from repro.api.transport import RequestEngine
from repro.api.wire import (
    BINARY_V2_CODEC,
    CLOSE,
    CLOSED,
    CODEC_BINARY_V2,
    CODEC_JSON,
    DEFAULT_CODECS,
    DRAINING,
    FRAME_BATCH,
    FRAME_JSON,
    FRAME_PREDICT_STREAM,
    FRAME_PREDICTIONS,
    FRAME_PREDICTIONS_STREAM,
    HEADER,
    JSON_CODEC,
    LINGERING,
    NO_ID,
    OPEN,
    READ,
    SHUT,
    SPLIT_SEND_BYTES,
    WRITE,
    PredictStream,
    WireSession,
    decode_json_raw,
    prediction_frame,
)
from repro.errors import ScoringError
from repro.ml.compiled import _WALK_MAX_ROWS
from tests.tree_oracle import predict_rowwise


@pytest.fixture()
def trained(tiny_dataset) -> Classifier:
    return Classifier(ReproConfig(profile="unit")).train(tiny_dataset)


@pytest.fixture()
def unix_path(tmp_path) -> str:
    return str(tmp_path / "repro.sock")


def _f32(rows) -> np.ndarray:
    """Round rows to the f32 grid the binary codec transports, so JSON
    and binary clients score bit-identical inputs."""
    return np.asarray(rows, dtype=np.float32).astype(np.float64)


def _connect(path: str) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(path)
    return sock


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise AssertionError(f"EOF after {len(buf)}/{n} bytes")
        buf += chunk
    return buf


def _recv_binary_frame(sock: socket.socket) -> bytes:
    head = _recv_exact(sock, HEADER.size)
    length, = struct.unpack_from("<I", head)
    return head[4:] + _recv_exact(sock, length)


def _recv_line(sock: socket.socket) -> bytes:
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            break
        buf += chunk
    return buf


def _land(wire: WireSession, data: bytes) -> None:
    """Receive *data* (one ``recv_into``'s worth) into *wire*'s buffer
    without framing it; ``next_frame`` pulls the frames."""
    view = wire.buffer()
    assert len(data) <= len(view)
    view[:len(data)] = data
    wire.received(len(data))


def _receive(wire: WireSession, data: bytes):
    """Receive *data* the way the daemon does, as much as one
    ``recv_into`` takes at a time, and yield the frames each landing
    completes.  A frame is valid until the session next owes no
    answer: copy one that is kept longer."""
    data = memoryview(data)
    while data:
        view = wire.buffer()
        n = min(len(view), len(data))
        view[:n] = data[:n]
        data = data[n:]
        yield from wire.received(n)


# -- WireSession unit tests ------------------------------------------------


class TestWireSession:
    def test_json_frames_across_chunk_boundaries(self):
        wire = WireSession()
        line = b'{"cmd": "info"}\n'
        _land(wire, line[:7])
        assert wire.next_frame() is None
        _land(wire, line[7:] + b'{"cmd": "stats"}\n')
        assert wire.next_frame() == b'{"cmd": "info"}'
        assert wire.next_frame() == b'{"cmd": "stats"}'
        assert wire.next_frame() is None
        assert wire.bytes_in == {CODEC_JSON: len(line) + 17}

    def test_newline_less_flood_is_fatal(self):
        wire = WireSession(max_bytes=64)
        _land(wire, b"x" * 65)
        assert wire.next_frame() is None
        assert wire.fatal
        farewell = wire.take_pending_error()
        assert b'"too_large"' in farewell
        assert wire.take_pending_error() is None

    def test_binary_oversized_declared_length_is_fatal(self):
        wire = WireSession(max_bytes=64)
        wire.codec = BINARY_V2_CODEC
        _land(wire, HEADER.pack(65, FRAME_BATCH))
        assert wire.next_frame() is None
        assert wire.fatal
        frame = json.loads(bytes(
            memoryview(wire.take_pending_error())[HEADER.size:]))
        assert frame["code"] == ERROR_TOO_LARGE

    def test_negotiate_switches_after_answering_in_old_codec(self):
        wire = WireSession()
        raw = wire.negotiate({"cmd": "hello", "id": 1,
                              "codecs": [CODEC_BINARY_V2]})
        # the hello answer itself is a JSON line...
        assert json.loads(raw) == {"ok": True, "id": 1,
                                   "codec": CODEC_BINARY_V2}
        # ...and every frame after it speaks binary
        assert wire.codec is BINARY_V2_CODEC

    def test_negotiate_unknown_codecs_fall_back_to_json(self):
        """Unknown names are skipped; the retired binary-v1 is one."""
        for offers in (["zstd-9000", 42], ["binary-v1"]):
            wire = WireSession()
            raw = wire.negotiate({"cmd": "hello", "id": 2,
                                  "codecs": offers})
            assert json.loads(raw)["codec"] == CODEC_JSON
            assert wire.codec is JSON_CODEC

    def test_negotiate_respects_server_offered_set(self):
        wire = WireSession(offered=(CODEC_JSON,))
        raw = wire.negotiate({"cmd": "hello", "codecs": [CODEC_BINARY_V2]})
        assert json.loads(raw)["codec"] == CODEC_JSON
        assert wire.codec is JSON_CODEC

    def test_non_hello_is_not_negotiation(self):
        wire = WireSession()
        assert wire.negotiate({"cmd": "info"}) is None
        assert wire.negotiate("hello") is None

    def test_codec_switch_applies_mid_buffer(self):
        """Hello + a binary frame pipelined into one chunk: the frame
        after the switch must parse under the *new* codec."""
        wire = WireSession()
        predict = BINARY_V2_CODEC.encode_predict_stream([7], [[1.0, 2.0]])
        _land(wire, b'{"cmd": "hello", "codecs": ["binary-v2"]}\n' + predict)
        raw = wire.next_frame()
        assert wire.negotiate(json.loads(raw)) is not None
        frame = wire.next_frame()
        request, error = wire.decode(frame)
        assert error is None
        assert request.ids.tolist() == [7]
        assert request.rows.tolist() == [[1.0, 2.0]]
        assert request.rows.ctypes.data % 8 == 0

    def test_hello_with_answers_owed_is_refused(self):
        """A hello routed while a request is unanswered draws a typed
        bad_request in the current codec and switches nothing."""
        wire = WireSession()
        wire.defer()
        raw = wire.negotiate({"cmd": "hello", "id": 4,
                              "codecs": [CODEC_BINARY_V2]})
        frame = json.loads(raw)
        assert frame["ok"] is False and frame["id"] == 4
        assert frame["code"] == ERROR_BAD_REQUEST
        assert wire.codec is JSON_CODEC
        wire.stage(b"answer\n", settles=1)
        raw = wire.negotiate({"cmd": "hello", "codecs": [CODEC_BINARY_V2]})
        assert json.loads(raw)["codec"] == CODEC_BINARY_V2


class TestBinaryCodecRoundTrip:
    codec = BINARY_V2_CODEC

    def test_predict_request_roundtrip(self):
        """A feature row travels as an embedded JSON frame."""
        raw = self.codec.encode_request({"id": 3, "features": [0.5, 1.25]})
        assert raw[4] == FRAME_JSON
        request, error = self.codec.decode_request(raw[4:])
        assert error is None
        assert request == {"id": 3, "features": [0.5, 1.25]}

    def test_batch_request_roundtrip_keeps_matrix(self):
        rows = _f32(np.arange(12, dtype=float).reshape(4, 3))
        raw = self.codec.encode_request({"id": 9, "rows": rows})
        assert raw[4] == FRAME_BATCH
        request, error = self.codec.decode_request(raw[4:])
        assert error is None
        assert isinstance(request["rows"], np.ndarray)
        np.testing.assert_array_equal(request["rows"], rows)

    def test_no_id_sentinel(self):
        raw = self.codec.encode_request({"rows": [[1.0]]})
        request, _ = self.codec.decode_request(raw[4:])
        assert "id" not in request
        response = self.codec.encode_response(
            {"ok": True, "predictions": np.array([4])})
        assert response[4] == FRAME_PREDICTIONS
        assert self.codec.decode_response(response[4:]) == {
            "ok": True, "predictions": [4]}

    def test_single_prediction_answers_as_embedded_json(self):
        for req_id in (5, "row-a", None):
            response = self.codec.encode_prediction(req_id, 4)
            assert response[4] == FRAME_JSON
            assert self.codec.decode_response(response[4:]) == ok_frame(
                {"prediction": 4}, req_id)
        frame = {"ok": True, "id": 5, "prediction": 3}
        assert self.codec.encode_response(frame) == \
            self.codec.encode_prediction(5, 3)

    def test_large_batch_is_its_head_and_rows_buffer(self):
        """A BATCH of SPLIT_SEND_BYTES or more is encoded as its head and
        the f32 matrix's own buffer, never joined into one frame."""
        rows = np.arange(SPLIT_SEND_BYTES // 4, dtype="<f4").reshape(-1, 8)
        head, body = self.codec.encode_request({"id": 9, "rows": rows})
        assert np.shares_memory(np.frombuffer(body, np.uint8), rows)
        assert len(body) == rows.nbytes
        small = self.codec.encode_request({"id": 9, "rows": rows[:-1]})
        assert type(small) is bytes
        assert head + bytes(body) == (
            HEADER.pack(16 + rows.nbytes, FRAME_BATCH)
            + struct.pack("<qII", 9, *rows.shape) + rows.tobytes())

    def test_cold_verbs_travel_as_embedded_json(self):
        raw = self.codec.encode_request({"cmd": "info", "id": 1})
        assert raw[4] == FRAME_JSON
        request, error = self.codec.decode_request(raw[4:])
        assert error is None and request["cmd"] == "info"

    def test_predictions_response_roundtrip(self):
        frame = {"ok": True, "id": 5, "predictions": np.array([1, 8, 2])}
        raw = self.codec.encode_response(frame)
        assert raw[4] == FRAME_PREDICTIONS
        assert self.codec.decode_response(raw[4:]) == {
            "ok": True, "id": 5, "predictions": [1, 8, 2]}

    def test_list_predictions_travel_as_embedded_json(self):
        """Only an integer array packs; any other answer still encodes."""
        for predictions in ([1, 8, 2], np.array([1.5]),
                            np.array([2 ** 40])):
            frame = {"ok": True, "id": 5, "predictions": predictions}
            raw = self.codec.encode_response(frame)
            assert raw[4] == FRAME_JSON
            assert self.codec.decode_response(raw[4:])["predictions"] == \
                np.asarray(predictions).tolist()

    def test_size_mismatch_draws_invalid_frame(self):
        body = struct.pack("<qII", 1, 2, 5) + b"\0" * 8  # declares 2x5
        _, error = self.codec.decode_request(bytes([FRAME_BATCH]) + body)
        assert error["code"] == ERROR_INVALID_FRAME

    def test_unknown_frame_type_draws_invalid_frame(self):
        _, error = self.codec.decode_request(b"\x7fgarbage")
        assert error["code"] == ERROR_INVALID_FRAME
        with pytest.raises(ValueError):
            self.codec.decode_response(b"\x7fgarbage")


# -- legacy byte-identity over real daemons --------------------------------


class TestLegacyByteIdentity:
    """Clients that never send hello must receive the exact PR 5 bytes."""

    def _assert_legacy_bytes(self, trained, unix_path, X):
        expected_single = prediction_frame(
            7, int(trained.predict(X[0]))).encode("utf-8")
        expected_batch = encode_frame(ok_frame(
            {"predictions": [int(p) for p in trained.predict_batch(X)]},
            8)).encode("utf-8")
        sock = _connect(unix_path)
        with sock:
            sock.sendall(json.dumps(
                {"id": 7, "features": list(X[0])}).encode() + b"\n")
            assert _recv_line(sock) == expected_single
            sock.sendall(json.dumps(
                {"id": 8, "rows": X.tolist()}).encode() + b"\n")
            assert _recv_line(sock) == expected_batch

    def test_classifier_daemon_no_hello(self, trained, tiny_dataset,
                                        unix_path):
        X = tiny_dataset.matrix(trained.feature_names_)
        with ScoringDaemon(trained, socket_path=unix_path, workers=2):
            self._assert_legacy_bytes(trained, unix_path, X)

    def test_eventloop_server_no_hello(self, trained, tiny_dataset,
                                       unix_path):
        from repro.api.fleet import ModelFleet, ModelPool

        X = tiny_dataset.matrix(trained.feature_names_)
        fleet = ModelFleet(ModelPool(), default=trained)
        with ScoringDaemon(fleet=fleet, socket_path=unix_path, workers=2):
            self._assert_legacy_bytes(trained, unix_path, X)

    def test_json_predict_batch_request_bytes(
            self, trained, tiny_dataset, unix_path, monkeypatch):
        """A JSON ``predict_batch`` sends the bytes of the per-element
        ``float()`` encoding for a floating ndarray, and integer input
        still travels as JSON floats."""
        X = tiny_dataset.matrix(trained.feature_names_)
        sent = []
        encode = JSON_CODEC.encode_request

        def record(frame):
            raw = encode(frame)
            sent.append((frame["id"], raw))
            return raw

        monkeypatch.setattr(JSON_CODEC, "encode_request", record)
        inputs = (X, X.astype(np.float32), np.round(X * 4).astype(np.int64))
        with ScoringDaemon(trained, socket_path=unix_path, workers=2):
            with ScoringClient(socket_path=unix_path) as client:
                for rows in inputs:
                    got = client.predict_batch(rows)
                    local = trained.predict_batch(rows.astype(np.float64))
                    assert got == [int(p) for p in local]
        assert len(sent) == len(inputs)
        for rows, (req_id, raw) in zip(inputs, sent):
            floats = [[float(v) for v in row] for row in rows.tolist()]
            assert raw == encode({"rows": floats, "id": req_id})
        assert type(json.loads(sent[2][1])["rows"][0][0]) is float

    def test_stdio_engine_answers_hello_with_json(self, trained):
        engine = RequestEngine(trained)
        frame = engine.handle({"cmd": "hello", "id": 1,
                               "codecs": [CODEC_BINARY_V2]})
        assert frame == {"ok": True, "id": 1, "codec": CODEC_JSON}


# -- negotiated binary connections over real daemons -----------------------


class TestBinaryDaemon:
    def test_classifier_daemon_binary_round_trip(self, trained,
                                                 tiny_dataset, unix_path):
        X = _f32(tiny_dataset.matrix(trained.feature_names_))
        with ScoringDaemon(trained, socket_path=unix_path, workers=2):
            with ScoringClient(socket_path=unix_path,
                               codec=CODEC_BINARY_V2) as client:
                assert client.codec == CODEC_BINARY_V2
                assert client.predict_batch(X) == \
                    [int(p) for p in trained.predict_batch(X)]
                assert client.predict(list(X[0])) == trained.predict(X[0])
                assert client.info()["model_family"] == "tree"
                assert (AdminClient(client).stats()["server"]["codec"]
                        ["offered"]) == list(DEFAULT_CODECS)

    def test_eventloop_binary_matches_json_byte_identically(
            self, trained, tiny_dataset, unix_path):
        """Acceptance: mixed JSON + binary clients on one fleet daemon
        produce identical predictions for f32-identical inputs."""
        from repro.api.fleet import ModelFleet, ModelPool

        X = _f32(tiny_dataset.matrix(trained.feature_names_))
        mapping = dict(zip(trained.feature_names_, map(float, X[1])))
        fleet = ModelFleet(ModelPool(), default=trained)
        with ScoringDaemon(fleet=fleet, socket_path=unix_path, workers=2):
            with ScoringClient(socket_path=unix_path) as json_client, \
                    ScoringClient(socket_path=unix_path,
                                  codec=CODEC_BINARY_V2) as bin_client:
                assert json_client.codec == CODEC_JSON
                assert bin_client.codec == CODEC_BINARY_V2
                assert bin_client.predict_batch(X) == \
                    json_client.predict_batch(X)
                assert bin_client.predict_pipelined(X) == \
                    json_client.predict_pipelined(X)
                # a feature mapping travels as an embedded JSON frame
                assert bin_client.predict(mapping) == \
                    json_client.predict(mapping)
                assert bin_client.info() == json_client.info()

    def test_large_batch_is_sent_from_its_rows(
            self, trained, tiny_dataset, unix_path, monkeypatch):
        """The client sends a large BATCH as two ``sendall`` calls, the
        head and then the f32 rows, and the daemon scores it whole."""
        X = tiny_dataset.matrix(trained.feature_names_).astype(np.float32)
        X = np.resize(X, (2 * SPLIT_SEND_BYTES // X[0].nbytes, X.shape[1]))
        sent = []
        sendall = socket.socket.sendall

        def record(sock, data, *args):
            sent.append(len(data))
            return sendall(sock, data, *args)

        with ScoringDaemon(trained, socket_path=unix_path, workers=2):
            with ScoringClient(socket_path=unix_path,
                               codec=CODEC_BINARY_V2) as client:
                monkeypatch.setattr(socket.socket, "sendall", record)
                got = client.predict_batch(X)
                monkeypatch.undo()
        assert sent == [HEADER.size + 16, X.nbytes]
        assert got == trained.predict_batch(X).tolist()

    def test_json_pinned_daemon_declines_binary(self, trained,
                                                tiny_dataset, unix_path):
        X = tiny_dataset.matrix(trained.feature_names_)
        with ScoringDaemon(trained, socket_path=unix_path, workers=2,
                           codecs=(CODEC_JSON,)):
            with ScoringClient(socket_path=unix_path,
                               codec=CODEC_BINARY_V2) as client:
                # hello answered {"codec": "json"}: stay on JSON, work
                assert client.codec == CODEC_JSON
                assert client.predict_batch(X) == \
                    [int(p) for p in trained.predict_batch(X)]

    def test_unknown_codec_hello_falls_back_raw(self, trained, unix_path):
        """Unknown names — the retired binary-v1 among them — land on
        JSON."""
        with ScoringDaemon(trained, socket_path=unix_path, workers=2):
            for offer in (b"zstd-9000", b"binary-v1"):
                sock = _connect(unix_path)
                with sock:
                    sock.sendall(b'{"cmd": "hello", "id": 1, "codecs": ["'
                                 + offer + b'"]}\n')
                    frame = json.loads(_recv_line(sock))
                    assert frame == {"ok": True, "id": 1,
                                     "codec": CODEC_JSON}
                    sock.sendall(b'{"cmd": "info"}\n')
                    assert json.loads(_recv_line(sock))["ok"] is True

    @pytest.mark.parametrize("fleet_mode", [False, True])
    def test_binary_garbage_mid_stream_typed_error_then_teardown(
            self, trained, unix_path, fleet_mode):
        """Acceptance: garbage after a binary handshake — including a
        retired 0x01 PREDICT frame — yields exactly one typed error
        frame and a clean connection teardown, on classifier and fleet
        daemons."""
        kwargs: dict = {"classifier": trained}
        if fleet_mode:
            from repro.api.fleet import ModelFleet, ModelPool

            kwargs = {"fleet": ModelFleet(ModelPool(), default=trained)}
        garbage = (
            HEADER.pack(4, 0x7F) + b"junk",
            # the retired single-row PREDICT frame: id 3, two features
            HEADER.pack(20, 0x01) + struct.pack("<qIff", 3, 2, 0.5, 1.25),
        )
        with ScoringDaemon(socket_path=unix_path, workers=2, **kwargs):
            for junk in garbage:
                sock = _connect(unix_path)
                with sock:
                    sock.sendall(b'{"cmd": "hello", "id": 1, '
                                 b'"codecs": ["binary-v2"]}\n')
                    assert json.loads(_recv_line(sock))["codec"] == \
                        CODEC_BINARY_V2
                    sock.sendall(junk)
                    frame = _recv_binary_frame(sock)
                    assert frame[0] == FRAME_JSON
                    error = json.loads(frame[1:])
                    assert error["ok"] is False
                    assert error["code"] == ERROR_INVALID_FRAME
                    assert sock.recv(1) == b""  # clean teardown

    def test_oversized_binary_frame_typed_error_then_teardown(
            self, trained, unix_path):
        with ScoringDaemon(trained, socket_path=unix_path, workers=2):
            sock = _connect(unix_path)
            with sock:
                sock.sendall(b'{"cmd": "hello", "codecs": ["binary-v2"]}\n')
                _recv_line(sock)
                sock.sendall(HEADER.pack(MAX_REQUEST_BYTES + 1,
                                         FRAME_BATCH))
                frame = _recv_binary_frame(sock)
                error = json.loads(frame[1:])
                assert error["code"] == ERROR_TOO_LARGE
                assert sock.recv(1) == b""

    def test_stats_codec_section_counts_binary_traffic(
            self, trained, tiny_dataset, unix_path):
        X = _f32(tiny_dataset.matrix(trained.feature_names_))
        with ScoringDaemon(trained, socket_path=unix_path,
                           workers=2) as daemon:
            with ScoringClient(socket_path=unix_path,
                               codec=CODEC_BINARY_V2) as client:
                client.predict_batch(X)
            with ScoringClient(socket_path=unix_path) as client:
                client.info()
            # counters fold when the server reaps the closed
            # connection, a moment after the client's close() returns
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                section = daemon.stats()["codec"]
                if sum(section["connections"].values()) >= 2:
                    break
                time.sleep(0.01)
            assert section["connections"].get(CODEC_BINARY_V2, 0) >= 1
            assert section["connections"].get(CODEC_JSON, 0) >= 1
            assert section["requests"].get(CODEC_BINARY_V2, 0) >= 1
            assert section["bytes_in"].get(CODEC_BINARY_V2, 0) > 0
            assert section["bytes_out"].get(CODEC_BINARY_V2, 0) > 0

    def test_collect_stats_sums_codec_sections_across_shards(
            self, trained, tiny_dataset, tmp_path):
        """Two shards, one offering only JSON: the fleet codec section
        is the per-codec sum of the shards' and ``offered`` their
        union."""
        from repro.api.admin import collect_stats
        from repro.api.shard import write_registry

        X = _f32(tiny_dataset.matrix(trained.feature_names_))
        paths = [str(tmp_path / f"s{i}.sock") for i in range(2)]
        daemons = [
            ScoringDaemon(trained, socket_path=paths[0], workers=2),
            ScoringDaemon(trained, socket_path=paths[1], workers=2,
                          codecs=(CODEC_JSON,)),
        ]
        base = str(tmp_path / "fleet.sock")
        write_registry(base, [{"index": i, "path": path, "pid": 0}
                              for i, path in enumerate(paths)])
        for daemon in daemons:
            daemon.start()
        try:
            with ScoringClient(socket_path=paths[0],
                               codec=CODEC_BINARY_V2) as client:
                client.predict_pipelined(X)
                client.predict_batch(X)
            for path in paths:
                for _ in range(2):
                    with ScoringClient(socket_path=path) as client:
                        client.predict(list(X[0]))
            deadline = time.monotonic() + 5.0
            while (any(d.stats()["active_connections"] for d in daemons)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            sections = [d.stats() for d in daemons]
            fleet = collect_stats(base)
        finally:
            for daemon in daemons:
                daemon.stop()
        assert sum("error" not in row for row in fleet["shards"]) == 2
        codec = fleet["codec"]
        assert set(codec["offered"]) == {CODEC_BINARY_V2, CODEC_JSON}
        for field in ("connections", "requests", "bytes_in", "bytes_out"):
            want: Counter = Counter()
            for section in sections:
                want.update(section["codec"][field])
            assert codec[field] == dict(want), field
        assert codec["connections"] == {CODEC_BINARY_V2: 1, CODEC_JSON: 4}
        assert fleet["requests_served"] == sum(
            s["requests_served"] for s in sections)
        # each shard counts the collecting connection, still open
        assert fleet["connections_served"] == 2 + sum(
            s["connections_served"] for s in sections)
        assert fleet["active_connections"] == 2


# -- binary-v2 stream frames -----------------------------------------------


class TestBinaryV2StreamFrames:
    """Raw-byte golden vectors for the 0x03/0x83 stream frames."""

    def test_predict_stream_golden_bytes(self):
        raw = BINARY_V2_CODEC.encode_predict_stream(
            [7, 9], [[1.5, -2.0], [0.25, 4.0]])
        expected = (
            struct.pack("<IB", 8 + 16 + 16, FRAME_PREDICT_STREAM)
            + struct.pack("<II", 2, 2)            # count, cols
            + struct.pack("<qq", 7, 9)            # req ids
            + struct.pack("<ffff", 1.5, -2.0, 0.25, 4.0)
        )
        assert raw == expected

    def test_predict_stream_golden_decode(self):
        payload = (
            struct.pack("<II", 2, 2)
            + struct.pack("<qq", 7, 9)
            + struct.pack("<ffff", 1.5, -2.0, 0.25, 4.0)
        )
        request, error = BINARY_V2_CODEC.decode_request(
            bytes([FRAME_PREDICT_STREAM]) + payload)
        assert error is None
        assert type(request) is PredictStream
        assert len(request) == 2
        assert request.ids.tolist() == [7, 9]
        np.testing.assert_array_equal(
            request.rows, np.asarray([[1.5, -2.0], [0.25, 4.0]],
                                     dtype="<f4"))

    def test_predictions_stream_golden_bytes(self):
        raw = BINARY_V2_CODEC.encode_predictions_stream([7, 9], [3, 1])
        expected = (
            struct.pack("<IB", 4 + 16 + 8, FRAME_PREDICTIONS_STREAM)
            + struct.pack("<I", 2)                # count
            + struct.pack("<qq", 7, 9)            # req ids
            + struct.pack("<ii", 3, 1)            # predictions
        )
        assert raw == expected

    def test_predictions_stream_golden_decode(self):
        payload = (struct.pack("<I", 2) + struct.pack("<qq", 7, 9)
                   + struct.pack("<ii", 3, 1))
        response = BINARY_V2_CODEC.decode_response(
            bytes([FRAME_PREDICTIONS_STREAM]) + payload)
        assert response["ok"] is True
        ids, predictions = response["stream"]
        assert ids.tolist() == [7, 9]
        assert predictions.tolist() == [3, 1]

    def test_stream_roundtrip_preserves_f32_bits(self):
        rows = np.asarray(
            [[np.float32(1) / 3, np.float32(-0.0)]], dtype="<f4")
        raw = BINARY_V2_CODEC.encode_predict_stream([1], rows)
        request, error = BINARY_V2_CODEC.decode_request(raw[4:])
        assert error is None
        assert request.rows.tobytes() == rows.tobytes()

    def test_truncated_stream_payload_draws_invalid_frame(self):
        good = BINARY_V2_CODEC.encode_predict_stream(
            [1, 2], [[1.0, 2.0], [3.0, 4.0]])
        _, error = BINARY_V2_CODEC.decode_request(good[4:-4])
        assert error["code"] == ERROR_INVALID_FRAME

    def test_zero_row_stream_draws_invalid_frame(self):
        payload = struct.pack("<II", 0, 3)
        _, error = BINARY_V2_CODEC.decode_request(
            bytes([FRAME_PREDICT_STREAM]) + payload)
        assert error["code"] == ERROR_INVALID_FRAME

    def test_short_response_payload_raises(self):
        good = BINARY_V2_CODEC.encode_predictions_stream([1, 2], [0, 0])
        with pytest.raises(ValueError):
            BINARY_V2_CODEC.decode_response(good[4:-4])

    def test_retired_single_row_frames_are_refused(self):
        """0x01 PREDICT is no frame type any more: a typed error."""
        predict = bytes([0x01]) + struct.pack("<qIff", 3, 2, 0.5, 1.25)
        request, error = BINARY_V2_CODEC.decode_request(predict)
        assert request is None
        assert error["code"] == ERROR_INVALID_FRAME
        assert "0x01" in error["error"]
        with pytest.raises(ValueError):
            BINARY_V2_CODEC.decode_response(struct.pack("<Bqi", 0x81, 3, 1))

    def test_wire_session_counts_stream_rows_as_requests(self):
        wire = WireSession()
        wire.negotiate({"cmd": "hello", "codecs": [CODEC_BINARY_V2]})
        assert wire.codec is BINARY_V2_CODEC
        _land(wire, BINARY_V2_CODEC.encode_predict_stream(
            [1, 2, 3], [[1.0], [2.0], [3.0]]))
        request, error = wire.decode(wire.next_frame())
        assert error is None and len(request) == 3
        assert wire.requests == {CODEC_BINARY_V2: 3}


# -- binary batch frames and the JSON rows answer --------------------------


class TestBatchFrameGoldens:
    """Raw-byte golden vectors for the 0x02/0x82 batch frames and the
    JSON ``rows`` answer."""

    ROWS = [[1.5, -2.0], [0.25, 4.0], [-0.5, 8.0]]

    def test_batch_golden_bytes(self):
        expected = (
            struct.pack("<IB", 16 + 24, FRAME_BATCH)
            + struct.pack("<qII", 9, 3, 2)        # id, rows, cols
            + struct.pack("<6f", 1.5, -2.0, 0.25, 4.0, -0.5, 8.0)
        )
        for rows in (self.ROWS, np.asarray(self.ROWS),
                     np.asarray(self.ROWS, dtype="<f4")):
            raw = BINARY_V2_CODEC.encode_request({"id": 9, "rows": rows})
            assert raw == expected

    def test_batch_golden_decode(self):
        """A BATCH decodes to an f32 view of its payload; through a
        :class:`WireSession` the view is 8-byte aligned, also behind an
        odd-length frame in the same receive chunk, whether the session
        owes an answer (the frame is copied) or not (the unread bytes
        move)."""
        payload = (struct.pack("<qII", 9, 3, 2)
                   + struct.pack("<6f", 1.5, -2.0, 0.25, 4.0, -0.5, 8.0))
        request, error = BINARY_V2_CODEC.decode_request(
            bytes([FRAME_BATCH]) + payload)
        assert error is None
        assert request.keys() == {"id", "rows"} and request["id"] == 9
        assert request["rows"].dtype == np.float32
        np.testing.assert_array_equal(request["rows"], self.ROWS)
        batch = HEADER.pack(len(payload), FRAME_BATCH) + payload
        odd = BINARY_V2_CODEC.encode_request({"cmd": "info", "id": 1})
        assert len(odd) % 2
        for n_odd, owed in ((0, 0), (1, 0), (1, 1), (3, 1)):
            wire = _v2_session()
            wire.defer(owed)
            _land(wire, odd * n_odd + batch)
            kept = []
            for _ in range(n_odd):
                kept.append(wire.next_frame())
                assert bytes(kept[-1]) == odd[4:]
            request, error = wire.decode(wire.next_frame())
            assert error is None and request["id"] == 9
            rows = request["rows"]
            assert rows.dtype == np.float32 and rows.flags.aligned
            assert rows.ctypes.data % 8 == 0
            np.testing.assert_array_equal(rows, self.ROWS)
            if owed:  # no byte an unanswered request may read has moved
                assert all(bytes(raw) == odd[4:] for raw in kept)

    def test_predictions_golden_bytes(self):
        raw = BINARY_V2_CODEC.encode_response(
            {"ok": True, "id": 9, "predictions": np.array([3, 1])})
        expected = (
            struct.pack("<IB", 12 + 8, FRAME_PREDICTIONS)
            + struct.pack("<qI", 9, 2)            # id, n
            + struct.pack("<ii", 3, 1)            # predictions
        )
        assert raw == expected

    def test_predictions_golden_decode(self):
        payload = struct.pack("<qI", 9, 2) + struct.pack("<ii", 3, 1)
        response = BINARY_V2_CODEC.decode_response(
            bytes([FRAME_PREDICTIONS]) + payload)
        assert response == {"ok": True, "id": 9, "predictions": [3, 1]}
        assert [type(p) for p in response["predictions"]] == [int, int]

    def test_rows_answer_golden(self, stream_engine, tiny_dataset):
        """A ``rows`` request answers the integer prediction array: the
        JSON line and the packed PREDICTIONS frame are the bytes below."""
        trained, engine = stream_engine
        X = _f32(tiny_dataset.matrix(trained.feature_names_))[:3]
        preds = [int(p) for p in trained.predict_batch(X)]
        frame = engine.handle({"id": 4, "rows": X.tolist()})
        assert frame.keys() == {"ok", "id", "predictions"}
        assert frame["ok"] is True and frame["id"] == 4
        assert frame["predictions"].dtype.kind == "i"
        assert frame["predictions"].tolist() == preds
        line = engine.turn({"id": 4, "rows": X.tolist()}, JSON_CODEC)
        assert line == (b'{"ok": true, "id": 4, "predictions": '
                        b'[%d, %d, %d]}\n' % tuple(preds))
        packed = engine.turn({"id": 4, "rows": X}, BINARY_V2_CODEC)
        assert packed == (struct.pack("<IB", 12 + 12, FRAME_PREDICTIONS)
                          + struct.pack("<qI", 4, 3)
                          + struct.pack("<iii", *preds))


# -- negotiated binary-v2 connections over real daemons --------------------


class _Unrowable(np.ndarray):
    """An ndarray whose rows cannot be iterated one by one."""

    def __iter__(self):
        raise AssertionError("the rows were iterated")


class TestBinaryV2Daemon:
    @pytest.mark.parametrize("fleet_mode", [False, True])
    def test_mixed_codec_clients_byte_identical(
            self, trained, tiny_dataset, unix_path, fleet_mode):
        """Acceptance: json + v2 clients against one daemon score
        f32-identical inputs to identical predictions over every
        verb, on classifier and fleet daemons."""
        X = _f32(tiny_dataset.matrix(trained.feature_names_))
        kwargs: dict = {"classifier": trained}
        if fleet_mode:
            from repro.api.fleet import ModelFleet, ModelPool

            kwargs = {"fleet": ModelFleet(ModelPool(), default=trained)}
        with ScoringDaemon(socket_path=unix_path, workers=4, **kwargs):
            with ScoringClient(socket_path=unix_path) as js, \
                    ScoringClient(socket_path=unix_path,
                                  codec=CODEC_BINARY_V2) as v2:
                assert js.codec == CODEC_JSON
                assert v2.codec == CODEC_BINARY_V2
                expected = js.predict_pipelined(X, window=16)
                assert v2.predict_pipelined(X, window=16) == expected
                assert v2.predict_batch(X) == js.predict_batch(X)
                assert [v2.predict(list(row)) for row in X[:8]] == \
                    [js.predict(list(row)) for row in X[:8]]
                assert v2.predict_kernel("gemm", size=512) == \
                    js.predict_kernel("gemm", size=512)
                # both sides run the same descent, so also check the
                # served answers against the per-row node walk, on each
                # side of the small-block cut-off
                oracle = partial(predict_rowwise, trained.model_)
                small = X[:_WALK_MAX_ROWS]
                large = np.tile(X, (_WALK_MAX_ROWS // len(X) + 1, 1))
                assert js.predict(list(X[0])) == int(oracle(X[:1])[0])
                assert v2.predict_pipelined(small) == \
                    [int(p) for p in oracle(small)]
                assert v2.predict_batch(large) == \
                    [int(p) for p in oracle(large)]

    def test_eventloop_counts_stream_frames_and_rows(
            self, trained, tiny_dataset, unix_path):
        """The coalesced zero-decode path actually runs: a pipelined v2
        window must arrive as a few multi-row frames, not row frames."""
        from repro.api.fleet import ModelFleet, ModelPool

        X = _f32(tiny_dataset.matrix(trained.feature_names_))
        fleet = ModelFleet(ModelPool(), default=trained)
        with ScoringDaemon(fleet=fleet, socket_path=unix_path,
                           workers=2):
            with ScoringClient(socket_path=unix_path,
                               codec=CODEC_BINARY_V2) as client:
                predictions = client.predict_pipelined(X, window=32)
                server = AdminClient(client).stats()["server"]
            assert predictions == [int(p) for p in
                                   trained.predict_batch(X)]
            assert server["stream_rows"] >= len(X)
            assert 1 <= server["stream_frames"] < len(X)

    def test_garbage_stream_frame_typed_error_then_teardown(
            self, trained, unix_path):
        """A truncated 0x03 frame yields one typed error and a clean
        connection teardown — no partial answers, no hang."""
        from repro.api.fleet import ModelFleet, ModelPool

        fleet = ModelFleet(ModelPool(), default=trained)
        with ScoringDaemon(fleet=fleet, socket_path=unix_path, workers=2):
            sock = _connect(unix_path)
            with sock:
                sock.sendall(b'{"cmd": "hello", "id": 1, '
                             b'"codecs": ["binary-v2"]}\n')
                assert json.loads(_recv_line(sock))["codec"] == \
                    CODEC_BINARY_V2
                # declares 3 rows x 4 cols but ships 4 payload bytes
                sock.sendall(HEADER.pack(8 + 4, FRAME_PREDICT_STREAM)
                             + struct.pack("<II", 3, 4) + b"\0\0\0\0")
                frame = _recv_binary_frame(sock)
                assert frame[0] == FRAME_JSON
                error = json.loads(frame[1:])
                assert error["ok"] is False
                assert error["code"] == ERROR_INVALID_FRAME
                assert sock.recv(1) == b""  # clean teardown

    def test_column_mismatch_answers_every_row_id(
            self, trained, unix_path):
        """A well-formed stream whose rows don't match the model's
        feature count gets one typed error per req id — every id is
        answered, nothing is silently dropped."""
        from repro.api.fleet import ModelFleet, ModelPool

        fleet = ModelFleet(ModelPool(), default=trained)
        with ScoringDaemon(fleet=fleet, socket_path=unix_path, workers=2):
            sock = _connect(unix_path)
            with sock:
                sock.sendall(b'{"cmd": "hello", '
                             b'"codecs": ["binary-v2"]}\n')
                _recv_line(sock)
                sock.sendall(BINARY_V2_CODEC.encode_predict_stream(
                    [11, 12], [[1.0, 2.0], [3.0, 4.0]]))
                seen = set()
                for _ in range(2):
                    frame = _recv_binary_frame(sock)
                    assert frame[0] == FRAME_JSON
                    error = json.loads(frame[1:])
                    assert error["ok"] is False
                    assert error["code"] == ERROR_BAD_REQUEST
                    seen.add(error["id"])
                assert seen == {11, 12}

    def test_pipelined_reconnect_renegotiates_v2(
            self, trained, tiny_dataset, unix_path):
        """Acceptance: a pipelined v2 client that loses its daemon
        re-hellos on the fresh connection and stays on binary-v2."""
        X = _f32(tiny_dataset.matrix(trained.feature_names_))
        expected = [int(p) for p in trained.predict_batch(X)]
        daemon = ScoringDaemon(trained, socket_path=unix_path, workers=2)
        daemon.start()
        try:
            client = ScoringClient(socket_path=unix_path,
                                   codec=CODEC_BINARY_V2,
                                   reconnect_retries=4)
            with client:
                assert client.predict_pipelined(X) == expected
                assert client.codec == CODEC_BINARY_V2
                daemon.stop()
                daemon = ScoringDaemon(trained, socket_path=unix_path,
                                       workers=2)
                daemon.start()
                assert client.predict_pipelined(X) == expected
                assert client.codec == CODEC_BINARY_V2
        finally:
            daemon.stop()

    def test_pipelined_row_shapes_agree(self, trained, tiny_dataset,
                                        unix_path):
        """A 2-D f32 or f64 ndarray, a list of row arrays and a list of
        lists score to identical answers on binary-v2."""
        X = _f32(tiny_dataset.matrix(trained.feature_names_))
        expected = [int(p) for p in trained.predict_batch(X)]
        with ScoringDaemon(trained, socket_path=unix_path, workers=2):
            with ScoringClient(socket_path=unix_path,
                               codec=CODEC_BINARY_V2) as client:
                assert client.codec == CODEC_BINARY_V2
                for rows in (X, X.astype(np.float32), list(X), X.tolist()):
                    got = client.predict_pipelined(rows, window=8)
                    assert got == expected
                    assert {type(p) for p in got} == {int}

    def test_pipelined_ndarray_rows_are_not_iterated(
            self, trained, tiny_dataset, unix_path):
        """A 2-D ndarray goes to the stream frames as one matrix: a
        subclass whose ``__iter__`` raises still scores."""
        X = _f32(tiny_dataset.matrix(trained.feature_names_))
        expected = [int(p) for p in trained.predict_batch(X)]
        with ScoringDaemon(trained, socket_path=unix_path, workers=2):
            with ScoringClient(socket_path=unix_path,
                               codec=CODEC_BINARY_V2) as client:
                for rows in (X, X.astype(np.float32)):
                    assert client.predict_pipelined(
                        rows.view(_Unrowable)) == expected

    def test_single_predict_travels_as_one_stream_frame(
            self, trained, tiny_dataset, unix_path):
        """A binary-v2 predict() is a 1-row PREDICT_STREAM: it equals
        the local prediction on the f32 row and raises the server's
        stream_frames counter by exactly one."""
        X = _f32(tiny_dataset.matrix(trained.feature_names_))
        with ScoringDaemon(trained, socket_path=unix_path, workers=2):
            with ScoringClient(socket_path=unix_path,
                               codec=CODEC_BINARY_V2) as client:
                admin = AdminClient(client)
                before = admin.stats()["server"]
                assert client.predict(list(X[3])) == trained.predict(X[3])
                after = admin.stats()["server"]
        assert after["stream_frames"] == before["stream_frames"] + 1
        assert after["stream_rows"] == before["stream_rows"] + 1

    def test_pipelined_restart_onto_json_only_finishes_all_rows(
            self, trained, tiny_dataset, unix_path):
        """If the replacement daemon negotiates away from binary-v2
        mid-pipelining, leftover rows finish as classic frames with
        identical predictions (same f32 inputs)."""
        X = _f32(tiny_dataset.matrix(trained.feature_names_))
        expected = [int(p) for p in trained.predict_batch(X)]
        daemon = ScoringDaemon(trained, socket_path=unix_path, workers=2)
        daemon.start()
        try:
            client = ScoringClient(socket_path=unix_path,
                                   codec=CODEC_BINARY_V2,
                                   reconnect_retries=4)
            with client:
                assert client.predict_pipelined(X) == expected
                daemon.stop()
                daemon = ScoringDaemon(trained, socket_path=unix_path,
                                       workers=2, codecs=(CODEC_JSON,))
                daemon.start()
                assert client.predict_pipelined(X) == expected
                assert client.codec == CODEC_JSON
        finally:
            daemon.stop()


class TestHelloWithRequestsOutstanding:
    def test_pipelined_row_then_hello_keeps_json(self, trained,
                                                 tiny_dataset, unix_path):
        """A rows request and a binary-v2 hello in one chunk: the hello
        is refused, so the row's answer is a JSON line and the
        connection still speaks JSON afterwards."""
        X = _f32(tiny_dataset.matrix(trained.feature_names_))[:2]
        want = [int(p) for p in trained.predict_batch(X)]
        rows = json.dumps({"rows": X.tolist(), "id": 1}).encode()
        hello = b'{"cmd": "hello", "id": 2, "codecs": ["binary-v2"]}'
        with ScoringDaemon(trained, socket_path=unix_path, workers=2):
            sock = _connect(unix_path)
            with sock:
                sock.sendall(rows + b"\n" + hello + b"\n")
                reader = sock.makefile("rb")
                answers = {}
                for _ in range(2):
                    frame = json.loads(reader.readline())
                    answers[frame["id"]] = frame
                assert answers[1] == {"ok": True, "id": 1,
                                      "predictions": want}
                assert answers[2]["ok"] is False
                assert answers[2]["code"] == ERROR_BAD_REQUEST
                sock.sendall(b'{"cmd": "info", "id": 3}\n')
                assert json.loads(reader.readline())["id"] == 3
                reader.close()


class TestReconnectRenegotiation:
    def test_pipelined_resend_after_restart_renegotiates(
            self, trained, tiny_dataset, unix_path):
        """Acceptance: a client scoring single rows through the
        pipelined loop that loses its daemon re-negotiates the codec on
        the fresh connection and completes."""
        X = _f32(tiny_dataset.matrix(trained.feature_names_))
        expected = [int(p) for p in trained.predict_batch(X)]
        daemon = ScoringDaemon(trained, socket_path=unix_path, workers=2)
        daemon.start()
        try:
            client = ScoringClient(socket_path=unix_path,
                                   codec=CODEC_BINARY_V2,
                                   reconnect_retries=4)
            with client:
                assert [client.predict(list(row)) for row in X] == expected
                assert client.codec == CODEC_BINARY_V2
                daemon.stop()
                daemon = ScoringDaemon(trained, socket_path=unix_path,
                                       workers=2)
                daemon.start()
                # the dropped connection is re-dialled inside the
                # pipelined loop a single predict() runs on; the fresh
                # connection must re-hello
                assert [client.predict(list(row)) for row in X] == expected
                assert client.codec == CODEC_BINARY_V2
        finally:
            daemon.stop()

    def test_sequential_retry_against_json_only_restart(
            self, trained, tiny_dataset, unix_path):
        """A binary client whose daemon comes back JSON-pinned degrades
        to JSON transparently on reconnect."""
        X = _f32(tiny_dataset.matrix(trained.feature_names_))
        expected = [int(p) for p in trained.predict_batch(X)]
        daemon = ScoringDaemon(trained, socket_path=unix_path, workers=2)
        daemon.start()
        try:
            client = ScoringClient(socket_path=unix_path,
                                   codec=CODEC_BINARY_V2,
                                   reconnect_retries=4)
            with client:
                assert client.predict_batch(X) == expected
                daemon.stop()
                daemon = ScoringDaemon(trained, socket_path=unix_path,
                                       workers=2, codecs=(CODEC_JSON,))
                daemon.start()
                assert client.predict_batch(X) == expected
                assert client.codec == CODEC_JSON
        finally:
            daemon.stop()

    def test_unknown_codec_preference_rejected_client_side(self):
        for codec in ("zstd-9000", "binary-v1"):
            with pytest.raises(ScoringError, match="unknown codec"):
                ScoringClient(socket_path="/nonexistent", codec=codec)


# -- properties of the surviving frame set ---------------------------------

_I64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
_I32 = st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1)
_REQ_ID = st.one_of(st.none(), st.integers(min_value=NO_ID + 1,
                                           max_value=2 ** 63 - 1))
_F32 = st.floats(width=32, allow_nan=False)


def _f32_matrix(draw, rows: int, cols: int) -> np.ndarray:
    values = draw(st.lists(_F32, min_size=rows * cols,
                           max_size=rows * cols))
    return np.asarray(values, dtype="<f4").reshape(rows, cols)


def _with_id(frame: dict, req_id) -> dict:
    return frame if req_id is None else dict(frame, id=req_id)


@st.composite
def _frame(draw, ftype: int):
    """One encoded frame of *ftype* and a check of its decoded form.

    Request frames (0x00 request, 0x02, 0x03) are checked through the
    server's :meth:`WireSession.decode`, response frames (0x00
    response, 0x82, 0x83) through :meth:`BinaryV2Codec.decode_response`.
    """
    codec = BINARY_V2_CODEC
    req_id = draw(_REQ_ID)
    if ftype == FRAME_JSON:
        if draw(st.booleans()):
            frame = _with_id({"features": draw(st.lists(_F32, max_size=4)),
                              "model": "tree:static-all"}, req_id)
            return codec.encode_request(frame), ("request", frame)
        frame = error_frame(ERROR_BAD_REQUEST, draw(st.text(max_size=16)),
                            req_id)
        return codec.encode_response(frame), ("response", frame)
    if ftype == FRAME_BATCH:
        rows = _f32_matrix(draw, draw(st.integers(0, 4)),
                           draw(st.integers(0, 4)))
        encoded = codec.encode_request(_with_id({"rows": rows}, req_id))
        return encoded, ("batch", (req_id, rows))
    if ftype == FRAME_PREDICTIONS:
        frame = _with_id({"ok": True}, req_id)
        frame["predictions"] = draw(st.lists(_I32, max_size=6))
        answer = dict(frame, predictions=np.asarray(frame["predictions"],
                                                    dtype=np.int64))
        return codec.encode_response(answer), ("response", frame)
    count = draw(st.integers(1 if ftype == FRAME_PREDICT_STREAM else 0, 5))
    ids = np.asarray(draw(st.lists(_I64, min_size=count, max_size=count)),
                     dtype="<i8")
    if ftype == FRAME_PREDICT_STREAM:
        rows = _f32_matrix(draw, count, draw(st.integers(0, 4)))
        return (codec.encode_predict_stream(ids, rows),
                ("stream", (ids, rows)))
    predictions = np.asarray(
        draw(st.lists(_I32, min_size=count, max_size=count)), dtype="<i4")
    return (codec.encode_predictions_stream(ids, predictions),
            ("pstream", (ids, predictions)))


_FRAME_TYPES = (FRAME_JSON, FRAME_BATCH, FRAME_PREDICT_STREAM,
                FRAME_PREDICTIONS, FRAME_PREDICTIONS_STREAM)


@st.composite
def _frame_sequences(draw):
    """Every surviving frame type at least once, plus extras, shuffled."""
    types = list(_FRAME_TYPES) + draw(
        st.lists(st.sampled_from(_FRAME_TYPES), max_size=6))
    frames = [draw(_frame(ftype)) for ftype in types]
    return draw(st.permutations(frames))


def _split(blob: bytes, cuts) -> list:
    points = sorted({min(cut, len(blob)) for cut in cuts})
    return [blob[a:b] for a, b in zip([0] + points, points + [len(blob)])]


def _v2_session(**kwargs) -> WireSession:
    wire = WireSession(**kwargs)
    wire.negotiate({"cmd": "hello", "codecs": [CODEC_BINARY_V2]})
    assert wire.codec is BINARY_V2_CODEC
    return wire


def _assert_decodes_to(wire: WireSession, raw: bytes, expected) -> None:
    kind, want = expected
    if kind == "response":
        assert BINARY_V2_CODEC.decode_response(raw) == want
        return
    if kind == "pstream":
        ids, predictions = BINARY_V2_CODEC.decode_response(raw)["stream"]
        assert ids.tobytes() == want[0].tobytes()
        assert predictions.tobytes() == want[1].tobytes()
        return
    request, error = wire.decode(raw)
    assert error is None
    if kind == "request":
        assert request == want
    elif kind == "batch":
        req_id, rows = want
        assert request.get("id") == req_id
        assert request["rows"].shape == rows.shape
        assert request["rows"].dtype == np.float32
        assert request["rows"].tobytes() == rows.tobytes()
    else:
        ids, rows = want
        assert type(request) is PredictStream
        assert request.ids.tobytes() == ids.tobytes()
        assert request.rows.shape == rows.shape
        assert request.rows.tobytes() == rows.tobytes()


@st.composite
def _hostile_bytes(draw) -> bytes:
    """Byte soup shaped like frames: plausible headers over arbitrary
    payloads with off-by-a-few lengths, mixed with raw noise."""
    pieces = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 3)) == 0:
            pieces.append(draw(st.binary(max_size=48)))
            continue
        payload = draw(st.binary(max_size=48))
        ftype = draw(st.one_of(st.sampled_from(
            (0x00, 0x01, 0x02, 0x03, 0x7F, 0x81, 0x82, 0x83)),
            st.integers(0, 255)))
        length = max(0, len(payload) + draw(st.sampled_from((-1, 0, 0, 1))))
        pieces.append(HEADER.pack(length, ftype) + payload)
    return b"".join(pieces)


@pytest.fixture(scope="module")
def stream_engine(tiny_dataset):
    trained = Classifier(ReproConfig(profile="unit")).train(tiny_dataset)
    return trained, RequestEngine(trained)


class _FlakyClassifier:
    """A classifier whose batch call fails and whose *bad* rows raise,
    forcing :meth:`RequestEngine.execute` onto its per-row fallback."""

    def __init__(self, inner, bad: set) -> None:
        self.inner = inner
        self.bad = bad

    def predict_batch(self, X):
        raise RuntimeError("batch scoring failed")

    def predict(self, row):
        if tuple(row) in self.bad:
            raise ValueError("poisoned row")
        return self.inner.predict(row)


def _answered_ids(blob: bytes) -> list:
    """The request id each frame of an answer blob answers, in order."""
    answered = []
    while blob:
        length, _ = HEADER.unpack_from(blob)
        frame = BINARY_V2_CODEC.decode_response(blob[4:HEADER.size + length])
        blob = blob[HEADER.size + length:]
        if "stream" in frame:
            answered.extend(frame["stream"][0].tolist())
        else:
            assert frame["ok"] is False
            answered.append(frame.get("id", NO_ID))
    return answered


class TestFrameProperties:
    @settings(max_examples=80, deadline=None)
    @given(frames=_frame_sequences(),
           cuts=st.lists(st.integers(0, 4096), max_size=12))
    def test_every_frame_type_roundtrips_across_chunk_splits(
            self, frames, cuts):
        wire = _v2_session()
        blob = b"".join(encoded for encoded, _ in frames)
        raws = []
        for chunk in _split(blob, cuts):
            # kept past the next receive, so copied
            raws.extend(map(bytes, _receive(wire, chunk)))
        assert not wire.fatal and wire._start == wire._end  # all framed
        assert [raw[0] for raw in raws] == \
            [encoded[4] for encoded, _ in frames]
        for raw, (_, expected) in zip(raws, frames, strict=True):
            _assert_decodes_to(wire, raw, expected)

    @settings(max_examples=150, deadline=None)
    @given(blob=st.one_of(_hostile_bytes(), st.binary(max_size=256)),
           cuts=st.lists(st.integers(0, 512), max_size=8))
    def test_arbitrary_bytes_after_v2_never_raise(self, blob, cuts):
        """Frames, or exactly one typed error and then fatal."""
        wire = _v2_session(max_bytes=64)
        errors = []
        for chunk in _split(blob, cuts):
            for raw in _receive(wire, chunk):
                _, error = wire.decode(raw)
                if error is not None:
                    errors.append(error)
            farewell = wire.take_pending_error()
            if farewell is not None:
                errors.append(BINARY_V2_CODEC.decode_response(farewell[4:]))
            if wire.fatal:
                break
        assert len(errors) <= 1
        if errors:
            assert wire.fatal and wire.next_frame() is None
            assert errors[0]["ok"] is False
            assert errors[0]["code"] in (ERROR_INVALID_FRAME,
                                         ERROR_TOO_LARGE, "invalid_json")
            # the typed error always encodes for the farewell write
            assert wire.encode_response(errors[0])[4] == FRAME_JSON

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_stream_id_is_answered_exactly_once(
            self, stream_engine, data):
        trained, engine = stream_engine
        n_features = len(trained.feature_names_)
        count = data.draw(st.integers(1, 12))
        ids = data.draw(st.lists(_I64, min_size=count, max_size=count,
                                 unique=True))
        cols = data.draw(st.one_of(st.just(n_features),
                                   st.integers(1, n_features + 2)))
        rows = _f32_matrix(data.draw, count, cols)
        mode = data.draw(st.sampled_from(("score", "flaky", "draining")))
        wire = _v2_session()
        _land(wire, BINARY_V2_CODEC.encode_predict_stream(ids, rows))
        request, error = wire.decode(wire.next_frame())
        assert error is None
        engine.draining = mode == "draining"
        try:
            verdict = engine.classify(request, wire, "token")
        finally:
            engine.draining = False
        if type(verdict) is list:
            answered = [frame.get("id", NO_ID) for frame in verdict]
        else:
            if mode == "flaky":
                bad = {tuple(row) for row in data.draw(st.lists(
                    st.sampled_from(rows.tolist()), max_size=count))}
                verdict.classifier = _FlakyClassifier(trained, bad)
            blobs = []
            engine.execute([verdict], lambda block, encoded:
                           blobs.append(encoded))
            assert len(blobs) == 1
            answered = _answered_ids(blobs[0])
        assert Counter(answered) == Counter(ids)


# -- JSON decoding pinned to json.loads --------------------------------------

_BOMS = (b"\xef\xbb\xbf", b"\xff\xfe", b"\xfe\xff", b"\xff\xfe\x00\x00",
         b"\x00\x00\xfe\xff")
#: JSON documents in every encoding ``json.loads`` detects, with and
#: without a BOM
_DOCUMENTS = tuple(
    json.dumps(value).encode(encoding, "surrogatepass")
    for value in ({"features": [0.1, 2, -3e300], "id": 7}, [], None, "\ud800",
                  {"ok": True, "id": -1, "prediction": 3}, "\xe9\U0001f600",
                  {"a": {"b": [False, float("nan")]}})
    for encoding in ("utf-8", "utf-8-sig", "utf-16", "utf-16-le", "utf-16-be",
                     "utf-32", "utf-32-le", "utf-32-be"))
_LINE_PIECES = _BOMS + _DOCUMENTS + (
    b"\x00", b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf0\x9f\x98\x80",
    b'"\\ud800"', b'"\\udc00x"', b" ", b"\t", b"\r", b"\n", b"\x0b", b"\x0c",
    b"{", b"}", b"[", b"]", b'"', b":", b",", b"1", b"-0.5e3", b"true",
    b"null", b"NaN", b"Infinity", b'"features"', b'"id"', b"\xc3\xa9")
#: byte lines near and far from JSON: documents spliced with BOMs, NULs,
#: invalid UTF-8, lone-surrogate escapes, whitespace, tokens and noise
_BYTE_LINES = st.lists(st.sampled_from(_LINE_PIECES) | st.binary(max_size=12),
                       min_size=1, max_size=8).map(b"".join)


def _outcome(decode, raw) -> tuple:
    """What *decode* does with *raw*: its value's repr (NaN-safe, and
    int apart from float) or the type and text of what it raised."""
    try:
        return ("value", repr(decode(raw)))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def _decode_json_raw_before(raw: bytes):
    """``decode_json_raw`` as it parsed before: ``json.loads`` on bytes."""
    raw = raw.strip()
    if not raw:
        return None, None
    try:
        return json.loads(raw), None
    except ValueError as exc:
        return None, error_frame(ERROR_INVALID_JSON, f"invalid JSON: {exc}")


def _check_json_decoding(raw: bytes) -> None:
    assert _outcome(decode_json_raw, raw) == _outcome(
        _decode_json_raw_before, raw)
    assert _outcome(JSON_CODEC.decode_response, raw) == _outcome(
        json.loads, raw)


class TestJsonDecodeMatchesJsonLoads:
    """The daemon's and the client's JSON decode give what ``json.loads``
    on the raw bytes gives: the same value, the same ``invalid JSON``
    frame, the same exception; the long run is ``slow``."""

    @pytest.mark.parametrize("raw", [
        b'{"features": [1.5, 2], "id": 3}', b"  {} \r", b"{\x00}",
        b"\xef\xbb\xbf{}", '{"a": 1}'.encode("utf-16"), b'{"\xff"}',
        b'{"a": "\\ud800"}', b'{"a": "\xed\xa0\x80"}', b"[1]", b"{", b"",
        b"\x00", b"{\xc3"])
    def test_edge_lines(self, raw):
        _check_json_decoding(raw)

    @settings(max_examples=300, deadline=None)
    @given(raw=_BYTE_LINES)
    def test_byte_lines(self, raw):
        _check_json_decoding(raw)

    @pytest.mark.slow
    @settings(max_examples=3000, deadline=None)
    @given(raw=_BYTE_LINES)
    def test_byte_lines_long(self, raw):
        _check_json_decoding(raw)


# -- the connection lifecycle as a state machine ---------------------------


_MAX_BYTES = 256
_LINGER = 2.0


def _peer_rows(ids) -> np.ndarray:
    """The f32 rows the peer sends for *ids*: two cells per row, each
    naming its id, row and column."""
    base = np.asarray(ids, dtype=np.float64)[:, None] * 64
    cells = base + np.arange(2 * len(ids)).reshape(-1, 2)
    return cells.astype("<f4")


def _checked_rows(rows, ids):
    """*rows*, after checking it is an aligned f32 view that still
    holds the rows the peer sent for *ids*."""
    assert rows.dtype == np.float32 and rows.ctypes.data % 8 == 0
    assert rows.tobytes() == _peer_rows(ids).tobytes()
    return rows


class _PeerReader:
    """What a client makes of the server's bytes: the frames in order,
    switching codec right after a hello answer, as the server does."""

    def __init__(self, binary: bool = False) -> None:
        self.buf = bytearray()
        self.binary = binary
        self.frames: list = []

    def feed(self, data: bytes) -> None:
        self.buf += data
        while True:
            if not self.binary:
                idx = self.buf.find(b"\n")
                if idx < 0:
                    return
                frame = json.loads(bytes(self.buf[:idx]))
                del self.buf[:idx + 1]
            else:
                if len(self.buf) < HEADER.size:
                    return
                length, _ = HEADER.unpack_from(self.buf)
                if len(self.buf) < HEADER.size + length:
                    return
                frame = BINARY_V2_CODEC.decode_response(
                    bytes(self.buf[4:HEADER.size + length]))
                del self.buf[:HEADER.size + length]
            if "codec" in frame:
                self.binary = frame["codec"] == CODEC_BINARY_V2
            self.frames.append(frame)

    def answered(self) -> list:
        ids = []
        for frame in self.frames:
            if "stream" in frame:
                ids.extend(frame["stream"][0].tolist())
            elif frame.get("ok") and "answer" in frame:
                ids.append(frame["id"])
        return ids


class SessionLifecycle(RuleBasedStateMachine):
    """One :class:`WireSession` driven the way ``ScoringDaemon`` drives
    it, against a model peer.

    The machine plays the daemon: it routes each frame inline, deferred
    (a worker answers later, in any order) or coalesced (a row block
    scored by a later ``execute``); after every event it sends what
    fits in a path whose free space only the peer's reads open up (so
    sends are partial, down to 0 bytes) and applies what the session
    wants; it reads only under read interest.  The peer pipelines JSON
    or binary-v2 requests, negotiates codecs like the client (with
    nothing outstanding) or with requests still unanswered (a hello
    routed while answers are owed must be refused and switch nothing),
    sends malformed or oversized frames, half-closes and may then
    close.  A close with peer bytes unread
    would send RST and lose the answers the peer has not read yet, so
    it is allowed only at the linger deadline.

    The machine receives the way the daemon does, into the session's
    :meth:`~WireSession.buffer`.  Every row frame (a PREDICT_STREAM, or
    a BATCH the machine defers like a worker-path request) must decode
    to an 8-byte aligned f32 view that still holds the rows the peer
    sent when its answer is staged.
    """

    def __init__(self) -> None:
        super().__init__()
        self.session = WireSession(max_bytes=_MAX_BYTES)
        self.now = 0.0
        self.closed = False
        self.eof_read = False
        self.linger_expired = False
        self.routed: list = []
        # (id, codec captured at routing, BATCH rows view or None)
        self.deferred: list = []
        self.blocks: list = []  # coalesced (ids, rows view or None)
        self.inline_errors = 0
        # the peer
        self.capacity = 1
        self.negotiated = False  # binary-v2 from the start
        self.to_server = bytearray()
        self.delivered = bytearray()
        self.read_upto = 0
        self.reader = _PeerReader()
        self.sent_ids: list = []
        self.next_id = 0
        self.peer_binary = False
        self.awaiting_hello = False
        self.hellos = 0  # sent by the peer
        self.peer_eof = False
        self.peer_closed = False

    # -- the daemon's side -------------------------------------------------

    def _event(self, name: str, apply) -> None:
        """Run one session event, check the lingering rule, then sync."""
        s = self.session
        before = s.state
        apply()
        if before is LINGERING:
            # a lingering session closes at peer EOF or its deadline only
            expired = name == "tick" and self.now >= s.until
            assert (s.state is CLOSED) == (name == "eof" or expired)
            self.linger_expired = expired
        self._sync()

    def _sync(self) -> None:
        s = self.session
        if self.closed:
            return
        if s.out:
            if self.peer_closed:
                self._close()  # the send fails: the peer is gone
                return
            n = min(len(s.out), self._room())
            self.delivered += s.out[:n]
            s.sent(n)
        want = s.wants
        if want == s.interest:
            return
        if want == SHUT:
            assert s.fatal  # only a fatal error ends in a lingering close
            s.linger(self.now + _LINGER)
            want = READ
        if want == CLOSE:
            self._close()
            return
        s.interest = want

    def _room(self) -> int:
        return self.capacity - (len(self.delivered) - self.read_upto)

    def _close(self) -> None:
        s = self.session
        s.close()
        self.closed = True
        if self.peer_closed:
            self._check_answers(complete=False)
            return
        # nothing closes with unsent answers while the peer can still
        # read -- and a close with peer bytes unread (RST) loses what
        # the peer has not read yet, allowed only at the linger deadline
        assert not s.out and s.pending == 0
        assert not self.to_server or self.linger_expired
        self._check_answers(complete=True)

    def _check_answers(self, complete: bool) -> None:
        reader = _PeerReader(self.negotiated)
        reader.feed(bytes(self.delivered))
        answered = Counter(reader.answered())
        assert all(n == 1 for n in answered.values()), answered
        assert set(answered) <= set(self.routed)
        errors = [f for f in reader.frames if f.get("ok") is False]
        assert all("id" not in f for f in errors)
        if not complete:
            return
        # every routed request is answered exactly once before close
        assert answered == Counter(self.routed)
        assert len(errors) == self.inline_errors + self.session.fatal
        if self.session.fatal:
            # answers queued before a fatal error come before its farewell
            assert reader.frames[-1].get("ok") is False
            assert not reader.buf

    def _route(self, raw: bytes) -> None:
        s = self.session
        request, error = s.decode(raw)
        if error is not None:
            self.inline_errors += 1
            s.stage(s.encode_response(error))
            return
        if request is None:
            return
        owed, codec = s.pending, s.codec
        hello = s.negotiate(request)
        if hello is not None:
            if owed:  # refused: a typed error, and no codec switch
                assert s.codec is codec
                self.inline_errors += 1
            s.stage(hello)
        elif type(request) is PredictStream:
            ids = request.ids.tolist()
            self.routed.extend(ids)
            s.defer(len(ids))
            self.blocks.append((ids, _checked_rows(request.rows, ids)))
        else:
            rid = request["id"]
            self.routed.append(rid)
            if "rows" in request:  # a BATCH: the worker path
                s.defer()
                self.deferred.append((rid, s.codec, _checked_rows(
                    request["rows"], [rid] * len(request["rows"]))))
            elif request["route"] == "inline":
                s.stage(s.encode_response(ok_frame({"answer": rid}, rid)))
            elif request["route"] == "defer":
                s.defer()
                self.deferred.append((rid, s.codec, None))
            else:
                s.defer()
                self.blocks.append(([rid], None))

    @initialize(capacity=st.integers(1, 600), binary=st.booleans())
    def connect(self, capacity, binary):
        self.capacity = capacity
        if binary:  # negotiated before the run starts
            self.session.negotiate({"cmd": "hello",
                                    "codecs": [CODEC_BINARY_V2]})
            self.negotiated = self.peer_binary = self.reader.binary = True

    @precondition(lambda self: not self.closed
                  and self.session.interest & READ
                  and (self.to_server or self.peer_eof))
    @rule(k=st.integers(1, 600))
    def server_reads(self, k):
        view = self.session.buffer()
        assert len(view) > 0  # recv_into an empty view would read as EOF
        data = bytes(self.to_server[:min(k, len(view))])
        del self.to_server[:len(data)]
        self.eof_read |= not data
        view[:len(data)] = data

        def read():
            for raw in self.session.received(len(data)):
                self._route(raw)

        self._event("eof" if not data else "data", read)

    @precondition(lambda self: self.blocks)
    @rule()
    def execute(self):
        def score():
            s = self.session
            for ids, rows in self.blocks:
                if rows is not None:
                    _checked_rows(rows, ids)
                    encoded = BINARY_V2_CODEC.encode_predictions_stream(
                        ids, [0] * len(ids))
                else:
                    encoded = s.encode_response(
                        ok_frame({"answer": ids[0]}, ids[0]))
                s.stage(encoded, settles=len(ids))
            self.blocks.clear()

        self._event("execute", score)

    @precondition(lambda self: self.deferred)
    @rule(pick=st.integers(0, 2 ** 16))
    def complete(self, pick):
        rid, codec, rows = self.deferred.pop(pick % len(self.deferred))
        if rows is not None:
            _checked_rows(rows, [rid] * len(rows))
        self._event("complete", lambda: self.session.stage(
            codec.encode_response(ok_frame({"answer": rid}, rid)),
            settles=1))

    @precondition(lambda self: self.closed
                  or self.session.state is not OPEN)
    @rule(dt=st.sampled_from([0.1, 1.0, 2.5]))
    def tick(self, dt):
        self.now += dt
        self._event("tick", lambda: self.session.tick(self.now))

    # -- the peer ----------------------------------------------------------

    def _can_send(self) -> bool:
        return not self.peer_eof and not self.awaiting_hello

    def _send(self, frame: dict) -> None:
        codec = BINARY_V2_CODEC if self.peer_binary else JSON_CODEC
        self.to_server += codec.encode_request(frame)

    def _new_ids(self, n: int) -> list:
        ids = list(range(self.next_id, self.next_id + n))
        self.next_id += n
        self.sent_ids.extend(ids)
        return ids

    @precondition(_can_send)
    @rule(routes=st.lists(st.sampled_from(["inline", "defer", "coalesce"]),
                          min_size=1, max_size=4))
    def send_requests(self, routes):
        for rid, route in zip(self._new_ids(len(routes)), routes):
            self._send({"id": rid, "route": route})

    @precondition(lambda self: self._can_send() and self.peer_binary)
    @rule(n=st.integers(1, 6))
    def send_stream(self, n):
        ids = self._new_ids(n)
        self.to_server += BINARY_V2_CODEC.encode_predict_stream(
            ids, _peer_rows(ids))

    @precondition(lambda self: self._can_send() and self.peer_binary)
    @rule(n=st.integers(1, 6))
    def send_batch(self, n):
        rid, = self._new_ids(1)
        self._send({"id": rid, "rows": _peer_rows([rid] * n)})

    @precondition(lambda self: self._can_send()
                  and set(self.sent_ids) <= set(self.reader.answered()))
    @rule(offers=st.sampled_from([[CODEC_BINARY_V2], [CODEC_JSON],
                                  ["zstd-9000", CODEC_BINARY_V2]]))
    def send_hello(self, offers):
        # like the client: only with nothing outstanding, then wait
        self._send({"cmd": "hello", "codecs": offers})
        self.hellos += 1
        self.awaiting_hello = True

    @precondition(lambda self: self._can_send()
                  and not set(self.sent_ids) <= set(self.reader.answered()))
    @rule(offers=st.sampled_from([[CODEC_BINARY_V2], [CODEC_JSON]]))
    def send_hello_with_requests_outstanding(self, offers):
        # pipelined behind unanswered requests, then wait for its answer
        self._send({"cmd": "hello", "codecs": offers})
        self.hellos += 1
        self.awaiting_hello = True

    @precondition(_can_send)
    @rule(kind=st.sampled_from(["malformed", "oversized"]))
    def send_bad_frame(self, kind):
        if not self.peer_binary:
            self.to_server += (b"{not json\n" if kind == "malformed"
                               else b"x" * (3 * _MAX_BYTES))
        elif kind == "malformed":
            self.to_server += HEADER.pack(4, 0x7F) + b"junk"
        else:
            self.to_server += HEADER.pack(_MAX_BYTES + 1, FRAME_BATCH)

    @precondition(lambda self: not self.peer_closed
                  and self.read_upto < len(self.delivered))
    @rule(k=st.integers(1, 600))
    def peer_reads(self, k):
        k = min(k, len(self.delivered) - self.read_upto)
        self.reader.feed(bytes(
            self.delivered[self.read_upto:self.read_upto + k]))
        self.read_upto += k
        hello_answers = sum(
            1 for f in self.reader.frames
            if "codec" in f or f.get("code") == ERROR_BAD_REQUEST)
        if self.awaiting_hello and hello_answers == self.hellos:
            self.awaiting_hello = False
            self.peer_binary = self.reader.binary
        if not self.closed and self.session.interest & WRITE:
            self._event("writable", lambda: None)

    @precondition(lambda self: not self.peer_eof)
    @rule()
    def peer_half_closes(self):
        self.peer_eof = True

    @precondition(lambda self: self.peer_eof and not self.peer_closed)
    @rule()
    def peer_closes(self):
        self.peer_eof = self.peer_closed = True
        if not self.closed and self.session.interest & WRITE:
            self._event("writable", lambda: None)  # the send fails

    # -- invariants --------------------------------------------------------

    @invariant()
    def no_read_interest_after_eof_unless_lingering(self):
        s = self.session
        if self.closed or s.state is LINGERING:
            return
        if self.eof_read or s.state is DRAINING:
            assert not s.interest & READ

    def teardown(self):
        """Let everything owed arrive, the peer read it all and
        half-close: the session must then close, fully answered."""
        self.capacity = 1 << 30
        for _ in range(100):
            if self.closed:
                break
            if self.blocks:
                self.execute()
            elif self.deferred:
                self.complete(0)
            elif not self.peer_eof:
                self.peer_half_closes()
            elif self.session.interest & READ:
                self.server_reads(1 << 16)
            elif self.read_upto < len(self.delivered) or self._room() <= 0:
                self.peer_reads(1 << 16)
            else:
                self.tick(2.5)
        assert self.closed


class TestSessionLifecycle:
    """The invariants of :class:`SessionLifecycle` on hypothesis-chosen
    event sequences; the long run is ``slow``."""

    def test_state_machine(self):
        run_state_machine_as_test(SessionLifecycle, settings=settings(
            max_examples=150, stateful_step_count=40, deadline=None))

    @pytest.mark.slow
    def test_state_machine_long(self):
        run_state_machine_as_test(SessionLifecycle, settings=settings(
            max_examples=2000, stateful_step_count=40, deadline=None))
