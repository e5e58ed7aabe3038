"""Wire codec layer: negotiation, binary framing, legacy byte-identity."""

import json
import socket
import struct
import time

import numpy as np
import pytest

from repro.api import (
    Classifier,
    ReproConfig,
    ScoringClient,
    ScoringDaemon,
)
from repro.api.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_INVALID_FRAME,
    ERROR_TOO_LARGE,
    MAX_REQUEST_BYTES,
    encode_frame,
    ok_frame,
)
from repro.api.wire import (
    BINARY_CODEC,
    BINARY_V2_CODEC,
    CODEC_BINARY,
    CODEC_BINARY_V2,
    CODEC_JSON,
    DEFAULT_CODECS,
    FRAME_BATCH,
    FRAME_JSON,
    FRAME_PREDICT,
    FRAME_PREDICT_STREAM,
    FRAME_PREDICTIONS_STREAM,
    HEADER,
    JSON_CODEC,
    NO_ID,
    PredictStream,
    WireSession,
    get_codec,
    merge_codec_stats,
    prediction_frame,
)
from repro.errors import ScoringError


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


# -- WireSession unit tests ------------------------------------------------


class TestWireSession:
    def test_json_frames_across_chunk_boundaries(self):
        wire = WireSession()
        line = b'{"cmd": "info"}\n'
        wire.push(line[:7])
        assert wire.next_frame() is None
        wire.push(line[7:] + b'{"cmd": "stats"}\n')
        assert wire.next_frame() == b'{"cmd": "info"}'
        assert wire.next_frame() == b'{"cmd": "stats"}'
        assert wire.next_frame() is None
        assert wire.bytes_in == {CODEC_JSON: len(line) + 17}

    def test_newline_less_flood_is_fatal(self):
        wire = WireSession(max_bytes=64)
        wire.push(b"x" * 65)
        assert wire.next_frame() is None
        assert wire.fatal
        farewell = wire.take_pending_error()
        assert b'"too_large"' in farewell
        assert wire.take_pending_error() is None

    def test_binary_oversized_declared_length_is_fatal(self):
        wire = WireSession(max_bytes=64)
        wire.codec = BINARY_CODEC
        wire.push(HEADER.pack(65, FRAME_PREDICT))
        assert wire.next_frame() is None
        assert wire.fatal
        frame = json.loads(bytes(
            memoryview(wire.take_pending_error())[HEADER.size:]))
        assert frame["code"] == ERROR_TOO_LARGE

    def test_negotiate_switches_after_answering_in_old_codec(self):
        wire = WireSession()
        raw = wire.negotiate({"cmd": "hello", "id": 1,
                              "codecs": [CODEC_BINARY]})
        # the hello answer itself is a JSON line...
        assert json.loads(raw) == {"ok": True, "id": 1,
                                   "codec": CODEC_BINARY}
        # ...and every frame after it speaks binary
        assert wire.codec is BINARY_CODEC

    def test_negotiate_unknown_codecs_fall_back_to_json(self):
        wire = WireSession()
        raw = wire.negotiate({"cmd": "hello", "id": 2,
                              "codecs": ["zstd-9000", 42]})
        assert json.loads(raw)["codec"] == CODEC_JSON
        assert wire.codec is JSON_CODEC

    def test_negotiate_respects_server_offered_set(self):
        wire = WireSession(offered=(CODEC_JSON,))
        raw = wire.negotiate({"cmd": "hello", "codecs": [CODEC_BINARY]})
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
        predict = get_codec(CODEC_BINARY).encode_request(
            {"id": 7, "features": [1.0, 2.0]})
        wire.push(b'{"cmd": "hello", "codecs": ["binary-v1"]}\n' + predict)
        raw = wire.next_frame()
        assert wire.negotiate(json.loads(raw)) is not None
        frame = wire.next_frame()
        request, error = wire.decode(frame)
        assert error is None
        assert request["id"] == 7
        assert request["features"] == [1.0, 2.0]

    def test_merge_codec_stats_sums_sections(self):
        merged = merge_codec_stats([
            {"offered": ["binary-v1", "json"],
             "connections": {"json": 2}, "requests": {"json": 10},
             "bytes_in": {"json": 100}, "bytes_out": {"json": 200}},
            {"offered": ["json"],
             "connections": {"json": 1, "binary-v1": 3},
             "requests": {"binary-v1": 7},
             "bytes_in": {"binary-v1": 50}, "bytes_out": {}},
            None,
        ])
        assert merged["connections"] == {"json": 3, "binary-v1": 3}
        assert merged["requests"] == {"json": 10, "binary-v1": 7}
        assert set(merged["offered"]) == {"binary-v1", "json"}


class TestBinaryCodecRoundTrip:
    def test_predict_request_roundtrip(self):
        codec = get_codec(CODEC_BINARY)
        raw = codec.encode_request({"id": 3, "features": [0.5, 1.25]})
        request, error = codec.decode_request(raw[4:])
        assert error is None
        assert request == {"features": [0.5, 1.25], "id": 3}

    def test_batch_request_roundtrip_keeps_matrix(self):
        codec = get_codec(CODEC_BINARY)
        rows = _f32(np.arange(12, dtype=float).reshape(4, 3))
        raw = codec.encode_request({"id": 9, "rows": rows})
        request, error = codec.decode_request(raw[4:])
        assert error is None
        assert isinstance(request["rows"], np.ndarray)
        np.testing.assert_array_equal(request["rows"], rows)

    def test_no_id_sentinel(self):
        codec = get_codec(CODEC_BINARY)
        raw = codec.encode_request({"features": [1.0]})
        request, _ = codec.decode_request(raw[4:])
        assert "id" not in request
        response = codec.encode_prediction(None, 4)
        assert codec.decode_response(response[4:]) == {"ok": True,
                                                       "prediction": 4}

    def test_cold_verbs_travel_as_embedded_json(self):
        codec = get_codec(CODEC_BINARY)
        raw = codec.encode_request({"cmd": "info", "id": 1})
        assert raw[4] == FRAME_JSON
        request, error = codec.decode_request(raw[4:])
        assert error is None and request["cmd"] == "info"

    def test_predictions_response_roundtrip(self):
        codec = get_codec(CODEC_BINARY)
        frame = {"ok": True, "id": 5, "predictions": [1, 8, 2]}
        raw = codec.encode_response(frame)
        assert codec.decode_response(raw[4:]) == frame

    def test_size_mismatch_draws_invalid_frame(self):
        codec = get_codec(CODEC_BINARY)
        body = struct.pack("<qI", 1, 10) + b"\0" * 8  # declares 10 floats
        _, error = codec.decode_request(bytes([FRAME_PREDICT]) + body)
        assert error["code"] == ERROR_INVALID_FRAME

    def test_unknown_frame_type_draws_invalid_frame(self):
        codec = get_codec(CODEC_BINARY)
        _, error = codec.decode_request(b"\x7fgarbage")
        assert error["code"] == ERROR_INVALID_FRAME
        with pytest.raises(ValueError):
            codec.decode_response(b"\x7fgarbage")


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

    def test_stdio_engine_answers_hello_with_json(self, trained):
        from repro.api.transport import RequestEngine

        engine = RequestEngine(trained)
        frame = engine.handle({"cmd": "hello", "id": 1,
                               "codecs": [CODEC_BINARY]})
        assert frame == {"ok": True, "id": 1, "codec": CODEC_JSON}


# -- negotiated binary connections over real daemons -----------------------


class TestBinaryDaemon:
    def test_classifier_daemon_binary_round_trip(self, trained,
                                                 tiny_dataset, unix_path):
        X = _f32(tiny_dataset.matrix(trained.feature_names_))
        with ScoringDaemon(trained, socket_path=unix_path, workers=2):
            with ScoringClient(socket_path=unix_path,
                               codec=CODEC_BINARY) as client:
                assert client.codec == CODEC_BINARY
                assert client.predict_batch(X) == \
                    [int(p) for p in trained.predict_batch(X)]
                assert client.predict(list(X[0])) == trained.predict(X[0])
                assert client.info()["model_family"] == "tree"
                from repro.api import AdminClient

                assert (AdminClient(client).stats()["server"]["codec"]
                        ["offered"]) == list(DEFAULT_CODECS)

    def test_eventloop_binary_matches_json_byte_identically(
            self, trained, tiny_dataset, unix_path):
        """Acceptance: mixed JSON + binary clients on one fleet daemon
        produce identical predictions for f32-identical inputs."""
        from repro.api.fleet import ModelFleet, ModelPool

        X = _f32(tiny_dataset.matrix(trained.feature_names_))
        fleet = ModelFleet(ModelPool(), default=trained)
        with ScoringDaemon(fleet=fleet, socket_path=unix_path, workers=2):
            with ScoringClient(socket_path=unix_path) as json_client, \
                    ScoringClient(socket_path=unix_path,
                                  codec=CODEC_BINARY) as bin_client:
                assert json_client.codec == CODEC_JSON
                assert bin_client.codec == CODEC_BINARY
                assert bin_client.predict_batch(X) == \
                    json_client.predict_batch(X)
                assert bin_client.predict_pipelined(X) == \
                    json_client.predict_pipelined(X)
                assert bin_client.info() == json_client.info()

    def test_json_pinned_daemon_declines_binary(self, trained,
                                                tiny_dataset, unix_path):
        X = tiny_dataset.matrix(trained.feature_names_)
        with ScoringDaemon(trained, socket_path=unix_path, workers=2,
                           codecs=(CODEC_JSON,)):
            with ScoringClient(socket_path=unix_path,
                               codec=CODEC_BINARY) as client:
                # hello answered {"codec": "json"}: stay on JSON, work
                assert client.codec == CODEC_JSON
                assert client.predict_batch(X) == \
                    [int(p) for p in trained.predict_batch(X)]

    def test_unknown_codec_hello_falls_back_raw(self, trained, unix_path):
        with ScoringDaemon(trained, socket_path=unix_path, workers=2):
            sock = _connect(unix_path)
            with sock:
                sock.sendall(b'{"cmd": "hello", "id": 1, '
                             b'"codecs": ["zstd-9000"]}\n')
                frame = json.loads(_recv_line(sock))
                assert frame == {"ok": True, "id": 1,
                                 "codec": CODEC_JSON}
                sock.sendall(b'{"cmd": "info"}\n')
                assert json.loads(_recv_line(sock))["ok"] is True

    @pytest.mark.parametrize("fleet_mode", [False, True])
    def test_binary_garbage_mid_stream_typed_error_then_teardown(
            self, trained, unix_path, fleet_mode):
        """Acceptance: garbage after a binary handshake yields a typed
        error frame and a clean connection teardown, on classifier and
        fleet daemons."""
        kwargs: dict = {"classifier": trained}
        if fleet_mode:
            from repro.api.fleet import ModelFleet, ModelPool

            kwargs = {"fleet": ModelFleet(ModelPool(), default=trained)}
        with ScoringDaemon(socket_path=unix_path, workers=2, **kwargs):
            sock = _connect(unix_path)
            with sock:
                sock.sendall(b'{"cmd": "hello", "id": 1, '
                             b'"codecs": ["binary-v1"]}\n')
                assert json.loads(_recv_line(sock))["codec"] == \
                    CODEC_BINARY
                sock.sendall(HEADER.pack(4, 0x7F) + b"junk")
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
                sock.sendall(b'{"cmd": "hello", "codecs": ["binary-v1"]}\n')
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
                               codec=CODEC_BINARY) as client:
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
            assert section["connections"].get(CODEC_BINARY, 0) >= 1
            assert section["connections"].get(CODEC_JSON, 0) >= 1
            assert section["requests"].get(CODEC_BINARY, 0) >= 1
            assert section["bytes_in"].get(CODEC_BINARY, 0) > 0
            assert section["bytes_out"].get(CODEC_BINARY, 0) > 0


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

    def test_v2_still_speaks_every_v1_frame(self):
        raw = BINARY_V2_CODEC.encode_request(
            {"id": 3, "features": [0.5, 1.25]})
        request, error = BINARY_V2_CODEC.decode_request(raw[4:])
        assert error is None
        assert request == {"features": [0.5, 1.25], "id": 3}
        raw = BINARY_V2_CODEC.encode_request({"cmd": "info", "id": 1})
        assert raw[4] == FRAME_JSON

    def test_wire_session_counts_stream_rows_as_requests(self):
        wire = WireSession()
        wire.negotiate({"cmd": "hello", "codecs": [CODEC_BINARY_V2]})
        assert wire.codec is BINARY_V2_CODEC
        wire.push(BINARY_V2_CODEC.encode_predict_stream(
            [1, 2, 3], [[1.0], [2.0], [3.0]]))
        request, error = wire.decode(wire.next_frame())
        assert error is None and len(request) == 3
        assert wire.requests == {CODEC_BINARY_V2: 3}


# -- negotiated binary-v2 connections over real daemons --------------------


class TestBinaryV2Daemon:
    @pytest.mark.parametrize("fleet_mode", [False, True])
    def test_mixed_codec_clients_byte_identical(
            self, trained, tiny_dataset, unix_path, fleet_mode):
        """Acceptance: json + v1 + v2 clients against one daemon score
        f32-identical inputs to identical predictions, on classifier
        and fleet daemons."""
        X = _f32(tiny_dataset.matrix(trained.feature_names_))
        kwargs: dict = {"classifier": trained}
        if fleet_mode:
            from repro.api.fleet import ModelFleet, ModelPool

            kwargs = {"fleet": ModelFleet(ModelPool(), default=trained)}
        with ScoringDaemon(socket_path=unix_path, workers=4, **kwargs):
            with ScoringClient(socket_path=unix_path) as js, \
                    ScoringClient(socket_path=unix_path,
                                  codec=CODEC_BINARY) as v1, \
                    ScoringClient(socket_path=unix_path,
                                  codec=CODEC_BINARY_V2) as v2:
                assert js.codec == CODEC_JSON
                assert v1.codec == CODEC_BINARY
                assert v2.codec == CODEC_BINARY_V2
                expected = js.predict_pipelined(X, window=16)
                assert v1.predict_pipelined(X, window=16) == expected
                assert v2.predict_pipelined(X, window=16) == expected
                assert v2.predict_batch(X) == js.predict_batch(X)
                assert v2.predict(list(X[0])) == js.predict(list(X[0]))

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
                from repro.api import AdminClient

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

    def test_v2_preference_downgrades_to_v1_server(
            self, trained, tiny_dataset, unix_path):
        """Against a server that only offers binary-v1, a v2-preferring
        client lands on v1 and pipelined scoring still completes."""
        X = _f32(tiny_dataset.matrix(trained.feature_names_))
        with ScoringDaemon(trained, socket_path=unix_path, workers=2,
                           codecs=(CODEC_BINARY, CODEC_JSON)):
            with ScoringClient(socket_path=unix_path,
                               codec=CODEC_BINARY_V2) as client:
                assert client.codec == CODEC_BINARY
                assert client.predict_pipelined(X) == \
                    [int(p) for p in trained.predict_batch(X)]

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


class TestReconnectRenegotiation:
    def test_pipelined_resend_after_restart_renegotiates(
            self, trained, tiny_dataset, unix_path):
        """Acceptance: a pipelined client that loses its daemon mid-run
        re-negotiates the codec on the fresh connection and completes."""
        X = _f32(tiny_dataset.matrix(trained.feature_names_))
        expected = [int(p) for p in trained.predict_batch(X)]
        daemon = ScoringDaemon(trained, socket_path=unix_path, workers=2)
        daemon.start()
        try:
            client = ScoringClient(socket_path=unix_path,
                                   codec=CODEC_BINARY,
                                   reconnect_retries=4)
            with client:
                assert client.predict_pipelined(X) == expected
                assert client.codec == CODEC_BINARY
                daemon.stop()
                daemon = ScoringDaemon(trained, socket_path=unix_path,
                                       workers=2)
                daemon.start()
                # the dropped connection is re-dialled inside the
                # pipelined loop; the fresh connection must re-hello
                assert client.predict_pipelined(X) == expected
                assert client.codec == CODEC_BINARY
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
                                   codec=CODEC_BINARY,
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
        with pytest.raises(ScoringError):
            ScoringClient(socket_path="/nonexistent", codec="zstd-9000")
