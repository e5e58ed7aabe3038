"""Wire codec layer: negotiation, binary framing, legacy byte-identity."""

import json
import socket
import struct
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ERROR_TOO_LARGE,
    MAX_REQUEST_BYTES,
    encode_frame,
    ok_frame,
)
from repro.api.protocol import error_frame
from repro.api.transport import RequestEngine
from repro.api.wire import (
    BINARY_V2_CODEC,
    CODEC_BINARY_V2,
    CODEC_JSON,
    DEFAULT_CODECS,
    FRAME_BATCH,
    FRAME_JSON,
    FRAME_PREDICT_STREAM,
    FRAME_PREDICTIONS,
    FRAME_PREDICTIONS_STREAM,
    HEADER,
    JSON_CODEC,
    NO_ID,
    PredictStream,
    WireSession,
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
        wire.codec = BINARY_V2_CODEC
        wire.push(HEADER.pack(65, FRAME_BATCH))
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
        wire.push(b'{"cmd": "hello", "codecs": ["binary-v2"]}\n' + predict)
        raw = wire.next_frame()
        assert wire.negotiate(json.loads(raw)) is not None
        frame = wire.next_frame()
        request, error = wire.decode(frame)
        assert error is None
        assert request.ids.tolist() == [7]
        assert request.rows.tolist() == [[1.0, 2.0]]

    def test_merge_codec_stats_sums_sections(self):
        merged = merge_codec_stats([
            {"offered": ["binary-v2", "json"],
             "connections": {"json": 2}, "requests": {"json": 10},
             "bytes_in": {"json": 100}, "bytes_out": {"json": 200}},
            {"offered": ["json"],
             "connections": {"json": 1, "binary-v2": 3},
             "requests": {"binary-v2": 7},
             "bytes_in": {"binary-v2": 50}, "bytes_out": {}},
            None,
        ])
        assert merged["connections"] == {"json": 3, "binary-v2": 3}
        assert merged["requests"] == {"json": 10, "binary-v2": 7}
        assert set(merged["offered"]) == {"binary-v2", "json"}


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
            {"ok": True, "predictions": [4]})
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

    def test_cold_verbs_travel_as_embedded_json(self):
        raw = self.codec.encode_request({"cmd": "info", "id": 1})
        assert raw[4] == FRAME_JSON
        request, error = self.codec.decode_request(raw[4:])
        assert error is None and request["cmd"] == "info"

    def test_predictions_response_roundtrip(self):
        frame = {"ok": True, "id": 5, "predictions": [1, 8, 2]}
        raw = self.codec.encode_response(frame)
        assert self.codec.decode_response(raw[4:]) == frame

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
        return codec.encode_response(frame), ("response", frame)
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
        # the float64 lift is exact, so narrowing back is bit-identical
        assert request["rows"].astype("<f4").tobytes() == rows.tobytes()
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
    return trained, RequestEngine(trained, metrics=False)


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
            wire.push(chunk)
            while (raw := wire.next_frame()) is not None:
                raws.append(raw)
        assert not wire.fatal and not wire.buf
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
            wire.push(chunk)
            while not wire.fatal:
                raw = wire.next_frame()
                if raw is None:
                    break
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
        wire.push(BINARY_V2_CODEC.encode_predict_stream(ids, rows))
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
