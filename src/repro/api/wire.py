"""Pluggable wire codecs: JSON lines (default) + length-prefixed binary.

Every transport decodes and encodes through a per-connection
:class:`WireSession` instead of hardcoding JSON framing.  Two codecs
are registered:

* ``json`` — the compatibility default.  One JSON object per line, the
  exact bytes the protocol has always spoken.  Clients that never
  negotiate keep receiving byte-identical frames.
* ``binary-v2`` — length-prefixed packed frames for the hot verbs::

      u32 payload_len (LE) | u8 frame_type | payload

  ====== =================== =========================================
  type   name                payload
  ====== =================== =========================================
  0x00   JSON                one UTF-8 JSON object (any verb, any error)
  0x02   BATCH               i64 id | u32 rows | u32 cols
                             | f32[rows*cols]
  0x03   PREDICT_STREAM      u32 count | u32 cols | i64 ids[count]
                             | f32[count*cols] rows
  0x82   PREDICTIONS         i64 id | u32 n | i32[n] predictions
  0x83   PREDICTIONS_STREAM  u32 count | i64 ids[count]
                             | i32 preds[count]
  ====== =================== =========================================

  All integers are little-endian; an ``id`` of ``-2**63`` means "no
  request id".  Feature payloads are contiguous float32 arrays — a
  row never materializes a per-row Python list server-side.  A
  PREDICT_STREAM packs *count* **independent** single-row requests
  for the connection's *default* model into one frame, so a pipelined
  client flushes its whole in-flight window with one send, and a lone
  ``predict`` is a 1-row stream.  The server decodes it to a
  :class:`PredictStream` — two ``np.frombuffer`` views, never Python
  floats — coalesces it with every other row of the event-loop round,
  and answers it with one packed PREDICTIONS_STREAM frame.  Rows that
  fail validation are answered individually as embedded JSON error
  frames; the response streams carry only successes, so every id is
  answered exactly once either way.  A BATCH is one request whose
  answer is one PREDICTIONS frame.  Everything else — admin verbs,
  kernel requests, model-routed rows and every error shape — travels
  as an embedded JSON frame (0x00), so it works identically under
  both codecs.

Codecs are negotiated per connection: a client opens with the JSON
request ``{"cmd": "hello", "codecs": ["binary-v2"]}`` and the server
answers ``{"ok": true, "codec": "<chosen>"}`` *in the old codec*, then
both sides switch.  Unknown codec names are skipped — a hello offering
only unknown codecs falls back to ``json`` — and clients that never
send hello are never switched.

Size guards mirror the JSON protocol: a binary frame whose declared
payload length exceeds ``MAX_REQUEST_BYTES`` draws a typed
``too_large`` frame and a teardown (the stream cannot be trusted), and
a malformed or unknown frame inside a negotiated binary stream draws a
typed ``invalid_frame`` error followed by a clean teardown — unlike a
JSON line, a corrupted length-prefixed stream has no newline to resync
on.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from repro.api.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_INVALID_FRAME,
    ERROR_INVALID_JSON,
    ERROR_TOO_LARGE,
    MAX_REQUEST_BYTES,
    encode_frame,
    error_frame,
    ok_frame,
    request_id,
)

CODEC_JSON = "json"
CODEC_BINARY_V2 = "binary-v2"

#: codecs a server offers by default, in server preference order.  The
#: JSON codec is always the pre-negotiation state and the fallback.
DEFAULT_CODECS = (CODEC_BINARY_V2, CODEC_JSON)

#: binary frame header: u32 payload length (LE) + u8 frame type.
HEADER = struct.Struct("<IB")
_U32 = struct.Struct("<I")

FRAME_JSON = 0x00
FRAME_BATCH = 0x02
FRAME_PREDICT_STREAM = 0x03
FRAME_PREDICTIONS = 0x82
FRAME_PREDICTIONS_STREAM = 0x83

_BATCH_HEAD = struct.Struct("<qII")     # id, rows, cols
_PREDICTIONS_HEAD = struct.Struct("<qI")   # id, n
_STREAM_HEAD = struct.Struct("<II")        # count, cols
_PSTREAM_HEAD = struct.Struct("<I")        # count

#: the i64 sentinel meaning "this request carried no id".
NO_ID = -(2 ** 63)

_I64_MIN, _I64_MAX = -(2 ** 63), 2 ** 63 - 1
_I32_MIN, _I32_MAX = -(2 ** 31), 2 ** 31 - 1


# -- the JSON shell (shared verbatim by transport.py) ----------------------


def prediction_frame(req_id, prediction: int) -> str:
    """An encoded single-prediction success frame.

    Byte-identical to ``encode_frame(ok_frame(...))`` but skips the
    dict build and ``json.dumps`` for the int/absent request ids every
    sane client sends — a few µs per row that matter at tens of
    thousands of rows per second.
    """
    if req_id is None:
        return '{"ok": true, "prediction": %d}\n' % prediction
    if type(req_id) is int:
        return '{"ok": true, "id": %d, "prediction": %d}\n' % (
            req_id, prediction)
    return encode_frame(ok_frame({"prediction": prediction}, req_id))


def too_large_frame(n_bytes: int) -> dict:
    return error_frame(
        ERROR_TOO_LARGE,
        f"request line is {n_bytes} bytes; the protocol "
        f"accepts at most {MAX_REQUEST_BYTES}")


def flood_frame() -> dict:
    return error_frame(
        ERROR_TOO_LARGE,
        f"request line exceeds {MAX_REQUEST_BYTES} bytes "
        f"without a newline; closing the connection")


def decode_json_raw(raw: bytes):
    """Decode one raw byte line — THE framing shell of every socket path.

    Returns ``(request, None)`` on success, ``(None, error_frame)``
    for oversized or malformed lines and ``(None, None)`` for blank
    lines.  ``json.loads`` accepts the bytes directly, skipping a
    per-line utf-8 decode + copy.
    """
    if len(raw) > MAX_REQUEST_BYTES:
        return None, too_large_frame(len(raw))
    raw = raw.strip()
    if not raw:
        return None, None
    try:
        return json.loads(raw), None
    except ValueError as exc:
        return None, error_frame(ERROR_INVALID_JSON,
                                 f"invalid JSON: {exc}")


def _json_safe(frame: dict) -> dict:
    """Re-list ndarray payload fields so json.dumps accepts the frame.

    The client builds ``rows`` as an array under the binary codec, and
    callers of ``request`` may pass array ``features``; every frame
    that is not a packed BATCH, and every retry that lands on a
    JSON-only server, must still encode as JSON.
    """
    out = None
    for key in ("rows", "features"):
        value = frame.get(key)
        if isinstance(value, np.ndarray):
            out = dict(frame) if out is None else out
            out[key] = value.tolist()
    return out if out is not None else frame


# -- codecs ----------------------------------------------------------------


class JsonCodec:
    """The compatibility codec: JSON lines, byte-identical to PR 5."""

    name = CODEC_JSON

    # server side
    def decode_request(self, raw: bytes):
        return decode_json_raw(raw)

    def encode_response(self, frame: dict) -> bytes:
        return encode_frame(frame).encode("utf-8")

    def encode_prediction(self, req_id, prediction: int) -> bytes:
        return prediction_frame(req_id, prediction).encode("utf-8")

    # client side
    def encode_request(self, frame: dict) -> bytes:
        return (json.dumps(_json_safe(frame)) + "\n").encode("utf-8")

    def decode_response(self, raw: bytes):
        return json.loads(raw)  # ValueError on garbage


class BinaryCodec:
    """Length-prefixed framing: JSON embedding and the BATCH frames.

    Never negotiated on its own — :class:`BinaryV2Codec`, which adds
    the stream frames, is the one binary codec.  The two stay separate
    classes because ``perfbench``'s traced runs patch methods on each
    of them by name.
    """

    _BATCH_KEYS = frozenset(("ok", "id", "predictions"))

    # -- server side -------------------------------------------------------

    def decode_request(self, raw: bytes):
        """Decode one de-framed frame (type byte + payload).

        A BATCH decodes straight into the request shape the engine
        already understands: ``rows`` as a contiguous float64 matrix —
        no per-row Python lists.
        """
        ftype = raw[0]
        payload = memoryview(raw)[1:]
        try:
            if ftype == FRAME_JSON:
                try:
                    return json.loads(bytes(payload)), None
                except ValueError as exc:
                    return None, error_frame(ERROR_INVALID_JSON,
                                             f"invalid JSON: {exc}")
            if ftype == FRAME_BATCH:
                req_id, rows, cols = _BATCH_HEAD.unpack_from(payload)
                if len(payload) != _BATCH_HEAD.size + 4 * rows * cols:
                    raise ValueError(
                        f"BATCH declares {rows}x{cols} but carries "
                        f"{len(payload) - _BATCH_HEAD.size} payload bytes")
                matrix = np.frombuffer(
                    payload, dtype="<f4",
                    offset=_BATCH_HEAD.size).astype(
                        np.float64).reshape(rows, cols)
                request: dict = {"rows": matrix}
                if req_id != NO_ID:
                    request["id"] = req_id
                return request, None
        except (struct.error, ValueError) as exc:
            return None, error_frame(
                ERROR_INVALID_FRAME,
                f"malformed binary frame (type 0x{ftype:02x}): {exc}")
        return None, error_frame(
            ERROR_INVALID_FRAME,
            f"unknown binary frame type 0x{ftype:02x}")

    def encode_response(self, frame: dict) -> bytes:
        if (frame.get("ok") is True and "predictions" in frame
                and frame.keys() <= self._BATCH_KEYS):
            req_id = frame.get("id", NO_ID)
            if type(req_id) is int and _I64_MIN <= req_id <= _I64_MAX:
                packed = self._pack_predictions(req_id, frame["predictions"])
                if packed is not None:
                    return packed
        return self._embed_json(frame)

    def encode_prediction(self, req_id, prediction: int) -> bytes:
        return self._embed_json(ok_frame({"prediction": prediction}, req_id))

    def _pack_predictions(self, req_id: int, predictions) -> bytes | None:
        if not isinstance(predictions, list):
            return None
        try:
            arr = np.asarray(predictions, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            return None
        if arr.ndim != 1 or (arr.size and (
                arr.max() > _I32_MAX or arr.min() < _I32_MIN)):
            return None
        body = arr.astype("<i4").tobytes()
        return (HEADER.pack(_PREDICTIONS_HEAD.size + len(body),
                            FRAME_PREDICTIONS)
                + _PREDICTIONS_HEAD.pack(req_id, arr.size) + body)

    def _embed_json(self, frame: dict) -> bytes:
        body = json.dumps(frame).encode("utf-8")
        return HEADER.pack(len(body), FRAME_JSON) + body

    # -- client side -------------------------------------------------------

    def encode_request(self, frame: dict) -> bytes:
        req_id = frame.get("id", NO_ID)
        if ("rows" in frame and frame.keys() <= {"id", "rows"}
                and type(req_id) is int and _I64_MIN <= req_id <= _I64_MAX):
            try:
                arr = np.ascontiguousarray(frame["rows"], dtype="<f4")
            except (TypeError, ValueError):
                arr = None
            if arr is not None and arr.ndim == 2:
                body = arr.tobytes()
                return (HEADER.pack(_BATCH_HEAD.size + len(body),
                                    FRAME_BATCH)
                        + _BATCH_HEAD.pack(req_id, arr.shape[0],
                                           arr.shape[1])
                        + body)
        return self._embed_json(_json_safe(frame))

    def decode_response(self, raw: bytes):
        ftype = raw[0]
        payload = memoryview(raw)[1:]
        try:
            if ftype == FRAME_PREDICTIONS:
                req_id, n = _PREDICTIONS_HEAD.unpack_from(payload)
                if len(payload) != _PREDICTIONS_HEAD.size + 4 * n:
                    raise ValueError(
                        f"PREDICTIONS declares {n} entries but carries "
                        f"{len(payload) - _PREDICTIONS_HEAD.size} bytes")
                frame: dict = {"ok": True}
                if req_id != NO_ID:
                    frame["id"] = req_id
                frame["predictions"] = np.frombuffer(
                    payload, dtype="<i4", count=n,
                    offset=_PREDICTIONS_HEAD.size).tolist()
                return frame
            if ftype == FRAME_JSON:
                return json.loads(bytes(payload))
        except struct.error as exc:
            raise ValueError(f"truncated binary frame: {exc}") from exc
        raise ValueError(f"unknown binary frame type 0x{ftype:02x}")


class PredictStream:
    """A decoded ``FRAME_PREDICT_STREAM``: N independent single-row
    requests that never became Python objects.

    ``ids`` is an ``<i8`` array of per-row request ids and ``rows`` a
    ``(count, cols)`` ``<f4`` matrix — both zero-copy
    ``np.frombuffer`` views over the received frame, so decoding a
    stream costs two buffer views regardless of row count.  The
    engine scores it as one row block, lifting ``rows`` to float64
    **once per coalesced batch** (exact: every f32 is representable),
    and answers through a packed
    :meth:`BinaryV2Codec.encode_predictions_stream` frame.
    """

    __slots__ = ("ids", "rows")

    def __init__(self, ids, rows) -> None:
        self.ids = ids
        self.rows = rows

    def __len__(self) -> int:
        return len(self.ids)


class BinaryV2Codec(BinaryCodec):
    """The binary codec: :class:`BinaryCodec` framing plus the
    multi-row stream frames every default-model row travels in."""

    name = CODEC_BINARY_V2

    # -- server side -------------------------------------------------------

    def decode_request(self, raw: bytes):
        if raw[0] != FRAME_PREDICT_STREAM:
            return super().decode_request(raw)
        payload = memoryview(raw)[1:]
        try:
            count, cols = _STREAM_HEAD.unpack_from(payload)
            expected = _STREAM_HEAD.size + 8 * count + 4 * count * cols
            if count < 1:
                raise ValueError(
                    "PREDICT_STREAM must carry at least one row")
            if len(payload) != expected:
                raise ValueError(
                    f"PREDICT_STREAM declares {count}x{cols} but "
                    f"carries {len(payload) - _STREAM_HEAD.size} "
                    f"payload bytes")
        except (struct.error, ValueError) as exc:
            return None, error_frame(
                ERROR_INVALID_FRAME,
                f"malformed binary frame "
                f"(type 0x{FRAME_PREDICT_STREAM:02x}): {exc}")
        ids = np.frombuffer(payload, dtype="<i8", count=count,
                            offset=_STREAM_HEAD.size)
        rows = np.frombuffer(
            payload, dtype="<f4", count=count * cols,
            offset=_STREAM_HEAD.size + 8 * count).reshape(count, cols)
        return PredictStream(ids, rows), None

    def encode_predictions_stream(self, ids, predictions) -> bytes:
        """One PREDICTIONS_STREAM from parallel id/prediction arrays."""
        id_arr = np.ascontiguousarray(ids, dtype="<i8")
        pred_arr = np.ascontiguousarray(predictions, dtype="<i4")
        body = id_arr.tobytes() + pred_arr.tobytes()
        return (HEADER.pack(_PSTREAM_HEAD.size + len(body),
                            FRAME_PREDICTIONS_STREAM)
                + _PSTREAM_HEAD.pack(id_arr.size) + body)

    # -- client side -------------------------------------------------------

    def encode_predict_stream(self, ids, rows) -> bytes:
        """One PREDICT_STREAM from an id array + (n, cols) f32 matrix.

        Built straight from ``(req_id, row)`` arrays — the pipelined
        client never constructs per-request dicts under this codec.
        """
        id_arr = np.ascontiguousarray(ids, dtype="<i8")
        row_arr = np.ascontiguousarray(rows, dtype="<f4")
        body = id_arr.tobytes() + row_arr.tobytes()
        return (HEADER.pack(_STREAM_HEAD.size + len(body),
                            FRAME_PREDICT_STREAM)
                + _STREAM_HEAD.pack(row_arr.shape[0], row_arr.shape[1])
                + body)

    def decode_response(self, raw: bytes):
        if raw[0] != FRAME_PREDICTIONS_STREAM:
            return super().decode_response(raw)
        payload = memoryview(raw)[1:]
        try:
            count, = _PSTREAM_HEAD.unpack_from(payload)
        except struct.error as exc:
            raise ValueError(f"truncated binary frame: {exc}") from exc
        if len(payload) != _PSTREAM_HEAD.size + 12 * count:
            raise ValueError(
                f"PREDICTIONS_STREAM declares {count} entries but "
                f"carries {len(payload) - _PSTREAM_HEAD.size} bytes")
        ids = np.frombuffer(payload, dtype="<i8", count=count,
                            offset=_PSTREAM_HEAD.size)
        predictions = np.frombuffer(
            payload, dtype="<i4", count=count,
            offset=_PSTREAM_HEAD.size + 8 * count)
        return {"ok": True, "stream": (ids, predictions)}


JSON_CODEC = JsonCodec()
BINARY_V2_CODEC = BinaryV2Codec()
CODECS = {CODEC_JSON: JSON_CODEC, CODEC_BINARY_V2: BINARY_V2_CODEC}


# -- per-connection state --------------------------------------------------


class WireSession:
    """Per-connection wire state: framing, the active codec, the hello
    handshake, fatal-error bookkeeping and per-codec traffic counters.

    Framing is *lazy* — push bytes in, pull frames out one at a time —
    so a codec switch negotiated by frame N applies to frame N+1 even
    when both arrived in a single ``recv`` chunk.
    """

    __slots__ = ("codec", "offered", "max_bytes", "buf", "fatal",
                 "_pending_error", "requests", "bytes_in", "bytes_out")

    def __init__(self, offered=DEFAULT_CODECS,
                 max_bytes: int = MAX_REQUEST_BYTES) -> None:
        self.codec = JSON_CODEC
        self.offered = tuple(offered)
        self.max_bytes = max_bytes
        self.buf = bytearray()
        self.fatal = False
        self._pending_error: dict | None = None
        self.requests: dict = {}
        self.bytes_in: dict = {}
        self.bytes_out: dict = {}

    # -- framing -----------------------------------------------------------

    def push(self, data: bytes) -> None:
        """Absorb one ``recv`` chunk (counted under the active codec)."""
        name = self.codec.name
        self.bytes_in[name] = self.bytes_in.get(name, 0) + len(data)
        self.buf += data

    def next_frame(self) -> bytes | None:
        """The next complete de-framed frame; None until more bytes land.

        Framing failures that cannot be resynchronized (a newline-less
        JSON flood, a binary frame declaring an oversized payload) set
        :attr:`fatal` and park a typed error frame for
        :meth:`take_pending_error`.
        """
        if self.fatal:
            return None
        if self.codec.name == CODEC_JSON:
            idx = self.buf.find(b"\n")
            if idx < 0:
                if len(self.buf) > self.max_bytes:
                    self.fatal = True
                    self._pending_error = flood_frame()
                return None
            raw = bytes(self.buf[:idx])
            del self.buf[:idx + 1]
            return raw
        if len(self.buf) < HEADER.size:
            return None
        length, = _U32.unpack_from(self.buf)
        if length > self.max_bytes:
            self.fatal = True
            self._pending_error = too_large_frame(length)
            return None
        total = HEADER.size + length
        if len(self.buf) < total:
            return None
        raw = bytes(self.buf[4:total])  # frame type byte + payload
        del self.buf[:total]
        return raw

    def eof_tail(self) -> bytes | None:
        """A final newline-less JSON line at EOF (shutdown(WR) clients).

        Binary framing is self-delimiting, so only the JSON codec has a
        meaningful tail.
        """
        if self.codec.name != CODEC_JSON or self.fatal:
            return None
        tail = bytes(self.buf)
        self.buf.clear()
        return tail if tail.strip() else None

    # -- codec-mediated decode/encode --------------------------------------

    def decode(self, raw: bytes):
        request, error = self.codec.decode_request(raw)
        if request is not None or error is not None:
            name = self.codec.name
            # a stream frame carries N independent requests; counting
            # rows keeps the per-codec request totals comparable across
            # framing styles
            n = (len(request) if type(request) is PredictStream else 1)
            self.requests[name] = self.requests.get(name, 0) + n
        if error is not None and self.codec.name != CODEC_JSON:
            # a malformed frame inside a length-prefixed stream means
            # client and server disagree about the protocol; answer
            # once, then tear down rather than guess at a resync point
            self.fatal = True
        return request, error

    def encode_response(self, frame: dict) -> bytes:
        return self.codec.encode_response(frame)

    def encode_prediction(self, req_id, prediction: int) -> bytes:
        return self.codec.encode_prediction(req_id, prediction)

    def count_out(self, n: int) -> None:
        """Attribute *n* sent bytes to the active codec."""
        name = self.codec.name
        self.bytes_out[name] = self.bytes_out.get(name, 0) + n

    def take_pending_error(self) -> bytes | None:
        """Encode-and-clear the parked framing error, if any."""
        frame, self._pending_error = self._pending_error, None
        if frame is None:
            return None
        return self.encode_response(frame)

    # -- negotiation -------------------------------------------------------

    def negotiate(self, request) -> bytes | None:
        """Answer a hello request; ``None`` when it is not a hello.

        The response is encoded in the codec the hello arrived under;
        every frame after it speaks the chosen codec.  Unknown codec
        names are skipped, so a hello offering only unknown codecs
        falls back to JSON — the floor every server speaks.
        """
        if not (isinstance(request, dict)
                and request.get("cmd") == "hello"):
            return None
        req_id = request_id(request)
        offers = request.get("codecs", [])
        if not isinstance(offers, list):
            return self.encode_response(error_frame(
                ERROR_BAD_REQUEST,
                "hello 'codecs' must be a list of codec names", req_id))
        chosen = CODEC_JSON
        for name in offers:
            if (isinstance(name, str) and name in self.offered
                    and name in CODECS):
                chosen = name
                break
        response = self.encode_response(ok_frame({"codec": chosen}, req_id))
        self.codec = CODECS[chosen]
        return response


class CodecCounters:
    """Server-side aggregate of per-connection codec activity."""

    def __init__(self, offered=DEFAULT_CODECS) -> None:
        self.offered = tuple(offered)
        self.connections: dict = {}
        self.requests: dict = {}
        self.bytes_in: dict = {}
        self.bytes_out: dict = {}

    def fold(self, wire: WireSession) -> None:
        """Absorb a finished connection's counters (call at close).

        Connections are attributed to the codec they ended on — the
        codec a negotiated client actually did its work in.
        """
        name = wire.codec.name
        self.connections[name] = self.connections.get(name, 0) + 1
        for field in ("requests", "bytes_in", "bytes_out"):
            mine = getattr(self, field)
            for codec_name, n in getattr(wire, field).items():
                mine[codec_name] = mine.get(codec_name, 0) + n

    def snapshot(self) -> dict:
        return {
            "offered": list(self.offered),
            "connections": dict(self.connections),
            "requests": dict(self.requests),
            "bytes_in": dict(self.bytes_in),
            "bytes_out": dict(self.bytes_out),
        }


def merge_codec_stats(sections) -> dict:
    """Sum per-server codec sections (the shard aggregation helper)."""
    merged: dict = {"offered": [], "connections": {}, "requests": {},
                    "bytes_in": {}, "bytes_out": {}}
    for section in sections:
        if not isinstance(section, dict):
            continue
        for name in section.get("offered", []):
            if name not in merged["offered"]:
                merged["offered"].append(name)
        for field in ("connections", "requests", "bytes_in", "bytes_out"):
            for codec_name, n in section.get(field, {}).items():
                merged[field][codec_name] = (
                    merged[field].get(codec_name, 0) + n)
    return merged
