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
  row never materializes a per-row Python list server-side, and the
  server scores it as float32 (see :class:`WireSession`).  A
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
send hello are never switched.  A hello that arrives while earlier
requests are unanswered draws a typed ``bad_request`` and switches
nothing, so no answer ever trails the switch in the old codec.

Size guards mirror the JSON protocol: a binary frame declaring more
than ``MAX_REQUEST_BYTES`` of payload draws a typed ``too_large``
farewell, and a malformed or unknown frame in a negotiated binary
stream an ``invalid_frame`` one — unlike a JSON line, a corrupted
length-prefixed stream has no newline to resync on.  The farewell
follows every answer owed, then the connection closes (see
:class:`WireSession`).
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
#: row frames' f32 rows (at frame byte 21, or 13 + 8 x count) are 8-byte
#: aligned when the frame starts 3 bytes past an 8-byte boundary
_ROW_FRAMES = (FRAME_BATCH, FRAME_PREDICT_STREAM)
_ROW_FRAME_PHASE = 3
_PREDICTIONS_HEAD = struct.Struct("<qI")   # id, n
_STREAM_HEAD = struct.Struct("<II")        # count, cols
_PSTREAM_HEAD = struct.Struct("<I")        # count

#: the i64 sentinel meaning "this request carried no id".
NO_ID = -(2 ** 63)

_I64_MIN, _I64_MAX = -(2 ** 63), 2 ** 63 - 1
_I32_MIN, _I32_MAX = -(2 ** 31), 2 ** 31 - 1

#: a client BATCH with this many row bytes or more is sent from its rows;
#: a smaller one is one write (a second small write costs a syscall, and
#: over TCP it waits on Nagle's algorithm for the first one's ACK).
SPLIT_SEND_BYTES = 65536
#: a fresh receive buffer's capacity, and the least free space
#: :meth:`WireSession.buffer` offers a ``recv_into``.
RECV_BYTES = 65536
RECV_MIN = 16384


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


#: ``json.loads`` of a ``str``, minus its argument checks
_decode_str = json.JSONDecoder().decode


def loads_line(raw: bytes):
    """``json.loads(raw)`` for one byte line: the same value or exception.

    ``json.loads`` on bytes runs ``json.detect_encoding``, then decodes.
    A line opening with ``{`` and no NUL after it is one it reads as
    UTF-8, so that line is decoded here (``surrogatepass``, as there)
    and parsed as ``str``; any other line goes to ``json.loads``."""
    if raw[:1] == b"{" and raw[1:2] != b"\x00":
        return _decode_str(raw.decode("utf-8", "surrogatepass"))
    return json.loads(raw)


def decode_json_raw(raw: bytes):
    """Decode one raw byte line — THE framing shell of every socket path.

    Returns ``(request, None)`` on success, ``(None, error_frame)``
    for oversized or malformed lines and ``(None, None)`` for blank
    lines.  The line is parsed by :func:`loads_line`, so every value
    and ``invalid JSON: ...`` message is the one ``json.loads`` gives.
    """
    if len(raw) > MAX_REQUEST_BYTES:
        return None, too_large_frame(len(raw))
    raw = raw.strip()
    if not raw:
        return None, None
    try:
        return loads_line(raw), None
    except ValueError as exc:
        return None, error_frame(ERROR_INVALID_JSON,
                                 f"invalid JSON: {exc}")


def _listed(value):
    """The JSON encoders' hook for what JSON has no type for: an ndarray
    (a client's ``rows`` or ``features``, a ``rows`` answer's
    ``predictions``) is listed; anything else raises ``TypeError``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} "
                    f"is not JSON serializable")


#: ``json.dumps`` with the ndarray hook
_dumps = json.JSONEncoder(default=_listed).encode


# -- codecs ----------------------------------------------------------------


class JsonCodec:
    """The compatibility codec: JSON lines, byte-identical to PR 5."""

    name = CODEC_JSON

    # server side
    def decode_request(self, raw: bytes):
        return decode_json_raw(raw)

    def encode_response(self, frame: dict) -> bytes:
        return (_dumps(frame) + "\n").encode("utf-8")

    def encode_prediction(self, req_id, prediction: int) -> bytes:
        return prediction_frame(req_id, prediction).encode("utf-8")

    # client side
    def encode_request(self, frame: dict) -> bytes:
        return (_dumps(frame) + "\n").encode("utf-8")

    def decode_response(self, raw: bytes):
        return loads_line(raw)  # ValueError on garbage


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
        already understands: ``rows`` as a ``(rows, cols)`` float32
        view of the payload — no copy, no per-row Python lists.  It is
        8-byte aligned when *raw* comes from :meth:`WireSession.next_frame`.
        """
        ftype = raw[0]
        payload = memoryview(raw)[1:]
        try:
            if ftype == FRAME_JSON:
                try:
                    return loads_line(bytes(payload)), None
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
                    offset=_BATCH_HEAD.size).reshape(rows, cols)
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
        """The PREDICTIONS frame of an integer prediction array; None
        (embed the frame as JSON) for anything else or an i32 overflow."""
        if not (isinstance(predictions, np.ndarray) and predictions.ndim == 1
                and predictions.dtype.kind in "iu"):
            return None
        if predictions.size and (predictions.max() > _I32_MAX
                                 or predictions.min() < _I32_MIN):
            return None
        return (HEADER.pack(_PREDICTIONS_HEAD.size + 4 * predictions.size,
                            FRAME_PREDICTIONS)
                + _PREDICTIONS_HEAD.pack(req_id, predictions.size)
                + predictions.astype("<i4").tobytes())

    def _embed_json(self, frame: dict) -> bytes:
        body = _dumps(frame).encode("utf-8")
        return HEADER.pack(len(body), FRAME_JSON) + body

    # -- client side -------------------------------------------------------

    def encode_request(self, frame: dict):
        """A packed BATCH for ``{"rows", "id"}``, else embedded JSON; a
        BATCH of :data:`SPLIT_SEND_BYTES` or more is ``(head, rows)``,
        *rows* the f32 matrix's own buffer, to be sent in turn."""
        req_id = frame.get("id", NO_ID)
        if ("rows" in frame and frame.keys() <= {"id", "rows"}
                and type(req_id) is int and _I64_MIN <= req_id <= _I64_MAX):
            try:
                arr = np.ascontiguousarray(frame["rows"], dtype="<f4")
            except (TypeError, ValueError):
                arr = None
            if arr is not None and arr.ndim == 2:
                head = (HEADER.pack(_BATCH_HEAD.size + arr.nbytes,
                                    FRAME_BATCH)
                        + _BATCH_HEAD.pack(req_id, *arr.shape))
                if arr.nbytes < SPLIT_SEND_BYTES:
                    return head + arr.tobytes()
                return head, memoryview(arr).cast("B")
        return self._embed_json(frame)

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
                return loads_line(bytes(payload))
        except struct.error as exc:
            raise ValueError(f"truncated binary frame: {exc}") from exc
        raise ValueError(f"unknown binary frame type 0x{ftype:02x}")


class PredictStream:
    """A decoded ``FRAME_PREDICT_STREAM``: N independent single-row
    requests that never became Python objects.

    ``ids`` is an ``<i8`` array of per-row request ids and ``rows`` a
    ``(count, cols)`` ``<f4`` matrix — both zero-copy
    ``np.frombuffer`` views over the received frame, so decoding a
    stream costs two buffer views regardless of row count (``rows``
    is 8-byte aligned when the frame comes from
    :meth:`WireSession.next_frame`).  The engine scores it as one row
    block, in float32 (see :meth:`repro.api.transport.RequestEngine.
    execute`), and answers through a packed
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


def _aligned_copy(raw) -> memoryview:
    """*raw* (a frame's type byte + payload) copied so that its rows
    start on an 8-byte boundary."""
    store = np.empty(len(raw) + 8, np.uint8)
    offset = (_ROW_FRAME_PHASE + HEADER.size - 1 - store.ctypes.data) % 8
    view = memoryview(store)[offset:offset + len(raw)]
    view[:] = raw
    return view


#: the lifecycle states of a :class:`WireSession`.
OPEN, DRAINING, LINGERING, CLOSED = "open", "draining", "lingering", "closed"

#: what a session wants (:attr:`WireSession.wants`): an interest mask with
#: the values of ``selectors.EVENT_READ`` / ``EVENT_WRITE`` (0 is none),
#: or an action: shut the write side, or close.
READ, WRITE, SHUT, CLOSE = 1, 2, -1, -2


class WireSession:
    """One connection without its socket: framing, the active codec,
    the hello handshake, the answers owed and the lifecycle.

    Framing is *lazy* — bytes land in, frames come out one at a time —
    so a codec switch negotiated by frame N applies to frame N+1 even
    when both arrived in a single ``recv`` chunk.

    Both codecs share one receive buffer: the owner calls
    ``sock.recv_into(session.buffer())`` and reports the count to
    :meth:`received`.  It grows geometrically up to a largest frame
    (plus 8 bytes of slack) and never shrinks.  Binary frames are views
    into it, so BATCH and PREDICT_STREAM rows decode to 8-byte aligned
    f32 views: in place, after moving the unread bytes to an aligned
    offset, or, while that would move rows an unanswered request reads,
    as one aligned copy.  Bytes are overwritten or moved only while the
    session owes no answer (:attr:`pending` is 0).

    The owner drives the lifecycle with events that take no socket and
    read no clock — :meth:`received`, :meth:`defer`, :meth:`stage`,
    :meth:`sent`, :meth:`linger`, :meth:`tick`, :meth:`close` — and
    applies what :attr:`wants`.  :attr:`state` is ``open`` until peer
    EOF or a fatal framing error, then ``draining`` (no reads) until
    every answer owed is sent; then ``closed`` after an EOF, while
    after a fatal error (whose farewell goes last) the owner shuts its
    write side at ``SHUT`` and calls :meth:`linger`: ``lingering``
    discards reads until peer EOF or a :meth:`tick` past the deadline.
    :attr:`interest` is the selector interest the owner has applied.
    """

    __slots__ = ("codec", "offered", "max_bytes", "fatal", "_pending_error",
                 "requests", "bytes_in", "bytes_out", "out", "pending",
                 "state", "interest", "until", "_view", "_home", "_start",
                 "_end", "_need", "_limit")

    def __init__(self, offered=DEFAULT_CODECS,
                 max_bytes: int = MAX_REQUEST_BYTES) -> None:
        self.codec = JSON_CODEC
        self.offered = tuple(offered)
        self.max_bytes = max_bytes
        self.fatal = False
        self._pending_error: dict | None = None
        self.requests: dict = {}
        self.bytes_in: dict = {}
        self.bytes_out: dict = {}
        self.out = bytearray()  # staged answers, not yet sent
        self.pending = 0  # routed requests whose answer is not staged
        self.state = OPEN
        self.interest = READ
        self.until = 0.0  # the lingering deadline
        # unread bytes are _view[_start:_end], a frame needing _need there
        self._limit = max_bytes + HEADER.size + 8
        self._view = memoryview(b"")
        self._home = self._start = self._end = self._need = 0
        self._make_room(min(RECV_BYTES, self._limit) - 8)

    # -- lifecycle events --------------------------------------------------

    def received(self, n: int):
        """*n* bytes landed in :meth:`buffer` (0: peer EOF); returns an
        iterator over the frames to route, to be exhausted (a frame may
        switch the codec of the next; at EOF a newline-less JSON tail
        comes last).  Bytes are counted under the active codec."""
        if self.state is OPEN:
            if n:
                self._end += n
                name = self.codec.name
                self.bytes_in[name] = self.bytes_in.get(name, 0) + n
            else:
                self.state = DRAINING
            return self._frames()
        if self.state is LINGERING and not n:
            self.state = CLOSED
        return iter(())

    def _frames(self):
        while (raw := self.next_frame()) is not None:
            yield raw
        if self.state is DRAINING:
            tail = bytes(self._view[self._start:self._end])
            self._start = self._end
            if self.codec is JSON_CODEC and not self.fatal and tail.strip():
                yield tail
            self._settle()

    def defer(self, n: int = 1) -> None:
        """*n* routed requests will be answered by a later :meth:`stage`."""
        self.pending += n

    def stage(self, encoded: bytes, settles: int = 0) -> bool:
        """Queue *encoded*, the answer to *settles* deferred requests;
        ``False`` (dropped) once closed."""
        self.pending -= settles
        if self.state is CLOSED:
            return False
        self._append(encoded)
        return True

    def sent(self, n: int) -> None:
        """The first *n* bytes of :attr:`out` went out (0: none fit)."""
        del self.out[:n]
        if self.state is DRAINING and not self.out:
            self._settle()

    def linger(self, until: float) -> None:
        """The write side is shut: discard reads until EOF or *until*."""
        self.state = LINGERING
        self.until = until

    def tick(self, now: float) -> None:
        """Clock at *now*: a lingering session past its deadline closes."""
        if self.state is LINGERING and now >= self.until:
            self.state = CLOSED

    def close(self) -> None:
        """The owner closed the transport (a failed send, a stop)."""
        self.state = CLOSED

    @property
    def wants(self) -> int:
        """The interest mask the state calls for, or SHUT or CLOSE."""
        state = self.state
        if state is OPEN:
            return READ | WRITE if self.out else READ
        if state is DRAINING:
            return WRITE if self.out else 0 if self.pending else SHUT
        return READ if state is LINGERING else CLOSE

    def _append(self, encoded: bytes) -> None:
        self.out += encoded
        name = self.codec.name
        self.bytes_out[name] = self.bytes_out.get(name, 0) + len(encoded)

    def _settle(self) -> None:
        """Draining: once nothing routed is owed, stage the farewell; an
        EOF'd session closes once all is sent."""
        if self.pending:
            return
        farewell = self.take_pending_error()
        if farewell is not None:
            self._append(farewell)
        if not self.out and not self.fatal:
            self.state = CLOSED

    def _fail(self, farewell: dict) -> None:
        self.fatal = True
        self._pending_error = farewell
        self._start = self._end  # nothing after it is ever framed
        self._need = 0
        if self.state is OPEN:
            self.state = DRAINING

    # -- the receive buffer ------------------------------------------------

    def buffer(self) -> memoryview:
        """The free tail of the receive buffer for the next
        ``recv_into``; never empty.  Owing answers, a buffer that runs
        short is replaced and left to the views still reading it."""
        if self._start == self._end and not self.pending:
            self._start = self._end = self._home
        room = min(max(self._need, self._end - self._start + RECV_MIN),
                   self._limit - 8)
        if self._start + room > len(self._view):
            self._make_room(room)
        return self._view[self._end:]

    def _make_room(self, room: int) -> None:
        """Move the unread bytes to the home of a buffer with *room*
        bytes after it, the offset where a frame's rows are aligned:
        this buffer's while no answer is owed, else a new one's."""
        old, start, end = self._view, self._start, self._end
        size = len(old)
        if self.pending or self._home + room > size:
            if self._home + room > size:
                size = min(max(2 * size, room + 8), self._limit)
            self._view = memoryview(bytearray(size))
            address = np.frombuffer(self._view, np.uint8, 1).ctypes.data
            self._home = (_ROW_FRAME_PHASE - address) % 8
        self._start, self._end = self._home, self._home + end - start
        self._view[self._start:self._end] = old[start:end]

    # -- framing -----------------------------------------------------------

    def next_frame(self):
        """The next complete de-framed frame; None until more bytes land.

        A JSON line is ``bytes``; a binary frame (type byte + payload) a
        ``memoryview``, valid until :meth:`next_frame` or :meth:`buffer`
        runs while the session owes no answer.  Framing failures that
        cannot be resynchronized (a newline-less JSON flood, a binary
        frame declaring an oversized payload) set :attr:`fatal` and
        park a typed error frame for :meth:`take_pending_error`.
        """
        if self.fatal:
            return None
        start, end = self._start, self._end
        if self.codec is JSON_CODEC:
            idx = self._view.obj.find(b"\n", start, end)
            if idx < 0:
                if end - start > self.max_bytes:
                    self._fail(flood_frame())
                return None
            self._start = idx + 1
            return bytes(self._view[start:idx])
        if end - start < HEADER.size:
            return None
        length, = _U32.unpack_from(self._view, start)
        if length > self.max_bytes:
            self._fail(too_large_frame(length))
            return None
        total = HEADER.size + length
        if end - start < total:
            self._need = total
            return None
        self._need = 0
        if self._view[start + 4] in _ROW_FRAMES and (start - self._home) % 8:
            if self.pending:
                # bytes before this frame may be rows still being scored
                self._start = start + total
                return _aligned_copy(self._view[start + 4:start + total])
            self._make_room(0)
            start = self._start
        self._start = start + total
        return self._view[start + 4:start + total]

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
            # client and server disagree about the protocol; its error
            # is the farewell, then tear down rather than guess at a
            # resync point
            self._fail(error)
            return None, None
        return request, error

    def encode_response(self, frame: dict) -> bytes:
        return self.codec.encode_response(frame)

    def encode_prediction(self, req_id, prediction: int) -> bytes:
        return self.codec.encode_prediction(req_id, prediction)

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
        falls back to JSON — the floor every server speaks.  A hello
        routed while answers are still owed (:attr:`pending`) is
        refused with a typed ``bad_request`` and the codec stays: those
        answers would otherwise follow the hello answer in the codec
        their requests arrived under.
        """
        if not (isinstance(request, dict)
                and request.get("cmd") == "hello"):
            return None
        req_id = request_id(request)
        offers = request.get("codecs", [])
        if self.pending:
            return self.encode_response(error_frame(
                ERROR_BAD_REQUEST,
                f"hello with {self.pending} request(s) still unanswered; "
                f"negotiate on an idle connection", req_id))
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
