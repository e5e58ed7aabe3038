"""Wire codec for the JSON-lines scoring protocol.

Both transports — ``repro serve`` on stdin/stdout and the persistent
:class:`repro.api.daemon.ScoringDaemon` on a Unix/TCP socket — speak
the same protocol: one JSON object per line in, one JSON object per
line out.  This module is the single place that builds those frames,
so the two paths cannot drift apart; :mod:`repro.api.wire` frames and
decodes them.

Success frames are ``{"ok": true, ...payload...}``; error frames are::

    {"ok": false, "code": "<machine-readable>", "error": "<human text>"}

with the request ``"id"`` echoed on both when the request carried one.
The error ``code`` is one of the ``ERROR_*`` constants below, so
clients (see :class:`repro.api.client.ScoringClient`) can dispatch on
it without parsing prose.
"""

from __future__ import annotations

import json

#: the request line was not valid JSON at all.
ERROR_INVALID_JSON = "invalid_json"
#: the request decoded but could not be served (unknown kernel, missing
#: features, bad shapes, unsupported verb, non-object request, ...).
ERROR_BAD_REQUEST = "bad_request"
#: the server hit an unexpected condition; the connection survives.
ERROR_INTERNAL = "internal"
#: the request named a model key the serving fleet does not know and
#: cannot load (see :mod:`repro.api.fleet`).
ERROR_UNKNOWN_MODEL = "unknown_model"
#: the request line exceeded :data:`MAX_REQUEST_BYTES`.
ERROR_TOO_LARGE = "too_large"
#: a frame on a negotiated binary connection could not be decoded
#: (unknown frame type, truncated or inconsistent payload); the
#: connection is torn down after answering, because a length-prefixed
#: stream cannot be resynchronized (see :mod:`repro.api.wire`).
ERROR_INVALID_FRAME = "invalid_frame"
#: the server is draining (graceful shutdown: it answers in-flight
#: work but accepts no new scoring requests).  Clients should retry on
#: another endpoint — :class:`repro.api.client.ScoringClient` treats
#: this code as retryable and re-resolves the shard registry, so a
#: drained shard hands its traffic to its siblings (see
#: :mod:`repro.api.supervisor`).
ERROR_DRAINING = "draining"

ERROR_CODES = (
    ERROR_INVALID_JSON,
    ERROR_BAD_REQUEST,
    ERROR_INTERNAL,
    ERROR_UNKNOWN_MODEL,
    ERROR_TOO_LARGE,
    ERROR_INVALID_FRAME,
    ERROR_DRAINING,
)

#: upper bound on one request line (16 MiB — a ~40k-row batch of the
#: paper's 24-feature vectors fits comfortably).  Decoding refuses
#: longer lines with a typed ``too_large`` frame instead of burning CPU
#: JSON-parsing unbounded input.
MAX_REQUEST_BYTES = 16 * 1024 * 1024

#: upper bound on one response line, enforced *client-side* by
#: :class:`repro.api.client.ScoringClient`: a misbehaving or
#: desynchronized server streaming bytes without a newline must not
#: grow the client's receive buffer without limit.  Mirrors the
#: server-side request guard.
MAX_RESPONSE_BYTES = MAX_REQUEST_BYTES


def request_id(request) -> object | None:
    """The correlation id of a decoded request, if it carries one."""
    if isinstance(request, dict) and "id" in request:
        return request["id"]
    return None


def ok_frame(payload: dict, req_id=None) -> dict:
    """A success frame carrying *payload*, echoing the request id."""
    frame: dict = {"ok": True}
    if req_id is not None:
        frame["id"] = req_id
    frame.update(payload)
    return frame


def error_frame(code: str, message: str, req_id=None) -> dict:
    """A typed error frame (``ok=false`` + machine-readable ``code``)."""
    frame: dict = {"ok": False, "code": code, "error": message}
    if req_id is not None:
        frame["id"] = req_id
    return frame


def encode_frame(frame: dict) -> str:
    """Serialize one response frame, newline-terminated."""
    return json.dumps(frame) + "\n"
