"""JSON-lines batch-scoring service (the ``repro serve`` backend).

One JSON object per input line, one JSON object per output line — the
simplest protocol that composes with shell pipes, socket wrappers and
container health checks alike.  Requests:

``{"kernel": "gemm", "dtype": "fp32", "size": 2048}``
    build the named dataset kernel and score it (``dtype`` defaults to
    ``int32``, ``size`` to 2048 bytes);
``{"features": {"name": value, ...}}``
    score an explicit feature mapping;
``{"rows": [[...], ...]}``
    score a batch of pre-assembled feature vectors;
``{"cmd": "info"}``
    describe the loaded model (family, feature set, versions).

Every request may carry an ``"id"`` which is echoed in the response.
Responses are ``{"ok": true, "prediction": k}`` (or ``"predictions"``
for batches, ``"info"`` for info) or typed error frames
``{"ok": false, "code": "...", "error": "..."}`` (see
:mod:`repro.api.protocol` for the code vocabulary); a malformed line
never kills the service.

The frame codec lives in :mod:`repro.api.protocol`; the dispatch and
framing shell shared by every transport lives in
:mod:`repro.api.transport`, so the stdin/stdout loop here and the
socket daemons in :mod:`repro.api.daemon` serve byte-identical
responses for the same requests.  This module keeps the single-model
request semantics (:func:`handle_request`) the fleet router serves
every resident model with.
"""

from __future__ import annotations

from repro.api.classifier import Classifier
from repro.api.protocol import (
    ERROR_BAD_REQUEST,
    error_frame,
    ok_frame,
    request_id,
)
from repro.dataset.registry import get_kernel_spec
from repro.errors import ReproError
from repro.ir.types import parse_dtype


def handle_request(classifier: Classifier, request) -> dict:
    """Score one decoded request; errors become typed error frames."""
    req_id = request_id(request)
    try:
        if not isinstance(request, dict):
            raise ReproError("request must be a JSON object")
        if request.get("cmd") == "info":
            return ok_frame({"info": classifier.info()}, req_id)
        if "rows" in request:
            preds = classifier.predict_batch(request["rows"])
            return ok_frame(
                {"predictions": [int(p) for p in preds]}, req_id)
        if "features" in request:
            prediction = classifier.predict(request["features"])
            return ok_frame({"prediction": prediction}, req_id)
        if "kernel" in request:
            spec = get_kernel_spec(str(request["kernel"]))
            dtype = parse_dtype(str(request.get("dtype", "int32")))
            size = int(request.get("size", 2048))
            kernel = spec.build(dtype, size)
            return ok_frame(
                {"prediction": classifier.predict(kernel)}, req_id)
        raise ReproError(
            "unsupported request; expected one of the keys "
            "'kernel', 'features', 'rows' or cmd='info'")
    except (ReproError, TypeError, ValueError) as exc:
        # bare KeyError is deliberately NOT caught here: no well-formed
        # client input raises it, so one surfacing is a server bug and
        # belongs in the protocol turn's 'internal' frame, not
        # 'bad_request'
        return error_frame(ERROR_BAD_REQUEST, str(exc), req_id)


def serve(scorer, stdin=None, stdout=None) -> int:
    """Serve JSON-lines requests until EOF; returns requests handled.

    *scorer* is a fitted :class:`Classifier` (served as a one-model
    fleet), a multi-model :class:`repro.api.fleet.ModelFleet`, or an
    already-built :class:`repro.api.transport.RequestEngine`.  Every
    request dispatches through the unified transport core, so the
    stdio loop answers the exact frames the socket daemons would —
    including the ``{"cmd": "stats"}`` admin verb.
    """
    # function-local import: transport layers on top of this module
    from repro.api.transport import RequestEngine, serve_stdio

    if not isinstance(scorer, RequestEngine):
        scorer = RequestEngine(scorer)
    return serve_stdio(scorer, stdin, stdout)
