"""Sampled per-request tracing in Chrome ``trace_event`` format.

A :class:`Tracer` answers two questions the metrics registry cannot:
*where inside one request* the time went (decode → queue → batch →
predict → encode spans, at a configurable sample rate) and *which
requests were pathological* (an always-on slow-request log above a
latency threshold, routed through :mod:`repro.obs.log`).

Sampled spans are buffered in memory as Chrome ``trace_event``
complete events (``"ph": "X"``) and written by :meth:`flush` as one
JSON document that ``chrome://tracing`` and Perfetto open directly.
The record path never touches a file — the event-loop thread only ever
appends to a bounded in-memory list (events past ``MAX_EVENTS`` are
counted as dropped, not grown without bound); flushing happens on
daemon shutdown, off every serving thread.

Environment knobs (read by :meth:`Tracer.from_env`):

* ``REPRO_TRACE_SAMPLE`` — sample rate in ``[0, 1]`` (default ``0``:
  tracing off; ``1`` traces every request);
* ``REPRO_TRACE_FILE`` — where :meth:`flush` writes the trace
  (default ``repro-trace-<pid>.json`` in the working directory);
* ``REPRO_SLOW_REQUEST_US`` — the always-on slow-request threshold in
  microseconds (default 100000; ``0`` disables the slow log).

Sampling is deterministic (every N-th request), so a rate of ``0.01``
costs one integer check per request on the unsampled 99%.
"""

from __future__ import annotations

import json
import os
import threading

from repro.obs.log import get_logger

__all__ = ["DEFAULT_SLOW_REQUEST_US", "Tracer"]

#: default always-on slow-request threshold (100 ms), microseconds.
DEFAULT_SLOW_REQUEST_US = 100_000

#: bound on buffered trace events.
MAX_EVENTS = 50_000


class Tracer:
    """Buffered Chrome-trace spans plus the slow-request log.

    *sample_rate* in ``[0, 1]`` selects every N-th request for span
    recording (``0`` disables spans entirely); *slow_request_us* is
    independent of sampling and logs **every** request that crosses it.
    One tracer serves a whole process: all instrumented layers append
    to the same buffer, so the flushed file shows batch spans
    interleaved with the requests they coalesced.  The slow log is the
    ``server`` component's.
    """

    def __init__(self, sample_rate: float = 0.0,
                 path: str | None = None,
                 slow_request_us: int = DEFAULT_SLOW_REQUEST_US) -> None:
        rate = max(0.0, min(1.0, float(sample_rate)))
        self._period = 0 if rate <= 0 else max(1, round(1.0 / rate))
        #: whether any request can be sampled (a plain attribute: the hot
        #: paths read it before every call to :meth:`sample`)
        self.sampling = self._period > 0
        self.path = path
        self.slow_request_us = max(0, int(slow_request_us))
        self._log = get_logger("server")
        # the sequence counter is bumped without the lock: a lost tick
        # under contention shifts which request gets sampled, which is
        # exactly as representative — and keeps the unsampled path at
        # one attribute bump plus one modulo
        self._seq = 0
        self._lock = threading.Lock()
        self._events: list = []
        self._dropped = 0

    @classmethod
    def from_env(cls) -> "Tracer":
        """Build a tracer from the ``REPRO_TRACE_*`` environment knobs."""
        try:
            rate = float(os.environ.get("REPRO_TRACE_SAMPLE", "0") or 0)
        except ValueError:
            rate = 0.0
        try:
            slow = int(os.environ.get("REPRO_SLOW_REQUEST_US",
                                      str(DEFAULT_SLOW_REQUEST_US)))
        except ValueError:
            slow = DEFAULT_SLOW_REQUEST_US
        path = os.environ.get("REPRO_TRACE_FILE") or None
        if path is None and rate > 0:
            path = f"repro-trace-{os.getpid()}.json"
        return cls(sample_rate=rate, path=path, slow_request_us=slow)

    # -- sampling ----------------------------------------------------------

    def sample(self) -> bool:
        """Decide (deterministically) whether to trace this request."""
        if self._period == 0:
            return False
        self._seq += 1
        return self._seq % self._period == 0

    # -- span recording ----------------------------------------------------

    def complete(self, name: str, start_ns: int, end_ns: int,
                 **args) -> None:
        """Record one complete span (Chrome ``"ph": "X"`` event).

        *start_ns* / *end_ns* are ``time.perf_counter_ns`` readings;
        the emitted timestamps are microseconds on the same monotonic
        timeline, so spans from every thread of one process line up.
        """
        event = {
            "name": name,
            "ph": "X",
            "ts": start_ns / 1000.0,
            "dur": max(0.0, (end_ns - start_ns) / 1000.0),
            "pid": os.getpid(),
            "tid": threading.get_ident() % 1_000_000,
            "cat": "request",
        }
        if args:
            event["args"] = args
        with self._lock:
            if len(self._events) >= MAX_EVENTS:
                self._dropped += 1
                return
            self._events.append(event)

    # -- the slow-request log ----------------------------------------------

    def observe_slow(self, duration_us: float, verb: str,
                     **fields) -> None:
        """Log one request when it crossed the slow threshold.

        Always on (independent of the sample rate) so pathological
        requests surface even at a zero trace rate.
        """
        if self.slow_request_us and duration_us >= self.slow_request_us:
            self._log.warning("slow_request", verb=verb,
                              duration_us=round(duration_us, 1),
                              threshold_us=self.slow_request_us,
                              **fields)

    # -- exposition --------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "buffered_events": len(self._events),
                "dropped_events": self._dropped,
                "sample_period": self._period,
                "path": self.path,
            }

    def drain(self) -> list:
        """Take (and clear) the buffered events."""
        with self._lock:
            events, self._events = self._events, []
            return events

    def flush(self) -> str | None:
        """Write buffered events as one Chrome trace JSON document.

        Returns the path written, or ``None`` when there was nothing
        to write or nowhere to write it.  Must only be called from
        shutdown/ownership threads — never from a serving loop (it
        opens a file).
        """
        events = self.drain()
        if not events or not self.path:
            return None
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs",
                          "dropped_events": self._dropped},
        }
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
            handle.write("\n")
        self._log.info("trace_flushed", path=self.path,
                       events=len(events))
        return self.path
