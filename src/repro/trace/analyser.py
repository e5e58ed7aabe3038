"""The trace analyser: regex parsing + listener dispatch.

Reads a GVSOC-style trace line by line, parses each with a regular
expression into (cycle, component path, payload), and forwards the event
to whichever listener registered that path — the same two-module design
(listeners + trace-analyser) the paper describes in §IV.A.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import TraceError
from repro.trace.format import KERNEL_PATH, parse_line
from repro.trace.listeners import PULPListeners


class TraceAnalyser:
    """Dispatches parsed trace events to registered listeners."""

    def __init__(self, listeners: PULPListeners) -> None:
        self.listeners = listeners
        self._dispatch: dict[str, object] = {}
        for listener in listeners.all_listeners():
            for path in listener.paths():
                if path in self._dispatch:
                    raise TraceError(f"duplicate listener path {path!r}")
                self._dispatch[path] = listener

    def process(self, lines: Iterable[str]) -> int:
        """Parse and dispatch *lines*; returns the number of events used.

        The paper filters events to the ``void kernel(...)`` region; our
        traces cover exactly that region, delimited by the
        ``cluster/kernel/trace`` begin/end markers.
        """
        dispatched = 0
        for line in lines:
            if not line.strip():
                continue
            cycle, path, payload = parse_line(line)
            if path == KERNEL_PATH:
                if payload == "begin":
                    self.listeners.kernel_begin = cycle
                elif payload == "end":
                    self.listeners.kernel_end = cycle
                else:
                    raise TraceError(f"unknown kernel marker {payload!r}")
                continue
            listener = self._dispatch.get(path)
            if listener is None:
                raise TraceError(f"no listener registered for {path!r}")
            listener.on_event(cycle, path, payload)
            dispatched += 1
        return dispatched


def analyse_trace(lines: Iterable[str]) -> PULPListeners:
    """Convenience wrapper: build the default platform's listeners,
    process *lines*, return them."""
    listeners = PULPListeners()
    TraceAnalyser(listeners).process(lines)
    return listeners
