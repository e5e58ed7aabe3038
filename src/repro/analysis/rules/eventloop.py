"""RPL002 — no blocking calls reachable from event-loop callback paths.

:class:`repro.api.daemon.ScoringDaemon` multiplexes every connection
on one selectors thread.  One ``time.sleep`` or synchronous ``open()``
on that thread stalls every connected client at once, which is exactly
the failure mode that is invisible in unit tests (one client never
notices) and catastrophic under load.  The daemon's own off-loop
methods (``stop``, the drain thread's ``_do_drain``) may block: only
what ``_run`` reaches is checked.

The rule finds loop classes structurally — any class with a ``_run``
method that also calls ``selectors.DefaultSelector()`` or constructs a
daemon thread targeting ``self._run`` — then walks the call graph from
``_run`` through same-class ``self.<m>()`` calls and same-module
function calls, and flags blocking primitives on any reachable path.
Nested ``def``/``lambda`` bodies are *not* followed: a nested function
in this codebase is a callback handed to a worker pool (see
``ScoringDaemon._submit_slow``), so it runs off-loop by design.

Deliberately **not** flagged: ``queue.get``/``.recv``/``.send`` — a
scheduler thread's entire job is waiting on its queue, and the loop's
sockets are non-blocking.
"""

from __future__ import annotations

import ast

from repro.analysis.rules.base import (
    Rule,
    dotted_name,
    methods_of,
    module_functions,
    walk_function_body,
)

#: fully-dotted call names that block the calling thread.
_BLOCKING_CALLS = {
    "time.sleep": "sleeps the loop thread",
    "os.system": "runs a subprocess synchronously",
    "os.popen": "runs a subprocess synchronously",
    "subprocess.run": "runs a subprocess synchronously",
    "subprocess.call": "runs a subprocess synchronously",
    "subprocess.check_call": "runs a subprocess synchronously",
    "subprocess.check_output": "runs a subprocess synchronously",
    "subprocess.Popen": "spawns a subprocess on the loop thread",
    "socket.create_connection": "opens a blocking connection",
    "socket.getaddrinfo": "does blocking name resolution",
    "socket.gethostbyname": "does blocking name resolution",
    "urllib.request.urlopen": "does blocking network I/O",
    "requests.get": "does blocking network I/O",
    "requests.post": "does blocking network I/O",
    "requests.request": "does blocking network I/O",
}

#: method names that block when invoked on a thread/process/pool-ish
#: receiver (``self._writer_thread.join()``); keyed by receiver hint.
_BLOCKING_JOIN_HINTS = ("thread", "proc", "process", "pool", "worker")

#: the entry method every loop class runs on its dedicated thread.
_LOOP_ENTRY = "_run"


def _is_loop_class(cls: ast.ClassDef, methods: dict) -> bool:
    """A class whose ``_run`` is a dedicated loop/scheduler thread."""
    if _LOOP_ENTRY not in methods:
        return False
    for method in methods.values():
        for node in walk_function_body(method, skip_nested=False):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name and name.endswith("DefaultSelector"):
                return True
            # threading.Thread(target=self._run, ...)
            if name and name.endswith("Thread"):
                for keyword in node.keywords:
                    if keyword.arg != "target":
                        continue
                    target = dotted_name(keyword.value)
                    if target == f"self.{_LOOP_ENTRY}":
                        return True
    return False


def _blocking_reason(node: ast.Call) -> str | None:
    """Why *node* blocks the calling thread, or ``None`` if it doesn't."""
    name = dotted_name(node.func)
    if name is None:
        return None
    if name in _BLOCKING_CALLS:
        return f"{name}() {_BLOCKING_CALLS[name]}"
    if name == "open" or name.endswith(".open"):
        # io.open / builtins.open: synchronous disk I/O
        if name in ("open", "io.open", "builtins.open"):
            return f"{name}() does synchronous file I/O"
    if isinstance(node.func, ast.Attribute) and node.func.attr == "join":
        receiver = dotted_name(node.func.value) or ""
        lowered = receiver.lower()
        if any(hint in lowered for hint in _BLOCKING_JOIN_HINTS):
            return f"{receiver}.join() waits for another thread"
    return None


class EventLoopBlocking(Rule):
    code = "RPL002"
    name = "event-loop-blocking-call"
    rationale = (
        "no time.sleep, blocking socket/network calls, synchronous "
        "file I/O or subprocesses reachable from the ScoringDaemon "
        "loop thread; one block stalls every client"
    )

    def check(self, project):
        for source in project.files:
            functions = module_functions(source.tree)
            for cls in [
                n
                for n in ast.walk(source.tree)
                if isinstance(n, ast.ClassDef)
            ]:
                methods = methods_of(cls)
                if not _is_loop_class(cls, methods):
                    continue
                yield from self._check_loop_class(source, cls, methods, functions)

    def _check_loop_class(self, source, cls, methods, functions):
        # BFS from _run over self.<m>() and module-function calls,
        # remembering the path so the finding explains reachability
        queue: list = [(_LOOP_ENTRY, (_LOOP_ENTRY,))]
        seen: set = {_LOOP_ENTRY}
        while queue:
            name, path = queue.pop(0)
            func = methods.get(name) or functions.get(name)
            if func is None:
                continue
            for node in walk_function_body(func):
                if not isinstance(node, ast.Call):
                    continue
                reason = _blocking_reason(node)
                if reason is not None:
                    where = " -> ".join(path)
                    yield self.finding(
                        source.path,
                        node,
                        f"{reason}, reachable from {cls.name}."
                        f"{where}() which runs on the loop thread",
                    )
                    continue
                callee = dotted_name(node.func)
                if callee is None:
                    continue
                target: str | None = None
                if callee.startswith("self."):
                    attr = callee[len("self.") :]
                    if attr in methods:
                        target = attr
                elif callee in functions:
                    target = callee
                if target is not None and target not in seen:
                    seen.add(target)
                    queue.append((target, path + (target,)))
