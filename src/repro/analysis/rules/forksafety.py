"""RPL004 — live OS state must not cross a ``Process(...)`` boundary.

:class:`repro.api.supervisor.ShardSupervisor` forks worker shards with
``multiprocessing``.  An object that already owns a socket, a running
thread, a selector or a held lock is only meaningful in the parent: a
forked child inherits a byte-copy whose file descriptors alias the
parent's and whose threads simply do not exist.  Passing such state via
``Process(target=..., args=(...))`` is therefore a latent bug even
when it "works" under the ``fork`` start method — and a hard pickle
error under ``spawn``/``forkserver``.

The rule inspects every ``*.Process(...)`` construction and flags
``self.<attr>`` values (and bare locals) in ``target=``/``args=`` whose
names look like live OS resources.  Plain data (factory callables,
endpoint strings, counts, ready events created *for* the child) passes
clean — which is exactly what ``ShardSupervisor`` ships today.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.rules.base import Rule, dotted_name

#: attribute/local names that denote live OS state in this codebase.
_HAZARD = re.compile(
    r"(sock|listener|conn|thread|pool|executor|selector|pipe|"
    r"guard|server|daemon|client|lock)",
    re.IGNORECASE,
)

#: names that look hazardous but are fork-safe by design: a
#: multiprocessing Event/Queue created to talk *to* the child.
_SAFE = re.compile(r"(ready|event|queue)", re.IGNORECASE)


def _is_process_call(node: ast.Call) -> bool:
    name = dotted_name(node.func)
    return name is not None and name.split(".")[-1] == "Process"


def _hazard(name: str | None) -> str | None:
    """The suspicious fragment of *name*, or ``None`` if it reads clean."""
    if name is None:
        return None
    attr = name.split(".")[-1]
    if _SAFE.search(attr):
        return None
    match = _HAZARD.search(attr)
    return match.group(0) if match else None


class ForkSafety(Rule):
    code = "RPL004"
    name = "fork-safety"
    rationale = (
        "objects constructed before a Process(...) fork must not "
        "carry sockets, threads, selectors or locks into the child; "
        "inherited descriptors alias the parent and threads vanish"
    )

    def check(self, project):
        for source in project.files:
            for node in ast.walk(source.tree):
                if isinstance(node, ast.Call) and _is_process_call(node):
                    yield from self._check_process(source, node)

    def _check_process(self, source, node: ast.Call):
        for keyword in node.keywords:
            if keyword.arg == "target":
                yield from self._check_value(
                    source, node, keyword.value, role="target"
                )
            elif keyword.arg == "args":
                values = (
                    keyword.value.elts
                    if isinstance(keyword.value, (ast.Tuple, ast.List))
                    else [keyword.value]
                )
                for value in values:
                    yield from self._check_value(source, node, value, role="args")

    def _check_value(self, source, call, value, role: str):
        name = dotted_name(value)
        if name is None and isinstance(value, ast.Attribute):
            # self.client._sock style chains still resolve via dotted_name;
            # anything else (subscripts, calls) is dynamic — skip it
            return
        fragment = _hazard(name)
        if fragment is None:
            return
        yield self.finding(
            source.path,
            call,
            f"{name!r} (matches {fragment!r}) is passed through "
            f"Process({role}=...); live sockets/threads/locks do not "
            f"survive the fork — pass plain data and rebuild the "
            f"resource in the child",
        )
