"""The layer ledger: parent-linked spans, self times, outside readers.

Spans are recorded only from this benchmark's files.  :func:`instrument`
swaps public functions of the program's modules for timing wrappers for
the length of one traced phase and puts the originals back afterwards,
so the program carries no timer of its own.  Spans nest on one thread
(the campaign runs with ``jobs=1`` and the load generator is a single
client), so a plain stack gives every span its parent.

A layer's self time is its span's duration minus the part covered by its
child spans.  Spans named in ``STRUCTURAL`` only group their children;
their self time is unattributed and counts toward the residual.
"""

from __future__ import annotations

import contextlib
import os
import time

#: spans that are not a layer: groups of layers, and the meter's
#: reference loops (see ``common.Meter``).
STRUCTURAL = frozenset({"phase", "sim.simulate", "client.call", "meter"})


class Ledger:
    """Aggregates spans as they close; keeps per-name and per-edge totals."""

    def __init__(self) -> None:
        self._stack: list = []   # open spans: [child_ns, name]
        self.totals: dict = {}   # name -> [calls, total_ns, self_ns]
        self.edges: dict = {}    # (parent, child) -> calls
        self.counts: dict = {}   # name -> count reported by observers

    def add(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, observe=None):
        """*fn* wrapped in a span called *name*.

        *observe*, when given, is called with the ledger and the
        wrapped call's arguments and result after the span closes.
        """
        stack, totals, edges = self._stack, self.totals, self.edges
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            frame = [0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += elapsed
                entry = totals.get(name)
                if entry is None:
                    entry = totals[name] = [0, 0, 0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                edge = (parent[1] if parent else None, name)
                edges[edge] = edges.get(edge, 0) + 1
            if observe is not None:
                observe(self, args, result)
            return result

        return span

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside one span called *name*."""
        return self.wrap(name, fn)(*args, **kwargs)

    def self_s(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0, 0))[2] for n in names) / 1e9

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def layer_self_s(self) -> float:
        """Summed self time of every span that is a layer."""
        return sum(entry[2] for name, entry in self.totals.items()
                   if name not in STRUCTURAL) / 1e9

    def dump(self) -> dict:
        """The ledger as a JSON-safe tree: per-span and per-edge totals."""
        return {
            "spans": {name: {"calls": c, "total_s": t / 1e9,
                             "self_s": s / 1e9}
                      for name, (c, t, s) in sorted(self.totals.items())},
            "edges": [{"parent": p, "child": c, "calls": n}
                      for (p, c), n in sorted(self.edges.items(),
                                              key=lambda kv: str(kv[0]))],
            "counts": dict(self.counts),
        }


@contextlib.contextmanager
def instrument(wrapper, patches):
    """Wrap each ``(owner, attr, span_name[, observe])`` for the block.

    *wrapper* is a :class:`Ledger` (spans) or a :class:`common.Meter`
    (speed-reference boundaries); its ``wrap`` builds each wrapper.
    *owner* is a module or a class.  Static and class methods keep
    their descriptor type; an inherited attribute is removed again on
    exit rather than shadowed.
    """
    undo = []
    try:
        for owner, attr, name, *rest in patches:
            observe = rest[0] if rest else None
            own = vars(owner)
            had = attr in own
            raw = own.get(attr) if had else getattr(owner, attr)
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(wrapper.wrap(name, raw.__func__, observe))
            else:
                new = wrapper.wrap(name, raw, observe)
            setattr(owner, attr, new)
            undo.append((owner, attr, raw, had))
        yield wrapper
    finally:
        for owner, attr, raw, had in reversed(undo):
            if had:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)


# -- outside readers ---------------------------------------------------------


def cpu_seconds(pid: int) -> float:
    """utime + stime of *pid* from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of *pid* in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")
