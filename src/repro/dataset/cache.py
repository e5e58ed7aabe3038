"""On-disk caching of simulation results.

The campaign is 448 samples x 8 team sizes = 3584 cluster simulations —
minutes of work worth caching.  Raw *counters* are cached (not energies):
energy models are cheap to re-apply, so ablations over Table-I variants
reuse the same simulations.

Cache entries are invalidated by a fingerprint covering the kernel IR
(structure, placements, sizes), the cluster configuration and a manual
``CODE_VERSION`` bumped whenever simulator semantics change.

Concurrency and safety guarantees
---------------------------------

The cache is safe to share between processes (the parallel labelling
campaign points every worker at the same directory):

* **Atomic publication** — :meth:`SimCache.store` writes to a unique
  temporary file (``tempfile.mkstemp`` in the cache directory, so the
  rename never crosses a filesystem boundary) and publishes it with
  ``os.replace``.  Readers only ever see a missing file or a complete
  one, never a half-written entry.  Two concurrent writers of the same
  sample race benignly: each publishes a complete file and the last
  rename wins.
* **Collision-free filenames** — cache paths append a short hash of the
  *original* sample id to the sanitised name, so distinct ids that
  sanitise identically (``a/b`` vs ``a_b``) cannot cross-contaminate.
* **Corruption tolerance** — :meth:`SimCache.load` treats unreadable or
  fingerprint-mismatched entries as cache misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile

from repro.ir.nodes import (
    Barrier,
    Compute,
    Critical,
    Kernel,
    Load,
    Loop,
    ParallelFor,
    Sequential,
    SequentialFor,
    Store,
)
from repro.platform.config import ClusterConfig
from repro.version import CODE_VERSION  # noqa: F401  (canonical home moved)


def _node_repr(stmt) -> str:
    if isinstance(stmt, Compute):
        return f"C({stmt.kind.value},{stmt.count})"
    if isinstance(stmt, Load):
        return f"L({stmt.array},{stmt.index.to_python()})"
    if isinstance(stmt, Store):
        return f"S({stmt.array},{stmt.index.to_python()})"
    if isinstance(stmt, Loop):
        inner = ";".join(_node_repr(s) for s in stmt.body)
        return (f"F({stmt.var},{stmt.lower.to_python()},"
                f"{stmt.upper.to_python()})[{inner}]")
    if isinstance(stmt, Critical):
        inner = ";".join(_node_repr(s) for s in stmt.body)
        return f"X({stmt.name})[{inner}]"
    if isinstance(stmt, ParallelFor):
        inner = ";".join(_node_repr(s) for s in stmt.body)
        return (f"P({stmt.var},{stmt.lower.to_python()},"
                f"{stmt.upper.to_python()},{int(stmt.nowait)})[{inner}]")
    if isinstance(stmt, Sequential):
        inner = ";".join(_node_repr(s) for s in stmt.body)
        return f"Q[{inner}]"
    if isinstance(stmt, SequentialFor):
        inner = ";".join(_node_repr(s) for s in stmt.body)
        return (f"T({stmt.var},{stmt.lower.to_python()},"
                f"{stmt.upper.to_python()})[{inner}]")
    if isinstance(stmt, Barrier):
        return "B"
    raise TypeError(f"unexpected node {type(stmt).__name__}")


def kernel_fingerprint(kernel: Kernel, config: ClusterConfig) -> str:
    """Stable hash of everything that determines simulation counts."""
    arrays = ",".join(f"{a.name}:{a.length}:{a.space}"
                      for a in kernel.arrays)
    body = ";".join(_node_repr(stmt) for stmt in kernel.body)
    text = "|".join([
        f"v{CODE_VERSION}",
        kernel.name, kernel.dtype.value, str(kernel.size_bytes),
        arrays, body, config.cache_key(),
    ])
    return hashlib.sha1(text.encode()).hexdigest()


def _safe_name(sample_id: str) -> str:
    """Filesystem-safe, collision-free filename stem for *sample_id*.

    Sanitising alone is lossy (``a/b`` and ``a_b`` both become ``a_b``),
    so a short hash of the original id disambiguates.
    """
    digest = hashlib.sha1(sample_id.encode()).hexdigest()[:8]
    return re.sub(r"[^A-Za-z0-9._-]", "_", sample_id) + "-" + digest


class SimCache:
    """One JSON file per sample, holding counters for every team size."""

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        os.makedirs(cache_dir, exist_ok=True)

    def _path(self, sample_id: str) -> str:
        return os.path.join(self.cache_dir, _safe_name(sample_id) + ".json")

    def load(self, sample_id: str, fingerprint: str) -> dict:
        """Cached ``{team(str): counters_dict}`` or an empty dict."""
        path = self._path(sample_id)
        if not os.path.exists(path):
            return {}
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return {}
        if data.get("fingerprint") != fingerprint:
            return {}
        return data.get("teams", {})

    def store(self, sample_id: str, fingerprint: str,
              teams: dict) -> None:
        """Atomically publish the entry (safe under concurrent writers).

        A fixed ``path + ".tmp"`` staging name would let two concurrent
        writers truncate each other mid-dump and ``os.replace`` publish
        a half-written file; ``mkstemp`` gives each writer a private
        staging file in the same directory instead.
        """
        path = self._path(sample_id)
        fd, tmp = tempfile.mkstemp(
            dir=self.cache_dir,
            prefix=os.path.basename(path) + ".", suffix=".tmp")
        try:
            # one ``dumps`` runs the C encoder; ``dump`` to a file
            # handle would run the pure-Python iterencode
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(
                    {"fingerprint": fingerprint, "teams": teams}))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
