"""Worker-count resolution shared by the CLI, experiments and ML layers.

Every parallel entry point (``build_dataset``, ``repeated_cv_predict``,
the ``repro`` CLI) takes a ``jobs`` argument resolved through
:func:`resolve_jobs`:

* ``None`` — consult ``$REPRO_JOBS``, falling back to 1 (serial) when
  unset; an unparsable value warns instead of being silently ignored;
* ``0`` or negative — use every available CPU;
* positive — use exactly that many workers.
"""

from __future__ import annotations

import os
import warnings

#: environment variable consulted when no explicit jobs value is given.
JOBS_ENV_VAR = "REPRO_JOBS"


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a ``--jobs`` / ``$REPRO_JOBS`` value to a worker count."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR)
        if raw is None:
            jobs = 1
        else:
            try:
                jobs = int(raw)
            except ValueError:
                warnings.warn(
                    f"invalid {JOBS_ENV_VAR}={raw!r} (not an integer); "
                    "falling back to 1", RuntimeWarning, stacklevel=2)
                jobs = 1
    jobs = int(jobs)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)
