"""What every workload receives and returns."""

from __future__ import annotations

import bisect
import itertools
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Ctx:
    """One benchmark run: where it may write and what it measures."""

    name: str          # workload name
    root: str          # the checkout root (holds src/ and .repro_cache/)
    keep: str          # state kept across runs (gitignored)
    work: str          # scratch for this run only, removed afterwards
    seed: int
    seconds: float
    trace: bool
    env: dict          # environment for the interpreters a run starts
    scale: int | None = None  # smoke-test size; None is the full workload

    def save_ledger(self, ledger) -> None:
        """Write the traced phase's span ledger next to the kept state."""
        path = os.path.join(self.keep,
                            f"ledger-{self.name}-seed{self.seed}.json")
        with open(path, "w") as handle:
            json.dump(ledger.dump(), handle, indent=1)


@dataclass
class Outcome:
    """A run's operation counts and metrics (unit-less; run.py adds units)."""

    attempted: int
    failed: int
    e2e: dict
    layers: dict = field(default_factory=dict)


#: the committed dataset of the ``unit`` profile, labelled from the
#: committed ``.repro_cache`` counters.
GOLDEN_DATASET = "dataset_unit-112-ea0f08eafe.json"

#: the reference loop's duration at the nominal CPU speed (seconds).
REFERENCE_NOMINAL_S = 0.001
#: fewest seconds between two reference measurements.
METER_INTERVAL_S = 0.02


def reference_loop() -> float:
    """Seconds one fixed slice of interpreter work takes right now."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(8000):
        table[i & 255] = table.get(i & 255, 0) + i
    return time.perf_counter() - start


class Meter:
    """Rescales wall time to a fixed CPU speed.

    The CPUs of a shared host change speed by up to 1.8x for periods of
    a fraction of a second to several seconds, each CPU on its own.
    Every process of a run is pinned to one CPU, and the meter runs a
    fixed reference loop on it at the boundaries the workload offers
    (between samples, fits or client calls, at most every
    METER_INTERVAL_S).  The wall time between two boundaries is a
    segment, scaled by REFERENCE_NOMINAL_S over the mean of the two
    reference readings around it; the reference loops themselves fall
    outside every segment.  An interval's rescaled duration is the sum
    of its overlap with each segment, so an operation may span many
    segments (a Figure 2 pass) or share one with others (JSON requests).
    """

    def __init__(self) -> None:
        self.starts: list = []   # segment start stamps (increasing)
        self.segments: list = []  # (start, end, factor)
        self.reference_s = 0.0   # wall (and CPU) time of the loops
        self._reference = reference_loop()
        self._start = time.perf_counter()

    def boundary(self, force: bool = False) -> None:
        """Close the open segment if it is old enough (or *force*)."""
        now = time.perf_counter()
        if not force and now - self._start < METER_INTERVAL_S:
            return
        reference = reference_loop()
        self.reference_s += reference
        factor = 2 * REFERENCE_NOMINAL_S / (self._reference + reference)
        self.starts.append(self._start)
        self.segments.append((self._start, now, factor))
        self._reference = reference
        self._start = time.perf_counter()

    def timed(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` between two forced boundaries; returns
        its result and its wall stamps ``(begin, end)``."""
        self.boundary(force=True)
        begin = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        self.boundary(force=True)
        return result, (begin, end)

    def wrap(self, name: str, fn, observe=None):
        """*fn* preceded by a boundary: lets :func:`ledger.instrument`
        place boundaries at the same calls the traced run spans."""
        boundary = self.boundary

        def hooked(*args, **kwargs):
            boundary()
            return fn(*args, **kwargs)

        return hooked

    def factor(self, intervals) -> float:
        """Mean rescaling over *intervals* of ``(begin, end)`` stamps."""
        return (sum(self.scaled(b, e) for b, e in intervals)
                / sum(self.scaled(b, e, rescale=False) for b, e in intervals))

    def scaled(self, begin: float, end: float, rescale: bool = True) -> float:
        """Rescaled seconds of the wall interval [begin, end], or with
        ``rescale=False`` its wall seconds outside the reference loops;
        only closed segments count, so call :meth:`boundary` first."""
        total = 0.0
        index = max(0, bisect.bisect_right(self.starts, begin) - 1)
        for start, stop, factor in itertools.islice(self.segments, index,
                                                    None):
            if start >= end:
                break
            overlap = min(stop, end) - max(start, begin)
            if overlap > 0:
                total += overlap * factor if rescale else overlap
        return total


def percentile(values, q: float) -> float:
    """The *q*-th percentile (linear interpolation) of *values*."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))
