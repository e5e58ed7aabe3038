"""Process-local metrics: counters, gauges, mergeable histograms.

The serving stack's telemetry primitives.  Three metric kinds, all
label-addressed through one :class:`MetricsRegistry` per process:

* :class:`Counter` — a monotonically increasing total;
* :class:`Gauge` — a last-write-wins level (queue depth, loop lag);
* :class:`Histogram` — fixed-bucket distributions over **pre-computed
  log-spaced bounds**, built for microsecond latencies.  The record
  path is one ``bisect`` over a small tuple plus one locked integer
  bump — cheap enough to sit on every request.

Snapshots are plain JSON-safe dicts and **mergeable**: histograms from
different shards merge by bucket-wise addition (:func:`merge_series`),
never by averaging percentiles — p99 of a fleet is the p99 of the
*union* distribution, which bucket addition preserves exactly and
percentile averaging does not.  Quantiles are read back from any
(merged) snapshot with :func:`histogram_quantile`, which interpolates
linearly inside the bucket that crosses the target rank.

Instrument sites hold direct references to their metric objects (the
registry lookup happens once, at wiring time), so the hot path never
touches the registry lock.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = [
    "BATCH_BUCKET_BOUNDS_ROWS",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKET_BOUNDS_US",
    "MetricsRegistry",
    "SIZE_BUCKET_BOUNDS_BYTES",
    "histogram_quantile",
    "merge_series",
]


def _log_spaced(lo: float, hi: float, per_decade: int) -> tuple:
    """Log-spaced bucket upper bounds, rounded to 3 significant digits.

    Computed once at import; every histogram sharing a bounds tuple is
    mergeable with its peers by construction.
    """
    bounds: list = []
    i = 0
    while True:
        value = float(f"{lo * 10 ** (i / per_decade):.3g}")
        if value > hi:
            break
        if not bounds or value > bounds[-1]:
            bounds.append(value)
        i += 1
    return tuple(bounds)


#: microsecond latency bounds: 1 µs .. 10 s, five buckets per decade.
LATENCY_BUCKET_BOUNDS_US = _log_spaced(1.0, 10_000_000.0, 5)

#: payload-size bounds: 1 B .. 100 MB, three buckets per decade.
SIZE_BUCKET_BOUNDS_BYTES = _log_spaced(1.0, 100_000_000.0, 3)

#: coalesced-batch row-count bounds: powers of two up to 4096 rows.
BATCH_BUCKET_BOUNDS_ROWS = tuple(float(2 ** i) for i in range(13))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("_lock", "_value")

    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A last-write-wins level (queue depth, event-loop lag, ...)."""

    __slots__ = ("_lock", "_value")

    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def set_max(self, value: float) -> None:
        """Raise the level to *value* if that is higher; a high-water
        mark that takes no lock while it stays put."""
        if value > self._value:
            with self._lock:
                if value > self._value:
                    self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"value": self.value}


class Histogram:
    """A fixed-bucket distribution over pre-computed bounds.

    ``bounds[i]`` is the *inclusive* upper edge of bucket *i* (the
    Prometheus ``le`` convention); one implicit overflow bucket catches
    everything above the last bound.  Recording is a ``bisect`` plus a
    locked bump; :meth:`record_many` amortizes the lock over a whole
    coalesced batch that shared one service time.
    """

    __slots__ = ("_lock", "bounds", "_counts", "_count", "_sum")

    kind = "histogram"

    def __init__(self, bounds: tuple = LATENCY_BUCKET_BOUNDS_US) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0

    def record(self, value: float) -> None:
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value

    def record_many(self, value: float, n: int) -> None:
        """Record *n* observations that all measured *value*."""
        if n <= 0:
            return
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += n
            self._count += n
            self._sum += value * n

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
            }


def histogram_quantile(snapshot: dict, q: float) -> float:
    """The *q*-quantile of one histogram snapshot (merged or not).

    Finds the bucket whose cumulative count crosses ``q * count`` and
    interpolates linearly between its edges — exact up to bucket
    resolution, and identical whether computed before or after a
    bucket-wise merge (which is the whole point of merging buckets
    instead of percentiles).  Returns ``0.0`` for an empty histogram;
    ranks landing in the overflow bucket answer the last bound.
    """
    bounds = snapshot.get("bounds") or []
    counts = snapshot.get("counts") or []
    total = snapshot.get("count", 0)
    if total <= 0 or not bounds:
        return 0.0
    rank = max(0.0, min(1.0, float(q))) * total
    cumulative = 0
    for idx, n in enumerate(counts):
        if n == 0:
            continue
        if cumulative + n >= rank:
            if idx >= len(bounds):
                return float(bounds[-1])  # overflow: no upper edge
            lo = float(bounds[idx - 1]) if idx > 0 else 0.0
            hi = float(bounds[idx])
            fraction = (rank - cumulative) / n
            return lo + fraction * (hi - lo)
        cumulative += n
    return float(bounds[-1])


class MetricsRegistry:
    """One process's named, label-addressed metric set.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the
    first call under a ``(name, labels)`` identity creates the metric,
    later calls return the same object — so wiring code can look a
    metric up idempotently and hand the reference to its hot path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict = {}
        self._order: list = []

    def _get(self, cls, name: str, labels: dict, **kwargs):
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(**kwargs)
                self._metrics[key] = metric
                self._order.append(key)
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} with labels {labels!r} is already "
                    f"registered as a {metric.kind}")
            return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, bounds: tuple | None = None,
                  **labels) -> Histogram:
        kwargs = {} if bounds is None else {"bounds": tuple(bounds)}
        return self._get(Histogram, name, labels, **kwargs)

    def snapshot(self) -> dict:
        """Every metric as one JSON-safe ``{"series": [...]}`` tree."""
        with self._lock:
            items = [(key, self._metrics[key]) for key in self._order]
        series = []
        for (name, labels), metric in items:
            row = {"name": name, "labels": dict(labels),
                   "kind": metric.kind}
            row.update(metric.snapshot())
            series.append(row)
        return {"series": series}


def _series_key(row: dict) -> tuple:
    labels = row.get("labels") or {}
    bounds = row.get("bounds")
    return (
        row.get("name"),
        tuple(sorted(labels.items())),
        row.get("kind"),
        tuple(bounds) if bounds else None,
    )


def merge_series(snapshots) -> list:
    """Merge registry snapshots from many shards into one series list.

    Rows are matched on ``(name, labels, kind)``; histograms
    additionally match on their bounds tuple, so a shard running
    different bucket bounds merges next to — never into — its peers.
    Counters add, gauges keep the fleet-wide **maximum** (the worst
    shard's loop lag is the one an operator cares about), and
    histograms add **bucket-wise** along with their count and sum —
    percentiles of the merged row equal percentiles of the union
    distribution by construction.  Malformed rows are skipped.
    """
    merged: dict = {}
    order: list = []
    for snap in snapshots:
        if not isinstance(snap, dict):
            continue
        for row in snap.get("series") or []:
            if not isinstance(row, dict) or not row.get("name"):
                continue
            kind = row.get("kind")
            key = _series_key(row)
            into = merged.get(key)
            if into is None:
                into = {"name": row["name"],
                        "labels": dict(row.get("labels") or {}),
                        "kind": kind}
                if kind == "histogram":
                    into["bounds"] = list(row.get("bounds") or [])
                    into["counts"] = [0] * (len(into["bounds"]) + 1)
                    into["count"] = 0
                    into["sum"] = 0.0
                else:
                    into["value"] = 0
                merged[key] = into
                order.append(key)
            if kind == "counter":
                into["value"] += row.get("value", 0)
            elif kind == "gauge":
                into["value"] = max(into["value"], row.get("value", 0))
            elif kind == "histogram":
                counts = row.get("counts") or []
                if len(counts) != len(into["counts"]):
                    continue  # malformed row: never poison the merge
                for idx, n in enumerate(counts):
                    into["counts"][idx] += n
                into["count"] += row.get("count", 0)
                into["sum"] += row.get("sum", 0.0)
    return [merged[key] for key in order]
