"""Tests for the :mod:`repro.obs` telemetry subsystem.

Unit coverage for the metric primitives (counters, gauges, mergeable
histograms, quantile interpolation), the bucket-wise snapshot merge,
Prometheus text exposition, the JSON-lines logger and the sampled
tracer — then integration coverage for the ``{"cmd": "metrics"}``
verb, the fleet-wide ``collect_metrics`` merge (disjoint shard
latency profiles, dead shards) and the Chrome-trace span pipeline
through a live fleet daemon.
"""

import io
import json
import logging
import os

import pytest

from repro.api import (
    AdminClient,
    Classifier,
    ModelFleet,
    ReproConfig,
    ScoringClient,
    ScoringDaemon,
)
from repro.api.admin import collect_metrics
from repro.api.shard import write_registry
from repro.api.transport import RequestEngine
from repro.api.wire import JSON_CODEC
from repro.obs import (
    LATENCY_BUCKET_BOUNDS_US,
    JsonLogger,
    MetricsRegistry,
    Tracer,
    get_logger,
    histogram_quantile,
    merge_series,
    render_prometheus,
)
from repro.obs.metrics import Histogram


@pytest.fixture()
def trained(tiny_dataset) -> Classifier:
    return Classifier(ReproConfig(profile="unit")).train(tiny_dataset)


def capture_log(component: str):
    """Swap the component's handler for an in-memory stream; return
    (logger, read_lines)."""
    logger = get_logger(component)
    backing = logging.getLogger(f"repro.{component}")
    stream = io.StringIO()
    handler = logging.StreamHandler(stream)
    handler.setFormatter(backing.handlers[0].formatter)
    saved = backing.handlers[:]
    backing.handlers[:] = [handler]

    def lines():
        backing.handlers[:] = saved
        return [json.loads(line)
                for line in stream.getvalue().splitlines() if line]

    return logger, lines


class TestBuckets:
    def test_latency_bounds_are_increasing_and_span_the_decades(self):
        bounds = LATENCY_BUCKET_BOUNDS_US
        assert bounds[0] == 1.0
        assert bounds[-1] == 10_000_000.0
        assert all(a < b for a, b in zip(bounds, bounds[1:]))


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("requests", verb="score")
        again = registry.counter("requests", verb="score")
        other = registry.counter("requests", verb="stats")
        assert first is again
        assert first is not other

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("thing")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("total", verb="score").inc(3)
        registry.gauge("lag_us").set(12.5)
        registry.histogram("latency_us").record(42.0)
        series = registry.snapshot()["series"]
        by_name = {row["name"]: row for row in series}
        assert by_name["total"]["kind"] == "counter"
        assert by_name["total"]["value"] == 3
        assert by_name["total"]["labels"] == {"verb": "score"}
        assert by_name["lag_us"]["value"] == 12.5
        hist = by_name["latency_us"]
        assert hist["count"] == 1
        assert sum(hist["counts"]) == 1
        assert len(hist["counts"]) == len(hist["bounds"]) + 1


class TestHistogram:
    def test_record_many_equals_repeated_records(self):
        one_by_one = Histogram()
        bulk = Histogram()
        for _ in range(7):
            one_by_one.record(33.0)
        bulk.record_many(33.0, 7)
        assert one_by_one.snapshot() == bulk.snapshot()

    def test_quantiles_interpolate_within_the_bucket(self):
        hist = Histogram(bounds=(10.0, 20.0, 40.0))
        for _ in range(10):
            hist.record(15.0)  # all land in (10, 20]
        snap = hist.snapshot()
        # rank q*10 sits inside the second bucket: lo=10, hi=20
        assert histogram_quantile(snap, 0.5) == pytest.approx(15.0)
        assert histogram_quantile(snap, 1.0) == pytest.approx(20.0)

    def test_empty_histogram_answers_zero(self):
        assert histogram_quantile(Histogram().snapshot(), 0.99) == 0.0

    def test_overflow_rank_answers_last_bound(self):
        hist = Histogram(bounds=(10.0, 20.0))
        hist.record(1e9)
        assert histogram_quantile(hist.snapshot(), 0.99) == 20.0


class TestMergeSeries:
    def test_counters_add_and_gauges_keep_the_maximum(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("served").inc(4)
        b.counter("served").inc(6)
        a.gauge("lag_us").set(10.0)
        b.gauge("lag_us").set(90.0)
        merged = {row["name"]: row
                  for row in merge_series([a.snapshot(), b.snapshot()])}
        assert merged["served"]["value"] == 10
        assert merged["lag_us"]["value"] == 90.0

    def test_merged_percentiles_equal_the_union_distribution(self):
        """Two shards with disjoint latency profiles: quantiles of the
        bucket-wise merge must equal quantiles of one histogram that
        saw all the traffic (what percentile averaging gets wrong)."""
        fast, slow, union = (MetricsRegistry(), MetricsRegistry(),
                             Histogram())
        for value in (3.0, 4.0, 5.0, 6.0, 7.0):
            fast.histogram("latency_us").record(value)
            union.record(value)
        for value in (30_000.0, 40_000.0, 50_000.0):
            slow.histogram("latency_us").record(value)
            union.record(value)
        merged = merge_series([fast.snapshot(), slow.snapshot()])
        (row,) = merged
        assert row["count"] == 8
        for q in (0.1, 0.5, 0.9, 0.99):
            assert histogram_quantile(row, q) == pytest.approx(
                histogram_quantile(union.snapshot(), q))

    def test_mismatched_bounds_merge_side_by_side(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("latency_us", bounds=(1.0, 2.0)).record(1.5)
        b.histogram("latency_us", bounds=(1.0, 2.0, 4.0)).record(1.5)
        merged = merge_series([a.snapshot(), b.snapshot()])
        assert len(merged) == 2  # never merged into each other

    def test_malformed_snapshots_are_skipped(self):
        good = MetricsRegistry()
        good.counter("served").inc(2)
        merged = merge_series([
            None,
            "nonsense",
            {"series": [{"kind": "counter"},       # no name
                        {"name": "served", "kind": "counter",
                         "value": 3}]},
            good.snapshot(),
        ])
        (row,) = merged
        assert row["value"] == 5


class TestPrometheus:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("repro_served_total", verb="score").inc(7)
        registry.gauge("repro_lag_us").set(3.5)
        text = render_prometheus(registry.snapshot()["series"])
        assert "# TYPE repro_served_total counter" in text
        assert 'repro_served_total{verb="score"} 7' in text
        assert "# TYPE repro_lag_us gauge" in text
        assert "repro_lag_us 3.5" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative_with_inf(self):
        hist = Histogram(bounds=(10.0, 20.0))
        hist.record(5.0)
        hist.record(15.0)
        hist.record(1e9)  # overflow
        row = {"name": "lat", "kind": "histogram", "labels": {},
               **hist.snapshot()}
        text = render_prometheus([row])
        assert 'lat_bucket{le="10"} 1' in text
        assert 'lat_bucket{le="20"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text

    def test_label_values_are_escaped(self):
        text = render_prometheus([
            {"name": "c", "kind": "counter", "value": 1,
             "labels": {"model": 'a"b\nc'}},
        ])
        assert 'model="a\\"b\\nc"' in text

    def test_empty_series_renders_empty(self):
        assert render_prometheus([]) == ""
        assert render_prometheus(None) == ""


class TestJsonLogger:
    def test_lines_are_json_with_reserved_keys(self):
        log, lines = capture_log("obs_test_a")
        log.info("served", shard=3, latency_us=12.5)
        (record,) = lines()
        assert record["component"] == "obs_test_a"
        assert record["event"] == "served"
        assert record["level"] == "info"
        assert record["pid"] == os.getpid()
        assert record["shard"] == 3
        assert record["latency_us"] == 12.5

    def test_caller_fields_never_shadow_reserved_keys(self):
        log, lines = capture_log("obs_test_b")
        log.info("served", level="hijacked", pid=-1)
        (record,) = lines()
        assert record["level"] == "info"
        assert record["pid"] == os.getpid()

    def test_bound_fields_ride_every_record(self):
        base, lines = capture_log("obs_test_c")
        bound = base.bind(shard=7)
        bound.info("one")
        bound.error("two", extra=True)
        one, two = lines()
        assert one["shard"] == 7 and two["shard"] == 7
        assert two["level"] == "error" and two["extra"] is True

    def test_non_json_safe_fields_degrade_to_repr(self):
        log, lines = capture_log("obs_test_d")
        log.info("served", weird={1, 2}.__class__)
        (record,) = lines()
        assert isinstance(record["weird"], str)

    def test_debug_records_only_when_enabled(self):
        log, lines = capture_log("obs_test_g")
        backing = logging.getLogger("repro.obs_test_g")
        level = backing.level
        log.debug("hidden")
        backing.setLevel(logging.DEBUG)
        try:
            log.debug("shown", shard=2)
        finally:
            backing.setLevel(level)
        (record,) = lines()
        assert record["event"] == "shown"
        assert record["level"] == "debug" and record["shard"] == 2

    def test_get_logger_binds_initial_fields(self):
        assert isinstance(get_logger("obs_test_e", shard=1), JsonLogger)


class TestTracer:
    def test_zero_rate_never_samples(self):
        tracer = Tracer(sample_rate=0.0)
        assert tracer.sampling is False
        assert not any(tracer.sample() for _ in range(100))

    def test_full_rate_samples_everything(self):
        tracer = Tracer(sample_rate=1.0)
        assert all(tracer.sample() for _ in range(100))

    def test_fractional_rate_is_every_nth(self):
        tracer = Tracer(sample_rate=0.25)
        hits = sum(tracer.sample() for _ in range(100))
        assert hits == 25

    def test_flush_writes_a_chrome_trace_document(self, tmp_path):
        path = str(tmp_path / "trace.json")
        tracer = Tracer(sample_rate=1.0, path=path)
        tracer.complete("predict", 1_000, 4_000, rows=20)
        assert tracer.flush() == path
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        (event,) = document["traceEvents"]
        assert event["name"] == "predict"
        assert event["ph"] == "X"
        assert event["dur"] == pytest.approx(3.0)  # microseconds
        assert event["args"] == {"rows": 20}

    def test_flush_with_nothing_buffered_returns_none(self, tmp_path):
        tracer = Tracer(sample_rate=1.0,
                        path=str(tmp_path / "trace.json"))
        assert tracer.flush() is None

    def test_buffer_bound_counts_drops(self, monkeypatch):
        monkeypatch.setattr("repro.obs.trace.MAX_EVENTS", 2)
        tracer = Tracer(sample_rate=1.0)
        for _ in range(5):
            tracer.complete("span", 0, 1)
        snap = tracer.snapshot()
        assert snap["buffered_events"] == 2
        assert snap["dropped_events"] == 3

    def test_slow_log_fires_only_above_threshold(self):
        tracer = Tracer(slow_request_us=1_000)
        _, lines = capture_log("server")
        tracer.observe_slow(999.0, "score")
        tracer.observe_slow(1_500.0, "score", codec="binary-v1")
        (record,) = lines()
        assert record["event"] == "slow_request"
        assert record["level"] == "warning"
        assert record["duration_us"] == 1500.0
        assert record["codec"] == "binary-v1"

    def test_from_env_reads_the_knobs(self, monkeypatch, tmp_path):
        path = str(tmp_path / "t.json")
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0.5")
        monkeypatch.setenv("REPRO_TRACE_FILE", path)
        monkeypatch.setenv("REPRO_SLOW_REQUEST_US", "5000")
        tracer = Tracer.from_env()
        assert tracer.sampling is True
        assert tracer.path == path
        assert tracer.slow_request_us == 5000

    def test_from_env_garbage_disables_gracefully(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "banana")
        monkeypatch.delenv("REPRO_TRACE_FILE", raising=False)
        tracer = Tracer.from_env()
        assert tracer.sampling is False


class TestMetricsVerb:
    def test_round_trip_over_a_daemon(self, trained, tmp_path):
        path = str(tmp_path / "m.sock")
        row = [0.0] * len(trained.feature_names_)
        with ScoringDaemon(trained, socket_path=path, workers=1):
            with ScoringClient(socket_path=path) as client:
                client.predict(row)
                payload = client.request({"cmd": "metrics"})["metrics"]
        assert payload["enabled"] is True
        latency = [r for r in payload["series"]
                   if r["name"] == "repro_request_latency_us"
                   and r["labels"].get("verb") == "score"]
        assert sum(r["count"] for r in latency) == 1

    def test_admin_client_surface(self, trained, tmp_path):
        path = str(tmp_path / "m.sock")
        with ScoringDaemon(trained, socket_path=path, workers=1):
            with AdminClient(socket_path=path) as admin:
                payload = admin.metrics()
        assert payload["enabled"] is True
        assert isinstance(payload["series"], list)

    def test_every_request_bytes_series_counts_traffic(self, trained):
        """Worker-path turns record the answer size only; no
        ``repro_request_bytes`` series may sit at zero observations."""
        engine = RequestEngine(trained)
        names = trained.feature_names_
        engine.turn({"features": dict.fromkeys(names, 0.0)}, JSON_CODEC)
        engine.turn({"rows": [[0.0] * len(names)] * 3}, JSON_CODEC)
        sizes = [r for r in engine.metrics_payload()["series"]
                 if r["name"] == "repro_request_bytes"]
        assert [r["labels"]["direction"] for r in sizes] == ["out"]
        assert all(r["count"] > 0 for r in sizes)


class TestCollectMetrics:
    def test_disjoint_shards_merge_to_the_union_distribution(
            self, trained, tmp_path):
        """Two live shards with synthetic, disjoint latency profiles:
        the fleet-wide merge must carry the union distribution, and a
        quantile read off the merged row must match a histogram that
        saw every observation."""
        paths = [str(tmp_path / f"s{i}.sock") for i in range(2)]
        base = str(tmp_path / "fleet.sock")
        row = [0.0] * len(trained.feature_names_)
        profiles = ([5.0, 6.0, 7.0, 8.0],
                    [70_000.0, 80_000.0, 90_000.0])
        union = Histogram()
        daemons = [ScoringDaemon(trained, socket_path=path, workers=1)
                   for path in paths]
        with daemons[0], daemons[1]:
            for daemon, profile in zip(daemons, profiles):
                hist = daemon.engine.obs.histogram("synthetic_us")
                for value in profile:
                    hist.record(value)
                    union.record(value)
            for path in paths:
                with ScoringClient(socket_path=path) as client:
                    client.predict(row)
            write_registry(base, [
                {"index": i, "path": path, "pid": os.getpid()}
                for i, path in enumerate(paths)
            ])
            fleet = collect_metrics(base, timeout=5.0)
        assert sum("error" not in row for row in fleet["shards"]) == 2
        merged = {(r["name"],): r for r in fleet["series"]
                  if r["name"] == "synthetic_us"}
        (synthetic,) = merged.values()
        assert synthetic["count"] == 7
        for q in (0.25, 0.5, 0.9):
            assert histogram_quantile(synthetic, q) == pytest.approx(
                histogram_quantile(union.snapshot(), q))
        served = [r for r in fleet["series"]
                  if r["name"] == "repro_request_latency_us"
                  and r["labels"].get("verb") == "score"]
        assert sum(r["count"] for r in served) == 2  # one per shard

    def test_dead_shard_is_an_error_row_not_poison(self, trained,
                                                   tmp_path):
        live = str(tmp_path / "live.sock")
        dead = str(tmp_path / "dead.sock")  # never bound
        base = str(tmp_path / "fleet.sock")
        row = [0.0] * len(trained.feature_names_)
        with ScoringDaemon(trained, socket_path=live, workers=1):
            with ScoringClient(socket_path=live) as client:
                client.predict(row)
            write_registry(base, [
                {"index": 0, "path": live, "pid": os.getpid()},
                {"index": 1, "path": dead, "pid": 999999},
            ])
            fleet = collect_metrics(base, timeout=2.0)
        ok_row, err_row = fleet["shards"]
        assert "error" not in ok_row
        assert err_row["shard"] == {"index": 1, "path": dead}
        assert err_row["error"]
        # the live shard still merged
        served = [r for r in fleet["series"]
                  if r["name"] == "repro_request_latency_us"]
        assert sum(r["count"] for r in served) == 1

    def test_prometheus_renders_the_merged_fleet(self, trained,
                                                 tmp_path):
        path = str(tmp_path / "s0.sock")
        base = str(tmp_path / "fleet.sock")
        row = [0.0] * len(trained.feature_names_)
        with ScoringDaemon(trained, socket_path=path, workers=1):
            with ScoringClient(socket_path=path) as client:
                client.predict(row)
            write_registry(base, [
                {"index": 0, "path": path, "pid": os.getpid()},
            ])
            fleet = collect_metrics(base, timeout=5.0)
        text = render_prometheus(fleet["series"])
        assert "# TYPE repro_request_latency_us histogram" in text
        assert 'le="+Inf"' in text
        assert "repro_request_latency_us_count" in text

    def test_payload_round_trips_json(self, trained, tmp_path):
        path = str(tmp_path / "s0.sock")
        base = str(tmp_path / "fleet.sock")
        with ScoringDaemon(trained, socket_path=path, workers=1):
            write_registry(base, [
                {"index": 0, "path": path, "pid": os.getpid()},
            ])
            fleet = collect_metrics(base, timeout=5.0)
        assert list(fleet) == ["series", "shards"]
        assert json.loads(json.dumps(fleet)) == fleet


class TestTraceSpans:
    def test_fleet_daemon_emits_all_five_span_names(
            self, trained, tmp_path, monkeypatch):
        """At sample rate 1 a fleet daemon must produce decode, queue,
        batch, predict and encode spans, flushed on shutdown as one
        Perfetto-loadable Chrome trace document."""
        trace_path = str(tmp_path / "trace.json")
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "1")
        monkeypatch.setenv("REPRO_TRACE_FILE", trace_path)
        path = str(tmp_path / "fleet.sock")
        fleet = ModelFleet(default=trained)
        X = [[0.0] * len(trained.feature_names_)] * 4
        with ScoringDaemon(fleet=fleet, socket_path=path, workers=2):
            with ScoringClient(socket_path=path) as client:
                client.predict(list(X[0]))   # fast path: decode+batch
                client.predict_batch(X)      # slow path: queue+predict
                client.request({"cmd": "stats"})
        with open(trace_path, encoding="utf-8") as handle:
            document = json.load(handle)
        events = document["traceEvents"]
        names = {event["name"] for event in events}
        assert {"decode", "queue", "batch",
                "predict", "encode"} <= names
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0
