"""The scoring workloads: ``serve_stream`` and ``serve_json``.

The daemon under test is its own ``repro serve --model ... --socket ...``
process.  The load generator is this process, with one scoring
connection in a closed loop plus one admin connection that reads the
daemon's ``stats`` and ``metrics`` verbs before and after a phase.

``serve_stream`` speaks ``binary-v2``: it pipelines single rows at the
client's default window, interleaved with bulk ``predict_batch`` calls
sized so that each path takes a comparable share of wall time.  It
stresses stream framing, event-loop coalescing and the compiled trees.
``serve_json`` sends sequential JSON ``predict`` rows and, for 5% of
requests, ``predict_kernel``, which builds the kernel IR and its static
features on the server.  It stresses the per-request protocol
shell and the JSON codec, where coalescing does nothing.
"""

from __future__ import annotations

import itertools
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import time

import numpy as np

from common import GOLDEN_DATASET, Meter, Outcome, percentile
from ledger import Ledger, cpu_seconds, instrument, peak_rss_mb

#: trainings + daemon starts timed for ``setup_s`` (the median is kept).
SETUP_REPEATS = 5
READY_TIMEOUT_S = 60.0

#: serve_stream: per cycle, PIPELINE_CALLS pipelined calls of
#: PIPELINE_ROWS rows, then one predict_batch call of BATCH_ROWS rows.
#: The batch path scores rows about 10x faster, so these sizes give the
#: two paths a comparable share of wall time; the unequal call counts
#: keep the call-latency p50 inside the pipelined calls and the p99
#: inside the batch calls.
PIPELINE_CALLS = 4
PIPELINE_ROWS = 512
BATCH_ROWS = 16384
#: distinct seeded cycles generated up front and replayed in turn.
STREAM_CYCLES = 8

#: serve_json: one round of the schedule asks for every registry kernel
#: (at KERNEL_SIZE bytes) once and for every training row
#: ROW_REPEATS times, in a seeded order, so kernels are 5% of requests
#: and every seed sends the same mix.
KERNEL_SIZE = 2048
ROW_REPEATS = 19

#: the service-latency histograms read per (verb, codec) label.
SERVICE_LABELS = (("score", "coalesced"), ("score", "json"),
                  ("score", "stream"), ("score", "binary-v2"))


class Daemon:
    """One ``repro serve`` process on a Unix socket."""

    def __init__(self, ctx, model_path: str, index: int) -> None:
        # a path relative to the shared working directory keeps the
        # socket name short whatever the checkout's location
        self.socket_path = os.path.relpath(
            os.path.join(ctx.work, f"d{index}.sock"))
        self.log_path = os.path.join(ctx.work, f"daemon{index}.log")
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--model", model_path, "--socket", self.socket_path],
                env=ctx.env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT)
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with code "
                                   f"{self.proc.returncode}; see "
                                   f"{self.log_path}")
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(self.socket_path)
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("daemon did not accept connections "
                                       f"within {READY_TIMEOUT_S} s")
                time.sleep(0.002)
            finally:
                probe.close()

    def stop(self) -> None:
        """SIGINT (the daemon's clean stop), then SIGKILL; always reaps."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


def start_daemon(ctx, meter: Meter) -> tuple:
    """Train the model, save it and start a daemon, SETUP_REPEATS times.

    Returns the median rescaled set-up time, the last daemon (left
    running) and the model artifact path.
    """
    from repro.api import Classifier, ReproConfig
    from repro.dataset.build import Dataset

    dataset = Dataset.load(os.path.join(ctx.root, ".repro_cache",
                                        GOLDEN_DATASET))
    model_path = os.path.join(ctx.work, "model.json")
    def set_up(index: int) -> Daemon:
        Classifier(ReproConfig(profile="unit")).train(dataset).save(
            model_path)
        return Daemon(ctx, model_path, index)

    times = []
    daemon = None
    try:
        for index in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
                daemon = None
            daemon, stamps = meter.timed(set_up, index)
            times.append(meter.scaled(*stamps))
    except BaseException:
        if daemon is not None:
            daemon.stop()
        raise
    return statistics.median(times), daemon, model_path


def reference_model(ctx, model_path: str) -> tuple:
    """The saved model on the local reference backend, and its f32-rounded
    training matrix."""
    from repro.api import Classifier
    from repro.dataset.build import Dataset

    model = Classifier.load(model_path)
    dataset = Dataset.load(os.path.join(ctx.root, ".repro_cache",
                                        GOLDEN_DATASET))
    rows = dataset.matrix(model.feature_names_).astype(np.float32)
    return model, rows


def expected_predictions(model, rows) -> np.ndarray:
    """What every wire prediction must equal: the local model's answer
    on the same f32 rows."""
    return np.asarray(model.predict_batch(rows), dtype=np.int64)


# -- server-side readings ----------------------------------------------------


def _series(snapshot: dict) -> dict:
    return {(row["name"], tuple(sorted(row["labels"].items()))): row
            for row in snapshot.get("series", [])}


def _delta(before: dict, after: dict, name: str, **labels) -> dict:
    """The histogram *name* recorded between two metrics snapshots."""
    key = (name, tuple(sorted(labels.items())))
    new = after.get(key)
    if new is None:
        return {"bounds": [], "counts": [], "count": 0, "sum": 0.0}
    old = before.get(key, {"counts": [0] * len(new["counts"]),
                           "count": 0, "sum": 0.0})
    return {"bounds": new["bounds"],
            "counts": [a - b for a, b in zip(new["counts"], old["counts"])],
            "count": new["count"] - old["count"],
            "sum": new["sum"] - old["sum"]}


def _mean(hist: dict) -> float:
    return hist["sum"] / hist["count"] if hist["count"] else 0.0


class ServerProbe:
    """Daemon-side readings across one phase: metrics, stats, CPU."""

    def __init__(self, daemon) -> None:
        from repro.api.admin import AdminClient

        self.daemon = daemon
        self.admin = AdminClient(socket_path=daemon.socket_path)

    def read(self) -> tuple:
        return (_series(self.admin.metrics()), self.admin.stats(),
                cpu_seconds(self.daemon.pid))

    def layers(self, before: tuple, after: tuple, ops: int,
               factor: float) -> dict:
        """Daemon layers between two readings; times are rescaled by
        the phase's mean meter *factor* (the daemon shares the CPU)."""
        from repro.obs import histogram_quantile

        (m0, s0, cpu0), (m1, s1, cpu1) = before, after
        frames = (s1["server"]["stream_frames"]
                  - s0["server"]["stream_frames"])
        layers = {
            "server.cpu_us_per_op": (cpu1 - cpu0) * factor * 1e6 / ops,
            "wire.rows_per_stream_frame": (
                (s1["server"]["stream_rows"] - s0["server"]["stream_rows"])
                / frames if frames else 0.0),
        }
        for verb, codec in SERVICE_LABELS:
            hist = _delta(m0, m1, "repro_request_latency_us", verb=verb,
                          codec=codec, model="default")
            layers[f"transport.service_us_p50.{verb}.{codec}"] = (
                histogram_quantile(hist, 0.5) * factor)
        layers["transport.queue_wait_us_p50"] = histogram_quantile(
            _delta(m0, m1, "repro_loop_queue_wait_us"), 0.5) * factor
        layers["transport.stream_rows_mean"] = _mean(
            _delta(m0, m1, "repro_loop_stream_rows"))
        layers["transport.fast_batch_rows_mean"] = _mean(
            _delta(m0, m1, "repro_loop_fast_batch_rows"))
        return layers

    def close(self) -> None:
        self.admin.close()


# -- client-side spans -------------------------------------------------------


def _count_sent(ledger, args, result) -> None:
    ledger.add("wire.bytes_in", len(args[1]))


def _count_received(ledger, args, result) -> None:
    # binary frames travel behind a 4-byte length the reader strips
    framing = 0 if args[0].codec == "json" else 4
    ledger.add("wire.bytes_out", len(result) + framing)


def client_patches() -> list:
    from repro.api import wire
    from repro.api.client import ScoringClient

    return [
        (wire.JsonCodec, "encode_request", "wire.encode"),
        (wire.BinaryCodec, "encode_request", "wire.encode"),
        (wire.BinaryV2Codec, "encode_predict_stream", "wire.encode"),
        (wire.JsonCodec, "decode_response", "wire.decode"),
        (wire.BinaryCodec, "decode_response", "wire.decode"),
        (wire.BinaryV2Codec, "decode_response", "wire.decode"),
        (socket.socket, "sendall", "client.send", _count_sent),
        (ScoringClient, "_recv_frame", "client.wait", _count_received),
    ]


def client_layers(ledger: Ledger, ops: int, factor: float) -> dict:
    """Client layers per op from the traced phase; times are rescaled by
    the phase's mean meter *factor*."""
    per = factor * 1e6 / ops
    wall = ledger.totals["client.call"][1] / 1e9
    return {
        "wire.encode_us": ledger.self_s("wire.encode") * per,
        "wire.decode_us": ledger.self_s("wire.decode") * per,
        "client.send_us": ledger.self_s("client.send") * per,
        "client.wait_us": ledger.self_s("client.wait") * per,
        "wire.bytes_in_per_row": ledger.counts.get("wire.bytes_in", 0) / ops,
        "wire.bytes_out_per_row":
            ledger.counts.get("wire.bytes_out", 0) / ops,
        "residual_frac": (wall - ledger.layer_self_s()) / wall,
    }


# -- the measured phases -----------------------------------------------------

#: the client's socket timeout; a failed request is charged this latency.
CLIENT_TIMEOUT_S = 30.0


class Phase:
    """One closed-loop phase: ops, failures and each call's wall stamps
    (``end`` is None for a call that raised)."""

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.calls: list = []

    def done(self):
        return [(begin, end) for begin, end in self.calls
                if end is not None]

    def busy(self, meter: Meter) -> float:
        """Rescaled seconds spent inside the program's calls."""
        return sum(meter.scaled(b, e) for b, e in self.done())

    def latencies(self, meter: Meter) -> list:
        return [CLIENT_TIMEOUT_S if end is None else meter.scaled(begin, end)
                for begin, end in self.calls]


def serve(ctx, codec: str, prepare) -> Outcome:
    """Set up, then drive the daemon in a closed loop.

    ``prepare(model, rows)`` receives the local reference model and its
    f32 training rows, builds the seeded requests with their expected
    predictions, and returns ``one_round(client, phase, call)``.  That
    issues a few client calls as ``call(fn, *args)``, which stamps the
    call and passes on its result or its ``ScoringError``, and counts
    ops and wrong answers on *phase*.  Without tracing the whole budget
    is one untraced phase.  With tracing, half is untraced (daemon
    readings, client CPU) and half traced (client spans).
    """
    from repro.api import ScoringClient

    meter = Meter()
    setup_s, daemon, model_path = start_daemon(ctx, meter)
    probe = client = None
    try:
        one_round = prepare(*reference_model(ctx, model_path))
        probe = ServerProbe(daemon)
        client = ScoringClient(socket_path=daemon.socket_path,
                               codec=codec, timeout=CLIENT_TIMEOUT_S)
        if client.codec != codec:
            raise RuntimeError(f"daemon negotiated {client.codec!r}, "
                               f"not {codec!r}")

        def run_phase(budget_s: float, ledger=None) -> Phase:
            phase = Phase()
            clock = time.perf_counter

            def call(fn, *args):
                meter.boundary()  # between calls, outside every span
                stamp = [clock(), None]
                phase.calls.append(stamp)
                result = (fn(*args) if ledger is None
                          else ledger.call("client.call", fn, *args))
                stamp[1] = clock()
                return result

            meter.boundary(force=True)
            end = clock() + budget_s
            while clock() < end:
                one_round(client, phase, call)
            meter.boundary(force=True)
            return phase

        budget = ctx.seconds / 2 if ctx.trace else ctx.seconds
        before = probe.read()
        cpu0 = time.process_time() - meter.reference_s
        plain = run_phase(budget)
        cpu1 = time.process_time() - meter.reference_s
        after = probe.read()
        traced = None
        layers: dict = {}
        if ctx.trace:
            ledger = Ledger()
            with instrument(ledger, client_patches()):
                traced = run_phase(budget, ledger)
            ctx.save_ledger(ledger)
            plain_factor = meter.factor(plain.done())
            layers = probe.layers(before, after, plain.ops, plain_factor)
            layers["client.cpu_us_per_op"] = (
                (cpu1 - cpu0) * plain_factor * 1e6 / plain.ops)
            layers.update(client_layers(ledger, traced.ops,
                                        meter.factor(traced.done())))
            layers["trace.overhead_frac"] = (
                (traced.busy(meter) / traced.ops)
                / (plain.busy(meter) / plain.ops) - 1)
        rss = peak_rss_mb(daemon.pid)
    finally:
        for closer in (client, probe):
            if closer is not None:
                closer.close()
        daemon.stop()
    latencies = plain.latencies(meter)
    phases = [plain] + ([traced] if traced else [])
    return Outcome(
        attempted=sum(phase.ops for phase in phases),
        failed=sum(phase.failed for phase in phases),
        e2e={"setup_s": setup_s,
             "throughput": plain.ops / plain.busy(meter),
             "latency_p50_us": percentile(latencies, 50) * 1e6,
             "latency_p99_us": percentile(latencies, 99) * 1e6,
             "rss_peak_mb": rss},
        layers=layers,
    )


def serve_stream(ctx) -> Outcome:
    """Pipelined binary-v2 rows interleaved with bulk batches; an op is
    one row and a latency is one client call."""

    def prepare(model, rows):
        from repro.errors import ScoringError

        rng = np.random.default_rng(ctx.seed)
        cycles = []
        for _ in range(STREAM_CYCLES):
            sizes = [PIPELINE_ROWS] * PIPELINE_CALLS + [BATCH_ROWS]
            chunks = [rows[rng.integers(0, len(rows), n)] for n in sizes]
            cycles.append([(chunk, expected_predictions(model, chunk))
                           for chunk in chunks])
        turn = itertools.count()

        def one_round(client, phase, call) -> None:
            cycle = cycles[next(turn) % STREAM_CYCLES]
            for index, (chunk, expected) in enumerate(cycle):
                fn = (client.predict_pipelined if index < PIPELINE_CALLS
                      else client.predict_batch)
                phase.ops += len(chunk)
                try:
                    got = call(fn, chunk)
                except ScoringError:
                    phase.failed += len(chunk)
                    continue
                phase.failed += int(np.count_nonzero(
                    np.asarray(got, dtype=np.int64) != expected))

        return one_round

    return serve(ctx, "binary-v2", prepare)


def serve_json(ctx) -> Outcome:
    """Sequential JSON rows with a seeded share of kernel requests; an op
    and a latency are one request."""

    def prepare(model, rows):
        from repro.dataset.registry import all_kernel_specs
        from repro.errors import ScoringError

        expected_rows = expected_predictions(model, rows)
        json_rows = rows.astype(np.float64).tolist()
        kernels = [((spec.name, dtype.value, KERNEL_SIZE),
                    model.predict(spec.build(dtype, KERNEL_SIZE)))
                   for spec in all_kernel_specs() for dtype in spec.dtypes]
        schedule = kernels + [
            ((json_rows[index],), int(expected_rows[index]))
            for index in range(len(rows))] * ROW_REPEATS
        random.Random(ctx.seed).shuffle(schedule)
        turn = itertools.count()

        def one_round(client, phase, call) -> None:
            args, want = schedule[next(turn) % len(schedule)]
            fn = client.predict_kernel if len(args) == 3 else client.predict
            phase.ops += 1
            try:
                got = call(fn, *args)
            except ScoringError:
                phase.failed += 1
                return
            phase.failed += got != want

        return one_round

    return serve(ctx, "json", prepare)
