"""CI smoke test for the persistent scoring daemon — sharded edition.

Trains **two** distinct model/feature-set variants (a ``tree`` on
``static-all`` and a ``tree`` on ``static-agg``; four kernels, unit
profile, throwaway caches), serves both from one
:class:`repro.api.ScoringDaemon` fleet (event-loop micro-batching),
pushes ``--rows`` feature rows through ``--clients`` concurrent
:class:`repro.api.ScoringClient` connections — odd clients routing to
the ``static-agg`` tree via the ``model`` request field, even clients hitting the
pinned default, and half of each negotiating the ``binary-v2`` wire
codec while the rest stay on JSON lines — and asserts every wire
prediction is byte-identical to the matching local ``predict_batch``
(rows are pre-rounded to the f32 grid the binary codec transports, so
both codecs score bit-identical inputs).  Also exercises the admin
verbs (``list_models`` / ``load_model`` / ``evict_model``), the
``stats`` verb including its per-codec traffic section, and clean
shutdown (socket unlinked, counters consistent).  Each model also
scores every smoke kernel twice over one JSON connection: the first
request misses the fleet's kernel memo (worker path), the second hits
it (coalesced step), and both answers must be the same bytes, equal
to the local model's ``predict(kernel)``.

Then the **mixed-codec pipelined** leg: json and ``binary-v2``
clients pipeline the same default-model rows through one fleet daemon
concurrently — the v2 window travels as packed multi-row stream frames
(asserted via the server's ``stream_rows`` counter) and both result
lists must be byte-identical.

Then the **sharded** leg: a ``--shards``-process
:class:`repro.api.ShardSupervisor` deployment behind one unix shard
registry, pipelined JSON *and* binary client round trips through it
(``predict_pipelined``, byte-identical again), per-shard stats via the
registry plus the :func:`repro.api.admin.collect_stats` aggregation,
checked at one quiet point against the merged counters of
:func:`repro.api.admin.collect_metrics`, and clean fan-out shutdown
(registry and shard sockets gone).

Then the **allocation-stability** leg: a fresh ``repro serve`` process
and a fresh ``binary-v2`` client make warm-up calls, then 50 BATCH
calls of 16,384 rows, each after four pipelined 512-row calls as in
perfbench's ``serve_stream``; neither side may take more than 64 minor
page faults per BATCH call (the daemon's ``minflt`` from
``/proc/<pid>/stat``, the client's ``ru_minflt``).  A client that
copies the rows into a frame faults hundreds of times per call in this
mix.  The leg is skipped where ``/proc`` is absent.  Exit code 0 means
both deployment paths work end to end.

``--kill-storm`` runs the self-healing leg instead: the same
supervised fleet under sustained pipelined load while shards are
repeatedly SIGKILLed, then a rolling restart under the same load, then
a zero-downtime hot swap — and not one request may fail (client
retries re-resolve the refreshed registry).

Run from the repo root::

    PYTHONPATH=src python scripts/daemon_smoke.py [--rows 100]
    PYTHONPATH=src python scripts/daemon_smoke.py --kill-storm
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import traceback

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"),
)

import numpy as np  # noqa: E402

from repro.api import (  # noqa: E402
    AdminClient,
    CODEC_BINARY_V2,
    CODEC_JSON,
    ModelFleet,
    ModelPool,
    ReproConfig,
    ScoringClient,
    ScoringDaemon,
    ShardSupervisor,
    classifier_factory,
    load_or_train,
    registry_epoch,
)
from repro.api.admin import collect_metrics, collect_stats  # noqa: E402
from repro.api.shard import read_registry  # noqa: E402
from repro.dataset.build import build_dataset  # noqa: E402
from repro.dataset.registry import get_kernel_spec  # noqa: E402
from repro.errors import FleetError  # noqa: E402
from repro.ir.types import DType  # noqa: E402

SMOKE_KERNELS = ("gemm", "atax", "fir", "stream_triad")
AGG_SPEC = "tree:static-agg:unit"
TREE_SPEC = "tree:static-all:unit"
#: the kill-storm hot-swap target: a shallower tree on the tree's
#: feature set, served under its own dataset tag, so one probe row
#: matrix scores against both models
STORM_SWAP_SPEC = "tree:static-all:shallow"
STORM_SWAP_DEPTH = 2
#: leg 1's kernel requests: each model asks for every smoke kernel at
#: its own size, so its first request misses the fleet's kernel memo
KERNEL_SIZES = {None: 2048, AGG_SPEC: 1024}


#: the allocation-stability leg: BATCH calls before and during the
#: measurement, rows per BATCH call, the pipelined calls (and their rows)
#: before each, and the most minor page faults a BATCH call may cost
#: either side
ALLOC_WARMUP_CALLS = 10
ALLOC_CALLS = 50
ALLOC_ROWS = 16384
ALLOC_PIPELINED = (4, 512)
ALLOC_MAX_FAULTS_PER_CALL = 64


class SmokeFailure(AssertionError):
    """A smoke check failed; the message carries the full diagnosis."""


def score_request_count(series) -> int:
    """Total scored requests across every ``verb="score"`` latency row.

    Sums the merged ``repro_request_latency_us`` histogram counts over
    all codec/model label combinations, so the caller can assert on an
    exact fleet-wide request count regardless of which path (coalesced
    fast path, slow path, either codec) served each request.
    """
    total = 0
    for row in series:
        if (
            row.get("name") == "repro_request_latency_us"
            and row.get("labels", {}).get("verb") == "score"
        ):
            total += int(row.get("count", 0))
    return total


def check_identical(label: str, got: list, want: list) -> None:
    """Byte-identity check with an actionable diff on failure.

    A bare ``assert got == want`` exits non-zero but tells CI nothing;
    this names the leg that diverged and prints the first mismatching
    indices with both values, so a codec or batching regression is
    diagnosable from the log alone.
    """
    if got == want:
        return
    lines = [f"{label}: predictions diverged"]
    if len(got) != len(want):
        lines.append(
            f"  length mismatch: got {len(got)} rows, want {len(want)}"
        )
    mismatches = [
        i for i, (g, w) in enumerate(zip(got, want)) if g != w
    ]
    shown = mismatches[:10]
    for index in shown:
        lines.append(
            f"  row {index}: got {got[index]!r}, want {want[index]!r}"
        )
    hidden = len(mismatches) - len(shown)
    if hidden > 0:
        lines.append(f"  ... and {hidden} more mismatching row(s)")
    raise SmokeFailure("\n".join(lines))


def check_kernel_memo(socket_path: str, daemon, variants: dict) -> int:
    """Each smoke kernel twice per model over one JSON connection.

    The first request takes the worker path and fills the fleet's
    kernel memo; the second is scored on the coalesced step.  Both
    answers must be the same bytes, carrying the local model's
    ``predict(kernel)``, and only the first may reach the worker pool.
    Returns the number of kernel requests sent.
    """
    sent = 0
    slow_before = daemon.stats()["slow_requests"]
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30.0)
    sock.connect(socket_path)
    with sock, sock.makefile("rb") as reader:
        for spec, clf in variants.items():
            size = KERNEL_SIZES[spec]
            for name in SMOKE_KERNELS:
                request = {"kernel": name, "size": size, "id": sent}
                if spec is not None:
                    request["model"] = spec
                line = (json.dumps(request) + "\n").encode("utf-8")
                answers = []
                for _ in range(2):
                    sock.sendall(line)
                    answers.append(reader.readline())
                sent += 2
                kernel = get_kernel_spec(name).build(DType.INT32, size)
                want = {"ok": True, "prediction": clf.predict(kernel), "id": sent - 2}
                if answers[0] != answers[1] or json.loads(answers[0]) != want:
                    raise SmokeFailure(
                        f"kernel {name} at {size} B ({spec or 'default'}): "
                        f"miss {answers[0]!r}, hit {answers[1]!r}, want {want}"
                    )
    slow = daemon.stats()["slow_requests"] - slow_before
    if slow != sent // 2:
        raise SmokeFailure(
            f"{sent} kernel requests took the worker path {slow} times; "
            f"only the {sent // 2} first sightings may"
        )
    return sent


def _storm_fleet_factory(paths: dict):
    """Shard factory for the kill-storm leg: prebuilt artifacts only.

    Module-level (and built from plain strings) so respawned shard
    processes can rebuild the exact same fleet regardless of the
    multiprocessing start method.
    """
    from repro.api import Classifier

    variants = {spec: Classifier.load(path)
                for spec, path in paths.items()}

    def loader(key):
        try:
            return variants[key.spec]
        except KeyError:
            raise FleetError(f"unexpected lazy load of {key.spec!r}")

    pool = ModelPool(loader=loader, default_tag="unit")
    return ModelFleet(pool, default=variants[TREE_SPEC])


def kill_storm(args, workdir: str) -> int:
    """The self-healing leg: SIGKILL storm, rolling restart, hot swap.

    A supervised ``--shards``-process fleet serves sustained pipelined
    load from ``--clients`` threads (each pinning the tree explicitly,
    so the later promotion cannot change what they assert against)
    while shards are SIGKILLed ``--storm-kills`` times and then the
    whole fleet is cycled through a rolling restart.  Zero failed
    requests are tolerated: a retried request must re-resolve the
    refreshed registry and land on a live shard.  With the load
    quiesced, a hot swap canary-scores and promotes the shallow tree,
    and the default route must answer byte-identically to the local
    model on every shard.
    """
    specs = [get_kernel_spec(name) for name in SMOKE_KERNELS]
    dataset = build_dataset(
        "unit", specs=specs, cache_dir=os.path.join(workdir, "sim_cache"))
    model_dir = os.path.join(workdir, "models")
    tree, _ = load_or_train(
        ReproConfig(profile="unit"), dataset=dataset, cache_dir=model_dir)
    shallow, _ = load_or_train(
        ReproConfig(profile="unit", model_params={"max_depth": STORM_SWAP_DEPTH}),
        dataset=dataset,
        cache_dir=model_dir,
    )

    base_rows = dataset.matrix(tree.feature_names_)
    reps = -(-args.rows // len(base_rows))
    tiled = np.tile(base_rows, (reps, 1))[: args.rows]
    rows = tiled.astype(np.float32).astype(np.float64).tolist()
    want_tree = [int(p) for p in tree.predict_batch(rows)]
    want_shallow = [int(p) for p in shallow.predict_batch(rows)]

    paths = {TREE_SPEC: os.path.join(workdir, "tree.json"),
             STORM_SWAP_SPEC: os.path.join(workdir, "shallow.json")}
    tree.save(paths[TREE_SPEC])
    shallow.save(paths[STORM_SWAP_SPEC])

    base = os.path.join(workdir, "storm.sock")
    supervisor = ShardSupervisor(
        functools.partial(_storm_fleet_factory, paths),
        shards=args.shards,
        socket_path=base,
        workers=4,
        interval=0.2,
    )
    failures: list = []
    batches = [0] * args.clients
    stop = threading.Event()

    def hammer(slot: int) -> None:
        try:
            with ScoringClient(socket_path=base,
                               reconnect_retries=16) as client:
                while not stop.is_set():
                    got = client.predict_pipelined(
                        rows, model="tree:static-all", window=16)
                    check_identical(f"storm client {slot}", got, want_tree)
                    batches[slot] += 1
        except Exception as exc:  # surfaced below as a failure
            failures.append(
                f"storm client {slot}: {type(exc).__name__} "
                f"(code {getattr(exc, 'code', None)!r}): {exc}\n"
                + "".join(traceback.format_exception(exc))
            )

    with supervisor:
        threads = [threading.Thread(target=hammer, args=(slot,))
                   for slot in range(args.clients)]
        for thread in threads:
            thread.start()
        try:
            # -- the storm: SIGKILL shards under load, healing must
            # keep the registry full and the traffic flowing
            killed: list = []
            for round_no in range(args.storm_kills):
                victim = round_no % args.shards
                pid = supervisor.pids[victim]
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if supervisor.alive()[victim] and supervisor.pids[victim] != pid:
                        break
                    time.sleep(0.05)
                else:
                    raise SmokeFailure(
                        f"shard {victim} (pid {pid}) was not respawned "
                        f"within 30s of its SIGKILL")
                time.sleep(0.3)  # let traffic flow between kills

            # -- rolling restart under the same load
            restarted = supervisor.rolling_restart()
            if len(restarted) != args.shards:
                raise SmokeFailure(
                    f"rolling restart returned {restarted}, expected "
                    f"{args.shards} replacement pids")
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=120)
        if any(t.is_alive() for t in threads):
            raise SmokeFailure("storm client thread(s) hung")
        if failures:
            raise SmokeFailure(
                f"{len(failures)} storm client(s) failed:\n" + "\n".join(failures)
            )
        if not all(batches):
            raise SmokeFailure(
                f"every storm client must complete at least one "
                f"batch, got {batches}")

        # -- zero-downtime hot swap, gated on the local predictions
        report = supervisor.hot_swap(STORM_SWAP_SPEC, rows,
                                     expected=want_shallow)
        if not report.identical:
            raise SmokeFailure(
                f"hot swap promoted {report.model} but shard default "
                f"routes diverged from the canary")
        with ScoringClient(socket_path=base) as client:
            check_identical("post-swap default route",
                            client.predict_batch(rows), want_shallow)
        # the coalesced single-row and stream paths must follow the
        # promotion too, not only the worker path predict_batch takes.
        # both models agree on the training rows, so halved rows (still
        # f32-exact) are added to tell which model actually answered
        probe = rows + [[v * 0.5 for v in row] for row in rows]
        want_probe = [int(p) for p in shallow.predict_batch(probe)]
        if want_probe == [int(p) for p in tree.predict_batch(probe)]:
            raise SmokeFailure("no probe row tells the two trees apart")
        for codec in ("json", "binary-v2"):
            with ScoringClient(socket_path=base, codec=codec) as client:
                check_identical(
                    f"post-swap pipelined {codec} rows",
                    client.predict_pipelined(probe),
                    want_probe,
                )

        # -- the registry survived the churn: N live rows, every
        # killed pid replaced, epoch strictly grew with each refresh
        registry = read_registry(base)
        if len(registry) != args.shards:
            raise SmokeFailure(f"registry holds {registry}, expected "
                               f"{args.shards} live rows")
        final_pids = {row["pid"] for row in registry}
        if final_pids != set(supervisor.pids) or final_pids & set(killed):
            raise SmokeFailure(
                f"registry pids {final_pids} do not match the live "
                f"fleet {supervisor.pids} (killed: {killed})")
        epoch = registry_epoch(base)
        # one refresh per respawn plus one per drain/deregister
        if epoch < args.storm_kills + 2 * args.shards:
            raise SmokeFailure(
                f"registry epoch {epoch} too low for "
                f"{args.storm_kills} heals + a rolling restart")

        # -- merged fleet telemetry survived the churn.  SIGKILLed
        # shards took their counters with them, so absolute totals are
        # not assertable — but a *delta* around a known quiesced
        # request count is exact: the merged score-latency histogram
        # must grow by exactly the requests we now inject
        before = collect_metrics(base)
        if before.live_shards != args.shards:
            raise SmokeFailure(
                f"metrics collection saw {before.live_shards} live "
                f"shards, expected {args.shards}: {before.shards}")
        probe_requests = 7
        with ScoringClient(socket_path=base) as client:
            for row_no in range(probe_requests):
                row = rows[row_no % len(rows)]
                got = client.predict(list(row))
                if got != want_shallow[row_no % len(rows)]:
                    raise SmokeFailure(
                        f"metrics probe request {row_no} scored {got}, "
                        f"want {want_shallow[row_no % len(rows)]}")
        after = collect_metrics(base)
        delta = (score_request_count(after.series)
                 - score_request_count(before.series))
        if delta != probe_requests:
            raise SmokeFailure(
                f"merged score-latency histograms grew by {delta} "
                f"requests, expected exactly {probe_requests}; "
                f"per-shard counts are drifting from requests served")

        # the supervisor's own registry counts every heal it performed,
        # one series per reason (exit / probe)
        respawn_counter = 0
        for series_row in supervisor.metrics.snapshot()["series"]:
            if (series_row["name"] == "repro_supervisor_events_total"
                    and series_row["labels"].get("event") == "respawn"):
                respawn_counter += int(series_row["value"])
        if respawn_counter != args.storm_kills:
            raise SmokeFailure(
                f"repro_supervisor_events_total{{event='respawn'}} is "
                f"{respawn_counter}, expected {args.storm_kills} "
                f"(one per injected SIGKILL)")
    if os.path.exists(base):
        raise SmokeFailure("registry not removed after stop")

    print(
        f"kill-storm smoke OK: {sum(batches)} pipelined batches x "
        f"{len(rows)} rows across {args.clients} clients with zero "
        f"failures, {args.storm_kills} SIGKILLs healed, rolling "
        f"restart {restarted}, hot swap to {report.model} "
        f"byte-identical on {len(report.promoted)} shards, "
        f"registry epoch {epoch}, merged metrics delta "
        f"{delta}/{probe_requests} requests, respawn counter "
        f"{respawn_counter}, clean fan-out shutdown"
    )
    return 0


def series_total(series, name: str, field: str = "value", **labels) -> int:
    """*field* summed over the merged rows of *name* carrying *labels*."""
    return int(
        sum(
            row[field]
            for row in series
            if row["name"] == name and labels.items() <= row["labels"].items()
        )
    )


def minor_faults(pid) -> int:
    """The minor page faults of process *pid* so far (``/proc`` stat)."""
    with open(f"/proc/{pid}/stat") as handle:
        return int(handle.read().rsplit(")", 1)[1].split()[7])


def _listening(path: str) -> bool:
    """Whether the unix socket at *path* accepts connections: its path
    appears at bind, before the daemon listens."""
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.connect(path)
        return True
    except OSError:
        return False
    finally:
        probe.close()


def allocation_stability(workdir: str, model, rows) -> None:
    """BATCH calls in a steady state cost neither side page faults.

    Serves *model* from a fresh ``repro serve`` process and scores
    :data:`ALLOC_ROWS` f32 rows (tiled from *rows*) per BATCH call from a
    fresh ``binary-v2`` client, each call after :data:`ALLOC_PIPELINED`
    pipelined calls; after :data:`ALLOC_WARMUP_CALLS` BATCH calls, the
    next :data:`ALLOC_CALLS` must average at most
    :data:`ALLOC_MAX_FAULTS_PER_CALL` minor faults per call on each side.
    """
    if not os.path.exists("/proc/self/stat"):
        print("allocation-stability smoke skipped: no /proc here")
        return
    import resource

    model_path = os.path.join(workdir, "alloc_model.json")
    model.save(model_path)
    socket_path = os.path.join(workdir, "alloc.sock")
    log_path = os.path.join(workdir, "alloc_daemon.log")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    # the local answers come from the base rows: scoring the whole
    # matrix here would free a batch-sized buffer in this process, and
    # glibc would then keep every later one off mmap (no faults to see)
    matrix = np.resize(rows.astype(np.float32), (ALLOC_ROWS, rows.shape[1]))
    base = [int(p) for p in model.predict_batch(rows.astype(np.float32))]
    want = (base * -(-ALLOC_ROWS // len(base)))[:ALLOC_ROWS]
    calls, pipelined_rows = ALLOC_PIPELINED
    pipelined = matrix[:pipelined_rows]

    def batch_call(client) -> list:
        for _ in range(calls):
            client.predict_pipelined(pipelined)
        return client.predict_batch(matrix)

    command = [sys.executable, "-m", "repro", "serve", "--model", model_path]
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            command + ["--socket", socket_path],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
    try:
        deadline = time.monotonic() + 60.0
        while not _listening(socket_path):
            if proc.poll() is not None or time.monotonic() > deadline:
                with open(log_path, errors="replace") as log:
                    raise SmokeFailure(
                        f"the allocation-leg daemon did not start:\n{log.read()}"
                    )
            time.sleep(0.02)
        with ScoringClient(socket_path=socket_path, codec=CODEC_BINARY_V2) as client:
            assert client.codec == CODEC_BINARY_V2
            for _ in range(ALLOC_WARMUP_CALLS):
                got = batch_call(client)
            check_identical("allocation leg batch", got, want)
            daemon0 = minor_faults(proc.pid)
            client0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(ALLOC_CALLS):
                got = batch_call(client)
            daemon1 = minor_faults(proc.pid)
            client1 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        check_identical("allocation leg batch", got, want)
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    per_call = {
        "daemon": (daemon1 - daemon0) / ALLOC_CALLS,
        "client": (client1 - client0) / ALLOC_CALLS,
    }
    over = {side: n for side, n in per_call.items() if n > ALLOC_MAX_FAULTS_PER_CALL}
    if over:
        raise SmokeFailure(
            f"{ALLOC_ROWS}-row BATCH calls are not allocation-stable: minor "
            f"page faults per call {over}, allowed {ALLOC_MAX_FAULTS_PER_CALL}"
        )
    print(
        f"allocation-stability smoke OK: {ALLOC_CALLS} BATCH calls of "
        f"{ALLOC_ROWS} rows, minor faults per BATCH call daemon "
        f"{per_call['daemon']:.1f} client {per_call['client']:.1f}"
    )


def check_stats_view(aggregated, metrics) -> None:
    """At one quiet point, the fleet ``stats`` equal the merged metrics.

    No scoring traffic is in flight, so only JSON admin connections
    (the collections themselves and the supervisor's health checks)
    can still move a counter.  Every counter they cannot move must
    match exactly: the ``binary-v2`` codec section of *aggregated*
    against the merged ``repro_codec_*`` series, and the coalescing
    counters summed over the per-shard stats rows against the merged
    ``repro_loop_*`` series.  The totals JSON traffic moves can only
    have grown between the two collections.
    """
    series = list(metrics.series)
    v2 = CODEC_BINARY_V2
    stream_rows = series_total(series, "repro_loop_stream_rows", "sum")
    fast_rows = stream_rows + series_total(series, "repro_loop_fast_batch_rows", "sum")
    codec_want = {
        "connections": series_total(series, "repro_codec_connections_total", codec=v2),
        "requests": series_total(series, "repro_codec_requests_total", codec=v2),
        "bytes_in": series_total(
            series, "repro_codec_bytes_total", codec=v2, direction="in"
        ),
        "bytes_out": series_total(
            series, "repro_codec_bytes_total", codec=v2, direction="out"
        ),
    }
    loop_want = {
        "fast_rows": fast_rows,
        "fast_batches": series_total(series, "repro_loop_fast_batches_total"),
        "stream_frames": series_total(series, "repro_loop_stream_frames_total"),
        "stream_rows": stream_rows,
    }
    mismatches = []
    for field, want in codec_want.items():
        got = aggregated.codec[field].get(v2, 0)
        if got != want:
            mismatches.append(f"codec.{field}[{v2}] {got} != {want}")
    for field, want in loop_want.items():
        got = sum(row["server"][field] for row in aggregated.shards)
        if got != want:
            mismatches.append(f"{field} {got} != {want}")
    for field, name in (
        ("requests_served", "repro_loop_requests_total"),
        ("connections_served", "repro_loop_connections_total"),
    ):
        if getattr(aggregated, field) > series_total(series, name):
            mismatches.append(f"{field} {getattr(aggregated, field)} > {name}")
    if mismatches:
        raise SmokeFailure(
            "collect_stats disagrees with the merged collect_metrics "
            "counters:\n  " + "\n  ".join(mismatches)
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=100)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--kill-storm", action="store_true",
                        help="run the supervised self-healing leg "
                             "instead of the serving legs")
    parser.add_argument("--storm-kills", type=int, default=6,
                        help="SIGKILLs delivered during --kill-storm")
    args = parser.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="daemon_smoke_")
    try:
        if args.kill_storm:
            return kill_storm(args, workdir)
        specs = [get_kernel_spec(name) for name in SMOKE_KERNELS]
        dataset = build_dataset(
            "unit",
            specs=specs,
            cache_dir=os.path.join(workdir, "sim_cache"),
        )
        model_dir = os.path.join(workdir, "models")
        tree, cache_hit = load_or_train(
            ReproConfig(profile="unit"),
            dataset=dataset,
            cache_dir=model_dir,
        )
        assert not cache_hit, "fresh cache dir cannot hit"
        agg, _ = load_or_train(
            ReproConfig(profile="unit", feature_set="static-agg"),
            dataset=dataset,
            cache_dir=model_dir,
        )

        variants = {None: tree, AGG_SPEC: agg}
        rows_of: dict = {}
        expected: dict = {}
        for spec, clf in variants.items():
            base = dataset.matrix(clf.feature_names_)
            reps = -(-args.rows // len(base))  # ceil division
            tiled = np.tile(base, (reps, 1))[: args.rows]
            # round to the f32 grid the binary codec transports, so
            # JSON and binary clients score bit-identical inputs
            rows_of[spec] = tiled.astype(np.float32).astype(np.float64)
            expected[spec] = [int(p) for p in clf.predict_batch(rows_of[spec])]

        def loader(key):
            # the static-agg tree stays servable after an evict
            # (transparent reload); anything else is a smoke-test bug
            if key.spec == AGG_SPEC:
                return agg
            raise FleetError(f"unexpected lazy load of {key.spec!r}")

        pool = ModelPool(loader=loader, default_tag="unit")
        pool.add(agg, key=AGG_SPEC)
        fleet = ModelFleet(pool, default=tree)

        socket_path = os.path.join(workdir, "repro.sock")
        results: list = [None] * args.clients
        errors: list = []

        def worker(slot: int) -> None:
            # 4-way coverage: (static-all, static-agg) x (json, binary-v2)
            spec = None if slot % 2 == 0 else AGG_SPEC
            codec = CODEC_JSON if (slot // 2) % 2 == 0 else CODEC_BINARY_V2
            shard = rows_of[spec][slot :: args.clients]
            try:
                with ScoringClient(socket_path=socket_path,
                                   codec=codec) as client:
                    assert client.codec == codec, (client.codec, codec)
                    batch = client.predict_batch(shard, model=spec)
                    singles = [
                        client.predict(list(row), model=spec) for row in shard
                    ]
                    results[slot] = (spec, batch, singles)
            except Exception as exc:  # surfaced below as a failure
                errors.append(exc)

        daemon = ScoringDaemon(
            fleet=fleet,
            socket_path=socket_path,
            workers=args.workers,
            max_batch=args.max_batch,
        )
        with daemon:
            with AdminClient(socket_path=socket_path) as admin:
                listing = admin.list_models()
                assert len(listing) == 2, listing
                assert listing.default.model == TREE_SPEC, listing
                # evict + warm reload round trip over the wire
                assert admin.evict_model(AGG_SPEC) is True
                assert admin.load_model(AGG_SPEC) == AGG_SPEC
                assert len(admin.list_models()) == 2
                assert admin.health().serving
                telemetry = admin.metrics()
                assert telemetry["enabled"] is True, telemetry
                assert isinstance(telemetry["series"], list), telemetry

            threads = [
                threading.Thread(target=worker, args=(slot,))
                for slot in range(args.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            hung = [i for i, t in enumerate(threads) if t.is_alive()]
            if hung:
                raise SmokeFailure(
                    f"client thread(s) {hung} still running after the "
                    f"120s join timeout; the daemon has stalled"
                )
            kernel_requests = check_kernel_memo(socket_path, daemon, variants)
            # the traffic just served must be visible in the latency
            # histograms: every predict/predict_batch call above is one
            # verb="score" request
            with AdminClient(socket_path=socket_path) as admin:
                telemetry = admin.metrics()
            scored_requests = score_request_count(telemetry["series"])
            if not scored_requests:
                raise SmokeFailure(
                    "metrics verb reports zero score requests after "
                    "the client storm; instrumentation is dead")
        # post-stop read: stop() drains the pool, so every connection
        # handler has finished its bookkeeping by now
        stats = daemon.stats()

        if errors:
            raise errors[0]
        scored = 0
        for slot in range(args.clients):
            if results[slot] is None:
                raise SmokeFailure(
                    f"client {slot} produced no result (worker died "
                    f"without raising?)"
                )
            spec, batch, singles = results[slot]
            want = [int(p) for p in expected[spec][slot :: args.clients]]
            check_identical(f"client {slot} batch ({spec})", batch, want)
            check_identical(
                f"client {slot} singles ({spec})", singles, want
            )
            scored += len(batch) + len(singles)
        # clients + the pre-storm admin client + the kernel connection +
        # the post-storm metrics read
        assert stats["connections_served"] == args.clients + 3
        assert not os.path.exists(socket_path), "socket not unlinked"

        # per-codec traffic accounting: every connection is attributed
        # to the codec it ended on, byte counters split the same way
        n_binary = sum(1 for slot in range(args.clients)
                       if (slot // 2) % 2 == 1)
        # + the two admin clients and the kernel connection
        n_json = args.clients - n_binary + 3
        codec_stats = stats["codec"]
        assert codec_stats["connections"].get(CODEC_BINARY_V2, 0) == n_binary, (
            codec_stats
        )
        assert codec_stats["connections"].get(CODEC_JSON, 0) == n_json, (
            codec_stats
        )
        assert codec_stats["requests"].get(CODEC_JSON, 0) > 0
        if n_binary:
            assert codec_stats["requests"].get(CODEC_BINARY_V2, 0) > 0
            assert codec_stats["bytes_in"].get(CODEC_BINARY_V2, 0) > 0
            assert codec_stats["bytes_out"].get(CODEC_BINARY_V2, 0) > 0

        print(
            f"daemon smoke OK: {scored} predictions across "
            f"{args.clients} clients ({n_binary} binary-v2) and "
            f"2 models, {kernel_requests} kernel requests (half of "
            f"them memo hits), {stats['requests_served']} requests, "
            f"mean coalesced batch {stats['mean_fast_batch']}, "
            f"clean shutdown"
        )

        # -- mixed-codec pipelined leg: json + v2 concurrently ---------
        # two clients pipeline the same default-model rows through one
        # fleet daemon at once; the v2 client must travel as multi-row
        # stream frames (asserted via the server counters) and both
        # must come back byte-identical
        pipe_fleet = ModelFleet(ModelPool(), default=tree)
        pipe_path = os.path.join(workdir, "pipelined.sock")
        pipe_codecs = (CODEC_JSON, CODEC_BINARY_V2)
        pipe_rows = rows_of[None]
        pipe_results: list = [None] * len(pipe_codecs)
        pipe_errors: list = []

        def pipe_worker(slot: int) -> None:
            codec = pipe_codecs[slot]
            try:
                with ScoringClient(socket_path=pipe_path,
                                   codec=codec) as client:
                    assert client.codec == codec, (client.codec, codec)
                    pipe_results[slot] = client.predict_pipelined(
                        pipe_rows, window=16)
            except Exception as exc:  # surfaced below as a failure
                pipe_errors.append(exc)

        pipe_daemon = ScoringDaemon(
            fleet=pipe_fleet,
            socket_path=pipe_path,
            workers=args.workers,
            max_batch=args.max_batch,
        )
        with pipe_daemon:
            threads = [
                threading.Thread(target=pipe_worker, args=(slot,))
                for slot in range(len(pipe_codecs))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            hung = [i for i, t in enumerate(threads) if t.is_alive()]
            if hung:
                raise SmokeFailure(
                    f"pipelined client thread(s) {hung} still running "
                    f"after the 120s join timeout; the daemon has "
                    f"stalled"
                )
            with AdminClient(socket_path=pipe_path) as admin:
                pipe_server = admin.stats()["server"]
        if pipe_errors:
            raise pipe_errors[0]
        for slot, codec in enumerate(pipe_codecs):
            check_identical(f"mixed pipelined ({codec})",
                            pipe_results[slot], expected[None])
        if pipe_server.get("stream_rows", 0) < len(pipe_rows):
            raise SmokeFailure(
                f"binary-v2 rows did not travel as stream frames: "
                f"{pipe_server.get('stream_rows', 0)} stream rows for "
                f"{len(pipe_rows)} pipelined rows"
            )
        print(
            f"mixed-codec pipelined smoke OK: {len(pipe_codecs)} "
            f"codecs x {len(pipe_rows)} rows byte-identical, "
            f"{pipe_server['stream_rows']} rows in "
            f"{pipe_server['stream_frames']} stream frames"
        )

        # -- sharded leg: N processes, one registry, pipelined client --
        artifact = os.path.join(workdir, "tree.json")
        tree.save(artifact)
        base = os.path.join(workdir, "shards.sock")
        rows = rows_of[None]
        want = expected[None]
        sharded = ShardSupervisor(
            functools.partial(classifier_factory, artifact),
            shards=args.shards,
            socket_path=base,
            workers=4,
        )
        with sharded:
            registry = read_registry(base)
            assert len(registry) == args.shards, registry
            with ScoringClient(socket_path=base) as client:
                got = client.predict_pipelined(
                    [list(map(float, row)) for row in rows], window=16
                )
                check_identical("sharded pipelined (json)", got, want)
            # same rows again as binary-v2 stream frames and one packed
            # batch — the forked shard daemons speak both codecs
            with ScoringClient(socket_path=base,
                               codec=CODEC_BINARY_V2) as client:
                assert client.codec == CODEC_BINARY_V2
                got = client.predict_pipelined(
                    [list(map(float, row)) for row in rows], window=16
                )
                check_identical("sharded pipelined (binary-v2)", got, want)
                # a 2-D f32 ndarray goes to the stream frames as is
                check_identical(
                    "sharded pipelined f32 matrix (binary-v2)",
                    client.predict_pipelined(
                        rows.astype(np.float32), window=16),
                    want,
                )
                check_identical(
                    "sharded batch (binary-v2)",
                    client.predict_batch(rows),
                    want,
                )
            shard_requests = {}
            for row in registry:
                with AdminClient(socket_path=row["path"]) as admin:
                    shard_stats = admin.stats()
                    assert shard_stats["shard"]["pid"] == row["pid"]
                    shard_requests[shard_stats["shard"]["index"]] = (
                        shard_stats["server"]["requests_served"]
                    )
            assert sorted(shard_requests) == list(range(args.shards))
            # a shard folds a connection's codec counters when it reaps
            # the close, a moment after the client's close() returns
            deadline = time.monotonic() + 5.0
            while True:
                aggregated = collect_stats(base)
                folded = aggregated.codec["connections"].get(CODEC_BINARY_V2, 0)
                if folded or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
            assert len(aggregated.shards) == args.shards, aggregated
            assert aggregated.live_shards == args.shards, aggregated
            assert aggregated.requests_served >= 3 * len(rows) + 1
            merged_codec = aggregated.codec
            assert merged_codec["connections"].get(CODEC_BINARY_V2, 0) >= 1, (
                merged_codec
            )
            assert merged_codec["bytes_in"].get(CODEC_BINARY_V2, 0) > 0
            # the v2 stream frame counted all its rows as requests
            assert merged_codec["requests"].get(CODEC_BINARY_V2, 0) >= len(
                rows
            ), merged_codec
            check_stats_view(aggregated, collect_metrics(base))
        assert not os.path.exists(base), "registry not removed"
        for row in registry:
            assert not os.path.exists(row["path"]), "shard socket left"

        print(
            f"shard smoke OK: {len(rows)} pipelined predictions x 2 "
            f"codecs (+ 1 f32 matrix) across {args.shards} shards, "
            f"per-shard requests {shard_requests}, aggregated "
            f"{aggregated.requests_served} requests, "
            f"clean fan-out shutdown"
        )

        # -- allocation-stability leg: steady BATCH calls, no faults ---
        allocation_stability(workdir, tree, rows_of[None])
        return 0
    except SmokeFailure as failure:
        print(f"daemon smoke FAILED:\n{failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
