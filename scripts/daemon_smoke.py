"""CI smoke test for the persistent scoring daemon — sharded edition.

Trains **two** distinct model/feature-set variants (a ``tree`` on
``static-all`` and a ``forest`` on ``static-agg``; four kernels, unit
profile, throwaway caches), serves both from one
:class:`repro.api.ScoringDaemon` fleet (event-loop micro-batching),
pushes ``--rows`` feature rows through ``--clients`` concurrent
:class:`repro.api.ScoringClient` connections — odd clients routing to
the forest via the ``model`` request field, even clients hitting the
pinned default, and half of each negotiating the ``binary-v2`` wire
codec while the rest stay on JSON lines — and asserts every wire
prediction is byte-identical to the matching local ``predict_batch``
(rows are pre-rounded to the f32 grid the binary codec transports, so
both codecs score bit-identical inputs).  Also exercises the admin
verbs (``list_models`` / ``load_model`` / ``evict_model``), the
``stats`` verb including its per-codec traffic section, and clean
shutdown (socket unlinked, counters consistent).

Then the **mixed-codec pipelined** leg: json and ``binary-v2``
clients pipeline the same default-model rows through one fleet daemon
concurrently — the v2 window travels as packed multi-row stream frames
(asserted via the server's ``stream_rows`` counter) and both result
lists must be byte-identical.

Then the **sharded** leg: a ``--shards``-process
:class:`repro.api.ShardManager` deployment behind one unix shard
registry, pipelined JSON *and* binary client round trips through it
(``predict_pipelined``, byte-identical again), per-shard stats via the
registry plus the :func:`repro.api.admin.collect_stats` aggregation,
and clean fan-out shutdown (registry and shard sockets gone).  Exit
code 0 means both deployment paths work end to end.

``--kill-storm`` runs the self-healing leg instead: a supervised
(:class:`repro.api.ShardSupervisor`) fleet under sustained pipelined
load while shards are repeatedly SIGKILLed, then a rolling restart
under the same load, then a zero-downtime hot swap — and not one
request may fail (client retries re-resolve the refreshed registry).

Run from the repo root::

    PYTHONPATH=src python scripts/daemon_smoke.py [--rows 100]
    PYTHONPATH=src python scripts/daemon_smoke.py --kill-storm
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import signal
import sys
import tempfile
import threading
import time

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
    ShardManager,
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

SMOKE_KERNELS = ("gemm", "atax", "fir", "stream_triad")
FOREST_SPEC = "forest:static-agg:unit"
TREE_SPEC = "tree:static-all:unit"
#: the kill-storm hot-swap target shares the tree's feature set, so
#: one probe row matrix scores against both models
STORM_SWAP_SPEC = "forest:static-all:unit"


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
    quiesced, a hot swap canary-scores and promotes the forest and the
    default route must answer byte-identically to the local model on
    every shard.
    """
    specs = [get_kernel_spec(name) for name in SMOKE_KERNELS]
    dataset = build_dataset(
        "unit", specs=specs, cache_dir=os.path.join(workdir, "sim_cache"))
    model_dir = os.path.join(workdir, "models")
    tree, _ = load_or_train(
        ReproConfig(profile="unit"), dataset=dataset, cache_dir=model_dir)
    forest, _ = load_or_train(
        ReproConfig(profile="unit", model="forest",
                    model_params={"n_estimators": 10}),
        dataset=dataset, cache_dir=model_dir)

    base_rows = dataset.matrix(tree.feature_names_)
    reps = -(-args.rows // len(base_rows))
    tiled = np.tile(base_rows, (reps, 1))[: args.rows]
    rows = tiled.astype(np.float32).astype(np.float64).tolist()
    want_tree = [int(p) for p in tree.predict_batch(rows)]
    want_forest = [int(p) for p in forest.predict_batch(rows)]

    paths = {TREE_SPEC: os.path.join(workdir, "tree.json"),
             STORM_SWAP_SPEC: os.path.join(workdir, "forest.json")}
    tree.save(paths[TREE_SPEC])
    forest.save(paths[STORM_SWAP_SPEC])

    base = os.path.join(workdir, "storm.sock")
    manager = ShardManager(
        functools.partial(_storm_fleet_factory, paths),
        shards=args.shards, socket_path=base, workers=4)
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
            failures.append(exc)

    with manager, ShardSupervisor(manager, interval=0.2) as supervisor:
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
                pid = manager.pids[victim]
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    proc = manager.proc(victim)
                    if proc.is_alive() and proc.pid != pid:
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
            raise failures[0]
        if not all(batches):
            raise SmokeFailure(
                f"every storm client must complete at least one "
                f"batch, got {batches}")

        # -- zero-downtime hot swap, gated on the local predictions
        report = supervisor.hot_swap("forest:static-all", rows,
                                     expected=want_forest)
        if not report.identical:
            raise SmokeFailure(
                f"hot swap promoted {report.model} but shard default "
                f"routes diverged from the canary")
        with ScoringClient(socket_path=base) as client:
            check_identical("post-swap default route",
                            client.predict_batch(rows), want_forest)
        # the coalesced single-row and stream paths must follow the
        # promotion too, not only the worker path predict_batch takes.
        # both models agree on the training rows, so halved rows (still
        # f32-exact) are added to tell which model actually answered
        probe = rows + [[v * 0.5 for v in row] for row in rows]
        want_probe = [int(p) for p in forest.predict_batch(probe)]
        if want_probe == [int(p) for p in tree.predict_batch(probe)]:
            raise SmokeFailure("no probe row tells the tree from the forest")
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
        if final_pids != set(manager.pids) or final_pids & set(killed):
            raise SmokeFailure(
                f"registry pids {final_pids} do not match the live "
                f"fleet {manager.pids} (killed: {killed})")
        epoch = registry_epoch(base)
        # one refresh per respawn plus one per drain/deregister
        if epoch < args.storm_kills + 2 * args.shards:
            raise SmokeFailure(
                f"registry epoch {epoch} too low for "
                f"{args.storm_kills} heals + a rolling restart")
        respawns = sum(1 for e in supervisor.events
                       if e["event"] == "respawn")
        if respawns != args.storm_kills:
            raise SmokeFailure(
                f"supervisor healed {respawns} times, expected "
                f"{args.storm_kills}")

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
                if got != want_forest[row_no % len(rows)]:
                    raise SmokeFailure(
                        f"metrics probe request {row_no} scored {got}, "
                        f"want {want_forest[row_no % len(rows)]}")
        after = collect_metrics(base)
        delta = (score_request_count(after.series)
                 - score_request_count(before.series))
        if delta != probe_requests:
            raise SmokeFailure(
                f"merged score-latency histograms grew by {delta} "
                f"requests, expected exactly {probe_requests}; "
                f"per-shard counts are drifting from requests served")

        # the supervisor's own registry counts every heal it performed
        respawn_counter = 0
        for series_row in supervisor.metrics.snapshot()["series"]:
            if (series_row["name"] == "repro_supervisor_events_total"
                    and series_row["labels"].get("event") == "respawn"):
                respawn_counter = int(series_row["value"])
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
        forest, _ = load_or_train(
            ReproConfig(
                profile="unit",
                model="forest",
                model_params={"n_estimators": 10},
                feature_set="static-agg",
            ),
            dataset=dataset,
            cache_dir=model_dir,
        )

        variants = {None: tree, FOREST_SPEC: forest}
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
            # the forest stays servable after an evict (transparent
            # reload); anything else is a smoke-test bug
            if key.spec == FOREST_SPEC:
                return forest
            raise FleetError(f"unexpected lazy load of {key.spec!r}")

        pool = ModelPool(loader=loader, default_tag="unit")
        pool.add(forest, key=FOREST_SPEC)
        fleet = ModelFleet(pool, default=tree)

        socket_path = os.path.join(workdir, "repro.sock")
        results: list = [None] * args.clients
        errors: list = []

        def worker(slot: int) -> None:
            # 4-way coverage: (tree, forest) x (json, binary-v2)
            spec = None if slot % 2 == 0 else FOREST_SPEC
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
                assert admin.evict_model(FOREST_SPEC) is True
                assert admin.load_model(FOREST_SPEC) == FOREST_SPEC
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
        # clients + the pre-storm admin client + the post-storm metrics read
        assert stats["connections_served"] == args.clients + 2
        assert not os.path.exists(socket_path), "socket not unlinked"
        loop_stats = stats.get("loop", {})

        # per-codec traffic accounting: every connection is attributed
        # to the codec it ended on, byte counters split the same way
        n_binary = sum(1 for slot in range(args.clients)
                       if (slot // 2) % 2 == 1)
        n_json = args.clients - n_binary + 2  # + the two admin clients
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
            f"2 models, {stats['requests_served']} requests, "
            f"mean coalesced batch {loop_stats.get('mean_fast_batch')}, "
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
        manager = ShardManager(
            functools.partial(classifier_factory, artifact),
            shards=args.shards,
            socket_path=base,
            workers=4,
        )
        with manager:
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
            aggregated = collect_stats(base)
            assert len(aggregated.shards) == args.shards, aggregated
            assert aggregated.live_shards == args.shards, aggregated
            assert aggregated.requests_served >= 2 * len(rows) + 1
            merged_codec = aggregated.codec
            assert merged_codec["connections"].get(CODEC_BINARY_V2, 0) >= 1, (
                merged_codec
            )
            assert merged_codec["bytes_in"].get(CODEC_BINARY_V2, 0) > 0
            # the v2 stream frame counted all its rows as requests
            assert merged_codec["requests"].get(CODEC_BINARY_V2, 0) >= len(
                rows
            ), merged_codec
        assert not os.path.exists(base), "registry not removed"
        for row in registry:
            assert not os.path.exists(row["path"]), "shard socket left"

        print(
            f"shard smoke OK: {len(rows)} pipelined predictions x 2 "
            f"codecs across {args.shards} shards, per-shard requests "
            f"{shard_requests}, aggregated "
            f"{aggregated.requests_served} requests, "
            f"clean fan-out shutdown"
        )
        return 0
    except SmokeFailure as failure:
        print(f"daemon smoke FAILED:\n{failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
