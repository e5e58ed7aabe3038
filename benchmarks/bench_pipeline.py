"""End-to-end pipeline benchmark: campaign scaling + batched inference.

Times (a) a cold labelling-campaign build at ``--jobs 1`` vs
``--jobs N`` (fresh cache directories, so both runs simulate
everything), (b) 10k-row forest/tree inference with the seed
per-row loops vs the vectorized implementations, (c) the
:mod:`repro.api` serving path — model-artifact load latency and
single-prediction latency for the tree and forest families — and
(d) the persistent scoring daemon: round-trip latency and rows/sec
over a Unix socket at 1/4/16 concurrent clients plus one-connection
batched throughput, and (e) the multi-model fleet daemon
(:mod:`repro.api.fleet`): the same single-row levels with adaptive
micro-batching and a two-model mixed level (each level
best-of-``LEVEL_REPEATS``), plus (f) the **pipelined
client** — sequential vs windowed in-flight single rows on one
connection, alternating rounds in the same time window — and (g)
**sharded serving** at 1/2/4 shard processes behind one unix
endpoint, counts interleaved per round — and (h) the **wire codec x
inference backend** matrix: json+reference, json+compiled and
binary+compiled variants of the one-connection batched daemon path
(plus single-row p50), alternating variants inside each measurement
round so the recorded ratios are paired — and (i) the **supervised
churn** leg: a ShardSupervisor-managed fleet hammered quiet and with
a shard SIGKILLed mid-flight in the same time window, recording the
throughput retained while the supervisor heals — then writes the
numbers to ``BENCH_pipeline.json`` so later PRs
can track the trajectory.  With ``--skip-build`` the previous file's
``cold_build`` section is carried over instead of dropped.

Run from the repo root as a single command::

    python benchmarks/bench_pipeline.py [--profile quick] [--jobs 4]
        [--rows 10000] [--output BENCH_pipeline.json]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

import numpy as np  # noqa: E402

from repro.dataset.build import build_dataset  # noqa: E402
from repro.ml.forest import RandomForestClassifier  # noqa: E402
from repro.ml.tree import DecisionTreeClassifier  # noqa: E402


def bench_cold_build(profile: str, jobs: int) -> dict:
    """Wall-clock of one cold campaign (fresh cache dir) at *jobs*."""
    cache_dir = tempfile.mkdtemp(prefix=f"bench_cache_j{jobs}_")
    try:
        start = time.perf_counter()
        dataset = build_dataset(profile, cache_dir=cache_dir, jobs=jobs)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {"jobs": jobs, "seconds": round(elapsed, 3),
            "n_samples": len(dataset)}


def bench_inference(rows: int, seed: int = 0) -> dict:
    """Seed per-row loops vs vectorized predict on *rows* random rows."""
    rng = np.random.default_rng(seed)
    X_train = rng.standard_normal((600, 24))
    y_train = rng.integers(1, 9, size=600)
    X = rng.standard_normal((rows, 24))

    tree = DecisionTreeClassifier(max_depth=12, random_state=0)
    tree.fit(X_train, y_train)
    start = time.perf_counter()
    tree_rowwise = tree._predict_rowwise(X)
    tree_rowwise_s = time.perf_counter() - start
    start = time.perf_counter()
    tree_batched = tree.predict(X)
    tree_batched_s = time.perf_counter() - start
    if not np.array_equal(tree_rowwise, tree_batched):
        raise AssertionError("batched tree predictions diverge from the "
                             "row-wise reference")

    forest = RandomForestClassifier(n_estimators=30, max_depth=12,
                                    random_state=0)
    forest.fit(X_train, y_train)
    start = time.perf_counter()
    forest_loop = forest._predict_loop(X)
    forest_loop_s = time.perf_counter() - start
    start = time.perf_counter()
    forest_vec = forest.predict(X)
    forest_vec_s = time.perf_counter() - start
    if not np.array_equal(forest_loop, forest_vec):
        raise AssertionError("vectorized forest predictions diverge from "
                             "the per-row voting reference")

    return {
        "rows": rows,
        "tree": {"rowwise_seconds": round(tree_rowwise_s, 4),
                 "batched_seconds": round(tree_batched_s, 4),
                 "speedup": round(tree_rowwise_s / tree_batched_s, 2)},
        "forest": {"rowwise_seconds": round(forest_loop_s, 4),
                   "vectorized_seconds": round(forest_vec_s, 4),
                   "speedup": round(forest_loop_s / forest_vec_s, 2)},
    }


def bench_model_io(loads: int = 20, predictions: int = 500) -> dict:
    """Serving-path latency: artifact load and one-row predict.

    Trains each model family once on a small real campaign (four
    kernels, temp cache), saves the JSON artifact, then times
    ``Classifier.load`` and single-row ``predict`` — the two numbers a
    deployment actually waits on.
    """
    from repro.api import Classifier, ReproConfig
    from repro.dataset.registry import get_kernel_spec

    specs = [get_kernel_spec(name)
             for name in ("gemm", "atax", "fir", "stream_triad")]
    cache_dir = tempfile.mkdtemp(prefix="bench_model_io_")
    results: dict = {"loads": loads, "predictions": predictions}
    try:
        dataset = build_dataset("unit", specs=specs, cache_dir=cache_dir)
        for family, params in (("tree", {}),
                               ("forest", {"n_estimators": 30})):
            clf = Classifier(ReproConfig(profile="unit", model=family,
                                         model_params=params))
            clf.train(dataset)
            path = os.path.join(cache_dir, f"{family}.json")
            clf.save(path)

            start = time.perf_counter()
            for _ in range(loads):
                Classifier.load(path)
            load_ms = (time.perf_counter() - start) / loads * 1e3

            loaded = Classifier.load(path)
            row = dataset.matrix(loaded.feature_names_)[0]
            loaded.predict(row)  # warm-up
            start = time.perf_counter()
            for _ in range(predictions):
                loaded.predict(row)
            predict_us = ((time.perf_counter() - start)
                          / predictions * 1e6)

            results[family] = {
                "artifact_kb": round(os.path.getsize(path) / 1024, 1),
                "load_ms": round(load_ms, 3),
                "predict_us": round(predict_us, 1),
            }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return results


#: measurement repeats per concurrency level; the best run is recorded
#: (the box is shared, so single runs swing with neighbour load).
LEVEL_REPEATS = 2


def bench_daemon(concurrencies=(1, 4, 16), requests_per_client: int = 200,
                 batch_rows: int = 10_000) -> dict:
    """Daemon round-trip latency and throughput under concurrency.

    Starts one :class:`repro.api.ScoringDaemon` on a Unix socket (model
    loaded exactly once), then for each concurrency level runs N client
    threads each sending *requests_per_client* single-row requests over
    its own :class:`repro.api.ScoringClient` connection.  Records the
    round-trip latency distribution and aggregate rows/sec (best of
    :data:`LEVEL_REPEATS` runs), plus the one-connection batched
    throughput at *batch_rows* rows.
    """
    import threading

    from repro.api import (
        Classifier,
        ReproConfig,
        ScoringClient,
        ScoringDaemon,
    )
    from repro.dataset.registry import get_kernel_spec

    specs = [get_kernel_spec(name)
             for name in ("gemm", "atax", "fir", "stream_triad")]
    workdir = tempfile.mkdtemp(prefix="bench_daemon_")
    results: dict = {"transport": "unix",
                     "requests_per_client": requests_per_client,
                     "levels": []}
    try:
        dataset = build_dataset("unit", specs=specs,
                                cache_dir=os.path.join(workdir, "sim"))
        clf = Classifier(ReproConfig(profile="unit")).train(dataset)
        X = dataset.matrix(clf.feature_names_)
        rows = [list(map(float, row)) for row in X]
        socket_path = os.path.join(workdir, "bench.sock")
        daemon = ScoringDaemon(clf, socket_path=socket_path,
                               workers=max(concurrencies))
        with daemon:
            # warm-up: one connection, a few requests
            with ScoringClient(socket_path=socket_path) as client:
                for row in rows[:4]:
                    client.predict(row)

            def run_level(n_clients: int) -> dict:
                latencies: list = []
                lock = threading.Lock()

                def worker() -> None:
                    local: list = []
                    with ScoringClient(socket_path=socket_path) as cl:
                        for i in range(requests_per_client):
                            row = rows[i % len(rows)]
                            start = time.perf_counter()
                            cl.predict(row)
                            local.append(time.perf_counter() - start)
                    with lock:
                        latencies.extend(local)

                threads = [threading.Thread(target=worker)
                           for _ in range(n_clients)]
                wall_start = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                wall = time.perf_counter() - wall_start
                lat_us = np.sort(np.asarray(latencies)) * 1e6
                total = n_clients * requests_per_client
                return {
                    "clients": n_clients,
                    "requests": total,
                    "round_trip_us_p50": round(
                        float(np.percentile(lat_us, 50)), 1),
                    "round_trip_us_p99": round(
                        float(np.percentile(lat_us, 99)), 1),
                    "rows_per_sec": round(total / wall, 1),
                }

            for n_clients in concurrencies:
                results["levels"].append(max(
                    (run_level(n_clients)
                     for _ in range(LEVEL_REPEATS)),
                    key=lambda level: level["rows_per_sec"]))

            # batched: one connection, one request, many rows
            reps = max(1, -(-batch_rows // len(rows)))
            big = (rows * reps)[:batch_rows]
            with ScoringClient(socket_path=socket_path) as client:
                client.predict_batch(big[:64])  # warm-up
                start = time.perf_counter()
                preds = client.predict_batch(big)
                batch_s = time.perf_counter() - start
            if preds != [int(p) for p in clf.predict_batch(
                    np.asarray(big))]:
                raise AssertionError("daemon batch predictions diverge "
                                     "from the local classifier")
            results["batched"] = {
                "rows": len(big),
                "seconds": round(batch_s, 4),
                "rows_per_sec": round(len(big) / batch_s, 1),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return results


def bench_fleet(concurrencies=(1, 4, 16), requests_per_client: int = 200,
                batch_rows: int = 10_000) -> dict:
    """Fleet-daemon throughput: micro-batched single rows, two models.

    Serves a ``tree:static-all`` default plus a ``forest:static-agg``
    variant from one event-loop fleet daemon and measures (a) per-level
    single-row round trips against the default model at 1/4/16
    concurrent clients, (b) a mixed level routing half the clients to
    the forest via the ``model`` field, and (c) one-connection batched
    throughput.  Every wire prediction is asserted byte-identical to
    the matching local ``predict_batch``.
    """
    import threading

    from repro.api import (
        Classifier,
        ModelFleet,
        ModelPool,
        ReproConfig,
        ScoringClient,
        ScoringDaemon,
    )
    from repro.dataset.registry import get_kernel_spec
    from repro.errors import FleetError

    specs = [get_kernel_spec(name)
             for name in ("gemm", "atax", "fir", "stream_triad")]
    workdir = tempfile.mkdtemp(prefix="bench_fleet_")
    forest_spec = "forest:static-agg:unit"
    results: dict = {"transport": "unix",
                     "requests_per_client": requests_per_client,
                     "levels": []}
    try:
        dataset = build_dataset("unit", specs=specs,
                                cache_dir=os.path.join(workdir, "sim"))
        tree = Classifier(ReproConfig(profile="unit")).train(dataset)
        forest = Classifier(ReproConfig(
            profile="unit", model="forest",
            model_params={"n_estimators": 10},
            feature_set="static-agg")).train(dataset)

        def loader(key):
            if key.spec == forest_spec:
                return forest
            raise FleetError(f"unexpected lazy load of {key.spec!r}")

        pool = ModelPool(loader=loader, default_tag="unit")
        pool.add(forest, key=forest_spec)
        fleet = ModelFleet(pool, default=tree)

        rows_of = {}
        expected = {}
        for spec, clf in ((None, tree), (forest_spec, forest)):
            X = dataset.matrix(clf.feature_names_)
            rows_of[spec] = [list(map(float, row)) for row in X]
            expected[spec] = [int(p) for p in clf.predict_batch(X)]

        socket_path = os.path.join(workdir, "fleet.sock")
        daemon = ScoringDaemon(fleet=fleet, socket_path=socket_path,
                               workers=8, max_batch=64)

        def hammer(n_clients, model_of_slot) -> tuple:
            """N single-row clients; returns (rows/sec, p50us, p99us)."""
            latencies: list = []
            errors: list = []
            lock = threading.Lock()

            def worker(slot: int) -> None:
                spec = model_of_slot(slot)
                rows, want = rows_of[spec], expected[spec]
                local: list = []
                try:
                    with ScoringClient(socket_path=socket_path) as client:
                        for i in range(requests_per_client):
                            row = rows[i % len(rows)]
                            start = time.perf_counter()
                            got = client.predict(row, model=spec)
                            local.append(time.perf_counter() - start)
                            if got != want[i % len(want)]:
                                raise AssertionError(
                                    f"wire prediction diverged ({spec})")
                except Exception as exc:
                    with lock:
                        errors.append(exc)
                    return
                with lock:
                    latencies.extend(local)

            threads = [threading.Thread(target=worker, args=(slot,))
                       for slot in range(n_clients)]
            wall_start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - wall_start
            if errors:
                # a diverged prediction or transport failure must fail
                # the benchmark loudly, not inflate its numbers
                raise errors[0]
            lat_us = np.sort(np.asarray(latencies)) * 1e6
            total = n_clients * requests_per_client
            return (round(total / wall, 1),
                    round(float(np.percentile(lat_us, 50)), 1),
                    round(float(np.percentile(lat_us, 99)), 1))

        with daemon:
            with ScoringClient(socket_path=socket_path) as client:
                for row in rows_of[None][:4]:
                    client.predict(row)  # warm-up

            for n_clients in concurrencies:
                rps, p50, p99 = max(
                    (hammer(n_clients, lambda slot: None)
                     for _ in range(LEVEL_REPEATS)),
                    key=lambda run: run[0])
                results["levels"].append({
                    "clients": n_clients,
                    "requests": n_clients * requests_per_client,
                    "round_trip_us_p50": p50,
                    "round_trip_us_p99": p99,
                    "rows_per_sec": rps,
                })

            mixed = max(concurrencies)
            rps, p50, p99 = max(
                (hammer(mixed, lambda slot: None if slot % 2 == 0
                        else forest_spec)
                 for _ in range(LEVEL_REPEATS)),
                key=lambda run: run[0])
            results["two_models"] = {
                "clients": mixed,
                "round_trip_us_p50": p50,
                "round_trip_us_p99": p99,
                "rows_per_sec": rps,
            }

            rows = rows_of[None]
            reps = max(1, -(-batch_rows // len(rows)))
            big = (rows * reps)[:batch_rows]
            with ScoringClient(socket_path=socket_path) as client:
                client.predict_batch(big[:64])  # warm-up
                start = time.perf_counter()
                preds = client.predict_batch(big)
                batch_s = time.perf_counter() - start
            if preds != [int(p) for p in tree.predict_batch(
                    np.asarray(big))]:
                raise AssertionError("fleet batch predictions diverge "
                                     "from the local classifier")
            results["batched"] = {
                "rows": len(big),
                "seconds": round(batch_s, 4),
                "rows_per_sec": round(len(big) / batch_s, 1),
            }

        loop_stats = daemon.stats().get("loop", {})
        results["coalescing"] = {
            "mean_fast_batch": loop_stats.get("mean_fast_batch"),
            "largest_fast_batch": loop_stats.get("largest_fast_batch"),
            "max_batch": loop_stats.get("max_batch"),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return results


def bench_pipelined(requests: int = 2000, window: int = 64,
                    rounds: int = 5) -> dict:
    """Pipelined vs sequential single-row client, interleaved paired.

    One event-loop fleet daemon, one client connection per mode; the
    two modes alternate measurement rounds in the same time window
    (the box is shared, so cross-section ratios drift) and the
    recorded speedup is the ratio of medians.  The pipelined client
    keeps ``window`` requests in flight on the one connection, which
    is what feeds the daemon's micro-batch coalescing from a single
    client; the acceptance bar is >= 1.5x.  Every wire prediction is
    asserted identical to the local classifier.
    """
    from repro.api import (
        Classifier,
        ReproConfig,
        ScoringClient,
        ScoringDaemon,
    )
    from repro.dataset.registry import get_kernel_spec

    specs = [get_kernel_spec(name)
             for name in ("gemm", "atax", "fir", "stream_triad")]
    workdir = tempfile.mkdtemp(prefix="bench_pipelined_")
    try:
        dataset = build_dataset("unit", specs=specs,
                                cache_dir=os.path.join(workdir, "sim"))
        clf = Classifier(ReproConfig(profile="unit")).train(dataset)
        X = dataset.matrix(clf.feature_names_)
        base_rows = [list(map(float, row)) for row in X]
        reps = max(1, -(-requests // len(base_rows)))
        rows = (base_rows * reps)[:requests]
        expected = [int(p) for p in clf.predict_batch(np.asarray(rows))]

        socket_path = os.path.join(workdir, "pipe.sock")
        daemon = ScoringDaemon(clf, socket_path=socket_path, workers=4,
                               max_batch=window)

        def run_sequential(client) -> float:
            start = time.perf_counter()
            got = [client.predict(row) for row in rows]
            wall = time.perf_counter() - start
            if got != expected:
                raise AssertionError("sequential predictions diverged")
            return round(len(rows) / wall, 1)

        def run_pipelined(client) -> float:
            start = time.perf_counter()
            got = client.predict_pipelined(rows, window=window)
            wall = time.perf_counter() - start
            if got != expected:
                raise AssertionError("pipelined predictions diverged")
            return round(len(rows) / wall, 1)

        with daemon:
            with ScoringClient(socket_path=socket_path) as client:
                client.predict_pipelined(rows[:64], window=window)
                sequential_runs, pipelined_runs = [], []
                for _ in range(rounds):
                    sequential_runs.append(run_sequential(client))
                    pipelined_runs.append(run_pipelined(client))
        sequential = sorted(sequential_runs)[rounds // 2]
        pipelined = sorted(pipelined_runs)[rounds // 2]
        return {
            "transport": "unix",
            "requests": requests,
            "window": window,
            "rounds": rounds,
            "sequential_rows_per_sec": sequential,
            "pipelined_rows_per_sec": pipelined,
            "speedup": round(pipelined / sequential, 2),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench_shards(shard_counts=(1, 2, 4), clients: int = 4,
                 requests_per_client: int = 500,
                 rounds: int = 3) -> dict:
    """Sharded serving at 1/2/4 shards, measured on the same basis.

    Saves one trained artifact, then — per measurement round —
    cycles through the shard counts, standing up a fresh
    :class:`repro.api.ShardManager` (fleet daemons behind a unix
    shard registry, exactly what ``repro serve --shards N`` deploys)
    and hammering it with *clients* pipelined client connections.
    Interleaving the counts inside each round keeps the comparison
    paired on a shared box; medians per count are recorded.
    """
    import functools
    import threading

    from repro.api import (
        Classifier,
        ReproConfig,
        ScoringClient,
        ShardManager,
    )
    from repro.api.shard import fleet_factory
    from repro.dataset.registry import get_kernel_spec

    specs = [get_kernel_spec(name)
             for name in ("gemm", "atax", "fir", "stream_triad")]
    workdir = tempfile.mkdtemp(prefix="bench_shards_")
    try:
        dataset = build_dataset("unit", specs=specs,
                                cache_dir=os.path.join(workdir, "sim"))
        clf = Classifier(ReproConfig(profile="unit")).train(dataset)
        artifact = os.path.join(workdir, "model.json")
        clf.save(artifact)
        X = dataset.matrix(clf.feature_names_)
        base_rows = [list(map(float, row)) for row in X]
        reps = max(1, -(-requests_per_client // len(base_rows)))
        rows = (base_rows * reps)[:requests_per_client]
        expected = [int(p) for p in clf.predict_batch(np.asarray(rows))]
        factory = functools.partial(fleet_factory, model_path=artifact,
                                    profile="unit")

        def hammer(base_path: str) -> float:
            errors: list = []

            def worker() -> None:
                try:
                    with ScoringClient(socket_path=base_path) as cl:
                        got = cl.predict_pipelined(rows, window=32)
                    if got != expected:
                        raise AssertionError("sharded predictions "
                                             "diverged")
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=worker)
                       for _ in range(clients)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - start
            if errors:
                raise errors[0]
            return round(clients * len(rows) / wall, 1)

        runs = {count: [] for count in shard_counts}
        for round_index in range(rounds):
            for count in shard_counts:
                base = os.path.join(workdir,
                                    f"s{count}_r{round_index}.sock")
                with ShardManager(factory, shards=count,
                                  socket_path=base, workers=4):
                    hammer(base)  # warm-up (children page in numpy)
                    runs[count].append(hammer(base))
        levels = []
        baseline = None
        for count in shard_counts:
            rps = sorted(runs[count])[rounds // 2]
            if baseline is None:
                baseline = rps
            levels.append({
                "shards": count,
                "clients": clients,
                "requests": clients * len(rows),
                "rows_per_sec": rps,
                "speedup_vs_1_shard": round(rps / baseline, 2),
            })
        return {
            "transport": "unix",
            "rounds": rounds,
            "pipeline_window": 32,
            "levels": levels,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench_supervised_churn(shards: int = 2, clients: int = 4,
                           requests_per_client: int = 500,
                           rounds: int = 3) -> dict:
    """Supervised fleet throughput under kill churn, interleaved paired.

    One :class:`repro.api.ShardSupervisor`-managed *shards*-shard fleet
    behind a unix registry.  Each round measures the same pipelined
    hammer twice in the same time window: once quiet, once with a
    shard SIGKILLed mid-flight — the supervisor respawns the victim
    and refreshes the registry while the clients reconnect through it
    (``reconnect_retries``).  Zero failed requests are tolerated and
    every prediction is asserted byte-identical to the local
    classifier; the recorded number is the median throughput retained
    under churn relative to the paired quiet runs.
    """
    import functools
    import signal
    import threading

    from repro.api import (
        Classifier,
        ReproConfig,
        ScoringClient,
        ShardManager,
        ShardSupervisor,
    )
    from repro.api.shard import fleet_factory, read_registry
    from repro.dataset.registry import get_kernel_spec

    specs = [get_kernel_spec(name)
             for name in ("gemm", "atax", "fir", "stream_triad")]
    workdir = tempfile.mkdtemp(prefix="bench_churn_")
    try:
        dataset = build_dataset("unit", specs=specs,
                                cache_dir=os.path.join(workdir, "sim"))
        clf = Classifier(ReproConfig(profile="unit")).train(dataset)
        artifact = os.path.join(workdir, "model.json")
        clf.save(artifact)
        X = dataset.matrix(clf.feature_names_)
        base_rows = [list(map(float, row)) for row in X]
        reps = max(1, -(-requests_per_client // len(base_rows)))
        rows = (base_rows * reps)[:requests_per_client]
        expected = [int(p) for p in clf.predict_batch(np.asarray(rows))]
        factory = functools.partial(fleet_factory, model_path=artifact,
                                    profile="unit")
        base = os.path.join(workdir, "churn.sock")

        def hammer() -> float:
            errors: list = []

            def worker() -> None:
                try:
                    with ScoringClient(socket_path=base,
                                       reconnect_retries=16) as cl:
                        got = cl.predict_pipelined(rows, window=32)
                    if got != expected:
                        raise AssertionError("supervised-churn "
                                             "predictions diverged")
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=worker)
                       for _ in range(clients)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - start
            if errors:
                # a dropped request under churn must fail the benchmark
                # loudly, not quietly deflate the retention number
                raise errors[0]
            return round(clients * len(rows) / wall, 1)

        quiet_runs, churn_runs = [], []
        kills = 0
        with ShardManager(factory, shards=shards, socket_path=base,
                          workers=4) as manager, \
                ShardSupervisor(manager, interval=0.2) as supervisor:
            hammer()  # warm-up (children page in numpy)
            for round_index in range(rounds):
                quiet_runs.append(hammer())
                victim_pid = manager.pids[round_index % shards]
                killer = threading.Timer(
                    0.05, os.kill, args=(victim_pid, signal.SIGKILL))
                killer.start()
                churn_runs.append(hammer())
                killer.join()
                kills += 1
                # wait for the heal before the next paired quiet run,
                # so each round starts from a full fleet
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    registry = read_registry(base) or []
                    pids = {row["pid"] for row in registry}
                    if len(pids) == shards and victim_pid not in pids:
                        break
                    time.sleep(0.05)
                else:
                    raise AssertionError(
                        "supervisor did not respawn the killed shard "
                        "within 30s")
            heals = sum(1 for event in supervisor.events
                        if event["event"] == "respawn")
        if heals != kills:
            raise AssertionError(
                f"expected {kills} respawn events, saw {heals}")
        quiet = sorted(quiet_runs)[rounds // 2]
        churn = sorted(churn_runs)[rounds // 2]
        return {
            "transport": "unix",
            "shards": shards,
            "clients": clients,
            "requests": clients * len(rows),
            "rounds": rounds,
            "pipeline_window": 32,
            "kills": kills,
            "heals": heals,
            "quiet_rows_per_sec": quiet,
            "churn_rows_per_sec": churn,
            "throughput_retention": round(churn / quiet, 2),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench_codec_backend(batch_rows: int = 10_000, rounds: int = 5,
                        single_requests: int = 300) -> dict:
    """Wire codec x inference backend matrix, interleaved paired.

    Serves the same saved tree artifact from two daemons — one loaded
    with the node-walk ``reference`` backend, one with the flattened
    ``compiled`` decision tables — and measures the one-connection
    batched path plus single-row round trips for three variants:
    json+reference (the PR 5 wire), json+compiled, and
    binary+compiled (the negotiated length-prefixed codec).  All
    variants run inside each measurement round, so the recorded
    ratios are paired on a shared box; medians per variant are
    recorded.  Rows are pre-rounded to the f32 grid the binary codec
    transports and every wire prediction is asserted identical to the
    reference classifier — the speedup must not come from answering a
    different question.
    """
    from repro.api import (
        BACKEND_COMPILED,
        BACKEND_REFERENCE,
        CODEC_BINARY,
        CODEC_JSON,
        Classifier,
        ReproConfig,
        ScoringClient,
        ScoringDaemon,
    )
    from repro.dataset.registry import get_kernel_spec

    specs = [get_kernel_spec(name)
             for name in ("gemm", "atax", "fir", "stream_triad")]
    workdir = tempfile.mkdtemp(prefix="bench_codec_")
    variants = ((CODEC_JSON, BACKEND_REFERENCE),
                (CODEC_JSON, BACKEND_COMPILED),
                (CODEC_BINARY, BACKEND_COMPILED))
    try:
        dataset = build_dataset("unit", specs=specs,
                                cache_dir=os.path.join(workdir, "sim"))
        trained = Classifier(ReproConfig(profile="unit")).train(dataset)
        artifact = os.path.join(workdir, "model.json")
        trained.save(artifact)
        backends = {
            BACKEND_REFERENCE: Classifier.load(
                artifact, backend=BACKEND_REFERENCE),
            BACKEND_COMPILED: Classifier.load(artifact),
        }
        X = dataset.matrix(trained.feature_names_)
        # round to the f32 grid the binary codec transports, so every
        # variant scores bit-identical inputs
        X = X.astype(np.float32).astype(np.float64)
        reps = max(1, -(-batch_rows // len(X)))
        big = np.tile(X, (reps, 1))[:batch_rows]
        expected = [int(p) for p in
                    backends[BACKEND_REFERENCE].predict_batch(big)]
        if expected != [int(p) for p in
                        backends[BACKEND_COMPILED].predict_batch(big)]:
            raise AssertionError("compiled backend diverges locally")

        sockets = {backend: os.path.join(workdir, f"{backend}.sock")
                   for backend in backends}
        daemons = [ScoringDaemon(clf, socket_path=sockets[backend],
                                 workers=4)
                   for backend, clf in backends.items()]

        def run_batch(codec: str, backend: str) -> float:
            with ScoringClient(socket_path=sockets[backend],
                               codec=codec) as client:
                if client.codec != codec:
                    raise AssertionError(
                        f"negotiated {client.codec!r}, wanted {codec!r}")
                client.predict_batch(big[:64])  # warm-up
                start = time.perf_counter()
                got = client.predict_batch(big)
                wall = time.perf_counter() - start
            if got != expected:
                raise AssertionError(
                    f"{codec}+{backend} batch predictions diverged")
            return round(len(big) / wall, 1)

        def run_single(codec: str, backend: str) -> float:
            latencies = []
            with ScoringClient(socket_path=sockets[backend],
                               codec=codec) as client:
                client.predict(list(map(float, X[0])))  # warm-up
                for i in range(single_requests):
                    row = list(map(float, X[i % len(X)]))
                    start = time.perf_counter()
                    got = client.predict(row)
                    latencies.append(time.perf_counter() - start)
                    if got != expected[i % len(X)]:
                        raise AssertionError(
                            f"{codec}+{backend} single-row diverged")
            lat_us = np.asarray(latencies) * 1e6
            return round(float(np.percentile(lat_us, 50)), 1)

        batch_runs = {variant: [] for variant in variants}
        single_runs = {variant: [] for variant in variants}
        with daemons[0], daemons[1]:
            run_batch(*variants[0])  # page everything in once
            for _ in range(rounds):
                for variant in variants:
                    batch_runs[variant].append(run_batch(*variant))
                for variant in variants:
                    single_runs[variant].append(run_single(*variant))

        levels = []
        baseline = None
        for codec, backend in variants:
            rps = sorted(batch_runs[(codec, backend)])[rounds // 2]
            p50 = sorted(single_runs[(codec, backend)])[rounds // 2]
            if baseline is None:
                baseline = rps
            levels.append({
                "codec": codec,
                "backend": backend,
                "batched_rows_per_sec": rps,
                "single_round_trip_us_p50": p50,
                "speedup_vs_json_reference": round(rps / baseline, 2),
            })
        return {
            "transport": "unix",
            "batch_rows": len(big),
            "rounds": rounds,
            "single_requests": single_requests,
            "variants": levels,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench_stream_codec(requests: int = 4000, window: int = 64,
                       rounds: int = 5,
                       batch_rows: int = 10_000) -> dict:
    """Pipelined codec shootout on one fleet daemon, interleaved paired.

    The binary-v2 acceptance bench: json, binary-v1 and binary-v2
    clients pipeline the same single-row workload (``window`` in
    flight) against one event-loop fleet daemon, alternating inside
    each measurement round so the ratios are paired on a shared box.
    binary-v2 flushes its window as packed multi-row stream frames the
    server scores without decoding to Python floats; v1 and json send
    one frame per row.  The batched verb is measured for both binary
    codecs too — the streaming path must not tax the bulk path.
    Medians per codec are recorded, and every wire prediction is
    asserted identical to the local classifier (rows are pre-rounded
    to the f32 grid, so all codecs score bit-identical inputs).
    The acceptance bar is pipelined binary-v2 >= 2x pipelined json.
    """
    from repro.api import (
        CODEC_BINARY,
        CODEC_BINARY_V2,
        CODEC_JSON,
        Classifier,
        ReproConfig,
        ScoringClient,
        ScoringDaemon,
    )
    from repro.dataset.registry import get_kernel_spec

    specs = [get_kernel_spec(name)
             for name in ("gemm", "atax", "fir", "stream_triad")]
    workdir = tempfile.mkdtemp(prefix="bench_stream_")
    codecs = (CODEC_JSON, CODEC_BINARY, CODEC_BINARY_V2)
    try:
        dataset = build_dataset("unit", specs=specs,
                                cache_dir=os.path.join(workdir, "sim"))
        clf = Classifier(ReproConfig(profile="unit")).train(dataset)
        X = dataset.matrix(clf.feature_names_)
        # the f32 grid the binary codecs transport: all three variants
        # must score bit-identical inputs
        X = X.astype(np.float32).astype(np.float64)
        reps = max(1, -(-requests // len(X)))
        rows = np.tile(X, (reps, 1))[:requests]
        reps = max(1, -(-batch_rows // len(X)))
        big = np.tile(X, (reps, 1))[:batch_rows]
        expected_rows = [int(p) for p in clf.predict_batch(rows)]
        expected_big = [int(p) for p in clf.predict_batch(big)]

        socket_path = os.path.join(workdir, "stream.sock")
        daemon = ScoringDaemon(clf, socket_path=socket_path, workers=4,
                               max_batch=window)

        def run_pipelined(codec: str) -> float:
            with ScoringClient(socket_path=socket_path,
                               codec=codec) as client:
                if client.codec != codec:
                    raise AssertionError(
                        f"negotiated {client.codec!r}, wanted {codec!r}")
                client.predict_pipelined(rows[:64], window=window)
                start = time.perf_counter()
                got = client.predict_pipelined(rows, window=window)
                wall = time.perf_counter() - start
            if got != expected_rows:
                raise AssertionError(
                    f"{codec} pipelined predictions diverged")
            return round(len(rows) / wall, 1)

        def run_batched(codec: str) -> float:
            with ScoringClient(socket_path=socket_path,
                               codec=codec) as client:
                client.predict_batch(big[:64])  # warm-up
                start = time.perf_counter()
                got = client.predict_batch(big)
                wall = time.perf_counter() - start
            if got != expected_big:
                raise AssertionError(
                    f"{codec} batched predictions diverged")
            return round(len(big) / wall, 1)

        pipe_runs: dict = {codec: [] for codec in codecs}
        batch_runs: dict = {codec: [] for codec in codecs[1:]}
        with daemon:
            run_pipelined(CODEC_JSON)  # page everything in once
            for _ in range(rounds):
                for codec in codecs:
                    pipe_runs[codec].append(run_pipelined(codec))
                for codec in batch_runs:
                    batch_runs[codec].append(run_batched(codec))

        pipelined = {codec: sorted(runs)[rounds // 2]
                     for codec, runs in pipe_runs.items()}
        batched = {codec: sorted(runs)[rounds // 2]
                   for codec, runs in batch_runs.items()}
        return {
            "transport": "unix",
            "requests": requests,
            "window": window,
            "rounds": rounds,
            "batch_rows": len(big),
            "pipelined_rows_per_sec": pipelined,
            "batched_rows_per_sec": batched,
            "stream_speedup_vs_json": round(
                pipelined[CODEC_BINARY_V2] / pipelined[CODEC_JSON], 2),
            "stream_speedup_vs_v1": round(
                pipelined[CODEC_BINARY_V2] / pipelined[CODEC_BINARY],
                2),
            "batched_v2_vs_v1": round(
                batched[CODEC_BINARY_V2] / batched[CODEC_BINARY], 2),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench_obs_overhead(batch_rows: int = 20_000, rounds: int = 21,
                       batch_reps: int = 3, single_reps: int = 100,
                       e2e_rounds: int = 3,
                       single_requests: int = 200) -> dict:
    """Telemetry cost: metrics-on vs metrics-off, measured in two layers.

    **Dispatch layer (the gated numbers).**  Every instrumented call
    site lives inside :class:`~repro.api.transport.RequestEngine` —
    the socket accept/read/write code is byte-for-byte identical in
    both variants — so the telemetry delta is measured where it
    exists: two engines (one telemetry on, one built with
    ``metrics=False``) *sharing one loaded classifier object* decode
    the same pre-framed binary requests and answer them through
    :meth:`~repro.api.transport.RequestEngine.turn` (the protocol turn
    every slow request takes) on one thread, in ABBA order
    (on, off, off, on) per round so drift and bursts hit both legs,
    with the median across rounds as the figure.  Sharing the
    classifier and the thread is load-bearing: two separately loaded
    daemon instances in one process differ by ~10% on the batched
    path for the lifetime of the pair (heap/thread-placement luck —
    an A/A run with telemetry off in *both* daemons shows the same
    gap), which no amount of same-pair sampling removes and which
    would drown a 3% budget.  ``batched_overhead_pct`` from this
    layer is the number CI gates at 3%.

    **End-to-end layer (context).**  One daemon pair over real unix
    sockets reports absolute levels — batched rows/s and single-row
    round-trip p50 per variant — plus the paired single-trip
    overhead, which is dominated by the fixed few-µs per-request cost
    against a ~50µs round trip and is stable end to end.
    """
    from repro.api import (
        CODEC_BINARY,
        Classifier,
        ReproConfig,
        RequestEngine,
        ScoringClient,
        ScoringDaemon,
        WireSession,
    )
    from repro.dataset.registry import get_kernel_spec

    specs = [get_kernel_spec(name)
             for name in ("gemm", "atax", "fir", "stream_triad")]
    workdir = tempfile.mkdtemp(prefix="bench_obs_")
    variants = ("metrics_on", "metrics_off")
    try:
        dataset = build_dataset("unit", specs=specs,
                                cache_dir=os.path.join(workdir, "sim"))
        trained = Classifier(ReproConfig(profile="unit")).train(dataset)
        artifact = os.path.join(workdir, "model.json")
        trained.save(artifact)
        X = dataset.matrix(trained.feature_names_)
        X = X.astype(np.float32).astype(np.float64)
        reps = max(1, -(-batch_rows // len(X)))
        big = np.tile(X, (reps, 1))[:batch_rows]
        expected = [int(p) for p in trained.predict_batch(big)]

        # -- dispatch layer: shared classifier, one thread, ABBA ------
        shared = Classifier.load(artifact)

        def make_engine(variant: str):
            engine = RequestEngine(
                shared,
                metrics=(None if variant == "metrics_on" else False))
            wire = WireSession()
            wire.push(json.dumps(
                {"cmd": "hello",
                 "codecs": [CODEC_BINARY]}).encode() + b"\n")
            hello, _ = wire.decode(wire.next_frame())
            wire.negotiate(hello)
            if wire.codec.name != CODEC_BINARY:
                raise AssertionError(
                    f"negotiated {wire.codec.name!r}, wanted binary")
            return engine, wire

        engines = {variant: make_engine(variant)
                   for variant in variants}
        codec = engines[variants[0]][1].codec
        batch_framed = codec.encode_request(
            {"id": 1, "rows": np.ascontiguousarray(big, dtype="<f4")})
        single_framed = codec.encode_request(
            {"id": 1, "features": [float(v) for v in X[0]]})

        def leg_ns(variant: str, framed: bytes, leg_reps: int) -> int:
            engine, wire = engines[variant]
            total = 0
            for _ in range(leg_reps):
                wire.push(framed)
                raw = wire.next_frame()
                start = time.perf_counter_ns()
                request, error = wire.decode(raw)
                response = engine.turn(request, wire.codec, start)
                total += time.perf_counter_ns() - start
                if error is not None or not response:
                    raise AssertionError(f"{variant} dropped a frame")
            return total

        def dispatch_pct(framed: bytes, leg_reps: int):
            for variant in variants:
                leg_ns(variant, framed, 2 * leg_reps)  # warm-up
            ratios = []
            base_ns = []
            abba = (variants[0], variants[1],
                    variants[1], variants[0])
            for _ in range(rounds):
                legs = {variant: 0 for variant in variants}
                for variant in abba:
                    legs[variant] += leg_ns(variant, framed, leg_reps)
                on_leg, off_leg = (legs[variants[0]],
                                   legs[variants[1]])
                ratios.append((on_leg - off_leg) / off_leg * 100.0)
                base_ns.append(off_leg / (2 * leg_reps))
            ratios.sort()
            base_ns.sort()
            return (round(ratios[rounds // 2], 2),
                    base_ns[rounds // 2])

        batched_pct, batched_base = dispatch_pct(batch_framed,
                                                 batch_reps)
        single_pct, single_base = dispatch_pct(single_framed,
                                               single_reps)
        for _, wire in engines.values():
            if wire.fatal:
                raise AssertionError("wire session went fatal")
        dispatch = {
            "rounds": rounds,
            "batch_reps_per_leg": batch_reps,
            "single_reps_per_leg": single_reps,
            "batched_overhead_pct": batched_pct,
            "batched_base_ms": round(batched_base / 1e6, 3),
            "single_overhead_pct": single_pct,
            "single_base_us": round(single_base / 1e3, 1),
        }

        # -- end-to-end layer: daemon pair over unix sockets ----------
        sockets = {variant: os.path.join(workdir, f"{variant}.sock")
                   for variant in variants}
        daemons = [
            ScoringDaemon(Classifier.load(artifact),
                          socket_path=sockets[variant], workers=4,
                          metrics=(variant == "metrics_on"))
            for variant in variants
        ]

        def run_batch(client, variant: str) -> float:
            start = time.perf_counter()
            got = client.predict_batch(big)
            wall = time.perf_counter() - start
            if got != expected:
                raise AssertionError(f"{variant} batch diverged")
            return wall

        def run_single(client, variant: str) -> float:
            latencies = []
            for i in range(single_requests):
                row = list(map(float, X[i % len(X)]))
                start = time.perf_counter()
                got = client.predict(row)
                latencies.append(time.perf_counter() - start)
                if got != expected[i % len(X)]:
                    raise AssertionError(
                        f"{variant} single-row diverged")
            lat_us = np.asarray(latencies) * 1e6
            return round(float(np.percentile(lat_us, 50)), 1)

        batch_runs = {variant: [] for variant in variants}
        single_runs = {variant: [] for variant in variants}
        single_ratios = []
        abba = (variants[0], variants[1], variants[1], variants[0])
        with daemons[0], daemons[1]:
            clients = {}
            try:
                for variant in variants:
                    client = ScoringClient(socket_path=sockets[variant],
                                           codec=CODEC_BINARY)
                    if client.codec != CODEC_BINARY:
                        raise AssertionError(
                            f"negotiated {client.codec!r}, "
                            f"wanted binary")
                    clients[variant] = client
                for _ in range(3):  # page both variants in
                    for variant in variants:
                        run_batch(clients[variant], variant)
                        clients[variant].predict(
                            list(map(float, X[0])))
                for _ in range(e2e_rounds):
                    for variant in abba:
                        batch_runs[variant].append(
                            run_batch(clients[variant], variant))
                    legs = {variant: 0.0 for variant in variants}
                    for variant in abba:
                        p50 = run_single(clients[variant], variant)
                        legs[variant] += p50
                        single_runs[variant].append(p50)
                    single_ratios.append(
                        (legs[variants[0]] - legs[variants[1]])
                        / legs[variants[1]] * 100.0)
            finally:
                for client in clients.values():
                    client.close()

        levels = {}
        for variant in variants:
            levels[variant] = {
                "batched_rows_per_sec":
                    round(len(big) / min(batch_runs[variant]), 1),
                "single_round_trip_us_p50": min(single_runs[variant]),
            }
        single_ratios.sort()
        e2e_single_pct = round(single_ratios[e2e_rounds // 2], 2)
        return {
            "transport": "unix",
            "codec": "binary-v1",
            "backend": "compiled",
            "batch_rows": len(big),
            "single_requests": single_requests,
            "dispatch": dispatch,
            "metrics_on": levels["metrics_on"],
            "metrics_off": levels["metrics_off"],
            "batched_overhead_pct": batched_pct,
            "single_round_trip_overhead_pct": e2e_single_pct,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_stream_leg(results: dict, floor: float) -> int:
    """Run the stream-codec leg into *results*; 0 when over the bar."""
    print("stream codec shootout, json vs binary-v1 vs binary-v2 "
          "(interleaved paired) ...", flush=True)
    results["stream_codec"] = bench_stream_codec()
    stream = results["stream_codec"]
    for codec, rps in stream["pipelined_rows_per_sec"].items():
        print(f"  {codec:>9} pipelined: {rps} rows/s")
    print(f"  binary-v2 vs json {stream['stream_speedup_vs_json']}x, "
          f"vs binary-v1 {stream['stream_speedup_vs_v1']}x")
    print(f"  batched: v1 "
          f"{stream['batched_rows_per_sec']['binary-v1']} rows/s, v2 "
          f"{stream['batched_rows_per_sec']['binary-v2']} rows/s "
          f"({stream['batched_v2_vs_v1']}x)")
    status = 0
    if stream["stream_speedup_vs_json"] < floor:
        print(f"  FAIL: pipelined binary-v2 is only "
              f"{stream['stream_speedup_vs_json']}x pipelined json, "
              f"the bar is {floor}x", file=sys.stderr)
        status = 1
    if stream["batched_v2_vs_v1"] < 0.9:
        print(f"  FAIL: batched binary-v2 regressed to "
              f"{stream['batched_v2_vs_v1']}x of binary-v1",
              file=sys.stderr)
        status = 1
    return status


def _run_obs_leg(results: dict, budget_pct: float) -> int:
    """Run the telemetry-overhead leg into *results*; 0 when on budget."""
    print("telemetry overhead, metrics on vs off (interleaved "
          "paired) ...", flush=True)
    results["obs"] = bench_obs_overhead()
    obs = results["obs"]
    dispatch = obs["dispatch"]
    print(f"  batched dispatch: {dispatch['batched_base_ms']} ms base "
          f"-> {obs['batched_overhead_pct']}% overhead "
          f"(single dispatch {dispatch['single_base_us']} us -> "
          f"{dispatch['single_overhead_pct']}%)")
    print(f"  end-to-end batched: on "
          f"{obs['metrics_on']['batched_rows_per_sec']} rows/s, off "
          f"{obs['metrics_off']['batched_rows_per_sec']} rows/s")
    print(f"  end-to-end single p50: on "
          f"{obs['metrics_on']['single_round_trip_us_p50']} us, off "
          f"{obs['metrics_off']['single_round_trip_us_p50']} us -> "
          f"{obs['single_round_trip_overhead_pct']}% overhead")
    if obs["batched_overhead_pct"] > budget_pct:
        print(f"  FAIL: batched telemetry overhead "
              f"{obs['batched_overhead_pct']}% exceeds the "
              f"{budget_pct}% budget", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="quick",
                        help="campaign profile to cold-build "
                             "(default quick)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="parallel worker count to compare against "
                             "--jobs 1 (default 4)")
    parser.add_argument("--rows", type=int, default=10_000,
                        help="inference batch size (default 10000)")
    parser.add_argument("--output", default="BENCH_pipeline.json")
    parser.add_argument("--skip-build", action="store_true",
                        help="only run the inference benchmark")
    parser.add_argument("--daemon-requests", type=int, default=200,
                        help="single-row requests per daemon client "
                             "(default 200)")
    parser.add_argument("--obs-only", action="store_true",
                        help="run only the telemetry-overhead leg and "
                             "merge its 'obs' section into --output")
    parser.add_argument("--obs-budget", type=float, default=3.0,
                        help="fail when batched telemetry overhead "
                             "exceeds this percentage (default 3.0)")
    parser.add_argument("--stream-only", action="store_true",
                        help="run only the stream-codec shootout and "
                             "merge its 'stream_codec' section into "
                             "--output")
    parser.add_argument("--stream-floor", type=float, default=2.0,
                        help="fail when pipelined binary-v2 is below "
                             "this multiple of pipelined json "
                             "(default 2.0)")
    args = parser.parse_args(argv)

    if args.obs_only or args.stream_only:
        # CI's quick gates: refresh just the requested section(s),
        # keep every other recorded number untouched
        results = {}
        if os.path.exists(args.output):
            try:
                with open(args.output) as handle:
                    results = json.load(handle)
            except (OSError, json.JSONDecodeError):
                results = {}
        results.setdefault("bench", "pipeline")
        status = 0
        if args.obs_only:
            status |= _run_obs_leg(results, args.obs_budget)
        if args.stream_only:
            status |= _run_stream_leg(results, args.stream_floor)
        with open(args.output, "w") as handle:
            json.dump(results, handle, indent=2)
            handle.write("\n")
        print(f"written to {args.output}")
        return status

    results = {
        "bench": "pipeline",
        "profile": args.profile,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
    }

    if args.skip_build and os.path.exists(args.output):
        # keep the previous campaign numbers instead of dropping them
        try:
            with open(args.output) as handle:
                previous = json.load(handle)
            if "cold_build" in previous:
                results["cold_build"] = previous["cold_build"]
        except (OSError, json.JSONDecodeError):
            pass

    if not args.skip_build:
        print(f"cold build, profile={args.profile!r}, jobs=1 ...",
              flush=True)
        serial = bench_cold_build(args.profile, jobs=1)
        print(f"  {serial['seconds']:.2f} s "
              f"({serial['n_samples']} samples)")
        print(f"cold build, profile={args.profile!r}, "
              f"jobs={args.jobs} ...", flush=True)
        parallel = bench_cold_build(args.profile, jobs=args.jobs)
        print(f"  {parallel['seconds']:.2f} s")
        results["cold_build"] = {
            "serial": serial,
            "parallel": parallel,
            "speedup": round(serial["seconds"] / parallel["seconds"], 2),
        }

    print(f"inference, {args.rows} rows ...", flush=True)
    results["inference"] = bench_inference(args.rows)
    print(f"  tree    x{results['inference']['tree']['speedup']}")
    print(f"  forest  x{results['inference']['forest']['speedup']}")

    print("model artifact load / single-prediction latency ...",
          flush=True)
    results["model_io"] = bench_model_io()
    for family in ("tree", "forest"):
        io_stats = results["model_io"][family]
        print(f"  {family:6s} load {io_stats['load_ms']} ms, "
              f"predict {io_stats['predict_us']} us "
              f"({io_stats['artifact_kb']} KiB)")

    print("daemon round-trip latency / throughput ...", flush=True)
    results["daemon"] = bench_daemon(
        requests_per_client=args.daemon_requests)
    for level in results["daemon"]["levels"]:
        print(f"  {level['clients']:>2} client(s): "
              f"p50 {level['round_trip_us_p50']} us, "
              f"p99 {level['round_trip_us_p99']} us, "
              f"{level['rows_per_sec']} rows/s")
    batched = results["daemon"]["batched"]
    print(f"  batched   : {batched['rows']} rows in "
          f"{batched['seconds']} s ({batched['rows_per_sec']} rows/s)")

    print("fleet daemon (event loop + micro-batching, 2 models) ...",
          flush=True)
    results["fleet"] = bench_fleet(
        requests_per_client=args.daemon_requests)
    for level in results["fleet"]["levels"]:
        print(f"  {level['clients']:>2} client(s): "
              f"p50 {level['round_trip_us_p50']} us, "
              f"p99 {level['round_trip_us_p99']} us, "
              f"{level['rows_per_sec']} rows/s")
    two = results["fleet"]["two_models"]
    print(f"  2-model mix ({two['clients']} clients): "
          f"{two['rows_per_sec']} rows/s")
    fbatched = results["fleet"]["batched"]
    print(f"  batched   : {fbatched['rows']} rows in "
          f"{fbatched['seconds']} s ({fbatched['rows_per_sec']} rows/s)")

    print("pipelined client vs sequential (interleaved paired) ...",
          flush=True)
    results["pipeline_client"] = bench_pipelined()
    pipe = results["pipeline_client"]
    print(f"  sequential {pipe['sequential_rows_per_sec']} rows/s, "
          f"pipelined {pipe['pipelined_rows_per_sec']} rows/s "
          f"(window {pipe['window']}) -> {pipe['speedup']}x")

    print("sharded daemons at 1/2/4 shards (interleaved rounds) ...",
          flush=True)
    results["shards"] = bench_shards()
    for level in results["shards"]["levels"]:
        print(f"  {level['shards']} shard(s): "
              f"{level['rows_per_sec']} rows/s "
              f"({level['speedup_vs_1_shard']}x vs 1 shard)")

    print("supervised fleet under kill churn (interleaved paired) ...",
          flush=True)
    results["supervisor"] = bench_supervised_churn()
    churn = results["supervisor"]
    print(f"  quiet {churn['quiet_rows_per_sec']} rows/s, "
          f"churn {churn['churn_rows_per_sec']} rows/s "
          f"({churn['kills']} kills, {churn['heals']} heals) -> "
          f"{churn['throughput_retention']}x retained")

    print("wire codec x backend matrix (interleaved rounds) ...",
          flush=True)
    results["codec_backend"] = bench_codec_backend()
    for variant in results["codec_backend"]["variants"]:
        print(f"  {variant['codec']:>9} + {variant['backend']:9s}: "
              f"{variant['batched_rows_per_sec']} rows/s batched, "
              f"p50 {variant['single_round_trip_us_p50']} us "
              f"({variant['speedup_vs_json_reference']}x vs "
              f"json+reference)")
    best = results["codec_backend"]["variants"][-1]
    ref_batched = results["daemon"]["batched"]["rows_per_sec"]
    ratio = round(best["batched_rows_per_sec"] / ref_batched, 2)
    results["codec_backend"]["speedup_vs_daemon_batched"] = ratio
    print(f"  binary+compiled vs daemon batched "
          f"({ref_batched} rows/s): {ratio}x")

    status = _run_stream_leg(results, args.stream_floor)
    status |= _run_obs_leg(results, args.obs_budget)

    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"written to {args.output}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
